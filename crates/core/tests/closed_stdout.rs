//! A reader that closes `qgpu-sim`'s stdout early (`| head -1`) ends the
//! output, not the process: the exit code stays 0 and nothing panics.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

#[test]
fn closed_stdout_is_a_normal_end() {
    // 2^14 basis-state lines (~500 KB) outlast any pipe buffer, so the
    // binary is still writing when the reader goes away.
    let mut child = Command::new(env!("CARGO_BIN_EXE_qgpu-sim"))
        .args(["-b", "qft", "-q", "14", "--top", "16384"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("qgpu-sim starts");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("first line");
    assert_eq!(first, "top basis states:\n");
    // The reader is dropped here: the pipe's read end is closed.
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("stderr");
    let status = child.wait().expect("qgpu-sim exits");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(status.code(), Some(0), "stderr: {stderr}");
}
