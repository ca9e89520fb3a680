//! Host memory follows the non-zero state, measured where a user pays
//! it: the process's resident high-water mark across a collecting run.
//!
//! One test, in a binary of its own, so nothing else moves `VmHWM`. It
//! needs an optimized build: the state arena comes lazily zeroed from the
//! allocator only where the compiler folds its zero-fill into the
//! allocation (see `zeroed` in `qgpu-statevec`'s `chunked.rs`), which
//! is exactly what this test watches. CI runs it with `--release`.
#![cfg(target_os = "linux")]

use qgpu::config::{SimConfig, Version};
use qgpu::Simulator;
use qgpu_circuit::generators::Benchmark;

/// A `/proc/self/status` field, in bytes.
fn status_bytes(field: &str) -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with(field));
    let kib = line.and_then(|l| l.split_whitespace().nth(1)).expect(field);
    kib.parse::<usize>().expect("a number of KiB") << 10
}

/// An upper bound on how far one collecting Q-GPU run raised resident
/// memory (exact when the run sets a new high-water mark), and the bytes
/// of the state it returned.
fn run_growth(bench: Benchmark, n: usize) -> (usize, usize) {
    let circuit = bench.generate(n);
    let sim = Simulator::new(SimConfig::scaled_paper(n).with_version(Version::QGpu));
    let before = status_bytes("VmRSS:");
    let result = sim.try_run(&circuit).expect("fault-free run");
    let growth = status_bytes("VmHWM:").saturating_sub(before);
    let state = result.state.as_ref().expect("collected").len() * 16;
    assert!((result.state.expect("collected").norm() - 1.0).abs() < 1e-9);
    (growth, state)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the arena is lazily zeroed in optimized builds only"
)]
fn resident_memory_follows_the_live_chunks_and_one_copy_of_the_state() {
    // Bernstein–Vazirani ends in a handful of live chunks: the 16 MiB
    // state the run returns is almost all pages nothing ever touched.
    // What is resident follows the widest live set on the way (≈ 80 k
    // two-amplitude chunks here): its arena pages and its per-chunk table
    // slots — ≈ 5.6 MiB; a dense vector plus dense tables took 33 MiB.
    let (growth, state) = run_growth(Benchmark::Bv, 20);
    assert!(
        growth < state / 2,
        "a 20-qubit bv run raised VmHWM by {growth} B for a {state} B state"
    );
    // IQP ends dense: the state is resident once — the arena the run
    // worked in is the vector it returns — not twice.
    let (growth, state) = run_growth(Benchmark::Iqp, 18);
    assert!(
        growth < state * 3 / 2,
        "an 18-qubit iqp run raised VmHWM by {growth} B for a {state} B state"
    );
}
