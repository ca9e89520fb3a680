//! Host memory follows the non-zero state, measured where a user pays
//! it: the process's resident high-water mark across a collecting run,
//! and how the kernel backs the state the run returns.
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
use qgpu_statevec::StateVector;

/// A `/proc/self/status` field, in bytes.
fn status_bytes(field: &str) -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with(field));
    let kib = line.and_then(|l| l.split_whitespace().nth(1)).expect(field);
    kib.parse::<usize>().expect("a number of KiB") << 10
}

/// The `AnonHugePages` of the mappings that hold `state`, in bytes. An
/// advised range is a mapping of its own, so the state may span several.
fn huge_page_bytes(state: &StateVector) -> usize {
    let start = state.amps().as_ptr() as usize;
    let state = start..start + state.len() * 16;
    let smaps = std::fs::read_to_string("/proc/self/smaps").expect("procfs");
    // A mapping's header line is `lo-hi perms …`; its fields follow it.
    let range = |l: &str| {
        let (lo, hi) = l.split_whitespace().next()?.split_once('-')?;
        let bound = |s| usize::from_str_radix(s, 16).ok();
        Some(bound(lo)?..bound(hi)?)
    };
    let mut holds_state = false;
    let mut kib = 0;
    for line in smaps.lines() {
        if let Some(r) = range(line) {
            holds_state = r.start < state.end && state.start < r.end;
        } else if let Some(field) = line.strip_prefix("AnonHugePages:").filter(|_| holds_state) {
            let value = field.split_whitespace().next().map(str::parse::<usize>);
            kib += value.and_then(Result::ok).expect("a number of KiB");
        }
    }
    kib << 10
}

/// The host's transparent-huge-page mode: `always`, `madvise` or `never`.
fn thp_mode() -> String {
    let enabled = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled");
    let enabled = enabled.unwrap_or_else(|_| "[never]".into());
    let mode = enabled.split('[').nth(1).and_then(|m| m.split(']').next());
    mode.unwrap_or("never").to_string()
}

/// An upper bound on how far one collecting Q-GPU run raised resident
/// memory (exact when the run sets a new high-water mark), and the state
/// it returned.
fn run_growth(bench: Benchmark, n: usize) -> (usize, StateVector) {
    let circuit = bench.generate(n);
    let sim = Simulator::new(SimConfig::scaled_paper(n).with_version(Version::QGpu));
    let before = status_bytes("VmRSS:");
    let result = sim.try_run(&circuit).expect("fault-free run");
    let growth = status_bytes("VmHWM:").saturating_sub(before);
    let state = result.state.expect("collected");
    assert!((state.norm() - 1.0).abs() < 1e-9);
    (growth, state)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the arena is lazily zeroed in optimized builds only"
)]
fn resident_memory_follows_the_live_chunks_and_one_copy_of_the_state() {
    let thp = thp_mode();
    // Bernstein–Vazirani ends in a handful of live chunks: the 16 MiB
    // state the run returns is almost all pages nothing ever touched.
    // What is resident follows the widest live set on the way (≈ 80 k
    // two-amplitude chunks here): its arena pages and its per-chunk table
    // slots — ≈ 5.6 MiB; a dense vector plus dense tables took 33 MiB.
    let (growth, state) = run_growth(Benchmark::Bv, 20);
    let bytes = state.len() * 16;
    assert!(
        growth < bytes / 2,
        "a 20-qubit bv run raised VmHWM by {growth} B for a {bytes} B state"
    );
    // No dispatch writes 2 MiB of fresh arena whole, so none is advised.
    if thp == "always" {
        println!("THP is `always`: every mapping may get huge pages; bv's is not checked");
    } else {
        assert_eq!(
            huge_page_bytes(&state),
            0,
            "bv's sparse arena got huge pages"
        );
    }
    drop(state);
    // IQP ends dense: the state is resident once — the arena the run
    // worked in is the vector it returns — not twice.
    let (growth, state) = run_growth(Benchmark::Iqp, 18);
    let bytes = state.len() * 16;
    assert!(
        growth < bytes * 3 / 2,
        "an 18-qubit iqp run raised VmHWM by {growth} B for a {bytes} B state"
    );
    drop(state);
    // Its Hadamard layer writes fresh halves of 4 and 8 MiB whole: the
    // regions inside them are advised and mapped as huge pages.
    if thp == "never" {
        println!("THP is `never` on this host: the huge-page check is skipped");
        return;
    }
    let (_, state) = run_growth(Benchmark::Iqp, 20);
    assert!(
        huge_page_bytes(&state) > 0,
        "a 20-qubit iqp run's arena got no huge pages (THP `{thp}`)"
    );
}
