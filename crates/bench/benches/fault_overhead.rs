//! Resilience overhead guard: integrity checking (per-chunk CRC32
//! sealing + arrival verification and retry plumbing) at **zero**
//! injected faults vs the plain pipeline.
//!
//! The resilient pipeline's contract is "pay only for what you enable":
//! with fault injection off and integrity checks on, the real work added
//! is the encode-time CRC sealing (taken by the executor's sizing sink
//! while each block is in cache, beside the codec's size walk) plus
//! per-transfer retry plumbing, and that must stay
//! under 3% of wall-clock on qft_20 (the experiment plan's budget,
//! recorded in EXPERIMENTS.md). `cargo bench` measures paired rounds,
//! `cargo test --benches` smoke-runs qft_12 (see [`qgpu_bench::guard`]).

use std::time::Instant;

use qgpu::{SimConfig, Simulator, Version};
use qgpu_bench::guard::Guard;
use qgpu_circuit::generators::Benchmark;

fn run_once(qubits: usize, checked: bool) -> f64 {
    let mut cfg = SimConfig::scaled_paper(qubits)
        .with_version(Version::QGpu)
        .timing_only();
    if checked {
        cfg = cfg.with_integrity_checks();
    }
    let circuit = Benchmark::Qft.generate(qubits);
    let sim = Simulator::new(cfg);
    let start = Instant::now();
    let result = sim.run(&circuit);
    let elapsed = start.elapsed().as_secs_f64();
    // Zero faults injected: the checked run must never retry or degrade,
    // and the modeled timeline must be identical to the plain run's.
    assert_eq!(result.report.chunk_retries, 0);
    assert_eq!(result.report.codec_fallbacks, 0);
    elapsed
}

fn main() {
    let guard = Guard {
        label: "fault_overhead/qft",
        smoke: 12,
        size: 20,
        budget: 0.03,
    };
    guard.main(run_once);
}
