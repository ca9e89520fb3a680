//! ABFT overhead guard: per-chunk invariant verification
//! (`--verify-invariants`) at **zero** injected faults vs the plain
//! pipeline.
//!
//! The invariant layer's contract mirrors the CRC layer's: pay only
//! for what you enable, and what you enable must be cheap. In unarmed
//! verify mode the real work added is one compensated norm+peak
//! reduction per touched chunk per non-diagonal gate (diagonal runs
//! pass through and widen later tolerances instead), and that must
//! stay under 3% of wall-clock on qft_20 (the experiment plan's
//! budget, recorded in EXPERIMENTS.md). `cargo bench` measures paired
//! rounds, `cargo test --benches` smoke-runs qft_12 (see
//! [`qgpu_bench::guard`]).

use std::time::Instant;

use qgpu::{SimConfig, Simulator, Version};
use qgpu_bench::guard::Guard;
use qgpu_circuit::generators::Benchmark;

fn run_once(qubits: usize, verified: bool) -> f64 {
    let mut cfg = SimConfig::scaled_paper(qubits)
        .with_version(Version::QGpu)
        .timing_only();
    if verified {
        cfg = cfg.with_verify_invariants();
    }
    let circuit = Benchmark::Qft.generate(qubits);
    let sim = Simulator::new(cfg);
    let start = Instant::now();
    let result = sim.run(&circuit);
    let elapsed = start.elapsed().as_secs_f64();
    if verified {
        // Zero faults injected: verification must run and stay silent.
        let s = result.integrity.expect("verification attaches a summary");
        assert!(s.checks > 0, "invariant checks must actually run");
        assert_eq!(s.violations, 0, "false positive on a fault-free run");
    } else {
        assert!(result.integrity.is_none());
    }
    elapsed
}

fn main() {
    let guard = Guard {
        label: "integrity_overhead/qft",
        smoke: 12,
        size: 20,
        budget: 0.03,
    };
    guard.main(run_once);
}
