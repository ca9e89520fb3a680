//! Observability overhead guard: spans-enabled vs spans-disabled
//! wall-clock on the full Q-GPU pipeline.
//!
//! The recorder's contract is "zero-cost when disabled, cheap when
//! enabled": disabled instrumentation is a branch on `None`, and enabled
//! instrumentation records spans per *gate* (not per chunk) plus O(1)
//! counter/histogram touches. This bench enforces the enabled side —
//! with the full telemetry stack on: spans, the per-stage attribution
//! registry, and the flight-recorder event ring — within 2% on qft_20.
//! `cargo bench` measures paired rounds, `cargo test --benches`
//! smoke-runs qft_12 (see [`qgpu_bench::guard`]).

use std::time::Instant;

use qgpu::{FlightConfig, SimConfig, Simulator, Version};
use qgpu_bench::guard::Guard;
use qgpu_circuit::generators::Benchmark;

fn run_once(qubits: usize, obs: bool) -> f64 {
    let mut cfg = SimConfig::scaled_paper(qubits)
        .with_version(Version::QGpu)
        .timing_only();
    if obs {
        // Everything a telemetry-on deployment pays for: spans, the
        // labeled registry, and the flight ring (no faults fire, so the
        // ring never dumps).
        cfg = cfg.with_obs_spans().with_flight(FlightConfig::default());
    }
    let circuit = Benchmark::Qft.generate(qubits);
    let sim = Simulator::new(cfg);
    let start = Instant::now();
    let result = sim.run(&circuit);
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(result.obs.is_some(), obs, "obs payload must match the flag");
    elapsed
}

fn main() {
    let guard = Guard {
        label: "obs_overhead/qft",
        smoke: 12,
        size: 20,
        budget: 0.02,
    };
    guard.main(run_once);
}
