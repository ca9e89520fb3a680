//! Orchestration overhead guard: the resilient multi-device scheduler
//! ([`qgpu_sched::devicegroup::DeviceGroup`] + pace tracking + barrier
//! bookkeeping) on a **healthy** fleet vs the plain round-robin dealer.
//!
//! The orchestrator's contract is "pay only when disrupted": with no
//! device loss, no straggler, and no memory budget, it must deal tasks
//! exactly like `RoundRobin` (epoch 0 is the identity rotation), never
//! steal (every device runs at the same pace), leave the modeled
//! timeline untouched, and add under 3% of wall-clock on a 4-device
//! qft_20 — the bookkeeping is one EMA update and one pace comparison
//! per chunk task. `cargo bench` measures paired rounds, `cargo test
//! --benches` smoke-runs qft_12 (see [`qgpu_bench::guard`]).

use std::time::Instant;

use qgpu::{SimConfig, Simulator, Version};
use qgpu_bench::guard::Guard;
use qgpu_circuit::generators::Benchmark;
use qgpu_device::Platform;
use qgpu_sched::devicegroup::OrchestratorConfig;

/// Devices in the modeled fleet.
const DEVICES: usize = 4;

fn run_once(qubits: usize, orchestrated: bool) -> (f64, f64) {
    let platform = Platform::scaled_paper_p100(qubits).with_devices(DEVICES);
    let mut cfg = SimConfig::new(platform)
        .with_version(Version::QGpu)
        .timing_only();
    if orchestrated {
        cfg = cfg.with_orchestration(OrchestratorConfig::default());
    }
    let circuit = Benchmark::Qft.generate(qubits);
    let sim = Simulator::new(cfg);
    let start = Instant::now();
    let result = sim.run(&circuit);
    let elapsed = start.elapsed().as_secs_f64();
    // Healthy fleet: the orchestrator must not react to anything.
    assert_eq!(result.report.devices_lost, 0);
    assert_eq!(result.report.chunks_migrated, 0);
    assert_eq!(result.report.steals, 0, "healthy runs never migrate");
    assert_eq!(result.report.pressure_downshifts, 0);
    (elapsed, result.report.total_time)
}

fn main() {
    let guard = Guard {
        label: "orchestration_overhead/qft",
        smoke: 12,
        size: 20,
        budget: 0.03,
    };
    // Every run (one width per invocation) models the first run's timeline.
    let mut first = None;
    guard.main(|qubits, orchestrated| {
        let (elapsed, model) = run_once(qubits, orchestrated);
        assert_eq!(
            *first.get_or_insert(model),
            model,
            "fault-free orchestration must not change the modeled timeline"
        );
        elapsed
    });
}
