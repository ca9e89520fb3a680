//! Serving overhead guard: submitting jobs through the `qgpu-serve`
//! stack (admission control, fair queue, a worker thread that dequeues
//! from it, cancellation token plumbing) vs invoking the engine
//! directly, at **zero** injected faults.
//!
//! The server's contract is "the machinery around the engine is free
//! when nothing goes wrong": per-job serving cost is a queue hop and a
//! token poll per gate boundary, and the batch of J jobs on qft_16 must
//! complete within 3% of J back-to-back direct engine invocations.
//! `cargo bench` measures paired rounds, `cargo test --benches`
//! smoke-runs qft_10 (see [`qgpu_bench::guard`]).

use std::time::Instant;

use qgpu::{SimConfig, Simulator, Version};
use qgpu_bench::guard::Guard;
use qgpu_circuit::generators::Benchmark;
use qgpu_serve::{JobSpec, JobStatus, ServeConfig, Server, ShutdownMode};

/// Jobs per batch: enough to amortize server startup into noise while
/// keeping a sample affordable.
const JOBS: usize = 6;

fn cfg(qubits: usize) -> SimConfig {
    SimConfig::scaled_paper(qubits)
        .with_version(Version::QGpu)
        .timing_only()
}

/// J sequential direct engine invocations (the floor being compared
/// against: same circuit, same config, no serving machinery).
fn run_direct(qubits: usize) -> f64 {
    let circuit = Benchmark::Qft.generate(qubits);
    let start = Instant::now();
    for _ in 0..JOBS {
        let sim = Simulator::new(cfg(qubits));
        let result = sim.run(&circuit);
        assert_eq!(result.report.chunk_retries, 0);
    }
    start.elapsed().as_secs_f64()
}

/// The same J jobs through a 1-worker/1-device server: identical
/// sequential engine work, so any wall-clock delta is pure serving
/// overhead (submit, WFQ, the worker's wake-up, token polls).
fn run_served(qubits: usize) -> f64 {
    let circuit = Benchmark::Qft.generate(qubits);
    let server = Server::new(ServeConfig::default().with_workers(1).with_devices(1));
    let start = Instant::now();
    let handles: Vec<_> = (0..JOBS)
        .map(|_| {
            server
                .submit(JobSpec::new(circuit.clone(), cfg(qubits)))
                .expect("no budget or cap configured")
        })
        .collect();
    for h in &handles {
        let status = h.wait_timeout(std::time::Duration::from_secs(600));
        assert_eq!(status, Some(JobStatus::Completed));
    }
    let elapsed = start.elapsed().as_secs_f64();
    server.shutdown(ShutdownMode::Drain);
    elapsed
}

fn main() {
    let guard = Guard {
        label: "serve_overhead/qft",
        smoke: 10,
        size: 16,
        budget: 0.03,
    };
    guard.main(|qubits, served| {
        if served {
            run_served(qubits)
        } else {
            run_direct(qubits)
        }
    });
}
