//! Mini chaos soak: dozens of concurrent jobs through engine-level
//! fault injection, serve-level worker deaths, a mid-soak device kill,
//! tight deadlines, and caller cancellations — every job must reach a
//! terminal state, and every *completed* job must be bit-identical to
//! its fault-free reference. (The full-size soak lives in the
//! `qgpu-load` binary; this is the always-on `cargo test` version.)

use std::time::Duration;

use qgpu::{SimConfig, Simulator, Version};
use qgpu_circuit::generators::Benchmark;
use qgpu_serve::{ChaosConfig, JobSpec, JobStatus, ServeConfig, Server, ShutdownMode};

/// Keep panics from chaos-injected worker deaths out of test output.
fn quiet_chaos_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let is_chaos = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("chaos:"))
            || info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("chaos:"));
        if !is_chaos {
            default(info);
        }
    }));
}

fn faulty_cfg(qubits: usize, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::scaled_paper(qubits).with_version(Version::QGpu);
    cfg.faults.seed = seed;
    cfg.faults.p_transfer_corrupt = 0.02;
    cfg.faults.p_codec_fail = 0.05;
    cfg.faults.p_worker_death = 0.002;
    cfg
}

#[test]
fn chaos_soak_all_jobs_terminal_and_completions_bit_exact() {
    quiet_chaos_panics();
    let server = Server::new(
        ServeConfig::default()
            .with_workers(4)
            .with_devices(2)
            .with_chaos(ChaosConfig {
                seed: 0xC0FFEE,
                p_worker_panic: 0.08,
                fail_first_attempts: 0,
            }),
    );

    // Fault-free references, one per (circuit, shots) class.
    let reference = |qubits: usize, shots: u64| {
        let mut cfg = SimConfig::scaled_paper(qubits).with_version(Version::QGpu);
        cfg.shots = shots;
        Simulator::new(cfg)
            .try_run(&Benchmark::Qft.generate(qubits))
            .expect("fault-free reference")
    };
    let ref10 = reference(10, 16);
    let ref12 = reference(12, 16);

    let tenants = ["alpha", "beta", "gamma", "delta"];
    let mut handles = Vec::new();
    let mut cancelled_ids = Vec::new();
    let mut deadlined_ids = Vec::new();
    for i in 0..48u64 {
        let qubits = if i % 3 == 0 { 12 } else { 10 };
        let mut spec = JobSpec::new(
            Benchmark::Qft.generate(qubits),
            faulty_cfg(qubits, 1000 + i),
        )
        .with_tenant(tenants[(i % 4) as usize])
        .with_shots(16);
        if i % 11 == 5 {
            // Deliberately unmeetable deadline.
            spec = spec.with_deadline(Duration::from_micros(50));
        }
        let handle = server.submit(spec).expect("admitted (no budget/cap set)");
        if i % 11 == 5 {
            deadlined_ids.push(handle.id());
        }
        if i % 8 == 2 {
            handle.cancel();
            cancelled_ids.push(handle.id());
        }
        handles.push((qubits, handle));
    }
    // Kill a device mid-soak: running jobs get evicted and must retry
    // onto the survivor.
    std::thread::sleep(Duration::from_millis(20));
    server.kill_device(0);

    let mut completed = 0usize;
    for (qubits, handle) in &handles {
        let status = handle
            .wait_timeout(Duration::from_secs(300))
            .expect("every job must reach a terminal state (no hangs)");
        assert!(status.is_terminal());
        if status == JobStatus::Completed {
            completed += 1;
            let result = handle.result().expect("completed job has a result");
            let reference = if *qubits == 12 { &ref12 } else { &ref10 };
            assert_eq!(
                result
                    .state
                    .as_ref()
                    .expect("state collected")
                    .max_deviation(reference.state.as_ref().unwrap()),
                0.0,
                "job {} completed through faults but is not bit-identical",
                handle.id()
            );
            assert_eq!(
                result.samples,
                reference.samples,
                "job {} shot samples must replay bit-exactly",
                handle.id()
            );
        }
    }
    assert!(
        completed >= handles.len() / 2,
        "most jobs should survive this fault mix: {completed}/{}",
        handles.len()
    );
    for (_, h) in &handles {
        if cancelled_ids.contains(&h.id()) {
            assert!(
                matches!(
                    h.status(),
                    JobStatus::Cancelled | JobStatus::Completed | JobStatus::Failed { .. }
                ),
                "early-cancelled job ended {:?}",
                h.status()
            );
        }
    }
    assert!(
        handles
            .iter()
            .filter(|(_, h)| deadlined_ids.contains(&h.id()))
            .all(|(_, h)| h.status() == JobStatus::DeadlineExceeded),
        "50µs deadlines must expire"
    );

    let metrics = server.metrics().clone();
    server.shutdown(ShutdownMode::Drain);
    let flat = metrics.recorder().registry().snapshot();
    let get = |n: &str| flat.counter_total(n);
    assert_eq!(get("serve.admitted"), 48);
    assert_eq!(get("serve.devices_lost"), 1);
    assert!(get("serve.deadline_exceeded") >= deadlined_ids.len() as u64);
    let terminal = get("serve.completed")
        + get("serve.failed")
        + get("serve.cancelled")
        + get("serve.deadline_exceeded");
    assert_eq!(
        terminal, 48,
        "every admitted job accounted for exactly once"
    );
}

/// Jobs whose kernels keep flipping bits (detected and repaired by the
/// engine's ABFT layer) must still complete bit-exact — and the fleet
/// health board must quarantine the slot that kept producing them, so
/// new placements avoid it.
#[test]
fn kernel_flip_jobs_quarantine_their_device_and_stay_bit_exact() {
    let qubits = 8;
    let circuit = Benchmark::Qft.generate(qubits);
    let reference = {
        let mut cfg = SimConfig::scaled_paper(qubits).with_version(Version::QGpu);
        cfg.shots = 16;
        Simulator::new(cfg)
            .try_run(&circuit)
            .expect("fault-free reference")
    };

    // One worker serializes execution, so the least-loaded pick keeps
    // landing jobs on slot 0 until the board pulls it out of rotation.
    let server = Server::new(ServeConfig::default().with_workers(1).with_devices(2));
    let mut handles = Vec::new();
    for i in 0..8u64 {
        let mut cfg = SimConfig::scaled_paper(qubits).with_version(Version::QGpu);
        cfg.faults.seed = 0x5DC + i;
        // Deterministic single flip per job; the engine detects it via
        // the chunk-norm invariant and repairs it by re-execution.
        cfg.faults.kernel_flip_at = 5;
        let spec = JobSpec::new(circuit.clone(), cfg)
            .with_tenant("sdc")
            .with_shots(16);
        handles.push(server.submit(spec).expect("admitted"));
    }
    for h in &handles {
        let status = h
            .wait_timeout(Duration::from_secs(120))
            .expect("job must reach a terminal state");
        assert_eq!(status, JobStatus::Completed, "repaired job completes");
        let result = h.result().expect("completed job has a result");
        let summary = result.integrity.expect("integrity summary attached");
        assert!(summary.violations >= 1, "the injected flip was detected");
        assert!(summary.fully_repaired(), "every violation was repaired");
        let (state, ref_state) = (
            result.state.as_ref().expect("state kept"),
            reference.state.as_ref().expect("reference state kept"),
        );
        assert_eq!(
            state.max_deviation(ref_state),
            0.0,
            "repaired state is bit-identical to the fault-free reference"
        );
        assert_eq!(result.samples, reference.samples, "samples bit-identical");
    }

    let quarantined: Vec<usize> = (0..2)
        .filter(|&d| server.device_health(d).state == qgpu_serve::HealthState::Quarantined)
        .collect();
    assert!(
        !quarantined.is_empty(),
        "repeated violations on one slot must quarantine it"
    );
    let metrics = server.metrics().clone();
    server.shutdown(ShutdownMode::Drain);
    let flat = metrics.recorder().registry().snapshot();
    let get = |n: &str| flat.counter_total(n);
    assert!(get("serve.quarantines") >= 1, "quarantine decision counted");
    assert!(
        get("serve.integrity_violations") >= handles.len() as u64,
        "each job's repaired violations surfaced in serve metrics"
    );
    assert!(
        metrics.recorder().flight_triggered(),
        "quarantine is a fault-class flight event"
    );
}
