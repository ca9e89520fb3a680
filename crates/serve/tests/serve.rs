//! End-to-end serving behaviour: bit-exact round trips, backpressure,
//! memory admission, cancellation, deadlines, retries, device loss,
//! and shutdown.

use std::time::Duration;

use qgpu::{SimConfig, Simulator, Version};
use qgpu_circuit::generators::Benchmark;
use qgpu_serve::{
    ChaosConfig, JobSpec, JobStatus, Priority, RejectReason, ServeConfig, Server, ShutdownMode,
};
use qgpu_statevec::StateVector;

const WAIT: Duration = Duration::from_secs(120);

fn cfg(qubits: usize) -> SimConfig {
    SimConfig::scaled_paper(qubits).with_version(Version::QGpu)
}

fn assert_bit_identical(a: &StateVector, b: &StateVector) {
    assert_eq!(
        a.max_deviation(b),
        0.0,
        "served result must be bit-identical to the direct run"
    );
}

#[test]
fn served_job_is_bit_identical_to_direct_invocation() {
    let server = Server::new(ServeConfig::default().with_workers(2));
    let spec = JobSpec::new(Benchmark::Qft.generate(10), cfg(10)).with_shots(64);
    let handle = server.submit(spec).expect("admitted");
    assert_eq!(handle.wait_timeout(WAIT), Some(JobStatus::Completed));
    let served = handle.result().expect("completed job has a result");

    let mut direct_cfg = cfg(10);
    direct_cfg.shots = 64;
    let direct = Simulator::new(direct_cfg)
        .try_run(&Benchmark::Qft.generate(10))
        .expect("clean run");
    assert_bit_identical(
        served.state.as_ref().expect("state collected"),
        direct.state.as_ref().expect("state collected"),
    );
    assert_eq!(
        served.samples, direct.samples,
        "seeded shot sampling must replay identically through the server"
    );
    assert_eq!(handle.attempts(), 1);
    server.shutdown(ShutdownMode::Drain);
}

#[test]
fn full_tenant_queue_sheds_with_an_explicit_reason() {
    // One worker, per-tenant bound of 2 in-flight jobs: the third
    // submit must be refused, not silently dropped — and a different
    // tenant's queue is unaffected.
    let server = Server::new(ServeConfig::default().with_workers(1).with_queue_cap(2));
    let long = || JobSpec::new(Benchmark::Qft.generate(14), cfg(14)).with_tenant("acme");
    let a = server.submit(long()).expect("slot 1");
    let b = server.submit(long()).expect("slot 2");
    let refused = server.submit(long());
    assert_eq!(
        refused.err(),
        Some(RejectReason::QueueFull {
            tenant: "acme".into()
        })
    );
    let other = server
        .submit(JobSpec::new(Benchmark::Qft.generate(10), cfg(10)).with_tenant("beta"))
        .expect("other tenant unaffected by acme's full queue");
    let snap = server.metrics().recorder().registry().snapshot();
    assert_eq!(snap.counter("serve.shed{tenant=acme}"), Some(1));
    for h in [&a, &b, &other] {
        h.cancel();
    }
    server.shutdown(ShutdownMode::Abort);
}

#[test]
fn sustained_memory_pressure_degrades_then_admits_bit_exactly() {
    // Budget below one job's footprint: the governor sheds while it
    // accumulates strikes, then unlocks the shrink-chunks rung, after
    // which the job is admitted with finer chunks — and finer chunks
    // are bit-identical by the engine's core invariant.
    let footprint = 16u64 << 10;
    let server = Server::new(
        ServeConfig::default()
            .with_workers(1)
            .with_mem_budget(footprint - 1),
    );
    let spec = || JobSpec::new(Benchmark::Qft.generate(10), cfg(10));
    let mut sheds = 0;
    let admitted = loop {
        match server.submit(spec()) {
            Ok(h) => break h,
            Err(RejectReason::MemoryPressure) => sheds += 1,
            Err(other) => panic!("unexpected rejection: {other}"),
        }
        assert!(sheds < 64, "governor never unlocked a degradation rung");
    };
    assert!(
        sheds > 0,
        "shedding must precede degradation (strikes accumulate first)"
    );
    assert_eq!(admitted.wait_timeout(WAIT), Some(JobStatus::Completed));

    let flat = server.metrics().recorder().registry().snapshot();
    let get = |n: &str| flat.counter_total(n);
    assert_eq!(get("serve.shed"), sheds);
    assert!(get("serve.degraded") >= 1, "shrink rung must be recorded");

    // Degraded (finer-chunked) result vs the undegraded direct run.
    let direct = Simulator::new(cfg(10))
        .try_run(&Benchmark::Qft.generate(10))
        .expect("clean run");
    assert_bit_identical(
        admitted.result().expect("result").state.as_ref().unwrap(),
        direct.state.as_ref().unwrap(),
    );
    server.shutdown(ShutdownMode::Drain);
}

#[test]
fn cancelling_a_queued_job_never_runs_it() {
    let server = Server::new(ServeConfig::default().with_workers(1));
    let blocker = server
        .submit(JobSpec::new(Benchmark::Qft.generate(14), cfg(14)))
        .expect("blocker admitted");
    while matches!(blocker.status(), JobStatus::Queued) {
        std::thread::yield_now();
    }
    let queued = server
        .submit(JobSpec::new(Benchmark::Qft.generate(10), cfg(10)))
        .expect("queued admitted");
    queued.cancel();
    assert_eq!(queued.wait_timeout(WAIT), Some(JobStatus::Cancelled));
    assert_eq!(queued.attempts(), 0, "cancelled while queued: never ran");
    blocker.cancel();
    server.shutdown(ShutdownMode::Abort);
}

#[test]
fn fair_queue_order_holds_behind_a_busy_worker() {
    // One worker busy on a job that runs until it is cancelled; tenant a
    // queues two Low jobs, then tenant b one High job. A job leaves the
    // fair queue only when the worker is free to start it, so b's
    // smaller virtual finish time puts it ahead of a's second job. With
    // one worker, b starting first means a2 is still queued when b
    // finishes.
    let server = Server::new(ServeConfig::default().with_workers(1));
    let blocker = server
        .submit(JobSpec::new(Benchmark::Qft.generate(20), cfg(20)).with_tenant("busy"))
        .expect("blocker admitted");
    while matches!(blocker.status(), JobStatus::Queued) {
        std::thread::yield_now();
    }
    let low = |qubits| {
        JobSpec::new(Benchmark::Qft.generate(qubits), cfg(qubits))
            .with_tenant("a")
            .with_priority(Priority::Low)
    };
    let a1 = server.submit(low(12)).expect("a1 admitted");
    let a2 = server.submit(low(12)).expect("a2 admitted");
    // Time for any hand-off ahead of the fair queue to take a's jobs.
    std::thread::sleep(Duration::from_millis(50));
    let b = server
        .submit(
            JobSpec::new(Benchmark::Qft.generate(12), cfg(12))
                .with_tenant("b")
                .with_priority(Priority::High),
        )
        .expect("b admitted");
    blocker.cancel();
    assert_eq!(
        blocker.wait_timeout(WAIT),
        Some(JobStatus::Cancelled),
        "the blocker must still be running when every job is queued"
    );
    assert_eq!(b.wait_timeout(WAIT), Some(JobStatus::Completed));
    let a2_then = a2.status();
    assert!(
        !a2_then.is_terminal(),
        "b's High job must start before a's second Low job, which is {a2_then:?}"
    );
    for h in [&a1, &a2] {
        assert_eq!(h.wait_timeout(WAIT), Some(JobStatus::Completed));
    }
    server.shutdown(ShutdownMode::Drain);
}

#[test]
fn drain_right_after_the_last_wait_never_hangs() {
    // `wait_timeout` returns as the worker finishes the job, just before
    // it looks at the queue again; the drain's wake-up must reach it
    // wherever it is. A hang fails here instead of stalling the suite.
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for _ in 0..200 {
            let server = Server::new(ServeConfig::default().with_workers(2));
            let h = server
                .submit(JobSpec::new(Benchmark::Qft.generate(4), cfg(4)))
                .expect("admitted");
            assert_eq!(h.wait_timeout(WAIT), Some(JobStatus::Completed));
            server.shutdown(ShutdownMode::Drain);
        }
        done.send(()).unwrap();
    });
    assert!(
        finished.recv_timeout(WAIT).is_ok(),
        "a drain shutdown hung (or a job did not complete)"
    );
}

#[test]
fn cancelling_a_running_job_stops_it_at_a_gate_boundary() {
    let server = Server::new(ServeConfig::default().with_workers(1));
    let handle = server
        .submit(JobSpec::new(Benchmark::Qft.generate(14), cfg(14)))
        .expect("admitted");
    while !matches!(handle.status(), JobStatus::Running { .. }) {
        assert!(!handle.status().is_terminal(), "job must reach Running");
        std::thread::yield_now();
    }
    handle.cancel();
    assert_eq!(handle.wait_timeout(WAIT), Some(JobStatus::Cancelled));
    assert!(handle.result().is_none());
    let metrics = server.metrics().clone();
    server.shutdown(ShutdownMode::Drain);
    let flat = metrics.recorder().registry().snapshot();
    assert!(
        flat.counter_total("serve.cancelled") == 1,
        "cancel decision must land in metrics"
    );
}

#[test]
fn expired_deadline_is_a_terminal_state_not_a_hang() {
    let server = Server::new(ServeConfig::default().with_workers(1));
    // Already-expired deadline: discarded when dequeued, never run.
    let dead = server
        .submit(JobSpec::new(Benchmark::Qft.generate(10), cfg(10)).with_deadline(Duration::ZERO))
        .expect("admitted");
    assert_eq!(dead.wait_timeout(WAIT), Some(JobStatus::DeadlineExceeded));
    assert_eq!(dead.attempts(), 0);

    // Deadline shorter than the run (≈ 0.2 s optimized): the token's
    // own poll trips it and the engine aborts mid-run.
    let tight = server
        .submit(
            JobSpec::new(Benchmark::Qft.generate(18), cfg(18))
                .with_deadline(Duration::from_millis(10)),
        )
        .expect("admitted");
    assert_eq!(tight.wait_timeout(WAIT), Some(JobStatus::DeadlineExceeded));
    let metrics = server.metrics().clone();
    server.shutdown(ShutdownMode::Drain);
    let flat = metrics.recorder().registry().snapshot();
    assert!(
        flat.counter_total("serve.deadline_exceeded") == 2,
        "both deadline decisions must land in metrics"
    );
}

#[test]
fn recoverable_worker_deaths_retry_to_a_bit_exact_completion() {
    // Chaos kills every job's first two attempts; the retry policy
    // (4 retries) must carry the job to a clean third attempt whose
    // result is bit-identical to a fault-free run.
    let server = Server::new(
        ServeConfig::default()
            .with_workers(1)
            .with_chaos(ChaosConfig {
                fail_first_attempts: 2,
                ..ChaosConfig::default()
            }),
    );
    let handle = server
        .submit(JobSpec::new(Benchmark::Qft.generate(10), cfg(10)).with_shots(32))
        .expect("admitted");
    assert_eq!(handle.wait_timeout(WAIT), Some(JobStatus::Completed));
    assert_eq!(handle.attempts(), 3, "two deaths then a clean attempt");

    let flat = server.metrics().recorder().registry().snapshot();
    let get = |n: &str| flat.counter_total(n);
    assert_eq!(get("serve.retries"), 2);
    assert_eq!(get("serve.worker_panics"), 2);
    assert!(server.metrics().recorder().flight_triggered());

    let mut direct_cfg = cfg(10);
    direct_cfg.shots = 32;
    let direct = Simulator::new(direct_cfg)
        .try_run(&Benchmark::Qft.generate(10))
        .expect("clean run");
    assert_bit_identical(
        handle.result().expect("result").state.as_ref().unwrap(),
        direct.state.as_ref().unwrap(),
    );
    assert_eq!(handle.result().unwrap().samples, direct.samples);
    server.shutdown(ShutdownMode::Drain);
}

#[test]
fn device_loss_evicts_and_the_job_completes_on_a_survivor() {
    let server = Server::new(ServeConfig::default().with_workers(2).with_devices(2));
    let handle = server
        .submit(JobSpec::new(Benchmark::Qft.generate(14), cfg(14)))
        .expect("admitted");
    let device = loop {
        match handle.status() {
            JobStatus::Running { device, .. } => break device,
            s => assert!(!s.is_terminal(), "job must reach Running, got {s:?}"),
        }
    };
    server.kill_device(device);
    assert_eq!(handle.wait_timeout(WAIT), Some(JobStatus::Completed));

    let flat = server.metrics().recorder().registry().snapshot();
    let get = |n: &str| flat.counter_total(n);
    assert_eq!(get("serve.devices_lost"), 1);

    let direct = Simulator::new(cfg(14))
        .try_run(&Benchmark::Qft.generate(14))
        .expect("clean run");
    assert_bit_identical(
        handle.result().expect("result").state.as_ref().unwrap(),
        direct.state.as_ref().unwrap(),
    );
    server.shutdown(ShutdownMode::Drain);
}

#[test]
fn drain_shutdown_finishes_queued_work_and_refuses_new_work() {
    let server = Server::new(ServeConfig::default().with_workers(2));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            server
                .submit(JobSpec::new(Benchmark::Qft.generate(10), cfg(10)))
                .expect("admitted")
        })
        .collect();
    server.shutdown(ShutdownMode::Drain);
    for h in &handles {
        assert_eq!(h.status(), JobStatus::Completed, "drain runs queued work");
        assert!(h.result().is_some());
    }
}

#[test]
fn abort_shutdown_cancels_everything_but_leaves_no_job_non_terminal() {
    let server = Server::new(ServeConfig::default().with_workers(1));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            server
                .submit(JobSpec::new(Benchmark::Qft.generate(12), cfg(12)))
                .expect("admitted")
        })
        .collect();
    server.shutdown(ShutdownMode::Abort);
    for h in &handles {
        let status = h.status();
        assert!(
            status.is_terminal(),
            "abort must leave every job terminal, got {status:?}"
        );
    }
    assert!(
        handles.iter().any(|h| h.status() == JobStatus::Cancelled),
        "with one worker and four jobs, some must be cancelled"
    );
}

#[test]
fn server_tracks_only_jobs_in_flight_under_sustained_load() {
    // One worker and a client that keeps eight jobs outstanding: the
    // queue never runs empty, so there is no idle moment to clean up in —
    // a job must leave the server's table at its own terminal transition.
    let server = Server::new(ServeConfig::default().with_workers(1));
    let mut outstanding = std::collections::VecDeque::new();
    let mut peak = 0;
    for _ in 0..240 {
        let spec = JobSpec::new(Benchmark::Qft.generate(10), cfg(10));
        outstanding.push_back(server.submit(spec).expect("admitted"));
        if outstanding.len() == 8 {
            let oldest = outstanding.pop_front().expect("eight outstanding");
            assert_eq!(oldest.wait_timeout(WAIT), Some(JobStatus::Completed));
            assert!(oldest.result().is_some(), "the handle keeps the result");
        }
        // Every job the client has seen finish is gone from the table.
        let tracked = server.tracked_jobs();
        assert!(
            tracked <= outstanding.len(),
            "{tracked} jobs tracked with {} queued or running",
            outstanding.len()
        );
        peak = peak.max(tracked);
    }
    assert!(peak >= 2, "the load kept jobs queued behind the worker");
    server.shutdown(ShutdownMode::Drain);
    for h in &outstanding {
        assert_eq!(h.status(), JobStatus::Completed);
    }
}

#[test]
fn submit_after_close_is_rejected() {
    let server = Server::new(ServeConfig::default().with_workers(1));
    server.close();
    let refused = server.submit(JobSpec::new(Benchmark::Qft.generate(10), cfg(10)));
    assert_eq!(refused.err(), Some(RejectReason::ShuttingDown));
    let flat = server.metrics().recorder().registry().snapshot();
    assert!(
        flat.counter_total("serve.rejected") == 1,
        "refusal must land in metrics"
    );
    server.shutdown(ShutdownMode::Drain);
}
