//! Fault injection, CRC integrity and checkpoint/resume: every injected
//! fault is either absorbed bit-exactly (with its modeled time cost) or
//! surfaces as a typed error.

use qgpu_circuit::generators::Benchmark;
use qgpu_faults::{FaultConfig, SimError};

use super::assert_bitwise_eq;
use crate::config::{SimConfig, Version};
use crate::engine::Simulator;
use crate::result::RunResult;

#[test]
fn seeded_injection_is_absorbed_bit_exactly() {
    // Transfer corruption, codec failures and mask corruption at
    // realistic rates: the run completes, the state is
    // bit-identical to the fault-free run, and every recovery shows
    // up in the report with its modeled time cost.
    let c = Benchmark::Qft.generate(12);
    let clean = Simulator::new(SimConfig::scaled_paper(12).with_version(Version::QGpu)).run(&c);
    let faults = FaultConfig {
        seed: 42,
        p_transfer_corrupt: 0.01,
        p_codec_fail: 0.02,
        p_mask_corrupt: 0.1,
        ..FaultConfig::default()
    };
    let faulty = Simulator::new(
        SimConfig::scaled_paper(12)
            .with_version(Version::QGpu)
            .with_faults(faults),
    )
    .try_run(&c)
    .expect("faults at these rates must be absorbed");
    assert_bitwise_eq(
        clean.state.as_ref().expect("collected"),
        faulty.state.as_ref().expect("collected"),
    );
    assert!(faulty.report.chunk_retries > 0, "no transfer retries fired");
    assert!(
        faulty.report.codec_fallbacks > 0,
        "no codec fallbacks fired"
    );
    assert!(
        faulty.report.prune_fallbacks > 0,
        "no prune fallbacks fired"
    );
    assert!(
        faulty.report.total_time > clean.report.total_time,
        "recoveries must cost modeled time: {} vs {}",
        faulty.report.total_time,
        clean.report.total_time
    );
}

#[test]
fn injection_is_deterministic_per_seed() {
    let c = Benchmark::Iqp.generate(11);
    let faults = FaultConfig {
        seed: 7,
        p_transfer_corrupt: 0.02,
        p_codec_fail: 0.02,
        ..FaultConfig::default()
    };
    let run = || {
        Simulator::new(
            SimConfig::scaled_paper(11)
                .with_version(Version::QGpu)
                .with_faults(faults),
        )
        .try_run(&c)
        .expect("absorbed")
    };
    let (a, b) = (run(), run());
    assert_eq!(a.report.total_time, b.report.total_time);
    assert_eq!(a.report.chunk_retries, b.report.chunk_retries);
    assert_eq!(a.report.codec_fallbacks, b.report.codec_fallbacks);
    assert!(a.report.chunk_retries > 0);
}

#[test]
fn injected_worker_deaths_recover_in_the_engine_loop() {
    // 15 qubits so per-op dispatches cross the executor's parallel
    // threshold and the worker pool actually runs (and dies).
    let c = Benchmark::Qft.generate(15);
    let base = SimConfig::scaled_paper(15)
        .with_version(Version::QGpu)
        .with_threads(4);
    let clean = Simulator::new(base.clone()).run(&c);
    let faults = FaultConfig {
        seed: 9,
        p_worker_death: 0.05,
        ..FaultConfig::default()
    };
    let faulty = Simulator::new(base.with_faults(faults))
        .try_run(&c)
        .expect("worker deaths must be recovered");
    assert_bitwise_eq(
        clean.state.as_ref().expect("collected"),
        faulty.state.as_ref().expect("collected"),
    );
    assert!(
        faulty.report.worker_restarts > 0,
        "no worker deaths injected at 15 qubits / 5%"
    );
}

#[test]
fn integrity_checks_alone_change_nothing() {
    // CRC sealing/verification without injected faults: same bits,
    // same modeled timing, zero recovery events.
    let c = Benchmark::Qaoa.generate(12);
    for v in [Version::Naive, Version::QGpu] {
        let plain = Simulator::new(SimConfig::scaled_paper(12).with_version(v)).run(&c);
        let checked = Simulator::new(
            SimConfig::scaled_paper(12)
                .with_version(v)
                .with_integrity_checks(),
        )
        .run(&c);
        assert_eq!(plain.report.total_time, checked.report.total_time);
        assert_eq!(plain.report.bytes_h2d, checked.report.bytes_h2d);
        assert_eq!(plain.report.bytes_d2h, checked.report.bytes_d2h);
        assert_eq!(checked.report.chunk_retries, 0);
        assert_eq!(checked.report.codec_fallbacks, 0);
        assert_bitwise_eq(
            plain.state.as_ref().expect("collected"),
            checked.state.as_ref().expect("collected"),
        );
    }
}

#[test]
fn injected_fatal_checkpoints_and_resumes_bit_exactly() {
    let c = Benchmark::Iqp.generate(10);
    let base = SimConfig::scaled_paper(10).with_version(Version::QGpu);
    let clean = Simulator::new(base.clone()).run(&c);
    let path = std::env::temp_dir().join(format!("qgpu_resume_test_{}.ckpt", std::process::id()));
    let path = path.to_str().expect("utf-8 temp path").to_string();

    let kill_at = c.len() / 2;
    let faults = FaultConfig {
        fail_at_gate: kill_at,
        ..FaultConfig::default()
    };
    let err = Simulator::new(
        base.clone()
            .with_faults(faults)
            .with_checkpointing(5, &path),
    )
    .try_run(&c)
    .expect_err("fatal fault must abort the run");
    assert!(
        matches!(err, SimError::Fatal { gate, .. } if gate == kill_at),
        "unexpected error: {err}"
    );

    let ck = crate::checkpoint::load_with_progress(&path).expect("checkpoint written");
    assert!(ck.gates_done > 0 && ck.gates_done <= kill_at as u64);
    let resumed = Simulator::new(base)
        .try_run_from(&c, Some(&ck))
        .expect("resume");
    assert_bitwise_eq(
        clean.state.as_ref().expect("collected"),
        resumed.state.as_ref().expect("collected"),
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_rejects_mismatched_checkpoints() {
    let c = Benchmark::Qft.generate(10);
    let base = SimConfig::scaled_paper(10).with_version(Version::QGpu);
    // Wrong qubit count.
    let ck = crate::checkpoint::Checkpoint {
        state: qgpu_statevec::StateVector::new_zero(8),
        gates_done: 1,
    };
    assert!(matches!(
        Simulator::new(base.clone()).try_run_from(&c, Some(&ck)),
        Err(SimError::Checkpoint(_))
    ));
    // Progress beyond the end of the program.
    let ck = crate::checkpoint::Checkpoint {
        state: qgpu_statevec::StateVector::new_zero(10),
        gates_done: c.len() as u64 + 1,
    };
    assert!(matches!(
        Simulator::new(base).try_run_from(&c, Some(&ck)),
        Err(SimError::Checkpoint(_))
    ));
}

#[test]
fn exhausted_retries_surface_as_chunk_corrupt() {
    // Certain corruption on every attempt: the retry budget runs out
    // and the typed error escapes instead of a hang or a panic.
    let c = Benchmark::Qft.generate(9);
    let faults = FaultConfig {
        p_transfer_corrupt: 1.0,
        ..FaultConfig::default()
    };
    let err = Simulator::new(
        SimConfig::scaled_paper(9)
            .with_version(Version::Naive)
            .with_faults(faults),
    )
    .try_run(&c)
    .expect_err("certain corruption must exhaust retries");
    assert!(
        matches!(err, SimError::ChunkCorrupt { attempts, .. } if attempts > 1),
        "unexpected error: {err}"
    );
}

#[test]
fn resumed_compressed_run_pays_no_arrival_retags() {
    // Satellite regression: every compressed chunk's tag is sealed at
    // encode time and travels with the data — a resumed Q-GPU run
    // (whose tag cache starts empty) must not re-tag on arrival, and
    // must stay bit-exact. An uncompressed run pays honest re-tags.
    let n = 10;
    let c = Benchmark::Qft.generate(n);
    let dir = std::env::temp_dir().join(format!("qgpu-retag-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let ckpt = dir.join("retag.ckpt");
    let retags = |r: &RunResult| -> u64 {
        let obs = r.obs.as_ref().expect("obs enabled");
        obs.registry.counter_total("integrity.retags")
    };
    let base = |v: Version| {
        SimConfig::scaled_paper(n)
            .with_version(v)
            .with_obs_spans()
            .with_integrity_checks()
            .with_checkpointing(10, ckpt.to_str().expect("utf8 path"))
    };
    let clean = Simulator::new(base(Version::QGpu)).run(&c);

    // Kill the run mid-way, then resume from the checkpoint.
    let faults = FaultConfig {
        fail_at_gate: 25,
        ..FaultConfig::default()
    };
    let err = Simulator::new(base(Version::QGpu).with_faults(faults)).try_run(&c);
    assert!(matches!(err, Err(SimError::Fatal { .. })));
    let ck = crate::checkpoint::load_with_progress(ckpt.to_str().expect("utf8 path"))
        .expect("checkpoint written");
    let resumed = Simulator::new(base(Version::QGpu))
        .try_run_from(&c, Some(&ck))
        .expect("resume");
    assert_bitwise_eq(
        clean.state.as_ref().expect("collected"),
        resumed.state.as_ref().expect("collected"),
    );
    assert_eq!(
        retags(&resumed),
        0,
        "compressed chunks must never re-tag on arrival"
    );
    // The uncompressed control run pays real arrival re-tags.
    let control = Simulator::new(base(Version::Overlap)).run(&c);
    assert!(retags(&control) > 0, "raw transfers must re-tag");
    std::fs::remove_dir_all(&dir).ok();
}

/// A kernel-flip campaign fires once per op, batched or not: a batch
/// applies each member op over its own live tasks, as a single gate does,
/// so the integrity middleware sees the same checked updates.
#[test]
fn batched_flip_campaign_matches_the_unbatched_one() {
    let n = 12;
    let c = Benchmark::Qft.generate(n);
    // Both flip ops are chunk-local, so under batching they land inside a
    // batch.
    for at in [40, 60] {
        let cfg = SimConfig::new(qgpu_device::Platform::scaled_paper_p100(n).with_devices(4))
            .with_version(Version::QGpu)
            .with_faults(FaultConfig {
                kernel_flip_at: at,
                kernel_flip_count: 1,
                ..FaultConfig::default()
            });
        let plain = Simulator::new(cfg.clone()).run(&c);
        let batched = Simulator::new(cfg.with_gate_batching()).run(&c);
        let counts = |r: &RunResult| {
            let s = r.integrity.expect("flips arm the integrity checks");
            (s.flips_injected, s.violations, s.repairs, s.quarantines)
        };
        assert_eq!(counts(&plain).0, 1, "op {at}: one flip unbatched");
        assert_eq!(counts(&batched), counts(&plain), "op {at}");
        assert_bitwise_eq(
            batched.state.as_ref().expect("collected"),
            plain.state.as_ref().expect("collected"),
        );
    }
}
