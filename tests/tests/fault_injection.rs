//! Fault-injection integration: seeded fault campaigns across the
//! execution versions must be absorbed **bit-exactly** — the paper's
//! "optimizations do not affect the simulation results" invariant holds
//! even while transfers are corrupted, encodes fail, involvement masks
//! rot and workers die — with every recovery visible in the report and
//! charged to the modeled timeline. An injected fatal fault must be
//! recoverable through the periodic checkpoint.

use qgpu::{FaultConfig, SimConfig, SimError, Simulator, Version};
use qgpu_circuit::generators::Benchmark;
use qgpu_statevec::StateVector;

/// Asserts two states are equal down to the last bit of every amplitude.
fn assert_bitwise_eq(a: &StateVector, b: &StateVector, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: dimension mismatch");
    for i in 0..a.len() {
        let (x, y) = (a.amp(i), b.amp(i));
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{ctx}: amplitude {i} differs ({x:?} vs {y:?})"
        );
    }
}

#[test]
fn seeded_campaign_is_absorbed_across_versions() {
    let n = 11;
    let c = Benchmark::Qft.generate(n);
    let faults = FaultConfig {
        seed: 1234,
        p_transfer_corrupt: 0.01,
        p_codec_fail: 0.01,
        p_mask_corrupt: 0.05,
        ..FaultConfig::default()
    };
    for v in Version::ALL {
        let clean = Simulator::new(SimConfig::scaled_paper(n).with_version(v)).run(&c);
        let faulty = Simulator::new(
            SimConfig::scaled_paper(n)
                .with_version(v)
                .with_faults(faults),
        )
        .try_run(&c)
        .unwrap_or_else(|e| panic!("{v}: campaign must be absorbed, got {e}"));
        assert_bitwise_eq(
            clean.state.as_ref().expect("collected"),
            faulty.state.as_ref().expect("collected"),
            &format!("{v}"),
        );
        // Baseline models no per-chunk streaming transfers, so only the
        // streaming versions can retry; there the campaign must fire.
        if v != Version::Baseline {
            assert!(faulty.report.chunk_retries > 0, "{v}: no retries fired");
            assert!(
                faulty.report.total_time > clean.report.total_time,
                "{v}: recoveries must cost modeled time"
            );
        }
    }
}

#[test]
fn degradation_fallbacks_fire_and_preserve_the_state() {
    let n = 12;
    let c = Benchmark::Iqp.generate(n);
    let clean = Simulator::new(SimConfig::scaled_paper(n).with_version(Version::QGpu)).run(&c);
    let faults = FaultConfig {
        seed: 5,
        p_codec_fail: 0.05,
        p_mask_corrupt: 0.1,
        ..FaultConfig::default()
    };
    let r = Simulator::new(
        SimConfig::scaled_paper(n)
            .with_version(Version::QGpu)
            .with_faults(faults),
    )
    .try_run(&c)
    .expect("degradations must be absorbed");
    assert!(r.report.codec_fallbacks > 0, "no codec fallback fired");
    assert!(r.report.prune_fallbacks > 0, "no prune fallback fired");
    assert_bitwise_eq(
        clean.state.as_ref().expect("collected"),
        r.state.as_ref().expect("collected"),
        "degraded run",
    );
}

#[test]
fn worker_death_campaign_is_bit_exact_across_thread_counts() {
    let n = 15;
    let c = Benchmark::Qft.generate(n);
    let clean = Simulator::new(SimConfig::scaled_paper(n).with_version(Version::QGpu)).run(&c);
    let faults = FaultConfig {
        seed: 11,
        p_worker_death: 0.05,
        ..FaultConfig::default()
    };
    for threads in [2usize, 4] {
        let r = Simulator::new(
            SimConfig::scaled_paper(n)
                .with_version(Version::QGpu)
                .with_threads(threads)
                .with_faults(faults),
        )
        .try_run(&c)
        .expect("worker deaths must be recovered");
        assert!(
            r.report.worker_restarts > 0,
            "threads {threads}: no deaths injected"
        );
        assert_bitwise_eq(
            clean.state.as_ref().expect("collected"),
            r.state.as_ref().expect("collected"),
            &format!("threads {threads}"),
        );
    }
}

#[test]
fn fatal_fault_recovers_through_checkpoint_in_every_engine() {
    let n = 10;
    let c = Benchmark::Qft.generate(n);
    for v in [Version::Baseline, Version::QGpu] {
        let base = SimConfig::scaled_paper(n).with_version(v);
        let clean = Simulator::new(base.clone()).run(&c);
        let path =
            std::env::temp_dir().join(format!("qgpu_fault_it_{}_{v}.ckpt", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path").to_string();

        let kill_at = c.len() / 2;
        let faults = FaultConfig {
            fail_at_gate: kill_at,
            ..FaultConfig::default()
        };
        let err = Simulator::new(
            base.clone()
                .with_faults(faults)
                .with_checkpointing(7, &path),
        )
        .try_run(&c)
        .expect_err("fatal fault must abort");
        assert!(
            matches!(err, SimError::Fatal { gate, .. } if gate == kill_at),
            "{v}: unexpected error {err}"
        );

        let ck = qgpu::checkpoint::load_with_progress(&path).expect("checkpoint written");
        assert!(ck.gates_done > 0 && ck.gates_done <= kill_at as u64);
        let resumed = Simulator::new(base)
            .try_run_from(&c, Some(&ck))
            .expect("resume");
        assert_bitwise_eq(
            clean.state.as_ref().expect("collected"),
            resumed.state.as_ref().expect("collected"),
            &format!("{v} resumed"),
        );
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn injection_composes_with_batching_fusion_and_obs() {
    // The resilience layer must not interact with the other pipeline
    // extensions: same bits with everything on at once.
    let n = 11;
    let c = Benchmark::Hchain.generate(n);
    let clean = Simulator::new(SimConfig::scaled_paper(n).with_version(Version::QGpu)).run(&c);
    let faults = FaultConfig {
        seed: 77,
        p_transfer_corrupt: 0.02,
        p_codec_fail: 0.02,
        p_mask_corrupt: 0.05,
        ..FaultConfig::default()
    };
    let r = Simulator::new(
        SimConfig::scaled_paper(n)
            .with_version(Version::QGpu)
            .with_gate_batching()
            .with_gate_fusion()
            .with_obs_spans()
            .with_faults(faults),
    )
    .try_run(&c)
    .expect("absorbed");
    assert_bitwise_eq(
        clean.state.as_ref().expect("collected"),
        r.state.as_ref().expect("collected"),
        "batched+fused+observed",
    );
    // The recovery counters flow into the metrics sink too.
    let obs = r.obs.as_ref().expect("obs collected");
    assert_eq!(
        obs.registry.counter_total("chunk.retries"),
        r.report.chunk_retries,
        "recorder and report disagree on retries"
    );
}
