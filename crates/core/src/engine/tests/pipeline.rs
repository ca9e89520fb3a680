//! The pipeline's flag-subset contract: an explicit [`OptFlags`] subset
//! runs the same round-trip steps a named [`Version`] runs, so matching
//! subsets are indistinguishable — in bits *and* in the modeled report.
//! Plus the steps' wall-clock attribution, by bucket name.

use std::collections::BTreeSet;
use std::time::Instant;

use qgpu_circuit::access::GateAction;
use qgpu_circuit::generators::Benchmark;
use qgpu_circuit::noise::NoiseConfig;
use qgpu_circuit::Circuit;
use qgpu_device::timeline::TaskKind;
use qgpu_sched::{GatePlan, InvolvementTracker};
use qgpu_statevec::StateVector;

use super::assert_bitwise_eq;
use crate::config::{OptFlags, SimConfig, Version};
use crate::engine::pipeline::obs_mw;
use crate::engine::Simulator;

#[test]
fn explicit_opts_are_indistinguishable_from_their_version() {
    // Each streaming version is just a named flag subset: configuring
    // the same subset explicitly must give the identical run.
    let c = Benchmark::Iqp.generate(10);
    for v in [
        Version::Naive,
        Version::Overlap,
        Version::Pruning,
        Version::Reorder,
        Version::QGpu,
    ] {
        let named = Simulator::new(SimConfig::scaled_paper(10).with_version(v)).run(&c);
        let explicit = Simulator::new(
            SimConfig::scaled_paper(10)
                .with_version(v)
                .with_opts(v.opt_flags()),
        )
        .run(&c);
        assert_bitwise_eq(
            named.state.as_ref().expect("collected"),
            explicit.state.as_ref().expect("collected"),
        );
        assert_eq!(named.report.total_time, explicit.report.total_time, "{v}");
        assert_eq!(named.report.bytes_h2d, explicit.report.bytes_h2d, "{v}");
        assert_eq!(named.report.bytes_d2h, explicit.report.bytes_d2h, "{v}");
    }
}

#[test]
fn explicit_empty_opts_turn_baseline_into_naive() {
    // An explicit subset always selects the streaming pipeline — even
    // under Version::Baseline, whose static mode only applies when no
    // subset is given. The empty subset is exactly Naive.
    let c = Benchmark::Qft.generate(10);
    let naive = Simulator::new(SimConfig::scaled_paper(10).with_version(Version::Naive)).run(&c);
    let explicit = Simulator::new(
        SimConfig::scaled_paper(10)
            .with_version(Version::Baseline)
            .with_opts(OptFlags::default()),
    )
    .run(&c);
    assert_bitwise_eq(
        naive.state.as_ref().expect("collected"),
        explicit.state.as_ref().expect("collected"),
    );
    assert_eq!(naive.report.total_time, explicit.report.total_time);
    assert_eq!(naive.report.bytes_h2d, explicit.report.bytes_h2d);
}

#[test]
fn arbitrary_subsets_compose_and_stay_correct() {
    // Subsets no named version covers (e.g. pruning+compression without
    // overlap) must run end to end and compute the right state.
    let c = Benchmark::Iqp.generate(10);
    let mut reference = StateVector::new_zero(10);
    reference.run(&c);
    for bits in [0b1010u8, 0b0110, 0b1001, 0b1100] {
        let f = OptFlags::from_bits(bits);
        let r = Simulator::new(SimConfig::scaled_paper(10).with_opts(f)).run(&c);
        let dev = r.state.expect("collected").max_deviation(&reference);
        assert!(dev < 1e-10, "{f}: deviation {dev}");
    }
    // The pruning subsets actually prune on a late-involving circuit.
    let pruned = Simulator::new(
        SimConfig::scaled_paper(10).with_opts(OptFlags::parse("pruning+compression").unwrap()),
    )
    .run(&c);
    assert!(pruned.report.chunks_pruned > 0);
    assert!(pruned.report.compression_ratio() >= 1.0);
}

#[test]
fn batching_composes_with_explicit_subsets() {
    // Gate batching is a pipeline-shape change orthogonal to the flag
    // subset; it must stay bit-exact under any explicit subset too.
    let c = Benchmark::Qft.generate(10);
    let mut reference = StateVector::new_zero(10);
    reference.run(&c);
    for bits in [0b0000u8, 0b0011, 0b1011] {
        let f = OptFlags::from_bits(bits);
        let r = Simulator::new(
            SimConfig::scaled_paper(10)
                .with_opts(f)
                .with_gate_batching(),
        )
        .run(&c);
        let dev = r.state.expect("collected").max_deviation(&reference);
        assert!(dev < 1e-10, "{f}+batching: deviation {dev}");
    }
}

/// The live tasks of `circuit` under `cfg`'s version: every gate planned
/// at the chunk size the engine picks for it and pruned against the
/// involvement so far.
fn replayed_live_tasks(circuit: &Circuit, cfg: &SimConfig) -> u64 {
    let flags = cfg.version.opt_flags();
    let reordered;
    let circuit = if flags.reorder {
        reordered = cfg.reorder_strategy.reorder(circuit);
        &reordered
    } else {
        circuit
    };
    let n = circuit.num_qubits();
    let base_bits = cfg.chunk_bits_for(n);
    let (link, gpu) = (cfg.platform.link(0), cfg.platform.gpu(0));
    let overhead_bytes = (2.0 * link.latency + gpu.kernel_launch) * link.bw_per_direction;
    let mut tracker = InvolvementTracker::new(n);
    let mut live = 0;
    for op in circuit.ops() {
        let bits = if flags.pruning && cfg.dynamic_chunk_size {
            tracker.optimal_chunk_bits(base_bits, overhead_bytes)
        } else {
            base_bits
        };
        let plan = GatePlan::new(
            &GateAction::from_operation(op),
            bits,
            1 << (n as u32 - bits),
        );
        live += if flags.pruning {
            plan.live_task_indices(&tracker).len()
        } else {
            plan.tasks().len()
        } as u64;
        tracker.involve(op);
    }
    live
}

#[test]
fn traced_run_attributes_every_step_to_its_named_bucket() {
    // The phases a gate laps: plan, prune, the update (`kernel`) and the
    // sizing pass (`compress`), then per tile the column pass (`fetch`),
    // the timeline loop (`deal`) and the write-back.
    const STEPS: [(usize, &str); 8] = [
        (obs_mw::PLAN, "plan"),
        (obs_mw::PRUNE, "prune"),
        (obs_mw::DEAL, "deal"),
        (obs_mw::FETCH, "fetch"),
        (obs_mw::KERNEL, "kernel"),
        (obs_mw::COMPRESS, "compress"),
        (obs_mw::WRITEBACK, "writeback"),
        (obs_mw::SYNC, "sync"),
    ];
    for (bucket, name) in STEPS {
        assert_eq!(obs_mw::BUCKETS[bucket], name);
    }
    let c = Benchmark::Qft.generate(12);
    // The full recipe exercises every step of the round trip; without
    // overlap (Naive) each gate also ends in a sync.
    for (v, expected) in [(Version::QGpu, &STEPS[..7]), (Version::Naive, &STEPS[7..])] {
        let cfg = SimConfig::scaled_paper(12).with_version(v).with_obs_spans();
        let r = Simulator::new(cfg.clone()).run(&c);
        let reg = &r.obs.as_ref().expect("traced run").registry;
        let stages: BTreeSet<&str> = reg
            .histograms_named("stage.time_ns")
            .map(|e| e.label("stage").expect("stage label"))
            .collect();
        for s in &stages {
            assert!(obs_mw::BUCKETS.contains(s), "{v}: unknown bucket {s}");
        }
        for (_, name) in expected {
            assert!(
                stages.contains(name),
                "{v}: no time under {name}: {stages:?}"
            );
        }
        let tasks = reg.counters.iter().filter(|e| e.name == "tasks");
        assert_eq!(
            tasks.map(|e| e.value).sum::<u64>(),
            replayed_live_tasks(&c, &cfg),
            "{v}: tasks counted per device vs planned live tasks"
        );
    }
}

/// The attribution is exhaustive: the `stage.time_ns` sums reconstruct
/// the run's wall clock, ideal and noisy, in every version.
#[test]
fn stage_times_sum_to_the_run_wall_clock() {
    let noise: NoiseConfig = "depolarizing:0.01,loss:0.02".parse().expect("spec parses");
    for b in [Benchmark::Qft, Benchmark::Bv] {
        let c = b.generate(10);
        for v in Version::ALL {
            for noisy in [false, true] {
                let mut cfg = SimConfig::scaled_paper(10)
                    .with_version(v)
                    .timing_only()
                    .with_obs_spans();
                if noisy {
                    cfg = cfg.with_noise(noise).with_shots(64).with_stoch_seed(42);
                }
                let start = Instant::now();
                let r = Simulator::new(cfg).run(&c);
                let wall_ns = start.elapsed().as_nanos() as f64;
                let reg = &r.obs.as_ref().expect("traced run").registry;
                let sum_ns: u64 = reg
                    .histograms_named("stage.time_ns")
                    .map(|e| e.value.sum)
                    .sum();
                // Sub-millisecond runs leave the clock reads around the
                // run a visible share; 0.8 holds them in release.
                let ratio = sum_ns as f64 / wall_ns;
                assert!(
                    (0.8..=1.2).contains(&ratio),
                    "{b:?} {v} noisy {noisy}: stage sum / wall = {ratio}"
                );
            }
        }
    }
}

/// Every round trip a device runs — a gate's task, or a batched chunk
/// visit — uploads once and counts once under `tasks{device}`.
#[test]
fn device_task_counts_match_uploads_with_and_without_batching() {
    let c = Benchmark::Qft.generate(10);
    for batching in [false, true] {
        let mut cfg = SimConfig::scaled_paper(10)
            .with_version(Version::QGpu)
            .with_obs_spans()
            .with_trace(1 << 20);
        if batching {
            cfg = cfg.with_gate_batching();
        }
        let r = Simulator::new(cfg).run(&c);
        let reg = &r.obs.as_ref().expect("traced run").registry;
        let tasks: u64 = reg
            .counters
            .iter()
            .filter(|e| e.name == "tasks")
            .map(|e| e.value)
            .sum();
        let uploads = r.trace.iter().filter(|e| e.kind == TaskKind::H2dCopy);
        assert!(tasks > 0, "batching {batching}: no tasks counted");
        assert_eq!(tasks, uploads.count() as u64, "batching {batching}");
    }
}
