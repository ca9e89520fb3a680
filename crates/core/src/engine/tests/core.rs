//! Cross-version engine invariants: every version computes the same
//! state, fusion and thread counts are bitwise invisible, and the obs
//! layer agrees with the modeled report.

use qgpu_circuit::access::GateAction;
use qgpu_circuit::generators::Benchmark;
use qgpu_circuit::noise::NoiseConfig;
use qgpu_device::{Counter, Platform};
use qgpu_faults::FaultConfig;
use qgpu_statevec::StateVector;

use crate::config::{SimConfig, Version};
use crate::engine::{flops_per_amp, Simulator};

#[test]
fn all_versions_produce_identical_states() {
    // The paper's correctness claim: pruning, reordering and
    // compression "do not affect the simulation results".
    for b in [Benchmark::Gs, Benchmark::Iqp, Benchmark::Qft] {
        let c = b.generate(9);
        let mut reference = StateVector::new_zero(9);
        reference.run(&c);
        for v in Version::ALL {
            let cfg = SimConfig::scaled_paper(9).with_version(v);
            let r = Simulator::new(cfg).run(&c);
            let state = r.state.expect("state collected");
            let dev = state.max_deviation(&reference);
            assert!(dev < 1e-10, "{b}/{v}: deviation {dev}");
        }
    }
}

#[test]
fn recipe_improves_monotonically_in_the_large() {
    // On a pruning-friendly circuit the full recipe must beat the
    // naive version substantially and the baseline overall.
    let c = Benchmark::Iqp.generate(12);
    let time = |v: Version| {
        Simulator::new(SimConfig::scaled_paper(12).with_version(v).timing_only())
            .run(&c)
            .report
            .total_time
    };
    let baseline = time(Version::Baseline);
    let naive = time(Version::Naive);
    let overlap = time(Version::Overlap);
    let pruning = time(Version::Pruning);
    let qgpu = time(Version::QGpu);
    assert!(naive > overlap, "overlap must beat naive");
    assert!(overlap > pruning, "pruning must beat overlap on iqp");
    assert!(qgpu < baseline, "the full recipe must beat the baseline");
}

#[test]
fn gate_fusion_is_bitwise_identical_to_per_gate_execution() {
    // Fused runs are replayed member-by-member, so enabling fusion
    // must not move a single bit of the functional state — in any
    // version.
    for b in [Benchmark::Qft, Benchmark::Iqp, Benchmark::Qaoa] {
        let c = b.generate(10);
        for v in Version::ALL {
            let plain = Simulator::new(SimConfig::scaled_paper(10).with_version(v)).run(&c);
            let fused = Simulator::new(
                SimConfig::scaled_paper(10)
                    .with_version(v)
                    .with_gate_fusion(),
            )
            .run(&c);
            let pa = plain.state.expect("collected");
            let fa = fused.state.expect("collected");
            for i in 0..pa.len() {
                let (x, y) = (pa.amp(i), fa.amp(i));
                assert!(
                    x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                    "{b}/{v}: amplitude {i} differs under fusion"
                );
            }
        }
    }
}

#[test]
fn thread_count_is_bitwise_invisible() {
    let c = Benchmark::Rqc.generate(10);
    for v in [Version::Baseline, Version::QGpu] {
        let base = SimConfig::scaled_paper(10)
            .with_version(v)
            .with_gate_fusion();
        let one = Simulator::new(base.clone()).run(&c);
        let oa = one.state.expect("collected");
        for threads in [2, 4] {
            let many = Simulator::new(base.clone().with_threads(threads)).run(&c);
            let ma = many.state.expect("collected");
            for i in 0..oa.len() {
                let (x, y) = (oa.amp(i), ma.amp(i));
                assert!(
                    x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                    "{v}/threads {threads}: amplitude {i} differs"
                );
            }
        }
    }
}

#[test]
fn fusion_is_recorded_and_reduces_streaming_traffic() {
    // qft is a fusion-friendly circuit (long controlled-phase runs):
    // the report must show fused kernels, and Naive — which moves the
    // whole state per op — must move fewer bytes with fewer ops.
    let c = Benchmark::Qft.generate(10);
    let plain = Simulator::new(SimConfig::scaled_paper(10).with_version(Version::Naive)).run(&c);
    let fused = Simulator::new(
        SimConfig::scaled_paper(10)
            .with_version(Version::Naive)
            .with_gate_fusion(),
    )
    .run(&c);
    assert_eq!(plain.report.fused_kernels, 0);
    assert_eq!(plain.report.gates_fused, 0);
    assert!(fused.report.gates_fused > 0, "qft must fuse gates");
    assert!(
        fused.report.fused_kernels > 0,
        "fused kernels must be recorded"
    );
    assert!(
        fused.report.bytes_h2d < plain.report.bytes_h2d / 2,
        "fusion should at least halve naive qft uploads: {} vs {}",
        fused.report.bytes_h2d,
        plain.report.bytes_h2d
    );
    assert!(fused.report.total_time < plain.report.total_time);
}

#[test]
fn obs_recording_captures_spans_and_agrees_with_the_report() {
    let c = Benchmark::Qft.generate(10);
    let cfg = SimConfig::scaled_paper(10)
        .with_version(Version::QGpu)
        .with_obs_spans();
    let r = Simulator::new(cfg).run(&c);
    let obs = r.obs.as_ref().expect("obs data collected");
    assert!(!obs.spans.is_empty());
    assert!(obs.wall_s > 0.0);
    // The measured counters must agree with the modeled report —
    // both now flow from the same engine loop.
    assert_eq!(
        obs.registry.counter("chunks.processed"),
        Some(r.report.chunks_processed)
    );
    assert_eq!(
        obs.registry.counter("chunks.pruned"),
        Some(r.report.chunks_pruned)
    );
    // A drift report builds and renders from the collected data.
    let drift = qgpu_obs::DriftReport::new(
        &r.report,
        &obs.spans,
        obs.wall_s,
        qgpu_obs::drift::DEFAULT_TOLERANCE_PP,
    );
    assert!(drift.render().contains("update"));
    // Without the flag the run carries no obs payload.
    let off = Simulator::new(SimConfig::scaled_paper(10).with_version(Version::QGpu)).run(&c);
    assert!(off.obs.is_none());
}

/// The report and the metrics are two views of one count array: for
/// every [`Counter`], the report field equals the published metric —
/// over a faulted, orchestrated, noisy four-device run in each execution
/// mode, which between them move every counter off zero.
#[test]
fn report_and_metrics_agree_on_every_counter() {
    let n = 12;
    let c = Benchmark::Qft.generate(n);
    let faults = FaultConfig {
        seed: 7,
        p_transfer_corrupt: 0.01,
        p_codec_fail: 0.02,
        p_mask_corrupt: 0.3,
        p_worker_death: 0.05,
        device_lost_at: 20,
        device_lost_id: 2,
        straggler_device: 1,
        slowdown_factor: 8.0,
        p_link_degraded: 0.05,
        ..FaultConfig::default()
    };
    let noise = NoiseConfig {
        depolarizing: 0.02,
        loss: 0.02,
        ..NoiseConfig::default()
    };
    let mut moved = [false; Counter::ALL.len()];
    for v in [Version::QGpu, Version::Baseline] {
        let platform = Platform::scaled_paper_p100(n).with_devices(4);
        let base = SimConfig::new(platform).with_version(v);
        let budget = 4 * (16u64 << base.chunk_bits_for(n));
        let cfg = base
            .with_faults(faults)
            .with_mem_budget(budget)
            .with_noise(noise)
            .with_stoch_seed(11)
            .with_shots(64)
            .with_gate_fusion()
            .with_threads(2)
            .with_obs_spans();
        let r = Simulator::new(cfg).try_run(&c).expect("recoverable faults");
        let registry = &r.obs.as_ref().expect("obs collected").registry;
        for (seen, c) in moved.iter_mut().zip(Counter::ALL) {
            let n = r.report.counter(c);
            assert_eq!(n, registry.counter_total(c.name()), "{v}: {}", c.name());
            *seen |= n > 0;
        }
    }
    for (seen, c) in moved.iter().zip(Counter::ALL) {
        assert!(seen, "no run moved {}", c.name());
    }
}

#[test]
fn obs_recording_does_not_change_results() {
    let c = Benchmark::Iqp.generate(10);
    for v in [Version::Baseline, Version::QGpu] {
        let plain = Simulator::new(SimConfig::scaled_paper(10).with_version(v)).run(&c);
        let observed = Simulator::new(
            SimConfig::scaled_paper(10)
                .with_version(v)
                .with_obs_spans()
                .with_threads(2),
        )
        .run(&c);
        assert_eq!(plain.report.total_time, observed.report.total_time);
        assert_eq!(plain.report.bytes_h2d, observed.report.bytes_h2d);
        let pa = plain.state.expect("collected");
        let oa = observed.state.expect("collected");
        for i in 0..pa.len() {
            let (x, y) = (pa.amp(i), oa.amp(i));
            assert!(x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits());
        }
    }
}

#[test]
fn flops_estimates() {
    use qgpu_circuit::{Gate, Operation};
    let h = GateAction::from_operation(&Operation::new(Gate::H, vec![0]));
    assert_eq!(flops_per_amp(&h), 16.0);
    let z = GateAction::from_operation(&Operation::new(Gate::Z, vec![0]));
    assert_eq!(flops_per_amp(&z), 6.0);
}
