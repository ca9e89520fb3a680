//! The streaming versions' modeled behavior: overlap, pruning,
//! compression, gate batching, tracing and multi-GPU scaling.

use qgpu_circuit::generators::Benchmark;
use qgpu_device::Platform;

use crate::config::{SimConfig, Version};
use crate::engine::Simulator;
use crate::result::RunResult;

fn run_version(b: Benchmark, n: usize, v: Version) -> RunResult {
    let c = b.generate(n);
    Simulator::new(SimConfig::scaled_paper(n).with_version(v)).run(&c)
}

#[test]
fn naive_moves_the_whole_state_per_gate() {
    let n = 10;
    let c = Benchmark::Qft.generate(n);
    let r = Simulator::new(SimConfig::scaled_paper(n).with_version(Version::Naive)).run(&c);
    // Every gate uploads and downloads every byte of the state.
    let state_bytes = (1u64 << n) * 16;
    assert_eq!(r.report.bytes_h2d, state_bytes * c.len() as u64);
    assert_eq!(r.report.bytes_d2h, state_bytes * c.len() as u64);
    assert_eq!(r.report.host_time, 0.0);
}

#[test]
fn overlap_beats_naive_with_same_bytes() {
    let naive = run_version(Benchmark::Qft, 11, Version::Naive);
    let overlap = run_version(Benchmark::Qft, 11, Version::Overlap);
    assert_eq!(naive.report.bytes_h2d, overlap.report.bytes_h2d);
    assert!(
        overlap.report.total_time < 0.8 * naive.report.total_time,
        "overlap {:.4} vs naive {:.4}",
        overlap.report.total_time,
        naive.report.total_time
    );
}

#[test]
fn pruning_reduces_bytes_on_late_involving_circuits() {
    let overlap = run_version(Benchmark::Iqp, 12, Version::Overlap);
    let pruning = run_version(Benchmark::Iqp, 12, Version::Pruning);
    assert!(
        pruning.report.bytes_h2d < overlap.report.bytes_h2d / 2,
        "pruning {} vs overlap {}",
        pruning.report.bytes_h2d,
        overlap.report.bytes_h2d
    );
    assert!(pruning.report.chunks_pruned > 0);
}

#[test]
fn pruning_barely_helps_qft() {
    // Paper: qft involves all qubits immediately; pruning is weak.
    let overlap = run_version(Benchmark::Qft, 12, Version::Overlap);
    let pruning = run_version(Benchmark::Qft, 12, Version::Pruning);
    let saving = 1.0 - pruning.report.bytes_h2d as f64 / overlap.report.bytes_h2d.max(1) as f64;
    assert!(saving < 0.35, "qft pruning saving {saving:.2} too large");
}

#[test]
fn compression_reduces_transfer_on_smooth_states() {
    // qaoa's repetitive amplitudes compress well (paper Figure 10);
    // 15 qubits so chunks carry enough GFC prediction context (the
    // exact ratio depends on the random graph the generator draws, and
    // at 14 qubits it hovers right at the threshold).
    let reorder = run_version(Benchmark::Qaoa, 15, Version::Reorder);
    let qgpu = run_version(Benchmark::Qaoa, 15, Version::QGpu);
    assert!(
        qgpu.report.bytes_d2h < reorder.report.bytes_d2h,
        "compression should reduce D2H bytes: {} vs {}",
        qgpu.report.bytes_d2h,
        reorder.report.bytes_d2h
    );
    assert!(qgpu.report.compression_ratio() > 1.2);
}

#[test]
fn compression_overhead_is_bounded() {
    // Paper Figure 14: compress ~3.3%, decompress ~2.8% of exec time.
    let r = run_version(Benchmark::Qaoa, 14, Version::QGpu).report;
    let codec = r.compress_time + r.decompress_time;
    assert!(codec > 0.0, "no codec time");
    assert!(
        codec < 0.25 * r.total_time,
        "overhead {:.3}",
        codec / r.total_time
    );
}

#[test]
fn states_identical_across_streaming_versions() {
    let c = Benchmark::Hlf.generate(10);
    let reference = {
        let mut s = qgpu_statevec::StateVector::new_zero(10);
        s.run(&c);
        s
    };
    for v in [
        Version::Naive,
        Version::Overlap,
        Version::Pruning,
        Version::Reorder,
        Version::QGpu,
    ] {
        let r = Simulator::new(SimConfig::scaled_paper(10).with_version(v)).run(&c);
        let dev = r.state.expect("collected").max_deviation(&reference);
        assert!(dev < 1e-10, "{v}: deviation {dev}");
    }
}

#[test]
fn multi_gpu_scales_streaming_until_host_dma_saturates() {
    let c = Benchmark::Qft.generate(12);
    // P4 server: 4 x PCIe (54 GB/s aggregate) against a 45 GB/s host
    // DMA path -> ~3.3x scaling, like the paper's ~3x.
    let quad = Simulator::new(
        SimConfig::new(Platform::quad_p4_pcie().miniaturize(12, 0.05))
            .with_version(Version::Overlap),
    );
    let mut one_gpu_platform = Platform::quad_p4_pcie().miniaturize(12, 0.05);
    one_gpu_platform.gpus.truncate(1);
    one_gpu_platform.links.truncate(1);
    let single_gpu =
        Simulator::new(SimConfig::new(one_gpu_platform).with_version(Version::Overlap));
    let t4 = quad.run(&c).report.total_time;
    let t1 = single_gpu.run(&c).report.total_time;
    let scaling = t1 / t4;
    assert!(
        (2.0..4.2).contains(&scaling),
        "4xP4 scaling {scaling:.2}x should approach but not exceed 4x"
    );
}

#[test]
fn gate_batching_preserves_state_and_reduces_transfers() {
    for b in [Benchmark::Qft, Benchmark::Iqp, Benchmark::Hchain] {
        let c = b.generate(11);
        let plain = Simulator::new(SimConfig::scaled_paper(11).with_version(Version::QGpu)).run(&c);
        let batched = Simulator::new(
            SimConfig::scaled_paper(11)
                .with_version(Version::QGpu)
                .with_gate_batching(),
        )
        .run(&c);
        let dev = batched
            .state
            .expect("collected")
            .max_deviation(plain.state.as_ref().expect("collected"));
        assert!(dev < 1e-10, "{b}: batching changed the state ({dev})");
        assert!(
            batched.report.bytes_h2d < plain.report.bytes_h2d,
            "{b}: batching must reduce uploads ({} vs {})",
            batched.report.bytes_h2d,
            plain.report.bytes_h2d
        );
        assert!(
            batched.report.total_time <= plain.report.total_time * 1.02,
            "{b}: batching must not slow execution"
        );
    }
}

#[test]
fn gate_batching_handles_cross_boundary_gates() {
    // A circuit alternating local and high-mixing gates exercises
    // batch flushing around Case-2 gates.
    let mut c = qgpu_circuit::Circuit::new(10);
    for q in 0..10 {
        c.h(q);
    }
    c.cx(0, 9).t(1).swap(2, 9).rz(0.3, 0).cx(9, 1);
    let mut reference = qgpu_statevec::StateVector::new_zero(10);
    reference.run(&c);
    for v in [Version::Naive, Version::Overlap, Version::QGpu] {
        let r = Simulator::new(
            SimConfig::scaled_paper(10)
                .with_version(v)
                .with_gate_batching(),
        )
        .run(&c);
        let dev = r.state.expect("collected").max_deviation(&reference);
        assert!(dev < 1e-10, "{v}: deviation {dev}");
    }
}

#[test]
fn trace_events_recorded() {
    let c = Benchmark::Gs.generate(8);
    let cfg = SimConfig::scaled_paper(8)
        .with_version(Version::Overlap)
        .with_trace(500);
    let r = Simulator::new(cfg).run(&c);
    assert!(!r.trace.is_empty());
    assert!(r.trace.len() <= 500);
}

/// A batch counts its chunks as each member op's plan does: processed
/// plus pruned is the sum of the members' planned chunks, batched or not,
/// also for a high-controlled op whose target is chunk-local — and for a
/// batch whose ops all have such controls, which runs only on the chunks
/// that hold some op's.
#[test]
fn batch_counters_follow_each_member_plan() {
    use qgpu_circuit::access::GateAction;
    use qgpu_sched::GatePlan;

    let n = 10;
    let mut c = qgpu_circuit::Circuit::new(n);
    c.h(0).h(1).cx(1, 8).h(2).cx(8, 0).t(1).cx(9, 2).h(0);
    c.h(9).cx(8, 1).cx(9, 2).h(7);
    let cfg = SimConfig::scaled_paper(n)
        .with_version(Version::QGpu)
        .fixed_chunk_size()
        .with_chunk_count_log2(4);
    let bits = n as u32 - 4;
    let planned: u64 = c
        .ops()
        .iter()
        .map(|op| GatePlan::new(&GateAction::from_operation(op), bits, 16).total_chunks() as u64)
        .sum();
    let plain = Simulator::new(cfg.clone()).run(&c);
    let batched = Simulator::new(cfg.with_gate_batching()).run(&c);
    for (label, r) in [("unbatched", &plain), ("batched", &batched)] {
        let counted = r.report.chunks_processed + r.report.chunks_pruned;
        assert_eq!(counted, planned, "{label}");
    }
    assert!(batched.report.chunks_pruned > 0, "the batch pruned chunks");
    super::assert_bitwise_eq(
        batched.state.as_ref().expect("collected"),
        plain.state.as_ref().expect("collected"),
    );
}
