//! Gate-kernel microbenchmarks: the functional substrate's throughput.
//!
//! Measures the real CPU kernels (dense 1-qubit, controlled, diagonal,
//! 2-qubit dense, multithreaded variants) on a 2^18-amplitude state —
//! the numbers behind the host-model calibration in `qgpu-device`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qgpu_bench::noise_amplitudes;
use qgpu_circuit::access::GateAction;
use qgpu_circuit::generators::Benchmark;
use qgpu_circuit::{Gate, Operation};
use qgpu_statevec::{kernels, ChunkExecutor, StateVector};

const QUBITS: usize = 18;

fn action(g: Gate, qs: &[usize]) -> GateAction {
    GateAction::from_operation(&Operation::new(g, qs.to_vec()))
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    let bytes = (1u64 << QUBITS) * 16;
    group.throughput(Throughput::Bytes(bytes));

    let cases = [
        ("h_q0", action(Gate::H, &[0])),
        ("h_q17", action(Gate::H, &[QUBITS - 1])),
        ("cx", action(Gate::Cx, &[3, 11])),
        ("rz_diagonal", action(Gate::Rz(0.7), &[5])),
        ("cp_diagonal", action(Gate::Cp(0.4), &[2, 14])),
        ("swap_dense2q", action(Gate::Swap, &[1, 16])),
        ("ccx", action(Gate::Ccx, &[0, 9, 17])),
    ];
    for (name, act) in &cases {
        group.bench_function(*name, |b| {
            let mut amps = noise_amplitudes(1 << QUBITS, 42);
            b.iter(|| kernels::apply_action(&mut amps, 0, act));
        });
    }

    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("h_parallel", threads),
            &threads,
            |b, &threads| {
                let act = action(Gate::H, &[7]);
                let mut amps = noise_amplitudes(1 << QUBITS, 42);
                let ex = ChunkExecutor::new(threads);
                b.iter(|| ex.apply_flat(&mut amps, &act));
            },
        );
    }
    group.finish();
}

/// The same kernels on one 2^13-amplitude (128 KiB) chunk, the size a
/// 21-qubit run at the default chunk count replays gates on. It stays in
/// L2, so these measure the kernels' compute, where the 2^18 cases
/// above (and the benchmark's 64 MiB `statevec.kernel_*_gbps`) measure
/// memory.
fn bench_cache_resident(c: &mut Criterion) {
    const CHUNK: usize = 13;
    let mut group = c.benchmark_group("kernels/chunk13");
    group.throughput(Throughput::Bytes((1u64 << CHUNK) * 16));
    let cases = [
        // A periodic table: both qubits inside one 16-amplitude period.
        ("cp_q2_q3", action(Gate::Cp(0.4), &[2, 3])),
        // One factor per 32-amplitude segment.
        ("cp_q5_q8", action(Gate::Cp(0.4), &[5, 8])),
        // One factor per 2048-amplitude segment.
        ("cp_q11_q12", action(Gate::Cp(0.4), &[11, 12])),
        ("h_q0", action(Gate::H, &[0])),
        // The two halves of the chunk trade amplitudes.
        ("swap_q0_q12", action(Gate::Swap, &[0, CHUNK - 1])),
    ];
    for (name, act) in &cases {
        group.bench_function(*name, |b| {
            let mut amps = noise_amplitudes(1 << CHUNK, 42);
            b.iter(|| kernels::apply_action(&mut amps, 0, act));
        });
    }
    group.finish();
}

/// Whole-circuit execution: unfused gate-by-gate vs the fusion pass's
/// exact replay (one cache-blocked pass per fused run) on the two most
/// fusion-friendly paper benchmarks at 20 qubits (see EXPERIMENTS.md
/// for recorded numbers).
fn bench_fused(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/fused");
    group.sample_size(10);
    const N: usize = 20;
    for (name, b) in [("qft_20", Benchmark::Qft), ("iqp_20", Benchmark::Iqp)] {
        let circ = b.generate(N);
        group.bench_with_input(BenchmarkId::new("unfused", name), &circ, |bch, circ| {
            bch.iter(|| {
                let mut s = StateVector::new_zero(N);
                s.run(circ);
                s.amp(0)
            })
        });
        group.bench_with_input(BenchmarkId::new("fused_exact", name), &circ, |bch, circ| {
            bch.iter(|| {
                let mut s = StateVector::new_zero(N);
                s.run_fused(circ, 1);
                s.amp(0)
            })
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20);
    targets = bench_kernels, bench_cache_resident, bench_fused
);
criterion_main!(benches);
