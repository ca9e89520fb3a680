//! Compression microbenchmarks (paper §IV-D, Figure 11).
//!
//! Measures the GFC codec's real compress/decompress throughput and the
//! ratio sensitivity to the segment count — the ablation behind the
//! "match the GPU parallelism" segment choice — plus the per-codec
//! `codec/*` group comparing every [`qgpu_compress::CodecKind`] on
//! pruning-heavy inputs (the ratios print once per buffer, so `cargo
//! bench` output carries the ratio × throughput comparison).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qgpu_bench::{bench_state, noise_amplitudes};
use qgpu_circuit::generators::Benchmark;
use qgpu_compress::{codec_for_kind, Codec, CodecKind, GfcCodec};
use qgpu_math::Complex64;

fn bench_compression(c: &mut Criterion) {
    let mut group = c.benchmark_group("gfc");
    let n = 1usize << 16; // amplitudes
    group.throughput(Throughput::Bytes((n * 16) as u64));

    // Compressible input: a qaoa state (repeated discrete values).
    let qaoa = bench_state(Benchmark::Qaoa, 16);
    // Incompressible input: white noise.
    let noise = noise_amplitudes(n, 99);

    for (name, amps) in [("qaoa_state", qaoa.amps()), ("noise", noise.as_slice())] {
        group.bench_function(format!("compress/{name}"), |b| {
            let codec = GfcCodec::new(32);
            b.iter(|| codec.compress_amplitudes(amps));
        });
        group.bench_function(format!("roundtrip/{name}"), |b| {
            let codec = GfcCodec::new(32);
            b.iter(|| {
                let compressed = codec.compress_amplitudes(amps);
                codec.decompress_amplitudes(&compressed)
            });
        });
    }

    // The size walk — all the engine's Compress stage runs per chunk — on
    // a near-incompressible state (iqp) and a compressible one (qaoa). Its
    // ceiling is a read of the data: compare `statevec.copy_gbps`.
    let iqp = bench_state(Benchmark::Iqp, 16);
    for (name, amps) in [("iqp", iqp.amps()), ("qaoa", qaoa.amps())] {
        group.bench_function(format!("encoded_len/{name}"), |b| {
            let codec = GfcCodec::new(32);
            b.iter(|| codec.encoded_len_amplitudes(amps));
        });
    }

    // Ablation: segment count vs. (modeled warp parallelism) ratio.
    for segments in [1usize, 4, 16, 64, 256] {
        group.bench_with_input(
            BenchmarkId::new("segments", segments),
            &segments,
            |b, &segments| {
                let codec = GfcCodec::new(segments);
                b.iter(|| codec.compress_amplitudes(qaoa.amps()));
            },
        );
    }
    group.finish();
}

/// Every codec on the pruning-heavy inputs where the cascade must beat
/// plain GFC on ratio × throughput: an IQP state (uniform magnitudes,
/// heavily repeated values) and a post-prune QFT layout (dense head,
/// zeroed tail — what chunk pruning leaves resident).
fn bench_codecs(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    let n = 1usize << 16; // amplitudes
    group.throughput(Throughput::Bytes((n * 16) as u64));

    let iqp = bench_state(Benchmark::Iqp, 16);
    let mut pruned = bench_state(Benchmark::Qft, 16).amps().to_vec();
    for a in pruned.iter_mut().skip(n / 8) {
        *a = Complex64::new(0.0, 0.0);
    }

    for (name, amps) in [("iqp", iqp.amps()), ("post_prune_qft", pruned.as_slice())] {
        for kind in CodecKind::ALL {
            let codec = codec_for_kind(kind, 32);
            let bytes = codec.encode_amplitudes(amps).total_bytes();
            eprintln!(
                "codec/{}/{name}: ratio {:.2}x",
                kind.name(),
                (n * 16) as f64 / bytes.max(1) as f64
            );
            group.bench_function(format!("compress/{}/{name}", kind.name()), |b| {
                b.iter(|| codec.encode_amplitudes(amps).total_bytes());
            });
        }
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20);
    targets = bench_compression, bench_codecs
);
criterion_main!(benches);
