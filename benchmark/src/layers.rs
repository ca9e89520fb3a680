//! Per-layer metrics, measured from outside: by timing calls into a
//! layer's public functions, or by reading the `RunResult::obs` registry
//! and the `ExecutionReport` of the traced runs. Prefix = crate name.

use std::hint::black_box;
use std::time::Instant;

use qgpu::{RunResult, Simulator, Version};
use qgpu_circuit::access::GateAction;
use qgpu_circuit::generators::Benchmark;
use qgpu_circuit::{Circuit, Gate, Operation};
use qgpu_compress::{codec_for_kind, CodecKind};
use qgpu_device::{Engine, TaskKind, Timeline};
use qgpu_math::Complex64;
use qgpu_sched::{GatePlan, InvolvementTracker, ReorderStrategy};
use qgpu_statevec::{kernels, ChunkExecutor, StateVector};

use crate::stats::{median, percentile, quantile, sorted, Tally};
use crate::trace::Tracer;
use crate::workloads::{Case, Pass, STOCH_SEED};

/// The engine's 14 `stage.time_ns` attribution buckets.
pub const STAGES: [&str; 14] = [
    "setup",
    "plan",
    "prune",
    "deal",
    "fetch",
    "decompress",
    "kernel",
    "compress",
    "writeback",
    "sync",
    "tasks",
    "measure",
    "sample",
    "driver",
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn median_pass(passes: &[Pass]) -> &Pass {
    let mut order: Vec<&Pass> = passes.iter().collect();
    order.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    order[order.len() / 2]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `core.*` and `obs.*`: where the traced run's wall clock went, from the
/// engine's own `stage.time_ns` registry, and what tracing cost.
pub fn core_metrics(untraced: &[Pass], traced: &[Pass], dense_s: f64) -> Vec<Metric> {
    let pass = median_pass(traced);
    let mut stage_s = [0.0f64; STAGES.len()];
    let (mut p50s, mut p99) = (Vec::new(), 0.0f64);
    for r in &pass.results {
        let Some(obs) = r.obs.as_ref() else { continue };
        for e in obs.registry.histograms_named("stage.time_ns") {
            if let Some(i) = e
                .label("stage")
                .and_then(|s| STAGES.iter().position(|b| *b == s))
            {
                stage_s[i] += e.value.sum as f64 / 1e9;
            }
        }
        for e in obs.registry.histograms_named("gate.ns") {
            p50s.push(e.value.p50 as f64);
            p99 = p99.max(e.value.p99 as f64);
        }
    }
    let mut out: Vec<Metric> = STAGES
        .iter()
        .zip(stage_s)
        .map(|(stage, s)| metric(format!("core.stage.{stage}_s"), s, "s"))
        .collect();
    let untraced_wall = median(&untraced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    out.push(metric(
        "core.stage_sum_frac",
        ratio(stage_s.iter().sum(), pass.wall_s),
        "ratio",
    ));
    // With several cases in a pass: the median of their medians, and the
    // worst of their p99s.
    out.push(metric(
        "core.gate_ns_p50",
        if p50s.is_empty() { 0.0 } else { median(&p50s) },
        "ns",
    ));
    out.push(metric("core.gate_ns_p99", p99, "ns"));
    out.push(metric(
        "core.overhead_x",
        ratio(untraced_wall, dense_s),
        "x",
    ));
    out.push(metric(
        "obs.trace_overhead_frac",
        ratio(pass.wall_s, untraced_wall) - 1.0,
        "ratio",
    ));
    out
}

/// `device.*` from the modeled `ExecutionReport`s of one pass: exact
/// repeats for a given (circuit, config, seed). The model is unvalidated
/// against hardware; no error figure exists.
pub fn device_metrics(pass: &Pass, baseline_modeled_s: f64) -> Vec<Metric> {
    let sum = |f: fn(&RunResult) -> f64| pass.results.iter().map(f).sum::<f64>();
    let modeled = sum(|r| r.report.total_time);
    let processed = sum(|r| r.report.chunks_processed as f64);
    let pruned = sum(|r| r.report.chunks_pruned as f64);
    let before = sum(|r| r.report.bytes_before_compress as f64);
    let after = sum(|r| r.report.bytes_after_compress as f64);
    vec![
        metric("device.modeled_s", modeled, "s"),
        metric("device.host_busy_s", sum(|r| r.report.host_time), "s"),
        metric("device.gpu_busy_s", sum(|r| r.report.gpu_time), "s"),
        metric(
            "device.transfer_busy_s",
            sum(|r| r.report.transfer_time),
            "s",
        ),
        metric("device.sync_s", sum(|r| r.report.sync_time), "s"),
        metric("device.compress_s", sum(|r| r.report.compress_time), "s"),
        metric(
            "device.decompress_s",
            sum(|r| r.report.decompress_time),
            "s",
        ),
        metric("device.bytes_h2d", sum(|r| r.report.bytes_h2d as f64), "B"),
        metric("device.bytes_d2h", sum(|r| r.report.bytes_d2h as f64), "B"),
        metric("device.chunks_processed", processed, "count"),
        metric("device.chunks_pruned", pruned, "count"),
        metric(
            "device.prune_frac",
            ratio(pruned, pruned + processed),
            "ratio",
        ),
        metric(
            "device.compression_ratio",
            if after > 0.0 { before / after } else { 1.0 },
            "x",
        ),
        metric("device.flops_gpu", sum(|r| r.report.flops_gpu), "count"),
        metric(
            "device.speedup_vs_baseline",
            ratio(baseline_modeled_s, modeled),
            "x",
        ),
    ]
}

/// Modeled makespan of the same circuits under `Version::Baseline`, the
/// denominator of the paper's headline speedup.
pub fn baseline_modeled_s(cases: &[Case], tally: &mut Tally) -> f64 {
    let mut total = 0.0;
    for case in cases {
        if case.spec.version == Version::Baseline {
            total += case.anchor_modeled_s;
            continue;
        }
        let spec = crate::workloads::EngineSpec {
            version: Version::Baseline,
            ..case.spec
        };
        match Simulator::new(spec.config(STOCH_SEED).timing_only()).try_run(&case.circuit) {
            Ok(r) => {
                tally.ok(0.0);
                total += r.report.total_time;
            }
            Err(e) => tally.fail(format!("baseline model run: {e}")),
        }
    }
    total
}

/// `sched.*`: the reorder pass, and the circuit replayed through
/// `GatePlan::new` + `live_task_indices` at the chunk size the engine
/// would pick for each gate. Live / planned is the share of planning work
/// that was not wasted on chunks pruned a moment later.
///
/// `engine_chunks` is what the engine itself counted over the same cases
/// (`chunks_processed + chunks_pruned`); a replay that plans a different
/// number of chunks no longer mirrors the engine and is a failure.
pub fn sched_metrics(
    cases: &[Case],
    engine_chunks: u64,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Vec<Metric> {
    let (mut reorder_s, mut gates) = (0.0, 0usize);
    let (mut plan_s, mut planned, mut live, mut chunks) = (0.0, 0u64, 0u64, 0u64);
    for case in cases {
        let cfg = case.sim.config();
        let noised = cfg
            .effective_noise()
            .map(|nc| nc.apply(&case.circuit, cfg.stoch_seed));
        let circuit = noised.as_ref().unwrap_or(&case.circuit);
        let t = Instant::now();
        let reordered = tracer.span("sched.reorder", |_| {
            ReorderStrategy::ForwardLooking.reorder(circuit)
        });
        reorder_s += t.elapsed().as_secs_f64();
        gates += circuit.len();
        let streamed = if cfg.version.has_reorder() {
            &reordered
        } else {
            circuit
        };
        let t = Instant::now();
        let (p, l, c) = tracer.span("sched.plan_replay", |_| plan_replay(streamed, case));
        plan_s += t.elapsed().as_secs_f64();
        planned += p;
        live += l;
        chunks += c;
    }
    if chunks == engine_chunks {
        tally.ok(0.0);
    } else {
        tally.fail(format!(
            "plan replay covered {chunks} chunks, the engine {engine_chunks}"
        ));
    }
    vec![
        metric("sched.reorder_s", reorder_s, "s"),
        metric(
            "sched.reorder_ns_per_gate",
            ratio(reorder_s * 1e9, gates as f64),
            "ns",
        ),
        metric(
            "sched.plan_ns_per_task",
            ratio(plan_s * 1e9, planned as f64),
            "ns",
        ),
        metric("sched.plan_tasks", planned as f64, "count"),
        metric(
            "sched.plan_live_frac",
            ratio(live as f64, planned as f64),
            "ratio",
        ),
    ]
}

/// (tasks planned, tasks live, chunks planned) over the whole circuit.
fn plan_replay(circuit: &Circuit, case: &Case) -> (u64, u64, u64) {
    let cfg = case.sim.config();
    let n = circuit.num_qubits();
    let base_bits = cfg.chunk_bits_for(n);
    let pruning = cfg.version.has_pruning();
    // The engine's byte-equivalent of the fixed per-task cost.
    let (link, gpu) = (cfg.platform.link(0), cfg.platform.gpu(0));
    let overhead_bytes = (2.0 * link.latency + gpu.kernel_launch) * link.bw_per_direction;
    let mut tracker = InvolvementTracker::new(n);
    let (mut planned, mut live, mut chunks) = (0u64, 0u64, 0u64);
    for op in circuit.ops() {
        if matches!(op.gate(), Gate::Measure | Gate::Reset) {
            tracker.involve(op);
            continue;
        }
        let bits = if pruning && cfg.dynamic_chunk_size {
            tracker.optimal_chunk_bits(base_bits, overhead_bytes)
        } else {
            base_bits
        };
        let action = GateAction::from_operation(op);
        let plan = GatePlan::new(&action, bits, 1usize << (n as u32 - bits));
        planned += plan.tasks().len() as u64;
        chunks += plan.total_chunks() as u64;
        live += if pruning {
            black_box(plan.live_task_indices(&tracker)).len() as u64
        } else {
            plan.tasks().len() as u64
        };
        tracker.involve(op);
    }
    (planned, live, chunks)
}

/// `statevec.dense_*` and `circuit.*` of the workload's own circuits.
/// Bytes are computed (ops × read + write of the whole state), not
/// counted: cache misses are invisible to them.
pub fn circuit_metrics(cases: &[Case]) -> Vec<Metric> {
    let dense_s: f64 = cases.iter().map(|c| c.dense_s).sum();
    let bytes: f64 = cases
        .iter()
        .map(|c| c.circuit.len() as f64 * 2.0 * 16.0 * (1u64 << c.spec.qubits) as f64)
        .sum();
    vec![
        metric("statevec.dense_run_s", dense_s, "s"),
        metric("statevec.dense_gbps", ratio(bytes / 1e9, dense_s), "GB/s"),
        metric(
            "circuit.generate_s",
            cases.iter().map(|c| c.generate_s).sum(),
            "s",
        ),
        metric(
            "circuit.ops",
            cases.iter().map(|c| c.circuit.len() as f64).sum(),
            "count",
        ),
    ]
}

/// Sizes of the layer microbenchmarks.
#[derive(Debug, Clone, Copy)]
pub struct MicroSizes {
    /// `log2` amplitudes of the kernel / copy / crc buffers.
    pub buffer_bits: usize,
    pub dense_qubits: usize,
    pub pruned_qubits: usize,
    /// Bytes each codec cell must process.
    pub codec_bytes: usize,
    pub timeline_tasks: usize,
    pub reps: usize,
}

impl MicroSizes {
    pub fn new(smoke: bool) -> Self {
        if smoke {
            MicroSizes {
                buffer_bits: 14,
                dense_qubits: 12,
                pruned_qubits: 12,
                codec_bytes: 1 << 17,
                timeline_tasks: 20_000,
                reps: 3,
            }
        } else {
            MicroSizes {
                buffer_bits: 22, // 64 MiB: 16× one core's 4 MiB L2
                dense_qubits: 21,
                pruned_qubits: 18,
                codec_bytes: 64 << 20,
                timeline_tasks: 1_000_000,
                reps: 5,
            }
        }
    }
}

fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

fn action(gate: Gate, qubits: &[usize]) -> GateAction {
    GateAction::from_operation(&Operation::new(gate, qubits.to_vec()))
}

/// `statevec.*` kernels against this host's copy bandwidth, measured in
/// the same run on buffers of the same size. Computed bytes: every
/// amplitude a kernel touches is read and written once.
pub fn statevec_micro(sz: MicroSizes, tracer: &mut Tracer) -> Vec<Metric> {
    let bits = sz.buffer_bits;
    let len = 1usize << bits;
    let full = (2 * 16 * len) as f64 / 1e9;
    let mut amps = vec![Complex64::new(0.5, -0.25); len];
    let mut out = Vec::new();
    let copy = tracer.span("statevec.copy", |_| {
        let src = amps.clone();
        full / median_secs(sz.reps, || {
            black_box(&mut amps).copy_from_slice(black_box(&src))
        })
    });
    out.push(metric("statevec.copy_gbps", copy, "GB/s"));
    let mut kernel = |name: &str, act: GateAction, touched: f64, tracer: &mut Tracer| {
        let gbps = tracer.span(&format!("statevec.{name}"), |_| {
            touched
                / median_secs(sz.reps, || {
                    kernels::apply_action(black_box(&mut amps), 0, &act)
                })
        });
        out.push(metric(format!("statevec.{name}_gbps"), gbps, "GB/s"));
        gbps
    };
    let lo = kernel("kernel_1q_lo", action(Gate::H, &[0]), full, tracer);
    let hi = kernel("kernel_1q_hi", action(Gate::H, &[bits - 1]), full, tracer);
    // A controlled gate touches the half of the state whose control bit is 1.
    kernel(
        "kernel_c1q",
        action(Gate::Cx, &[bits - 1, 0]),
        full / 2.0,
        tracer,
    );
    kernel("kernel_diag", action(Gate::T, &[bits / 2]), full, tracer);
    out.push(metric(
        "statevec.kernel_1q_frac_of_copy",
        ratio((lo + hi) / 2.0, copy),
        "ratio",
    ));
    let h_mid = action(Gate::H, &[bits / 2]);
    let t2 = tracer.span("statevec.executor_t2", |_| {
        let mut time = |threads| {
            let ex = ChunkExecutor::new(threads);
            median_secs(sz.reps, || ex.apply_flat(black_box(&mut amps), &h_mid))
        };
        let one = time(1);
        ratio(one, time(2))
    });
    out.push(metric("statevec.executor_t2_speedup", t2, "x"));
    out
}

fn state_after(circuit: &Circuit) -> StateVector {
    let mut s = StateVector::new_zero(circuit.num_qubits());
    s.run(circuit);
    s
}

/// `compress.*`: every codec on chunk-sized slices (state / 256) of a
/// dense state (the `iqp` final state) and a pruned one (`qft` after
/// half its gates: long exact-zero runs). A decode that does not give
/// the input back is a failure.
pub fn compress_micro(sz: MicroSizes, tally: &mut Tally, tracer: &mut Tracer) -> Vec<Metric> {
    let dense = state_after(&Benchmark::Iqp.generate(sz.dense_qubits));
    let qft = Benchmark::Qft.generate(sz.pruned_qubits);
    let pruned = state_after(&qft.with_ops(qft.ops()[..qft.len() / 2].to_vec()));
    let mut out = Vec::new();
    for kind in CodecKind::ALL {
        let codec = codec_for_kind(kind, 32);
        let name = kind.name().replace('-', "_");
        for (input, state) in [("dense", &dense), ("pruned", &pruned)] {
            let chunk = (state.len() / 256).max(16);
            let chunks: Vec<&[Complex64]> = state.amps().chunks(chunk).collect();
            let raw = state.len() * 16;
            let passes = sz.codec_bytes.div_ceil(raw).max(1);
            let cell = format!("compress.{name}.{input}");
            tracer.span(&cell, |_| {
                let mut encoded = Vec::new();
                let t = Instant::now();
                for _ in 0..passes {
                    encoded = chunks
                        .iter()
                        .map(|c| codec.encode_amplitudes(black_box(c)))
                        .collect();
                }
                let encode_s = t.elapsed().as_secs_f64();
                let mut decoded = Vec::new();
                let t = Instant::now();
                for _ in 0..passes {
                    decoded = encoded
                        .iter()
                        .map(|e| codec.try_decode_amplitudes(black_box(e)))
                        .collect();
                }
                let decode_s = t.elapsed().as_secs_f64();
                let lossless = decoded
                    .iter()
                    .zip(&chunks)
                    .all(|(d, c)| d.as_ref().is_ok_and(|d| d.as_slice() == *c));
                if lossless {
                    tally.ok(0.0);
                } else {
                    tally.fail(format!("{cell}: decode(encode(x)) != x"));
                }
                let bytes: usize = encoded.iter().map(|e| e.total_bytes()).sum();
                let gb = (raw * passes) as f64 / 1e9;
                out.push(metric(
                    format!("{cell}.encode_gbps"),
                    ratio(gb, encode_s),
                    "GB/s",
                ));
                out.push(metric(
                    format!("{cell}.decode_gbps"),
                    ratio(gb, decode_s),
                    "GB/s",
                ));
                out.push(metric(
                    format!("{cell}.ratio"),
                    ratio(raw as f64, bytes as f64),
                    "x",
                ));
            });
        }
    }
    out
}

/// `device.timeline_ns_per_task`: host cost of modeling one task, over a
/// synthetic stream shaped like the streaming pipeline's (copy in,
/// kernel, copy out, host bookkeeping, each ready when the last ended).
pub fn timeline_micro(sz: MicroSizes, tracer: &mut Tracer) -> Metric {
    const ENGINES: [(Engine, TaskKind); 4] = [
        (Engine::H2d(0), TaskKind::H2dCopy),
        (Engine::GpuCompute(0), TaskKind::Kernel),
        (Engine::D2h(0), TaskKind::D2hCopy),
        (Engine::Host, TaskKind::Sync),
    ];
    let secs = tracer.span("device.timeline", |_| {
        let mut tl = Timeline::new();
        let mut ready = 0.0;
        let t = Instant::now();
        for i in 0..sz.timeline_tasks {
            let (engine, kind) = ENGINES[i % ENGINES.len()];
            ready = tl.schedule(engine, ready, 1e-6, kind, 4096).end;
        }
        black_box(tl.makespan());
        t.elapsed().as_secs_f64()
    });
    metric(
        "device.timeline_ns_per_task",
        secs * 1e9 / sz.timeline_tasks as f64,
        "ns",
    )
}

/// `faults.crc_gbps`: the transfer-integrity checksum over one buffer.
pub fn crc_micro(sz: MicroSizes, tracer: &mut Tracer) -> Metric {
    let bytes: Vec<u8> = (0..16usize << sz.buffer_bits)
        .map(|i| (i * 31) as u8)
        .collect();
    let secs = tracer.span("faults.crc", |_| {
        median_secs(sz.reps, || {
            black_box(qgpu_faults::fast_checksum(black_box(&bytes)));
        })
    });
    metric("faults.crc_gbps", bytes.len() as f64 / 1e9 / secs, "GB/s")
}

/// `serve.*`: the job list run directly, through a 1-worker server with
/// one client (serving overhead with nothing to overlap), and through the
/// workload's 2-worker, 2-client loop (submit cost, latency by class).
pub fn serve_metrics(
    cases: &[Case],
    jobs: &[crate::serve::Job],
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Vec<Metric> {
    use crate::serve::{closed_loop, direct, CLIENTS, WORKERS};
    let direct_s = tracer.span("serve.direct", |_| direct(cases, jobs, tally));
    let solo = tracer.span("serve.closed_loop_w1", |_| {
        closed_loop(cases, jobs, 1, 1, None)
    });
    let start = Instant::now();
    let duo = closed_loop(cases, jobs, WORKERS, CLIENTS, None);
    let parent = tracer.add("serve.closed_loop", start, Instant::now(), None, 0);
    for s in &duo.samples {
        let track = 1 + s.client;
        let job = tracer.add("serve.job", s.submit_at, s.done_at, Some(parent), track);
        tracer.add(
            "serve.submit",
            s.submit_at,
            s.submitted_at,
            Some(job),
            track,
        );
        tracer.add("serve.wait", s.submitted_at, s.done_at, Some(job), track);
    }
    tally.absorb(&solo.tally);
    tally.absorb(&duo.tally);
    let submit_us = sorted(duo.samples.iter().map(|s| s.submit_s() * 1e6));
    let latency_ms = sorted(duo.tally.latencies_s.iter().map(|l| l * 1e3));
    // Median latency of the correct jobs of one size class.
    let qubits = |s: &crate::serve::JobSample| cases[s.job.template].spec.qubits;
    let class_p50 = |class: Option<usize>| {
        let of_class = duo.samples.iter().filter(|s| Some(qubits(s)) == class);
        let ms = sorted(
            of_class
                .filter(|s| s.status.is_ok())
                .map(|s| s.latency_s() * 1e3),
        );
        if ms.is_empty() {
            0.0
        } else {
            quantile(&ms, 0.5)
        }
    };
    let small = class_p50(duo.samples.iter().map(qubits).min());
    let large = class_p50(duo.samples.iter().map(qubits).max());
    vec![
        metric(
            "serve.direct_ms_mean",
            direct_s * 1e3 / jobs.len() as f64,
            "ms",
        ),
        metric(
            "serve.overhead_frac",
            ratio(solo.wall_s, direct_s) - 1.0,
            "ratio",
        ),
        metric("serve.submit_us_p50", percentile(&submit_us, 50.0), "us"),
        metric("serve.submit_us_p99", percentile(&submit_us, 99.0), "us"),
        metric("serve.completed", duo.completed as f64, "count"),
        metric("serve.rejected", duo.rejected as f64, "count"),
        metric("serve.retried", duo.retried as f64, "count"),
        metric("serve.latency_p90_ms", percentile(&latency_ms, 90.0), "ms"),
        metric("serve.latency_p99_ms", percentile(&latency_ms, 99.0), "ms"),
        metric("serve.latency_q10_p50_ms", small, "ms"),
        metric("serve.latency_q14_p50_ms", large, "ms"),
    ]
}

/// Every per-layer metric name, in printing order — the list
/// `BENCHMARK.json` carries.
pub fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = STAGES.iter().map(|s| format!("core.stage.{s}_s")).collect();
    for n in [
        "core.stage_sum_frac",
        "core.gate_ns_p50",
        "core.gate_ns_p99",
        "core.overhead_x",
        "obs.trace_overhead_frac",
        "device.modeled_s",
        "device.host_busy_s",
        "device.gpu_busy_s",
        "device.transfer_busy_s",
        "device.sync_s",
        "device.compress_s",
        "device.decompress_s",
        "device.bytes_h2d",
        "device.bytes_d2h",
        "device.chunks_processed",
        "device.chunks_pruned",
        "device.prune_frac",
        "device.compression_ratio",
        "device.flops_gpu",
        "device.speedup_vs_baseline",
        "device.timeline_ns_per_task",
        "sched.reorder_s",
        "sched.reorder_ns_per_gate",
        "sched.plan_ns_per_task",
        "sched.plan_tasks",
        "sched.plan_live_frac",
        "statevec.dense_run_s",
        "statevec.dense_gbps",
        "statevec.copy_gbps",
        "statevec.kernel_1q_lo_gbps",
        "statevec.kernel_1q_hi_gbps",
        "statevec.kernel_c1q_gbps",
        "statevec.kernel_diag_gbps",
        "statevec.kernel_1q_frac_of_copy",
        "statevec.executor_t2_speedup",
    ] {
        names.push(n.to_string());
    }
    for codec in ["gfc", "zero_run", "alp", "cascade"] {
        for input in ["dense", "pruned"] {
            for what in ["encode_gbps", "decode_gbps", "ratio"] {
                names.push(format!("compress.{codec}.{input}.{what}"));
            }
        }
    }
    for n in [
        "faults.crc_gbps",
        "circuit.generate_s",
        "circuit.ops",
        "serve.direct_ms_mean",
        "serve.overhead_frac",
        "serve.submit_us_p50",
        "serve.submit_us_p99",
        "serve.completed",
        "serve.rejected",
        "serve.retried",
        "serve.latency_p90_ms",
        "serve.latency_p99_ms",
        "serve.latency_q10_p50_ms",
        "serve.latency_q14_p50_ms",
    ] {
        names.push(n.to_string());
    }
    names
}
