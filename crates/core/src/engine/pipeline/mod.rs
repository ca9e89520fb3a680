//! The chunk pipeline: one engine executes every version.
//!
//! A `PipelineSpec` (see `spec`) reduces the configured
//! [`crate::Version`] (or an explicit [`crate::OptFlags`] subset) to an
//! execution mode plus optimization flags; the streaming driver then runs
//! the paper's fixed chunk round trip — *Plan → Prune → Deal → Fetch →
//! Decompress → Kernel → Compress → Writeback → Sync* — as straight-line
//! code (`stream_gate`) over the plain functions in `steps`, each
//! consulting only the flags, never the version. Per gate:
//!
//! * gate-level work first: the chunk plan, the pruning decision, the
//!   functional update, and the compressed-size pass;
//! * then each *live* chunk task, in plan order: deal to a device,
//!   modeled H2D, decompress, kernel, compress, modeled D2H;
//! * then window occupancy sampling and the per-gate sync.
//!
//! Host cost follows live chunks: the plan enumerates only surviving
//! tasks, the per-chunk tables are paged stamped vectors (`ChunkTable`)
//! and the state is one arena whose untouched pages were never mapped —
//! nothing hashes, or is sized by `num_chunks`.
//!
//! Cross-cutting concerns (integrity + fault injection, orchestration,
//! checkpoint barriers) are middleware (`middleware`) threaded through
//! the shared `Env`, not engine forks. The static-allocation baseline
//! is the one genuinely different execution mode and lives in
//! `static_alloc`, on the same middleware.

pub(crate) mod batch;
pub(crate) mod integrity;
pub(crate) mod middleware;
pub(crate) mod obs_mw;
pub(crate) mod spec;
pub(crate) mod static_alloc;
pub(crate) mod steps;
pub(crate) mod stochastic;
pub(crate) mod transfer;

use std::collections::VecDeque;
use std::sync::Arc;

use qgpu_circuit::fuse::{FusedOp, ProgramOp};
use qgpu_circuit::Circuit;
use qgpu_compress::{codec_for_kind, Codec, CodecKind};
use qgpu_device::timeline::{Engine, Timeline};
use qgpu_device::{CodecClass, Counter, ExecutionReport};
use qgpu_faults::SimError;
use qgpu_math::Complex64;
use qgpu_obs::{span_opt, Recorder, Stage as ObsStage, Track};
use qgpu_sched::residency::RoundRobin;
use qgpu_sched::InvolvementTracker;
use qgpu_statevec::{ChunkExecutor, ChunkedState};

use crate::checkpoint::Checkpoint;
use crate::config::SimConfig;
use crate::result::RunResult;

use integrity::IntegrityMw;
use middleware::{BarrierClock, CheckpointLayer, Orchestration, Resilience, MAX_CHUNK_BITS};
use spec::{ExecMode, PipelineSpec};

/// Per-chunk compressed size recorded as "the codec failed, move raw"
/// (see the codec-failure degradation path).
pub(crate) const RAW_FALLBACK: usize = usize::MAX;

/// Per-GPU double-buffer window: chunks in flight on the device.
#[derive(Default)]
pub(crate) struct Window {
    pub(crate) slots: VecDeque<(f64, usize)>, // (d2h end, chunks held)
    pub(crate) inflight: usize,
}

/// Slots per [`ChunkTable`] page: 1 KiB of `(stamp, usize)`. Live chunk
/// indices are the subsets of the involved index bits — dense runs when
/// those are low bits, strided singletons when they are high ones — and
/// a small page wastes less on the second kind.
const PAGE_SLOTS: usize = 64;

/// A chunk-indexed table without hashing: fixed-size pages of slots,
/// allocated when a chunk of theirs is first written, so memory follows
/// the *live* chunks — under pruning a few clusters of a huge index
/// space — not the highest one (only the page directory, 8 bytes per
/// `PAGE_SLOTS` chunks, reaches that far). A slot is stamped with the
/// generation that wrote it, so [`ChunkTable::clear`] — every repartition
/// and collapse invalidates all chunks — is O(1) and keeps the pages.
#[derive(Default)]
pub(crate) struct ChunkTable<T> {
    generation: u64,
    pages: Vec<Option<Box<Page<T>>>>,
}

/// Slots of `(generation + 1 at the write, value)`; stamp 0 is never live.
type Page<T> = [(u64, T); PAGE_SLOTS];

impl<T: Copy + Default> ChunkTable<T> {
    pub(crate) fn get(&self, chunk: usize) -> Option<T> {
        let page = self.pages.get(chunk / PAGE_SLOTS)?.as_ref()?;
        let (stamp, v) = page[chunk % PAGE_SLOTS];
        (stamp == self.generation + 1).then_some(v)
    }

    pub(crate) fn insert(&mut self, chunk: usize, value: T) {
        let stamped = (self.generation + 1, value);
        match self.pages.get_mut(chunk / PAGE_SLOTS) {
            Some(Some(page)) => page[chunk % PAGE_SLOTS] = stamped,
            _ => self.page_for(chunk)[chunk % PAGE_SLOTS] = stamped,
        }
    }

    #[cold]
    #[inline(never)]
    fn page_for(&mut self, chunk: usize) -> &mut Page<T> {
        let p = chunk / PAGE_SLOTS;
        if p >= self.pages.len() {
            self.pages.resize_with(p + 1, || None);
        }
        self.pages[p].get_or_insert_with(|| Box::new([(0, T::default()); PAGE_SLOTS]))
    }

    pub(crate) fn remove(&mut self, chunk: usize) {
        if let Some(Some(page)) = self.pages.get_mut(chunk / PAGE_SLOTS) {
            page[chunk % PAGE_SLOTS].0 = 0;
        }
    }

    pub(crate) fn clear(&mut self) {
        self.generation += 1;
    }
}

/// The streaming pipeline's shared environment: configuration, the
/// modeled timeline, functional state, and every piece of cross-gate
/// bookkeeping the round-trip steps read and write. Steps receive
/// `&mut Env` and borrow disjoint fields.
pub(crate) struct Env<'a> {
    pub(crate) cfg: &'a SimConfig,
    pub(crate) rec: Option<&'a Recorder>,
    pub(crate) spec: PipelineSpec,
    pub(crate) num_qubits: usize,
    pub(crate) num_gpus: usize,
    pub(crate) base_chunk_bits: u32,
    /// Fixed per-task cost in byte-equivalents at link speed: a round
    /// trip pays two transfer latencies and one kernel launch.
    pub(crate) overhead_bytes: f64,
    pub(crate) dynamic_chunks: bool,
    pub(crate) tl: &'a mut Timeline,
    pub(crate) state: ChunkedState,
    pub(crate) executor: ChunkExecutor,
    pub(crate) tracker: InvolvementTracker,
    pub(crate) chunk_bits: u32,
    pub(crate) codec: Box<dyn Codec>,
    /// The configured codec's modeled-bandwidth class, cached so the
    /// compress/decompress steps don't re-derive it per task. The
    /// cascade uses its own blended class rather than per-pick classes:
    /// the modeled kernel time reflects the sampling pass plus the
    /// average winner, keeping the timeline independent of amplitude
    /// content ordering.
    pub(crate) codec_class: CodecClass,
    pub(crate) resil: Option<Resilience>,
    pub(crate) integ: Option<IntegrityMw>,
    pub(crate) orch: Option<Orchestration>,
    /// Per-device modeled compute backlog, refilled at each assignment.
    pub(crate) backlog: Vec<f64>,
    /// Compressed representation held by the CPU, per chunk (bytes).
    pub(crate) compressed: ChunkTable<usize>,
    pub(crate) last_d2h: ChunkTable<f64>,
    /// This gate's codec sizes, in the order [`steps::size_members`]
    /// visits the members moving back ([`RAW_FALLBACK`] marks an
    /// injected encode failure); the task loop reads them back in the
    /// same order. Reused across gates.
    pub(crate) new_sizes: Vec<usize>,
    pub(crate) windows: Vec<Window>,
    pub(crate) epoch_floor: f64,
    /// Naive's single-stream chain.
    pub(crate) chain: f64,
    pub(crate) task_counter: usize,
    /// Compressed size of an all-zero chunk, per chunk_bits (cached).
    pub(crate) zero_chunk_size: [Option<usize>; MAX_CHUNK_BITS],
    pub(crate) rr: RoundRobin,
}

/// Most GFC segments a chunk is split into (warps in the paper's
/// Figure 11).
const COMPRESS_SEGMENTS: usize = 32;

/// The configured codec, sized for the current chunk width. For GFC (and
/// the cascade's GFC member): one segment per warp, but never so many
/// that a segment degrades to a single (history-less) micro-chunk — keep
/// ≥ 8 micro-chunks of 32 doubles per segment. (The paper: "we
/// empirically choose the number of segments to match the GPU
/// parallelism".)
pub(crate) fn codec_for(cfg: &SimConfig, chunk_bits: u32) -> Box<dyn Codec> {
    let doubles = 2usize << chunk_bits;
    codec_for_kind(cfg.codec(), (doubles / 256).clamp(1, COMPRESS_SEGMENTS))
}

/// Maps the configured codec to its modeled-bandwidth class in the
/// device specs.
pub(crate) fn codec_class_of(kind: CodecKind) -> CodecClass {
    match kind {
        CodecKind::Gfc => CodecClass::Gfc,
        CodecKind::ZeroRun => CodecClass::ZeroRun,
        CodecKind::Alp => CodecClass::Alp,
        CodecKind::Cascade => CodecClass::Cascade,
    }
}

/// Deals the next task to a device: the orchestrator's group (with
/// work-stealing) when present, plain round-robin otherwise.
pub(crate) fn deal_gpu(env: &mut Env) -> usize {
    let gpu = match env.orch.as_mut() {
        Some(o) => {
            // Backlogs only matter for victim selection, so a
            // healthy (un-armed) fleet skips gathering them.
            if o.group.steal_armed() {
                for (g, b) in env.backlog.iter_mut().enumerate() {
                    *b = env.tl.engine_available(Engine::GpuCompute(g));
                }
            }
            let (g, stolen) = o.group.assign(env.task_counter, &env.backlog);
            if stolen {
                env.tl.count(Counter::Steals, 1);
            }
            g
        }
        None => env.rr.gpu_for_task(env.task_counter),
    };
    env.task_counter += 1;
    gpu
}

/// Admission control ahead of an upload of `incoming` chunks: under the
/// overlap flag the per-GPU double-buffer window (half the device memory,
/// paper §IV-A) drains oldest-first until the task fits; without it the
/// single-stream chain serializes. Either way the governor's budget cap
/// clamps on top and residency is sampled for the report.
pub(crate) fn admit_window(
    env: &mut Env,
    gpu: usize,
    incoming: usize,
    compressing: bool,
    chunk_bytes: u64,
    ready: &mut f64,
) {
    if env.spec.flags.overlap {
        let gspec = env.cfg.platform.gpu(gpu);
        let base_cap = ((gspec.mem_bytes as f64 * env.cfg.buffer_split) as u64 / chunk_bytes)
            .max(incoming as u64) as usize;
        let inflight = env.windows[gpu].inflight;
        let cap = match env.orch.as_mut() {
            Some(o) => o.governed_cap(
                base_cap,
                inflight,
                incoming,
                env.chunk_bits,
                chunk_bytes,
                compressing,
                env.tl,
                env.rec,
            ),
            None => base_cap,
        };
        let w = &mut env.windows[gpu];
        while w.inflight + incoming > cap {
            match w.slots.pop_front() {
                Some((end, held)) => {
                    *ready = (*ready).max(end);
                    w.inflight -= held;
                }
                None => break,
            }
        }
        if env.orch.as_ref().is_some_and(|o| o.governor.is_some()) {
            env.tl
                .observe_resident_bytes((w.inflight + incoming) as u64 * chunk_bytes);
        }
    } else {
        *ready = (*ready).max(env.chain);
        if let Some(o) = env.orch.as_mut() {
            o.governed_cap(
                incoming,
                0,
                incoming,
                env.chunk_bits,
                chunk_bytes,
                compressing,
                env.tl,
                env.rec,
            );
            if o.governor.is_some() {
                env.tl.observe_resident_bytes(incoming as u64 * chunk_bytes);
            }
        }
    }
}

/// Real compressed size of member `m` under the configured codec (the
/// cached all-zero size for untouched chunks), sealing the integrity tag
/// at encode time.
pub(crate) fn encode_member(env: &mut Env, m: usize) -> usize {
    let raw = 16usize << env.chunk_bits;
    match env.state.chunk(m) {
        Some(amps) => {
            if let Some(rs) = env.resil.as_mut() {
                rs.seal_at_encode(m, amps);
            }
            transfer::compressed_size(&*env.codec, amps, raw, env.rec)
        }
        None => {
            if let Some(rs) = env.resil.as_mut() {
                rs.seal_zero_at_encode(m, env.chunk_bits);
            }
            let cb = env.chunk_bits as usize;
            *env.zero_chunk_size[cb].get_or_insert_with(|| {
                let zeros = vec![Complex64::ZERO; 1usize << cb];
                transfer::compressed_size(&*env.codec, &zeros, raw, env.rec)
            })
        }
    }
}

/// Dynamic chunk sizing (Algorithm 1's getChunkSize), with the
/// governor's ShrinkChunks ceiling applied on top. Re-partitioning is a
/// synchronization point: the pipeline drains and chunk-indexed caches
/// reset.
pub(crate) fn resize_chunks(env: &mut Env) {
    let mut nb = if env.dynamic_chunks {
        env.tracker
            .optimal_chunk_bits(env.base_chunk_bits, env.overhead_bytes)
    } else {
        env.base_chunk_bits
    };
    if let Some(cap) = env.orch.as_ref().and_then(|o| o.bits_cap) {
        nb = nb.min(cap);
    }
    if nb != env.chunk_bits {
        if let Some(r) = env.rec {
            let old = env.chunk_bits;
            r.flight("repartition", || format!("chunk_bits {old} -> {nb}"));
        }
        env.chunk_bits = nb;
        env.state.set_chunk_bits(nb);
        env.codec = codec_for(env.cfg, nb);
        env.epoch_floor = env.tl.makespan();
        env.chain = env.chain.max(env.epoch_floor);
        env.last_d2h.clear();
        env.compressed.clear();
        if let Some(rs) = env.resil.as_mut() {
            rs.on_repartition();
        }
        if let Some(mw) = env.integ.as_mut() {
            // Norm/peak tables are chunk-indexed: recompute for the new
            // partition.
            mw.rebuild(&env.state);
        }
        for w in &mut env.windows {
            w.slots.clear();
            w.inflight = 0;
        }
    }
}

/// Drains a device the health board quarantined through the
/// orchestrator's existing device-loss re-shard path. Without
/// orchestration — or when the quarantined device is the last one
/// standing — the quarantine is recorded (board state, counters, flight
/// event) but the device keeps its shard: correctness is already
/// guaranteed by repair-by-re-execution, so draining is an availability
/// optimization, never worth killing the run over.
pub(crate) fn drain_quarantine(env: &mut Env) -> Result<(), SimError> {
    let Some(dev) = env
        .integ
        .as_mut()
        .and_then(IntegrityMw::take_pending_quarantine)
    else {
        return Ok(());
    };
    match env.orch.as_ref() {
        Some(o) if o.group.alive_devices() > 1 && o.group.is_alive(dev) => {
            middleware::handle_device_loss(env, dev)
        }
        _ => Ok(()),
    }
}

/// Engine entry point: apply the seeded noise rewrite (if configured),
/// resolve the spec, dispatch to the static or streaming mode, then
/// publish the run's event counts.
///
/// Noise is inserted *before* reordering and fusion, so every version
/// and flag subset executes the identical noisy circuit — the rewrite is
/// a pure function of `(circuit, stoch_seed)`, never of the engine path.
pub(crate) fn run(
    circuit: &Circuit,
    cfg: &SimConfig,
    recorder: Option<&Arc<Recorder>>,
    resume: Option<&Checkpoint>,
) -> Result<RunResult, SimError> {
    let noised;
    let (circuit, noise_ops) = match cfg.effective_noise() {
        Some(nc) => {
            noised = nc.apply(circuit, cfg.stoch_seed);
            let added = (noised.len() - circuit.len()) as u64;
            (&noised, added)
        }
        None => (circuit, 0),
    };
    let spec = PipelineSpec::from_config(cfg);
    let rec = recorder.map(Arc::as_ref);
    let mut mw = obs_mw::ObsMw::new(rec, cfg, cfg.platform.num_gpus());
    // The timeline outlives the mode that fills it, so a run that fails
    // or is cancelled still leaves its counts behind.
    let mut tl = if cfg.trace_events > 0 {
        Timeline::with_trace(cfg.trace_events)
    } else {
        Timeline::new()
    };
    tl.count(Counter::NoiseOps, noise_ops);
    let result = match spec.mode {
        ExecMode::Static => static_alloc::run(circuit, cfg, recorder, resume, &mut tl, &mut mw),
        ExecMode::Streaming => {
            run_streaming(circuit, cfg, spec, recorder, resume, &mut tl, &mut mw)
        }
    };
    // Whatever the mode still held is released by now: that, and an
    // aborted run's partial timings, are flushed with the rest.
    mw.mark(obs_mw::DRIVER);
    mw.finish();
    // The one place `Counter` names reach the recorder: every exit —
    // `Ok`, error, abort — passes here, with the counts the report reads.
    if let Some(r) = rec {
        for c in Counter::ALL.into_iter().filter(|&c| tl.counter(c) > 0) {
            r.add(c.name(), tl.counter(c));
        }
    }
    result
}

fn run_streaming(
    circuit: &Circuit,
    cfg: &SimConfig,
    spec: PipelineSpec,
    recorder: Option<&Arc<Recorder>>,
    resume: Option<&Checkpoint>,
    tl: &mut Timeline,
    mw: &mut obs_mw::ObsMw,
) -> Result<RunResult, SimError> {
    let rec = recorder.map(Arc::as_ref);
    let circuit_owned;
    let circuit = if spec.flags.reorder {
        // The forward-looking pass (§IV-C) runs first.
        circuit_owned = cfg.reorder_strategy.reorder_observed(circuit, rec);
        &circuit_owned
    } else {
        circuit
    };
    let n = circuit.num_qubits();

    // The executable program: fused runs (after any reorder) or a 1:1
    // lowering. Timing and chunk plans come from each op's collapsed
    // kernel; the functional update replays the member gates exactly.
    let program = {
        let _g = span_opt(rec, Track::Main, ObsStage::Plan, "engine.program");
        crate::engine::program_for(circuit, cfg)
    };
    let start = middleware::validate_resume(resume, n, program.len())?;

    let mut env = build_env(spec, cfg, rec, recorder, tl, n, start, &program, resume);
    if start > 0 {
        middleware::note_resume_discard(start, rec);
        if let Some(mw) = env.integ.as_mut() {
            // A resumed state is not |0…0⟩: seed the tables from it.
            mw.rebuild(&env.state);
        }
    }
    let mut crng = stochastic::CollapseRng::new(cfg.stoch_seed, n, &program[..start]);
    let mut ckpt = CheckpointLayer::new(start);
    let mut clock = BarrierClock::new(cfg, start);
    mw.mark(obs_mw::SETUP);

    let mut idx = start;
    while idx < program.len() {
        if let Some(err) = cfg.cancel.as_ref().and_then(|t| t.poll_abort(idx)) {
            return Err(abort_run(err, env.state.dense_chunk_count(), rec));
        }
        ckpt.before_op(idx, &env.state, cfg, rec)?;
        let orch = env.orch.as_mut();
        if let Some(d) = orch.and_then(|o| clock.poll(idx, cfg, &mut o.group, env.num_gpus)) {
            middleware::handle_device_loss(&mut env, d)?;
        }
        resize_chunks(&mut env);

        // Whether chunks move compressed this op: the flag subset's own
        // choice, or the governor's ForceCompress rung.
        let compressing =
            spec.flags.compression || env.orch.as_ref().is_some_and(|o| o.force_compress);
        let fop = match &program[idx] {
            ProgramOp::Unitary(f) => f,
            // A collapse barrier: drain the pipeline, draw, project.
            // (The measured qubit joins the involvement mask so live
            // and resume-replayed trackers agree; that is conservative
            // — collapse never creates amplitude — so pruning stays
            // sound.)
            &ProgramOp::Measure { qubit } | &ProgramOp::Reset { qubit } => {
                let is_reset = matches!(program[idx], ProgramOp::Reset { .. });
                // The whole-state norm gate: the state must still be
                // normalized before a collapse consumes it.
                if let Some(imw) = env.integ.as_mut() {
                    imw.check_whole_state(&env.state, idx, rec)?;
                }
                idx += 1;
                mw.mark(obs_mw::DRIVER);
                let u = crng.draw(qubit);
                stochastic::collapse_streaming(&mut env, qubit, is_reset, u);
                env.tracker.involve_mask(1u64 << qubit);
                if let Some(imw) = env.integ.as_mut() {
                    // Projection + renormalization reset every norm.
                    imw.rebuild(&env.state);
                }
                mw.mark(obs_mw::MEASURE);
                continue;
            }
        };
        let cb = env.chunk_bits;
        let local = fop
            .collapsed()
            .mixing_qubits()
            .iter()
            .all(|&q| (q as u32) < cb);
        if spec.batching && local {
            mw.gate_begin();
            idx = batch::run_batch(&mut env, &program, idx, compressing)?;
            mw.mark(obs_mw::KERNEL);
            mw.gate_done();
            drain_quarantine(&mut env)?;
            continue;
        }
        idx += 1;

        stream_gate(&mut env, mw, fop, idx, compressing)?;
        drain_quarantine(&mut env)?;
    }

    if let (Some(rs), Some(r)) = (env.resil.as_ref(), rec) {
        r.add("integrity.retags", rs.retags);
    }
    let (ops, integ) = (program.len(), &mut env.integ);
    finish_run(mw, circuit, cfg, rec, env.state, env.tl, integ, ops)
}

/// The tail both modes share: the whole-state norm gate (the last line
/// of defense before samples leave the engine), the seeded readout, the
/// result — whose state is the run's own arena, moved.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish_run(
    mw: &mut obs_mw::ObsMw,
    circuit: &Circuit,
    cfg: &SimConfig,
    rec: Option<&Recorder>,
    state: ChunkedState,
    tl: &mut Timeline,
    integ: &mut Option<IntegrityMw>,
    program_len: usize,
) -> Result<RunResult, SimError> {
    if let Some(imw) = integ.as_mut() {
        imw.check_whole_state(&state, program_len, rec)?;
    }
    mw.mark(obs_mw::DRIVER);
    let samples = stochastic::sample_readout(&state, cfg, tl, rec);
    mw.mark(obs_mw::SAMPLE);
    Ok(RunResult {
        version: cfg.version,
        circuit_name: circuit.name().to_string(),
        state: cfg.collect_state.then(|| state.into_flat()),
        report: ExecutionReport::from_timeline(tl, cfg.platform.num_gpus()),
        trace: tl.trace().to_vec(),
        obs: None,
        samples,
        integrity: integ.as_ref().map(|m| m.summary),
    })
}

/// One unitary op through the chunk round trip: the gate-level steps,
/// then each live task through deal → upload → decompress → kernel →
/// compress → download, then the end-of-gate steps. `idx` is the program
/// index *after* the op. Attribution samples tasks: a sampled task laps
/// `mw`'s clock after each step, the rest run with no clock reads.
fn stream_gate(
    env: &mut Env,
    mw: &mut obs_mw::ObsMw,
    fop: &FusedOp,
    idx: usize,
    compressing: bool,
) -> Result<(), SimError> {
    mw.gate_begin();
    let mut g = steps::plan_and_prune(env, mw, fop, idx, compressing);
    mw.mark(obs_mw::PRUNE);
    steps::functional_update(env, &g)?;
    mw.mark(obs_mw::KERNEL);
    steps::size_members(env, &mut g);
    mw.mark(obs_mw::COMPRESS);

    let task_bytes = g.plan.group_len() as u64 * (16u64 << env.chunk_bits);
    let mut members = Vec::with_capacity(g.plan.group_len());
    // Where the next task's entries start in `env.new_sizes`.
    let mut cursor = 0;
    for rep in g.tasks {
        members.clear();
        members.extend(g.plan.members(rep));
        mw.task_begin();
        let gpu = deal_gpu(env);
        mw.task_lap(obs_mw::DEAL);
        let (h2d_end, raw_up) = steps::upload(env, gpu, &members, g.pruning, compressing)?;
        mw.task_lap(obs_mw::FETCH);
        let ready = steps::decompress(env, gpu, h2d_end, raw_up);
        mw.task_lap(obs_mw::DECOMPRESS);
        let (kernel_end, kernel_s) =
            steps::modeled_kernel(env, gpu, ready, task_bytes, g.fpa, fop.is_fused());
        steps::note_kernel_service(env, gpu, kernel_s, task_bytes);
        mw.task_lap(obs_mw::KERNEL);
        let sizes_at = cursor;
        let (d2h_ready, d2h_bytes) =
            steps::compress_and_size_download(env, &g, gpu, &members, kernel_end, &mut cursor);
        mw.task_lap(obs_mw::COMPRESS);
        steps::download(env, &g, gpu, &members, d2h_ready, d2h_bytes, sizes_at)?;
        mw.task_lap(obs_mw::WRITEBACK);
        mw.task_done(gpu);
    }
    mw.tasks_end();
    steps::end_of_gate(env);
    mw.mark(obs_mw::SYNC);
    mw.gate_done();
    env.tracker = g.tracker_after;
    Ok(())
}

/// The cooperative-cancellation exit, shared by both execution modes:
/// stopping at a gate boundary means the functional state is consistent
/// and simply dropped — record what is released, then surface the abort
/// error ([`run`] flushes the partial per-stage timings: the
/// post-mortem's "where did the cancelled run spend its time").
pub(crate) fn abort_run(err: SimError, released_chunks: usize, rec: Option<&Recorder>) -> SimError {
    if let Some(r) = rec {
        r.add("cancel.aborts", 1);
        r.flight("abort", || {
            format!("{err}; releasing {released_chunks} resident chunk(s)")
        });
    }
    err
}

#[allow(clippy::too_many_arguments)]
fn build_env<'a>(
    spec: PipelineSpec,
    cfg: &'a SimConfig,
    rec: Option<&'a Recorder>,
    recorder: Option<&Arc<Recorder>>,
    tl: &'a mut Timeline,
    n: usize,
    start: usize,
    program: &[ProgramOp],
    resume: Option<&Checkpoint>,
) -> Env<'a> {
    let base_chunk_bits = cfg.chunk_bits_for(n);
    let num_gpus = cfg.platform.num_gpus();
    let overhead_bytes = (2.0 * cfg.platform.link(0).latency + cfg.platform.gpu(0).kernel_launch)
        * cfg.platform.link(0).bw_per_direction;

    // Involvement replays instantly for the skipped prefix: masks are
    // pure functions of the program, no amplitudes needed.
    let mut tracker = InvolvementTracker::new(n);
    for op in &program[..start] {
        tracker.involve_mask(op.qubit_mask());
    }
    let dynamic_chunks = spec.flags.pruning && cfg.dynamic_chunk_size;
    let chunk_bits = if dynamic_chunks {
        tracker.optimal_chunk_bits(base_chunk_bits, overhead_bytes)
    } else {
        base_chunk_bits
    };
    let state = match resume {
        Some(ck) => ChunkedState::from_flat(&ck.state, chunk_bits),
        None => ChunkedState::new_zero(n, chunk_bits),
    };
    tl.count(
        Counter::GatesFused,
        qgpu_circuit::fuse::program_gates_fused(program) as u64,
    );

    Env {
        cfg,
        rec,
        spec,
        num_qubits: n,
        num_gpus,
        base_chunk_bits,
        overhead_bytes,
        dynamic_chunks,
        tl,
        state,
        executor: middleware::build_executor(cfg, recorder),
        tracker,
        chunk_bits,
        codec: codec_for(cfg, chunk_bits),
        codec_class: codec_class_of(cfg.codec()),
        resil: cfg.resilience_active().then(|| Resilience::new(cfg)),
        integ: cfg
            .integrity_active()
            .then(|| IntegrityMw::new(cfg, n, chunk_bits)),
        // Resilient multi-device orchestration: explicit opt-in, or
        // implied by any configured device-level fault.
        orch: cfg
            .effective_orchestration()
            .map(|o| Orchestration::new(num_gpus, o, cfg)),
        backlog: vec![0.0; num_gpus],
        compressed: ChunkTable::default(),
        last_d2h: ChunkTable::default(),
        new_sizes: Vec::new(),
        windows: (0..num_gpus).map(|_| Window::default()).collect(),
        epoch_floor: 0.0,
        chain: 0.0,
        task_counter: 0,
        zero_chunk_size: [None; MAX_CHUNK_BITS],
        rr: RoundRobin::new(num_gpus),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Version;

    fn pages_of<T>(t: &ChunkTable<T>) -> usize {
        t.pages.iter().flatten().count()
    }

    #[test]
    fn chunk_table_clears_in_place_and_grows_only_on_insert() {
        let mut t: ChunkTable<usize> = ChunkTable::default();
        assert_eq!(t.get(1 << 40), None);
        t.insert(5, 7);
        t.insert(2, 9);
        assert_eq!((t.get(5), t.get(2), t.get(3)), (Some(7), Some(9), None));
        assert_eq!(pages_of(&t), 1);
        t.remove(5);
        t.remove(1 << 40);
        assert_eq!(t.get(5), None);
        t.clear();
        assert_eq!(t.get(2), None);
        t.insert(2, 1);
        assert_eq!(t.get(2), Some(1));
        assert_eq!(pages_of(&t), 1);
        // A far chunk costs its own page, not the index space up to it.
        t.insert(1 << 30, 4);
        assert_eq!((t.get(1 << 30), t.get((1 << 30) - 1)), (Some(4), None));
        assert_eq!(pages_of(&t), 2);
    }

    /// A 20-qubit run that only ever involves five qubits, one of them
    /// high: the live chunks sit in two clusters a long way apart, and
    /// the per-chunk tables must hold a page per cluster — not one per
    /// `PAGE_SLOTS` chunks up to the highest live index.
    #[test]
    fn pruned_run_sizes_chunk_tables_by_its_highest_live_chunk() {
        let n = 20;
        let mut circuit = Circuit::new(n);
        circuit.h(0).h(1).cx(1, 19).h(2).cx(0, 2).h(15).cx(15, 19);
        let cfg = SimConfig::scaled_paper(n).with_version(Version::QGpu);
        let program = crate::engine::program_for(&circuit, &cfg);
        let spec = PipelineSpec::from_config(&cfg);
        let mut tl = Timeline::new();
        let mut env = build_env(spec, &cfg, None, None, &mut tl, n, 0, &program, None);
        let mut mw = obs_mw::ObsMw::new(None, &cfg, env.num_gpus);

        let mut most_pages_spanned = 0usize;
        for (i, op) in program.iter().enumerate() {
            resize_chunks(&mut env);
            let fop = op.unitary().expect("no collapse in this circuit");
            stream_gate(&mut env, &mut mw, fop, i + 1, true).expect("fault-free run");
            let highest_live = (env.tracker.mask() >> env.chunk_bits) as usize;
            most_pages_spanned = most_pages_spanned.max(highest_live / PAGE_SLOTS + 1);
        }
        // The tables were used, and hold far fewer pages (kept across
        // repartitions) than one dense up to the highest live chunk would.
        for pages in [pages_of(&env.compressed), pages_of(&env.last_d2h)] {
            assert!(
                pages >= 1 && pages * 8 <= most_pages_spanned,
                "{pages} pages for a span of {most_pages_spanned}"
            );
        }
    }
}
