//! The chunk pipeline: one engine executes every version.
//!
//! A `PipelineSpec` (see `spec`) reduces the configured
//! [`crate::Version`] (or an explicit [`crate::OptFlags`] subset) to an
//! execution mode plus optimization flags. One op loop (`run`) serves
//! both modes over the shared `Env`: cancellation, checkpoints, barriers,
//! collapses, the quarantine drain and the readout; both price every
//! device action on a `steps::Round`, with the run's one injector and
//! transfer count. A `match` on the mode picks what differs, at three
//! seams: which tasks a unitary op runs where (`unitary_op`), when a
//! collapse may start (`stochastic::collapse`), and what losing a device
//! costs (`middleware::lose_device`).
//!
//! The streaming mode runs the paper's fixed chunk round trip — *Plan →
//! Prune → Deal → Fetch → Decompress → Kernel → Compress → Writeback →
//! Sync* — as straight-line code (`stream_gate`) over the plain
//! functions in `steps`, each consulting only the flags, never the
//! version. A gate is one op or, with gate batching, a batch of up to
//! `MAX_BATCH` consecutive chunk-local ops whose tasks chain one kernel
//! per op (`steps::GateCtx`). Per gate, two phases:
//!
//! * the functional phase: the chunk plans, the pruning decision (once),
//!   the functional update — one pass over blocks of consecutive live
//!   chunks, which sizes each block while it is in cache — and a walk
//!   over the gate's size slots;
//! * the timeline phase, a tile of `steps::TILE` *live* tasks at a
//!   time in plan order: a column pass over the chunk tables, then each
//!   task's deal, H2D, decompress, kernels, compress and D2H on the
//!   timeline's lanes, then the tile's last-download times;
//! * then window occupancy sampling and the per-gate sync.
//!
//! In static mode the placement (`static_alloc`) admits a resident task
//! at once and a straddling one through the reactive exchange, and the
//! gate ends in Naive's sync (`steps::static_gate`); the update is then
//! applied — or, under the driver's deferral rule (`Env::defer`), noted
//! until `flush`. Under the same rule a batch's update is one `replay`.
//!
//! Host cost follows live chunks: the plan enumerates only surviving
//! tasks, the per-chunk tables are paged stamped vectors (`ChunkTable`)
//! and the state is one arena whose untouched pages were never mapped —
//! nothing hashes, or is sized by `num_chunks`. Cross-cutting concerns
//! (integrity + fault injection, orchestration, checkpoint barriers) are
//! middleware (`middleware`) threaded through the `Env`, not engine forks.

pub(crate) mod integrity;
pub(crate) mod middleware;
pub(crate) mod obs_mw;
pub(crate) mod spec;
pub(crate) mod static_alloc;
pub(crate) mod steps;
pub(crate) mod stochastic;
pub(crate) mod transfer;

use std::sync::Arc;

use qgpu_circuit::access::GateAction;
use qgpu_circuit::fuse::{FusedOp, ProgramOp};
use qgpu_circuit::Circuit;
use qgpu_compress::{codec_for_kind, Codec, CodecKind};
use qgpu_device::timeline::Timeline;
use qgpu_device::{CodecClass, Counter, ExecutionReport};
use qgpu_faults::{FaultConfig, SimError};
use qgpu_obs::{span_opt, Recorder, Stage as ObsStage, Track};
use qgpu_sched::residency::ChunkTable;
use qgpu_sched::InvolvementTracker;
use qgpu_statevec::{ChunkExecutor, ChunkedState};

use crate::checkpoint::Checkpoint;
use crate::config::SimConfig;
use crate::result::RunResult;

use integrity::IntegrityMw;
use middleware::{BarrierClock, CheckpointLayer, Orchestration, Resilience, MAX_CHUNK_BITS};
use obs_mw::ObsMw;
use spec::{ExecMode, PipelineSpec};
use static_alloc::Placement;

/// Per-chunk compressed size recorded as "the codec failed, move raw"
/// (see the codec-failure degradation path).
pub(crate) const RAW_FALLBACK: u32 = u32::MAX;

/// What the host holds of a chunk between its visits to a device.
#[derive(Clone, Copy, Default)]
pub(crate) struct Held {
    /// When its last download ended: its next upload waits for it.
    pub(crate) d2h_end: f64,
    /// Its size while the host holds it compressed.
    pub(crate) compressed: Option<u32>,
}

/// The driver's shared environment, for both modes: configuration, the
/// modeled timeline, functional state, and every piece of cross-gate
/// bookkeeping the steps read and write. Steps receive `&mut Env` and
/// borrow disjoint fields.
pub(crate) struct Env<'a> {
    pub(crate) cfg: &'a SimConfig,
    pub(crate) rec: Option<&'a Recorder>,
    pub(crate) spec: PipelineSpec,
    pub(crate) num_qubits: usize,
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
    /// Static mode's allocation (streaming's pins nothing).
    pub(crate) placement: Placement,
    /// The deferral rule: nothing observes the state op by op (no
    /// integrity checks, no worker-death campaign keyed on dispatches).
    /// A chunk-local op touches no other chunk, so its update may then
    /// wait: in static mode, where nothing modeled reads amplitudes, for
    /// [`flush`]; in a streaming batch, for one [`replay`] of the batch.
    pub(crate) defer: bool,
    /// The first op of the run of chunk-local ops whose updates wait.
    pub(crate) pending: Option<usize>,
    /// What the host holds of each chunk between device visits.
    pub(crate) held: ChunkTable<Held>,
    /// This gate's codec sizes, one slot per member of each task (see
    /// [`steps::size_members`]). Reused across gates.
    pub(crate) sizes: Vec<u32>,
    /// The tags the sizing sink took beside the sizes it wrote, by the
    /// same slots (only while resilience is armed). Reused across gates.
    pub(crate) tags: Vec<u32>,
    /// The timeline phase's tile. Reused across gates.
    pub(crate) tile: steps::Tile,
    pub(crate) dev: steps::Devices,
    pub(crate) epoch_floor: f64,
    /// Compressed size of an all-zero chunk, per chunk_bits (cached).
    pub(crate) zero_chunk_size: [Option<u32>; MAX_CHUNK_BITS],
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
        env.dev.chain = env.dev.chain.max(env.epoch_floor);
        env.held.clear();
        if let Some(rs) = env.resil.as_mut() {
            rs.on_repartition();
        }
        if let Some(mw) = env.integ.as_mut() {
            // Norm/peak tables are chunk-indexed: recompute for the new
            // partition.
            mw.rebuild(&env.state);
        }
        env.dev.drain(None);
    }
}

/// Drains a device the health board quarantined through the device-loss
/// path. Without orchestration — or when the quarantined device is the
/// last one standing — the quarantine is recorded (board state, counters,
/// flight event) but the device keeps its work: correctness is already
/// guaranteed by repair-by-re-execution, so draining is an availability
/// optimization, never worth killing the run over.
fn drain_quarantine(env: &mut Env) -> Result<(), SimError> {
    let Some(dev) = env
        .integ
        .as_mut()
        .and_then(IntegrityMw::take_pending_quarantine)
    else {
        return Ok(());
    };
    match env.orch.as_ref() {
        Some(o) if o.group.alive_devices() > 1 => middleware::lose_device(env, dev),
        _ => Ok(()),
    }
}

/// Engine entry point: apply the seeded noise rewrite (if configured),
/// resolve the spec, [`drive`] the program, then publish the run's event
/// counts.
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
    let mut mw = ObsMw::new(rec, cfg);
    // The timeline outlives the mode that fills it, so a run that fails
    // or is cancelled still leaves its counts behind.
    let mut tl = if cfg.trace_events > 0 {
        Timeline::with_trace(cfg.trace_events)
    } else {
        Timeline::new()
    };
    tl.count(Counter::NoiseOps, noise_ops);
    let result = drive(circuit, cfg, spec, recorder, resume, &mut tl, &mut mw);
    // Whatever the run still held is released by now: that, and an
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

/// The op loop, for both modes: a unitary op through the mode's gate
/// model ([`unitary_op`]), a collapse at its barrier, and around each op
/// cancellation, checkpoints, barriers, device loss and the quarantine
/// drain.
fn drive(
    circuit: &Circuit,
    cfg: &SimConfig,
    spec: PipelineSpec,
    recorder: Option<&Arc<Recorder>>,
    resume: Option<&Checkpoint>,
    tl: &mut Timeline,
    mw: &mut ObsMw,
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

    let mut env = build_env(spec, cfg, rec, recorder, tl, n, start, &program, resume)?;
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
        poll_cancel(&env, idx)?;
        if ckpt.due(idx, cfg) {
            flush(&mut env, &program[..idx], mw)?;
        }
        ckpt.before_op(idx, &env.state, cfg, rec)?;
        let orch = env.orch.as_mut();
        if let Some(d) = orch.and_then(|o| clock.poll(idx, cfg, &mut o.group)) {
            middleware::lose_device(&mut env, d)?;
        }
        resize_chunks(&mut env);
        idx = match &program[idx] {
            ProgramOp::Unitary(fop) => unitary_op(&mut env, mw, &program, idx, fop)?,
            // A collapse barrier: the state lands, then draw and project.
            // (The measured qubit joins the involvement mask so live and
            // resume-replayed trackers agree; that is conservative —
            // collapse never creates amplitude — so pruning stays sound.)
            &ProgramOp::Measure { qubit } | &ProgramOp::Reset { qubit } => {
                flush(&mut env, &program[..idx], mw)?;
                // The whole-state norm gate: the state must still be
                // normalized before a collapse consumes it.
                if let Some(imw) = env.integ.as_mut() {
                    imw.check_whole_state(&env.state, idx, rec)?;
                }
                mw.mark(obs_mw::DRIVER);
                let is_reset = matches!(program[idx], ProgramOp::Reset { .. });
                stochastic::collapse(&mut env, qubit, is_reset, crng.draw(qubit));
                env.tracker.involve_mask(1u64 << qubit);
                if let Some(imw) = env.integ.as_mut() {
                    // Projection + renormalization reset every norm.
                    imw.rebuild(&env.state);
                }
                mw.mark(obs_mw::MEASURE);
                idx + 1
            }
        };
        drain_quarantine(&mut env)?;
    }
    flush(&mut env, &program, mw)?;
    finish_run(env, mw, circuit, program.len())
}

/// Longest run of chunk-local ops batched into one gate. A batch decides
/// pruning once, against the involvement before its first op: exact,
/// since chunk-local ops move no amplitude across chunks, so a chunk zero
/// before the batch stays zero through it. The cap bounds how many
/// kernels one chunk visit chains.
const MAX_BATCH: usize = 64;

/// Whether `fop` mixes only qubits inside a chunk of `cb` bits.
fn is_local(fop: &FusedOp, cb: u32) -> bool {
    let mixing = fop.collapsed().mixing_qubits();
    mixing.iter().all(|&q| (q as u32) < cb)
}

/// The end of the batch that starts at the chunk-local op `idx`: at most
/// [`MAX_BATCH`] consecutive chunk-local unitary ops. A non-local op ends
/// it, and so does a measurement or reset: a collapse must see every
/// kernel before it landed.
fn batch_end(program: &[ProgramOp], idx: usize, cb: u32) -> usize {
    let cap = program.len().min(idx + MAX_BATCH);
    let local = |op: &ProgramOp| op.unitary().is_some_and(|f| is_local(f, cb));
    (idx + 1..cap).find(|&i| !local(&program[i])).unwrap_or(cap)
}

/// One unitary op at `idx` through the mode's gate model, with its
/// functional update applied or, under the deferral rule, noted. Returns
/// the index of the next op: a batch of chunk-local ops takes several.
fn unitary_op(
    env: &mut Env,
    mw: &mut ObsMw,
    program: &[ProgramOp],
    idx: usize,
    fop: &FusedOp,
) -> Result<usize, SimError> {
    let local = is_local(fop, env.chunk_bits);
    let deferred = env.defer && local && env.spec.mode == ExecMode::Static;
    if !deferred {
        flush(env, &program[..idx], mw)?;
    }
    let mut end = idx + 1;
    match env.spec.mode {
        ExecMode::Streaming => {
            // Whether chunks move compressed this op: the flag subset's
            // own choice, or the governor's ForceCompress rung.
            let force = env.orch.as_ref().is_some_and(|o| o.force_compress);
            let compressing = env.spec.flags.compression || force;
            let batched = env.spec.batching && local;
            if batched {
                end = batch_end(program, idx, env.chunk_bits);
            }
            stream_gate(env, mw, &program[idx..end], idx, batched, compressing)?;
        }
        // No round trip to lap step by step: the whole gate lands in
        // `kernel`.
        ExecMode::Static => {
            mw.gate_begin();
            let plan = steps::static_gate(env, fop)?;
            if deferred {
                env.pending.get_or_insert(idx);
            } else {
                integrity::apply_tasks(env, fop, idx, plan.tasks(), plan.high_mixing())?;
            }
            mw.mark(obs_mw::KERNEL);
            mw.gate_done();
        }
    }
    Ok(end)
}

/// Applies the pending chunk-local ops — the tail of `modeled`, the
/// program so far — to the state in one [`replay`] over every chunk. The
/// flush is its own entry in `gate.ns`, charged to `kernel`.
fn flush(env: &mut Env, modeled: &[ProgramOp], mw: &mut ObsMw) -> Result<(), SimError> {
    let Some(first) = env.pending.take() else {
        return Ok(());
    };
    let ops = &modeled[first..];
    mw.gate_begin();
    if let Some(r) = env.rec {
        r.observe("update.local.ops", ops.len() as u64);
    }
    let done = replay(env, ops, first, 0..env.state.num_chunks());
    mw.mark(obs_mw::KERNEL);
    mw.gate_done();
    done
}

/// Applies the chunk-local `ops`, from program index `first` on, in one
/// visit per listed chunk that replays them all while it is resident.
/// Same arithmetic per amplitude in the same order as per-op updates, so
/// the state is bit-identical. Cancellable between chunk visits: an abort
/// names `first`, the first op whose update had not landed everywhere.
fn replay(
    env: &mut Env,
    ops: &[ProgramOp],
    first: usize,
    chunks: impl Iterator<Item = usize> + Clone,
) -> Result<(), SimError> {
    let actions: Vec<GateAction> = ops
        .iter()
        .filter_map(ProgramOp::unitary)
        .flat_map(|fop| fop.actions().iter().cloned())
        .collect();
    let cfg = env.cfg;
    let done = {
        let _g = span_opt(env.rec, Track::Main, ObsStage::Update, "update.local");
        let poll = || cancelled(cfg, first);
        env.executor
            .try_apply_group_runs(&mut env.state, &actions, chunks, &[], Some(&poll), None)
    };
    match done {
        Ok(restarts) => {
            middleware::note_restarts(env.tl, env.rec, restarts);
            Ok(())
        }
        // The token tripped between chunk visits: the same abort as at a
        // poll point. Any other failure surfaces as it is.
        Err(err) => poll_cancel(env, first).and(Err(err)),
    }
}

/// The run's tail: the whole-state norm gate (the last line of defense
/// before samples leave the engine), the seeded readout, the result —
/// whose state is the run's own arena, moved.
fn finish_run(
    mut env: Env,
    mw: &mut ObsMw,
    circuit: &Circuit,
    program_len: usize,
) -> Result<RunResult, SimError> {
    let (cfg, rec) = (env.cfg, env.rec);
    // Static mode moves nothing raw to re-tag.
    if let (Some(rs), Some(r), ExecMode::Streaming) = (env.resil.as_ref(), rec, env.spec.mode) {
        r.add("integrity.retags", rs.retags);
    }
    if let Some(imw) = env.integ.as_mut() {
        imw.check_whole_state(&env.state, program_len, rec)?;
    }
    mw.mark(obs_mw::DRIVER);
    let samples = stochastic::sample_readout(&env.state, cfg, env.tl, rec);
    mw.mark(obs_mw::SAMPLE);
    Ok(RunResult {
        version: cfg.version,
        circuit_name: circuit.name().to_string(),
        state: cfg.collect_state.then(|| env.state.into_flat()),
        report: ExecutionReport::from_timeline(env.tl, cfg.platform.num_gpus()),
        trace: env.tl.trace().to_vec(),
        obs: None,
        samples,
        integrity: env.integ.map(|m| m.summary),
    })
}

/// One gate — a unitary op, or a `batched` run of chunk-local `ops`
/// from program index `first` — through the chunk round trip in two
/// phases. The functional phase — plan, prune, the update (sizing the
/// blocks it leaves in cache), the slot walk — runs once per gate; the timeline phase runs a tile of live
/// tasks at a time: the column pass, each task's deal → upload →
/// decompress → a kernel per op → compress → download on the lanes, the
/// last-download write-back. Cancellation is polled between the phases
/// and between tiles, so a tripped token stops a large gate within a
/// tile; an abort names the gate's first op.
fn stream_gate(
    env: &mut Env,
    mw: &mut ObsMw,
    ops: &[ProgramOp],
    first: usize,
    batched: bool,
    compressing: bool,
) -> Result<(), SimError> {
    mw.gate_begin();
    let g = steps::plan_and_prune(env, mw, ops, first, batched, compressing);
    mw.mark(obs_mw::PRUNE);
    steps::clear_sizes(env, &g);
    if batched && env.defer {
        replay(env, ops, first, g.tasks())?;
    } else {
        steps::functional_update(env, &g)?;
    }
    mw.mark(obs_mw::KERNEL);
    steps::size_members(env, &g);
    mw.mark(obs_mw::COMPRESS);

    let mut tile = std::mem::take(&mut env.tile);
    let (mut tasks, mut first_task) = (g.tasks(), 0);
    loop {
        poll_cancel(env, first)?;
        tile.reps.clear();
        tile.reps.extend(tasks.by_ref().take(steps::TILE));
        if tile.reps.is_empty() {
            break;
        }
        steps::fetch_tile(env, &g, &mut tile, first_task);
        mw.mark(obs_mw::FETCH);
        steps::run_tile(env, &g, &mut tile, mw)?;
        mw.mark(obs_mw::DEAL);
        steps::write_back(env, &g, &tile);
        mw.mark(obs_mw::WRITEBACK);
        first_task += tile.reps.len();
    }
    env.tile = tile;
    steps::end_of_gate(env);
    mw.mark(obs_mw::SYNC);
    mw.gate_done();
    env.tracker = g.tracker_after;
    Ok(())
}

/// The run's cancel token polled inside op `op`: the abort error once it
/// has tripped. Every poll of the token goes through here.
fn cancelled(cfg: &SimConfig, op: usize) -> Option<SimError> {
    cfg.cancel.as_ref().and_then(|t| t.poll_abort(op))
}

/// The cancel poll inside op `op`: a tripped token stops the run there.
/// The functional state is consistent at every poll point and simply
/// dropped — record what is released, then surface the abort error
/// ([`run`] flushes the partial per-stage timings: the post-mortem's
/// "where did the cancelled run spend its time").
fn poll_cancel(env: &Env, op: usize) -> Result<(), SimError> {
    let Some(err) = cancelled(env.cfg, op) else {
        return Ok(());
    };
    if let Some(r) = env.rec {
        let released = env.state.dense_chunk_count();
        r.add("cancel.aborts", 1);
        r.flight("abort", || {
            format!("{err}; releasing {released} resident chunk(s)")
        });
    }
    Err(err)
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
) -> Result<Env<'a>, SimError> {
    let max = qgpu_statevec::MAX_QUBITS;
    if n > max {
        return Err(SimError::CircuitTooWide { qubits: n, max });
    }
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
    // Static mode pins chunks. Of the injected faults it models only the
    // devices' (stragglers, degraded links), drawn on streaming's keys:
    // its exchange copies are never corrupted.
    let (placement, faults, armed) = match spec.mode {
        ExecMode::Static => {
            let faults = FaultConfig {
                p_transfer_corrupt: 0.0,
                ..cfg.faults
            };
            let placement = Placement::new(cfg, tl, n, chunk_bits);
            (placement, faults, cfg.faults.device_faults_enabled())
        }
        ExecMode::Streaming => (Placement::default(), cfg.faults, cfg.resilience_active()),
    };
    let observed = cfg.integrity_active() || cfg.faults.p_worker_death > 0.0;

    Ok(Env {
        cfg,
        rec,
        spec,
        num_qubits: n,
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
        resil: armed.then(|| Resilience::new(faults)),
        integ: cfg
            .integrity_active()
            .then(|| IntegrityMw::new(cfg, n, chunk_bits)),
        // Resilient multi-device orchestration: explicit opt-in, or
        // implied by any configured device-level fault.
        orch: cfg
            .effective_orchestration()
            .map(|o| Orchestration::new(num_gpus, o, cfg)),
        placement,
        defer: !observed,
        pending: None,
        held: ChunkTable::default(),
        sizes: Vec::new(),
        tags: Vec::new(),
        tile: steps::Tile::default(),
        dev: steps::Devices::new(num_gpus),
        epoch_floor: 0.0,
        zero_chunk_size: [None; MAX_CHUNK_BITS],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Version;

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
        let mut env =
            build_env(spec, &cfg, None, None, &mut tl, n, 0, &program, None).expect("fits");
        let mut mw = ObsMw::new(None, &cfg);

        let mut most_pages_spanned = 0usize;
        for (i, op) in program.iter().enumerate() {
            resize_chunks(&mut env);
            let ops = std::slice::from_ref(op);
            stream_gate(&mut env, &mut mw, ops, i, false, true).expect("fault-free run");
            let highest_live = (env.tracker.mask() >> env.chunk_bits) as usize;
            most_pages_spanned =
                most_pages_spanned.max(highest_live / ChunkTable::<Held>::PAGE_SLOTS + 1);
        }
        // The tables were used, and hold far fewer pages (kept across
        // repartitions) than one dense up to the highest live chunk would.
        let pages = env.held.pages();
        assert!(
            pages >= 1 && pages * 8 <= most_pages_spanned,
            "{pages} pages for a span of {most_pages_spanned}"
        );
    }

    /// The sizing sink under injected encode failures, on one worker and
    /// on two (a dense 15-qubit state clears the fan-out floor): every
    /// gate's size slots, the fallback count and the final tags agree.
    #[test]
    fn sized_slots_and_tags_agree_across_worker_counts_under_codec_faults() {
        use qgpu_circuit::generators::Benchmark;
        use qgpu_faults::FaultConfig;
        let n = 15;
        let circuit = Benchmark::Iqp.generate(n);
        let faults = FaultConfig {
            seed: 42,
            p_codec_fail: 0.02,
            ..FaultConfig::default()
        };
        let cfg = SimConfig::scaled_paper(n)
            .with_version(Version::QGpu)
            .with_faults(faults);
        let program = crate::engine::program_for(&circuit, &cfg);
        let run = |threads| {
            let spec = PipelineSpec::from_config(&cfg);
            let mut tl = Timeline::new();
            let mut env =
                build_env(spec, &cfg, None, None, &mut tl, n, 0, &program, None).expect("fits");
            let rec = Arc::new(Recorder::new());
            env.executor = ChunkExecutor::with_exact_threads(threads).with_recorder(rec.clone());
            let mut mw = ObsMw::new(None, &cfg);
            let mut sizes = Vec::new();
            for (i, op) in program.iter().enumerate() {
                resize_chunks(&mut env);
                let ops = std::slice::from_ref(op);
                stream_gate(&mut env, &mut mw, ops, i, false, true).expect("absorbed");
                sizes.push(env.sizes.clone());
            }
            let resil = env.resil.as_ref().expect("armed");
            let tags: Vec<Option<u32>> = (0..env.state.num_chunks())
                .map(|c| resil.sealed(c))
                .collect();
            drop(env);
            let snap = rec.registry().snapshot();
            let fanned = snap.histograms_named("worker.queue").next().is_some();
            assert_eq!(fanned, threads > 1, "{threads} worker(s)");
            (sizes, tags, tl.counter(Counter::CodecFallbacks))
        };
        let one = run(1);
        assert!(one.2 > 0, "no encode failure fired");
        assert!(one.1.iter().any(Option::is_some), "nothing sealed");
        assert!(one == run(2), "1 and 2 workers disagree");
    }
}
