//! The chunk round trip as plain functions over [`Env`], in the two
//! phases `stream_gate` runs per gate — one op, or a batch of chunk-local
//! ops whose [`GateCtx`] carries one [`Kernel`] per op:
//!
//! * the **functional phase**, once per gate: [`plan_and_prune`] (a plan
//!   per op, one prune decision), then [`functional_update`] (per op, one
//!   executor pass over blocks of consecutive live chunks; the gate's
//!   last kernel hands each block, still in cache, to a [`SizeSink`],
//!   which sizes it with one codec call per member run into the gate's
//!   slots) and [`size_members`] (one walk over the slots: the injected
//!   encode failures, and the sizes the sink left unwritten);
//! * the **timeline phase**, a tile of tasks at a time: [`fetch_tile`]
//!   fills the tile's [`Trip`]s from the chunk table, [`run_tile`]
//!   issues each task's deal → admission → H2D → decompress → a kernel
//!   per op that runs on it → compress → D2H through a [`Round`] — the
//!   timeline's lanes plus what dealing and admission touch — and
//!   [`write_back`] records the tasks' last downloads.
//!
//! The timeline phase issues exactly the scheduling calls a task-by-task
//! loop issues, with the same arguments, in the same order: only table
//! reads and writes that no scheduling call depends on move into the
//! column pass.
//!
//! Steps consult only [`Env::spec`]'s flags — never the configured
//! version — so any flag subset composes; integrity checking and fault
//! injection arrive through the middleware in [`Env`]. Static mode's
//! gate ([`static_gate`]) is priced on the same [`Round`].

use std::collections::VecDeque;
use std::ops::Range;

use qgpu_circuit::fuse::{FusedOp, ProgramOp};
use qgpu_compress::Codec;
use qgpu_device::timeline::{Engine, Lanes, TaskKind, Timeline};
use qgpu_device::{Counter, GpuSpec};
use qgpu_faults::SimError;
use qgpu_math::Complex64;
use qgpu_obs::{span_opt, Recorder, Stage as ObsStage, Track};
use qgpu_sched::plan::{GatePlan, Tasks};
use qgpu_sched::residency::RoundRobin;
use qgpu_sched::InvolvementTracker;
use qgpu_statevec::executor::Sink;
use qgpu_statevec::ChunkedState;

use crate::config::SimConfig;
use crate::engine::flops_per_amp;

use super::middleware::{self, Orchestration, Resilience, Touched};
use super::obs_mw::{self, ObsMw};
use super::transfer::{copy_with_dma, transfer_with_integrity, Dir};
use super::{Env, Held, RAW_FALLBACK};

/// Tasks per tile of the timeline phase: the columns are sized by it and
/// reused across tiles and gates, so host memory does not follow a
/// gate's task count — and cancellation is polled between tiles.
pub(crate) const TILE: usize = 4096;

/// One op's kernel in a gate's tasks: the gate's own op, or one op of a
/// batch.
pub(crate) struct Kernel<'p> {
    fop: &'p FusedOp,
    /// Its program index.
    op: usize,
    plan: GatePlan,
    /// Its own tasks surviving pruning, by representative.
    tasks: Tasks,
    fpa: f64,
}

/// One gate resolved against the current chunk layout — a single op, or
/// a batch of chunk-local ops sharing one round trip per chunk: what
/// [`plan_and_prune`] decides and the later steps read.
pub(crate) struct GateCtx<'p> {
    /// The op's kernel, or the batch's in program order.
    kernels: Vec<Kernel<'p>>,
    /// Involvement after the gate: decides which members move back.
    pub(crate) tracker_after: InvolvementTracker,
    pruning: bool,
    compressing: bool,
    /// The gate's tasks by representative, in chunk order: those of
    /// `span`, then those listed (see [`plan_and_prune`]).
    span: Tasks,
    listed: Vec<usize>,
}

impl GateCtx<'_> {
    /// The task shape: the first op's plan. A batch's ops are all
    /// chunk-local, one chunk per task.
    pub(crate) fn plan(&self) -> &GatePlan {
        &self.kernels[0].plan
    }

    /// The gate's tasks by representative, in chunk order: the union of
    /// its kernels' tasks.
    pub(crate) fn tasks(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        self.span.chain(self.listed.iter().copied())
    }

    fn len(&self) -> usize {
        self.span.len() + self.listed.len()
    }
}

/// The chunk plan, flops density and post-gate involvement of each op of
/// the gate (`ops`, from program index `first`), then the prune decision
/// (paper §IV-B), made once against the involvement before the gate:
/// tasks whose chunks are provably zero are dropped, and each op counts
/// its chunks as its own plan does. `mw` is lapped between the two so
/// each keeps its own attribution bucket.
pub(crate) fn plan_and_prune<'p>(
    env: &mut Env,
    mw: &mut ObsMw,
    ops: &'p [ProgramOp],
    first: usize,
    batched: bool,
    compressing: bool,
) -> GateCtx<'p> {
    let (cb, mut tracker_after) = (env.chunk_bits, env.tracker);
    let num_chunks = 1usize << (env.num_qubits as u32 - cb);
    let mut kernels = Vec::with_capacity(ops.len());
    for (op, fop) in (first..).zip(ops.iter().filter_map(ProgramOp::unitary)) {
        let action = fop.collapsed();
        let plan = GatePlan::new_observed(action, cb, num_chunks, env.rec);
        tracker_after.involve_mask(fop.qubit_mask());
        let (tasks, fpa) = (Tasks::default(), flops_per_amp(action));
        kernels.push(Kernel {
            fop,
            op,
            plan,
            tasks,
            fpa,
        });
    }
    mw.mark(obs_mw::PLAN);

    // An injected involvement-mask corruption means no chunk is provably
    // zero: the gate falls back to full-chunk execution. A batch keys the
    // draw on its first op, a single op on the index after it.
    let key = if batched { first } else { first + 1 };
    let flag = env.spec.flags.pruning;
    let corrupt = flag && env.resil.as_ref().is_some_and(|rs| rs.mask_corrupt(key));
    if corrupt {
        env.tl.count(Counter::PruneFallbacks, 1);
        if let Some(r) = env.rec {
            r.flight("prune_fallback", || {
                format!("op {key}: corrupt involvement mask, full-chunk execution")
            });
        }
    }
    let (pruning, mut fixed) = (flag && !corrupt, usize::MAX);
    for k in &mut kernels {
        k.tasks = match pruning {
            true => k.plan.live_task_indices(&env.tracker),
            false => k.plan.tasks(),
        };
        let (kept, total) = (k.tasks.len() * k.plan.group_len(), k.plan.total_chunks());
        env.tl.count(Counter::ChunksPruned, (total - kept) as u64);
        env.tl.count(Counter::ChunksProcessed, kept as u64);
        fixed &= k.plan.high_controls();
    }
    // The union of the ops' tasks: those holding the high controls all
    // ops share, when one op needs no more; else the ones among them that
    // hold some op's, listed. A kernel runs on a task whose chunk index
    // holds its op's high controls (a single op's on all its tasks).
    let mut span = match kernels.as_slice() {
        [k] => k.tasks,
        ks => Tasks::within(fixed, ks[0].plan.scope(pruning.then_some(&env.tracker))),
    };
    let mut listed = Vec::new();
    if kernels.iter().all(|k| k.plan.high_controls() != fixed) {
        let runs = |rep: usize, h: usize| rep & h == h;
        let any_runs = |rep: &usize| kernels.iter().any(|k| runs(*rep, k.plan.high_controls()));
        listed = std::mem::take(&mut span).filter(any_runs).collect();
    }
    let g = GateCtx {
        kernels,
        tracker_after,
        pruning,
        compressing,
        span,
        listed,
    };
    if let Some(r) = env.rec {
        let chunks = g.len() * g.plan().group_len();
        r.observe_n("chunk.bytes", 16u64 << cb, chunks as u64);
    }
    g
}

/// Empties the gate's size slots, one per member of each task, ahead of
/// the update whose sink fills some of them (see [`size_members`]).
pub(crate) fn clear_sizes(env: &mut Env, g: &GateCtx) {
    if g.compressing {
        env.sizes.clear();
        env.sizes.resize(g.len() * g.plan().group_len(), 0);
    }
}

/// The functional update, at gate level before any modeled task: each op
/// over its own surviving tasks, which touch disjoint chunks, so applying
/// them all up front leaves every per-chunk compressed size identical to
/// updating inside the task loop. The gate's last kernel sizes what it
/// visits while it is in cache ([`SizeSink`]) — unless integrity checks
/// may re-run blocks, or its tasks are not the gate's (a batch whose
/// last op runs on fewer chunks).
pub(crate) fn functional_update(env: &mut Env, g: &GateCtx) -> Result<(), SimError> {
    let last = g.kernels.len() - 1;
    for (i, k) in g.kernels.iter().enumerate() {
        let gate_tasks = g.listed.is_empty() && k.tasks == g.span;
        if i == last && g.compressing && env.integ.is_none() && gate_tasks {
            return update_sized(env, k);
        }
        super::integrity::apply_tasks(env, k.fop, k.op, k.tasks, k.plan.high_mixing())?;
        // Zero-block invariant over the chunks pruning skipped. Zero
        // (unallocated) chunks trivially satisfy it, so the sweep hands
        // the checker only the dense pruned chunks — the ones that could
        // actually hold stray amplitude.
        let Some(imw) = env.integ.as_mut().filter(|_| g.pruning) else {
            continue;
        };
        if imw.zero_sweep_due() {
            // A task was pruned iff its representative (its lowest
            // member) is provably zero.
            let (state, tracker, cb) = (&env.state, &env.tracker, env.chunk_bits);
            let pruned = k
                .plan
                .tasks()
                .filter(|&rep| tracker.chunk_is_zero(rep, cb))
                .flat_map(|rep| k.plan.members(rep))
                .filter(|&c| !state.is_zero_chunk(c));
            imw.check_zero_blocks(state, pruned, k.op, env.rec)?;
        }
    }
    Ok(())
}

/// Kernel `k`'s update with the sizing sink over the gate's slots (and,
/// while resilience is armed, their tags).
fn update_sized(env: &mut Env, k: &Kernel) -> Result<(), SimError> {
    let Env {
        executor,
        state,
        tl,
        rec,
        codec,
        chunk_bits,
        sizes,
        tags,
        resil,
        ..
    } = env;
    let tags = match resil {
        Some(_) => {
            tags.resize(sizes.len(), 0);
            &mut tags[..]
        }
        None => &mut [],
    };
    let mut sink = SizeSink {
        sizer: Sizer {
            codec: &**codec,
            rec: *rec,
            chunk_bits: *chunk_bits,
        },
        base: 0,
        sizes,
        tags,
        scratch: Vec::new(),
    };
    let w = Touched {
        reps: k.tasks,
        high_mixing: k.plan.high_mixing(),
    };
    middleware::apply_functional(executor, state, tl, *rec, k.fop, w, Some(&mut sink))
}

/// Sizes chunks of the current width with the configured codec.
#[derive(Clone, Copy)]
struct Sizer<'e> {
    codec: &'e dyn Codec,
    rec: Option<&'e Recorder>,
    chunk_bits: u32,
}

impl Sizer<'_> {
    fn of<'e>(env: &'e Env) -> Sizer<'e> {
        Sizer {
            codec: &*env.codec,
            rec: env.rec,
            chunk_bits: env.chunk_bits,
        }
    }

    /// [`qgpu_compress::Codec::encoded_lens_observed`] of the chunks of
    /// `amps`, capped at raw (the scheme moves a chunk raw rather than
    /// expand it) and below the fallback mark. The sizing is where the
    /// cascade runs in the engine, so its observed entry point publishes
    /// which inner codec won each chunk.
    fn sized(self, amps: &[Complex64], out: &mut [u32]) {
        let raw = u32::try_from(16usize << self.chunk_bits).unwrap_or(u32::MAX);
        let chunk_len = 1 << self.chunk_bits;
        self.codec
            .encoded_lens_observed(amps, chunk_len, out, self.rec);
        for len in out {
            *len = (*len).min(raw).min(RAW_FALLBACK - 1);
        }
    }
}

/// The executor's sink for a gate's last kernel: one codec call per run
/// it hands over, into the gate's slots — member `j` of the task at rank
/// `t` at `t · group_len + j`, the executor's slots and the ones
/// [`size_members`] reads — with each chunk's tag beside its size while
/// resilience is armed. A part of it covers the slots from `base` on.
struct SizeSink<'e> {
    sizer: Sizer<'e>,
    base: usize,
    sizes: &'e mut [u32],
    /// The same slots' tags; empty when nothing is sealed.
    tags: &'e mut [u32],
    /// A strided run's sizes on their way to its slots.
    scratch: Vec<u32>,
}

impl Sink for SizeSink<'_> {
    fn run(&mut self, slot: usize, stride: usize, _first: usize, amps: &[Complex64]) {
        let cb = self.sizer.chunk_bits;
        let (at, n) = (slot - self.base, amps.len() >> cb);
        let chunks = || amps.chunks_exact(1 << cb);
        if stride == 1 || n == 1 {
            self.sizer.sized(amps, &mut self.sizes[at..at + n]);
            if !self.tags.is_empty() {
                let tags = &mut self.tags[at..at + n];
                tags.iter_mut()
                    .zip(chunks())
                    .for_each(|(t, c)| *t = middleware::tag(c));
            }
            return;
        }
        self.scratch.clear();
        self.scratch.resize(n, 0);
        self.sizer.sized(amps, &mut self.scratch);
        let slots = (at..).step_by(stride);
        for ((slot, &len), chunk) in slots.zip(&self.scratch).zip(chunks()) {
            self.sizes[slot] = len;
            if !self.tags.is_empty() {
                self.tags[slot] = middleware::tag(chunk);
            }
        }
    }

    fn split(&mut self, at: &[usize]) -> Vec<Box<dyn Sink + '_>> {
        let (mut sizes, mut tags) = (&mut self.sizes[..], &mut self.tags[..]);
        let mut base = self.base;
        let mut parts: Vec<Box<dyn Sink + '_>> = Vec::with_capacity(at.len() + 1);
        let ends = at.iter().copied().chain(std::iter::once(usize::MAX));
        for end in ends {
            let cut = end.saturating_sub(base).min(sizes.len());
            let tag_cut = cut.min(tags.len());
            let (part, rest) = std::mem::take(&mut sizes).split_at_mut(cut);
            let (part_tags, rest_tags) = std::mem::take(&mut tags).split_at_mut(tag_cut);
            parts.push(Box::new(SizeSink {
                sizer: self.sizer,
                base,
                sizes: part,
                tags: part_tags,
                scratch: Vec::new(),
            }));
            (sizes, tags, base) = (rest, rest_tags, end);
        }
        parts
    }
}

/// Records an injected encode failure on `chunk`: the caller moves it
/// raw (no compress kernel, nothing cached as compressed).
fn note_codec_fallback(env: &mut Env, chunk: usize) {
    env.tl.count(Counter::CodecFallbacks, 1);
    if let Some(r) = env.rec {
        let cname = env.codec.kind().name();
        r.flight("codec_fallback", || {
            format!("chunk {chunk}: {cname} encode failed, moving raw")
        });
    }
}

/// The slot walk over every member of the gate's tasks, in slot order —
/// member `j` of the gate's `t`-th task at `t · group_len + j` of
/// [`Env::sizes`]: a member that does not move reads 0 (a size no codec
/// reports); one whose injected encode failure fires, [`RAW_FALLBACK`];
/// one the last kernel's sink sized keeps that size (sealed with the
/// sink's tag); any other is sized here as [`size_into`] says. The draws
/// of encode failures are made in slot order, one per moving member,
/// whoever sized it. Tasks touch disjoint chunks, so the sizes are those
/// of the task loop.
pub(crate) fn size_members(env: &mut Env, g: &GateCtx) {
    if !g.compressing {
        return;
    }
    let _sp = span_opt(
        env.rec,
        Track::Main,
        ObsStage::Compress,
        env.codec.kind().compress_span(),
    );
    let (cb, plan) = (env.chunk_bits, g.plan());
    let members = g.tasks().flat_map(|rep| plan.members(rep)).enumerate();
    let mut sizes = std::mem::take(&mut env.sizes);
    let tags = std::mem::take(&mut env.tags);
    let moves = |m: usize| !(g.pruning && g.tracker_after.chunk_is_zero(m, cb));
    size_into(env, members, moves, &mut sizes, &tags);
    if let Some(r) = env.rec {
        // A member that moves has a size; the others kept their zero.
        let chunk_bytes = 16u64 << cb;
        let sized = sizes.iter().filter(|&&sz| sz != 0 && sz != RAW_FALLBACK);
        r.observe_all(
            "compress.ratio.x100",
            sized.map(|&sz| chunk_bytes * 100 / u64::from(sz)),
        );
    }
    (env.sizes, env.tags) = (sizes, tags);
}

/// Walks each `(slot, member)` into `out[slot]`, in order: 0 for a member
/// that does not `moves`, [`RAW_FALLBACK`] for an injected encode
/// failure, and the sink's size (sealed with its `tags[slot]`) where it
/// left one; else an all-zero member gets the cached zero-chunk size, and
/// live members in consecutive slots and chunks go to the codec as one
/// run. Members are sealed at encode time.
fn size_into(
    env: &mut Env,
    members: impl Iterator<Item = (usize, usize)>,
    moves: impl Fn(usize) -> bool,
    out: &mut [u32],
    tags: &[u32],
) {
    let cb = env.chunk_bits;
    // Live members not sized yet: their chunks and the first one's slot.
    let mut run: Option<(Range<usize>, usize)> = None;
    let flush = |env: &Env, (chunks, at): (Range<usize>, usize), out: &mut [u32]| {
        let amps = &env.state.as_flat()[chunks.start << cb..chunks.end << cb];
        Sizer::of(env).sized(amps, &mut out[at..at + chunks.len()]);
    };
    // Walked by `for_each`: a gate's tasks chain two sequences, and the
    // chain's internal walk checks which one is next once, not per member.
    members.for_each(|(slot, m)| {
        if !moves(m) {
            out[slot] = 0;
            return;
        }
        if env.resil.as_mut().is_some_and(Resilience::codec_fails) {
            note_codec_fallback(env, m);
            out[slot] = RAW_FALLBACK;
            return;
        }
        if out[slot] != 0 {
            if let Some(rs) = env.resil.as_mut() {
                rs.seal_at_encode(m, tags[slot]);
            }
            return;
        }
        let Some(amps) = env.state.chunk(m) else {
            if let Some(rs) = env.resil.as_mut() {
                rs.seal_zero_at_encode(m, cb);
            }
            out[slot] = zero_chunk_size(env);
            return;
        };
        if let Some(rs) = env.resil.as_mut() {
            rs.seal_at_encode(m, middleware::tag(amps));
        }
        match &mut run {
            Some((chunks, at)) if chunks.end == m && *at + chunks.len() == slot => chunks.end += 1,
            pending => {
                if let Some(done) = pending.replace((m..m + 1, slot)) {
                    flush(env, done, out);
                }
            }
        }
    });
    if let Some(done) = run {
        flush(env, done, out);
    }
}

/// The compressed size of an all-zero chunk at the current width
/// (cached).
fn zero_chunk_size(env: &mut Env) -> u32 {
    let cb = env.chunk_bits as usize;
    if let Some(size) = env.zero_chunk_size[cb] {
        return size;
    }
    let mut len = [0];
    Sizer::of(env).sized(&vec![Complex64::ZERO; 1 << cb], &mut len);
    *env.zero_chunk_size[cb].insert(len[0])
}

/// What a member's round trip adds to its task's [`Trip`], and to the
/// chunk table — everything about a task that no scheduling call reads
/// back, so the column pass can settle it ahead of the timeline loop.
struct Fetch<'e> {
    state: &'e ChunkedState,
    resil: Option<&'e mut Resilience>,
    /// Involvement before the op (what moves up) and after it (what
    /// moves back).
    before: &'e InvolvementTracker,
    after: &'e InvolvementTracker,
    pruning: bool,
    compressing: bool,
    chunk_bits: u32,
    /// Raw and compressed bytes of the chunks that moved compressed.
    raw: u64,
    packed: u64,
}

impl Fetch<'_> {
    /// Member `m`'s upload: none if provably zero, its cached size when
    /// compressing (then decompressed), raw otherwise — tagged.
    #[inline]
    fn up(&mut self, m: usize, cached: Option<u32>, trip: &mut Trip) {
        if self.pruning && self.before.chunk_is_zero(m, self.chunk_bits) {
            return;
        }
        if let Some(rs) = self.resil.as_deref_mut() {
            rs.seal_for_upload(self.state, m, self.chunk_bits);
        }
        let chunk_bytes = 16u64 << self.chunk_bits;
        match (self.compressing, cached) {
            (true, Some(sz)) => {
                (trip.h2d, trip.raw_up) = (trip.h2d + u64::from(sz), trip.raw_up + chunk_bytes)
            }
            _ => trip.h2d += chunk_bytes,
        }
    }

    /// Member `m`'s download given its size this gate (read only when
    /// compressing): none if provably zero after the op; raw and
    /// re-tagged on arrival without compression or after a failed encode;
    /// else compressed. Returns the member's cached size after the gate.
    #[inline]
    fn down(&mut self, m: usize, cached: Option<u32>, size: u32, trip: &mut Trip) -> Option<u32> {
        if self.pruning && self.after.chunk_is_zero(m, self.chunk_bits) {
            return None;
        }
        let chunk_bytes = 16u64 << self.chunk_bits;
        if !self.compressing || size == RAW_FALLBACK {
            trip.d2h += chunk_bytes;
            if let Some(rs) = self.resil.as_deref_mut() {
                rs.verify_on_arrival(self.state, m, self.chunk_bits);
            }
            return cached.filter(|_| !self.compressing);
        }
        (self.raw, self.packed) = (self.raw + chunk_bytes, self.packed + u64::from(size));
        (trip.d2h, trip.raw_down) = (trip.d2h + u64::from(size), trip.raw_down + chunk_bytes);
        Some(size)
    }

    /// Counts the bytes that moved compressed.
    fn count(self, tl: &mut Timeline) {
        tl.count(Counter::BytesBeforeCompress, self.raw);
        tl.count(Counter::BytesAfterCompress, self.packed);
    }
}

/// One task's round trip as the timeline loop reads it — filled by the
/// column pass — and when its download ends.
#[derive(Clone, Copy, Default)]
pub(crate) struct Trip {
    /// The members' last downloads (and the epoch floor): when the
    /// upload may start.
    ready: f64,
    h2d: u64,
    /// Raw bytes that arrive compressed.
    raw_up: u64,
    d2h: u64,
    /// Raw bytes that leave compressed.
    raw_down: u64,
    done: f64,
}

/// The tile the timeline phase works on: up to [`TILE`] tasks, by
/// representative, and their trips. Reused across tiles and gates.
#[derive(Default)]
pub(crate) struct Tile {
    pub(crate) reps: Vec<usize>,
    trips: Vec<Trip>,
}

/// The column pass of the tile, whose first task is the gate's
/// `first_task`-th: member by member in chunk order (a table page looked
/// up once per run on it), each trip from [`Env::held`] and
/// [`Env::sizes`]; what the host holds after the gate; upload tags and
/// arrival re-tags; the tile's compressed-byte counts.
pub(crate) fn fetch_tile(env: &mut Env, g: &GateCtx, tile: &mut Tile, first_task: usize) {
    let Tile { reps, trips } = tile;
    trips.clear();
    let ready = env.epoch_floor;
    trips.resize(
        reps.len(),
        Trip {
            ready,
            ..Trip::default()
        },
    );
    let Env {
        state,
        resil,
        tracker,
        held,
        sizes,
        chunk_bits,
        tl,
        ..
    } = env;
    let cb = *chunk_bits;
    let mut fetch = Fetch {
        state,
        resil: resil.as_mut(),
        before: tracker,
        after: &g.tracker_after,
        pruning: g.pruning,
        compressing: g.compressing,
        chunk_bits: cb,
        raw: 0,
        packed: 0,
    };
    let group_len = g.plan().group_len();
    for (j, offset) in g.plan().members(0).enumerate() {
        held.update_each(reps.iter().map(|rep| rep + offset), |t, old| {
            let (m, trip) = (reps[t] + offset, &mut trips[t]);
            // Never downloaded: 0 waits for nothing past the floor.
            let (d2h_end, cached) = old.map_or((0.0, None), |h| (h.d2h_end, h.compressed));
            trip.ready = trip.ready.max(d2h_end);
            fetch.up(m, cached, trip);
            let size = match g.compressing {
                true => sizes[(first_task + t) * group_len + j],
                false => RAW_FALLBACK,
            };
            let compressed = fetch.down(m, cached, size, trip);
            Some(Held {
                d2h_end,
                compressed,
            })
        });
    }
    fetch.count(tl);
}

/// Per-GPU double-buffer window: chunks in flight on the device.
#[derive(Default)]
pub(crate) struct Window {
    slots: VecDeque<(f64, usize)>, // (d2h end, chunks held)
    inflight: usize,
}

/// The modeled devices between tasks: each GPU's window, the
/// single-stream chain (Naive's and static mode's), and the dealer.
pub(crate) struct Devices {
    windows: Vec<Window>,
    pub(crate) chain: f64,
    rr: RoundRobin,
    /// Tasks dealt so far (the orchestrator's rotation reads it).
    dealt: usize,
    /// Per-device modeled compute backlog, refilled at each assignment.
    backlog: Vec<f64>,
    /// What a task costs on each device (see [`Round::new`]).
    costs: Vec<GpuCosts>,
}

struct GpuCosts {
    /// The window in chunks (half the device memory, paper §IV-A),
    /// before the governor's cap.
    window: usize,
    codec_bw: f64,
    /// One task's unstretched kernel service time.
    kernel_s: f64,
}

impl Devices {
    pub(crate) fn new(num_gpus: usize) -> Self {
        Devices {
            windows: (0..num_gpus).map(|_| Window::default()).collect(),
            chain: 0.0,
            rr: RoundRobin::new(num_gpus),
            dealt: 0,
            backlog: vec![0.0; num_gpus],
            costs: Vec::new(),
        }
    }

    /// Empties `gpu`'s window, or every window: the device died, or the
    /// pipeline drained.
    pub(crate) fn drain(&mut self, gpu: Option<usize>) {
        for (g, w) in self.windows.iter_mut().enumerate() {
            if gpu.is_none_or(|d| d == g) {
                *w = Window::default();
            }
        }
    }
}

/// Both modes' hold on the engine, where every device action is priced:
/// the timeline's lanes, the devices, and the middleware they consult.
pub(crate) struct Round<'e> {
    lanes: Lanes<'e>,
    dev: &'e mut Devices,
    cfg: &'e SimConfig,
    rec: Option<&'e Recorder>,
    resil: Option<&'e mut Resilience>,
    orch: Option<&'e mut Orchestration>,
    overlap: bool,
    chunk_bits: u32,
    /// Chunks per task (a task's share of a window), and the bytes its
    /// kernel updates.
    chunks: usize,
    pub(crate) bytes: u64,
    compressing: bool,
}

impl<'e> Round<'e> {
    /// A hold for tasks of `chunks` chunks each, resolving what one
    /// costs on each device once rather than per task.
    pub(crate) fn new(env: &'e mut Env<'_>, chunks: usize, compressing: bool) -> Self {
        let Env {
            tl,
            dev,
            cfg,
            rec,
            spec,
            chunk_bits,
            codec_class,
            resil,
            orch,
            ..
        } = env;
        let chunk_bytes = 16u64 << *chunk_bits;
        let bytes = chunks as u64 * chunk_bytes;
        let costs = (0..cfg.platform.num_gpus()).map(|gpu| {
            let gspec = cfg.platform.gpu(gpu);
            let window = (gspec.mem_bytes as f64 * cfg.buffer_split) as u64 / chunk_bytes;
            GpuCosts {
                window: window.max(chunks as u64) as usize,
                codec_bw: gspec.codec_bw(*codec_class),
                kernel_s: kernel_s(gspec, bytes),
            }
        });
        dev.costs.clear();
        dev.costs.extend(costs);
        Round {
            lanes: tl.lanes(),
            dev,
            cfg,
            rec: *rec,
            resil: resil.as_mut(),
            orch: orch.as_mut(),
            overlap: spec.flags.overlap,
            chunk_bits: *chunk_bits,
            chunks,
            bytes,
            compressing,
        }
    }

    /// Deals the next task to a device: the orchestrator's group (with
    /// work-stealing) when present, plain round-robin otherwise.
    #[inline]
    pub(crate) fn deal(&mut self) -> usize {
        let Some(o) = self.orch.as_deref_mut() else {
            return self.dev.rr.next_gpu();
        };
        // Backlogs only matter for victim selection, so a healthy
        // (un-armed) fleet skips gathering them.
        if o.group.steal_armed() {
            for (g, b) in self.dev.backlog.iter_mut().enumerate() {
                *b = self.lanes.engine_available(Engine::GpuCompute(g));
            }
        }
        let (g, stolen) = o.group.assign(self.dev.dealt, &self.dev.backlog);
        self.dev.dealt += 1;
        if stolen {
            self.lanes.count(Counter::Steals, 1);
        }
        g
    }

    /// A task's upload: admission, the H2D copy, then the decompress
    /// kernel over the bytes that arrived compressed. Returns when the
    /// update may start.
    #[inline]
    pub(crate) fn upload(&mut self, gpu: usize, trip: &Trip) -> Result<f64, SimError> {
        let ready = self.admit(gpu, trip.ready);
        let copied = self.copy(Dir::Up(gpu), ready, trip.h2d)?;
        Ok(self.codec(gpu, copied, trip.raw_up, TaskKind::Decompress))
    }

    /// Admission ahead of an upload: with overlap the per-GPU window
    /// drains oldest-first until the task fits; without, the single
    /// stream serializes (its window stays empty). The governor's budget
    /// clamps on top, and residency is sampled for the report.
    #[inline]
    fn admit(&mut self, gpu: usize, mut ready: f64) -> f64 {
        let (incoming, chunk_bytes) = (self.chunks, 16u64 << self.chunk_bits);
        let w = &mut self.dev.windows[gpu];
        let base = match self.overlap {
            true => self.dev.costs[gpu].window,
            false => {
                ready = ready.max(self.dev.chain);
                incoming
            }
        };
        let (cb, compressing, lanes, rec) =
            (self.chunk_bits, self.compressing, &mut self.lanes, self.rec);
        let cap = match self.orch.as_deref_mut() {
            Some(o) => o.governed_cap(
                base,
                w.inflight,
                incoming,
                cb,
                chunk_bytes,
                compressing,
                lanes,
                rec,
            ),
            None => base,
        };
        while w.inflight + incoming > cap {
            let Some((end, held)) = w.slots.pop_front() else {
                break;
            };
            ready = ready.max(end);
            w.inflight -= held;
        }
        if self.orch.as_ref().is_some_and(|o| o.governor.is_some()) {
            lanes.observe_resident_bytes((w.inflight + incoming) as u64 * chunk_bytes);
        }
        ready
    }

    /// One modeled update kernel over the task's bytes resident on
    /// `gpu`, stretched by the device's straggler factor. Returns the
    /// kernel's end and its service time (for [`Round::note_service`]).
    #[inline]
    pub(crate) fn kernel(&mut self, gpu: usize, ready: f64, flops: f64, fused: bool) -> (f64, f64) {
        let (kernel_s, bytes) = (self.dev.costs[gpu].kernel_s, self.bytes);
        self.kernel_over(gpu, ready, kernel_s, bytes, flops, fused)
    }

    /// [`Round::kernel`] over `bytes` whose unstretched service time is
    /// `kernel_s`.
    #[inline]
    fn kernel_over(
        &mut self,
        gpu: usize,
        ready: f64,
        kernel_s: f64,
        bytes: u64,
        flops: f64,
        fused: bool,
    ) -> (f64, f64) {
        let stretch = self
            .resil
            .as_deref()
            .map_or(1.0, |rs| rs.inj.straggler_stretch(gpu));
        let kernel_s = kernel_s * stretch;
        let gc = Engine::GpuCompute(gpu);
        let kernel = self
            .lanes
            .schedule(gc, ready, kernel_s, TaskKind::Kernel, bytes);
        self.lanes.add_flops(flops);
        if fused {
            self.lanes.count(Counter::FusedKernels, 1);
        }
        (kernel.end, kernel_s)
    }

    /// Feeds the orchestrator's pace estimate one round trip's pure
    /// kernel service time: queueing and codec spans would let backlog
    /// leak into it.
    #[inline]
    pub(crate) fn note_service(&mut self, gpu: usize, kernel_s: f64) {
        if let Some(o) = self.orch.as_deref_mut() {
            o.group.record_task(gpu, kernel_s, self.bytes);
        }
    }

    /// A task's download from `ready` (its kernel's end): the compress
    /// kernel over the bytes leaving compressed, the D2H copy, and what
    /// the next admission reads — the window slot, or the single-stream
    /// chain. Returns the copy's end.
    #[inline]
    pub(crate) fn download(
        &mut self,
        gpu: usize,
        ready: f64,
        trip: &Trip,
    ) -> Result<f64, SimError> {
        let ready = self.codec(gpu, ready, trip.raw_down, TaskKind::Compress);
        let end = self.copy(Dir::Down(gpu), ready, trip.d2h)?;
        if self.overlap {
            let w = &mut self.dev.windows[gpu];
            w.slots.push_back((end, self.chunks));
            w.inflight += self.chunks;
        } else {
            self.dev.chain = end;
        }
        Ok(end)
    }

    /// A codec kernel over `raw` bytes (none when no byte moves
    /// compressed). Returns when it ends.
    #[inline]
    fn codec(&mut self, gpu: usize, ready: f64, raw: u64, kind: TaskKind) -> f64 {
        if raw == 0 {
            return ready;
        }
        let s = raw as f64 / self.dev.costs[gpu].codec_bw;
        self.lanes
            .schedule(Engine::GpuCompute(gpu), ready, s, kind, raw)
            .end
    }

    /// A copy from `ready`: injected and integrity-checked while the
    /// injector is armed. Returns its end.
    #[inline]
    fn copy(&mut self, dir: Dir, ready: f64, bytes: u64) -> Result<f64, SimError> {
        let (lanes, cfg) = (&mut self.lanes, self.cfg);
        let span = match self.resil.as_deref_mut() {
            None => copy_with_dma(lanes, cfg, dir, ready, bytes, 1.0),
            Some(rs) => transfer_with_integrity(lanes, cfg, dir, ready, bytes, rs, self.rec)?,
        };
        Ok(span.end)
    }
}

/// One kernel's unstretched service time over `bytes` on `gpu`.
fn kernel_s(gpu: &GpuSpec, bytes: u64) -> f64 {
    bytes as f64 / gpu.update_bw() + gpu.kernel_launch
}

/// The timeline loop over one tile: each task's round trip, in order, on
/// one hold of the lanes — one upload, a kernel per op that runs on the
/// task (chained on the resident chunks), one download.
pub(crate) fn run_tile(
    env: &mut Env,
    g: &GateCtx,
    tile: &mut Tile,
    mw: &mut ObsMw,
) -> Result<(), SimError> {
    let mut round = Round::new(env, g.plan().group_len(), g.compressing);
    let amps = round.bytes as f64 / 16.0;
    let kernels: Vec<_> = g
        .kernels
        .iter()
        .map(|k| (k.plan.high_controls(), amps * k.fpa, k.fop.is_fused()))
        .collect();
    for (trip, &rep) in tile.trips.iter_mut().zip(&tile.reps) {
        let gpu = round.deal();
        let ready = round.upload(gpu, trip)?;
        // A single op runs on every task, straight: the chain's loop would
        // cost it ≈ 10 % of the timeline phase.
        let (ready, service) = match kernels[..] {
            [(_, flops, fused)] => round.kernel(gpu, ready, flops, fused),
            _ => kernels.iter().filter(|k| rep & k.0 == k.0).fold(
                (ready, 0.0),
                |(ready, service), &(_, flops, fused)| {
                    let (end, kernel_s) = round.kernel(gpu, ready, flops, fused);
                    (end, service + kernel_s)
                },
            ),
        };
        round.note_service(gpu, service);
        trip.done = round.download(gpu, ready, trip)?;
        mw.task_done(gpu);
    }
    Ok(())
}

/// Each task's download end as its members' last download, which the
/// next gate's uploads wait for.
pub(crate) fn write_back(env: &mut Env, g: &GateCtx, tile: &Tile) {
    for offset in g.plan().members(0) {
        env.held
            .update_each(tile.reps.iter().map(|rep| rep + offset), |t, old| {
                let compressed = old.and_then(|h| h.compressed);
                Some(Held {
                    d2h_end: tile.trips[t].done,
                    compressed,
                })
            });
    }
}

/// Static mode's gate (paper §III-B) through a [`Round`], from the last
/// gate's end: the placement admits each task (`Placement::admit`); the
/// host's and each device's batch run side by side, then each task that
/// straddles a boundary, one at a time, copies its off-device members in,
/// updates and copies them back — the scheduler blocks when it reaches the
/// boundary (Figure 2's CPU time, then exchange time) — and the gate ends
/// in Naive's per-gate sync. No window, no governor, no batch. Returns
/// the op's plan for the functional update.
pub(crate) fn static_gate(env: &mut Env, fop: &FusedOp) -> Result<GatePlan, SimError> {
    let (cb, chunk_bytes) = (env.chunk_bits, 16u64 << env.chunk_bits);
    let plan = GatePlan::new_observed(fop.collapsed(), cb, env.state.num_chunks(), env.rec);
    let adm = env.placement.admit(&plan, chunk_bytes);
    env.tl
        .count(Counter::ChunksProcessed, plan.total_chunks() as u64);
    if let Some(r) = env.rec {
        r.observe_n("chunk.bytes", chunk_bytes, plan.tasks().len() as u64);
    }
    let (fpa, fused) = (flops_per_amp(fop.collapsed()), fop.is_fused());
    let host_s = adm.host as f64 / env.cfg.platform.host.chunked_update_bw();
    let mut round = Round::new(env, plan.group_len(), false);
    let (ready, mut chain) = (round.dev.chain, round.dev.chain);
    if adm.host > 0 {
        let (host, bytes) = (Engine::Host, adm.host);
        let span = round
            .lanes
            .schedule(host, ready, host_s, TaskKind::HostUpdate, bytes);
        chain = chain.max(span.end);
    }
    for (g, &bytes) in adm.gpus.iter().enumerate().filter(|&(_, &b)| b > 0) {
        let kernel_s = kernel_s(round.cfg.platform.gpu(g), bytes);
        let flops = bytes as f64 / 16.0 * fpa;
        chain = chain.max(round.kernel_over(g, ready, kernel_s, bytes, flops, fused).0);
    }
    let flops = round.bytes as f64 / 16.0 * fpa;
    for &(gpu, moved) in &adm.exchanges {
        let up = round.copy(Dir::Up(gpu), chain, moved)?;
        let (end, _) = round.kernel(gpu, up, flops, fused);
        chain = round.copy(Dir::Down(gpu), end, moved)?;
    }
    round.dev.chain = chain;
    drop(round);
    end_of_gate(env);
    Ok(plan)
}

/// After the last task: with overlap, window occupancy, sampled once per
/// gate per device; without, a full synchronization after every gate
/// (Naive's and static mode's behavior).
pub(crate) fn end_of_gate(env: &mut Env) {
    if !env.spec.flags.overlap {
        let sync = env.cfg.platform.host.sync_latency;
        let s = env
            .tl
            .schedule(Engine::Host, env.dev.chain, sync, TaskKind::Sync, 0);
        env.dev.chain = s.end;
    } else if let Some(r) = env.rec {
        let occupancy = env.dev.windows.iter().map(|w| w.inflight as u64);
        r.observe_all("window.inflight", occupancy);
    }
}
