//! The chunk round trip as plain functions over [`Env`]: gate-level
//! steps ([`plan_and_prune`], [`functional_update`], [`size_members`],
//! [`end_of_gate`]) and task-level steps ([`upload`], [`decompress`],
//! [`modeled_kernel`], [`compress_and_size_download`], [`download`]).
//! `stream_gate` calls them once per gate and live task; the
//! gate-batching shape (`batch`) calls the same task-level steps around
//! its own kernel loop.
//!
//! Steps consult only [`Env::spec`]'s flags — never the configured
//! version — so any flag subset composes; integrity checking and fault
//! injection arrive through the middleware in [`Env`].

use qgpu_circuit::fuse::FusedOp;
use qgpu_device::timeline::{Engine, TaskKind};
use qgpu_device::Counter;
use qgpu_faults::SimError;
use qgpu_obs::{span_opt, Stage as ObsStage, Track};
use qgpu_sched::plan::{GatePlan, Tasks};
use qgpu_sched::InvolvementTracker;

use crate::engine::flops_per_amp;

use super::middleware::Resilience;
use super::obs_mw::{self, ObsMw};
use super::transfer::{self, transfer_with_integrity, Dir};
use super::{Env, RAW_FALLBACK};

/// One gate resolved against the current chunk layout: what
/// [`plan_and_prune`] decides and the later steps read.
pub(crate) struct GateCtx<'p> {
    pub(crate) fop: &'p FusedOp,
    /// Program index *after* this op (the injector's mask-corruption
    /// draw is keyed on it); the op itself is one back.
    pub(crate) idx: usize,
    pub(crate) plan: GatePlan,
    pub(crate) fpa: f64,
    /// Involvement after this op: decides which members move back.
    pub(crate) tracker_after: InvolvementTracker,
    pub(crate) pruning: bool,
    pub(crate) compressing: bool,
    /// The tasks surviving pruning, by representative chunk.
    pub(crate) tasks: Tasks,
    /// Members marked [`RAW_FALLBACK`] this gate.
    pub(crate) raw_members: usize,
}

/// Whether this op (or batch) may prune. An injected involvement-mask
/// corruption, decided once per `idx`, means no chunk is provably zero:
/// fall back to full-chunk execution.
pub(crate) fn prune_allowed(env: &mut Env, idx: usize) -> bool {
    if !env.spec.flags.pruning {
        return false;
    }
    let corrupt = env.resil.as_ref().is_some_and(|rs| rs.mask_corrupt(idx));
    if corrupt {
        env.tl.count(Counter::PruneFallbacks, 1);
        if let Some(r) = env.rec {
            r.flight("prune_fallback", || {
                format!("op {idx}: corrupt involvement mask, full-chunk execution")
            });
        }
    }
    !corrupt
}

/// The gate's chunk plan, flops density and post-op involvement, then
/// the prune decision (paper §IV-B): tasks whose chunks are provably
/// zero under the involvement mask are dropped. `mw` is lapped between
/// the two so each keeps its own attribution bucket.
pub(crate) fn plan_and_prune<'p>(
    env: &mut Env,
    mw: &mut ObsMw,
    fop: &'p FusedOp,
    idx: usize,
    compressing: bool,
) -> GateCtx<'p> {
    let action = fop.collapsed();
    let num_chunks = 1usize << (env.num_qubits as u32 - env.chunk_bits);
    let plan = GatePlan::new_observed(action, env.chunk_bits, num_chunks, env.rec);
    let mut tracker_after = env.tracker;
    tracker_after.involve_mask(fop.qubit_mask());
    mw.mark(obs_mw::PLAN);

    let pruning = prune_allowed(env, idx);
    let tasks = if pruning {
        plan.live_task_indices(&env.tracker)
    } else {
        plan.tasks()
    };
    let (kept_chunks, total) = (tasks.len() * plan.group_len(), plan.total_chunks());
    env.tl
        .count(Counter::ChunksPruned, (total - kept_chunks) as u64);
    env.tl.count(Counter::ChunksProcessed, kept_chunks as u64);
    if let Some(r) = env.rec {
        r.observe_n("chunk.bytes", 16u64 << env.chunk_bits, kept_chunks as u64);
    }
    GateCtx {
        fop,
        idx,
        plan,
        fpa: flops_per_amp(action),
        tracker_after,
        pruning,
        compressing,
        tasks,
        raw_members: 0,
    }
}

/// The functional update, at gate level before any modeled task:
/// surviving tasks touch disjoint chunks, so applying them all up front
/// leaves every per-chunk compressed size identical to updating inside
/// the task loop.
pub(crate) fn functional_update(env: &mut Env, g: &GateCtx) -> Result<(), SimError> {
    let op_idx = g.idx.saturating_sub(1);
    super::integrity::apply_tasks(
        &mut env.integ,
        &mut env.executor,
        &mut env.state,
        env.tl,
        env.rec,
        g.fop,
        op_idx,
        &g.plan,
        g.tasks,
    )?;
    // Zero-block invariant over the chunks pruning skipped. Zero
    // (unallocated) chunks trivially satisfy it, so the sweep hands the
    // checker only the dense pruned chunks — the ones that could
    // actually hold stray amplitude.
    if g.pruning {
        if let Some(imw) = env.integ.as_mut() {
            if imw.zero_sweep_due() {
                // A task was pruned iff its representative (its lowest
                // member) is provably zero.
                let (state, tracker, cb) = (&env.state, &env.tracker, env.chunk_bits);
                let pruned = g
                    .plan
                    .tasks()
                    .filter(|&rep| tracker.chunk_is_zero(rep, cb))
                    .flat_map(|rep| g.plan.members(rep))
                    .filter(|&c| !state.is_zero_chunk(c));
                imw.check_zero_blocks(state, pruned, op_idx, env.rec)?;
            }
        }
    }
    Ok(())
}

/// Records an injected encode failure on `chunk`: the caller moves it
/// raw (no compress kernel, nothing cached as compressed).
pub(crate) fn note_codec_fallback(env: &mut Env, chunk: usize) {
    env.tl.count(Counter::CodecFallbacks, 1);
    if let Some(r) = env.rec {
        let cname = env.codec.kind().name();
        r.flight("codec_fallback", || {
            format!("chunk {chunk}: {cname} encode failed, moving raw")
        });
    }
}

/// The real-codec sizing pass for every member moving back, into
/// [`Env::new_sizes`] in task-then-member order. One pass per gate, so
/// the measured Compress span has per-gate — not per-chunk —
/// granularity; tasks touch disjoint chunks, so the sizes are identical
/// to compressing inside the task loop.
pub(crate) fn size_members(env: &mut Env, g: &mut GateCtx) {
    if !g.compressing {
        return;
    }
    let _sp = span_opt(
        env.rec,
        Track::Main,
        ObsStage::Compress,
        env.codec.kind().compress_span(),
    );
    env.new_sizes.clear();
    for m in g.tasks.flat_map(|rep| g.plan.members(rep)) {
        if g.pruning && g.tracker_after.chunk_is_zero(m, env.chunk_bits) {
            continue;
        }
        if env.resil.as_mut().is_some_and(Resilience::codec_fails) {
            note_codec_fallback(env, m);
            env.new_sizes.push(RAW_FALLBACK);
            g.raw_members += 1;
            continue;
        }
        let sz = super::encode_member(env, m);
        env.new_sizes.push(sz);
    }
    if let Some(r) = env.rec {
        let chunk_bytes = 16u64 << env.chunk_bits;
        let sized = env.new_sizes.iter().filter(|&&sz| sz != RAW_FALLBACK);
        let ratios = sized.map(|&sz| transfer::ratio_x100(chunk_bytes, sz));
        r.observe_all("compress.ratio.x100", ratios);
    }
}

/// A task's upload: its bytes (pruned members don't move; cached
/// compressed representations move small), readiness behind the members'
/// last downloads, window admission, departing integrity tags, and the
/// H2D copy. Returns the copy's end and the raw bytes that arrived
/// compressed.
pub(crate) fn upload(
    env: &mut Env,
    gpu: usize,
    members: &[usize],
    pruning: bool,
    compressing: bool,
) -> Result<(f64, u64), SimError> {
    let cb = env.chunk_bits;
    let chunk_bytes = 16u64 << cb;
    let (mut h2d_bytes, mut raw_up_compressed) = (0u64, 0u64);
    let mut ready = env.epoch_floor;
    for &m in members {
        if let Some(x) = env.last_d2h.get(m) {
            ready = ready.max(x);
        }
        // Pruning skips provably-zero members; otherwise all move.
        if pruning && env.tracker.chunk_is_zero(m, cb) {
            continue;
        }
        match (compressing, env.compressed.get(m)) {
            (true, Some(sz)) => {
                h2d_bytes += sz as u64;
                raw_up_compressed += chunk_bytes;
            }
            _ => h2d_bytes += chunk_bytes,
        }
    }
    super::admit_window(
        env,
        gpu,
        members.len(),
        compressing,
        chunk_bytes,
        &mut ready,
    );
    if let Some(rs) = env.resil.as_mut() {
        rs.seal_for_upload(&env.state, members.iter().copied(), cb, |m| {
            pruning && env.tracker.chunk_is_zero(m, cb)
        });
    }
    let h2d = transfer_with_integrity(
        env.tl,
        env.cfg,
        Dir::Up(gpu),
        ready,
        h2d_bytes,
        env.resil.as_mut(),
        env.rec,
    )?;
    Ok((h2d.end, raw_up_compressed))
}

/// Bytes that arrived compressed pay the decompress kernel before the
/// update can run. Returns when the update may start.
pub(crate) fn decompress(env: &mut Env, gpu: usize, ready: f64, raw_up_compressed: u64) -> f64 {
    if raw_up_compressed == 0 {
        return ready;
    }
    let gspec = env.cfg.platform.gpu(gpu);
    let d = env.tl.schedule(
        Engine::GpuCompute(gpu),
        ready,
        raw_up_compressed as f64 / gspec.codec_bw(env.codec_class),
        TaskKind::Decompress,
        raw_up_compressed,
    );
    d.end
}

/// One modeled update kernel over `bytes` resident on `gpu`, stretched
/// by the injected stage slowdown and the device's straggler factor.
/// Returns the kernel's end and its service time (for
/// [`note_kernel_service`]).
pub(crate) fn modeled_kernel(
    env: &mut Env,
    gpu: usize,
    ready: f64,
    bytes: u64,
    fpa: f64,
    fused: bool,
) -> (f64, f64) {
    let stretch = env.resil.as_mut().map_or(1.0, |rs| {
        rs.kernel_stretch() * rs.inj.straggler_stretch(gpu)
    });
    let gspec = env.cfg.platform.gpu(gpu);
    let kernel_s = (bytes as f64 / gspec.update_bw() + gspec.kernel_launch) * stretch;
    let kernel = env.tl.schedule(
        Engine::GpuCompute(gpu),
        ready,
        kernel_s,
        TaskKind::Kernel,
        bytes,
    );
    env.tl.add_flops((bytes as f64 / 16.0) * fpa);
    if fused {
        env.tl.count(Counter::FusedKernels, 1);
    }
    (kernel.end, kernel_s)
}

/// Feeds the orchestrator's pace estimate one round trip's pure kernel
/// service time: queueing and codec spans would let backlog leak into it.
pub(crate) fn note_kernel_service(env: &mut Env, gpu: usize, kernel_s: f64, bytes: u64) {
    if let Some(o) = env.orch.as_mut() {
        o.group.record_task(gpu, kernel_s, bytes);
    }
}

/// A task's download bytes, read back from the sizing pass (`cursor`
/// walks [`Env::new_sizes`] in the order [`size_members`] wrote it), and
/// the modeled compress kernel. Returns when the D2H copy may start and
/// its byte count.
pub(crate) fn compress_and_size_download(
    env: &mut Env,
    g: &GateCtx,
    gpu: usize,
    members: &[usize],
    kernel_end: f64,
    cursor: &mut usize,
) -> (f64, u64) {
    let chunk_bytes = 16u64 << env.chunk_bits;
    let (mut d2h_bytes, mut raw_down_compressed) = (0u64, 0u64);
    for &m in members {
        if g.pruning && g.tracker_after.chunk_is_zero(m, env.chunk_bits) {
            env.compressed.remove(m);
            continue;
        }
        if !g.compressing {
            d2h_bytes += chunk_bytes;
            continue;
        }
        let sz = env.new_sizes[*cursor];
        *cursor += 1;
        if sz == RAW_FALLBACK {
            // Encode failed for this member: raw download, no compress
            // kernel time, nothing cached as compressed.
            env.compressed.remove(m);
            d2h_bytes += chunk_bytes;
        } else {
            env.tl.count(Counter::BytesBeforeCompress, chunk_bytes);
            env.tl.count(Counter::BytesAfterCompress, sz as u64);
            env.compressed.insert(m, sz);
            d2h_bytes += sz as u64;
            raw_down_compressed += chunk_bytes;
        }
    }
    if raw_down_compressed == 0 {
        return (kernel_end, d2h_bytes);
    }
    let gspec = env.cfg.platform.gpu(gpu);
    let cspan = env.tl.schedule(
        Engine::GpuCompute(gpu),
        kernel_end,
        raw_down_compressed as f64 / gspec.codec_bw(env.codec_class),
        TaskKind::Compress,
        raw_down_compressed,
    );
    (cspan.end, d2h_bytes)
}

/// A task's download: arrival integrity re-tags for the members that
/// moved raw, then [`d2h_tail`]. `sizes_at` is where the task's entries
/// start in [`Env::new_sizes`].
pub(crate) fn download(
    env: &mut Env,
    g: &GateCtx,
    gpu: usize,
    members: &[usize],
    d2h_ready: f64,
    d2h_bytes: u64,
    sizes_at: usize,
) -> Result<(), SimError> {
    let cb = env.chunk_bits;
    let pruned = |m| g.pruning && g.tracker_after.chunk_is_zero(m, cb);
    // A fully-pruned task (`d2h_bytes == 0`) and a fully-sealed
    // compressed task skip the pass entirely.
    if d2h_bytes > 0 {
        if let Some(rs) = env.resil.as_mut() {
            if !g.compressing {
                rs.verify_on_arrival(&env.state, members.iter().copied(), cb, pruned);
            } else if g.raw_members > 0 {
                // Compressed members were sealed at encode time; only
                // raw codec-failure fallbacks need an arrival pass. The
                // task's sizes follow its moving members in order.
                let mut sizes = env.new_sizes[sizes_at..].iter();
                rs.verify_on_arrival(&env.state, members.iter().copied(), cb, |m| {
                    pruned(m) || sizes.next() != Some(&RAW_FALLBACK)
                });
            }
        }
    }
    d2h_tail(env, gpu, members, d2h_ready, d2h_bytes)
}

/// The modeled D2H copy and the accounting that feeds the next task's
/// admission: the members' last-download times, and the window slot
/// (or, without overlap, the single-stream chain).
pub(crate) fn d2h_tail(
    env: &mut Env,
    gpu: usize,
    members: &[usize],
    d2h_ready: f64,
    d2h_bytes: u64,
) -> Result<(), SimError> {
    let d2h = transfer_with_integrity(
        env.tl,
        env.cfg,
        Dir::Down(gpu),
        d2h_ready,
        d2h_bytes,
        env.resil.as_mut(),
        env.rec,
    )?;
    for &m in members {
        env.last_d2h.insert(m, d2h.end);
    }
    if env.spec.flags.overlap {
        env.windows[gpu].slots.push_back((d2h.end, members.len()));
        env.windows[gpu].inflight += members.len();
    } else {
        env.chain = d2h.end;
    }
    Ok(())
}

/// Without the overlap flag, a full synchronization after every gate
/// (Naive's behavior).
pub(crate) fn gate_sync(env: &mut Env) {
    if !env.spec.flags.overlap {
        let s = env.tl.schedule(
            Engine::Host,
            env.chain,
            env.cfg.platform.host.sync_latency,
            TaskKind::Sync,
            0,
        );
        env.chain = s.end;
    }
}

/// After the last task: window occupancy, sampled once per gate per
/// device, and the per-gate sync.
pub(crate) fn end_of_gate(env: &mut Env) {
    if env.spec.flags.overlap {
        if let Some(r) = env.rec {
            for w in &env.windows {
                r.observe("window.inflight", w.inflight as u64);
            }
        }
    }
    gate_sync(env);
}
