//! The gate-batching extension: a run of chunk-local ops shares a single
//! chunk round trip. Batching is a *pipeline shape* change (one upload /
//! many kernels / one download per chunk), so it has its own driver —
//! but the round trip is the same [`steps::Round`] steps and
//! [`steps::Fetch`] rules `stream_gate` runs, so every flag subset and
//! fault site composes identically. Its own: batch formation, the per-op
//! control masks, the kernel loop, and an inline per-chunk encode (whose
//! injector draws interleave with the transfers', unlike the per-gate
//! sizing pass).

use qgpu_circuit::access::GateAction;
use qgpu_circuit::fuse::{FusedOp, ProgramOp};
use qgpu_device::Counter;
use qgpu_faults::SimError;
use qgpu_obs::{span_opt, Stage as ObsStage, Track};
use qgpu_sched::plan::Tasks;
use qgpu_sched::InvolvementTracker;

use crate::engine::flops_per_amp;

use super::obs_mw::ObsMw;
use super::steps::{self, Fetch};
use super::{Env, Held, RAW_FALLBACK};

/// Longest run of chunk-local gates merged into one chunk visit.
///
/// This bounds the *involvement-staleness* of the pruning decision: a
/// batch evaluates prune-or-keep once, against the involvement mask
/// snapshotted at its first gate, so a chunk's zero/non-zero status can
/// be up to `MAX_BATCH - 1` gates stale by the batch's end. That is
/// conservative, never wrong — chunk-local gates cannot move amplitude
/// across chunk boundaries, so a chunk provably zero before the batch
/// stays zero through it — but a larger cap defers pruning of chunks
/// that *become* provably zero mid-batch, trading missed prune
/// opportunities for fewer H2D/D2H round trips.
pub(crate) const MAX_BATCH: usize = 64;

/// Runs the batch beginning at `idx` (whose op is already known to be
/// chunk-local) and returns the index of the first op after it: at most
/// [`MAX_BATCH`] ops, pruned once per batch.
pub(crate) fn run_batch(
    env: &mut Env,
    mw: &mut ObsMw,
    program: &[ProgramOp],
    mut idx: usize,
    compressing: bool,
) -> Result<usize, SimError> {
    let pruning = steps::prune_allowed(env, idx);
    let cb = env.chunk_bits;
    let is_local = |a: &GateAction| a.mixing_qubits().iter().all(|&q| (q as u32) < cb);

    let first = program[idx]
        .unitary()
        .expect("run_batch starts on a unitary op");
    // Program index of `batch[0]`; batch ops are consecutive, so
    // `batch[i]` is op `base_idx + i` (the integrity checks key their
    // injection draws and violation reports on it).
    let base_idx = idx;
    let mut batch: Vec<&FusedOp> = vec![first];
    idx += 1;
    while idx < program.len() && batch.len() < MAX_BATCH {
        // Measurements and resets end the batch: collapse must see every
        // preceding kernel's amplitudes landed.
        let Some(next) = program[idx].unitary() else {
            break;
        };
        if !is_local(next.collapsed()) {
            break;
        }
        batch.push(next);
        idx += 1;
    }
    // Involvement after the whole batch decides what moves back; a chunk
    // provably zero *before* the batch stays zero through it (local gates
    // cannot move amplitude across chunks).
    let mut tracker_end = env.tracker;
    for f in &batch {
        tracker_end.involve_mask(f.qubit_mask());
    }
    // Chunk-index bits each op requires set (high controls).
    let control_masks: Vec<usize> = batch
        .iter()
        .map(|f| {
            f.collapsed()
                .control_qubits()
                .iter()
                .filter(|&&c| (c as u32) >= cb)
                .map(|&c| 1usize << (c as u32 - cb))
                .sum()
        })
        .collect();

    let num_chunks = 1usize << (env.num_qubits as u32 - cb);
    for chunk in 0..num_chunks {
        if pruning && env.tracker.chunk_is_zero(chunk, cb) {
            env.tl.count(Counter::ChunksPruned, batch.len() as u64);
            if let Some(imw) = env.integ.as_mut() {
                // Zero (unallocated) chunks trivially hold no amplitude.
                if !env.state.is_zero_chunk(chunk) {
                    imw.check_zero_blocks(&env.state, std::iter::once(chunk), base_idx, env.rec)?;
                }
            }
            continue;
        }
        let applicable: Vec<usize> = (0..batch.len())
            .filter(|&i| chunk & control_masks[i] == control_masks[i])
            .collect();
        if applicable.is_empty() {
            continue;
        }
        let ops = applicable.iter().map(|&i| (batch[i], base_idx + i));
        let gpu = batch_chunk(env, chunk, ops, &tracker_end, pruning, compressing)?;
        mw.task_done(gpu);
    }
    steps::gate_sync(env);
    env.tracker = tracker_end;
    Ok(idx)
}

/// One chunk's round trip through the batch: upload once, one kernel per
/// applicable op (with its program index), download once. Returns the
/// device it ran on.
fn batch_chunk<'f>(
    env: &mut Env,
    chunk: usize,
    ops: impl ExactSizeIterator<Item = (&'f FusedOp, usize)>,
    tracker_end: &InvolvementTracker,
    pruning: bool,
    compressing: bool,
) -> Result<usize, SimError> {
    let cb = env.chunk_bits;
    let held = env.held.get(chunk);
    let (d2h_end, cached) = held.map_or((0.0, None), |h| (h.d2h_end, h.compressed));
    let mut trip = steps::Trip::new(env.epoch_floor.max(d2h_end));
    let trackers = [&env.tracker, tracker_end];
    let mut f = Fetch::new(
        &env.state,
        env.resil.as_mut(),
        trackers,
        pruning,
        compressing,
        cb,
    );
    f.up(chunk, cached, &mut trip);
    let (gpu, mut ready) = {
        let mut round = steps::Round::new(env, 1, compressing);
        let gpu = round.deal();
        (gpu, round.upload(gpu, &trip)?)
    };
    env.tl.count(Counter::ChunksProcessed, ops.len() as u64);
    // One kernel per applicable op over the resident chunk.
    let mut kernel_service = 0.0f64;
    {
        let _g = span_opt(env.rec, Track::Main, ObsStage::Update, "update.batch");
        for (op, op_idx) in ops {
            let mut round = steps::Round::new(env, 1, compressing);
            let flops = (round.bytes as f64 / 16.0) * flops_per_amp(op.collapsed());
            let (end, kernel_s) = round.kernel(gpu, ready, flops, op.is_fused());
            kernel_service += kernel_s;
            ready = end;
            drop(round);
            super::integrity::apply_tasks(env, op, op_idx, Tasks::one(chunk), &[])?;
        }
    }
    if let Some(r) = env.rec {
        r.observe("chunk.bytes", 16u64 << cb);
    }
    steps::Round::new(env, 1, compressing).note_service(gpu, kernel_service);
    let size = batch_size(env, chunk, tracker_end, pruning, compressing);
    let trackers = [&env.tracker, tracker_end];
    let mut f = Fetch::new(
        &env.state,
        env.resil.as_mut(),
        trackers,
        pruning,
        compressing,
        cb,
    );
    let compressed = f.down(chunk, cached, size, &mut trip);
    f.count(env.tl);
    let d2h_end = steps::Round::new(env, 1, compressing).download(gpu, ready, &trip)?;
    env.held.insert(
        chunk,
        Held {
            d2h_end,
            compressed,
        },
    );
    Ok(gpu)
}

/// The batch's inline encode: the chunk's codec size after its last
/// kernel ([`RAW_FALLBACK`] on an injected failure), for a chunk that
/// moves back compressed — unread otherwise.
fn batch_size(
    env: &mut Env,
    chunk: usize,
    tracker_end: &InvolvementTracker,
    pruning: bool,
    compressing: bool,
) -> u32 {
    if !compressing || (pruning && tracker_end.chunk_is_zero(chunk, env.chunk_bits)) {
        return RAW_FALLBACK;
    }
    let mut size = [0];
    {
        let _g = span_opt(
            env.rec,
            Track::Main,
            ObsStage::Compress,
            env.codec.kind().compress_span(),
        );
        steps::size_into(env, std::iter::once((0, chunk)), &mut size);
    }
    if let (Some(r), false) = (env.rec, size[0] == RAW_FALLBACK) {
        let ratio = super::transfer::ratio_x100(16u64 << env.chunk_bits, size[0]);
        r.observe("compress.ratio.x100", ratio);
    }
    size[0]
}
