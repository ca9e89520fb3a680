//! The gate-batching extension: a run of chunk-local ops shares a single
//! chunk round trip. Batching is a *pipeline shape* change (one upload /
//! many kernels / one download per chunk), so it has its own driver —
//! but the round trip is the same [`super::steps`] `stream_gate` calls,
//! so every flag subset and fault site composes identically. Its own:
//! batch formation, the per-op control masks, the kernel loop, and an
//! inline per-chunk encode (whose injector draws interleave with the
//! transfers', unlike the per-gate sizing pass).

use qgpu_circuit::access::GateAction;
use qgpu_circuit::fuse::{FusedOp, ProgramOp};
use qgpu_device::timeline::{Engine, TaskKind};
use qgpu_device::Counter;
use qgpu_faults::SimError;
use qgpu_obs::{span_opt, Stage as ObsStage, Track};
use qgpu_sched::InvolvementTracker;

use crate::engine::flops_per_amp;

use super::middleware::{self, Resilience, Touched};
use super::{steps, Env};

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
        batch_chunk(
            env,
            chunk,
            &batch,
            base_idx,
            &applicable,
            &tracker_end,
            pruning,
            compressing,
        )?;
    }
    steps::gate_sync(env);
    env.tracker = tracker_end;
    Ok(idx)
}

/// One chunk's round trip through the batch: upload once, one kernel per
/// applicable op, download once.
#[allow(clippy::too_many_arguments)]
fn batch_chunk(
    env: &mut Env,
    chunk: usize,
    batch: &[&FusedOp],
    base_idx: usize,
    applicable: &[usize],
    tracker_end: &InvolvementTracker,
    pruning: bool,
    compressing: bool,
) -> Result<(), SimError> {
    let chunk_bytes = 16u64 << env.chunk_bits;
    let gpu = super::deal_gpu(env);
    let (h2d_end, raw_up) = steps::upload(env, gpu, &[chunk], pruning, compressing)?;
    let mut compute_ready = steps::decompress(env, gpu, h2d_end, raw_up);
    // One kernel per applicable op over the resident chunk.
    let mut kernel_service = 0.0f64;
    {
        let _g = span_opt(env.rec, Track::Main, ObsStage::Update, "update.batch");
        for &i in applicable {
            let fpa = flops_per_amp(batch[i].collapsed());
            let (end, kernel_s) = steps::modeled_kernel(
                env,
                gpu,
                compute_ready,
                chunk_bytes,
                fpa,
                batch[i].is_fused(),
            );
            kernel_service += kernel_s;
            compute_ready = end;
            if let Some(imw) = env.integ.as_mut() {
                let w = Touched {
                    singles: &[chunk],
                    groups: &[],
                    high_mixing: &[],
                };
                let (ex, st, tl) = (&mut env.executor, &mut env.state, &mut *env.tl);
                imw.checked_apply(ex, st, tl, env.rec, batch[i], base_idx + i, w)?;
            } else {
                let restarts = env.executor.try_apply_local_run(
                    &mut env.state,
                    batch[i].actions(),
                    &[chunk],
                )?;
                middleware::note_restarts(env.tl, env.rec, restarts);
            }
        }
    }
    env.tl
        .count(Counter::ChunksProcessed, applicable.len() as u64);
    if let Some(r) = env.rec {
        r.observe("chunk.bytes", chunk_bytes);
    }
    steps::note_kernel_service(env, gpu, kernel_service, chunk_bytes);
    batch_download(
        env,
        chunk,
        gpu,
        compute_ready,
        tracker_end,
        pruning,
        compressing,
    )
}

/// The batch's single download: pruned-to-zero chunks don't move,
/// compressed chunks pay the encode pass and compress kernel, raw
/// fallbacks (and uncompressed subsets) pay the arrival re-tag.
fn batch_download(
    env: &mut Env,
    chunk: usize,
    gpu: usize,
    compute_ready: f64,
    tracker_end: &InvolvementTracker,
    pruning: bool,
    compressing: bool,
) -> Result<(), SimError> {
    let cb = env.chunk_bits;
    let chunk_bytes = 16u64 << cb;
    let gspec = env.cfg.platform.gpu(gpu);
    let mut d2h_ready = compute_ready;
    let mut d2h_bytes = 0u64;
    let mut sealed_at_encode = false;
    if pruning && tracker_end.chunk_is_zero(chunk, cb) {
        env.compressed.remove(chunk);
    } else if compressing {
        // Injected encode failure: degrade to a raw transfer for this
        // chunk (no compress kernel, full bytes).
        if env.resil.as_mut().is_some_and(Resilience::codec_fails) {
            steps::note_codec_fallback(env, chunk);
            env.compressed.remove(chunk);
            d2h_bytes = chunk_bytes;
        } else {
            let sz = {
                let _g = span_opt(
                    env.rec,
                    Track::Main,
                    ObsStage::Compress,
                    env.codec.kind().compress_span(),
                );
                super::encode_member(env, chunk)
            };
            if let Some(r) = env.rec {
                let ratio = super::transfer::ratio_x100(chunk_bytes, sz);
                r.observe("compress.ratio.x100", ratio);
            }
            sealed_at_encode = true;
            env.tl.count(Counter::BytesBeforeCompress, chunk_bytes);
            env.tl.count(Counter::BytesAfterCompress, sz as u64);
            env.compressed.insert(chunk, sz);
            d2h_bytes = sz as u64;
            let cspan = env.tl.schedule(
                Engine::GpuCompute(gpu),
                d2h_ready,
                chunk_bytes as f64 / gspec.codec_bw(env.codec_class),
                TaskKind::Compress,
                chunk_bytes,
            );
            d2h_ready = cspan.end;
        }
    } else {
        d2h_bytes = chunk_bytes;
    }
    // Only a chunk that actually crossed the link raw pays an arrival
    // re-tag; encode-sealed chunks carried their tag and a
    // pruned-to-zero chunk never moved at all.
    if let Some(rs) = env.resil.as_mut() {
        if !sealed_at_encode && d2h_bytes > 0 {
            rs.verify_on_arrival(&env.state, std::iter::once(chunk), cb, |_| false);
        }
    }
    steps::d2h_tail(env, gpu, &[chunk], d2h_ready, d2h_bytes)
}
