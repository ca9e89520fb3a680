//! The gate-batching extension: a run of chunk-local ops shares a single
//! chunk round trip. Batching is a *pipeline shape* change (one Fetch /
//! many Kernels / one Writeback per chunk), so it is driven here rather
//! than through the per-gate stage hooks — but it reuses the same
//! helpers ([`super::deal_gpu`], [`super::admit_window`],
//! [`super::encode_member`]) and middleware, so every flag subset and
//! fault site composes identically.

use qgpu_circuit::access::GateAction;
use qgpu_circuit::fuse::{FusedOp, ProgramOp};
use qgpu_device::timeline::{Engine, TaskKind};
use qgpu_faults::SimError;
use qgpu_obs::{span_opt, Stage as ObsStage, Track};
use qgpu_sched::InvolvementTracker;

use crate::engine::flops_per_amp;

use super::middleware::{self, Resilience, Touched};
use super::transfer::{transfer_with_integrity, Dir};
use super::Env;

/// Runs the batch beginning at `idx` (whose op is already known to be
/// chunk-local) and returns the index of the first op after it. The
/// batch length is bounded by [`crate::config::SimConfig::max_batch`],
/// which bounds involvement-staleness of the pruning decision — it is
/// evaluated once per batch.
pub(crate) fn run_batch(
    env: &mut Env,
    program: &[ProgramOp],
    mut idx: usize,
    compressing: bool,
) -> Result<usize, SimError> {
    // A corrupted involvement mask (decided once per batch) means no
    // chunk is provably zero: fall back to full-chunk execution.
    let prune_ok = match &env.resil {
        Some(rs) if env.spec.flags.pruning && rs.mask_corrupt(idx) => {
            env.tl.count_prune_fallback();
            if let Some(r) = env.rec {
                r.add("prune.fallbacks", 1);
                r.flight("prune_fallback", || {
                    format!("batch at op {idx}: corrupt involvement mask, full-chunk execution")
                });
            }
            false
        }
        _ => true,
    };
    let pruning = env.spec.flags.pruning && prune_ok;
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
    while idx < program.len() && batch.len() < env.cfg.max_batch {
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
            env.tl.count_pruned(batch.len() as u64);
            if let Some(r) = env.rec {
                r.add("chunks.pruned", batch.len() as u64);
            }
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
    let cfg = env.cfg;
    let cb = env.chunk_bits;
    let chunk_bytes = 16u64 << cb;
    let gpu = super::deal_gpu(env);
    let gspec = cfg.platform.gpu(gpu);

    // Upload once.
    let (h2d_bytes, raw_up_compressed) = match (compressing, env.compressed.get(chunk)) {
        (true, Some(sz)) => (sz as u64, chunk_bytes),
        _ => (chunk_bytes, 0),
    };
    let mut ready = env.epoch_floor;
    if let Some(t) = env.last_d2h.get(chunk) {
        ready = ready.max(t);
    }
    super::admit_window(env, gpu, 1, compressing, chunk_bytes, &mut ready);
    if let Some(rs) = env.resil.as_mut() {
        rs.seal_for_upload(&env.state, std::iter::once(chunk), cb, |_| false);
    }
    let h2d = transfer_with_integrity(
        &mut env.tl,
        cfg,
        Dir::Up(gpu),
        ready,
        h2d_bytes,
        env.resil.as_mut(),
        env.rec,
    )?;
    let mut compute_ready = h2d.end;
    if raw_up_compressed > 0 {
        let d = env.tl.schedule(
            Engine::GpuCompute(gpu),
            compute_ready,
            raw_up_compressed as f64 / gspec.codec_bw(env.codec_class),
            TaskKind::Decompress,
            raw_up_compressed,
        );
        compute_ready = d.end;
    }
    // One kernel per applicable op over the resident chunk.
    let mut kernel_service = 0.0f64;
    {
        let _g = span_opt(env.rec, Track::Main, ObsStage::Update, "update.batch");
        for &i in applicable {
            let stretch = super::kernel_stretch(env, gpu);
            let kernel_s = (chunk_bytes as f64 / gspec.update_bw() + gspec.kernel_launch) * stretch;
            let kernel = env.tl.schedule(
                Engine::GpuCompute(gpu),
                compute_ready,
                kernel_s,
                TaskKind::Kernel,
                chunk_bytes,
            );
            kernel_service += kernel_s;
            compute_ready = kernel.end;
            env.tl
                .add_flops((chunk_bytes as f64 / 16.0) * flops_per_amp(batch[i].collapsed()));
            if batch[i].is_fused() {
                env.tl.count_fused_kernel();
            }
            if let Some(imw) = env.integ.as_mut() {
                let w = Touched {
                    singles: &[chunk],
                    groups: &[],
                    high_mixing: &[],
                };
                let (ex, st, tl) = (&mut env.executor, &mut env.state, &mut env.tl);
                imw.checked_apply(ex, st, tl, env.rec, batch[i], base_idx + i, w)?;
            } else {
                let restarts = env.executor.try_apply_local_run(
                    &mut env.state,
                    batch[i].actions(),
                    &[chunk],
                )?;
                middleware::note_restarts(&mut env.tl, env.rec, restarts);
            }
        }
    }
    env.tl.count_processed(applicable.len() as u64);
    if let Some(r) = env.rec {
        r.add("chunks.processed", applicable.len() as u64);
        r.observe("chunk.bytes", chunk_bytes);
    }
    if let Some(o) = env.orch.as_mut() {
        // Pure kernel service time: queueing and codec spans would let
        // backlog leak into the pace estimate.
        o.group.record_task(gpu, kernel_service, chunk_bytes);
    }
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
#[allow(clippy::too_many_arguments)]
fn batch_download(
    env: &mut Env,
    chunk: usize,
    gpu: usize,
    compute_ready: f64,
    tracker_end: &InvolvementTracker,
    pruning: bool,
    compressing: bool,
) -> Result<(), SimError> {
    let cfg = env.cfg;
    let cb = env.chunk_bits;
    let chunk_bytes = 16u64 << cb;
    let gspec = cfg.platform.gpu(gpu);
    let mut d2h_ready = compute_ready;
    let mut d2h_bytes = 0u64;
    let mut sealed_at_encode = false;
    if pruning && tracker_end.chunk_is_zero(chunk, cb) {
        env.compressed.remove(chunk);
    } else if compressing {
        // Injected encode failure: degrade to a raw transfer for this
        // chunk (no compress kernel, full bytes).
        if env.resil.as_mut().is_some_and(Resilience::codec_fails) {
            env.tl.count_codec_fallback();
            if let Some(r) = env.rec {
                let cname = env.codec.kind().name();
                r.add("codec.fallbacks", 1);
                r.flight("codec_fallback", || {
                    format!("chunk {chunk}: {cname} encode failed, moving raw")
                });
            }
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
            env.tl.record_compression(chunk_bytes, sz as u64);
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
    let d2h = transfer_with_integrity(
        &mut env.tl,
        cfg,
        Dir::Down(gpu),
        d2h_ready,
        d2h_bytes,
        env.resil.as_mut(),
        env.rec,
    )?;
    env.last_d2h.insert(chunk, d2h.end);
    if env.spec.flags.overlap {
        env.windows[gpu].slots.push_back((d2h.end, 1));
        env.windows[gpu].inflight += 1;
    } else {
        env.chain = d2h.end;
    }
    Ok(())
}
