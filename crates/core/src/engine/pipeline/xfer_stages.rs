//! Transfer-side pipeline stages: Fetch (modeled H2D with admission
//! control), Decompress, Compress (real-codec sizing + the modeled
//! compress kernel), and Writeback (modeled D2H + window accounting).
//!
//! Like the compute-side stages these consult only the spec's flags;
//! integrity checking and fault injection arrive through the
//! [`super::middleware::Resilience`] middleware in [`super::Env`].

use qgpu_device::timeline::{Engine, TaskKind};
use qgpu_faults::SimError;
use qgpu_obs::{span_opt, Stage as ObsStage, Track};

use super::middleware::Resilience;
use super::stages::Stage;
use super::transfer::{transfer_with_integrity, Dir};
use super::{Env, GateCtx, TaskCtx, RAW_FALLBACK};

/// Fetch: compute the task's upload bytes (pruned members don't move;
/// cached compressed representations move small), drain the
/// double-buffer window until the task fits, seal departing integrity
/// tags, and schedule the H2D copy.
pub(crate) struct FetchStage;

impl Stage for FetchStage {
    fn on_task(&self, t: &mut TaskCtx, g: &mut GateCtx, env: &mut Env) -> Result<(), SimError> {
        let members = g.plan().members(t.rep);
        // Pruning skips provably-zero members; otherwise all move.
        for m in members.clone() {
            if g.pruning && env.tracker.chunk_is_zero(m, env.chunk_bits) {
                continue;
            }
            match (g.compressing, env.compressed.get(m)) {
                (true, Some(sz)) => {
                    t.h2d_bytes += sz as u64;
                    t.raw_up_compressed += g.chunk_bytes;
                }
                _ => t.h2d_bytes += g.chunk_bytes,
            }
        }
        let mut ready = env.epoch_floor;
        for m in members.clone() {
            if let Some(x) = env.last_d2h.get(m) {
                ready = ready.max(x);
            }
        }
        super::admit_window(
            env,
            t.gpu,
            members.len(),
            g.compressing,
            g.chunk_bytes,
            &mut ready,
        );
        let cb = env.chunk_bits;
        let pruning = g.pruning;
        if let Some(rs) = env.resil.as_mut() {
            rs.seal_for_upload(&env.state, members, cb, |m| {
                pruning && env.tracker.chunk_is_zero(m, cb)
            });
        }
        let h2d = transfer_with_integrity(
            &mut env.tl,
            env.cfg,
            Dir::Up(t.gpu),
            ready,
            t.h2d_bytes,
            env.resil.as_mut(),
            env.rec,
        )?;
        t.compute_ready = h2d.end;
        Ok(())
    }
}

/// Decompress: bytes that arrived compressed pay the decompress kernel
/// before the update can run.
pub(crate) struct DecompressStage;

impl Stage for DecompressStage {
    fn on_task(&self, t: &mut TaskCtx, _g: &mut GateCtx, env: &mut Env) -> Result<(), SimError> {
        if t.raw_up_compressed > 0 {
            let gspec = env.cfg.platform.gpu(t.gpu);
            let d = env.tl.schedule(
                Engine::GpuCompute(t.gpu),
                t.compute_ready,
                t.raw_up_compressed as f64 / gspec.codec_bw(env.codec_class),
                TaskKind::Decompress,
                t.raw_up_compressed,
            );
            t.compute_ready = d.end;
        }
        Ok(())
    }
}

/// Compress: at gate level, the real-codec sizing pass for every member
/// moving back (one pass, so the measured Compress span has per-gate —
/// not per-chunk — granularity; tasks touch disjoint chunks, so the
/// sizes are identical to compressing inside the task loop). Per task,
/// the download byte count and the modeled compress kernel.
pub(crate) struct CompressStage;

impl Stage for CompressStage {
    fn begin_gate(&self, g: &mut GateCtx, env: &mut Env) -> Result<(), SimError> {
        if !g.compressing {
            return Ok(());
        }
        let _sp = span_opt(
            env.rec,
            Track::Main,
            ObsStage::Compress,
            env.codec.kind().compress_span(),
        );
        env.new_sizes.clear();
        let plan = g.plan.as_ref().expect("Plan stage ran");
        for m in g.tasks.flat_map(|rep| plan.members(rep)) {
            if g.pruning && g.tracker_after.chunk_is_zero(m, env.chunk_bits) {
                continue;
            }
            // Injected encode failure: mark the member for a raw
            // (uncompressed) download fallback.
            if env.resil.as_mut().is_some_and(Resilience::codec_fails) {
                env.tl.count_codec_fallback();
                if let Some(r) = env.rec {
                    let cname = env.codec.kind().name();
                    r.add("codec.fallbacks", 1);
                    r.flight("codec_fallback", || {
                        format!("chunk {m}: {cname} encode failed, moving raw")
                    });
                }
                env.new_sizes.push(RAW_FALLBACK);
                g.raw_members += 1;
                continue;
            }
            let sz = super::encode_member(env, m);
            env.new_sizes.push(sz);
        }
        if let Some(r) = env.rec {
            let sized = env.new_sizes.iter().filter(|&&sz| sz != RAW_FALLBACK);
            let ratios = sized.map(|&sz| super::transfer::ratio_x100(g.chunk_bytes, sz));
            r.observe_all("compress.ratio.x100", ratios);
        }
        Ok(())
    }

    fn on_task(&self, t: &mut TaskCtx, g: &mut GateCtx, env: &mut Env) -> Result<(), SimError> {
        t.sizes_at = g.sizes_cursor;
        let plan = g.plan.as_ref().expect("Plan stage ran");
        for m in plan.members(t.rep) {
            if g.pruning && g.tracker_after.chunk_is_zero(m, env.chunk_bits) {
                env.compressed.remove(m);
                continue;
            }
            if g.compressing {
                // The sizing pass visited the same members in this order.
                let sz = env.new_sizes[g.sizes_cursor];
                g.sizes_cursor += 1;
                if sz == RAW_FALLBACK {
                    // Encode failed for this member: raw download, no
                    // compress kernel time, nothing cached as compressed.
                    env.compressed.remove(m);
                    t.d2h_bytes += g.chunk_bytes;
                } else {
                    env.tl.record_compression(g.chunk_bytes, sz as u64);
                    env.compressed.insert(m, sz);
                    t.d2h_bytes += sz as u64;
                    t.raw_down_compressed += g.chunk_bytes;
                }
            } else {
                t.d2h_bytes += g.chunk_bytes;
            }
        }
        if t.raw_down_compressed > 0 {
            let gspec = env.cfg.platform.gpu(t.gpu);
            let cspan = env.tl.schedule(
                Engine::GpuCompute(t.gpu),
                t.d2h_ready,
                t.raw_down_compressed as f64 / gspec.codec_bw(env.codec_class),
                TaskKind::Compress,
                t.raw_down_compressed,
            );
            t.d2h_ready = cspan.end;
        }
        Ok(())
    }
}

/// Writeback: arrival integrity re-tags for members that moved raw, the
/// modeled D2H copy, and the window/chain accounting that feeds the next
/// task's admission.
pub(crate) struct WritebackStage;

impl Stage for WritebackStage {
    fn on_task(&self, t: &mut TaskCtx, g: &mut GateCtx, env: &mut Env) -> Result<(), SimError> {
        let members = g.plan().members(t.rep);
        let cb = env.chunk_bits;
        let pruning = g.pruning;
        // Arrival re-tags are paid only for members that moved raw:
        // a fully-pruned task (`d2h_bytes == 0`) and a fully-sealed
        // compressed task skip the pass entirely.
        if t.d2h_bytes > 0 {
            let ta = &g.tracker_after;
            if !g.compressing {
                if let Some(rs) = env.resil.as_mut() {
                    rs.verify_on_arrival(&env.state, members.clone(), cb, |m| {
                        pruning && ta.chunk_is_zero(m, cb)
                    });
                }
            } else if g.raw_members > 0 {
                // Compressed members were sealed at encode time; only
                // raw codec-failure fallbacks need an arrival pass. The
                // task's sizes follow its moving members in order.
                let mut sizes = env.new_sizes[t.sizes_at..].iter();
                if let Some(rs) = env.resil.as_mut() {
                    rs.verify_on_arrival(&env.state, members.clone(), cb, |m| {
                        (pruning && ta.chunk_is_zero(m, cb)) || sizes.next() != Some(&RAW_FALLBACK)
                    });
                }
            }
        }
        let d2h = transfer_with_integrity(
            &mut env.tl,
            env.cfg,
            Dir::Down(t.gpu),
            t.d2h_ready,
            t.d2h_bytes,
            env.resil.as_mut(),
            env.rec,
        )?;
        let incoming = members.len();
        for m in members {
            env.last_d2h.insert(m, d2h.end);
        }
        if env.spec.flags.overlap {
            env.windows[t.gpu].slots.push_back((d2h.end, incoming));
            env.windows[t.gpu].inflight += incoming;
        } else {
            env.chain = d2h.end;
        }
        Ok(())
    }

    fn end_gate(&self, _g: &mut GateCtx, env: &mut Env) -> Result<(), SimError> {
        // Window occupancy, sampled once per gate per device.
        if env.spec.flags.overlap {
            if let Some(r) = env.rec {
                for w in &env.windows {
                    r.observe("window.inflight", w.inflight as u64);
                }
            }
        }
        Ok(())
    }
}
