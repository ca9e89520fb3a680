//! The per-chunk stage graph: the [`Stage`] trait and the compute-side
//! stages (Plan, Prune, Deal, Kernel, Sync). The transfer-side stages
//! (Fetch, Decompress, Compress, Writeback) live in
//! [`super::xfer_stages`].
//!
//! Stage bodies consult only [`super::Env::spec`]'s flags — never the
//! configured version — so any flag subset composes.

use qgpu_device::timeline::{Engine, TaskKind};
use qgpu_faults::SimError;
use qgpu_sched::plan::GatePlan;

use crate::engine::flops_per_amp;

use super::xfer_stages::{CompressStage, DecompressStage, FetchStage, WritebackStage};
use super::{Env, GateCtx, TaskCtx};

/// One stage of the per-chunk pipeline. Hooks default to no-ops; each
/// stage overrides the granularities it acts at.
pub(crate) trait Stage {
    /// Gate-level work, before any task runs.
    fn begin_gate(&self, _g: &mut GateCtx, _env: &mut Env) -> Result<(), SimError> {
        Ok(())
    }

    /// Per live chunk task, in plan order (only called on the
    /// [`PER_TASK`] stages).
    fn on_task(&self, _t: &mut TaskCtx, _g: &mut GateCtx, _env: &mut Env) -> Result<(), SimError> {
        Ok(())
    }

    /// Gate-level work, after the last task.
    fn end_gate(&self, _g: &mut GateCtx, _env: &mut Env) -> Result<(), SimError> {
        Ok(())
    }
}

/// The streaming pipeline's stage list, in execution order. The hook
/// pass structure (all `begin_gate`s, then per task all `on_task`s,
/// then all `end_gate`s) reproduces the modeled schedule of the
/// original monolithic loop statement for statement.
pub(crate) fn stage_list() -> Vec<Box<dyn Stage>> {
    vec![
        Box::new(PlanStage),
        Box::new(PruneStage),
        Box::new(DealStage),
        Box::new(FetchStage),
        Box::new(DecompressStage),
        Box::new(KernelStage),
        Box::new(CompressStage),
        Box::new(WritebackStage),
        Box::new(SyncStage),
    ]
}

/// [`stage_list`] indices of the stages that act per task (Deal through
/// Writeback); Plan, Prune and Sync only have gate-level hooks, and the
/// task loop does not call them.
pub(crate) const PER_TASK: std::ops::Range<usize> = 2..8;

/// Plan: the gate's chunk plan, flops density, and post-op involvement.
pub(crate) struct PlanStage;

impl Stage for PlanStage {
    fn begin_gate(&self, g: &mut GateCtx, env: &mut Env) -> Result<(), SimError> {
        let action = g.fop.collapsed();
        g.plan = Some(GatePlan::new_observed(
            action,
            env.chunk_bits,
            g.num_chunks,
            env.rec,
        ));
        g.fpa = flops_per_amp(action);
        g.tracker_after.involve_mask(g.fop.qubit_mask());
        Ok(())
    }
}

/// Prune: drop tasks whose chunks are provably zero under the
/// involvement mask (paper §IV-B), unless an injected mask corruption
/// forces full-chunk execution for this op.
pub(crate) struct PruneStage;

impl Stage for PruneStage {
    fn begin_gate(&self, g: &mut GateCtx, env: &mut Env) -> Result<(), SimError> {
        // A corrupted involvement mask (decided once per op) means no
        // chunk is provably zero: fall back to full-chunk execution.
        let prune_ok = match &env.resil {
            Some(rs) if env.spec.flags.pruning && rs.mask_corrupt(g.idx) => {
                env.tl.count_prune_fallback();
                if let Some(r) = env.rec {
                    r.add("prune.fallbacks", 1);
                    r.flight("prune_fallback", || {
                        format!(
                            "op {}: corrupt involvement mask, full-chunk execution",
                            g.idx
                        )
                    });
                }
                false
            }
            _ => true,
        };
        g.pruning = env.spec.flags.pruning && prune_ok;

        let plan = g.plan.as_ref().expect("Plan stage ran");
        let tasks = if g.pruning {
            plan.live_task_indices(&env.tracker)
        } else {
            plan.tasks()
        };
        let (kept_chunks, total) = (tasks.len() * plan.group_len(), plan.total_chunks());
        g.tasks = tasks;
        env.tl.count_pruned((total - kept_chunks) as u64);
        env.tl.count_processed(kept_chunks as u64);
        if let Some(r) = env.rec {
            r.add("chunks.pruned", (total - kept_chunks) as u64);
            r.add("chunks.processed", kept_chunks as u64);
            r.observe_n("chunk.bytes", g.chunk_bytes, kept_chunks as u64);
        }
        Ok(())
    }
}

/// Deal: assign the task to a device (orchestrated group or plain
/// round-robin, paper §V-E).
pub(crate) struct DealStage;

impl Stage for DealStage {
    fn on_task(&self, t: &mut TaskCtx, _g: &mut GateCtx, env: &mut Env) -> Result<(), SimError> {
        t.gpu = super::deal_gpu(env);
        Ok(())
    }
}

/// Kernel: the functional update (gate level, before any modeled task —
/// surviving tasks touch disjoint chunks, so applying them all up front
/// leaves every per-chunk compressed size identical to updating inside
/// the task loop) and the modeled per-task update kernel.
pub(crate) struct KernelStage;

impl Stage for KernelStage {
    fn begin_gate(&self, g: &mut GateCtx, env: &mut Env) -> Result<(), SimError> {
        let plan = g.plan();
        // `g.idx` is the loop's post-increment index; the op itself is
        // one back.
        let op_idx = g.idx.saturating_sub(1);
        super::integrity::apply_tasks(
            &mut env.integ,
            &mut env.executor,
            &mut env.state,
            &mut env.tl,
            env.rec,
            g.fop,
            op_idx,
            plan,
            g.tasks,
        )?;
        // Zero-block invariant over the chunks the prune stage skipped.
        // Zero (unallocated) chunks trivially satisfy it, so the sweep
        // hands the checker only the dense pruned chunks — the ones
        // that could actually hold stray amplitude.
        if g.pruning {
            if let Some(imw) = env.integ.as_mut() {
                if imw.zero_sweep_due() {
                    // A task was pruned iff its representative (its
                    // lowest member) is provably zero.
                    let (state, tracker, cb) = (&env.state, &env.tracker, env.chunk_bits);
                    let pruned = plan
                        .tasks()
                        .filter(|&rep| tracker.chunk_is_zero(rep, cb))
                        .flat_map(|rep| plan.members(rep))
                        .filter(|&c| !state.is_zero_chunk(c));
                    imw.check_zero_blocks(state, pruned, op_idx, env.rec)?;
                }
            }
        }
        Ok(())
    }

    fn on_task(&self, t: &mut TaskCtx, g: &mut GateCtx, env: &mut Env) -> Result<(), SimError> {
        let task_bytes = g.plan().group_len() as u64 * g.chunk_bytes;
        let stretch = super::kernel_stretch(env, t.gpu);
        let gspec = env.cfg.platform.gpu(t.gpu);
        let kernel_s = (task_bytes as f64 / gspec.update_bw() + gspec.kernel_launch) * stretch;
        let kernel = env.tl.schedule(
            Engine::GpuCompute(t.gpu),
            t.compute_ready,
            kernel_s,
            TaskKind::Kernel,
            task_bytes,
        );
        env.tl.add_flops((task_bytes as f64 / 16.0) * g.fpa);
        if g.fop.is_fused() {
            env.tl.count_fused_kernel();
        }
        if let Some(o) = env.orch.as_mut() {
            // Pure kernel service time: queueing and codec spans
            // would let backlog leak into the pace estimate.
            o.group.record_task(t.gpu, kernel_s, task_bytes);
        }
        t.d2h_ready = kernel.end;
        Ok(())
    }
}

/// Sync: without the overlap flag, a full synchronization after every
/// gate (Naive's behavior).
pub(crate) struct SyncStage;

impl Stage for SyncStage {
    fn end_gate(&self, _g: &mut GateCtx, env: &mut Env) -> Result<(), SimError> {
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
        Ok(())
    }
}
