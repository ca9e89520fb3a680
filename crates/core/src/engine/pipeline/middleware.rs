//! Cross-cutting pipeline middleware: concerns that wrap the stage
//! graph rather than living inside any one stage.
//!
//! * [`Resilience`] — seeded fault injection, CRC integrity tags, and
//!   deterministic occurrence counters;
//! * [`Orchestration`] — the device group that deals tasks and the
//!   memory-pressure governor's degradation ladder;
//! * [`BarrierClock`] — checkpoint barriers and device-loss draws;
//! * [`CheckpointLayer`] — periodic state checkpoints and the injected
//!   fatal fault, in resume-safe order;
//! * [`lose_device`] — a device leaves the group, and the mode models
//!   its recovery;
//! * [`apply_functional`] — the bit-exact functional update shared by
//!   every execution mode.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use qgpu_circuit::fuse::FusedOp;
use qgpu_device::timeline::{Engine, Lanes, TaskKind, Timeline};
use qgpu_device::Counter;
use qgpu_faults::{FaultInjector, FaultSite, SimError};
use qgpu_math::Complex64;
use qgpu_obs::{span_opt, Recorder, Stage as ObsStage, Track};
use qgpu_sched::devicegroup::{
    DeviceGroup, OrchestratorConfig, PressureAction, PressureGovernor, ReplayTask, BARRIER_INTERVAL,
};
use qgpu_sched::plan::Tasks;
use qgpu_sched::residency::ChunkTable;
use qgpu_statevec::executor::Sink;
use qgpu_statevec::{ChunkExecutor, ChunkedState};

use crate::checkpoint::Checkpoint;
use crate::config::SimConfig;

use super::spec::ExecMode;
use super::static_alloc;
use super::transfer::{copy_with_dma, Dir};
use super::Env;

/// Upper bound on `chunk_bits`, sizing the flat all-zero-tag cache.
pub(crate) const MAX_CHUNK_BITS: usize = 64;

/// A chunk's amplitudes as raw bytes, for checksumming.
fn amp_bytes(amps: &[Complex64]) -> &[u8] {
    // SAFETY: `Complex64` is two `f64`s with no padding; an initialized
    // amplitude slice is readable as plain bytes.
    unsafe { std::slice::from_raw_parts(amps.as_ptr().cast::<u8>(), std::mem::size_of_val(amps)) }
}

/// A chunk's integrity tag: the checksum of its amplitude bytes.
pub(crate) fn tag(amps: &[Complex64]) -> u32 {
    qgpu_faults::fast_checksum(amp_bytes(amps))
}

/// The resilient pipeline's working state: the seeded injector,
/// deterministic occurrence counters for each fault site (the
/// engine loop issues them serially, so a given seed replays identically),
/// and the per-chunk integrity tags.
///
/// Tag storage is flat-indexed, not hashed: a qft_20 run visits tens of
/// millions of (chunk, transfer) pairs, and at that volume per-visit
/// `HashMap` traffic alone blows the `fault_overhead` budget.
pub(crate) struct Resilience {
    pub(crate) inj: FaultInjector,
    pub(crate) transfers: u64,
    codec_ops: u64,
    /// Arrival-side CRC passes actually paid (each one is a real
    /// checksum over a chunk that moved raw). Compressed chunks are
    /// sealed at encode time and must never show up here — the
    /// `integrity.retags` counter makes that invariant observable.
    pub(crate) retags: u64,
    /// Last tag computed for each chunk, refreshed on every arrival.
    tags: ChunkTable<u32>,
    /// Tag of an all-zero chunk, indexed by chunk size — it never changes.
    zero_tag: [Option<u32>; MAX_CHUNK_BITS],
}

impl Resilience {
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        Resilience {
            inj: FaultInjector::new(cfg.faults),
            transfers: 0,
            codec_ops: 0,
            retags: 0,
            tags: ChunkTable::default(),
            zero_tag: [None; MAX_CHUNK_BITS],
        }
    }

    /// Tag of an all-zero chunk of `chunk_bits` — computed once per size,
    /// then a flat array read.
    fn zero_tag(&mut self, chunk_bits: u32) -> u32 {
        *self.zero_tag[chunk_bits as usize].get_or_insert_with(|| {
            let zeros = vec![0u8; 16usize << chunk_bits];
            qgpu_faults::fast_checksum(&zeros)
        })
    }

    /// Encode-time sealing with `tag`, chunk `m`'s [`tag`] taken in the
    /// visit that sized it: by the executor's sink right after the
    /// gate's kernel, while the chunk is still in cache, or by the slot
    /// walk beside its codec call. (The checksum is a call of its own
    /// over the same hot bytes, not fused into the codec's loop.) The
    /// tag then travels with the compressed chunk; no separate arrival
    /// pass is needed.
    pub(crate) fn seal_at_encode(&mut self, m: usize, tag: u32) {
        self.tags.insert(m, tag);
    }

    /// Encode-time sealing of an all-zero chunk (cached per chunk size).
    pub(crate) fn seal_zero_at_encode(&mut self, m: usize, chunk_bits: u32) {
        let zero = self.zero_tag(chunk_bits);
        self.tags.insert(m, zero);
    }

    /// Upload-side integrity: departing chunk `m` carries the tag
    /// computed when it last arrived at the host — checksums travel with
    /// the data, and in the machine being modeled host chunk buffers are
    /// written only by D2H arrivals, so the arrival tag is still valid at
    /// the next upload. A chunk never tagged before is sealed now (one
    /// real CRC pass, mostly the cached all-zero tag early in a run).
    pub(crate) fn seal_for_upload(&mut self, state: &ChunkedState, m: usize, chunk_bits: u32) {
        if self.tags.get(m).is_none() {
            let tag = self.tag_of(state, m, chunk_bits);
            self.tags.insert(m, tag);
        }
    }

    /// Arrival-side integrity for a chunk that moved *without* an encode
    /// pass (uncompressed subsets, and raw codec-failure fallbacks):
    /// re-tag chunk `m`, which just crossed the link — one real CRC pass
    /// per round trip, the honest cost the `fault_overhead` bench
    /// bounds. Compressed chunks skip this: their tag was sealed at
    /// encode time and travels with the data. Either way the functional
    /// bytes cannot actually rot in memory, so a *mismatch* is the
    /// injector's decision, made inside
    /// [`super::transfer::transfer_with_integrity`]'s retry loop.
    pub(crate) fn verify_on_arrival(&mut self, state: &ChunkedState, m: usize, chunk_bits: u32) {
        self.retags += 1;
        let tag = self.tag_of(state, m, chunk_bits);
        self.tags.insert(m, tag);
    }

    /// Chunk `m`'s tag as the state holds it now.
    fn tag_of(&mut self, state: &ChunkedState, m: usize, chunk_bits: u32) -> u32 {
        match state.chunk(m) {
            Some(a) => tag(a),
            None => self.zero_tag(chunk_bits),
        }
    }

    /// Chunk `m`'s tag as last sealed or verified, if any.
    #[cfg(test)]
    pub(crate) fn sealed(&self, m: usize) -> Option<u32> {
        self.tags.get(m)
    }

    /// Chunk-size re-partitioning renumbers chunks: every cached tag is
    /// stale and must be dropped.
    pub(crate) fn on_repartition(&mut self) {
        self.tags.clear();
    }

    /// Whether this op's involvement mask reads back corrupted — the
    /// pruning decision is then untrustworthy and the gate falls back to
    /// full-chunk execution.
    pub(crate) fn mask_corrupt(&self, op: usize) -> bool {
        self.inj.fires(FaultSite::MaskCorrupt, op as u64)
    }

    /// Whether the GFC encoder fails on this chunk occurrence (the
    /// pipeline then moves the chunk raw).
    pub(crate) fn codec_fails(&mut self) -> bool {
        let i = self.codec_ops;
        self.codec_ops += 1;
        self.inj.fires(FaultSite::CodecFail, i)
    }
}

/// Engine-side orchestration state: the device group that deals tasks,
/// the optional memory-pressure governor, and the degradation latches the
/// governor has pulled so far. (Barrier and loss bookkeeping lives in
/// [`BarrierClock`].)
pub(crate) struct Orchestration {
    pub(crate) group: DeviceGroup,
    pub(crate) governor: Option<PressureGovernor>,
    /// ForceCompress rung pulled: chunks move compressed even on
    /// flag subsets without compression (modeled cost only; functional
    /// state is untouched, so results stay bit-identical).
    pub(crate) force_compress: bool,
    /// ShrinkChunks rung pulled: a ceiling on `chunk_bits`.
    pub(crate) bits_cap: Option<u32>,
}

impl Orchestration {
    pub(crate) fn new(num_gpus: usize, ocfg: OrchestratorConfig, cfg: &SimConfig) -> Self {
        let mut group = DeviceGroup::new(num_gpus, ocfg);
        // Replay logs only serve device loss; without device faults
        // their per-task pushes are the orchestrator's single biggest
        // fault-free cost.
        group.set_replay_tracking(cfg.faults.device_faults_enabled());
        Orchestration {
            group,
            governor: ocfg.mem_budget_bytes.map(PressureGovernor::new),
            force_compress: false,
            bits_cap: None,
        }
    }

    /// The window cap under the per-device residency budget. The cap
    /// clamps immediately — admission never exceeds the budget — while
    /// the governor's ladder escalates only after sustained pressure
    /// ([`PressureGovernor::on_pressure`]'s strike counter), pulling
    /// ShrinkChunks → ForceCompress → SpillOldest in order.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn governed_cap(
        &mut self,
        base_cap: usize,
        inflight: usize,
        incoming: usize,
        chunk_bits: u32,
        chunk_bytes: u64,
        compressing: bool,
        tl: &mut Lanes,
        rec: Option<&Recorder>,
    ) -> usize {
        let Some(gov) = self.governor.as_mut() else {
            return base_cap;
        };
        let fit = gov.cap_chunks(chunk_bytes, 0);
        if fit < inflight + incoming {
            let can_shrink = chunk_bits > 1 && self.bits_cap.is_none();
            let can_compress = !compressing;
            if let Some(action) = gov.on_pressure(can_shrink, can_compress) {
                match action {
                    PressureAction::ShrinkChunks => {
                        self.bits_cap = Some(chunk_bits.saturating_sub(1).max(1));
                    }
                    PressureAction::ForceCompress => self.force_compress = true,
                    // The clamped cap already forces the admission loop
                    // to retire (spill) the oldest in-flight slots; the
                    // terminal rung just keeps doing that.
                    PressureAction::SpillOldest => {}
                }
                tl.count(Counter::PressureDownshifts, 1);
                if let Some(r) = rec {
                    r.flight("downshift", || format!("pressure governor: {action:?}"));
                }
            }
        } else {
            gov.on_relief();
        }
        gov.cap_chunks(chunk_bytes, incoming.max(1)).min(base_cap)
    }
}

/// Periodic checkpoints and the injected fatal fault, applied *in that
/// order* before each program op — so a run killed at op `k` resumes
/// from the newest checkpoint at or before `k`.
pub(crate) struct CheckpointLayer {
    last_ckpt: u64,
}

impl CheckpointLayer {
    pub(crate) fn new(start: usize) -> Self {
        CheckpointLayer {
            last_ckpt: start as u64,
        }
    }

    /// Whether [`CheckpointLayer::before_op`] will save the state at op
    /// `idx` (so it must be current by then).
    pub(crate) fn due(&self, idx: usize, cfg: &SimConfig) -> bool {
        cfg.checkpoint_path.is_some()
            && cfg.checkpoint_every > 0
            && idx as u64 >= self.last_ckpt + cfg.checkpoint_every
    }

    pub(crate) fn before_op(
        &mut self,
        idx: usize,
        state: &ChunkedState,
        cfg: &SimConfig,
        rec: Option<&Recorder>,
    ) -> Result<(), SimError> {
        if let Some(path) = cfg
            .checkpoint_path
            .as_deref()
            .filter(|_| self.due(idx, cfg))
        {
            crate::checkpoint::save_with_codec(state.as_flat(), idx as u64, cfg.codec(), path)
                .map_err(|e| SimError::Checkpoint(e.to_string()))?;
            self.last_ckpt = idx as u64;
            if let Some(r) = rec {
                r.add("checkpoints.written", 1);
            }
        }
        if idx >= cfg.faults.fail_at_gate {
            return Err(SimError::Fatal {
                gate: idx,
                reason: "injected fatal fault".to_string(),
            });
        }
        Ok(())
    }
}

/// Checkpoint barriers and the deterministic one-shot `device_lost_at`
/// injection (latched, `>=` so the exact index survives being consumed
/// mid-batch).
pub(crate) struct BarrierClock {
    next_barrier: u64,
    loss_fired: bool,
}

impl BarrierClock {
    pub(crate) fn new(cfg: &SimConfig, start: usize) -> Self {
        BarrierClock {
            next_barrier: if cfg.effective_orchestration().is_some() {
                start as u64 + BARRIER_INTERVAL
            } else {
                u64::MAX
            },
            loss_fired: false,
        }
    }

    /// Advances barrier state at op `idx` and returns a device to lose,
    /// if one fires.
    pub(crate) fn poll(
        &mut self,
        idx: usize,
        cfg: &SimConfig,
        group: &mut DeviceGroup,
        num_gpus: usize,
    ) -> Option<usize> {
        let mut lost: Option<usize> = None;
        if !self.loss_fired && idx >= cfg.faults.device_lost_at {
            self.loss_fired = true;
            if cfg.faults.device_lost_id < num_gpus {
                lost = Some(cfg.faults.device_lost_id);
            }
        }
        // Checkpoint barrier: replay logs truncate here.
        if idx as u64 >= self.next_barrier {
            group.barrier();
            self.next_barrier = idx as u64 + BARRIER_INTERVAL;
        }
        lost
    }
}

/// A device dropped out — the injected loss or a quarantine drain — and
/// leaves the group. Host state is authoritative (the functional update
/// already ran there), so recovery is purely
/// modeled time and the recovered result is bit-identical to an
/// undisturbed run. What it costs is the mode's: static mode re-homes the
/// device's stripe to the host ([`static_alloc::restore_stripe`]);
/// streaming re-shards onto the survivors and replays the device's
/// since-barrier log.
pub(crate) fn lose_device(env: &mut Env, device: usize) -> Result<(), SimError> {
    let Some(o) = env.orch.as_mut() else {
        return Ok(());
    };
    if !o.group.is_alive(device) {
        return Ok(());
    }
    let Some(replay) = o.group.lose_device(device) else {
        return Err(SimError::AllDevicesLost { device });
    };
    match env.spec.mode {
        ExecMode::Static => static_alloc::restore_stripe(env, device),
        ExecMode::Streaming => replay_on_survivors(env, device, &replay),
    }
    Ok(())
}

/// Each task of the lost device's log re-uploads its bytes and re-runs
/// its kernel on the survivor the post-loss epoch rotation deals it to.
fn replay_on_survivors(env: &mut Env, device: usize, replay: &[ReplayTask]) {
    let (Some(o), rec) = (env.orch.as_ref(), env.rec) else {
        return;
    };
    let _g = span_opt(rec, Track::Main, ObsStage::Other, "orch.reshard");
    env.tl.count(Counter::DevicesLost, 1);
    env.tl.count(Counter::ChunksMigrated, replay.len() as u64);
    if let Some(r) = rec {
        r.flight("device_loss", || {
            format!("device {device} lost; replaying {} task(s)", replay.len())
        });
    }
    // The dead device's double-buffer window died with it.
    env.dev.drain(Some(device));
    let floor = env.tl.makespan();
    let mut done = floor;
    let mut lanes = env.tl.lanes();
    for (i, t) in replay.iter().enumerate() {
        let g = o.group.owner_of(i);
        let h2d = copy_with_dma(&mut lanes, env.cfg, Dir::Up(g), floor, t.bytes, 1.0);
        let k = lanes.schedule(
            Engine::GpuCompute(g),
            h2d.end,
            t.duration,
            TaskKind::Kernel,
            t.bytes,
        );
        done = done.max(k.end);
    }
    // Recovery is a synchronization point: the pipeline restarts from the
    // re-shard horizon.
    env.epoch_floor = done.max(env.epoch_floor);
    env.dev.chain = env.dev.chain.max(env.epoch_floor);
}

/// Validates a resume checkpoint against this run's circuit and program,
/// returning the op index to resume at. The checkpoint must come from a
/// run with the same circuit and config — `gates_done` counts *program*
/// ops, which depend on fusion and reorder settings.
pub(crate) fn validate_resume(
    resume: Option<&Checkpoint>,
    num_qubits: usize,
    program_len: usize,
) -> Result<usize, SimError> {
    match resume {
        Some(ck) => {
            if ck.state.num_qubits() != num_qubits {
                return Err(SimError::Checkpoint(format!(
                    "checkpoint has {} qubits, circuit has {num_qubits}",
                    ck.state.num_qubits()
                )));
            }
            if ck.gates_done as usize > program_len {
                return Err(SimError::Checkpoint(format!(
                    "checkpoint is {} ops in, program has only {program_len}",
                    ck.gates_done
                )));
            }
            Ok(ck.gates_done as usize)
        }
        None => Ok(0),
    }
}

/// A checkpoint resume restarts at the last op *boundary*: whatever gate
/// was in progress when the original run stopped is discarded and
/// replayed from the checkpointed state. The replay is bit-identical, so
/// nothing in the output betrays it — make it visible instead of silent:
/// a flight-recorder event plus a one-time stderr warning (the same
/// convention as qgpu-obs's `spans_dropped` warning).
pub(crate) fn note_resume_discard(start: usize, rec: Option<&Recorder>) {
    static WARNED: AtomicBool = AtomicBool::new(false);
    if let Some(r) = rec {
        r.add("resume.discarded_ops", 1);
        r.flight("resume", || {
            format!("resume discards the in-progress op at index {start}; replaying it")
        });
    }
    if !WARNED.swap(true, Ordering::Relaxed) {
        eprintln!(
            "[qgpu] checkpoint resume discards the in-progress op at index {start}; replaying it"
        );
    }
}

/// Charges recovered worker deaths to the timeline and recorder.
pub(crate) fn note_restarts(tl: &mut Timeline, rec: Option<&Recorder>, restarts: u64) {
    if restarts > 0 {
        tl.count(Counter::WorkerRestarts, restarts);
        if let Some(r) = rec {
            r.flight("worker_restart", || {
                format!("{restarts} worker thread(s) died and were restarted")
            });
        }
    }
}

/// The chunks one functional update touches, by task representative:
/// chunk-local tasks when `high_mixing` is empty, mixing groups (the
/// representative's [`ChunkedState::chunk_group`]) otherwise.
#[derive(Clone, Copy)]
pub(crate) struct Touched<'a> {
    pub(crate) reps: Tasks,
    pub(crate) high_mixing: &'a [usize],
}

/// The functional update (identical across every mode and flag subset):
/// the executor replays the op's member gates over blocks of consecutive
/// live chunks, bitwise identical to per-gate application at every
/// thread count, and hands each block to `sink` while it is in cache.
pub(crate) fn apply_functional(
    executor: &mut ChunkExecutor,
    state: &mut ChunkedState,
    tl: &mut Timeline,
    rec: Option<&Recorder>,
    fop: &FusedOp,
    w: Touched,
    sink: Option<&mut dyn Sink>,
) -> Result<(), SimError> {
    if w.reps.len() == 0 {
        return Ok(());
    }
    let span = match w.high_mixing {
        [] => "update.local",
        _ => "update.group",
    };
    let restarts = {
        let _g = span_opt(rec, Track::Main, ObsStage::Update, span);
        executor.try_apply_group_runs(state, fop.actions(), w.reps, w.high_mixing, None, sink)?
    };
    note_restarts(tl, rec, restarts);
    Ok(())
}

/// Builds the configured functional executor: exact thread counts under a
/// worker-death campaign (no clamping to the host's cores — the
/// multi-worker partitioning paths under test must run even on small
/// machines, and the recovered result is bitwise identical at every
/// thread count).
pub(crate) fn build_executor(cfg: &SimConfig, recorder: Option<&Arc<Recorder>>) -> ChunkExecutor {
    let mut executor = if cfg.faults.p_worker_death > 0.0 {
        ChunkExecutor::with_exact_threads(cfg.threads)
            .with_faults(Arc::new(FaultInjector::new(cfg.faults)))
    } else {
        ChunkExecutor::new(cfg.threads)
    };
    if let Some(arc) = recorder {
        executor = executor.with_recorder(Arc::clone(arc));
    }
    executor
}
