//! The static-allocation execution mode: Qiskit-Aer-style baseline
//! (paper §III-B).
//!
//! Chunks `0..resident` are pinned in GPU memory (striped round-robin
//! across devices on multi-GPU platforms); the rest live on the host.
//! Per gate:
//!
//! * chunk tasks entirely on one device update there (GPU kernel or the
//!   host's *chunked* update path, which is slower than a plain loop —
//!   see [`qgpu_device::HostSpec::chunk_penalty`]);
//! * mixed tasks trigger the paper's **reactive chunk exchange**: the
//!   off-device members are copied in, the group updated, and the
//!   members copied back — synchronously, one task at a time;
//! * every gate ends with a host↔device synchronization.
//!
//! This reproduces the paper's Figure 2: with a large state vector
//! almost all time is CPU update, roughly 10% is exchange, and the GPU
//! is idle. Checkpoints, barriers, device loss, and the functional
//! update ride the same middleware as the streaming mode.
//!
//! The *modeled* work above is issued op by op. The *functional* update
//! of a chunk-local op touches no other chunk and nothing modeled reads
//! the amplitudes, so consecutive chunk-local ops are only noted as a
//! range of program indices and replayed together — one visit per dense
//! chunk, every op of the range applied while the chunk is cache-resident
//! — when something needs the state: a grouping op, a collapse, a
//! checkpoint, the end of the run. Same arithmetic per amplitude in the
//! same order, so the state is bit-identical to per-op updates. Runs that
//! observe the state per op (integrity checks, a worker-death campaign
//! keyed on dispatch counts) do not defer.

use std::sync::Arc;

use qgpu_circuit::access::GateAction;
use qgpu_circuit::fuse::{FusedOp, ProgramOp};
use qgpu_circuit::Circuit;
use qgpu_device::timeline::{Engine, TaskKind, Timeline};
use qgpu_device::Counter;
use qgpu_faults::{CancelToken, FaultInjector, SimError};
use qgpu_obs::{span_opt, Recorder, Stage as ObsStage, Track};
use qgpu_sched::devicegroup::DeviceGroup;
use qgpu_sched::plan::GatePlan;
use qgpu_statevec::{ChunkExecutor, ChunkedState};

use crate::checkpoint::Checkpoint;
use crate::config::SimConfig;
use crate::engine::flops_per_amp;
use crate::result::RunResult;

use super::integrity::IntegrityMw;
use super::middleware::{self, BarrierClock, CheckpointLayer};
use super::obs_mw::{self, ObsMw};
use super::stochastic::{self, CollapseRng};
use super::transfer::{copy_with_dma, Dir};

/// Where a chunk lives under the striped static allocation.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Loc {
    Host,
    Gpu(usize),
}

/// The static mode's working state, threaded through the per-gate steps.
struct StaticRun<'a> {
    cfg: &'a SimConfig,
    rec: Option<&'a Recorder>,
    chunk_bits: u32,
    num_chunks: usize,
    chunk_bytes: u64,
    num_gpus: usize,
    resident: usize,
    alive: Vec<bool>,
    state: ChunkedState,
    tl: &'a mut Timeline,
    executor: ChunkExecutor,
    gate_ready: f64,
    group: Option<DeviceGroup>,
    /// The device-fault injector (pure: replays the same draws as any
    /// other instance with the same seed).
    dev_inj: Option<FaultInjector>,
    transfer_ix: u64,
    integ: Option<IntegrityMw>,
    /// Whether chunk-local functional updates may wait for a flush: a
    /// property of the run (nothing observes the state per op).
    defer: bool,
    /// The first op of the run of chunk-local ops (it reaches to the op
    /// being modeled) whose updates have not been applied to the state.
    pending: Option<usize>,
}

pub(crate) fn run(
    circuit: &Circuit,
    cfg: &SimConfig,
    recorder: Option<&Arc<Recorder>>,
    resume: Option<&Checkpoint>,
    tl: &mut Timeline,
    mw: &mut ObsMw,
) -> Result<RunResult, SimError> {
    let rec = recorder.map(Arc::as_ref);
    let n = circuit.num_qubits();
    let program = {
        let _g = span_opt(rec, Track::Main, ObsStage::Plan, "engine.program");
        crate::engine::program_for(circuit, cfg)
    };
    let start = middleware::validate_resume(resume, n, program.len())?;
    let mut sr = StaticRun::new(cfg, rec, recorder, tl, n, &program, resume);
    if start > 0 {
        middleware::note_resume_discard(start, rec);
        if let Some(imw) = sr.integ.as_mut() {
            // A resumed state is not |0…0⟩: seed the tables from it.
            imw.rebuild(&sr.state);
        }
    }
    let mut crng = CollapseRng::new(cfg.stoch_seed, n, &program[..start]);
    let mut ckpt = CheckpointLayer::new(start);
    let mut clock = BarrierClock::new(cfg, start);
    mw.mark(obs_mw::SETUP);

    for (idx, op) in program.iter().enumerate().skip(start) {
        if let Some(err) = cfg.cancel.as_ref().and_then(|t| t.poll_abort(idx)) {
            // The state is dropped: pending updates with it.
            return Err(super::abort_run(err, sr.state.dense_chunk_count(), rec));
        }
        if ckpt.due(idx, cfg) {
            sr.flush(&program[..idx], mw)?;
        }
        ckpt.before_op(idx, &sr.state, cfg, rec)?;
        let lost = match sr.group.as_mut() {
            Some(gr) => clock.poll(idx, cfg, gr, sr.num_gpus),
            None => None,
        };
        if let Some(d) = lost {
            sr.on_loss(d)?;
        }
        // Static mode has no chunk round trip to lap step by step;
        // attribution is coarse — the whole update lands in `kernel`,
        // collapses in `measure`.
        match op {
            ProgramOp::Unitary(fop) => {
                let mixing = fop.collapsed().mixing_qubits();
                let deferred = sr.defer && mixing.iter().all(|&q| (q as u32) < sr.chunk_bits);
                if !deferred {
                    sr.flush(&program[..idx], mw)?;
                }
                mw.gate_begin();
                sr.gate_step(fop, idx, deferred)?;
                mw.mark(obs_mw::KERNEL);
                mw.gate_done();
            }
            &ProgramOp::Measure { qubit } | &ProgramOp::Reset { qubit } => {
                sr.flush(&program[..idx], mw)?;
                if let Some(imw) = sr.integ.as_mut() {
                    imw.check_whole_state(&sr.state, idx, rec)?;
                }
                mw.mark(obs_mw::DRIVER);
                let is_reset = matches!(op, ProgramOp::Reset { .. });
                sr.collapse_step(qubit, is_reset, crng.draw(qubit));
                if let Some(imw) = sr.integ.as_mut() {
                    imw.rebuild(&sr.state);
                }
                mw.mark(obs_mw::MEASURE);
            }
        }
        // A quarantine verdict from the board re-homes the device's
        // stripe to the host through the existing loss path (never for
        // the last device standing — correctness is already covered by
        // repair, so draining is purely an availability move).
        if let Some(d) = sr
            .integ
            .as_mut()
            .and_then(IntegrityMw::take_pending_quarantine)
        {
            let can_drain = sr
                .group
                .as_ref()
                .is_some_and(|g| g.alive_devices() > 1 && g.is_alive(d));
            if can_drain {
                sr.on_loss(d)?;
            }
        }
    }

    sr.flush(&program, mw)?;
    let ops = program.len();
    super::finish_run(mw, circuit, cfg, rec, sr.state, sr.tl, &mut sr.integ, ops)
}

impl<'a> StaticRun<'a> {
    fn new(
        cfg: &'a SimConfig,
        rec: Option<&'a Recorder>,
        recorder: Option<&Arc<Recorder>>,
        tl: &'a mut Timeline,
        n: usize,
        program: &[ProgramOp],
        resume: Option<&Checkpoint>,
    ) -> Self {
        let chunk_bits = cfg.chunk_bits_for(n);
        let num_chunks = 1usize << (n as u32 - chunk_bits);
        let chunk_bytes = 16u64 << chunk_bits;
        let num_gpus = cfg.platform.num_gpus();

        // Static allocation: as many chunks as fit, striped across GPUs.
        // A configured residency budget caps each device below its
        // hardware capacity — the baseline's only degradation rung is
        // keeping fewer chunks resident (everything else already lives
        // on the host).
        let ocfg = cfg.effective_orchestration();
        let budget = ocfg.and_then(|o| o.mem_budget_bytes);
        let mut budget_capped = 0u64;
        let per_gpu_cap: Vec<usize> = (0..num_gpus)
            .map(|g| {
                let hw = cfg.platform.gpu_chunk_capacity(g, chunk_bytes);
                match budget {
                    Some(b) => {
                        let cap = (((b / chunk_bytes.max(1)) as usize).max(1)).min(hw);
                        if cap < hw {
                            budget_capped += 1;
                        }
                        cap
                    }
                    None => hw,
                }
            })
            .collect();
        let resident: usize = per_gpu_cap.iter().sum::<usize>().min(num_chunks);

        let state = match resume {
            Some(ck) => ChunkedState::from_flat(&ck.state, chunk_bits),
            None => ChunkedState::new_zero(n, chunk_bits),
        };

        // Orchestration bookkeeping: the device group tracks liveness and
        // barriers; the injector draws device-level faults.
        // (Work-stealing does not apply to a static allocation.)
        let group = ocfg.map(|o| {
            let mut g = DeviceGroup::new(num_gpus, o);
            // Replay logs only serve device loss; skip their per-task
            // pushes when no device fault can fire.
            g.set_replay_tracking(cfg.faults.device_faults_enabled());
            g
        });
        if budget.is_some() {
            tl.count(Counter::PressureDownshifts, budget_capped);
            for g in 0..num_gpus {
                let cnt = (0..resident).filter(|c| c % num_gpus == g).count() as u64;
                tl.observe_resident_bytes(cnt * chunk_bytes);
            }
        }
        tl.count(
            Counter::GatesFused,
            qgpu_circuit::fuse::program_gates_fused(program) as u64,
        );

        StaticRun {
            cfg,
            rec,
            chunk_bits,
            num_chunks,
            chunk_bytes,
            num_gpus,
            resident,
            alive: vec![true; num_gpus],
            state,
            tl,
            executor: middleware::build_executor(cfg, recorder),
            gate_ready: 0.0,
            group,
            dev_inj: cfg
                .faults
                .device_faults_enabled()
                .then(|| FaultInjector::new(cfg.faults)),
            transfer_ix: 0,
            integ: cfg
                .integrity_active()
                .then(|| IntegrityMw::new(cfg, n, chunk_bits)),
            defer: !cfg.integrity_active() && cfg.faults.p_worker_death == 0.0,
            pending: None,
        }
    }

    /// Applies the pending chunk-local ops — the tail of `modeled`, the
    /// program so far — to the state: one pass over the dense chunks,
    /// each replaying the whole run while resident. It is its own entry
    /// in `gate.ns`, charged to `kernel`, and stays cancellable between
    /// chunk visits — an abort names the first op whose update had not
    /// landed everywhere.
    fn flush(&mut self, modeled: &[ProgramOp], mw: &mut ObsMw) -> Result<(), SimError> {
        let Some(first) = self.pending.take() else {
            return Ok(());
        };
        let ops = &modeled[first..];
        let actions: Vec<GateAction> = ops
            .iter()
            .filter_map(ProgramOp::unitary)
            .flat_map(|fop| fop.actions().iter().cloned())
            .collect();
        let chunks = 0..self.num_chunks;
        let cancel = self.cfg.cancel.as_ref();
        mw.gate_begin();
        if let Some(r) = self.rec {
            r.observe("update.local.ops", ops.len() as u64);
        }
        let done = {
            let _g = span_opt(self.rec, Track::Main, ObsStage::Update, "update.local");
            let poll = || cancel.and_then(|t| t.poll_abort(first));
            self.executor
                .try_apply_local_run_polled(&mut self.state, &actions, chunks, &poll)
        };
        mw.mark(obs_mw::KERNEL);
        mw.gate_done();
        match done {
            Ok(restarts) => {
                middleware::note_restarts(self.tl, self.rec, restarts);
                Ok(())
            }
            Err(err) if cancel.is_some_and(CancelToken::is_tripped) => {
                let held = self.state.dense_chunk_count();
                Err(super::abort_run(err, held, self.rec))
            }
            Err(err) => Err(err),
        }
    }

    /// Where a chunk lives, given which devices are still alive: a dead
    /// device's stripe re-homes to the host.
    fn loc(&self, chunk: usize) -> Loc {
        if chunk < self.resident {
            let g = chunk % self.num_gpus;
            if self.alive[g] {
                Loc::Gpu(g)
            } else {
                Loc::Host
            }
        } else {
            Loc::Host
        }
    }

    /// A device dropped out: its stripe re-homes to the host. Host state
    /// is authoritative, so the cost is a modeled restore from the last
    /// checkpoint barrier.
    fn on_loss(&mut self, d: usize) -> Result<(), SimError> {
        let gr = self.group.as_mut().expect("orchestrated");
        if !gr.is_alive(d) {
            return Ok(());
        }
        if gr.lose_device(d).is_none() {
            return Err(SimError::AllDevicesLost { device: d });
        }
        self.alive[d] = false;
        let moved = (0..self.resident)
            .filter(|c| c % self.num_gpus == d)
            .count() as u64;
        self.tl.count(Counter::DevicesLost, 1);
        self.tl.count(Counter::ChunksMigrated, moved);
        if let Some(r) = self.rec {
            r.flight("device_loss", || {
                format!("device {d} lost; {moved} resident chunk(s) re-homed to host")
            });
        }
        let restore = self.tl.schedule(
            Engine::Host,
            self.gate_ready,
            moved as f64 * self.chunk_bytes as f64 / self.cfg.platform.host.copy_bw,
            TaskKind::Sync,
            moved * self.chunk_bytes,
        );
        self.gate_ready = restore.end;
        Ok(())
    }

    /// A mid-circuit collapse: the host owns the authoritative state, so
    /// the cost is a reduce pass, a scale pass, and the per-gate sync —
    /// then the functional projection with the seeded draw `u`.
    fn collapse_step(&mut self, qubit: usize, is_reset: bool, u: f64) {
        let _g = span_opt(
            self.rec,
            Track::Main,
            ObsStage::Measure,
            if is_reset {
                "collapse.reset"
            } else {
                "collapse.measure"
            },
        );
        let bytes = self.state.memory_bytes() as u64;
        self.gate_ready = stochastic::collapse_cost(self.tl, self.cfg, self.gate_ready, bytes);
        let outcome = stochastic::collapse_state(&mut self.state, qubit, is_reset, u);
        self.tl.count(Counter::Collapses, 1);
        if let Some(r) = self.rec {
            r.flight("collapse", || {
                let kind = if is_reset { "reset" } else { "measure" };
                format!("{kind} qubit {qubit} -> {}", u8::from(outcome))
            });
        }
    }

    /// One program op: partition, update batches, reactive exchange,
    /// sync, then the functional update — noted for the next flush when
    /// `deferred`.
    fn gate_step(&mut self, fop: &FusedOp, op_idx: usize, deferred: bool) -> Result<(), SimError> {
        let action = fop.collapsed();
        let plan = GatePlan::new_observed(action, self.chunk_bits, self.num_chunks, self.rec);
        let fpa = flops_per_amp(action);

        // Partition tasks: same-device batches vs. mixed groups.
        let mut host_bytes = 0u64;
        let mut gpu_bytes = vec![0u64; self.num_gpus];
        let mut mixed: Vec<usize> = Vec::new();
        let task_bytes = plan.group_len() as u64 * self.chunk_bytes;
        for rep in plan.tasks() {
            let first = self.loc(rep);
            if !plan.members(rep).all(|c| self.loc(c) == first) {
                mixed.push(rep);
            } else if let Loc::Gpu(g) = first {
                gpu_bytes[g] += task_bytes;
            } else {
                host_bytes += task_bytes;
            }
        }
        self.tl
            .count(Counter::ChunksProcessed, plan.total_chunks() as u64);
        if let Some(r) = self.rec {
            r.observe_n("chunk.bytes", self.chunk_bytes, plan.tasks().len() as u64);
        }

        let mut gate_end = self.gate_ready;
        if host_bytes > 0 {
            let t = host_bytes as f64 / self.cfg.platform.host.chunked_update_bw();
            let span = self.tl.schedule(
                Engine::Host,
                self.gate_ready,
                t,
                TaskKind::HostUpdate,
                host_bytes,
            );
            gate_end = gate_end.max(span.end);
        }
        for (g, &bytes) in gpu_bytes.iter().enumerate() {
            if bytes == 0 {
                continue;
            }
            let stretch = self
                .dev_inj
                .as_ref()
                .map_or(1.0, |i| i.straggler_stretch(g));
            let t = (bytes as f64 / self.cfg.platform.gpu(g).update_bw()
                + self.cfg.platform.gpu(g).kernel_launch)
                * stretch;
            let span = self.tl.schedule(
                Engine::GpuCompute(g),
                self.gate_ready,
                t,
                TaskKind::Kernel,
                bytes,
            );
            self.tl.add_flops((bytes as f64 / 16.0) * fpa);
            if fop.is_fused() {
                self.tl.count(Counter::FusedKernels, 1);
            }
            gate_end = gate_end.max(span.end);
        }

        gate_end = gate_end.max(self.exchange(&plan, &mixed, fop, fpa, gate_end));

        // Per-gate synchronization between the scheduler and the device.
        let sync = self.tl.schedule(
            Engine::Host,
            gate_end,
            self.cfg.platform.host.sync_latency,
            TaskKind::Sync,
            0,
        );
        self.gate_ready = sync.end;

        if deferred {
            self.pending.get_or_insert(op_idx);
            return Ok(());
        }
        // Functional update (identical across modes), after the sync.
        super::integrity::apply_tasks(
            &mut self.integ,
            &mut self.executor,
            &mut self.state,
            self.tl,
            self.rec,
            fop,
            op_idx,
            &plan,
            plan.tasks(),
        )
    }

    /// Reactive exchange: mixed groups processed synchronously, one at a
    /// time, on the primary GPU of the group — *after* the update
    /// batches, since the scheduler blocks when it reaches the boundary
    /// (the paper's Figure 2 splits the makespan into CPU time then
    /// exchange time). Returns the chain's end.
    fn exchange(
        &mut self,
        plan: &GatePlan,
        mixed: &[usize],
        fop: &FusedOp,
        fpa: f64,
        gate_end: f64,
    ) -> f64 {
        let mut chain = gate_end;
        for &rep in mixed {
            let primary = plan
                .members(rep)
                .find_map(|c| match self.loc(c) {
                    Loc::Gpu(g) => Some(g),
                    Loc::Host => None,
                })
                .unwrap_or_else(|| self.alive.iter().position(|&a| a).unwrap_or(0));
            let off_device = plan
                .members(rep)
                .filter(|&c| self.loc(c) != Loc::Gpu(primary));
            let moved = off_device.count() as u64 * self.chunk_bytes;
            let (cfg, up, down) = (self.cfg, Dir::Up(primary), Dir::Down(primary));
            let up_stretch = self.next_link_stretch();
            let h2d = copy_with_dma(&mut self.tl.lanes(), cfg, up, chain, moved, up_stretch);
            let group_bytes = plan.group_len() as u64 * self.chunk_bytes;
            let kt = (group_bytes as f64 / self.cfg.platform.gpu(primary).update_bw()
                + self.cfg.platform.gpu(primary).kernel_launch)
                * self
                    .dev_inj
                    .as_ref()
                    .map_or(1.0, |i| i.straggler_stretch(primary));
            let kernel = self.tl.schedule(
                Engine::GpuCompute(primary),
                h2d.end,
                kt,
                TaskKind::Kernel,
                group_bytes,
            );
            self.tl.add_flops((group_bytes as f64 / 16.0) * fpa);
            if fop.is_fused() {
                self.tl.count(Counter::FusedKernels, 1);
            }
            let down_stretch = self.next_link_stretch();
            let d2h = copy_with_dma(
                &mut self.tl.lanes(),
                cfg,
                down,
                kernel.end,
                moved,
                down_stretch,
            );
            chain = d2h.end;
        }
        chain
    }

    /// The next transfer's injected link stretch (consumes a draw only
    /// when device faults are configured, matching the counter the
    /// streaming mode's injector would see).
    fn next_link_stretch(&mut self) -> f64 {
        match self.dev_inj.as_ref() {
            Some(i) => {
                let s = i.link_stretch(self.transfer_ix);
                self.transfer_ix += 1;
                if s > 1.0 {
                    self.tl.count(Counter::LinkDegradations, 1);
                    if let Some(r) = self.rec {
                        r.flight("link_degraded", || {
                            format!("transfer {} stretched {s:.2}x", self.transfer_ix - 1)
                        });
                    }
                }
                s
            }
            None => 1.0,
        }
    }
}
