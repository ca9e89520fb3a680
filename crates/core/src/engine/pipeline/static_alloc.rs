//! What the static-allocation mode models: the Qiskit-Aer-style
//! baseline (paper §III-B).
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
//! is idle.
//!
//! The op loop, the functional update and its deferral rule are the
//! driver's (`pipeline::run`). This module supplies only what the mode
//! models: where chunks live ([`Placement`]), what a gate costs
//! ([`model_gate`]), and what losing a device costs ([`restore_stripe`]).

use qgpu_circuit::fuse::FusedOp;
use qgpu_device::timeline::{Engine, Lanes, TaskKind, Timeline};
use qgpu_device::Counter;
use qgpu_faults::FaultInjector;
use qgpu_obs::Recorder;
use qgpu_sched::plan::GatePlan;

use crate::config::SimConfig;
use crate::engine::flops_per_amp;

use super::transfer::{self, copy_with_dma, Dir};
use super::Env;

/// The static allocation and the static mode's clock between gates.
/// The streaming mode pins nothing and keeps the default.
#[derive(Default)]
pub(crate) struct Placement {
    /// Chunks `0..resident` are pinned, chunk `c` on device `c % gpus`.
    resident: usize,
    /// Devices still in the fleet: a lost device's stripe lives on the
    /// host.
    alive: Vec<bool>,
    /// When the next op may start: the last gate's sync, collapse or
    /// restore.
    pub(crate) gate_ready: f64,
    /// Exchange copies issued so far: the link-degradation draws are
    /// keyed by it.
    transfer_ix: u64,
    /// The device-fault injector (pure: replays the same draws as any
    /// other instance with the same seed).
    dev_inj: Option<FaultInjector>,
}

impl Placement {
    /// As many chunks of `chunk_bits` as fit, striped across the GPUs. A
    /// configured residency budget caps each device below its hardware
    /// capacity — the baseline's only degradation rung is keeping fewer
    /// chunks resident (everything else already lives on the host).
    pub(crate) fn new(cfg: &SimConfig, tl: &mut Timeline, n: usize, chunk_bits: u32) -> Self {
        let chunk_bytes = 16u64 << chunk_bits;
        let gpus = cfg.platform.num_gpus();
        let budget = cfg
            .effective_orchestration()
            .and_then(|o| o.mem_budget_bytes);
        let hw = |g| cfg.platform.gpu_chunk_capacity(g, chunk_bytes);
        let cap = |g| budget.map_or(hw(g), |b| ((b / chunk_bytes) as usize).max(1).min(hw(g)));
        let num_chunks = 1usize << (n as u32 - chunk_bits);
        let placement = Placement {
            resident: (0..gpus).map(cap).sum::<usize>().min(num_chunks),
            alive: vec![true; gpus],
            gate_ready: 0.0,
            transfer_ix: 0,
            dev_inj: cfg
                .faults
                .device_faults_enabled()
                .then(|| FaultInjector::new(cfg.faults)),
        };
        if budget.is_some() {
            let capped = (0..gpus).filter(|&g| cap(g) < hw(g)).count();
            tl.count(Counter::PressureDownshifts, capped as u64);
            for g in 0..gpus {
                tl.observe_resident_bytes(placement.stripe(g) * chunk_bytes);
            }
        }
        placement
    }

    /// The number of chunks pinned on device `g`.
    fn stripe(&self, g: usize) -> u64 {
        let gpus = self.alive.len();
        (0..self.resident).filter(|c| c % gpus == g).count() as u64
    }

    /// The device holding a chunk, given which are still alive; `None`
    /// for the host.
    fn gpu_of(&self, chunk: usize) -> Option<usize> {
        let g = (chunk < self.resident).then(|| chunk % self.alive.len());
        g.filter(|&g| self.alive[g])
    }

    /// `fop`'s update kernel over `bytes` on device `g` from `ready`,
    /// stretched on a pinned straggler. Returns its end.
    fn kernel(
        &self,
        lanes: &mut Lanes,
        cfg: &SimConfig,
        fop: &FusedOp,
        g: usize,
        ready: f64,
        bytes: u64,
    ) -> f64 {
        let stretch = self
            .dev_inj
            .as_ref()
            .map_or(1.0, |i| i.straggler_stretch(g));
        let gpu = cfg.platform.gpu(g);
        let t = (bytes as f64 / gpu.update_bw() + gpu.kernel_launch) * stretch;
        let span = lanes.schedule(Engine::GpuCompute(g), ready, t, TaskKind::Kernel, bytes);
        lanes.add_flops((bytes as f64 / 16.0) * flops_per_amp(fop.collapsed()));
        if fop.is_fused() {
            lanes.count(Counter::FusedKernels, 1);
        }
        span.end
    }

    /// The next exchange copy's injected link stretch (a draw only when
    /// device faults are configured).
    fn next_link_stretch(&mut self, lanes: &mut Lanes, rec: Option<&Recorder>) -> f64 {
        let Some(inj) = self.dev_inj.as_ref() else {
            return 1.0;
        };
        let ix = self.transfer_ix;
        self.transfer_ix += 1;
        transfer::link_stretch(inj, ix, lanes, rec)
    }
}

/// One unitary op's modeled cost: the same-device update batches, then
/// the reactive exchange, then the per-gate sync. Returns the op's plan
/// for the functional update.
pub(crate) fn model_gate(env: &mut Env, fop: &FusedOp) -> GatePlan {
    let (cfg, rec, p, cb) = (env.cfg, env.rec, &mut env.placement, env.chunk_bits);
    let (num_chunks, chunk_bytes) = (env.state.num_chunks(), 16u64 << cb);
    let plan = GatePlan::new_observed(fop.collapsed(), cb, num_chunks, rec);

    // Partition tasks: same-device batches vs. mixed groups.
    let mut host_bytes = 0u64;
    let mut gpu_bytes = vec![0u64; env.num_gpus];
    let mut mixed: Vec<usize> = Vec::new();
    let group_bytes = plan.group_len() as u64 * chunk_bytes;
    for rep in plan.tasks() {
        let first = p.gpu_of(rep);
        if !plan.members(rep).all(|c| p.gpu_of(c) == first) {
            mixed.push(rep);
        } else if let Some(g) = first {
            gpu_bytes[g] += group_bytes;
        } else {
            host_bytes += group_bytes;
        }
    }
    env.tl
        .count(Counter::ChunksProcessed, plan.total_chunks() as u64);
    if let Some(r) = rec {
        r.observe_n("chunk.bytes", chunk_bytes, plan.tasks().len() as u64);
    }

    let (mut lanes, ready) = (env.tl.lanes(), p.gate_ready);
    let mut chain = ready;
    if host_bytes > 0 {
        let t = host_bytes as f64 / cfg.platform.host.chunked_update_bw();
        let host = lanes.schedule(Engine::Host, ready, t, TaskKind::HostUpdate, host_bytes);
        chain = chain.max(host.end);
    }
    for (g, &bytes) in gpu_bytes.iter().enumerate().filter(|&(_, &b)| b > 0) {
        chain = chain.max(p.kernel(&mut lanes, cfg, fop, g, ready, bytes));
    }

    // Reactive exchange: mixed groups processed synchronously, one at a
    // time, on the primary GPU of the group — *after* the update batches,
    // since the scheduler blocks when it reaches the boundary (the
    // paper's Figure 2 splits the makespan into CPU time then exchange
    // time).
    for &rep in &mixed {
        let primary = plan.members(rep).find_map(|c| p.gpu_of(c));
        let primary = primary.unwrap_or_else(|| p.alive.iter().position(|&a| a).unwrap_or(0));
        let off_device = plan.members(rep).filter(|&c| p.gpu_of(c) != Some(primary));
        let moved = off_device.count() as u64 * chunk_bytes;
        let stretch = p.next_link_stretch(&mut lanes, rec);
        let h2d = copy_with_dma(&mut lanes, cfg, Dir::Up(primary), chain, moved, stretch);
        let kernel_end = p.kernel(&mut lanes, cfg, fop, primary, h2d.end, group_bytes);
        let stretch = p.next_link_stretch(&mut lanes, rec);
        let down = Dir::Down(primary);
        chain = copy_with_dma(&mut lanes, cfg, down, kernel_end, moved, stretch).end;
    }

    // Per-gate synchronization between the scheduler and the device.
    let sync = cfg.platform.host.sync_latency;
    p.gate_ready = lanes
        .schedule(Engine::Host, chain, sync, TaskKind::Sync, 0)
        .end;
    plan
}

/// Device `d` dropped out of the group: its stripe re-homes to the host.
/// Host state is authoritative, so the cost is a modeled restore from
/// the last checkpoint barrier.
pub(crate) fn restore_stripe(env: &mut Env, d: usize) {
    let (p, chunk_bytes) = (&mut env.placement, 16u64 << env.chunk_bits);
    p.alive[d] = false;
    let moved = p.stripe(d);
    env.tl.count(Counter::DevicesLost, 1);
    env.tl.count(Counter::ChunksMigrated, moved);
    if let Some(r) = env.rec {
        r.flight("device_loss", || {
            format!("device {d} lost; {moved} resident chunk(s) re-homed to host")
        });
    }
    let t = moved as f64 * chunk_bytes as f64 / env.cfg.platform.host.copy_bw;
    let bytes = moved * chunk_bytes;
    let restore = env
        .tl
        .schedule(Engine::Host, p.gate_ready, t, TaskKind::Sync, bytes);
    p.gate_ready = restore.end;
}
