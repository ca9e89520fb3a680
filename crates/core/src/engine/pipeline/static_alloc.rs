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
//! driver's (`pipeline::run`), and every device action is priced where
//! streaming's are, on a `steps::Round` (`steps::static_gate`). This
//! module supplies only the policy: where chunks live ([`Placement`]),
//! which tasks that admits at once and which pay the exchange
//! ([`Placement::admit`]), and what losing a device costs
//! ([`restore_stripe`]).

use qgpu_device::timeline::{Engine, TaskKind, Timeline};
use qgpu_device::Counter;
use qgpu_sched::plan::GatePlan;

use crate::config::SimConfig;

use super::Env;

/// The static allocation. The streaming mode pins nothing and keeps
/// the default.
#[derive(Default)]
pub(crate) struct Placement {
    /// Chunks `0..resident` are pinned, chunk `c` on device `c % gpus`.
    resident: usize,
    /// Devices still in the fleet: a lost device's stripe lives on the
    /// host.
    alive: Vec<bool>,
}

/// A gate's tasks as the placement admits them: the bytes of the host's
/// batch and of each device's batch, and each task that straddles a
/// boundary as the device it runs on and the bytes it copies in (and
/// back).
pub(crate) struct Admission {
    pub(crate) host: u64,
    pub(crate) gpus: Vec<u64>,
    pub(crate) exchanges: Vec<(usize, u64)>,
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

    /// Where `plan`'s tasks run: a task whose chunks all live in one
    /// place joins that place's batch; any other runs on the device of
    /// its first pinned member, which copies the others in.
    pub(crate) fn admit(&self, plan: &GatePlan, chunk_bytes: u64) -> Admission {
        let group_bytes = plan.group_len() as u64 * chunk_bytes;
        let mut adm = Admission {
            host: 0,
            gpus: vec![0; self.alive.len()],
            exchanges: Vec::new(),
        };
        for rep in plan.tasks() {
            let Some(gpu) = plan.members(rep).find_map(|c| self.gpu_of(c)) else {
                adm.host += group_bytes;
                continue;
            };
            let off_device = plan.members(rep).filter(|&c| self.gpu_of(c) != Some(gpu));
            match off_device.count() as u64 {
                0 => adm.gpus[gpu] += group_bytes,
                moved => adm.exchanges.push((gpu, moved * chunk_bytes)),
            }
        }
        adm
    }
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
        .schedule(Engine::Host, env.dev.chain, t, TaskKind::Sync, bytes);
    env.dev.chain = restore.end;
}
