//! Shared host↔device transfer modeling: the DMA-staged copy primitive
//! and its integrity-checked (retrying) variant, both on a timeline's
//! [`Lanes`].
//!
//! Every engine path — streaming stages (batches included), the
//! static-allocation mode, and device-loss replay — routes its
//! copies through [`copy_with_dma`], so the §V-E host-DMA bottleneck is
//! modeled once.

use qgpu_device::timeline::{Engine, Lanes, TaskKind};
use qgpu_device::Counter;
use qgpu_faults::{FaultInjector, FaultSite, RetryPolicy, SimError};
use qgpu_obs::Recorder;

use crate::config::SimConfig;

use super::middleware::Resilience;

/// A host↔device copy over GPU `.0`'s link: the shared host-DMA staging
/// engine, the link engine and the task kind all follow from it.
#[derive(Clone, Copy)]
pub(crate) enum Dir {
    Up(usize),
    Down(usize),
}

impl Dir {
    /// `(dma engine, link engine, kind, gpu)`.
    fn route(self) -> (Engine, Engine, TaskKind, usize) {
        match self {
            Dir::Up(g) => (Engine::HostDmaOut, Engine::H2d(g), TaskKind::H2dCopy, g),
            Dir::Down(g) => (Engine::HostDmaIn, Engine::D2h(g), TaskKind::D2hCopy, g),
        }
    }
}

/// Schedules a CPU↔GPU copy: the transfer holds its per-GPU link engine
/// for `bytes/link_bw` *and* reserves the shared host-DRAM DMA path for
/// `bytes/copy_bw`, so aggregate traffic across all GPUs never exceeds
/// what host memory can stage (the paper's §V-E observation that CPU↔GPU
/// movement, not GPU↔GPU links, bounds multi-GPU scaling).
#[inline]
pub(crate) fn copy_with_dma(
    tl: &mut Lanes,
    cfg: &SimConfig,
    dir: Dir,
    ready: f64,
    bytes: u64,
    link_stretch: f64,
) -> qgpu_device::Span {
    let (dma_engine, link_engine, kind, gpu) = dir.route();
    let dma_s = bytes as f64 / cfg.platform.host.copy_bw;
    let dma = tl.schedule(dma_engine, ready, dma_s, TaskKind::HostDma, 0);
    let link_s = cfg.platform.link(gpu).transfer_time(bytes) * link_stretch;
    tl.schedule(link_engine, dma.start, link_s, kind, bytes)
}

/// [`copy_with_dma`] under integrity checking: after each modeled
/// transfer the injector decides whether the arrival CRC matched. A
/// mismatch costs a [`TaskKind::Backoff`] span on the link engine and a
/// full retransmit; after `max_retries` consumed attempts the transfer is
/// abandoned with [`SimError::ChunkCorrupt`]. With `resil == None` this
/// is exactly `copy_with_dma`.
#[inline]
pub(crate) fn transfer_with_integrity(
    tl: &mut Lanes,
    cfg: &SimConfig,
    dir: Dir,
    ready: f64,
    bytes: u64,
    resil: Option<&mut Resilience>,
    rec: Option<&Recorder>,
) -> Result<qgpu_device::Span, SimError> {
    match resil {
        None => Ok(copy_with_dma(tl, cfg, dir, ready, bytes, 1.0)),
        Some(rs) => retrying_transfer(tl, cfg, dir, ready, bytes, rs, rec),
    }
}

/// [`transfer_with_integrity`] with the injector armed.
#[inline(never)]
fn retrying_transfer(
    tl: &mut Lanes,
    cfg: &SimConfig,
    dir: Dir,
    mut ready: f64,
    bytes: u64,
    rs: &mut Resilience,
    rec: Option<&Recorder>,
) -> Result<qgpu_device::Span, SimError> {
    let index = rs.transfers;
    rs.transfers += 1;
    // Every retry of the same transfer sees the same degraded link.
    let stretch = link_stretch(&rs.inj, index, tl, rec);
    let retry = RetryPolicy::default();
    let mut attempt: u32 = 0;
    loop {
        let span = copy_with_dma(tl, cfg, dir, ready, bytes, stretch);
        if !rs
            .inj
            .fires_attempt(FaultSite::TransferCorrupt, index, attempt)
        {
            return Ok(span);
        }
        if attempt >= retry.max_retries {
            return Err(SimError::ChunkCorrupt {
                chunk: index as usize,
                attempts: attempt + 1,
            });
        }
        // Arrival CRC mismatched: back off (modeled), then retransmit.
        // Seeded jitter keyed by the transfer index decorrelates
        // simultaneous per-device retries (bare exponential backoff
        // resynchronizes them into retry storms) while keeping replay
        // under a fixed seed bit-exact.
        let b = tl.schedule(
            dir.route().1,
            span.end,
            retry.jittered_backoff_s(rs.inj.config().seed ^ index, attempt),
            TaskKind::Backoff,
            0,
        );
        tl.count(Counter::ChunkRetries, 1);
        if let Some(r) = rec {
            r.flight("retry", || {
                format!("transfer {index} CRC mismatch, attempt {}", attempt + 1)
            });
        }
        ready = b.end;
        attempt += 1;
    }
}

/// The injected link stretch of transfer `index` (a mode's own count of
/// its transfers), counted and logged when the link degrades.
pub(crate) fn link_stretch(
    inj: &FaultInjector,
    index: u64,
    tl: &mut Lanes,
    rec: Option<&Recorder>,
) -> f64 {
    let stretch = inj.link_stretch(index);
    if stretch > 1.0 {
        tl.count(Counter::LinkDegradations, 1);
        if let Some(r) = rec {
            r.flight("link_degraded", || {
                format!("transfer {index} stretched {stretch:.2}x")
            });
        }
    }
    stretch
}
