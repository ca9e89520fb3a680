//! The deterministic, seeded fault injector.
//!
//! Every decision is a pure function of `(seed, site, index, attempt)`:
//! the injector carries no mutable state, so concurrent workers can share
//! one instance, and a run with a given seed injects *exactly* the same
//! faults regardless of thread count, pipeline interleaving, or how many
//! times a site re-asks (retries bump `attempt` explicitly). That
//! determinism is what lets the fault-injection tests assert bit-exact
//! recovery instead of "it usually works".

use serde::{Deserialize, Serialize};

/// Where in the pipeline a fault can strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A chunk transfer (H2D or D2H) delivers corrupted bytes; detected
    /// by the CRC verification on arrival.
    TransferCorrupt,
    /// The GFC encoder fails on a chunk; the pipeline falls back to raw
    /// (uncompressed) transfer.
    CodecFail,
    /// The involvement mask for a gate reads back corrupted; the pruning
    /// decision is untrustworthy and the pipeline falls back to
    /// full-chunk execution for that gate.
    MaskCorrupt,
    /// A worker dies at hand-off, before touching its piece of a
    /// dispatch; the executor re-runs the piece serially and counts a
    /// restart. (A genuine panic in a piece is
    /// [`crate::SimError::WorkerLost`] instead.)
    WorkerDeath,
    /// A host-device link degrades for one transfer occurrence (PCIe
    /// retraining, oversubscribed switch); the transfer completes but at
    /// [`LINK_DEGRADE_FACTOR`] times the nominal cost.
    LinkDegraded,
    /// A bit flips inside a kernel's *output amplitudes* — silent data
    /// corruption the transfer CRCs cannot see, because the corrupted
    /// value is what gets checksummed. Only the ABFT invariant checks
    /// (`qgpu-faults::invariant`) can catch it.
    KernelFlip,
}

impl FaultSite {
    fn salt(self) -> u64 {
        match self {
            FaultSite::TransferCorrupt => 0x7472_616e_7366_6572, // "transfer"
            FaultSite::CodecFail => 0x6370_6f64_6563_0000,       // "codec"
            FaultSite::MaskCorrupt => 0x6d61_736b_0000_0000,     // "mask"
            FaultSite::WorkerDeath => 0x776f_726b_6572_0000,     // "worker"
            FaultSite::LinkDegraded => 0x6c69_6e6b_0000_0000,    // "link"
            FaultSite::KernelFlip => 0x6b66_6c69_7000_0000,      // "kflip"
        }
    }
}

/// Modeled-time multiplier on a transfer when the link degrades.
pub const LINK_DEGRADE_FACTOR: f64 = 4.0;

/// Per-stage fault probabilities plus the seed. All probabilities default
/// to zero — a default config injects nothing and the pipeline only pays
/// for the integrity checks it would run anyway.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed for every injection decision.
    pub seed: u64,
    /// Probability a chunk transfer delivers corrupted bytes.
    pub p_transfer_corrupt: f64,
    /// Probability a GFC encode fails on a chunk.
    pub p_codec_fail: f64,
    /// Probability a gate's involvement mask reads back corrupted.
    pub p_mask_corrupt: f64,
    /// Probability a worker dispatch loses a thread.
    pub p_worker_death: f64,
    /// Kernel-time multiplier on the pinned
    /// [`FaultConfig::straggler_device`].
    pub slowdown_factor: f64,
    /// Inject an unrecoverable [`crate::SimError::Fatal`] at this
    /// program-op index (`usize::MAX` = never) — the deterministic hook
    /// the checkpoint-resume tests kill the run with.
    pub fail_at_gate: usize,
    /// Deterministically lose [`FaultConfig::device_lost_id`] at this
    /// program-op index (`usize::MAX` = never) — the hook the re-shard
    /// tests and the CI smoke job kill a device with.
    pub device_lost_at: usize,
    /// Which device [`FaultConfig::device_lost_at`] takes down.
    pub device_lost_id: usize,
    /// Probability a transfer occurrence runs over a degraded link.
    pub p_link_degraded: f64,
    /// Pin one device as a persistent straggler: every kernel it runs is
    /// stretched by [`FaultConfig::slowdown_factor`] (`usize::MAX` =
    /// none).
    pub straggler_device: usize,
    /// Probability a kernel occurrence flips a bit in its output
    /// amplitudes (drawn per `(op, attempt)`, so re-execution converges
    /// like real transient SDC).
    pub p_kernel_flip: f64,
    /// First program-op index of a deterministic kernel-flip window
    /// (`usize::MAX` = never) — the hook the detection tests and the CI
    /// smoke job corrupt a kernel with.
    pub kernel_flip_at: usize,
    /// How many consecutive unitary ops starting at
    /// [`FaultConfig::kernel_flip_at`] get flipped (minimum 1). Several
    /// flips in a row are what drive one device's health score into
    /// quarantine.
    pub kernel_flip_count: u32,
    /// How many re-execution attempts the deterministic flip persists
    /// for (minimum 1). `1` models a transient — the same-device retry
    /// already comes back clean; `2` models a sticky lane fault that
    /// forces escalation to a different device.
    pub kernel_flip_attempts: u32,
    /// Which bit of the amplitude's real-component f64 to flip
    /// (default 62, the exponent MSB — loud). Lower bits probe the
    /// detection-coverage floor.
    pub kernel_flip_bit: u32,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            p_transfer_corrupt: 0.0,
            p_codec_fail: 0.0,
            p_mask_corrupt: 0.0,
            p_worker_death: 0.0,
            slowdown_factor: 4.0,
            fail_at_gate: usize::MAX,
            device_lost_at: usize::MAX,
            device_lost_id: 0,
            p_link_degraded: 0.0,
            straggler_device: usize::MAX,
            p_kernel_flip: 0.0,
            kernel_flip_at: usize::MAX,
            kernel_flip_count: 1,
            kernel_flip_attempts: 1,
            kernel_flip_bit: 62,
        }
    }
}

impl FaultConfig {
    /// True when any fault can fire under this config.
    pub fn any_enabled(&self) -> bool {
        self.p_transfer_corrupt > 0.0
            || self.p_codec_fail > 0.0
            || self.p_mask_corrupt > 0.0
            || self.p_worker_death > 0.0
            || self.fail_at_gate != usize::MAX
            || self.device_faults_enabled()
            || self.kernel_faults_enabled()
    }

    /// True when a kernel bit-flip can fire — the engines arm the
    /// integrity middleware (snapshot + re-execution) whenever this
    /// holds, even if `--verify-invariants` was not asked for.
    pub fn kernel_faults_enabled(&self) -> bool {
        self.p_kernel_flip > 0.0 || self.kernel_flip_at != usize::MAX
    }

    /// True when any fleet-level fault can fire — device loss, link
    /// degradation, or a pinned straggler. The engines use this to bring
    /// the orchestration layer up even without an explicit
    /// orchestrator config.
    pub fn device_faults_enabled(&self) -> bool {
        self.device_lost_at != usize::MAX
            || self.p_link_degraded > 0.0
            || self.straggler_device != usize::MAX
    }
}

/// The injector: a [`FaultConfig`] with decision methods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInjector {
    cfg: FaultConfig,
}

// All draws go through the workspace-wide splitmix64 primitive: one
// keyed-hash discipline shared with noise insertion, measurement
// collapse, and shot sampling (`qgpu_math::rng`), byte-identical to
// the local implementation this crate used before the hoist.
use qgpu_math::rng::unit_draw;

impl FaultInjector {
    /// Wraps a config into an injector.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultInjector { cfg }
    }

    /// The underlying configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Decides whether a fault fires at `site` for occurrence `index`
    /// (first attempt).
    pub fn fires(&self, site: FaultSite, index: u64) -> bool {
        self.fires_attempt(site, index, 0)
    }

    /// Decides whether a fault fires at `site` for occurrence `index`,
    /// `attempt` retries in. Each attempt draws independently, so a
    /// corrupted transfer's retry succeeds with probability `1 - p` —
    /// retries converge exactly as they would on real hardware.
    pub fn fires_attempt(&self, site: FaultSite, index: u64, attempt: u32) -> bool {
        let p = match site {
            FaultSite::TransferCorrupt => self.cfg.p_transfer_corrupt,
            FaultSite::CodecFail => self.cfg.p_codec_fail,
            FaultSite::MaskCorrupt => self.cfg.p_mask_corrupt,
            FaultSite::WorkerDeath => self.cfg.p_worker_death,
            FaultSite::LinkDegraded => self.cfg.p_link_degraded,
            FaultSite::KernelFlip => self.cfg.p_kernel_flip,
        };
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        unit_draw(self.cfg.seed, site.salt(), index, attempt as u64) < p
    }

    /// The link-time multiplier for transfer occurrence `index`: the
    /// configured degrade factor when [`FaultSite::LinkDegraded`] fires,
    /// 1.0 otherwise.
    pub fn link_stretch(&self, index: u64) -> f64 {
        if self.fires(FaultSite::LinkDegraded, index) {
            LINK_DEGRADE_FACTOR
        } else {
            1.0
        }
    }

    /// Decides whether kernel occurrence `op` flips an output bit on
    /// re-execution attempt `attempt` (0 = first run).
    ///
    /// The deterministic window (`kernel_flip_at` .. `+ kernel_flip_count`)
    /// persists for the first `kernel_flip_attempts` attempts, then
    /// clears — so a transient (1 attempt) is repaired by the
    /// same-device retry and a sticky fault (≥ 2) forces the
    /// cross-device escalation. The probabilistic site redraws per
    /// `(op, attempt)` like every other injector decision.
    pub fn kernel_flip_fires(&self, op: usize, attempt: u32) -> bool {
        if self.cfg.kernel_flip_at != usize::MAX {
            let lo = self.cfg.kernel_flip_at;
            let hi = lo.saturating_add(self.cfg.kernel_flip_count.max(1) as usize);
            if (lo..hi).contains(&op) && attempt < self.cfg.kernel_flip_attempts.max(1) {
                return true;
            }
        }
        self.fires_attempt(FaultSite::KernelFlip, op as u64, attempt)
    }

    /// Which bit of the amplitude's real-component f64 a firing kernel
    /// flip corrupts (clamped to the 0..=63 f64 bit range).
    pub fn kernel_flip_bit(&self) -> u32 {
        self.cfg.kernel_flip_bit.min(63)
    }

    /// The kernel-time multiplier for work placed on `device`: the
    /// slowdown factor when it is the pinned straggler, 1.0 otherwise.
    pub fn straggler_stretch(&self, device: usize) -> f64 {
        if self.cfg.straggler_device == device {
            self.cfg.slowdown_factor
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injector(p: f64, seed: u64) -> FaultInjector {
        FaultInjector::new(FaultConfig {
            seed,
            p_transfer_corrupt: p,
            p_codec_fail: p,
            ..FaultConfig::default()
        })
    }

    #[test]
    fn default_config_injects_nothing() {
        let inj = FaultInjector::new(FaultConfig::default());
        assert!(!FaultConfig::default().any_enabled());
        for i in 0..1000 {
            assert!(!inj.fires(FaultSite::TransferCorrupt, i));
            assert!(!inj.fires(FaultSite::WorkerDeath, i));
        }
    }

    #[test]
    fn decisions_are_deterministic_and_order_free() {
        let inj = injector(0.3, 42);
        let forward: Vec<bool> = (0..200)
            .map(|i| inj.fires(FaultSite::TransferCorrupt, i))
            .collect();
        let backward: Vec<bool> = (0..200)
            .rev()
            .map(|i| inj.fires(FaultSite::TransferCorrupt, i))
            .collect();
        let backward_reversed: Vec<bool> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward_reversed);
    }

    #[test]
    fn sites_draw_independently() {
        let inj = injector(0.5, 9);
        let transfer: Vec<bool> = (0..256)
            .map(|i| inj.fires(FaultSite::TransferCorrupt, i))
            .collect();
        let codec: Vec<bool> = (0..256)
            .map(|i| inj.fires(FaultSite::CodecFail, i))
            .collect();
        assert_ne!(transfer, codec, "sites must not share a decision stream");
    }

    #[test]
    fn rate_approximates_probability() {
        let inj = injector(0.1, 1234);
        let hits = (0..100_000)
            .filter(|&i| inj.fires(FaultSite::TransferCorrupt, i))
            .count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn attempts_redraw() {
        // With p = 0.5, some index that fires at attempt 0 must clear at
        // a later attempt — retries converge.
        let inj = injector(0.5, 7);
        let idx = (0..1000)
            .find(|&i| inj.fires(FaultSite::TransferCorrupt, i))
            .expect("some fault at p=0.5");
        assert!(
            (1..64).any(|a| !inj.fires_attempt(FaultSite::TransferCorrupt, idx, a)),
            "an attempt must eventually succeed"
        );
    }

    #[test]
    fn extreme_probabilities_clamp() {
        let always = FaultInjector::new(FaultConfig {
            p_worker_death: 1.0,
            ..FaultConfig::default()
        });
        let never = FaultInjector::new(FaultConfig {
            p_worker_death: 0.0,
            ..FaultConfig::default()
        });
        for i in 0..100 {
            assert!(always.fires(FaultSite::WorkerDeath, i));
            assert!(!never.fires(FaultSite::WorkerDeath, i));
        }
    }

    #[test]
    fn fatal_gate_matches_exactly() {
        let inj = FaultInjector::new(FaultConfig {
            fail_at_gate: 17,
            ..FaultConfig::default()
        });
        // A fatal op alone arms the resilient pipeline, not the fleet
        // or the invariant layers.
        let cfg = inj.config();
        assert!(cfg.any_enabled());
        assert!(!cfg.device_faults_enabled() && !cfg.kernel_faults_enabled());
    }

    #[test]
    fn device_faults_default_off() {
        let cfg = FaultConfig::default();
        assert!(!cfg.device_faults_enabled());
        let inj = FaultInjector::new(cfg);
        for d in 0..4 {
            assert_eq!(inj.straggler_stretch(d), 1.0);
        }
        assert_eq!(inj.link_stretch(0), 1.0);
    }

    #[test]
    fn deterministic_device_loss_hits_one_op() {
        let cfg = FaultConfig {
            device_lost_at: 9,
            device_lost_id: 2,
            ..FaultConfig::default()
        };
        assert!(cfg.any_enabled() && cfg.device_faults_enabled());
        assert!(!cfg.kernel_faults_enabled());
    }

    #[test]
    fn link_and_straggler_stretch_by_factor() {
        let inj = FaultInjector::new(FaultConfig {
            p_link_degraded: 1.0,
            straggler_device: 1,
            slowdown_factor: 3.0,
            ..FaultConfig::default()
        });
        assert_eq!(inj.link_stretch(5), LINK_DEGRADE_FACTOR);
        assert_eq!(inj.straggler_stretch(1), 3.0);
        assert_eq!(inj.straggler_stretch(0), 1.0);
    }

    #[test]
    fn kernel_flip_defaults_off() {
        let cfg = FaultConfig::default();
        assert!(!cfg.kernel_faults_enabled());
        let inj = FaultInjector::new(cfg);
        for op in 0..256 {
            assert!(!inj.kernel_flip_fires(op, 0));
        }
    }

    #[test]
    fn deterministic_kernel_flip_covers_window_then_clears() {
        let cfg = FaultConfig {
            kernel_flip_at: 5,
            kernel_flip_count: 3,
            kernel_flip_attempts: 1,
            ..FaultConfig::default()
        };
        assert!(cfg.kernel_faults_enabled() && cfg.any_enabled());
        let inj = FaultInjector::new(cfg);
        assert!(!inj.kernel_flip_fires(4, 0));
        for op in 5..8 {
            assert!(inj.kernel_flip_fires(op, 0), "op {op} in window");
            assert!(!inj.kernel_flip_fires(op, 1), "retry runs clean");
        }
        assert!(!inj.kernel_flip_fires(8, 0));
    }

    #[test]
    fn sticky_kernel_flip_persists_across_attempts() {
        let inj = FaultInjector::new(FaultConfig {
            kernel_flip_at: 2,
            kernel_flip_attempts: 2,
            ..FaultConfig::default()
        });
        assert!(inj.kernel_flip_fires(2, 0));
        assert!(inj.kernel_flip_fires(2, 1), "sticky fault survives retry");
        assert!(!inj.kernel_flip_fires(2, 2), "escalated re-run is clean");
    }

    #[test]
    fn probabilistic_kernel_flip_redraws_per_attempt() {
        let cfg = FaultConfig {
            seed: 13,
            p_kernel_flip: 0.5,
            ..FaultConfig::default()
        };
        assert!(cfg.kernel_faults_enabled());
        let inj = FaultInjector::new(cfg);
        let op = (0..1000)
            .find(|&op| inj.kernel_flip_fires(op, 0))
            .expect("some flip at p=0.5");
        assert!(
            (1..64).any(|a| !inj.kernel_flip_fires(op, a)),
            "a re-execution must eventually run clean"
        );
    }

    #[test]
    fn kernel_flip_bit_defaults_to_exponent_and_clamps() {
        let inj = FaultInjector::new(FaultConfig::default());
        assert_eq!(inj.kernel_flip_bit(), 62);
        let wild = FaultInjector::new(FaultConfig {
            kernel_flip_bit: 900,
            ..FaultConfig::default()
        });
        assert_eq!(wild.kernel_flip_bit(), 63);
    }
}
