//! Resilient multi-device orchestration: epoch-based sharding, device
//! loss, straggler work-stealing, and memory-pressure degradation.
//!
//! [`DeviceGroup`] generalizes [`crate::residency::RoundRobin`] into a
//! scheduler that survives runtime disruption. Chunk tasks are dealt
//! round-robin over the *alive* device list; when a device drops out the
//! group enters a new epoch, re-shards the dead device's outstanding work
//! onto survivors, and hands the engine a replay log bounded by the last
//! checkpoint barrier. A per-device *pace* comparison (EMA of modeled
//! kernel seconds per byte) with hysteresis steals work from stragglers,
//! and [`PressureGovernor`] ratchets through
//! a degradation ladder (shrink chunks → force compression → spill
//! oldest) when a chunk-residency budget is exceeded.
//!
//! Every decision is a pure function of `(seed, epoch, device, chunk)`:
//! the assignment for task `t` depends only on the alive set, the epoch
//! rotation (seeded), and backlog values derived from the deterministic
//! modeled timeline — never on wall-clock time or thread interleaving —
//! so any fleet size and thread count reproduces identically.
//!
//! # Examples
//!
//! ```
//! use qgpu_sched::devicegroup::{DeviceGroup, OrchestratorConfig};
//!
//! let mut group = DeviceGroup::new(4, OrchestratorConfig::default());
//! // Epoch 0 deals exactly like RoundRobin — fault-free runs are
//! // bit-identical to the unorchestrated scheduler.
//! assert_eq!((0..8).map(|t| group.owner_of(t)).collect::<Vec<_>>(),
//!            vec![0, 1, 2, 3, 0, 1, 2, 3]);
//! let replay = group.lose_device(2).expect("survivors remain");
//! assert!(replay.is_empty()); // nothing recorded since the last barrier
//! assert_eq!(group.alive_devices(), 3);
//! assert!((0..9).all(|t| group.owner_of(t) != 2));
//! ```

use serde::{Deserialize, Serialize};

/// Tuning knobs for the [`DeviceGroup`] orchestrator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OrchestratorConfig {
    /// Seed folded into every epoch re-shard rotation. Runs that share a
    /// seed shard identically at every epoch.
    pub seed: u64,
    /// Per-device chunk-residency budget in bytes. `None` leaves the
    /// device's modeled memory as the only cap.
    pub mem_budget_bytes: Option<u64>,
}

/// Multiple of the fleet's fastest per-byte pace a device's own pace may
/// reach before it counts as a straggler. Identical modeled devices
/// execute at identical pace regardless of how unevenly their queues
/// drain, so no healthy run ever migrates work; a device slowed beyond
/// the factor (e.g. an injected 8x straggler) crosses it as soon as its
/// pace estimate converges.
pub const STEAL_HYSTERESIS: f64 = 4.0;

/// Consecutive straggler observations required before work actually
/// moves — the temporal half of the hysteresis.
pub const STEAL_PATIENCE: u32 = 3;

/// Program ops between checkpoint barriers. The barrier bounds how much
/// work replays after a device loss.
pub const BARRIER_INTERVAL: u64 = 16;

/// One unit of work recorded since the last barrier, replayed on a
/// survivor if the recording device is lost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayTask {
    /// Modeled kernel seconds the task cost.
    pub duration: f64,
    /// Bytes that must re-cross the host link to restore the partition.
    pub bytes: u64,
}

/// `splitmix64`, as used by the fault injector: the epoch rotation must
/// be a pure function of `(seed, epoch)` so every rank recomputes the
/// same re-shard independently.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every this-many flagged tasks, one is left on the straggler as a
/// probe: without it a flagged device receives no work, its pace EMA
/// freezes, and a transient slowdown would quarantine it forever.
pub const STEAL_PROBE_INTERVAL: u32 = 8;

/// The pace EMA samples every this-many completed tasks per device. A
/// smoothed estimator does not need every observation, and engines
/// complete millions of chunk tasks — sampling keeps the record path to
/// a counter bump and a replay-log push without delaying detection
/// meaningfully (a straggler is flagged within tens of tasks either
/// way).
pub const PACE_SAMPLE_INTERVAL: u32 = 8;

/// The resilient multi-device scheduler.
#[derive(Debug, Clone)]
pub struct DeviceGroup {
    cfg: OrchestratorConfig,
    alive: Vec<bool>,
    alive_list: Vec<usize>,
    epoch: u64,
    rotation: usize,
    /// Consecutive times each device looked like a straggler.
    over_count: Vec<u32>,
    /// Per-device exponential moving average of modeled kernel seconds
    /// per byte — the pace the steal hysteresis compares. Pace is a
    /// property of the device, not of its queue, so it is immune to the
    /// backlog spread that round-robin dealing of heterogeneous task
    /// sizes produces on a perfectly healthy fleet.
    pace: Vec<f64>,
    /// Cached fleet-level verdict of the pace comparison, recomputed
    /// only when a pace EMA moves ([`DeviceGroup::record_task`]). While
    /// false — every healthy run — [`DeviceGroup::assign`] is a pure
    /// round-robin lookup and callers may skip gathering backlogs, so
    /// orchestration stays off the per-task hot path.
    steal_armed: bool,
    /// Per-device completed-task counts driving the pace sampling.
    records: Vec<u32>,
    /// Whether [`DeviceGroup::record_task`] appends to the replay logs.
    /// The logs exist solely so [`DeviceGroup::lose_device`] can hand
    /// back since-barrier work; when device loss is impossible (no
    /// device faults configured) the millions of per-task pushes are
    /// pure overhead and callers disable them.
    track_replay: bool,
    since_barrier: Vec<Vec<ReplayTask>>,
    devices_lost: u64,
    chunks_migrated: u64,
    steals: u64,
}

impl DeviceGroup {
    /// Creates a group over `num_devices` modeled devices, all alive.
    ///
    /// # Panics
    ///
    /// Panics if `num_devices == 0`.
    pub fn new(num_devices: usize, cfg: OrchestratorConfig) -> Self {
        assert!(num_devices > 0, "need at least one device");
        DeviceGroup {
            cfg,
            alive: vec![true; num_devices],
            alive_list: (0..num_devices).collect(),
            epoch: 0,
            rotation: 0,
            over_count: vec![0; num_devices],
            pace: vec![0.0; num_devices],
            steal_armed: false,
            records: vec![0; num_devices],
            track_replay: true,
            since_barrier: vec![Vec::new(); num_devices],
            devices_lost: 0,
            chunks_migrated: 0,
            steals: 0,
        }
    }

    /// Devices still alive.
    pub fn alive_devices(&self) -> usize {
        self.alive_list.len()
    }

    /// Whether `device` is still alive.
    pub fn is_alive(&self, device: usize) -> bool {
        self.alive[device]
    }

    /// The current re-shard epoch (bumps on every device loss).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Devices lost so far.
    pub fn devices_lost(&self) -> u64 {
        self.devices_lost
    }

    /// Chunk tasks migrated off lost devices (replayed on survivors).
    pub fn chunks_migrated(&self) -> u64 {
        self.chunks_migrated
    }

    /// Chunk tasks stolen from stragglers.
    pub fn steals(&self) -> u64 {
        self.steals
    }

    /// The epoch-rotated round-robin owner of `task_index`. At epoch 0
    /// this is exactly `task_index % num_devices` — the same dealing as
    /// [`crate::residency::RoundRobin`] — so a fault-free run pays no
    /// placement difference for being orchestrated.
    pub fn owner_of(&self, task_index: usize) -> usize {
        self.alive_list[(task_index + self.rotation) % self.alive_list.len()]
    }

    /// Assigns `task_index` to a device, stealing from the round-robin
    /// owner when it has been a sustained straggler. `backlog[d]` is the
    /// modeled time at which device `d`'s compute engine next frees up —
    /// used only to pick the least-loaded victim (dead entries are
    /// ignored). Returns `(device, stolen)`.
    ///
    /// Straggling is judged by *pace*, not backlog: the owner's EMA of
    /// kernel seconds per byte must exceed the fleet's fastest pace by
    /// more than [`STEAL_HYSTERESIS`] for [`STEAL_PATIENCE`] consecutive
    /// observations. Identical devices run at identical pace however
    /// unevenly heterogeneous (e.g. compressed) task sizes spread their
    /// queues, so healthy runs never cross the threshold; a device whose
    /// kernels are stretched several-fold crosses it as soon as its EMA
    /// converges and sheds work to healthy peers. Every
    /// [`STEAL_PROBE_INTERVAL`]-th flagged task stays with the owner so
    /// a recovered device's pace estimate can converge back down.
    pub fn assign(&mut self, task_index: usize, backlog: &[f64]) -> (usize, bool) {
        let owner = self.owner_of(task_index);
        if !self.steal_armed {
            return (owner, false);
        }
        let fastest = self
            .alive_list
            .iter()
            .map(|&d| self.pace[d])
            .filter(|&p| p > 0.0)
            .fold(f64::INFINITY, f64::min);
        let limit = STEAL_HYSTERESIS * fastest;
        if self.pace[owner] > limit {
            self.over_count[owner] = self.over_count[owner].saturating_add(1);
            let flagged = self.over_count[owner].saturating_sub(STEAL_PATIENCE);
            if flagged > 0 && !flagged.is_multiple_of(STEAL_PROBE_INTERVAL) {
                // Deterministic victim: least-loaded alive device whose
                // own pace is healthy, lowest index winning ties.
                let mut target = owner;
                for &d in &self.alive_list {
                    if d == owner || self.pace[d] > limit {
                        continue;
                    }
                    if target == owner || backlog[d] < backlog[target] {
                        target = d;
                    }
                }
                if target != owner {
                    self.steals += 1;
                    return (target, true);
                }
            }
        } else {
            self.over_count[owner] = 0;
        }
        (owner, false)
    }

    /// Whether the pace comparison currently flags any device. While
    /// false, [`DeviceGroup::assign`] never steals and ignores `backlog`
    /// entirely, so callers can skip collecting it.
    pub fn steal_armed(&self) -> bool {
        self.steal_armed
    }

    /// Records a completed task: `duration` is the task's pure modeled
    /// service time on the device (queueing excluded — pace must measure
    /// the device, not its backlog), which feeds the per-device pace EMA
    /// (sampled every [`PACE_SAMPLE_INTERVAL`]-th task) and the
    /// since-barrier replay log for `device`.
    pub fn record_task(&mut self, device: usize, duration: f64, bytes: u64) {
        let n = self.records[device];
        self.records[device] = n.wrapping_add(1);
        if duration > 0.0 && bytes > 0 && n.is_multiple_of(PACE_SAMPLE_INTERVAL) {
            let pace = duration / bytes as f64;
            self.pace[device] = if self.pace[device] == 0.0 {
                pace
            } else {
                0.8 * self.pace[device] + 0.2 * pace
            };
            self.rearm();
        }
        if self.track_replay {
            self.since_barrier[device].push(ReplayTask { duration, bytes });
        }
    }

    /// Enables or disables the since-barrier replay logs. Disable only
    /// when device loss cannot occur; a loss with tracking off replays
    /// nothing (the log is empty).
    pub fn set_replay_tracking(&mut self, on: bool) {
        self.track_replay = on;
        if !on {
            for log in &mut self.since_barrier {
                log.clear();
            }
        }
    }

    /// Recomputes the cached [`DeviceGroup::steal_armed`] verdict after a
    /// pace EMA moved or the alive set changed.
    fn rearm(&mut self) {
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        for &d in &self.alive_list {
            let p = self.pace[d];
            if p > 0.0 {
                min = min.min(p);
                max = max.max(p);
            }
        }
        let armed = self.alive_list.len() >= 2 && max > STEAL_HYSTERESIS * min;
        if self.steal_armed && !armed {
            // Disarming forgets partial straggler verdicts: patience must
            // restart from zero if the fleet degrades again.
            self.over_count.fill(0);
        }
        self.steal_armed = armed;
    }

    /// Marks a checkpoint barrier: all partitions are durable on the
    /// host, so the replay logs reset and a later loss replays only work
    /// past this point.
    pub fn barrier(&mut self) {
        for log in &mut self.since_barrier {
            log.clear();
        }
    }

    /// Removes `device` from the fleet and starts a new epoch. Returns
    /// the device's since-barrier replay log — the work survivors must
    /// redo — or `None` when no survivor remains (or the device was
    /// already dead, which loses nothing new).
    ///
    /// The new epoch's rotation is `mix(seed ^ epoch) % alive`, a pure
    /// function of `(seed, epoch)`, so every fleet size and thread count
    /// re-shards identically.
    pub fn lose_device(&mut self, device: usize) -> Option<Vec<ReplayTask>> {
        if !self.alive[device] || self.alive_list.len() == 1 {
            return if self.alive[device] {
                None
            } else {
                Some(Vec::new())
            };
        }
        self.alive[device] = false;
        self.alive_list = (0..self.alive.len()).filter(|&d| self.alive[d]).collect();
        self.epoch += 1;
        self.rotation = (mix(self.cfg.seed ^ self.epoch) % self.alive_list.len() as u64) as usize;
        self.devices_lost += 1;
        self.over_count[device] = 0;
        self.rearm();
        let replay = std::mem::take(&mut self.since_barrier[device]);
        self.chunks_migrated += replay.len() as u64;
        Some(replay)
    }
}

/// One rung of the memory-pressure degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PressureAction {
    /// Halve the chunk size so residency quantizes finer and the
    /// minimum working set shrinks.
    ShrinkChunks,
    /// Force GFC compression on (even for versions that would not
    /// compress) so transfers drain faster and buffers turn over sooner.
    ForceCompress,
    /// Steady state: keep spilling the oldest-resident chunks to honor
    /// the budget; no further relief is available.
    SpillOldest,
}

/// The memory-pressure governor: admission control against a per-device
/// residency budget plus the stepwise degradation ladder.
///
/// The budget itself is enforced *immediately* by capping how many
/// chunks may be resident (spilling the oldest first); the ladder is the
/// relief valve for sustained pressure — each escalation trades
/// throughput for headroom instead of failing the run.
#[derive(Debug, Clone)]
pub struct PressureGovernor {
    budget: u64,
    level: u8,
    strikes: u32,
    downshifts: u64,
    spills: u64,
}

/// Consecutive pressured admissions before the ladder escalates a rung.
pub const STRIKES_PER_LEVEL: u32 = 8;

impl PressureGovernor {
    /// Creates a governor enforcing `budget` bytes of chunk residency
    /// per device.
    pub fn new(budget: u64) -> Self {
        PressureGovernor {
            budget,
            level: 0,
            strikes: 0,
            downshifts: 0,
            spills: 0,
        }
    }

    /// The configured budget in bytes.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Ladder escalations taken so far.
    pub fn downshifts(&self) -> u64 {
        self.downshifts
    }

    /// Chunks spilled to honor the budget.
    pub fn spills(&self) -> u64 {
        self.spills
    }

    /// The maximum whole chunks of `chunk_bytes` resident on one device
    /// under the budget, floored at `floor` — one task's working set
    /// must always fit or no forward progress is possible (the
    /// documented budget floor).
    pub fn cap_chunks(&self, chunk_bytes: u64, floor: usize) -> usize {
        ((self.budget / chunk_bytes.max(1)) as usize).max(floor)
    }

    /// Records that admission hit the budget and had to spill. After
    /// [`STRIKES_PER_LEVEL`] consecutive pressured admissions the ladder
    /// escalates one rung and returns the action to take; `can_shrink` /
    /// `can_compress` skip rungs that have no effect left (chunks at
    /// minimum size, compression already on).
    pub fn on_pressure(&mut self, can_shrink: bool, can_compress: bool) -> Option<PressureAction> {
        self.spills += 1;
        self.strikes += 1;
        if self.strikes < STRIKES_PER_LEVEL {
            return None;
        }
        self.strikes = 0;
        loop {
            match self.level {
                0 => {
                    self.level = 1;
                    if can_shrink {
                        self.downshifts += 1;
                        return Some(PressureAction::ShrinkChunks);
                    }
                }
                1 => {
                    self.level = 2;
                    if can_compress {
                        self.downshifts += 1;
                        return Some(PressureAction::ForceCompress);
                    }
                }
                2 => {
                    self.level = 3;
                    self.downshifts += 1;
                    return Some(PressureAction::SpillOldest);
                }
                _ => return None,
            }
        }
    }

    /// Records admissions that fit under the budget; sustained relief
    /// resets the strike counter so brief spikes do not ratchet the
    /// ladder.
    pub fn on_relief(&mut self) {
        self.strikes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_zero_matches_round_robin() {
        let group = DeviceGroup::new(3, OrchestratorConfig::default());
        for t in 0..30 {
            assert_eq!(group.owner_of(t), t % 3);
        }
    }

    #[test]
    fn healthy_fleet_never_steals_even_with_uneven_backlogs() {
        let mut group = DeviceGroup::new(4, OrchestratorConfig::default());
        // Heterogeneous task sizes spread queues arbitrarily on a
        // healthy fleet — every device still runs at the same pace, so
        // assignment must stay pure round-robin.
        let mut backlog = [0.0f64; 4];
        for t in 0..1000 {
            let (d, stolen) = group.assign(t, &backlog);
            assert!(!stolen);
            assert_eq!(d, t % 4, "healthy assignment must stay round-robin");
            // Task sizes vary 1x..8x, but seconds-per-byte is constant.
            let bytes = 64 * (1 + (t % 8) as u64);
            backlog[d] += bytes as f64;
            group.record_task(d, bytes as f64, bytes);
        }
        assert_eq!(group.steals(), 0);
    }

    #[test]
    fn sustained_straggler_sheds_work() {
        let mut group = DeviceGroup::new(4, OrchestratorConfig::default());
        let mut backlog = [0.0f64; 4];
        let mut stolen_any = false;
        let mut probes = 0u32;
        for t in 0..4000 {
            let (d, stolen) = group.assign(t, &backlog);
            stolen_any |= stolen;
            if stolen {
                assert_ne!(d, 1, "steals must land on a non-straggler");
            } else if d == 1 && t >= 4 {
                probes += 1;
            }
            // Device 1 runs 8x slow; record the real service time so the
            // pace EMA sees the slowdown.
            let cost = if d == 1 { 8.0 } else { 1.0 };
            backlog[d] += cost;
            group.record_task(d, cost, 64);
        }
        assert!(stolen_any, "an 8x straggler must shed work");
        assert!(group.steals() > 0);
        assert!(probes > 0, "flagged straggler must still get probe tasks");
        // Mitigation bounds the divergence: unmitigated, device 1 would
        // sit ~7000s behind (1000 tasks x 7s extra); with stealing the
        // spread stays a small fraction of that.
        let max = backlog.iter().cloned().fold(0.0, f64::max);
        let min = backlog.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max - min < 1500.0, "backlog spread {max}-{min} unbounded");
    }

    #[test]
    fn recovered_straggler_rejoins_the_rotation() {
        let mut group = DeviceGroup::new(2, OrchestratorConfig::default());
        let backlog = [0.0f64; 2];
        // Converge both paces, device 1 slow.
        for t in 0..200 {
            let (d, _) = group.assign(t, &backlog);
            group.record_task(d, if d == 1 { 8.0 } else { 1.0 }, 64);
        }
        assert!(group.steals() > 0, "slow phase must steal");
        let steals_after_slow = group.steals();
        // Device 1 recovers: probe tasks pull its EMA back down.
        for t in 200..2000 {
            let (d, _) = group.assign(t, &backlog);
            group.record_task(d, 1.0, 64);
        }
        let late_steals = group.steals();
        for t in 2000..2100 {
            let (d, stolen) = group.assign(t, &backlog);
            assert!(!stolen, "recovered device must not be stolen from");
            assert_eq!(d, t % 2);
            group.record_task(d, 1.0, 64);
        }
        assert_eq!(group.steals(), late_steals);
        assert!(late_steals >= steals_after_slow);
    }

    #[test]
    fn loss_reshards_onto_survivors_deterministically() {
        let cfg = OrchestratorConfig {
            seed: 42,
            ..OrchestratorConfig::default()
        };
        let mut a = DeviceGroup::new(4, cfg);
        let mut b = DeviceGroup::new(4, cfg);
        a.record_task(2, 1.0, 64);
        a.record_task(2, 1.0, 64);
        b.record_task(2, 1.0, 64);
        b.record_task(2, 1.0, 64);
        let ra = a.lose_device(2).expect("survivors");
        let rb = b.lose_device(2).expect("survivors");
        assert_eq!(ra, rb);
        assert_eq!(ra.len(), 2);
        assert_eq!(a.devices_lost(), 1);
        assert_eq!(a.chunks_migrated(), 2);
        assert_eq!(a.epoch(), 1);
        for t in 0..64 {
            let d = a.owner_of(t);
            assert_ne!(d, 2);
            assert_eq!(d, b.owner_of(t), "re-shard must be seed-deterministic");
        }
    }

    #[test]
    fn barrier_bounds_replay() {
        let mut group = DeviceGroup::new(2, OrchestratorConfig::default());
        group.record_task(0, 1.0, 64);
        group.barrier();
        group.record_task(0, 2.0, 64);
        let replay = group.lose_device(0).expect("survivor");
        assert_eq!(replay.len(), 1, "only post-barrier work replays");
        assert_eq!(replay[0].duration, 2.0);
    }

    #[test]
    fn last_device_cannot_be_lost() {
        let mut group = DeviceGroup::new(2, OrchestratorConfig::default());
        assert!(group.lose_device(0).is_some());
        assert!(group.lose_device(1).is_none(), "no survivors remain");
        assert!(group.is_alive(1));
        // Losing an already-dead device is a no-op, not a new epoch.
        assert_eq!(group.lose_device(0), Some(Vec::new()));
        assert_eq!(group.epoch(), 1);
    }

    #[test]
    fn governor_caps_and_floors() {
        let gov = PressureGovernor::new(1024);
        assert_eq!(gov.cap_chunks(256, 1), 4);
        assert_eq!(gov.cap_chunks(4096, 2), 2, "floor keeps one task feasible");
    }

    #[test]
    fn governor_ladder_escalates_in_order() {
        let mut gov = PressureGovernor::new(1024);
        let mut actions = Vec::new();
        for _ in 0..(STRIKES_PER_LEVEL * 4) {
            if let Some(a) = gov.on_pressure(true, true) {
                actions.push(a);
            }
        }
        assert_eq!(
            actions,
            vec![
                PressureAction::ShrinkChunks,
                PressureAction::ForceCompress,
                PressureAction::SpillOldest,
            ]
        );
        assert_eq!(gov.downshifts(), 3);
        assert_eq!(gov.spills(), (STRIKES_PER_LEVEL * 4) as u64);
    }

    #[test]
    fn governor_skips_exhausted_rungs() {
        let mut gov = PressureGovernor::new(1024);
        let mut actions = Vec::new();
        for _ in 0..(STRIKES_PER_LEVEL * 3) {
            if let Some(a) = gov.on_pressure(false, false) {
                actions.push(a);
            }
        }
        assert_eq!(actions, vec![PressureAction::SpillOldest]);
        assert_eq!(gov.downshifts(), 1);
    }

    #[test]
    fn governor_relief_resets_strikes() {
        let mut gov = PressureGovernor::new(1024);
        for _ in 0..(STRIKES_PER_LEVEL - 1) {
            assert_eq!(gov.on_pressure(true, true), None);
        }
        gov.on_relief();
        for _ in 0..(STRIKES_PER_LEVEL - 1) {
            assert_eq!(gov.on_pressure(true, true), None, "spike must not ratchet");
        }
    }
}
