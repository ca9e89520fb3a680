//! Per-device health scoring with quarantine, probation, and
//! reinstatement.
//!
//! A device that flips bits is worse than a device that dies: death is
//! loud (the orchestrator re-shards and moves on) while silent data
//! corruption keeps producing plausible-looking wrong answers. The
//! [`DeviceHealthBoard`] turns the integrity layer's per-device signals
//! — invariant violations and retries — into an exponential moving
//! average per device and walks a three-state machine:
//!
//! ```text
//!            score ≥ PROBATION_THRESHOLD        score ≥ QUARANTINE_THRESHOLD
//! Healthy ──────────────────────────▶ Probation ────────────────────────▶ Quarantined
//!    ▲                                    │                                   │
//!    │        score ≤ REINSTATE_THRESHOLD │            every PROBE_INTERVAL-th│
//!    └────────────────────────────────────┘            placement is a probe;  │
//!    ▲                                                 probes that succeed    │
//!    │   clean probes decay the score; score ≤         decay the score        │
//!    │   REINSTATE_THRESHOLD reinstates                                       │
//!    └────────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! A quarantined device whose score decays below the quarantine bar but
//! not yet to the reinstatement bar steps back to probation
//! ([`HealthTransition::Recovering`]).
//!
//! The board is pure bookkeeping — no clocks, no threads — so the same
//! sequence of recorded events always produces the same state, and both
//! the engine (modeled devices) and the serving layer (fleet slots) can
//! embed one.

/// A device's scheduling state on the board.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthState {
    /// Full confidence; schedule freely.
    Healthy,
    /// Elevated fault score; schedulable, but under watch.
    Probation,
    /// Fault score crossed the quarantine threshold; drained and only
    /// reachable through periodic probe placements.
    Quarantined,
}

impl HealthState {
    /// Stable label used in metrics and flight events.
    pub fn label(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Probation => "probation",
            HealthState::Quarantined => "quarantined",
        }
    }
}

/// What happened on the board as a result of recording an event —
/// callers turn these into flight events and metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthTransition {
    /// No state change.
    None,
    /// Healthy → Probation.
    Demoted,
    /// Quarantined → Probation: a step toward reinstatement.
    Recovering,
    /// Probation/Healthy → Quarantined.
    Quarantined,
    /// Quarantined/Probation → Healthy.
    Reinstated,
}

// The board's tuning. Two back-to-back violations quarantine (EMA after
// two 1.0 events at α = 0.5 is 0.75 ≥ 0.6); one violation alone only
// reaches probation (0.5); roughly four clean results after that decay
// the score under the reinstatement bar.

/// EMA smoothing factor: the weight of the newest event.
const ALPHA: f64 = 0.5;
/// Score an invariant violation contributes (the loudest signal — the
/// device computed a wrong answer).
const VIOLATION_WEIGHT: f64 = 1.0;
/// Score a recoverable retry contributes (the weaker signal).
const RETRY_WEIGHT: f64 = 0.3;
/// Score at or above which a device is quarantined.
const QUARANTINE_THRESHOLD: f64 = 0.6;
/// Score at or above which a healthy device enters probation.
const PROBATION_THRESHOLD: f64 = 0.35;
/// Score at or below which a probation/quarantined device is reinstated
/// to healthy.
const REINSTATE_THRESHOLD: f64 = 0.05;
/// While quarantined, every `PROBE_INTERVAL`-th placement query is
/// allowed through as a probe.
const PROBE_INTERVAL: u64 = 4;

#[derive(Debug, Clone)]
struct DeviceHealth {
    score: f64,
    state: HealthState,
    placements_denied: u64,
    violations: u64,
    retries: u64,
    successes: u64,
    quarantines: u64,
}

impl DeviceHealth {
    fn new() -> Self {
        DeviceHealth {
            score: 0.0,
            state: HealthState::Healthy,
            placements_denied: 0,
            violations: 0,
            retries: 0,
            successes: 0,
            quarantines: 0,
        }
    }
}

/// Immutable snapshot of one device's standing, for metrics export.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthSnapshot {
    /// Current EMA fault score.
    pub score: f64,
    /// Current scheduling state.
    pub state: HealthState,
    /// Invariant violations recorded against this device.
    pub violations: u64,
    /// Recoverable retries recorded.
    pub retries: u64,
    /// Times this device entered quarantine.
    pub quarantines: u64,
}

/// The per-device health scoreboard.
///
/// # Examples
///
/// ```
/// use qgpu_sched::health::{DeviceHealthBoard, HealthState, HealthTransition};
///
/// let mut board = DeviceHealthBoard::new(2);
/// assert!(board.schedulable(0));
/// // Two invariant violations in a row: device 0 goes to quarantine.
/// board.record_violation(0);
/// let t = board.record_violation(0);
/// assert_eq!(t, HealthTransition::Quarantined);
/// assert_eq!(board.state(0), HealthState::Quarantined);
/// assert!(!board.schedulable(0));
/// assert!(board.schedulable(1));
/// ```
#[derive(Debug, Clone)]
pub struct DeviceHealthBoard {
    devices: Vec<DeviceHealth>,
}

impl DeviceHealthBoard {
    /// A board for `num_devices` devices, all healthy.
    pub fn new(num_devices: usize) -> Self {
        DeviceHealthBoard {
            devices: (0..num_devices).map(|_| DeviceHealth::new()).collect(),
        }
    }

    /// Number of devices tracked.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True when the board tracks no devices.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    fn fold(&mut self, device: usize, event_score: f64) -> HealthTransition {
        let d = &mut self.devices[device];
        d.score = (1.0 - ALPHA) * d.score + ALPHA * event_score;
        let next = if d.score >= QUARANTINE_THRESHOLD {
            HealthState::Quarantined
        } else if d.score <= REINSTATE_THRESHOLD {
            HealthState::Healthy
        } else if d.score >= PROBATION_THRESHOLD {
            HealthState::Probation
        } else {
            // Between reinstate and probation: keep the current state —
            // hysteresis, so scores drifting in the dead band don't
            // flap the scheduler.
            d.state
        };
        let t = match (d.state, next) {
            (a, b) if a == b => HealthTransition::None,
            (_, HealthState::Quarantined) => {
                d.quarantines += 1;
                HealthTransition::Quarantined
            }
            (_, HealthState::Healthy) => HealthTransition::Reinstated,
            (HealthState::Quarantined, HealthState::Probation) => HealthTransition::Recovering,
            (_, HealthState::Probation) => HealthTransition::Demoted,
        };
        d.state = next;
        t
    }

    /// Records an ABFT invariant violation attributed to `device`.
    pub fn record_violation(&mut self, device: usize) -> HealthTransition {
        self.devices[device].violations += 1;
        self.fold(device, VIOLATION_WEIGHT)
    }

    /// Records a recoverable retry that ran on `device`.
    pub fn record_retry(&mut self, device: usize) -> HealthTransition {
        self.devices[device].retries += 1;
        self.fold(device, RETRY_WEIGHT)
    }

    /// Records a clean completion on `device`: the score decays toward
    /// zero, and a quarantined device that has probed its way under the
    /// reinstatement bar returns to service.
    pub fn record_success(&mut self, device: usize) -> HealthTransition {
        self.devices[device].successes += 1;
        self.fold(device, 0.0)
    }

    /// Current state of `device`.
    pub fn state(&self, device: usize) -> HealthState {
        self.devices[device].state
    }

    /// Current EMA score of `device`.
    pub fn score(&self, device: usize) -> f64 {
        self.devices[device].score
    }

    /// Whether the scheduler may place ordinary work on `device`.
    ///
    /// Healthy and probation devices: yes. Quarantined devices: only
    /// every fourth query (`PROBE_INTERVAL`) gets through, as
    /// a probe — enough traffic to earn reinstatement, little enough
    /// that a lying device cannot poison the fleet. Denied queries are
    /// counted so callers can report drained load.
    pub fn schedulable(&mut self, device: usize) -> bool {
        if self.devices[device].state != HealthState::Quarantined {
            return true;
        }
        let denied = self.devices[device].placements_denied;
        self.devices[device].placements_denied += 1;
        let interval = PROBE_INTERVAL;
        // The first (interval - 1) queries are denied, then one probe.
        denied % interval == interval - 1
    }

    /// Devices currently quarantined.
    pub fn quarantined(&self) -> Vec<usize> {
        self.devices
            .iter()
            .enumerate()
            .filter(|(_, d)| d.state == HealthState::Quarantined)
            .map(|(i, _)| i)
            .collect()
    }

    /// Count of devices currently schedulable without probing.
    pub fn healthy_count(&self) -> usize {
        self.devices
            .iter()
            .filter(|d| d.state != HealthState::Quarantined)
            .count()
    }

    /// Snapshot of `device` for metrics export.
    pub fn snapshot(&self, device: usize) -> HealthSnapshot {
        let d = &self.devices[device];
        HealthSnapshot {
            score: d.score,
            state: d.state,
            violations: d.violations,
            retries: d.retries,
            quarantines: d.quarantines,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_board_is_all_healthy() {
        let mut b = DeviceHealthBoard::new(4);
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
        for d in 0..4 {
            assert_eq!(b.state(d), HealthState::Healthy);
            assert_eq!(b.score(d), 0.0);
            assert!(b.schedulable(d));
        }
        assert!(b.quarantined().is_empty());
        assert_eq!(b.healthy_count(), 4);
    }

    #[test]
    fn one_violation_probation_two_quarantine() {
        let mut b = DeviceHealthBoard::new(2);
        assert_eq!(b.record_violation(0), HealthTransition::Demoted);
        assert_eq!(b.state(0), HealthState::Probation);
        assert_eq!(b.score(0), ALPHA * VIOLATION_WEIGHT);
        assert!((PROBATION_THRESHOLD..QUARANTINE_THRESHOLD).contains(&b.score(0)));
        assert!(b.schedulable(0), "probation still schedules");
        assert_eq!(b.record_violation(0), HealthTransition::Quarantined);
        assert!(b.score(0) >= QUARANTINE_THRESHOLD);
        assert_eq!(b.state(0), HealthState::Quarantined);
        assert_eq!(b.quarantined(), vec![0]);
        assert_eq!(b.healthy_count(), 1);
        // The other device is untouched.
        assert_eq!(b.state(1), HealthState::Healthy);
    }

    #[test]
    fn retries_are_weaker_than_violations() {
        let mut b = DeviceHealthBoard::new(1);
        b.record_retry(0);
        assert_eq!(
            b.state(0),
            HealthState::Healthy,
            "one retry must not demote"
        );
        let mut v = DeviceHealthBoard::new(1);
        v.record_violation(0);
        assert!(v.score(0) > b.score(0));
    }

    #[test]
    fn quarantine_admits_periodic_probes_only() {
        let mut b = DeviceHealthBoard::new(1);
        b.record_violation(0);
        b.record_violation(0);
        assert_eq!(b.state(0), HealthState::Quarantined);
        let interval = PROBE_INTERVAL as usize;
        let admitted = (0..4 * interval).filter(|_| b.schedulable(0)).count();
        assert_eq!(admitted, 4, "exactly one probe per interval");
    }

    #[test]
    fn successful_probes_reinstate() {
        let mut b = DeviceHealthBoard::new(1);
        b.record_violation(0);
        assert_eq!(b.record_violation(0), HealthTransition::Quarantined);
        // 0.75 halves per clean result: 0.375 steps down to probation
        // (recovering, not a demotion), 0.1875 and 0.094 sit in the dead
        // band, and 0.047 ≤ REINSTATE_THRESHOLD reinstates on the fourth.
        assert_eq!(b.record_success(0), HealthTransition::Recovering);
        assert_eq!(b.state(0), HealthState::Probation);
        for _ in 0..2 {
            assert_eq!(b.record_success(0), HealthTransition::None);
        }
        assert_eq!(b.record_success(0), HealthTransition::Reinstated);
        assert!(b.score(0) <= REINSTATE_THRESHOLD);
        assert_eq!(b.state(0), HealthState::Healthy);
        assert!(b.schedulable(0));
        assert_eq!(b.snapshot(0).quarantines, 1);
    }

    #[test]
    fn hysteresis_keeps_the_dead_band_stable() {
        // Drive a device just over probation, then feed successes until
        // the score sits between reinstate and probation: the state must
        // hold (no flapping), then clear once under the reinstate bar.
        let mut b = DeviceHealthBoard::new(1);
        b.record_violation(0);
        assert_eq!(b.state(0), HealthState::Probation);
        b.record_success(0); // 0.25 — inside the dead band
        assert_eq!(b.state(0), HealthState::Probation, "dead band holds");
        let mut t = HealthTransition::None;
        for _ in 0..8 {
            t = b.record_success(0);
            if t == HealthTransition::Reinstated {
                break;
            }
        }
        assert_eq!(t, HealthTransition::Reinstated);
    }

    #[test]
    fn board_is_deterministic() {
        let run = || {
            let mut b = DeviceHealthBoard::new(3);
            b.record_violation(1);
            b.record_retry(2);
            b.record_retry(1);
            b.record_success(0);
            (b.score(0), b.score(1), b.score(2), b.state(1))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn snapshot_reports_tallies() {
        let mut b = DeviceHealthBoard::new(1);
        b.record_violation(0);
        b.record_retry(0);
        b.record_retry(0);
        b.record_success(0);
        let s = b.snapshot(0);
        assert_eq!(s.violations, 1);
        assert_eq!(s.retries, 2);
        assert!(s.score > 0.0);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(HealthState::Healthy.label(), "healthy");
        assert_eq!(HealthState::Probation.label(), "probation");
        assert_eq!(HealthState::Quarantined.label(), "quarantined");
    }
}
