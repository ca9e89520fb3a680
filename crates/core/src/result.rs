//! Run results: the state (optionally) plus the modeled execution report.

use qgpu_device::timeline::TraceEvent;
use qgpu_device::ExecutionReport;
use qgpu_faults::IntegritySummary;
use qgpu_obs::{FlightEvent, RegistrySnapshot, WallSpan};
use qgpu_statevec::StateVector;

use crate::config::Version;

/// Measured observability data from one run (when
/// [`crate::SimConfig::obs_spans`] was enabled): the wall-clock
/// counterpart of the modeled [`ExecutionReport`].
#[derive(Debug, Clone)]
pub struct ObsData {
    /// Every recorded wall-clock span, in recording order — the measured
    /// track of the two-process Chrome trace.
    pub spans: Vec<WallSpan>,
    /// Wall-clock seconds from recorder creation to run end.
    pub wall_s: f64,
    /// Every metric the run recorded: the report's event counts under
    /// their published names, per-stage wall-time histograms keyed by
    /// stage × version, per-gate latency percentiles, per-device task
    /// counters.
    pub registry: RegistrySnapshot,
    /// Flight-recorder events captured during the run (empty unless
    /// [`crate::SimConfig::flight`] was configured).
    pub flight: Vec<FlightEvent>,
    /// Whether any flight event was severe enough (retry, fallback,
    /// device loss, downshift, error) to trigger an automatic dump.
    pub flight_triggered: bool,
}

/// The outcome of one simulated execution.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Which version produced this result.
    pub version: Version,
    /// Name of the circuit that was run.
    pub circuit_name: String,
    /// The final state vector (when `collect_state` was enabled).
    pub state: Option<StateVector>,
    /// Modeled timing, transfer, pruning and compression metrics.
    pub report: ExecutionReport,
    /// Timeline events (when tracing was enabled) — the paper's Figure 6.
    pub trace: Vec<TraceEvent>,
    /// Measured spans and metrics (when `obs_spans` was enabled).
    pub obs: Option<ObsData>,
    /// Seeded end-of-circuit shot counts as `(basis_state, count)` pairs,
    /// descending by count (when [`crate::SimConfig::shots`] was nonzero).
    pub samples: Option<Vec<(usize, u64)>>,
    /// ABFT invariant-check tallies (when
    /// [`crate::SimConfig::integrity_active`] held for the run): checks,
    /// violations, re-executions, repairs, and quarantines.
    pub integrity: Option<IntegritySummary>,
}

impl RunResult {
    /// Speedup of this run relative to another (`other` / `self`).
    ///
    /// # Panics
    ///
    /// Panics if this run's total time is zero.
    pub fn speedup_over(&self, other: &RunResult) -> f64 {
        assert!(self.report.total_time > 0.0);
        other.report.total_time / self.report.total_time
    }

    /// Execution-time reduction vs. `other`, in percent (the headline
    /// metric of the paper's abstract: 71.89% for the full Q-GPU).
    pub fn time_reduction_vs(&self, other: &RunResult) -> f64 {
        if other.report.total_time == 0.0 {
            return 0.0;
        }
        100.0 * (1.0 - self.report.total_time / other.report.total_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_with_time(t: f64) -> RunResult {
        let report = ExecutionReport {
            total_time: t,
            ..ExecutionReport::default()
        };
        RunResult {
            version: Version::QGpu,
            circuit_name: "test".into(),
            state: None,
            report,
            trace: Vec::new(),
            obs: None,
            samples: None,
            integrity: None,
        }
    }

    #[test]
    fn speedup_and_reduction() {
        let fast = result_with_time(1.0);
        let slow = result_with_time(4.0);
        assert_eq!(fast.speedup_over(&slow), 4.0);
        assert_eq!(fast.time_reduction_vs(&slow), 75.0);
    }

    #[test]
    fn reduction_of_equal_runs_is_zero() {
        let a = result_with_time(2.0);
        let b = result_with_time(2.0);
        assert!(a.time_reduction_vs(&b).abs() < 1e-12);
    }
}
