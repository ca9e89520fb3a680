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
