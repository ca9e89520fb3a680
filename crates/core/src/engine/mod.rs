//! The execution engine: functional simulation driven through the device
//! timing model.
//!
//! [`Simulator`] hands every run to the chunk pipeline in
//! [`pipeline`], whose one op loop serves both execution modes. A
//! `PipelineSpec` — derived from the configured [`crate::Version`] or an
//! explicit [`crate::OptFlags`] subset — selects what a gate models:
//!
//! * the **static** mode (`pipeline::static_alloc` supplies its gate
//!   model): static chunk allocation, CPU updates host chunks, reactive
//!   synchronous exchange (the paper's baseline);
//! * the **streaming** mode: chunks stream through the GPU(s) along the
//!   *Plan → Prune → Deal → Fetch → Decompress → Kernel → Compress →
//!   Writeback → Sync* round trip, with overlap / pruning / reordering /
//!   compression toggled by flags.
//!
//! Both modes walk the same program of [`qgpu_circuit::fuse::ProgramOp`]s
//! (one op per gate unless [`SimConfig::gate_fusion`] collapses runs;
//! measurements and resets are barrier steps), resolve each unitary op's
//! [`qgpu_sched::GatePlan`], apply the amplitudes for real on a
//! [`qgpu_statevec::ChunkedState`] through the
//! [`qgpu_statevec::ChunkExecutor`] worker pool, and charge each chunk
//! task to the [`qgpu_device::Timeline`]. Stochastic execution — seeded
//! noise rewriting, mid-circuit collapse, shot sampling — flows through
//! the keyed draws of [`qgpu_math::rng`] (see `pipeline::stochastic`).
//! The result is a bit-identical final state across versions, flag
//! subsets, thread counts and fusion settings, with version-specific
//! timing.

// The engine's guard rails: no engine function grows back
// into a monolith (thresholds in clippy.toml; CI runs -D warnings).
#![warn(clippy::too_many_lines, clippy::cognitive_complexity)]

pub mod pipeline;

use std::sync::Arc;

use qgpu_circuit::access::GateAction;
use qgpu_circuit::fuse::{self, ProgramOp};
use qgpu_circuit::Circuit;
use qgpu_faults::SimError;
use qgpu_obs::Recorder;

use crate::checkpoint::Checkpoint;
use crate::config::SimConfig;
use crate::result::{ObsData, RunResult};

#[cfg(test)]
mod tests;

/// Lowers a circuit to the engine's executable program: fused runs when
/// [`SimConfig::gate_fusion`] is on, a 1:1 lowering otherwise.
/// Measurements and resets become barrier [`ProgramOp`]s either way.
pub(crate) fn program_for(circuit: &Circuit, cfg: &SimConfig) -> Vec<ProgramOp> {
    if cfg.gate_fusion {
        fuse::fuse_program(circuit)
    } else {
        fuse::lower_program(circuit)
    }
}

/// Floating-point operations per amplitude for a gate action: a dense
/// matrix over `k` mixing qubits costs one `2^k`-point complex dot product
/// per amplitude; a diagonal action one complex multiply.
pub(crate) fn flops_per_amp(action: &GateAction) -> f64 {
    match action {
        GateAction::Diagonal { .. } => 6.0,
        GateAction::ControlledDense { matrix, .. } => matrix.dim() as f64 * 8.0,
    }
}

/// The Q-GPU simulator: runs circuits under a [`SimConfig`].
///
/// # Examples
///
/// ```
/// use qgpu::{SimConfig, Simulator, Version};
/// use qgpu_circuit::Circuit;
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// let result = Simulator::new(SimConfig::scaled_paper(2).with_version(Version::Baseline))
///     .run(&bell);
/// let state = result.state.expect("collected");
/// assert!((state.probabilities()[0] - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        Simulator { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs a circuit, returning the final state (if collected) and the
    /// modeled execution report.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has zero qubits (unconstructible), has more
    /// qubits than fit in memory, or the run fails with a [`SimError`]
    /// (injected fatal faults, exhausted retries, checkpoint I/O). Use
    /// [`Simulator::try_run`] to handle failures as values.
    pub fn run(&self, circuit: &Circuit) -> RunResult {
        self.try_run(circuit).expect("simulation failed")
    }

    /// Runs a circuit, surfacing resilience failures as a [`SimError`]
    /// instead of panicking.
    ///
    /// Errors are only possible when fault injection or checkpointing is
    /// configured (or a worker thread genuinely panics); an unconfigured
    /// run never fails.
    pub fn try_run(&self, circuit: &Circuit) -> Result<RunResult, SimError> {
        self.try_run_from(circuit, None)
    }

    /// Runs a circuit, optionally resuming from a [`Checkpoint`] written
    /// by a previous (possibly fatally-interrupted) run.
    ///
    /// The checkpoint's `gates_done` counts *program ops* — the circuit,
    /// fusion and reorder settings must match the run that wrote it, or
    /// an [`SimError::Checkpoint`] is returned / the resumed state is
    /// meaningless. Timing restarts at zero for the resumed segment.
    pub fn try_run_from(
        &self,
        circuit: &Circuit,
        resume: Option<&Checkpoint>,
    ) -> Result<RunResult, SimError> {
        let recorder = self.make_recorder();
        let outcome = pipeline::run(circuit, &self.config, recorder.as_ref(), resume);
        let mut result = match outcome {
            Ok(result) => result,
            Err(err) => {
                if let Some(rec) = &recorder {
                    rec.flight("error", || err.to_string());
                    self.dump_flight(rec);
                }
                return Err(err);
            }
        };
        if let Some(rec) = recorder {
            self.dump_flight(&rec);
            if self.config.obs_spans {
                result.obs = Some(ObsData {
                    spans: rec.spans(),
                    wall_s: rec.elapsed_s(),
                    registry: rec.registry().snapshot(),
                    flight: rec.flight_events(),
                    flight_triggered: rec.flight_triggered(),
                });
            }
        }
        Ok(result)
    }

    /// Builds the run's recorder: spans when `obs_spans` is on, a flight
    /// ring when `flight` is configured, nothing when neither is.
    fn make_recorder(&self) -> Option<Arc<Recorder>> {
        if !self.config.obs_spans && self.config.flight.is_none() {
            return None;
        }
        let mut rec = Recorder::new();
        if let Some(fc) = &self.config.flight {
            rec = rec.with_flight(fc.events);
        }
        if !self.config.obs_spans {
            rec = rec.without_spans();
        }
        Some(Arc::new(rec))
    }

    /// Dumps the flight-recorder ring to its configured JSON path when a
    /// trigger event fired (or unconditionally with `dump_always`).
    fn dump_flight(&self, rec: &Recorder) {
        let Some(fc) = &self.config.flight else {
            return;
        };
        if !(fc.dump_always || rec.flight_triggered()) {
            return;
        }
        let Some(json) = rec.flight_json() else {
            return;
        };
        let path = fc.dump_path();
        match std::fs::write(path, json.to_string()) {
            Ok(()) => eprintln!(
                "[qgpu] flight recorder dumped {} event(s) to {path}",
                rec.flight_events().len()
            ),
            Err(e) => eprintln!("[qgpu] flight recorder dump to {path} failed: {e}"),
        }
    }
}
