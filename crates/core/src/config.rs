//! Simulation configuration: execution version and platform knobs.

use qgpu_circuit::NoiseConfig;
use qgpu_compress::CodecKind;
use qgpu_device::Platform;
use qgpu_faults::{CancelToken, FaultConfig};
use qgpu_sched::devicegroup::OrchestratorConfig;
use qgpu_sched::reorder::ReorderStrategy;
use serde::{Deserialize, Serialize};

/// The six execution versions of the paper's §V ("We test six different
/// versions of execution for all quantum circuit benchmarks").
///
/// Each version is strictly cumulative over the previous one, except that
/// `Naive` replaces the baseline's static allocation rather than adding to
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Version {
    /// Qiskit-Aer v0.7.0-style execution: static chunk allocation, CPU
    /// updates host-resident chunks, reactive synchronous exchange.
    Baseline,
    /// Dynamic allocation: every chunk streams through the GPU, with all
    /// transfers and kernels serialized (paper §III-D).
    Naive,
    /// Adds proactive, double-buffered, bidirectional transfer (§IV-A).
    Overlap,
    /// Adds zero-amplitude chunk pruning with dynamic chunk size (§IV-B).
    Pruning,
    /// Adds forward-looking gate reordering (§IV-C).
    Reorder,
    /// Adds GFC lossless compression of non-zero chunks (§IV-D) — the
    /// full Q-GPU.
    QGpu,
}

impl Version {
    /// All six versions, in the paper's presentation order.
    pub const ALL: [Version; 6] = [
        Version::Baseline,
        Version::Naive,
        Version::Overlap,
        Version::Pruning,
        Version::Reorder,
        Version::QGpu,
    ];

    /// The paper's label for the version.
    pub fn label(self) -> &'static str {
        match self {
            Version::Baseline => "Baseline",
            Version::Naive => "Naive",
            Version::Overlap => "Overlap",
            Version::Pruning => "Pruning",
            Version::Reorder => "Reorder",
            Version::QGpu => "Q-GPU",
        }
    }

    /// Transfers overlap with kernels and each other.
    pub fn has_overlap(self) -> bool {
        matches!(
            self,
            Version::Overlap | Version::Pruning | Version::Reorder | Version::QGpu
        )
    }

    /// Zero chunks are pruned from movement and update.
    pub fn has_pruning(self) -> bool {
        matches!(self, Version::Pruning | Version::Reorder | Version::QGpu)
    }

    /// The forward-looking reorder pass runs first.
    pub fn has_reorder(self) -> bool {
        matches!(self, Version::Reorder | Version::QGpu)
    }

    /// Non-zero chunks are GFC-compressed for transfer.
    pub fn has_compression(self) -> bool {
        self == Version::QGpu
    }

    /// The version's optimization subset as explicit flags — what the
    /// pipeline assembler consumes. The six named versions are just six
    /// points in the 2^4 flag lattice (plus the baseline's static
    /// allocation, which is an execution *mode*, not a flag).
    pub fn opt_flags(self) -> OptFlags {
        OptFlags {
            overlap: self.has_overlap(),
            pruning: self.has_pruning(),
            reorder: self.has_reorder(),
            compression: self.has_compression(),
            codec: CodecKind::Gfc,
        }
    }
}

impl std::fmt::Display for Version {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Parses a version name, case-insensitively: `baseline`, `naive`,
/// `overlap`, `pruning`, `reorder`, or `qgpu` (also `q-gpu`).
impl std::str::FromStr for Version {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Ok(match s.to_ascii_lowercase().as_str() {
            "baseline" => Version::Baseline,
            "naive" => Version::Naive,
            "overlap" => Version::Overlap,
            "pruning" => Version::Pruning,
            "reorder" => Version::Reorder,
            "qgpu" | "q-gpu" => Version::QGpu,
            other => return Err(format!("unknown version '{other}'")),
        })
    }
}

/// An arbitrary subset of the paper's four composable optimizations
/// (§IV-A–D), decoupled from the six named [`Version`]s.
///
/// The paper's recipe is explicitly compositional: each optimization
/// layers independently on the naive streaming loop. `OptFlags` makes
/// that composition first-class — any of the 2^4 subsets runs through
/// the same stage-graph pipeline via [`SimConfig::with_opts`].
///
/// # Examples
///
/// ```
/// use qgpu::config::OptFlags;
///
/// let f = OptFlags::parse("pruning+compression").unwrap();
/// assert!(f.pruning && f.compression && !f.overlap);
/// assert_eq!(f.label(), "pruning+compression");
/// assert_eq!(OptFlags::parse("none").unwrap(), OptFlags::default());
/// assert_eq!(OptFlags::grid().len(), 16);
///
/// let f = OptFlags::parse("compression+cascade").unwrap();
/// assert_eq!(f.codec, qgpu::CodecKind::Cascade);
/// assert_eq!(f.label(), "compression+cascade");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct OptFlags {
    /// Proactive double-buffered bidirectional transfer (§IV-A).
    pub overlap: bool,
    /// Zero-amplitude chunk pruning (§IV-B); dynamic chunk sizing rides
    /// on this flag (gated further by [`SimConfig::dynamic_chunk_size`]).
    pub pruning: bool,
    /// The forward-looking gate reorder pass (§IV-C).
    pub reorder: bool,
    /// Compression of non-zero chunks in transit (§IV-D).
    pub compression: bool,
    /// Which codec the compression flag runs (GFC is the paper's choice
    /// and the bit-exact golden default). Parsed from tokens like
    /// `"cascade"` or `"codec=cascade"`; only meaningful when
    /// [`OptFlags::compression`] is on.
    #[serde(default)]
    pub codec: CodecKind,
}

impl OptFlags {
    /// Flag names in the paper's presentation order, aligned with the
    /// bit positions [`OptFlags::from_bits`] uses.
    const NAMES: [&'static str; 4] = ["overlap", "pruning", "reorder", "compression"];

    /// All 2^4 subsets, ordered by [`OptFlags::from_bits`] index.
    pub fn grid() -> Vec<OptFlags> {
        (0..16).map(OptFlags::from_bits).collect()
    }

    /// The subset encoded by the low four bits of `bits`
    /// (bit 0 = overlap, 1 = pruning, 2 = reorder, 3 = compression).
    pub fn from_bits(bits: u8) -> OptFlags {
        OptFlags {
            overlap: bits & 1 != 0,
            pruning: bits & 2 != 0,
            reorder: bits & 4 != 0,
            compression: bits & 8 != 0,
            codec: CodecKind::Gfc,
        }
    }

    /// Parses a `+`- or `,`-separated flag list (e.g.
    /// `"pruning+compression"`); `"none"` or the empty string is the
    /// empty subset, `"all"` the full recipe. Codec names (`gfc`,
    /// `zero-run`, `alp`, `cascade`, optionally prefixed `codec=`) select
    /// the compression codec.
    pub fn parse(s: &str) -> Result<OptFlags, String> {
        let mut f = OptFlags::default();
        let trimmed = s.trim().to_ascii_lowercase();
        if trimmed.is_empty() || trimmed == "none" {
            return Ok(f);
        }
        if trimmed == "all" {
            return Ok(OptFlags::from_bits(0b1111));
        }
        for tok in trimmed.split(['+', ',']) {
            let tok = tok.trim();
            match tok {
                "overlap" => f.overlap = true,
                "pruning" => f.pruning = true,
                "reorder" => f.reorder = true,
                "compression" | "compress" => f.compression = true,
                other => {
                    let name = other.strip_prefix("codec=").unwrap_or(other);
                    match name.parse::<CodecKind>() {
                        Ok(codec) => f.codec = codec,
                        Err(_) => {
                            return Err(format!(
                                "unknown optimization '{other}' (want overlap, pruning, \
                                 reorder, compression, a codec name \
                                 (gfc|zero-run|alp|cascade), none, or all)"
                            ))
                        }
                    }
                }
            }
        }
        Ok(f)
    }

    /// Canonical `+`-joined label (`"none"` for the empty subset) —
    /// inverse of [`OptFlags::parse`]. A non-default codec appends its
    /// name; the GFC default stays invisible so historical labels (and
    /// the golden fixtures keyed on them) are unchanged.
    pub fn label(&self) -> String {
        let set = [self.overlap, self.pruning, self.reorder, self.compression];
        let mut names: Vec<&str> = Self::NAMES
            .iter()
            .zip(set)
            .filter_map(|(&n, on)| on.then_some(n))
            .collect();
        if self.codec != CodecKind::Gfc {
            names.push(self.codec.name());
        }
        if names.is_empty() {
            "none".to_string()
        } else {
            names.join("+")
        }
    }
}

impl std::fmt::Display for OptFlags {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Flight-recorder configuration: a bounded ring of structured engine
/// events (retries, fallbacks, device loss, governor downshifts,
/// collapse outcomes) kept for post-mortems.
///
/// The dump policy is trigger-based by default: the ring is written to
/// `path` only when a fault-class event or a [`qgpu_faults::SimError`]
/// occurs during the run. `dump_always` (the CLI's `--flight-out`)
/// writes it unconditionally at the end of the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightConfig {
    /// Ring capacity in events; old events fall off the front.
    pub events: usize,
    /// Dump destination; `None` uses [`FlightConfig::DEFAULT_PATH`].
    pub path: Option<String>,
    /// Dump even when nothing triggered (on-demand capture).
    pub dump_always: bool,
}

impl FlightConfig {
    /// Where a triggered dump lands when no path is configured.
    pub const DEFAULT_PATH: &'static str = "qgpu-flight.json";

    /// The dump destination.
    pub fn dump_path(&self) -> &str {
        self.path.as_deref().unwrap_or(Self::DEFAULT_PATH)
    }
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            events: qgpu_obs::DEFAULT_FLIGHT_EVENTS,
            path: None,
            dump_always: false,
        }
    }
}

/// Everything a [`crate::Simulator`] needs besides the circuit.
///
/// # Examples
///
/// ```
/// use qgpu::{SimConfig, Version};
///
/// let cfg = SimConfig::scaled_paper(12)
///     .with_version(Version::Pruning)
///     .with_chunk_count_log2(5);
/// assert_eq!(cfg.version, Version::Pruning);
/// assert_eq!(cfg.chunk_bits_for(12), 7);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// The modeled hardware platform.
    pub platform: Platform,
    /// Which execution version to run.
    pub version: Version,
    /// `log2` of the number of chunks the state is split into (the paper
    /// uses 8192 = 2^13 chunks at 34 qubits; scaled runs default to 2^8 —
    /// deep enough that the double-buffer window spans several chunk
    /// tasks while chunks stay large enough for GFC's warp-lane
    /// prediction).
    pub chunk_count_log2: u32,
    /// Keep the final state in the result (disable to save memory in
    /// timing sweeps).
    pub collect_state: bool,
    /// Record up to this many timeline events (0 disables tracing).
    pub trace_events: usize,
    /// Let pruning versions shrink the chunk size dynamically
    /// (Algorithm 1's `getChunkSize`); disable to ablate the paper's
    /// dynamic-chunk-size design choice.
    pub dynamic_chunk_size: bool,
    /// Which reordering pass versions with reordering run (the paper
    /// ships forward-looking; greedy is the ablation of §IV-C).
    pub reorder_strategy: ReorderStrategy,
    /// Fraction of GPU memory used as the in-flight transfer window (the
    /// paper splits memory into two halves, i.e. 0.5).
    pub buffer_split: f64,
    /// Extension beyond the paper: apply runs of consecutive chunk-local
    /// gates in a single chunk visit (one H2D/D2H round trip per batch
    /// instead of per gate) — the "cache blocking" idea of Doi et al.,
    /// which the paper's baseline lineage cites. Off by default to match
    /// the paper's per-gate streaming.
    pub batch_local_gates: bool,
    /// Worker threads for the functional update (the
    /// [`qgpu_statevec::ChunkExecutor`] pool). Results are bitwise
    /// identical at every thread count; 1 keeps the seed's serial path.
    pub threads: usize,
    /// Collapse runs of adjacent compatible gates (same-qubit 1q runs,
    /// diagonal runs) into single fused kernels before execution, so each
    /// chunk is visited once per fused run instead of once per gate. The
    /// functional state is replayed exactly (bitwise identical to the
    /// unfused run); the timing model launches one fused kernel per chunk
    /// visit. Off by default to match the paper's per-gate execution.
    pub gate_fusion: bool,
    /// Record measured wall-clock spans and metrics while running (the
    /// `qgpu-obs` recorder). The run result then carries an
    /// [`crate::result::ObsData`] with per-stage spans, counters and
    /// histograms — the measured half of the two-track trace and the
    /// drift report. Off by default: disabled instrumentation is a
    /// branch on `None`.
    pub obs_spans: bool,
    /// Seeded fault-injection probabilities (all zero by default — no
    /// faults). Nonzero rates exercise the resilient pipeline: CRC-checked
    /// transfers with bounded retry, codec-failure fallback to raw
    /// transfer, corrupted-mask fallback to full-chunk execution, worker
    /// death recovery, and a deterministic fatal fault for
    /// checkpoint-resume testing.
    pub faults: FaultConfig,
    /// Compute per-chunk CRC32 integrity tags on every streamed transfer
    /// even when no faults are injected — the always-on cost the
    /// `fault_overhead` bench bounds. Implied whenever any fault rate is
    /// nonzero.
    pub integrity_checks: bool,
    /// Run the ABFT invariant checks on every kernel's output — per-chunk
    /// 2-norm preservation, magnitude preservation for diagonal kernels,
    /// zero-block checks for pruned chunks, and a whole-state norm gate
    /// before Measure/Sample. This is the silent-data-corruption defense:
    /// CRCs ([`SimConfig::integrity_checks`]) only guard *transfers*, so
    /// a bit flip inside a kernel sails through them; the algebraic
    /// invariants catch it. Implied whenever a kernel-flip fault is
    /// injected (detection must be armed to prove itself).
    pub verify_invariants: bool,
    /// Write a checkpoint every N program ops (0 disables). Requires
    /// [`SimConfig::checkpoint_path`].
    pub checkpoint_every: u64,
    /// Where periodic checkpoints are written (format v3, carrying the
    /// op index for [`crate::Simulator::try_run_from`] resume).
    pub checkpoint_path: Option<String>,
    /// Resilient multi-device orchestration: device-loss re-sharding,
    /// straggler work-stealing, and the memory-pressure governor.
    /// `None` keeps the plain round-robin dealer; the engines also bring
    /// the orchestrator up with defaults whenever a fleet-level fault
    /// (device loss, link degradation, straggler) is injected.
    pub orchestration: Option<OrchestratorConfig>,
    /// An explicit optimization subset overriding [`SimConfig::version`]'s
    /// flag set: the streaming pipeline runs with exactly these flags,
    /// enabling combinations no named version covers (e.g.
    /// pruning+compression without reorder). `None` (the default) derives
    /// the flags from the version, including the baseline's static
    /// allocation mode.
    pub opts: Option<OptFlags>,
    /// Per-gate noise channels. When set (and enabled), the engine
    /// rewrites the circuit into the seeded noisy trajectory *before*
    /// any reordering or fusion, so every execution version runs the
    /// identical noisy circuit.
    pub noise: Option<NoiseConfig>,
    /// End-of-circuit measurement shots. Nonzero makes the engine sample
    /// seeded shot counts from the final state into
    /// [`crate::result::RunResult::samples`].
    pub shots: u64,
    /// Seed for every stochastic execution decision — noise-channel
    /// draws, mid-circuit collapse outcomes, and shot sampling. Distinct
    /// from the fault seed: faults perturb the *machine*, this seed
    /// perturbs the *physics*. Same seed ⇒ bit-identical stochastic runs
    /// on every version, thread count, and device count.
    pub stoch_seed: u64,
    /// Flight-recorder configuration (`None` disables it). When set, the
    /// engine keeps a bounded ring of structured fault/lifecycle events
    /// and dumps it to JSON on any `SimError`, raw-codec fallback, worker
    /// loss or governor downshift — or unconditionally with
    /// [`FlightConfig::dump_always`]. Independent of
    /// [`SimConfig::obs_spans`]: a flight-only run records no spans.
    pub flight: Option<FlightConfig>,
    /// Cooperative cancellation token, polled at every gate boundary.
    /// When it trips, the run stops cleanly — chunks released, partial
    /// stage timings flushed — and returns
    /// [`qgpu_faults::SimError::JobAborted`] /
    /// [`qgpu_faults::SimError::DeadlineExceeded`] per the trip reason.
    /// `None` (the default) polls nothing.
    pub cancel: Option<CancelToken>,
}

impl SimConfig {
    /// A config over an explicit platform with paper-like defaults.
    pub fn new(platform: Platform) -> Self {
        SimConfig {
            platform,
            version: Version::QGpu,
            chunk_count_log2: 8,
            collect_state: true,
            trace_events: 0,
            dynamic_chunk_size: true,
            reorder_strategy: ReorderStrategy::ForwardLooking,
            buffer_split: 0.5,
            batch_local_gates: false,
            threads: 1,
            gate_fusion: false,
            obs_spans: false,
            faults: FaultConfig::default(),
            integrity_checks: false,
            verify_invariants: false,
            checkpoint_every: 0,
            checkpoint_path: None,
            orchestration: None,
            opts: None,
            noise: None,
            shots: 0,
            stoch_seed: 0,
            flight: None,
            cancel: None,
        }
    }

    /// The standard experiment config: the paper's P100 platform with GPU
    /// memory scaled to a `num_qubits`-qubit run (preserving the paper's
    /// 34-qubit residency ratio — see `qgpu_device::Platform`).
    pub fn scaled_paper(num_qubits: usize) -> Self {
        SimConfig::new(Platform::scaled_paper_p100(num_qubits))
    }

    /// Sets the version.
    pub fn with_version(mut self, version: Version) -> Self {
        self.version = version;
        self
    }

    /// Sets the chunk-count exponent.
    pub fn with_chunk_count_log2(mut self, log2: u32) -> Self {
        self.chunk_count_log2 = log2;
        self
    }

    /// Disables state collection.
    pub fn timing_only(mut self) -> Self {
        self.collect_state = false;
        self
    }

    /// Enables timeline tracing with the given event cap.
    pub fn with_trace(mut self, events: usize) -> Self {
        self.trace_events = events;
        self
    }

    /// Disables dynamic chunk sizing (ablation).
    pub fn fixed_chunk_size(mut self) -> Self {
        self.dynamic_chunk_size = false;
        self
    }

    /// Overrides the reordering pass (ablation).
    pub fn with_reorder_strategy(mut self, strategy: ReorderStrategy) -> Self {
        self.reorder_strategy = strategy;
        self
    }

    /// Overrides the double-buffer split fraction (ablation).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < split < 1`.
    pub fn with_buffer_split(mut self, split: f64) -> Self {
        assert!(split > 0.0 && split < 1.0, "buffer split must be in (0,1)");
        self.buffer_split = split;
        self
    }

    /// Enables the gate-batching extension (see
    /// [`SimConfig::batch_local_gates`]).
    pub fn with_gate_batching(mut self) -> Self {
        self.batch_local_gates = true;
        self
    }

    /// Runs the streaming pipeline with an explicit optimization subset
    /// (see [`SimConfig::opts`]), overriding the version-derived flags.
    pub fn with_opts(mut self, opts: OptFlags) -> Self {
        self.opts = Some(opts);
        self
    }

    /// Selects the transfer-compression codec (the CLI's `--codec`),
    /// carried on the [`OptFlags`] so explicit subsets and the ablation
    /// grid cover it. No-op on a Baseline config without explicit opts:
    /// static allocation never compresses, and forcing `opts` there would
    /// silently switch the run to the streaming mode.
    pub fn with_codec(mut self, codec: CodecKind) -> Self {
        if self.opts.is_none() && self.version == Version::Baseline {
            return self;
        }
        let mut flags = self.opts.unwrap_or_else(|| self.version.opt_flags());
        flags.codec = codec;
        self.opts = Some(flags);
        self
    }

    /// The codec this run compresses with — the explicit [`OptFlags`]
    /// choice, or GFC (the paper's codec) when none is set.
    pub fn codec(&self) -> CodecKind {
        self.opts.map(|o| o.codec).unwrap_or_default()
    }

    /// Sets the functional-update worker-thread count (see
    /// [`SimConfig::threads`]).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        self.threads = threads;
        self
    }

    /// Enables gate fusion (see [`SimConfig::gate_fusion`]).
    pub fn with_gate_fusion(mut self) -> Self {
        self.gate_fusion = true;
        self
    }

    /// Enables wall-clock span and metrics recording (see
    /// [`SimConfig::obs_spans`]).
    pub fn with_obs_spans(mut self) -> Self {
        self.obs_spans = true;
        self
    }

    /// Sets the fault-injection configuration (see [`SimConfig::faults`]).
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Enables CRC integrity tags on every transfer even with zero fault
    /// rates (see [`SimConfig::integrity_checks`]).
    pub fn with_integrity_checks(mut self) -> Self {
        self.integrity_checks = true;
        self
    }

    /// Enables the ABFT invariant checks on kernel output (see
    /// [`SimConfig::verify_invariants`]).
    pub fn with_verify_invariants(mut self) -> Self {
        self.verify_invariants = true;
        self
    }

    /// Enables periodic checkpointing: a v3 checkpoint is written to
    /// `path` every `every` program ops.
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn with_checkpointing(mut self, every: u64, path: impl Into<String>) -> Self {
        assert!(every > 0, "checkpoint interval must be positive");
        self.checkpoint_every = every;
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Enables multi-device orchestration (see
    /// [`SimConfig::orchestration`]). The orchestrator seed is taken
    /// from the fault seed so one knob reproduces a whole disrupted run.
    pub fn with_orchestration(mut self, orch: OrchestratorConfig) -> Self {
        self.orchestration = Some(orch);
        self
    }

    /// Enables the memory-pressure governor with a per-device residency
    /// budget of `bytes`, bringing orchestration up with defaults if it
    /// is not already configured.
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0`.
    pub fn with_mem_budget(mut self, bytes: u64) -> Self {
        assert!(bytes > 0, "memory budget must be positive");
        let mut orch = self.orchestration.unwrap_or_default();
        orch.mem_budget_bytes = Some(bytes);
        self.orchestration = Some(orch);
        self
    }

    /// Sets the per-gate noise channels (see [`SimConfig::noise`]).
    pub fn with_noise(mut self, noise: NoiseConfig) -> Self {
        self.noise = Some(noise);
        self
    }

    /// Sets the end-of-circuit shot count (see [`SimConfig::shots`]).
    pub fn with_shots(mut self, shots: u64) -> Self {
        self.shots = shots;
        self
    }

    /// Sets the stochastic-execution seed (see [`SimConfig::stoch_seed`]).
    pub fn with_stoch_seed(mut self, seed: u64) -> Self {
        self.stoch_seed = seed;
        self
    }

    /// Attaches the flight recorder (see [`SimConfig::flight`]).
    pub fn with_flight(mut self, flight: FlightConfig) -> Self {
        self.flight = Some(flight);
        self
    }

    /// The noise channels to apply, if any are enabled.
    pub fn effective_noise(&self) -> Option<NoiseConfig> {
        self.noise.filter(NoiseConfig::is_enabled)
    }

    /// True when the resilient pipeline (CRC tags, retry modeling,
    /// degradation fallbacks) is active.
    pub fn resilience_active(&self) -> bool {
        self.integrity_checks || self.faults.any_enabled()
    }

    /// True when the ABFT invariant middleware should run: explicitly
    /// requested, or implied by an injected kernel-flip fault (the
    /// checks must be armed for injected corruption to be detected and
    /// repaired rather than silently shipped).
    pub fn integrity_active(&self) -> bool {
        self.verify_invariants || self.faults.kernel_faults_enabled()
    }

    /// Injected faults that imply orchestration without explicit config:
    /// any fleet-level fault, or a kernel-flip campaign on a multi-device
    /// fleet — the health board's quarantine verdicts drain through the
    /// orchestrator's re-shard path, which must be up for a quarantined
    /// device to actually stop receiving work.
    fn implied_orchestration(&self) -> bool {
        self.faults.device_faults_enabled()
            || (self.faults.kernel_faults_enabled() && self.platform.num_gpus() > 1)
    }

    /// The orchestrator configuration to run with (explicit config, or
    /// defaults seeded from the fault seed when only fleet faults are
    /// set). `None` when orchestration is inactive.
    pub fn effective_orchestration(&self) -> Option<OrchestratorConfig> {
        if let Some(orch) = self.orchestration {
            Some(orch)
        } else if self.implied_orchestration() {
            Some(OrchestratorConfig {
                seed: self.faults.seed,
                ..OrchestratorConfig::default()
            })
        } else {
            None
        }
    }

    /// The chunk size in qubits for an `n`-qubit circuit (the *static*
    /// size; pruning versions shrink it dynamically below this cap).
    pub fn chunk_bits_for(&self, n: usize) -> u32 {
        (n as u32).saturating_sub(self.chunk_count_log2).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_feature_lattice() {
        use Version::*;
        assert!(!Baseline.has_overlap() && !Naive.has_overlap());
        assert!(Overlap.has_overlap() && !Overlap.has_pruning());
        assert!(Pruning.has_pruning() && !Pruning.has_reorder());
        assert!(Reorder.has_reorder() && !Reorder.has_compression());
        assert!(QGpu.has_compression() && QGpu.has_pruning() && QGpu.has_overlap());
    }

    #[test]
    fn chunk_bits_clamped() {
        let cfg = SimConfig::scaled_paper(4).with_chunk_count_log2(7);
        assert_eq!(cfg.chunk_bits_for(4), 1);
        assert_eq!(cfg.chunk_bits_for(20), 13);
    }

    #[test]
    fn opt_flags_roundtrip_and_match_versions() {
        for bits in 0..16u8 {
            let f = OptFlags::from_bits(bits);
            assert_eq!(OptFlags::parse(&f.label()).unwrap(), f);
        }
        assert_eq!(Version::Naive.opt_flags(), OptFlags::default());
        assert_eq!(Version::QGpu.opt_flags(), OptFlags::from_bits(0b1111));
        assert_eq!(
            Version::Pruning.opt_flags(),
            OptFlags {
                overlap: true,
                pruning: true,
                reorder: false,
                compression: false,
                codec: CodecKind::Gfc,
            }
        );
        assert!(OptFlags::parse("sharding").is_err());
        assert_eq!(OptFlags::parse("all").unwrap(), OptFlags::from_bits(0b1111));
    }

    #[test]
    fn codec_selection_rides_on_opt_flags() {
        for (token, kind) in [
            ("gfc", CodecKind::Gfc),
            ("zero-run", CodecKind::ZeroRun),
            ("alp", CodecKind::Alp),
            ("cascade", CodecKind::Cascade),
        ] {
            let f = OptFlags::parse(&format!("compression+{token}")).unwrap();
            assert_eq!(f.codec, kind);
            assert_eq!(OptFlags::parse(&f.label()).unwrap(), f);
            let g = OptFlags::parse(&format!("compression+codec={token}")).unwrap();
            assert_eq!(g.codec, kind);
        }
        // Default stays invisible in labels (golden fixtures key on them).
        assert_eq!(
            OptFlags::parse("all").unwrap().label(),
            OptFlags::from_bits(0b1111).label()
        );

        let cfg = SimConfig::scaled_paper(8).with_codec(CodecKind::Cascade);
        assert_eq!(cfg.codec(), CodecKind::Cascade);
        assert!(cfg.opts.unwrap().compression);

        // Baseline without explicit opts must not be flipped to streaming.
        let base = SimConfig::scaled_paper(8)
            .with_version(Version::Baseline)
            .with_codec(CodecKind::Cascade);
        assert_eq!(base.opts, None);
        assert_eq!(base.codec(), CodecKind::Gfc);
    }

    #[test]
    fn opts_and_max_batch_defaults() {
        let cfg = SimConfig::scaled_paper(8);
        assert_eq!(cfg.opts, None);
        let cfg = cfg.with_opts(OptFlags::parse("pruning+compression").unwrap());
        assert!(cfg.opts.unwrap().pruning && cfg.opts.unwrap().compression);
    }

    #[test]
    fn labels_are_paper_names() {
        let labels: Vec<&str> = Version::ALL.iter().map(|v| v.label()).collect();
        assert_eq!(
            labels,
            vec!["Baseline", "Naive", "Overlap", "Pruning", "Reorder", "Q-GPU"]
        );
    }
}
