//! The ABFT integrity middleware: online invariant checks over kernel
//! output, seeded kernel-flip injection, and audited re-execution.
//!
//! CRC tags (the `Resilience` middleware) seal *transfers*: corruption
//! introduced on the wire is caught on arrival. A bit flip **inside a
//! kernel** is invisible to them — the corrupted amplitudes are what
//! gets checksummed. This middleware closes that hole with the
//! algebraic invariants of unitary evolution (see
//! `qgpu_faults::invariant`):
//!
//! * per-chunk 2-norm tables, updated after every checked kernel with
//!   the compensated deterministic reduction from `qgpu-math`;
//! * per-chunk peak-|a|² tables backing the magnitude-preservation
//!   check on diagonal kernels;
//! * zero-block checks for chunks the involvement tracker pruned;
//! * a whole-state norm gate before any Measure/Sample consumes the
//!   state.
//!
//! Detection wires into recovery: a violated task is restored from its
//! pre-gate snapshot and re-executed on the same (modeled) device; a
//! second violation escalates to re-execution attributed to a
//! *different* device (a dual-run vote — host state is authoritative,
//! so the vote is modeled by the attempt ladder), and every violation
//! feeds the per-device [`DeviceHealthBoard`]. The driver drains a
//! device the board quarantines through its device-loss path.
//!
//! Cost model: in fault-free `--verify-invariants` runs diagonal
//! kernels pass through without a norm recompute (a diagonal gate
//! provably preserves every per-chunk norm, so the tables stay valid;
//! the accumulated staleness widens later tolerances), and the
//! remaining non-diagonal kernels are checked at a fixed stride
//! ([`UNARMED_STRIDE`]): a skipped chunk-local unitary still preserves
//! its chunk norm, so those baselines stay live, while chunks a skipped
//! *mixing* gate touched are marked unknown and re-anchored at the next
//! check. Together these keep the overhead of e.g. QFT under the
//! `integrity_overhead` bench's 3% bound. When a kernel-flip fault is
//! armed, every gate is checked eagerly so repair windows stay one gate
//! wide.

use qgpu_circuit::fuse::FusedOp;
use qgpu_device::timeline::Timeline;
use qgpu_faults::invariant::{IntegritySummary, InvariantKind, Tolerance};
use qgpu_faults::{FaultInjector, RetryPolicy, SimError};
use qgpu_math::reduce::{norm_and_peak, norm_sqr_compensated, pairwise_sum};
use qgpu_math::rng::unit_draw;
use qgpu_math::Complex64;
use qgpu_obs::{span_opt, Recorder, Stage as ObsStage, Track};
use qgpu_sched::health::{DeviceHealthBoard, HealthTransition};
use qgpu_sched::plan::Tasks;
use qgpu_statevec::{ChunkExecutor, ChunkedState};

use crate::config::SimConfig;

use super::middleware::{self, Touched};
use super::Env;

/// Salt for the flip's amplitude-offset draw — its own stream, distinct
/// from the fire/no-fire decision ("target" in ASCII).
const SALT_FLIP_TARGET: u64 = 0x7461_7267_6574_0000;

/// In unarmed verify mode, one non-diagonal kernel in this many gets a
/// full norm sweep; the rest bump the staleness budget. Armed runs
/// check every gate (repair needs one-gate windows).
const UNARMED_STRIDE: u64 = 4;

/// One checked unit of kernel work: a chunk-local task or a mixing
/// group — its representative and its chunks.
struct Task {
    rep: usize,
    chunks: Vec<usize>,
}

/// The integrity middleware state, owned by the driver's `Env` when
/// [`SimConfig::integrity_active`] holds.
pub(crate) struct IntegrityMw {
    inj: FaultInjector,
    /// Kernel-flip injection configured: snapshot before every kernel so
    /// violations can be repaired by re-execution.
    armed: bool,
    retry_budget: u32,
    num_gpus: usize,
    /// Expected squared 2-norm per chunk (exactly preserved by every
    /// chunk-local unitary).
    norms: Vec<f64>,
    /// Expected peak per-amplitude |a|² per chunk (preserved by
    /// diagonal kernels).
    peaks: Vec<f64>,
    /// Pass-through (unchecked diagonal or stride-skipped) gates since
    /// the last full table rebuild — widens later tolerances so
    /// staleness never false-positives.
    stale_gates: u64,
    /// Non-diagonal kernels since the last strided check (unarmed mode).
    since_check: u64,
    /// Pruning gates since the last zero-block sweep (unarmed mode).
    zb_since: u64,
    gates_checked: u64,
    board: DeviceHealthBoard,
    /// A device the board just quarantined, awaiting the driver's drain
    /// through the orchestrator re-shard path.
    pending_quarantine: Option<usize>,
    pub(crate) summary: IntegritySummary,
}

impl IntegrityMw {
    /// Builds the middleware for a fresh `|0…0⟩` state.
    pub(crate) fn new(cfg: &SimConfig, num_qubits: usize, chunk_bits: u32) -> Self {
        let num_chunks = 1usize << (num_qubits as u32 - chunk_bits);
        let num_gpus = cfg.platform.num_gpus();
        let mut norms = vec![0.0; num_chunks];
        let mut peaks = vec![0.0; num_chunks];
        // |0…0⟩ lives entirely in chunk 0.
        norms[0] = 1.0;
        peaks[0] = 1.0;
        IntegrityMw {
            inj: FaultInjector::new(cfg.faults),
            armed: cfg.faults.kernel_faults_enabled(),
            retry_budget: RetryPolicy::default().max_retries,
            num_gpus: num_gpus.max(1),
            norms,
            peaks,
            stale_gates: 0,
            since_check: 0,
            zb_since: 0,
            gates_checked: 0,
            board: DeviceHealthBoard::new(num_gpus.max(1)),
            pending_quarantine: None,
            summary: IntegritySummary::default(),
        }
    }

    /// Recomputes both tables from the actual state — after a resume,
    /// a collapse renormalization, or a chunk-size repartition.
    pub(crate) fn rebuild(&mut self, state: &ChunkedState) {
        let n = state.num_chunks();
        self.norms.resize(n, 0.0);
        self.peaks.resize(n, 0.0);
        for c in 0..n {
            let (norm, peak) = state.chunk(c).map_or((0.0, 0.0), norm_and_peak);
            self.norms[c] = norm;
            self.peaks[c] = peak;
        }
        self.stale_gates = 0;
        self.since_check = 0;
    }

    /// The modeled device a chunk's kernel is attributed to: the same
    /// striping the static allocator uses. (Streaming deals modeled
    /// *tasks* dynamically; for health attribution a stable
    /// chunk→device map is what makes repeated flips on one chunk
    /// indict one device.)
    fn device_of(&self, chunk: usize) -> usize {
        chunk % self.num_gpus
    }

    /// A device the board quarantined since the last call, if any.
    pub(crate) fn take_pending_quarantine(&mut self) -> Option<usize> {
        self.pending_quarantine.take()
    }

    /// Whether this pruning gate gets a zero-block sweep. Armed runs
    /// sweep every gate (repair windows must stay one gate wide);
    /// unarmed verify strides like the norm checks — a corrupt pruned
    /// chunk stays pruned (nothing writes it), so a later sweep still
    /// catches it, and the whole-state gate backstops the rest.
    pub(crate) fn zero_sweep_due(&mut self) -> bool {
        if self.armed {
            return true;
        }
        self.zb_since += 1;
        if self.zb_since < UNARMED_STRIDE {
            return false;
        }
        self.zb_since = 0;
        true
    }

    fn count(rec: Option<&Recorder>, name: &'static str, kind: InvariantKind) {
        if let Some(r) = rec {
            r.registry().add(name, &[("kind", kind.label())], 1);
        }
    }

    fn note_violation(
        &mut self,
        kind: InvariantKind,
        op_idx: usize,
        chunk: usize,
        attempt: u32,
        rec: Option<&Recorder>,
    ) {
        self.summary.violations += 1;
        Self::count(rec, "integrity.violations", kind);
        if let Some(r) = rec {
            r.flight("integrity", || {
                format!(
                    "{} invariant violated at op {op_idx} chunk {chunk} (attempt {attempt})",
                    kind.label()
                )
            });
        }
        let dev = self.device_of(chunk);
        if self.board.record_violation(dev) == HealthTransition::Quarantined {
            self.summary.quarantines += 1;
            self.pending_quarantine = Some(dev);
            if let Some(r) = rec {
                r.registry()
                    .add("integrity.quarantines", &[("state", "quarantined")], 1);
                r.flight("quarantine", || {
                    format!("device {dev} quarantined by health board at op {op_idx}")
                });
            }
        }
    }

    /// Per-task invariant sweep. Returns the violated tasks (indices
    /// into `tasks`); table entries of *passing* tasks are committed,
    /// entries of violated tasks keep their pre-gate expectation (the
    /// baseline the repair recheck compares against).
    #[allow(clippy::too_many_arguments)]
    fn check_tasks(
        &mut self,
        state: &ChunkedState,
        tasks: &[Task],
        which: &[usize],
        diag: bool,
        member_gates: usize,
        op_idx: usize,
        attempt: u32,
        rec: Option<&Recorder>,
    ) -> Vec<usize> {
        let chunk_len = state.chunk_len();
        let budget = member_gates + self.stale_gates as usize;
        let mut violated = Vec::new();
        for &ti in which {
            let chunks = &tasks[ti].chunks;
            let tol = Tolerance::per_gate(chunk_len * chunks.len(), budget);
            let fresh: Vec<(f64, f64)> = chunks
                .iter()
                .map(|&c| state.chunk(c).map_or((0.0, 0.0), norm_and_peak))
                .collect();
            let before: f64 = chunks.iter().map(|&c| self.norms[c]).sum();
            let after: f64 = fresh.iter().map(|&(n, _)| n).sum();
            self.summary.checks += 1;
            let kind = match chunks.len() {
                1 => InvariantKind::ChunkNorm,
                _ => InvariantKind::GroupNorm,
            };
            Self::count(rec, "integrity.checks", kind);
            // A NaN baseline means a stride-skipped mixing gate touched
            // one of these chunks: there is nothing to compare against,
            // so this sweep re-anchors the tables instead.
            let mut ok = !before.is_finite() || tol.within(before, after);
            if ok && diag {
                // Diagonal kernels additionally preserve per-amplitude
                // magnitudes, so the per-chunk peak must hold too.
                self.summary.checks += 1;
                Self::count(rec, "integrity.checks", InvariantKind::Magnitude);
                ok = chunks
                    .iter()
                    .zip(&fresh)
                    .all(|(&c, &(_, p))| tol.within(self.peaks[c], p));
                if !ok {
                    self.note_violation(InvariantKind::Magnitude, op_idx, chunks[0], attempt, rec);
                }
            } else if !ok {
                self.note_violation(kind, op_idx, chunks[0], attempt, rec);
            }
            if ok {
                for (&c, &(n, p)) in chunks.iter().zip(&fresh) {
                    self.norms[c] = n;
                    self.peaks[c] = p;
                }
            } else {
                violated.push(ti);
            }
        }
        violated
    }

    /// XORs one bit of one amplitude in `target` — corruption *inside*
    /// kernel output, after the functional update and before any CRC
    /// seal sees the data.
    fn inject_flip(
        &mut self,
        state: &mut ChunkedState,
        target: usize,
        op_idx: usize,
        attempt: u32,
        rec: Option<&Recorder>,
    ) {
        let len = state.chunk_len();
        let u = unit_draw(
            self.inj.config().seed,
            SALT_FLIP_TARGET,
            op_idx as u64,
            u64::from(attempt),
        );
        let i = ((u * len as f64) as usize).min(len - 1);
        let bit = self.inj.kernel_flip_bit();
        let amps = state.chunk_mut_or_alloc(target);
        amps[i].re = f64::from_bits(amps[i].re.to_bits() ^ (1u64 << bit));
        self.summary.flips_injected += 1;
        if let Some(r) = rec {
            r.add("integrity.flips_injected", 1);
        }
    }

    /// The checked functional update: apply, (optionally) inject, sweep
    /// the invariants, and repair violations by bounded re-execution.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn checked_apply(
        &mut self,
        executor: &mut ChunkExecutor,
        state: &mut ChunkedState,
        tl: &mut Timeline,
        rec: Option<&Recorder>,
        fop: &FusedOp,
        op_idx: usize,
        w: Touched,
    ) -> Result<(), SimError> {
        let diag = fop.actions().iter().all(|a| a.is_diagonal());
        if !self.armed && diag {
            // Fault-free verify mode: a diagonal kernel provably
            // preserves every per-chunk norm, so the tables stay valid
            // without a recompute. The whole-state gate still audits
            // the final answer; staleness widens later tolerances.
            self.stale_gates += 1;
            return middleware::apply_functional(executor, state, tl, rec, fop, w, None);
        }

        if !self.armed {
            self.since_check += 1;
            if self.since_check < UNARMED_STRIDE {
                // Strided verify: skip the sweep, but a mixing task
                // redistributes norm across its group, so those chunks'
                // baselines are no longer live — mark them unknown for
                // re-anchoring at the next checked gate. A chunk-local
                // unitary preserves its chunk norm exactly, so single
                // baselines survive the skip.
                self.stale_gates += 1;
                if !w.high_mixing.is_empty() {
                    for rep in w.reps {
                        for c in state.chunk_group(rep, w.high_mixing) {
                            self.norms[c] = f64::NAN;
                            self.peaks[c] = f64::NAN;
                        }
                    }
                }
                return middleware::apply_functional(executor, state, tl, rec, fop, w, None);
            }
            self.since_check = 0;
        }

        let tasks: Vec<Task> = w
            .reps
            .map(|rep| Task {
                rep,
                chunks: match w.high_mixing {
                    [] => vec![rep],
                    hm => state.chunk_group(rep, hm),
                },
            })
            .collect();
        if tasks.is_empty() {
            return Ok(());
        }
        self.gates_checked += 1;

        // Pre-gate snapshots make violations repairable: restore the
        // violated task's chunks and re-run just that task. Only taken
        // when an injection campaign is armed — pure verify mode
        // detects and reports instead (nothing is injected, so a
        // violation there is a genuine engine/hardware fault).
        let snapshots: Vec<Vec<Option<Vec<Complex64>>>> = if self.armed {
            tasks
                .iter()
                .map(|t| {
                    t.chunks
                        .iter()
                        .map(|&c| state.chunk(c).map(|s| s.to_vec()))
                        .collect()
                })
                .collect()
        } else {
            Vec::new()
        };

        middleware::apply_functional(executor, state, tl, rec, fop, w, None)?;
        if self.armed && self.inj.kernel_flip_fires(op_idx, 0) {
            // The flip lands in the first touched chunk (stable, so a
            // flip campaign indicts a stable device); the amplitude
            // offset within the chunk is seed-drawn.
            self.inject_flip(state, tasks[0].chunks[0], op_idx, 0, rec);
        }

        let all: Vec<usize> = (0..tasks.len()).collect();
        let member_gates = fop.source_gates().max(1);
        let mut violated = {
            let _g = span_opt(rec, Track::Main, ObsStage::Update, "update.verify");
            self.check_tasks(state, &tasks, &all, diag, member_gates, op_idx, 0, rec)
        };
        let mut attempt: u32 = 0;
        while !violated.is_empty() {
            let first_chunk = tasks[violated[0]].chunks[0];
            if !self.armed || attempt >= self.retry_budget {
                return Err(SimError::InvariantViolation {
                    gate: op_idx,
                    chunk: first_chunk,
                });
            }
            attempt += 1;
            let _g = span_opt(rec, Track::Main, ObsStage::Update, "update.repair");
            // Audit trail: attempt 1 re-executes on the violating
            // device; attempt ≥ 2 is the dual-run escalation attributed
            // to a different device (host re-execution stands in for
            // the vote — its result is the bit-exact reference).
            if attempt == 1 {
                self.summary.reexec_same_device += 1;
                if let Some(r) = rec {
                    r.add("integrity.reexec_same_device", 1);
                }
            } else {
                self.summary.reexec_cross_device += 1;
                if let Some(r) = rec {
                    r.add("integrity.reexec_cross_device", 1);
                }
            }
            // Restore every violated task to its pre-gate bytes, then
            // re-run exactly those tasks.
            for &ti in &violated {
                for (&c, snap) in tasks[ti].chunks.iter().zip(&snapshots[ti]) {
                    match snap {
                        Some(bytes) => state.chunk_mut_or_alloc(c).copy_from_slice(bytes),
                        None => state.chunk_mut_or_alloc(c).fill(Complex64::ZERO),
                    }
                }
            }
            let reps = violated.iter().map(|&ti| tasks[ti].rep);
            let restarts = executor.try_apply_group_runs(
                state,
                fop.actions(),
                reps,
                w.high_mixing,
                None,
                None,
            )?;
            middleware::note_restarts(tl, rec, restarts);
            if self.inj.kernel_flip_fires(op_idx, attempt) {
                self.inject_flip(state, tasks[violated[0]].chunks[0], op_idx, attempt, rec);
            }
            let before = violated.len();
            violated = self.check_tasks(
                state,
                &tasks,
                &violated,
                diag,
                member_gates,
                op_idx,
                attempt,
                rec,
            );
            let repaired = (before - violated.len()) as u64;
            if repaired > 0 {
                self.summary.repairs += repaired;
                if let Some(r) = rec {
                    r.add("integrity.repairs", repaired);
                }
            }
        }
        Ok(())
    }

    /// Zero-block invariant: every chunk the prune stage skipped this
    /// gate must hold no amplitude. The involvement tracker's claim is a
    /// proof, so any amplitude here is corruption (or a pruning bug) —
    /// unrepairable by re-execution, reported upward.
    pub(crate) fn check_zero_blocks<I: IntoIterator<Item = usize>>(
        &mut self,
        state: &ChunkedState,
        pruned: I,
        op_idx: usize,
        rec: Option<&Recorder>,
    ) -> Result<(), SimError> {
        // Counters are batched per sweep: a qft_20 run prunes tens of
        // millions of (chunk, gate) pairs, and a per-chunk labeled
        // registry update would dwarf the checks themselves.
        let floor = f64::EPSILON * f64::EPSILON;
        let mut swept = 0u64;
        let mut bad = None;
        for c in pruned {
            swept += 1;
            let table = self.norms[c];
            let live = !state.is_zero_chunk(c)
                && if table.is_finite() {
                    table > floor
                } else {
                    // Baseline lost to a stride skip: ask the data.
                    state.chunk(c).map_or(0.0, norm_sqr_compensated) > floor
                };
            if live {
                bad = Some(c);
                break;
            }
        }
        self.summary.checks += swept;
        if let Some(r) = rec {
            if swept > 0 {
                r.registry().add(
                    "integrity.checks",
                    &[("kind", InvariantKind::ZeroBlock.label())],
                    swept,
                );
            }
        }
        if let Some(c) = bad {
            self.note_violation(InvariantKind::ZeroBlock, op_idx, c, 0, rec);
            return Err(SimError::InvariantViolation {
                gate: op_idx,
                chunk: c,
            });
        }
        Ok(())
    }

    /// The whole-state norm gate, run before any Measure/Sample
    /// consumes the state: recomputes the total norm from the actual
    /// amplitudes (not the tables), so corruption in chunks untouched
    /// since their last per-gate check — including diagonal
    /// pass-through gates — is caught before it reaches an answer.
    pub(crate) fn check_whole_state(
        &mut self,
        state: &ChunkedState,
        op_idx: usize,
        rec: Option<&Recorder>,
    ) -> Result<(), SimError> {
        let per_chunk: Vec<f64> = (0..state.num_chunks())
            .map(|c| state.chunk(c).map_or(0.0, norm_sqr_compensated))
            .collect();
        let total = pairwise_sum(&per_chunk);
        let amps = 1usize << state.num_qubits();
        let tol = Tolerance::whole_state(amps, self.gates_checked + self.stale_gates);
        self.summary.checks += 1;
        Self::count(rec, "integrity.checks", InvariantKind::WholeState);
        if !tol.within(1.0, total) {
            self.note_violation(InvariantKind::WholeState, op_idx, usize::MAX, 0, rec);
            return Err(SimError::InvariantViolation {
                gate: op_idx,
                chunk: usize::MAX,
            });
        }
        Ok(())
    }
}

/// The functional update of `reps` (tasks, or mixing groups when
/// `high_mixing` is not empty), with integrity checking when armed: the
/// entry point every gate shape routes its kernel application through.
/// The executor walks the tasks' closed form: nothing is materialized per
/// task.
pub(crate) fn apply_tasks(
    env: &mut Env,
    fop: &FusedOp,
    op_idx: usize,
    reps: Tasks,
    high_mixing: &[usize],
) -> Result<(), SimError> {
    let w = Touched { reps, high_mixing };
    let (ex, st, tl, rec) = (&mut env.executor, &mut env.state, &mut *env.tl, env.rec);
    match env.integ.as_mut() {
        Some(mw) => mw.checked_apply(ex, st, tl, rec, fop, op_idx, w),
        None => middleware::apply_functional(ex, st, tl, rec, fop, w, None),
    }
}
