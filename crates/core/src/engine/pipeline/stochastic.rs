//! Stochastic execution: seeded mid-circuit collapse and end-of-circuit
//! shot sampling, shared by the streaming and static modes.
//!
//! All randomness flows through [`qgpu_math::rng::unit_draw`], keyed so
//! that every draw is a pure function of `(stoch_seed, site)` — never of
//! execution order, thread count, device count, or flag subset:
//!
//! * **collapse draws** are keyed by `(qubit, occurrence)` — the k-th
//!   measurement/reset of qubit `q` consumes the same draw in any valid
//!   gate order, because the dependency DAG totally orders operations on
//!   a shared qubit (reordering can only move *other* qubits' work
//!   around a collapse, never the collapse itself);
//! * **sampling draws** are keyed by shot index (see
//!   [`qgpu_statevec::measure::seeded_counts_chunked`]).
//!
//! A collapse is a full pipeline synchronization point: probabilities
//! are read on the host from the authoritative state, so every in-flight
//! chunk must land first, and every cached compressed form is stale
//! after the renormalization pass. The modeled cost is two host passes
//! over the resident amplitudes (reduce + scale) and a sync.

use qgpu_circuit::fuse::ProgramOp;
use qgpu_device::timeline::{Engine, TaskKind, Timeline};
use qgpu_device::Counter;
use qgpu_math::rng::{unit_draw, SALT_COLLAPSE};
use qgpu_obs::{span_opt, Recorder, Stage as ObsStage, Track};
use qgpu_statevec::{measure, ChunkedState};

use crate::config::SimConfig;

use super::spec::ExecMode;
use super::Env;

/// The seeded source of collapse draws for one run.
///
/// Occurrence counters replay instantly for a resumed run's skipped
/// prefix — they are a pure function of the program, no amplitudes
/// needed — so a run resumed from a checkpoint consumes exactly the
/// draws the uninterrupted run would have.
pub(crate) struct CollapseRng {
    seed: u64,
    /// Per-qubit count of collapses already drawn.
    occ: Vec<u64>,
}

impl CollapseRng {
    /// A collapse stream for `seed`, fast-forwarded over `prefix` (the
    /// program ops a resumed run skips).
    pub(crate) fn new(seed: u64, num_qubits: usize, prefix: &[ProgramOp]) -> Self {
        let mut occ = vec![0u64; num_qubits];
        for op in prefix {
            match op {
                ProgramOp::Measure { qubit } | ProgramOp::Reset { qubit } => occ[*qubit] += 1,
                ProgramOp::Unitary(_) => {}
            }
        }
        CollapseRng { seed, occ }
    }

    /// The next collapse draw for `qubit`, in `[0, 1)`.
    pub(crate) fn draw(&mut self, qubit: usize) -> f64 {
        let site = ((qubit as u64) << 32) | self.occ[qubit];
        self.occ[qubit] += 1;
        unit_draw(self.seed, SALT_COLLAPSE, site, 0)
    }
}

/// Functionally collapses `qubit` using draw `u`: measure semantics
/// (project + renormalize) or reset semantics (project + renormalize +
/// move any `|1⟩` amplitude to `|0⟩`). Returns the recorded outcome.
pub(crate) fn collapse_state(
    state: &mut ChunkedState,
    qubit: usize,
    is_reset: bool,
    u: f64,
) -> bool {
    let p1 = measure::prob_one_chunked(state, qubit);
    let outcome = u < p1;
    let p_outcome = if outcome { p1 } else { 1.0 - p1 };
    if is_reset {
        measure::reset_chunked(state, qubit, outcome, p_outcome);
    } else {
        measure::collapse_chunked(state, qubit, outcome, p_outcome);
    }
    outcome
}

/// A collapse op with seeded draw `u`: the modeled host cost — a reduce
/// pass (read every resident amplitude for the probability), a scale pass
/// (renormalize in place), and the host↔device sync — then the functional
/// projection of the authoritative state. The cost starts once the state
/// is whole on the host. In static mode it always is, so it starts when
/// the last op ended. Streaming first drains every in-flight chunk (the
/// re-partition discipline: chunk-indexed caches reset, the epoch floor
/// advances).
pub(crate) fn collapse(env: &mut Env, qubit: usize, is_reset: bool, u: f64) {
    let kind = if is_reset { "reset" } else { "measure" };
    let span = if is_reset {
        "collapse.reset"
    } else {
        "collapse.measure"
    };
    let _g = span_opt(env.rec, Track::Main, ObsStage::Measure, span);
    let ready = match env.spec.mode {
        ExecMode::Static => env.dev.chain,
        ExecMode::Streaming => {
            env.epoch_floor = env.epoch_floor.max(env.tl.makespan());
            env.held.clear();
            if let Some(rs) = env.resil.as_mut() {
                rs.on_repartition();
            }
            env.dev.drain(None);
            env.epoch_floor
        }
    };
    let (bytes, host) = (env.state.memory_bytes() as u64, &env.cfg.platform.host);
    let (bw, sync) = (host.chunked_update_bw(), host.sync_latency);
    let (tl, pass) = (&mut *env.tl, bytes as f64 / bw);
    // The reduce + scale passes are collapse work, not generic host
    // update: credit them to the Measure drift phase.
    tl.add_measure_time(2.0 * bytes as f64 / bw);
    let reduce = tl.schedule(Engine::Host, ready, pass, TaskKind::HostUpdate, bytes);
    let scale = tl.schedule(Engine::Host, reduce.end, pass, TaskKind::HostUpdate, bytes);
    let end = tl
        .schedule(Engine::Host, scale.end, sync, TaskKind::Sync, 0)
        .end;
    env.epoch_floor = env.epoch_floor.max(end);
    env.dev.chain = env.dev.chain.max(end);
    let outcome = collapse_state(&mut env.state, qubit, is_reset, u);
    env.tl.count(Counter::Collapses, 1);
    if let Some(r) = env.rec {
        r.flight("collapse", || {
            format!("{kind} qubit {qubit} -> {}", u8::from(outcome))
        });
    }
}

/// End-of-circuit seeded readout: `cfg.shots` draws against the final
/// distribution, with one modeled host pass over the resident amplitudes
/// (the CDF sweep). Returns `None` when no shots were requested.
pub(crate) fn sample_readout(
    state: &ChunkedState,
    cfg: &SimConfig,
    tl: &mut Timeline,
    rec: Option<&Recorder>,
) -> Option<Vec<(usize, u64)>> {
    if cfg.shots == 0 {
        return None;
    }
    let _g = span_opt(rec, Track::Main, ObsStage::Sample, "readout.sample");
    let bytes = state.memory_bytes() as u64;
    let bw = cfg.platform.host.chunked_update_bw();
    // The CDF sweep is sampling work: credit it to the Sample drift phase.
    tl.add_sample_time(bytes as f64 / bw);
    tl.schedule(
        Engine::Host,
        tl.makespan(),
        bytes as f64 / bw,
        TaskKind::HostUpdate,
        bytes,
    );
    tl.count(Counter::Shots, cfg.shots);
    Some(measure::seeded_counts_chunked(
        state,
        cfg.shots,
        cfg.stoch_seed,
        0,
    ))
}
