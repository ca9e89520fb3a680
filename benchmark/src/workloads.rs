//! The workload table, set-up (circuit, reference, simulator, warm-up),
//! the per-job correctness check and the timed loop of the single-job
//! workloads.

use std::time::Instant;

use qgpu::{RunResult, SimConfig, Simulator, Version};
use qgpu_circuit::generators::Benchmark;
use qgpu_circuit::Circuit;
use qgpu_statevec::StateVector;

use crate::stats::{fingerprint, Tally};
use crate::trace::Tracer;

/// Noise channels of the noisy workload (and `repro perf`'s noisy half).
pub const NOISE_SPEC: &str = "depolarizing:0.01,loss:0.02";
/// Stochastic seed of every engine run (noise draws, collapses, shots).
/// Pinned, like the circuit instances: `--seed` must not change how much
/// work a workload is, or runs with different seeds could not be compared.
pub const STOCH_SEED: u64 = 42;
/// Ideal runs must land this close to the dense reference.
pub const MAX_DEVIATION: f64 = 1e-12;
pub const MAX_NORM_ERROR: f64 = 1e-9;

/// One circuit under one engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineSpec {
    pub bench: Benchmark,
    pub qubits: usize,
    pub version: Version,
    pub threads: usize,
    pub devices: usize,
    pub noisy: bool,
    pub shots: u64,
    /// Seed of the circuit instance (0 = the generator's default); `qft`
    /// ignores it.
    pub circuit_seed: u64,
}

impl EngineSpec {
    const fn ideal(bench: Benchmark, qubits: usize, version: Version) -> Self {
        EngineSpec {
            bench,
            qubits,
            version,
            threads: 1,
            devices: 1,
            noisy: false,
            shots: 0,
            circuit_seed: 0,
        }
    }

    pub fn config(&self, stoch_seed: u64) -> SimConfig {
        let mut cfg = SimConfig::scaled_paper(self.qubits)
            .with_version(self.version)
            .with_threads(self.threads)
            .with_shots(self.shots)
            .with_stoch_seed(stoch_seed);
        cfg.platform = cfg.platform.with_devices(self.devices);
        if self.noisy {
            cfg = cfg.with_noise(NOISE_SPEC.parse().expect("pinned noise spec parses"));
        }
        cfg
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// One circuit run again and again through `Simulator::try_run`.
    Single(EngineSpec),
    /// Many small jobs through `qgpu_serve::Server`, closed loop.
    ServeMix,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

/// The six workloads. `why` is the line `BENCHMARK.json` carries.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "qft18_qgpu",
        why: "Flagship full recipe: the per-task loop, plan/prune and timeline modeling dominate host time",
        kind: Kind::Single(EngineSpec::ideal(Benchmark::Qft, 18, Version::QGpu)),
    },
    Workload {
        name: "bv22_qgpu",
        why: "Nearly every chunk pruned for the whole run: plan/prune cost per planned chunk; kernels and codecs bypassed",
        kind: Kind::Single(EngineSpec::ideal(Benchmark::Bv, 22, Version::QGpu)),
    },
    Workload {
        name: "iqp21_qgpu",
        why: "Dense final state: every live chunk goes through the codec on near-incompressible data, so compress dominates",
        kind: Kind::Single(EngineSpec::ideal(Benchmark::Iqp, 21, Version::QGpu)),
    },
    Workload {
        name: "qft21_baseline",
        why: "Static allocation, kernel-bound: the streaming pipeline, sched and compress are bypassed, so they must not move it",
        kind: Kind::Single(EngineSpec::ideal(Benchmark::Qft, 21, Version::Baseline)),
    },
    Workload {
        name: "rqc21_noisy_t2",
        why: "Seeded noise, mid-circuit collapse, 4096 shots, 2 threads, 2 devices: the same layers used the stochastic way",
        kind: Kind::Single(EngineSpec {
            threads: 2,
            devices: 2,
            noisy: true,
            shots: 4096,
            ..EngineSpec::ideal(Benchmark::Rqc, 21, Version::QGpu)
        }),
    },
    Workload {
        name: "serve_mix",
        why: "Many 10-14 qubit jobs through the server, closed loop, 2 clients: per-job fixed cost and serving overhead dominate",
        kind: Kind::ServeMix,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.into_iter().find(|w| w.name == name)
}

/// A prepared circuit: what set-up builds and every timed job is checked
/// against.
pub struct Case {
    pub spec: EngineSpec,
    pub circuit: Circuit,
    pub sim: Simulator,
    /// Fingerprint, modeled makespan and shot counts every run of this
    /// case must reproduce bit for bit.
    pub anchor_fp: u64,
    pub anchor_modeled_s: f64,
    pub anchor_samples: Option<Vec<(usize, u64)>>,
    /// Set when the anchor itself disagreed with its reference; every
    /// job on the case then counts as failed.
    pub anchor_error: Option<String>,
    pub generate_s: f64,
    /// Host seconds of the plain dense run of the same circuit.
    pub dense_s: f64,
}

fn run_collecting(sim: &Simulator, circuit: &Circuit) -> Result<(RunResult, StateVector), String> {
    let mut r = sim.try_run(circuit).map_err(|e| e.to_string())?;
    let state = r.state.take().ok_or("run returned no state")?;
    Ok((r, state))
}

/// Generates the circuit, runs the dense reference, builds the simulator
/// and warms it up. The warm-up run is checked against the reference and
/// becomes the anchor of every later job.
///
/// Ideal cases are checked against the dense `StateVector::run` within
/// [`MAX_DEVIATION`]. A noisy case has no dense counterpart (the noise
/// rewrite happens inside the engine), so it must be bit-identical, state
/// and shot counts, to a 1-thread, 1-device run of the same version, and
/// within [`MAX_DEVIATION`] of a `Baseline` run of the same trajectory.
pub fn prepare(spec: EngineSpec, stoch_seed: u64, tracer: &mut Tracer) -> Case {
    let t = Instant::now();
    let circuit = tracer.span("circuit.generate", |_| match spec.circuit_seed {
        0 => spec.bench.generate(spec.qubits),
        seed => spec.bench.generate_seeded(spec.qubits, seed),
    });
    let generate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let dense = tracer.span("statevec.dense_reference", |_| {
        let mut s = StateVector::new_zero(spec.qubits);
        s.run(&circuit);
        s
    });
    let dense_s = t.elapsed().as_secs_f64();

    let sim = Simulator::new(spec.config(stoch_seed));
    let warm = tracer.span("core.try_run", |_| run_collecting(&sim, &circuit));

    let mut case = Case {
        spec,
        circuit,
        sim,
        anchor_fp: 0,
        anchor_modeled_s: 0.0,
        anchor_samples: None,
        anchor_error: None,
        generate_s,
        dense_s,
    };
    let (result, state) = match warm {
        Ok(ok) => ok,
        Err(e) => {
            case.anchor_error = Some(format!("warm-up run failed: {e}"));
            return case;
        }
    };
    case.anchor_fp = fingerprint(state.amps());
    case.anchor_modeled_s = result.report.total_time;
    case.anchor_samples = result.samples;
    case.anchor_error = tracer.span("verify.state", |_| {
        if spec.noisy {
            // Reordering changes rounding, so only runs of one version are
            // bit-identical; across versions the states agree to tolerance.
            let plain = EngineSpec {
                threads: 1,
                devices: 1,
                ..spec
            };
            let baseline = EngineSpec {
                version: Version::Baseline,
                ..plain
            };
            let rerun = |spec: EngineSpec| {
                run_collecting(&Simulator::new(spec.config(stoch_seed)), &case.circuit)
            };
            match (rerun(plain), rerun(baseline)) {
                (Err(e), _) | (_, Err(e)) => Some(format!("noisy reference run failed: {e}")),
                (Ok((_, s)), _) if fingerprint(s.amps()) != case.anchor_fp => Some(format!(
                    "state differs from the 1-thread/1-device run by {:e}",
                    s.max_deviation(&state)
                )),
                (Ok((r, _)), _) if r.samples != case.anchor_samples => {
                    Some("shot counts differ from the 1-thread/1-device run".into())
                }
                (_, Ok((_, s))) if s.max_deviation(&state) > MAX_DEVIATION => Some(format!(
                    "state deviates from the Baseline run by {:e}",
                    s.max_deviation(&state)
                )),
                _ => None,
            }
        } else {
            let dev = state.max_deviation(&dense);
            let norm_err = (state.norm() - 1.0).abs();
            (dev > MAX_DEVIATION || norm_err > MAX_NORM_ERROR).then(|| {
                format!("deviation {dev:e} from the dense reference, norm error {norm_err:e}")
            })
        }
    });
    case
}

/// Checks one finished job against its case's anchor.
pub fn verify(case: &Case, result: &RunResult) -> Result<(), String> {
    if let Some(e) = &case.anchor_error {
        return Err(e.clone());
    }
    let state = result.state.as_ref().ok_or("no state collected")?;
    let fp = fingerprint(state.amps());
    if fp != case.anchor_fp {
        return Err(format!(
            "state fingerprint {fp:016x} is not the reference {:016x}",
            case.anchor_fp
        ));
    }
    let modeled = result.report.total_time;
    if modeled.to_bits() != case.anchor_modeled_s.to_bits() {
        return Err(format!(
            "modeled_s {modeled:e} differs from the first run's {:e}",
            case.anchor_modeled_s
        ));
    }
    if result.samples != case.anchor_samples {
        return Err("shot counts differ from the reference".into());
    }
    Ok(())
}

/// One run of every case of a workload: one case for the single-job
/// workloads, the 48 templates for `serve_mix`. States are dropped after
/// the check, so a long run holds one state at a time.
pub struct Pass {
    pub wall_s: f64,
    pub results: Vec<RunResult>,
}

/// Runs `sim` on the case's circuit until `budget_s` has passed and at
/// least `min_iters` jobs are done, checking every one.
pub fn iterate(
    case: &Case,
    sim: &Simulator,
    budget_s: f64,
    min_iters: usize,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Vec<Pass> {
    let loop_start = Instant::now();
    let mut iterations = Vec::new();
    while iterations.len() < min_iters || loop_start.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        let run = tracer.span("core.try_run", |_| sim.try_run(&case.circuit));
        let wall_s = t.elapsed().as_secs_f64();
        match run {
            Err(e) => tally.fail(format!("try_run: {e}")),
            Ok(mut result) => {
                match tracer.span("verify.state", |_| verify(case, &result)) {
                    Ok(()) => tally.ok(wall_s),
                    Err(e) => tally.fail(e),
                }
                result.state = None;
                iterations.push(Pass {
                    wall_s,
                    results: vec![result],
                });
            }
        }
        if tally.failed as usize >= min_iters.max(3) && tally.correct() == 0 {
            break; // nothing works: do not spend the budget on it
        }
    }
    iterations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_case() -> Case {
        let spec = EngineSpec::ideal(Benchmark::Iqp, 8, Version::QGpu);
        prepare(spec, 1, &mut Tracer::new("test", false))
    }

    #[test]
    fn a_correct_run_passes_and_is_counted_once() {
        let case = small_case();
        assert_eq!(case.anchor_error, None);
        let mut tally = Tally::default();
        let its = iterate(
            &case,
            &case.sim,
            0.0,
            2,
            &mut tally,
            &mut Tracer::new("t", false),
        );
        assert_eq!((tally.attempted, tally.failed, its.len()), (2, 0, 2));
    }

    #[test]
    fn a_wrong_reference_fingerprint_lands_in_failed() {
        let mut case = small_case();
        case.anchor_fp ^= 1;
        let mut tally = Tally::default();
        iterate(
            &case,
            &case.sim,
            0.0,
            2,
            &mut tally,
            &mut Tracer::new("t", false),
        );
        assert_eq!((tally.attempted, tally.failed), (2, 2));
        assert!(
            tally.reasons[0].contains("fingerprint"),
            "{:?}",
            tally.reasons
        );
        assert!(tally
            .latencies_s
            .iter()
            .all(|&l| l == crate::stats::FAILED_LATENCY_S));
    }

    #[test]
    fn a_modeled_time_that_changes_between_iterations_lands_in_failed() {
        let case = small_case();
        let mut result = case.sim.try_run(&case.circuit).unwrap();
        assert_eq!(verify(&case, &result), Ok(()));
        result.report.total_time *= 1.0 + f64::EPSILON;
        let err = verify(&case, &result).unwrap_err();
        assert!(err.contains("modeled_s"), "{err}");
    }

    #[test]
    fn the_noisy_case_matches_its_plain_reference() {
        let spec = EngineSpec {
            threads: 2,
            devices: 2,
            noisy: true,
            shots: 256,
            ..EngineSpec::ideal(Benchmark::Rqc, 10, Version::QGpu)
        };
        let case = prepare(spec, 3, &mut Tracer::new("test", false));
        assert_eq!(case.anchor_error, None);
        assert!(case.anchor_samples.is_some());
    }
}
