//! The repo benchmark: six workloads, end-to-end metrics from untraced
//! runs and per-layer metrics from traced ones. See `README.md`.
//!
//! ```text
//! qgpu-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one run in this process; the last line of stdout is the result:
//!     {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}
//! qgpu-benchmark [--workload NAME] [--trace 0|1] [--seed N] [--seconds S]
//!                [--repeat K] [--smoke]
//!     every selected (workload, trace) pair, each in a fresh child
//!     process so peak memory does not bleed; `--repeat K` runs K sets
//!     and fails if two sets disagree by more than a metric's bound.
//! ```

mod layers;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use qgpu::Simulator;
use qgpu_obs::Json;

use layers::{metric, Metric, MicroSizes};
use stats::{median, sorted, spread_line, Tally};
use trace::Tracer;
use workloads::{
    find, iterate, prepare, Case, EngineSpec, Kind, Pass, Workload, STOCH_SEED, WORKLOADS,
};

/// An end-to-end metric: what a user of the simulator or the server
/// feels, and how far its median may worsen before it is a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// Mirrors `end_to_end` in `BENCHMARK.json` (a test holds them equal).
///
/// The three timings carry the widest bound the contract allows: on the
/// shared 2-core host this was sized on, ten runs of one binary spread by
/// 5-10 % of their median in calm minutes and by 30-60 % in noisy ones
/// (README, "How steady it is"), so a tighter bound would reject unchanged
/// code.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "jobs_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.10,
    },
];

/// Per-layer metrics that are pure functions of (circuit, config, seed):
/// two runs of one seed must print them identically.
pub const EXACT_REPEAT: [&str; 10] = [
    "device.modeled_s",
    "device.bytes_h2d",
    "device.bytes_d2h",
    "device.chunks_processed",
    "device.chunks_pruned",
    "device.prune_frac",
    "device.compression_ratio",
    "device.flops_gpu",
    "sched.plan_tasks",
    "circuit.ops",
];

/// Jobs a single-job workload runs at least, however short `--seconds`.
const MIN_ITERATIONS: usize = 7;
const MIN_TRACED_ITERATIONS: usize = 3;
/// Set-up is repeated and its median reported, so one slow page-in does
/// not decide `setup_s`.
const SETUP_REPS: usize = 3;
/// Jobs of the serving probe that gives the `serve.*` layer metrics on
/// the single-job workloads (on `serve_mix` they come from its own list).
const SERVE_PROBE_JOBS: usize = 150;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    trace: Option<bool>,
    seed: u64,
    seconds: f64,
    repeat: usize,
    smoke: bool,
}

impl Args {
    /// Seconds a timed loop may take; a smoke run does its minimum of
    /// jobs and stops.
    fn budget_s(&self) -> f64 {
        if self.smoke {
            0.0
        } else {
            self.seconds
        }
    }
}

const USAGE: &str = "usage: qgpu-benchmark [--workload NAME] [--trace 0|1] [--seed N] \
                     [--seconds S] [--repeat K] [--smoke]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        trace: None,
        seed: 1,
        seconds: 10.0,
        repeat: 1,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or(format!("missing value after {flag}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                find(name).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload '{name}' (have {})", names.join(", "))
                })?;
                a.workload = Some(name.clone());
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got '{other}'")),
                })
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--repeat" => {
                a.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if a.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match (&args.workload, args.trace) {
        (Some(name), Some(traced)) if args.repeat == 1 => {
            let workload = find(name).expect("validated by parse_args");
            run_one(workload, &args, traced);
            // The result line carries `correct` and `failed`; the exit
            // code only says that a result was produced.
            ExitCode::SUCCESS
        }
        _ => run_sets(&args),
    }
}

// ───────────────────────── one run, in this process ─────────────────────────

fn run_one(w: Workload, args: &Args, traced: bool) {
    print_header(w, args, traced);
    let mut tracer = Tracer::new(w.name, traced);
    let mut tally = Tally::default();
    let metrics = if traced {
        per_layer(w, args, &mut tally, &mut tracer)
    } else {
        end_to_end(w, args, &mut tally)
    };
    if traced {
        write_trace(w, &tracer);
    }
    print_result(&metrics, &mut tally);
}

fn print_header(w: Workload, args: &Args, traced: bool) {
    println!(
        "# qgpu-benchmark workload={} seed={} seconds={} trace={}{}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(traced),
        if args.smoke { " smoke" } else { "" }
    );
    println!("# why: {}", w.why);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("# host: nproc={nproc} caches: {}", cache_sizes());
    match w.kind {
        Kind::Single(_) => println!("# the circuit instance and the stochastic seed are pinned: --seed does not change this workload's input"),
        Kind::ServeMix => println!("# --seed draws the order of the job list and each job's tenant; the 48 templates are pinned"),
    }
    println!("# modeled times (device.*) come from a timing model that is unvalidated against hardware: no error figure exists");
}

fn cache_sizes() -> String {
    let mut out = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read =
            |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_string());
        if let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) {
            out.push(format!(
                "L{level}{}={size}",
                if kind == "Unified" { "" } else { &kind[..1] }
            ));
        }
    }
    if out.is_empty() {
        "unknown".into()
    } else {
        out.join(" ")
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn spec_for(w: Workload, args: &Args) -> Option<EngineSpec> {
    match w.kind {
        Kind::Single(spec) => Some(EngineSpec {
            qubits: if args.smoke { 12 } else { spec.qubits },
            ..spec
        }),
        Kind::ServeMix => None,
    }
}

/// The untraced run: set-up (repeated), then the timed jobs.
fn end_to_end(w: Workload, args: &Args, tally: &mut Tally) -> Vec<Metric> {
    let mut off = Tracer::new(w.name, false);
    let setup_reps = if args.smoke { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let loop_s = match spec_for(w, args) {
        Some(spec) => {
            let mut case = None;
            for _ in 0..setup_reps {
                drop(case.take()); // one reference state alive at a time
                let t = Instant::now();
                case = Some(prepare(spec, STOCH_SEED, &mut off));
                setup_s.push(t.elapsed().as_secs_f64());
            }
            let case = case.expect("set-up ran at least once");
            let min = if args.smoke { 2 } else { MIN_ITERATIONS };
            let its = iterate(&case, &case.sim, args.budget_s(), min, tally, &mut off);
            println!(
                "state fingerprint {:016x} (every job must reproduce it)",
                case.anchor_fp
            );
            let walls: Vec<String> = its.iter().map(|p| format!("{:.4}", p.wall_s)).collect();
            println!("iterations [s], in order: {}", walls.join(" "));
            its.iter().map(|p| p.wall_s).sum::<f64>()
        }
        None => {
            let mut cases = Vec::new();
            for _ in 0..setup_reps {
                cases.clear();
                let t = Instant::now();
                cases = serve::prepare_templates(args.smoke, &mut off);
                // Warm-up: every template once through a server.
                let once: Vec<serve::Job> = (0..cases.len())
                    .map(|template| serve::Job {
                        template,
                        tenant_b: template % 3 != 0,
                    })
                    .collect();
                let warm = serve::closed_loop(&cases, &once, serve::WORKERS, serve::CLIENTS, None);
                setup_s.push(t.elapsed().as_secs_f64());
                if warm.tally.failed > 0 {
                    println!(
                        "warm-up: {} of {} jobs failed",
                        warm.tally.failed, warm.tally.attempted
                    );
                }
            }
            let n = if args.smoke {
                60
            } else {
                (serve::JOBS_PER_SECOND as f64 * args.seconds) as usize
            };
            let jobs = serve::job_list(args.seed, n.max(1), cases.len());
            let out = serve::closed_loop(&cases, &jobs, serve::WORKERS, serve::CLIENTS, None);
            println!(
                "closed loop: {} clients, {} workers, {} jobs in {:.3} s: {} completed, {} rejected, {} retried",
                serve::CLIENTS, serve::WORKERS, jobs.len(), out.wall_s, out.completed, out.rejected, out.retried
            );
            *tally = out.tally;
            out.wall_s
        }
    };
    let latencies = sorted(tally.latencies_s.iter().copied());
    println!("job latency [s]: {}", spread_line(&latencies));
    println!("set-up [s]: {}", spread_line(&setup_s));
    vec![
        metric("wall_s", median(&latencies), "s"),
        metric("jobs_per_s", tally.correct() as f64 / loop_s, "1/s"),
        metric("setup_s", median(&setup_s), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

fn traced_sim(case: &Case) -> Simulator {
    Simulator::new(case.sim.config().clone().with_obs_spans())
}

/// Runs every case once, checking each; the pass's wall is the sum of the
/// runs, without the checks.
fn pass_over(cases: &[Case], sims: &[Simulator], tally: &mut Tally, tracer: &mut Tracer) -> Pass {
    let mut pass = Pass {
        wall_s: 0.0,
        results: Vec::new(),
    };
    for (case, sim) in cases.iter().zip(sims) {
        let mut one = iterate(case, sim, 0.0, 1, tally, tracer);
        if let Some(p) = one.pop() {
            pass.wall_s += p.wall_s;
            pass.results.extend(p.results);
        }
    }
    pass
}

/// The traced run: untraced and traced passes side by side (their ratio
/// is the tracing overhead), the modeled report, then the layer
/// microbenchmarks, each once.
fn per_layer(w: Workload, args: &Args, tally: &mut Tally, tracer: &mut Tracer) -> Vec<Metric> {
    let cases: Vec<Case> = tracer.span("setup", |t| match spec_for(w, args) {
        Some(spec) => vec![prepare(spec, STOCH_SEED, t)],
        None => serve::prepare_templates(args.smoke, t),
    });
    let plain: Vec<Simulator> = cases.iter().map(|c| c.sim.clone()).collect();
    let spans: Vec<Simulator> = cases.iter().map(traced_sim).collect();
    let min = if args.smoke { 2 } else { MIN_TRACED_ITERATIONS };
    let passes = |sims: &[Simulator], name: &str, tally: &mut Tally, tracer: &mut Tracer| {
        tracer.span(name, |tracer| {
            let start = Instant::now();
            let mut passes = Vec::new();
            while passes.len() < min || start.elapsed().as_secs_f64() < args.budget_s() / 4.0 {
                passes.push(pass_over(&cases, sims, tally, tracer));
            }
            passes
        })
    };
    let untraced = passes(&plain, "passes.untraced", tally, tracer);
    let traced = passes(&spans, "passes.traced", tally, tracer);
    if untraced
        .iter()
        .chain(&traced)
        .any(|p| p.results.len() != cases.len())
    {
        // A run returned Err; it is in `failed`, and its pass is short.
        println!("some engine runs failed; core.* and device.* cover the runs that finished");
    }
    println!(
        "engine passes: {} untraced, {} traced, {} circuit(s) each",
        untraced.len(),
        traced.len(),
        cases.len()
    );

    let sz = MicroSizes::new(args.smoke);
    let dense_s: f64 = cases.iter().map(|c| c.dense_s).sum();
    let mut m = layers::core_metrics(&untraced, &traced, dense_s);
    let baseline = tracer.span("device.baseline_model", |_| {
        layers::baseline_modeled_s(&cases, tally)
    });
    // Every pass models the same circuits, so any one carries the report.
    let modeled = &traced[0];
    m.extend(layers::device_metrics(modeled, baseline));
    m.push(layers::timeline_micro(sz, tracer));
    let engine_chunks = modeled
        .results
        .iter()
        .map(|r| r.report.chunks_processed + r.report.chunks_pruned)
        .sum();
    m.extend(layers::sched_metrics(&cases, engine_chunks, tally, tracer));
    m.extend(layers::circuit_metrics(&cases));
    println!(
        "statevec microbenchmarks: two buffers of {} MiB each (L2 is per core; see caches above)",
        (16usize << sz.buffer_bits) >> 20
    );
    m.extend(layers::statevec_micro(sz, tracer));
    m.extend(layers::compress_micro(sz, tally, tracer));
    m.push(layers::crc_micro(sz, tracer));
    m.extend(tracer.span("serve", |tracer| match w.kind {
        Kind::ServeMix => {
            let n = if args.smoke {
                60
            } else {
                (serve::JOBS_PER_SECOND as f64 * args.seconds / 5.0) as usize
            };
            let jobs = serve::job_list(args.seed, n.max(1), cases.len());
            layers::serve_metrics(&cases, &jobs, tally, tracer)
        }
        Kind::Single(_) => {
            let probe = tracer.span("setup", |t| serve::prepare_templates(args.smoke, t));
            let n = if args.smoke { 30 } else { SERVE_PROBE_JOBS };
            layers::serve_metrics(
                &probe,
                &serve::job_list(args.seed, n, probe.len()),
                tally,
                tracer,
            )
        }
    }));

    // Print in the order BENCHMARK.json lists them, each exactly once.
    let mut by_name: BTreeMap<String, Metric> =
        m.into_iter().map(|x| (x.name.clone(), x)).collect();
    let ordered: Vec<Metric> = layers::per_layer_names()
        .into_iter()
        .map(|name| {
            by_name
                .remove(&name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"))
        })
        .collect();
    assert!(
        by_name.is_empty(),
        "metrics outside BENCHMARK.json: {:?}",
        by_name.keys()
    );
    ordered
}

fn write_trace(w: Workload, tracer: &Tracer) {
    println!("self time per span (span minus its children):");
    for (name, (count, secs)) in tracer.self_times() {
        println!("  {name:<32} {count:>6} × {secs:>10.6} s");
    }
    // Beside the harness: run from the repo root (as the driver does) or
    // from `benchmark/` itself.
    let at_root = std::path::Path::new("benchmark/Cargo.toml").exists();
    let dir = std::path::Path::new(if at_root { "benchmark/out" } else { "out" });
    let path = dir.join(format!("trace_{}.json", w.name));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, tracer.to_chrome_json().to_string()));
    match written {
        Ok(()) => println!("trace: {} spans -> {}", tracer.len(), path.display()),
        Err(e) => println!("trace: could not write {}: {e}", path.display()),
    }
}

fn print_result(metrics: &[Metric], tally: &mut Tally) {
    let mut fields = Vec::new();
    for m in metrics {
        let mut value = m.value;
        if !value.is_finite() {
            tally.fail(format!("{} is not a finite number", m.name));
            value = 0.0;
        }
        println!("{:<40} {:>20} {}", m.name, value, m.unit);
        fields.push((
            m.name.clone(),
            Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(m.unit.into())),
            ]),
        ));
    }
    println!("ops {} failed {}", tally.attempted, tally.failed);
    for r in &tally.reasons {
        println!("  failure: {r}");
    }
    let doc = Json::Obj(vec![
        (
            "correct".into(),
            Json::Bool(tally.failed == 0 && tally.attempted > 0),
        ),
        ("attempted".into(), Json::Num(tally.attempted.max(1) as f64)),
        ("failed".into(), Json::Num(tally.failed as f64)),
        ("metrics".into(), Json::Obj(fields)),
    ]);
    println!("{doc}");
}

// ───────────────────── sets of runs, in child processes ─────────────────────

struct ChildResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

fn run_child(w: &Workload, traced: bool, args: &Args) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        w.name,
        "--trace",
        if traced { "1" } else { "0" },
    ])
    .args([
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
    ])
    .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    if !out.status.success() {
        return Err(format!(
            "{} trace={} exited with {}",
            w.name,
            u8::from(traced),
            out.status
        ));
    }
    let last = text.lines().last().ok_or("child printed nothing")?;
    let doc = Json::parse(last).map_err(|e| format!("result line: {e}"))?;
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(pairs)) = doc.get("metrics") {
        for (name, m) in pairs {
            metrics.insert(
                name.clone(),
                m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
            );
        }
    }
    Ok(ChildResult {
        correct: doc.get("correct") == Some(&Json::Bool(true)),
        metrics,
    })
}

fn run_sets(args: &Args) -> ExitCode {
    let selected: Vec<Workload> = WORKLOADS
        .into_iter()
        .filter(|w| args.workload.as_deref().is_none_or(|n| n == w.name))
        .collect();
    let modes: Vec<bool> = args.trace.map_or(vec![false, true], |t| vec![t]);
    let mut problems = Vec::new();
    // sets[k][(workload, metric)] = value
    let mut sets: Vec<BTreeMap<(String, String), f64>> = Vec::new();
    for set in 0..args.repeat {
        let mut values = BTreeMap::new();
        for w in &selected {
            for &traced in &modes {
                match run_child(w, traced, args) {
                    Ok(r) => {
                        if !r.correct {
                            problems.push(format!(
                                "set {}: {} trace={} reported failures",
                                set + 1,
                                w.name,
                                u8::from(traced)
                            ));
                        }
                        for (name, v) in r.metrics {
                            values.insert((w.name.to_string(), name), v);
                        }
                    }
                    Err(e) => problems.push(format!("set {}: {e}", set + 1)),
                }
                println!();
            }
        }
        sets.push(values);
    }
    if args.repeat > 1 {
        problems.extend(agreement(&sets));
    }
    for p in &problems {
        println!("PROBLEM {p}");
    }
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// How far `new` is worse than `old`, as a share of `old`.
fn worsening(e: &EndToEnd, old: f64, new: f64) -> f64 {
    if e.higher_is_better {
        (old - new) / old
    } else {
        (new - old) / old
    }
}

/// The repeatability table: each later set against the first, per
/// workload × end-to-end metric, beside the metric's bound; exact-repeat
/// layer metrics must not differ at all.
fn agreement(sets: &[BTreeMap<(String, String), f64>]) -> Vec<String> {
    let mut problems = Vec::new();
    println!("repeatability: later sets against set 1 (difference as a share of set 1; positive = worse)");
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set 1", "set k", "diff", "bound"
    );
    for (k, later) in sets.iter().enumerate().skip(1) {
        for ((workload, name), &first) in &sets[0] {
            let Some(&second) = later.get(&(workload.clone(), name.clone())) else {
                problems.push(format!("{workload} {name} missing from set {}", k + 1));
                continue;
            };
            if let Some(e) = END_TO_END.iter().find(|e| e.name == name) {
                let diff = worsening(e, first, second);
                println!(
                    "{workload:<18} {name:<16} {first:>14.6} {second:>14.6} {:>8.2}% {:>6.0}%",
                    diff * 100.0,
                    e.bound * 100.0
                );
                if diff.abs() > e.bound {
                    problems.push(format!(
                        "{workload} {name}: sets 1 and {} differ by {:.1}% (bound {:.0}%)",
                        k + 1,
                        diff * 100.0,
                        e.bound * 100.0
                    ));
                }
            } else if EXACT_REPEAT.contains(&name.as_str()) && first.to_bits() != second.to_bits() {
                problems.push(format!(
                    "{workload} {name}: {first} in set 1, {second} in set {} (must repeat exactly)",
                    k + 1
                ));
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; the tables in this
    /// crate are what the harness prints. They must say the same thing.
    #[test]
    fn benchmark_json_lists_what_the_harness_prints() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let Json::Obj(top) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap().to_string();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, e) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(j, "name"), e.name);
            assert_eq!(text(j, "unit"), e.unit);
            assert_eq!(
                text(j, "better") == "higher",
                e.higher_is_better,
                "{}",
                e.name
            );
            assert_eq!(
                j.get("bound").and_then(Json::as_f64),
                Some(e.bound),
                "{}",
                e.name
            );
            assert!(e.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|e| e.name == "setup_s" && e.unit == "s" && !e.higher_is_better));

        let per_layer: Vec<String> = list("per_layer").iter().map(|m| text(m, "name")).collect();
        assert_eq!(per_layer, layers::per_layer_names());
        assert!(per_layer.len() <= 128);
        for name in per_layer.iter().chain(workloads.iter().map(|(n, _)| n)) {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        for name in EXACT_REPEAT {
            assert!(
                per_layer.iter().any(|n| n == name),
                "{name} is not a per-layer metric"
            );
        }
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse_args(&argv(
            "--workload serve_mix --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("serve_mix"), 7, 10.0, Some(true))
        );
        assert!(parse_args(&argv("--workload nope"))
            .unwrap_err()
            .contains("qft18_qgpu"));
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
    }

    #[test]
    fn two_sets_that_differ_beyond_the_bound_are_reported() {
        let set = |wall: f64, tasks: f64| {
            BTreeMap::from([
                (("w".to_string(), "wall_s".to_string()), wall),
                (("w".to_string(), "sched.plan_tasks".to_string()), tasks),
            ])
        };
        assert!(agreement(&[set(1.0, 5.0), set(1.05, 5.0)]).is_empty());
        let p = agreement(&[set(1.0, 5.0), set(1.3, 6.0)]);
        assert_eq!(p.len(), 2, "{p:?}");
    }
}
