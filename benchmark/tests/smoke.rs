//! Drives the built harness in `--smoke` mode (12-qubit circuits, two
//! jobs per loop, 60 served jobs) and checks what it prints against
//! `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::{Mutex, MutexGuard};

use qgpu_obs::Json;

const EXACT_REPEAT: [&str; 10] = [
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

/// Traced runs write `out/trace_<workload>.json`; tests that start them
/// take turns so none reads a file another is writing.
static TRACE_FILES: Mutex<()> = Mutex::new(());

fn trace_files() -> MutexGuard<'static, ()> {
    // A test that failed while holding the lock left the files usable.
    TRACE_FILES
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("parses")
}

fn names(spec: &Json, key: &str) -> Vec<(String, String)> {
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
    spec.get(key)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            (
                field(m, "name"),
                field(m, if key == "workloads" { "why" } else { "unit" }),
            )
        })
        .collect()
}

struct Run {
    stdout: String,
    result: Json,
}

fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_qgpu-benchmark"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("harness starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{args:?} exited {}:\n{stdout}",
        out.status
    );
    stdout
}

/// One run as the driver makes it; the last line of stdout is the result.
fn smoke(workload: &str, trace: &str) -> Run {
    let stdout = run(&[
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "10",
        "--trace",
        trace,
        "--smoke",
    ]);
    let last = stdout.lines().last().expect("a result line");
    let result =
        Json::parse(last).unwrap_or_else(|e| panic!("result line of {workload}: {e}\n{last}"));
    Run { stdout, result }
}

fn metrics(run: &Run) -> BTreeMap<String, (f64, String)> {
    let Some(Json::Obj(pairs)) = run.result.get("metrics") else {
        panic!("no metrics object")
    };
    let map: BTreeMap<String, (f64, String)> = pairs
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{name} has no number"));
            (
                name.clone(),
                (
                    value,
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                ),
            )
        })
        .collect();
    assert_eq!(map.len(), pairs.len(), "a metric is listed twice");
    map
}

/// Every metric `BENCHMARK.json` names is printed exactly once on every
/// workload, with its unit, as a finite number; nothing else is printed.
#[test]
fn every_named_metric_is_printed_once_on_every_workload() {
    let _turn = trace_files();
    let spec = spec();
    for (workload, _) in names(&spec, "workloads") {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let r = smoke(&workload, trace);
            let Json::Obj(top) = &r.result else {
                panic!("result is not an object")
            };
            let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                r.result.get("correct"),
                Some(&Json::Bool(true)),
                "{workload} trace={trace}:\n{}",
                r.stdout
            );
            assert_eq!(r.result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(r.result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);

            let got = metrics(&r);
            let want = names(&spec, key);
            assert_eq!(
                got.keys().cloned().collect::<Vec<_>>(),
                {
                    let mut w: Vec<String> = want.iter().map(|(n, _)| n.clone()).collect();
                    w.sort();
                    w
                },
                "{workload} trace={trace}"
            );
            for (name, unit) in &want {
                let (value, printed_unit) = &got[name];
                assert!(value.is_finite(), "{workload} {name} = {value}");
                assert_eq!(printed_unit, unit, "{workload} {name}");
                let lines = r
                    .stdout
                    .lines()
                    .filter(|l| l.split_whitespace().next() == Some(name))
                    .count();
                assert_eq!(lines, 1, "{workload} {name} printed {lines} times");
            }
            if trace == "0" {
                for (name, (value, _)) in &got {
                    assert!(
                        *value > 0.0,
                        "{workload} {name} must never be 0, is {value}"
                    );
                }
            } else {
                let coverage = got["core.stage_sum_frac"].0;
                assert!(
                    (0.9..=1.1).contains(&coverage),
                    "{workload} core.stage_sum_frac = {coverage}"
                );
                let trace_file =
                    format!("{}/out/trace_{workload}.json", env!("CARGO_MANIFEST_DIR"));
                let doc =
                    Json::parse(&std::fs::read_to_string(&trace_file).expect("trace file written"))
                        .expect("trace parses");
                let events = doc
                    .get("traceEvents")
                    .and_then(Json::as_arr)
                    .expect("traceEvents");
                assert!(events
                    .iter()
                    .any(|e| e.get("name").and_then(Json::as_str) == Some("core.try_run")));
                assert!(events
                    .iter()
                    .any(|e| e.get("name").and_then(Json::as_str) == Some("serve.submit")));
            }
        }
    }
}

/// Modeled times and counts are pure functions of (circuit, config,
/// seed): two runs of one seed print them bit for bit the same.
#[test]
fn exact_repeat_metrics_are_equal_across_two_runs() {
    let _turn = trace_files();
    for workload in ["qft18_qgpu", "rqc21_noisy_t2", "serve_mix"] {
        let (a, b) = (
            metrics(&smoke(workload, "1")),
            metrics(&smoke(workload, "1")),
        );
        for name in EXACT_REPEAT {
            assert_eq!(
                a[name].0.to_bits(),
                b[name].0.to_bits(),
                "{workload} {name}: {} vs {}",
                a[name].0,
                b[name].0
            );
        }
    }
}

/// Without `--trace` the harness runs both modes of the workload, each in
/// a child process, and passes their result lines through.
#[test]
fn a_workload_without_trace_runs_untraced_then_traced() {
    let _turn = trace_files();
    let stdout = run(&["--workload", "bv22_qgpu", "--smoke"]);
    let results = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\":true"))
        .count();
    assert_eq!(results, 2, "{stdout}");
    assert!(!stdout.contains("PROBLEM"));
}

#[test]
fn an_unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_qgpu-benchmark"))
        .args(["--workload", "nope", "--trace", "0"])
        .output()
        .expect("harness starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
