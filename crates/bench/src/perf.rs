//! The `repro perf` runner: perf-trajectory BENCH files and the
//! regression gate.
//!
//! `repro perf` executes a pinned scenario matrix — every execution
//! version × {qft, iqp, bv, rqc} × the requested qubit sizes × noise
//! off/on — with the engine's per-stage attribution middleware enabled,
//! and writes a schema-versioned `BENCH_<label>.json`:
//!
//! ```text
//! { "schema": "qgpu-bench/v1",
//!   "meta": { git_sha, label, seed, config_hash, crate_version, host },
//!   "scenarios": [ { id, circuit, qubits, version, noise,
//!                    wall_s, modeled_s, stage_sum_s,
//!                    stages: { plan: s, kernel: s, ... },
//!                    percentiles: { gate_ns: { p50, p90, p99, p999 } },
//!                    counters: { ... } }, ... ],
//!   "codecs": { "gfc": { iqp_dense_ratio, iqp_dense_gbps,
//!                        bv_pruned_ratio, bv_pruned_gbps }, ... } }
//! ```
//!
//! `stages` attributes the measured wall clock per pipeline stage from
//! the registry's `stage.time_ns` histograms; the attribution is
//! exhaustive, so `stage_sum_s` tracks `wall_s` (CI asserts within
//! 10%). `codecs` is a pinned per-codec microbenchmark (see
//! [`codec_section`]). The JSON writer is canonical, so a parsed
//! document re-renders byte-identically (pinned by a round-trip test).
//!
//! `repro perf --compare OLD.json` re-runs the matrix (or takes
//! `--current NEW.json`) and exits nonzero when any scenario's
//! end-to-end or per-stage time regresses beyond the noise tolerance:
//! `new > old * (1 + tol) + floor`. Codec ratio and throughput are
//! higher-is-better and gate in the opposite direction
//! (`new < old / (1 + tol)`); a baseline predating the `codecs` section
//! gates nothing codec-side, so old BENCH files keep working.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use qgpu::cli::{self, require, Cli, Error};
use qgpu::{FlightConfig, SimConfig, Simulator, Version};
use qgpu_circuit::generators::Benchmark;
use qgpu_circuit::NoiseConfig;
use qgpu_compress::{codec_for_kind, CodecKind};
use qgpu_obs::{Json, RunMeta};

/// BENCH document schema tag.
pub const SCHEMA: &str = "qgpu-bench/v1";
/// The pinned circuit set.
pub const CIRCUITS: [Benchmark; 4] = [
    Benchmark::Qft,
    Benchmark::Iqp,
    Benchmark::Bv,
    Benchmark::Rqc,
];
/// Default qubit sizes (override with `--qubits`).
pub const DEFAULT_QUBITS: [usize; 2] = [10, 12];
/// The noisy half of the matrix: channel spec, shots, stochastic seed.
pub const NOISE_SPEC: &str = "depolarizing:0.01,loss:0.02";
const SHOTS: u64 = 64;
const STOCH_SEED: u64 = 42;
/// Default relative noise tolerance for the regression gate (50%:
/// wall-clock timing on shared CI runners is loud).
pub const DEFAULT_TOL: f64 = 0.5;
/// Default absolute regression floor in milliseconds: differences
/// smaller than this are scheduler noise regardless of ratio.
pub const DEFAULT_FLOOR_MS: f64 = 5.0;

/// Parsed `repro perf` arguments.
pub struct PerfArgs {
    /// Qubit sizes to run (empty: [`DEFAULT_QUBITS`]).
    pub qubits: Vec<usize>,
    /// Output path (default `BENCH_<label>.json`).
    pub out: Option<String>,
    /// Run label for the filename and meta block.
    pub label: String,
    /// Baseline BENCH file to gate against.
    pub compare: Option<String>,
    /// Pre-recorded current BENCH file (skips the run; file-vs-file).
    pub current: Option<String>,
    /// Relative tolerance.
    pub tol: f64,
    /// Absolute floor in milliseconds.
    pub floor_ms: f64,
}

impl Default for PerfArgs {
    fn default() -> Self {
        PerfArgs {
            qubits: Vec::new(),
            out: None,
            label: "local".to_string(),
            compare: None,
            current: None,
            tol: DEFAULT_TOL,
            floor_ms: DEFAULT_FLOOR_MS,
        }
    }
}

const CLI: Cli<PerfArgs> = Cli {
    usage: "usage: repro perf [flags]",
    flags: qgpu::flags! { PerfArgs;
        "--qubits", "-q" <"N[,N…]"> "qubit sizes, 2..=64 (default 10,12)" => |o, v| for q in v.split(',') { o.qubits.push(cli::qubits(q.parse()?, min_qubits())?) };
        "--out" <"PATH"> "where to write the BENCH file (default BENCH_<label>.json)" => |o, v| o.out = Some(v.into());
        "--label" <"NAME"> "run label for the file name and meta block (default local)" => |o, v| o.label = v.into();
        "--compare" <"OLD.json"> "gate against this BENCH file: exit 1 on a regression" => |o, v| o.compare = Some(v.into());
        "--current" <"NEW.json"> "compare this BENCH file instead of running (needs --compare)" => |o, v| o.current = Some(v.into());
        "--tol" <"F"> "relative noise tolerance (default 0.5)" => |o, v| o.tol = v.parse()?;
        "--floor-ms" <"F"> "absolute regression floor in milliseconds (default 5)" => |o, v| o.floor_ms = v.parse()?;
    },
};

/// The smallest width every circuit of the matrix builds at.
fn min_qubits() -> usize {
    CIRCUITS
        .iter()
        .map(|b| b.min_qubits())
        .max()
        .unwrap_or_default()
}

/// Parses everything after `repro perf`.
///
/// # Errors
///
/// [`Error::Help`] on `--help`, else a usage error.
pub fn parse_args(args: &[String]) -> Result<PerfArgs, Error> {
    let (mut p, rest) = CLI.parse(args)?;
    if let Some(extra) = rest.first() {
        return Err(format!("unexpected argument '{extra}'").into());
    }
    if p.qubits.is_empty() {
        p.qubits = DEFAULT_QUBITS.to_vec();
    }
    require(
        p.current.is_none() || p.compare.is_some(),
        "--current only makes sense with --compare",
    )?;
    Ok(p)
}

fn version_tag(v: Version) -> &'static str {
    match v {
        Version::Baseline => "baseline",
        Version::Naive => "naive",
        Version::Overlap => "overlap",
        Version::Pruning => "pruning",
        Version::Reorder => "reorder",
        Version::QGpu => "qgpu",
    }
}

/// Runs one scenario and returns its BENCH object.
pub fn run_scenario(b: Benchmark, qubits: usize, v: Version, noisy: bool) -> Json {
    let circuit = b.generate(qubits);
    let mut cfg = SimConfig::scaled_paper(qubits)
        .with_version(v)
        .timing_only()
        .with_obs_spans()
        // Full telemetry stack enabled, as a deployment would run it —
        // no faults are injected, so nothing triggers a dump.
        .with_flight(FlightConfig::default());
    if noisy {
        let nc: NoiseConfig = NOISE_SPEC.parse().expect("pinned noise spec parses");
        cfg = cfg
            .with_noise(nc)
            .with_shots(SHOTS)
            .with_stoch_seed(STOCH_SEED);
    }
    let start = Instant::now();
    let result = Simulator::new(cfg).run(&circuit);
    let wall_s = start.elapsed().as_secs_f64();
    let obs = result.obs.as_ref().expect("obs_spans enabled");

    let mut stages: Vec<(String, Json)> = Vec::new();
    let mut stage_sum_s = 0.0;
    for e in obs.registry.histograms_named("stage.time_ns") {
        let stage = e.label("stage").expect("stage label").to_string();
        let s = e.value.sum as f64 / 1e9;
        stage_sum_s += s;
        stages.push((stage, Json::Num(s)));
    }
    let gate_ns = obs
        .registry
        .histograms_named("gate.ns")
        .next()
        .map(|e| e.value.clone())
        .unwrap_or_default();

    let r = &result.report;
    Json::Obj(vec![
        (
            "id".into(),
            Json::Str(format!(
                "{}_q{}_{}_{}",
                b.abbrev(),
                qubits,
                version_tag(v),
                if noisy { "noisy" } else { "ideal" }
            )),
        ),
        ("circuit".into(), Json::Str(b.abbrev().to_string())),
        ("qubits".into(), Json::Num(qubits as f64)),
        ("version".into(), Json::Str(version_tag(v).to_string())),
        ("noise".into(), Json::Bool(noisy)),
        ("wall_s".into(), Json::Num(wall_s)),
        ("modeled_s".into(), Json::Num(r.total_time)),
        ("stage_sum_s".into(), Json::Num(stage_sum_s)),
        ("stages".into(), Json::Obj(stages)),
        (
            "percentiles".into(),
            Json::Obj(vec![(
                "gate_ns".into(),
                Json::Obj(vec![
                    ("p50".into(), Json::Num(gate_ns.p50 as f64)),
                    ("p90".into(), Json::Num(gate_ns.p90 as f64)),
                    ("p99".into(), Json::Num(gate_ns.p99 as f64)),
                    ("p999".into(), Json::Num(gate_ns.p999 as f64)),
                ]),
            )]),
        ),
        (
            "counters".into(),
            Json::Obj(vec![
                (
                    "chunks_processed".into(),
                    Json::Num(r.chunks_processed as f64),
                ),
                ("chunks_pruned".into(), Json::Num(r.chunks_pruned as f64)),
                ("bytes_h2d".into(), Json::Num(r.bytes_h2d as f64)),
                ("bytes_d2h".into(), Json::Num(r.bytes_d2h as f64)),
                ("collapses".into(), Json::Num(r.collapses as f64)),
                ("shots".into(), Json::Num(r.shots as f64)),
                ("compression_ratio".into(), Json::Num(r.compression_ratio())),
            ]),
        ),
    ])
}

/// Pinned buffer size for the per-codec microbenchmark: 2^14 amplitudes
/// (256 KiB) spans many segments while keeping the measurement fast.
const CODEC_BENCH_QUBITS: usize = 14;
/// Timed encode repetitions per (codec, buffer) pair.
const CODEC_BENCH_REPS: usize = 4;

/// Measures every codec's compression ratio and encode throughput on two
/// pinned buffers — a dense IQP state (every amplitude occupied) and a
/// pruning-heavy Bernstein–Vazirani state (amplitude concentrated on a
/// few basis states with long zero runs, the layout chunk pruning
/// leaves behind) — and returns the BENCH `codecs` object.
///
/// Ratio and GB/s are higher-is-better; [`compare_docs`] gates them in
/// that direction.
pub fn codec_section() -> Json {
    let dense = crate::bench_state(Benchmark::Iqp, CODEC_BENCH_QUBITS);
    let sparse = crate::bench_state(Benchmark::Bv, CODEC_BENCH_QUBITS);
    let buffers = [("iqp_dense", dense.amps()), ("bv_pruned", sparse.amps())];
    let mut codecs = Vec::new();
    for kind in CodecKind::ALL {
        let codec = codec_for_kind(kind, 32);
        let mut fields = Vec::new();
        for (name, amps) in buffers {
            let raw = amps.len() * 16;
            // Warm-up pass pages in the buffer before the timed loop.
            let mut bytes = codec.encode_amplitudes(amps).total_bytes();
            let start = Instant::now();
            for _ in 0..CODEC_BENCH_REPS {
                bytes = codec.encode_amplitudes(amps).total_bytes();
            }
            let elapsed = start.elapsed().as_secs_f64().max(1e-9);
            // The pipeline moves raw bytes when the encode doesn't win,
            // so the achievable ratio is floored at 1.0.
            let ratio = raw as f64 / bytes.clamp(1, raw) as f64;
            let gbps = (raw * CODEC_BENCH_REPS) as f64 / elapsed / 1e9;
            fields.push((format!("{name}_ratio"), Json::Num(ratio)));
            fields.push((format!("{name}_gbps"), Json::Num(gbps)));
        }
        codecs.push((kind.name().to_string(), Json::Obj(fields)));
    }
    Json::Obj(codecs)
}

/// Runs the full pinned matrix and returns the BENCH document.
pub fn run_matrix(qubits: &[usize], label: &str) -> Json {
    let mut scenarios = Vec::new();
    let total = Version::ALL.len() * CIRCUITS.len() * qubits.len() * 2;
    for v in Version::ALL {
        for b in CIRCUITS {
            for &q in qubits {
                for noisy in [false, true] {
                    eprintln!(
                        "[repro perf] {}/{total} {}_q{}_{}_{}",
                        scenarios.len() + 1,
                        b.abbrev(),
                        q,
                        version_tag(v),
                        if noisy { "noisy" } else { "ideal" }
                    );
                    scenarios.push(run_scenario(b, q, v, noisy));
                }
            }
        }
    }
    let config_text = format!(
        "versions={:?} circuits={:?} qubits={qubits:?} noise={NOISE_SPEC} shots={SHOTS}",
        Version::ALL.map(version_tag),
        CIRCUITS.map(Benchmark::abbrev),
    );
    let meta = RunMeta::collect(label, STOCH_SEED, &config_text, env!("CARGO_PKG_VERSION"));
    eprintln!("[repro perf] codec microbenchmark");
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.to_string())),
        ("meta".into(), meta.to_json()),
        ("scenarios".into(), Json::Arr(scenarios)),
        ("codecs".into(), codec_section()),
    ])
}

fn scenario_id(s: &Json) -> &str {
    s.get("id").and_then(Json::as_str).unwrap_or("?")
}

fn num(s: &Json, key: &str) -> f64 {
    s.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Compares two BENCH documents: every scenario of `old` must still
/// exist in `new`, and neither its end-to-end `wall_s` nor any per-stage
/// time may exceed `old * (1 + tol) + floor_s`. Codec ratio/throughput
/// entries present in `old` must stay above `old / (1 + tol)`. Returns
/// one line per regression (empty = gate passes).
pub fn compare_docs(old: &Json, new: &Json, tol: f64, floor_s: f64) -> Vec<String> {
    let mut regressions = Vec::new();
    let empty: [Json; 0] = [];
    let old_scenarios = old
        .get("scenarios")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);
    let new_scenarios = new
        .get("scenarios")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);
    for os in old_scenarios {
        let id = scenario_id(os);
        let Some(ns) = new_scenarios.iter().find(|s| scenario_id(s) == id) else {
            regressions.push(format!("{id}: scenario missing from current run"));
            continue;
        };
        let gate = |label: &str, old_v: f64, new_v: f64, out: &mut Vec<String>| {
            let limit = old_v * (1.0 + tol) + floor_s;
            if new_v > limit {
                let mut line = String::new();
                let _ = write!(
                    line,
                    "{id}: {label} regressed {:.1}ms -> {:.1}ms (limit {:.1}ms)",
                    old_v * 1e3,
                    new_v * 1e3,
                    limit * 1e3
                );
                out.push(line);
            }
        };
        gate(
            "wall_s",
            num(os, "wall_s"),
            num(ns, "wall_s"),
            &mut regressions,
        );
        if let Some(Json::Obj(old_stages)) = os.get("stages") {
            for (stage, v) in old_stages {
                let old_v = v.as_f64().unwrap_or(0.0);
                let new_v = ns
                    .get("stages")
                    .and_then(|s| s.get(stage))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                gate(&format!("stage {stage}"), old_v, new_v, &mut regressions);
            }
        }
    }
    // Codec ratio and throughput are higher-is-better, so they gate in
    // the opposite direction — and only when the baseline carries the
    // section, keeping pre-codec BENCH files comparable.
    if let Some(Json::Obj(old_codecs)) = old.get("codecs") {
        for (codec, ov) in old_codecs {
            let Json::Obj(old_fields) = ov else { continue };
            for (field, v) in old_fields {
                let old_v = v.as_f64().unwrap_or(0.0);
                let new_v = new
                    .get("codecs")
                    .and_then(|c| c.get(codec))
                    .and_then(|f| f.get(field))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                let limit = old_v / (1.0 + tol);
                if new_v < limit {
                    let mut line = String::new();
                    let _ = write!(
                        line,
                        "codec {codec}: {field} regressed {old_v:.3} -> {new_v:.3} (limit {limit:.3})"
                    );
                    regressions.push(line);
                }
            }
        }
    }
    regressions
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The `repro perf` entry point: exit code 0 when the regression gate
/// (if requested) passed, 1 when it caught a regression or the run
/// failed, 2 on a usage error.
pub fn cli(args: &[String]) -> ExitCode {
    match parse_args(args).map(|p| gate(&p)) {
        Err(e) => CLI.exit(e),
        Ok(Ok(true)) => ExitCode::SUCCESS,
        Ok(Ok(false)) => ExitCode::FAILURE,
        Ok(Err(e)) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs (or loads) the current BENCH document and gates it against
/// `--compare`: `Ok(false)` when a regression was caught.
fn gate(p: &PerfArgs) -> Result<bool, String> {
    let current = match &p.current {
        Some(path) => load(path)?,
        None => {
            let doc = run_matrix(&p.qubits, &p.label);
            let out = p
                .out
                .clone()
                .unwrap_or_else(|| format!("BENCH_{}.json", p.label));
            std::fs::write(&out, doc.to_string()).map_err(|e| format!("{out}: {e}"))?;
            eprintln!("[repro perf] wrote {out}");
            doc
        }
    };
    let Some(old_path) = &p.compare else {
        return Ok(true);
    };
    let old = load(old_path)?;
    let regressions = compare_docs(&old, &current, p.tol, p.floor_ms / 1e3);
    if regressions.is_empty() {
        eprintln!("[repro perf] no regressions vs {old_path}");
        return Ok(true);
    }
    for r in &regressions {
        eprintln!("[repro perf] REGRESSION {r}");
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn ci_spellings_parse() {
        let ci = include_str!("../../../.github/workflows/ci.yml").replace("\\\n", " ");
        let lines: Vec<&str> = ci
            .lines()
            .filter_map(|l| l.split_once("./target/release/repro perf "))
            .map(|(_, rest)| rest.split(';').next().unwrap_or_default())
            .collect();
        assert_eq!(lines.len(), 3);
        for line in lines {
            let p = parse_args(&argv(line)).unwrap_or_else(|e| panic!("{line}: {e:?}"));
            assert!(p.label == "ci" || p.floor_ms == 0.0, "{line}");
        }
        let p = parse_args(&argv("-q 10,12 --qubits 14 --tol 0.2")).unwrap();
        assert_eq!((p.qubits, p.tol), (vec![10, 12, 14], 0.2));
        assert_eq!(parse_args(&[]).unwrap().qubits, DEFAULT_QUBITS);
        for f in CLI.flags {
            assert!(CLI.help().contains(f.long), "{}", f.long);
        }
    }

    #[test]
    fn hostile_lines_are_usage_errors() {
        for line in [
            "--qubits 1",
            "--qubits 10,70",
            "--qubits 10,",
            "--current b.json",
            "--tol x",
            "stray",
            "--out",
        ] {
            assert!(
                matches!(parse_args(&argv(line)), Err(Error::Usage(_))),
                "{line:?} accepted"
            );
        }
        assert_eq!(parse_args(&argv("--help")).err(), Some(Error::Help));
    }
}
