//! `qgpu-sim` — simulate an OpenQASM 2.0 circuit (or a built-in
//! benchmark) through the Q-GPU pipeline.
//!
//! It runs one execution version (or an explicit optimization subset) on
//! a modeled platform, prints the most likely basis states and, on
//! request, the modeled report, sampled shots, traces, metrics and
//! checkpoints; seeded fault injection exercises the resilience layers.
//! `qgpu-sim --help` lists the flags. Exit code 0 is success (a reader
//! of stdout that went away only ends the output), 1 a failed run (or a
//! `--compare` beyond 1e-12), 2 a usage error.

use std::fs;
use std::io::Write;
use std::num::NonZeroUsize;
use std::process::ExitCode;

use qgpu::cli::{self, require, Cli, Error};
use qgpu::{
    CodecKind, FaultConfig, FlightConfig, OptFlags, SimConfig, SimError, Simulator, Version,
};
use qgpu_circuit::generators::Benchmark;
use qgpu_circuit::{qasm, Circuit, NoiseConfig};
use qgpu_device::Platform;

struct Options {
    file: Option<String>,
    benchmark: Option<Benchmark>,
    qubits: Option<usize>,
    version: Version,
    opts: Option<OptFlags>,
    codec: Option<CodecKind>,
    shots: u64,
    sample: bool,
    noise: Option<NoiseConfig>,
    seed: u64,
    chunks_log2: u32,
    top: usize,
    batching: bool,
    fuse: bool,
    threads: usize,
    report: bool,
    report_json: Option<String>,
    save: Option<String>,
    platform: PlatformAt,
    devices: usize,
    mem_budget: Option<u64>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    flight_out: Option<String>,
    drift: bool,
    drift_tol: f64,
    gantt: bool,
    faults: FaultConfig,
    verify_invariants: bool,
    checkpoint_every: u64,
    checkpoint_out: Option<String>,
    resume: Option<String>,
    compare: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            file: None,
            benchmark: None,
            qubits: None,
            version: Version::QGpu,
            opts: None,
            codec: None,
            shots: 0,
            sample: false,
            noise: None,
            seed: 1,
            chunks_log2: 8,
            top: 8,
            batching: false,
            fuse: false,
            threads: 1,
            report: false,
            report_json: None,
            save: None,
            platform: Platform::scaled_paper_p100,
            devices: 1,
            mem_budget: None,
            trace_out: None,
            metrics_out: None,
            flight_out: None,
            drift: false,
            drift_tol: qgpu_obs::drift::DEFAULT_TOLERANCE_PP,
            gantt: false,
            faults: FaultConfig::default(),
            verify_invariants: false,
            checkpoint_every: 0,
            checkpoint_out: None,
            resume: None,
            compare: None,
        }
    }
}

/// GPU memory as a fraction of the state: the paper's 34-qubit ratio.
const PAPER_RATIO: f64 = 496.0 / 8192.0;

/// A modeled platform, miniaturized to a circuit width.
type PlatformAt = fn(usize) -> Platform;

/// The modeled platforms by name.
const PLATFORMS: [(&str, PlatformAt); 5] = [
    ("p100", Platform::scaled_paper_p100),
    ("v100", |q| Platform::paper_v100().miniaturize(q, 0.10)),
    ("a100", |q| Platform::paper_a100().miniaturize(q, 0.45)),
    ("4xp4", |q| {
        Platform::quad_p4_pcie().miniaturize(q, PAPER_RATIO / 4.0)
    }),
    ("4xv100", |q| {
        Platform::quad_v100_nvlink().miniaturize(q, PAPER_RATIO / 4.0)
    }),
];

const CLI: Cli<Options> = Cli {
    usage: "usage: qgpu-sim <file.qasm> [flags]\n       qgpu-sim --benchmark <NAME> --qubits <N> [flags]",
    flags: qgpu::flags! { Options;
        "--benchmark", "-b" <"NAME"> "built-in circuit: qft iqp gs rqc qaoa hchain bv hlf qf" => |o, v| o.benchmark = Some(Benchmark::from_abbrev(v).ok_or("unknown benchmark")?);
        "--qubits", "-q" <"N"> "the benchmark's width: 2..=64 (qf: 4..=64)" => |o, v| o.qubits = Some(v.parse()?);
        "--version", "-v" <"NAME"> "baseline|naive|overlap|pruning|reorder|qgpu (default qgpu)" => |o, v| o.version = v.parse()?;
        "--opts" <"LIST"> "an optimization subset instead of a version: +-joined overlap, pruning, reorder, compression; none; all" => |o, v| o.opts = Some(OptFlags::parse(v)?);
        "--codec" <"NAME"> "chunk codec: gfc|zero-run|alp|cascade (default gfc; cascade picks per chunk)" => |o, v| o.codec = Some(v.parse()?);
        "--shots" <"N"> "draw N seeded end-of-circuit shots (default 0)" => |o, v| o.shots = v.parse()?;
        "--sample" "print the sampled counts (needs --shots)" => |o, _| o.sample = true;
        "--seed" <"N"> "stochastic seed: noise sites, mid-circuit collapse, shots (default 1)" => |o, v| o.seed = v.parse()?;
        "--noise" <"SPEC"> "per-gate noise, e.g. depolarizing:0.01,loss:0.001 (also bit_flip, phase_flip)" => |o, v| o.noise = Some(v.parse()?);
        "--chunks" <"LOG2"> "chunk-count exponent (default 8)" => |o, v| o.chunks_log2 = v.parse()?;
        "--platform", "-p" <"NAME"> "modeled platform: p100|v100|a100|4xp4|4xv100 (default p100)" => |o, v| o.platform = PLATFORMS.iter().find(|p| p.0 == v).ok_or("unknown platform")?.1;
        "--devices" <"N"> "replicate device 0 into an N-GPU fleet" => |o, v| o.devices = v.parse::<NonZeroUsize>()?.get();
        "--top" <"N"> "print the N most likely basis states (default 8)" => |o, v| o.top = v.parse()?;
        "--batching" "enable the gate-batching extension" => |o, _| o.batching = true;
        "--fuse" "enable the gate-fusion pass" => |o, _| o.fuse = true;
        "--threads" <"N"> "functional worker threads (default 1)" => |o, v| o.threads = v.parse::<NonZeroUsize>()?.get();
        "--report", "-r" "print the modeled execution report" => |o, _| o.report = true;
        "--report-json" <"PATH"> "write the modeled execution report as JSON" => |o, v| o.report_json = Some(v.into());
        "--save" <"PATH"> "write the final state as a compressed checkpoint" => |o, v| o.save = Some(v.into());
        "--trace-out" <"PATH"> "write a two-track Chrome/Perfetto trace JSON" => |o, v| o.trace_out = Some(v.into());
        "--metrics-out" <"PATH"> "write the metrics document (meta, counters, labeled registry)" => |o, v| o.metrics_out = Some(v.into());
        "--flight-out" <"PATH"> "always dump the flight recorder here (a fault run dumps qgpu-flight.json on a trigger)" => |o, v| o.flight_out = Some(v.into());
        "--drift" "print the modeled-vs-measured drift report" => |o, _| o.drift = true;
        "--drift-tol" <"PP"> "drift flagging tolerance in percentage points, finite and >= 0" => |o, v| o.drift_tol = cli::tolerance(v)?;
        "--gantt" "print the modeled timeline as an ASCII Gantt chart" => |o, _| o.gantt = true;
        "--inject-seed" <"N"> "fault injector seed (default 0)" => |o, v| o.faults.seed = v.parse()?;
        "--inject-transfer" <"P"> "per-transfer corruption probability" => |o, v| o.faults.p_transfer_corrupt = cli::prob(v)?;
        "--inject-codec" <"P"> "per-encode codec failure probability" => |o, v| o.faults.p_codec_fail = cli::prob(v)?;
        "--inject-mask" <"P"> "per-op involvement-mask corruption probability" => |o, v| o.faults.p_mask_corrupt = cli::prob(v)?;
        "--inject-worker" <"P"> "per-worker death probability" => |o, v| o.faults.p_worker_death = cli::prob(v)?;
        "--inject-fail-at" <"OP"> "abort with a fatal fault at program op OP" => |o, v| o.faults.fail_at_gate = v.parse()?;
        "--inject-device-loss" <"D:OP"> "lose device D at program op OP" => |o, v| (o.faults.device_lost_id, o.faults.device_lost_at) = cli::pair(v)?;
        "--inject-link-degrade" <"P"> "per-transfer link degradation probability" => |o, v| o.faults.p_link_degraded = cli::prob(v)?;
        "--inject-straggler" <"D[:F]"> "pin device D as a straggler, stretched by F > 1 (default 4)" => |o, v| cli::straggler(&mut o.faults, v)?;
        "--inject-kernel-flip" <"OP[:COUNT[:ATTEMPTS[:BIT]]]"> "flip BIT (default 62) of an amplitude in COUNT kernels from op OP, sticky for ATTEMPTS re-executions; arms the invariant checks" => |o, v| cli::kernel_flip(&mut o.faults, v)?;
        "--verify-invariants" "run the ABFT invariant checks (chunk norms, magnitudes, zero blocks, state norm)" => |o, _| o.verify_invariants = true;
        "--mem-budget" <"BYTES"> "per-device residency budget (enables the memory-pressure governor)" => |o, v| o.mem_budget = Some(v.parse::<std::num::NonZeroU64>()?.get());
        "--checkpoint-every" <"N"> "write a checkpoint every N program ops (needs --checkpoint-out)" => |o, v| o.checkpoint_every = v.parse::<std::num::NonZeroU64>()?.get();
        "--checkpoint-out" <"PATH"> "where --checkpoint-every writes" => |o, v| o.checkpoint_out = Some(v.into());
        "--resume" <"PATH"> "resume from a checkpoint written by --checkpoint-out" => |o, v| o.resume = Some(v.into());
        "--compare" <"PATH"> "compare the final state with a checkpoint; fail beyond 1e-12 deviation" => |o, v| o.compare = Some(v.into());
    },
};

/// The options of `args`, with the rules that tie flags together.
fn parse(args: &[String]) -> Result<Options, Error> {
    let (mut o, rest) = CLI.parse(args)?;
    if let [_, extra, ..] = rest.as_slice() {
        return Err(format!("unexpected argument '{extra}'").into());
    }
    o.file = rest.into_iter().next();
    match (&o.file, o.benchmark) {
        (Some(_), Some(_)) => return Err("give either a file or --benchmark, not both".into()),
        (None, None) => return Err("give a QASM file or --benchmark".into()),
        (None, Some(b)) => {
            let q = o.qubits.ok_or("--benchmark requires --qubits")?;
            cli::qubits(q, b.min_qubits()).map_err(|e| e.on("--qubits"))?;
        }
        (Some(_), None) => {}
    }
    require(!o.sample || o.shots > 0, "--sample requires --shots")?;
    let ckpt = o.checkpoint_every == 0 || o.checkpoint_out.is_some();
    require(ckpt, "--checkpoint-every requires --checkpoint-out")?;
    // The fleet: --devices, or the platform's own (its size does not
    // depend on the circuit's width).
    let devices = match o.devices {
        1 => (o.platform)(Benchmark::Qft.min_qubits()).num_gpus(),
        n => n,
    };
    let f = o.faults;
    let lost = (f.device_lost_at != usize::MAX).then_some(f.device_lost_id);
    let straggler = (f.straggler_device != usize::MAX).then_some(f.straggler_device);
    for (flag, d) in [
        ("--inject-device-loss", lost),
        ("--inject-straggler", straggler),
    ] {
        if let Some(d) = d.filter(|&d| d >= devices) {
            return Err(format!("{flag}: device {d} is not below the run's {devices}").into());
        }
    }
    Ok(o)
}

fn load_circuit(o: &Options) -> Result<Circuit, String> {
    match (&o.file, o.benchmark, o.qubits) {
        (Some(path), _, _) => {
            let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            qasm::parse(&text).map_err(|e| e.to_string())
        }
        (None, Some(b), Some(q)) => Ok(b.generate(q)),
        _ => Err("no circuit".into()),
    }
}

fn main() -> ExitCode {
    let opts = match parse(&cli::argv()) {
        Ok(o) => o,
        Err(e) => return CLI.exit(e),
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let circuit = load_circuit(opts)?;
    let n = circuit.num_qubits();
    let ops = circuit.len();
    match opts.opts {
        Some(f) => eprintln!("[qgpu-sim] {n} qubits, {ops} ops, opts {f}"),
        None => eprintln!("[qgpu-sim] {n} qubits, {ops} ops, version {}", opts.version),
    }

    let mut platform = (opts.platform)(n);
    if opts.devices > 1 {
        platform = platform.with_devices(opts.devices);
        eprintln!(
            "[qgpu-sim] fleet: {} devices ({})",
            opts.devices, platform.name
        );
    }
    let mut config = SimConfig::new(platform)
        .with_version(opts.version)
        .with_chunk_count_log2(opts.chunks_log2);
    if let Some(f) = opts.opts {
        config = config.with_opts(f);
    }
    if let Some(k) = opts.codec {
        config = config.with_codec(k);
        if config.codec() == k {
            eprintln!("[qgpu-sim] codec: {k}");
        } else {
            // The baseline's static allocation never moves chunks over
            // the link, so there is nothing to compress.
            eprintln!("[qgpu-sim] codec: {k} ignored (baseline does not stream chunks)");
        }
    }
    if opts.batching {
        config = config.with_gate_batching();
    }
    if opts.fuse {
        config = config.with_gate_fusion();
    }
    config = config.with_threads(opts.threads);
    config = config.with_shots(opts.shots).with_stoch_seed(opts.seed);
    if let Some(nc) = opts.noise {
        config = config.with_noise(nc);
        eprintln!(
            "[qgpu-sim] noise on (seed {}): depolarizing {}, bit_flip {}, phase_flip {}, loss {}",
            opts.seed, nc.depolarizing, nc.bit_flip, nc.phase_flip, nc.loss
        );
    }
    if let Some(bytes) = opts.mem_budget {
        config = config.with_mem_budget(bytes);
        eprintln!("[qgpu-sim] memory-pressure governor: {bytes} bytes per device");
    }
    if opts.trace_out.is_some() || opts.metrics_out.is_some() || opts.drift {
        config = config.with_obs_spans();
    }
    if opts.trace_out.is_some() || opts.gantt {
        // Bounded modeled track: ~30 MB of trace JSON at most, which
        // Perfetto loads comfortably; million-chunk runs truncate.
        config = config.with_trace(200_000);
    }
    let f = &opts.faults;
    if f.any_enabled() {
        config = config.with_faults(*f);
        eprintln!(
            "[qgpu-sim] fault injection on (seed {}): transfer {}, codec {}, mask {}, worker {}",
            f.seed, f.p_transfer_corrupt, f.p_codec_fail, f.p_mask_corrupt, f.p_worker_death
        );
        if f.kernel_faults_enabled() {
            eprintln!(
                "[qgpu-sim] kernel-flip injection: op {} x{}, {} attempt(s), bit {}",
                f.kernel_flip_at, f.kernel_flip_count, f.kernel_flip_attempts, f.kernel_flip_bit
            );
        }
    }
    if opts.verify_invariants {
        config = config.with_verify_invariants();
        eprintln!("[qgpu-sim] ABFT invariant checks on");
    }
    // The flight recorder: --flight-out dumps unconditionally to the
    // given path; any fault-injection run arms it automatically and
    // dumps to the default path only when a trigger event fires.
    match &opts.flight_out {
        Some(path) => {
            config = config.with_flight(FlightConfig {
                path: Some(path.clone()),
                dump_always: true,
                ..FlightConfig::default()
            });
        }
        None if opts.faults.any_enabled() => {
            config = config.with_flight(FlightConfig::default());
        }
        None => {}
    }
    if let (Some(path), true) = (&opts.checkpoint_out, opts.checkpoint_every > 0) {
        config = config.with_checkpointing(opts.checkpoint_every, path);
    }
    let resume_ckpt = match &opts.resume {
        Some(path) => {
            let ck =
                qgpu::checkpoint::load_with_progress(path).map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "[qgpu-sim] resuming from {path} ({} ops done)",
                ck.gates_done
            );
            Some(ck)
        }
        None => None,
    };
    let sim = Simulator::new(config);
    let result = sim
        .try_run_from(&circuit, resume_ckpt.as_ref())
        .map_err(|e| match (&e, &opts.checkpoint_out) {
            (SimError::Fatal { .. }, Some(path)) => {
                format!("simulation failed: {e}\n[qgpu-sim] recover with --resume {path}")
            }
            _ => format!("simulation failed: {e}"),
        })?;
    let state = result.state.as_ref().expect("state collected");

    // Most likely outcomes.
    let mut probs: Vec<(usize, f64)> = state
        .probabilities()
        .into_iter()
        .enumerate()
        .filter(|&(_, p)| p > 1e-12)
        .collect();
    probs.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    let mut out = cli::Stdout::lock();
    writeln!(out, "top basis states:")?;
    for &(basis, p) in probs.iter().take(opts.top) {
        writeln!(out, "  |{basis:0n$b}>  p = {p:.6}")?;
    }

    if opts.sample {
        let samples = result.samples.as_deref().unwrap_or(&[]);
        writeln!(
            out,
            "\n{} samples ({} distinct):",
            opts.shots,
            samples.len()
        )?;
        for &(basis, count) in samples {
            writeln!(out, "  |{basis:0n$b}>  x{count}")?;
        }
    }

    if let Some(path) = &opts.save {
        let save_codec = opts.codec.unwrap_or_default();
        qgpu::checkpoint::save_with_codec(state.amps(), 0, save_codec, path)
            .map_err(|e| e.to_string())?;
        eprintln!("[qgpu-sim] checkpoint written to {path}");
    }

    if let Some(path) = &opts.compare {
        let reference = qgpu::checkpoint::load(path).map_err(|e| format!("{path}: {e}"))?;
        if reference.num_qubits() != n {
            return Err(format!(
                "--compare: checkpoint has {} qubits but the run has {n}",
                reference.num_qubits()
            )
            .into());
        }
        let dev = state.max_deviation(&reference);
        eprintln!("[qgpu-sim] compare: max deviation {dev:.3e} vs {path}");
        if dev >= 1e-12 {
            return Err(format!("--compare: deviation {dev:.3e} exceeds 1e-12").into());
        }
    }

    if opts.report {
        let r = &result.report;
        writeln!(out, "\nmodeled execution report ({}):", opts.version)?;
        writeln!(out, "  total time        : {:.6} s", r.total_time)?;
        writeln!(out, "  host update       : {:.6} s", r.host_time)?;
        writeln!(out, "  gpu compute       : {:.6} s", r.gpu_time)?;
        writeln!(out, "  transfer busy     : {:.6} s", r.transfer_time)?;
        writeln!(
            out,
            "  bytes H2D / D2H   : {} / {}",
            r.bytes_h2d, r.bytes_d2h
        )?;
        writeln!(
            out,
            "  chunks pruned     : {} of {}",
            r.chunks_pruned,
            r.chunks_pruned + r.chunks_processed
        )?;
        writeln!(out, "  compression ratio : {:.3}x", r.compression_ratio())?;
        if opts.fuse {
            writeln!(out, "  gates fused       : {}", r.gates_fused)?;
            writeln!(out, "  fused kernels     : {}", r.fused_kernels)?;
        }
        if r.shots > 0 || r.collapses > 0 || r.noise_ops > 0 {
            writeln!(out, "  shots             : {}", r.shots)?;
            writeln!(out, "  collapses         : {}", r.collapses)?;
            writeln!(out, "  noise ops         : {}", r.noise_ops)?;
        }
        if opts.faults.any_enabled() {
            writeln!(out, "  chunk retries     : {}", r.chunk_retries)?;
            writeln!(out, "  codec fallbacks   : {}", r.codec_fallbacks)?;
            writeln!(out, "  prune fallbacks   : {}", r.prune_fallbacks)?;
            writeln!(out, "  worker restarts   : {}", r.worker_restarts)?;
        }
        if let Some(integ) = &result.integrity {
            writeln!(out, "  invariant checks  : {}", integ.checks)?;
            writeln!(out, "  violations        : {}", integ.violations)?;
            writeln!(out, "  flips injected    : {}", integ.flips_injected)?;
            writeln!(
                out,
                "  re-executions     : {} same-device, {} cross-device",
                integ.reexec_same_device, integ.reexec_cross_device
            )?;
            writeln!(out, "  repairs           : {}", integ.repairs)?;
            writeln!(out, "  quarantines       : {}", integ.quarantines)?;
        }
        if opts.devices > 1 || opts.mem_budget.is_some() || r.orchestration_events() > 0 {
            writeln!(out, "  devices           : {}", r.num_gpus)?;
            writeln!(out, "  devices lost      : {}", r.devices_lost)?;
            writeln!(out, "  chunks migrated   : {}", r.chunks_migrated)?;
            writeln!(out, "  steals            : {}", r.steals)?;
            writeln!(out, "  pressure downshifts: {}", r.pressure_downshifts)?;
            writeln!(out, "  link degradations : {}", r.link_degradations)?;
            writeln!(out, "  peak resident     : {} bytes", r.peak_resident_bytes)?;
        }
    }

    if let Some(path) = &opts.report_json {
        fs::write(path, result.report.to_json_string()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("[qgpu-sim] report written to {path}");
    }

    if opts.gantt {
        let chart = qgpu_device::gantt::render_full(&result.trace, 100);
        if chart.is_empty() {
            eprintln!("[qgpu-sim] --gantt: no timeline events recorded");
        } else {
            writeln!(out, "\n{chart}")?;
        }
    }

    if let Some(path) = &opts.trace_out {
        let spans = result
            .obs
            .as_ref()
            .map(|o| o.spans.as_slice())
            .unwrap_or(&[]);
        let trace = qgpu_obs::ChromeTrace::two_track(&result.trace, spans);
        fs::write(path, trace.to_json_string()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("[qgpu-sim] trace written to {path}");
    }

    if let Some(path) = &opts.metrics_out {
        let obs = result.obs.as_ref().expect("obs enabled with --metrics-out");
        let label = opts
            .opts
            .map(|f| f.label())
            .unwrap_or_else(|| opts.version.label().to_string());
        let meta = qgpu_obs::RunMeta::collect(
            &label,
            opts.seed,
            &format!("{:?}", sim.config()),
            env!("CARGO_PKG_VERSION"),
        );
        fs::write(path, obs.registry.document(&meta).to_string())
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("[qgpu-sim] metrics written to {path}");
    }

    if opts.drift {
        let obs = result.obs.as_ref().expect("obs enabled with --drift");
        let drift =
            qgpu_obs::DriftReport::new(&result.report, &obs.spans, obs.wall_s, opts.drift_tol);
        writeln!(out, "\n{}", drift.render())?;
    }
    out.flush()?;
    Ok(())
}

#[cfg(test)]
#[path = "../../../../tests/census.rs"]
mod census;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_covers_every_entry() {
        census::check("qgpu-sim", CLI.flags.iter().map(|f| f.long));
    }

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    /// Every `qgpu-sim` command line of CI's workflow, loop variables
    /// bound to one of their values.
    fn ci_lines() -> Vec<Vec<String>> {
        let ci = include_str!("../../../../.github/workflows/ci.yml").replace("\\\n", " ");
        let lines: Vec<Vec<String>> = ci
            .lines()
            .filter_map(|l| l.split_once("./target/release/qgpu-sim "))
            .map(|(_, rest)| {
                let rest = rest.replace("2>&1", "");
                let cmd = rest.split(['|', ';', '>']).next().unwrap_or_default();
                let cmd = cmd.replace('"', "");
                argv(
                    &cmd.replace("$b", "qft")
                        .replace("$v", "qgpu")
                        .replace("$c", "gfc"),
                )
            })
            .collect();
        assert!(lines.len() >= 25, "found {} CI lines", lines.len());
        lines
    }

    #[test]
    fn every_ci_line_parses() {
        for line in ci_lines() {
            if let Err(e) = parse(&line) {
                panic!("{line:?}: {e:?}");
            }
        }
    }

    #[test]
    fn every_row_is_in_the_help() {
        let help = CLI.help();
        for f in CLI.flags {
            assert!(help.contains(f.long), "{}", f.long);
            assert!(f
                .short
                .is_none_or(|s| help.contains(&format!("{s}, {}", f.long))));
        }
        assert!(help.contains("--help"));
    }

    #[test]
    fn spellings_keep_their_meaning() {
        let o = parse(&argv("-b qft -q 12 -v baseline -r -p 4xp4 --threads 2")).unwrap();
        assert_eq!(
            (o.benchmark, o.qubits, o.version),
            (Some(Benchmark::Qft), Some(12), Version::Baseline)
        );
        assert_eq!(
            (o.report, o.threads, (o.platform)(12).num_gpus()),
            (true, 2, 4)
        );
        let o = parse(&argv("circuit.qasm --version Q-GPU")).unwrap();
        assert_eq!(
            (o.file.as_deref(), o.version, o.seed, o.top),
            (Some("circuit.qasm"), Version::QGpu, 1, 8)
        );
        assert_eq!(parse(&argv("-h")).err(), Some(Error::Help));
    }

    #[test]
    fn hostile_lines_are_usage_errors() {
        let bad = [
            "",
            "a.qasm b.qasm",
            "a.qasm -b qft -q 8",
            "-b qft",
            "-b nope -q 8",
            "-b qft -q 1",
            "-b qf -q 3",
            "-b qft -q 70",
            "-b qft -q 8 --mem-budget 0",
            "-b qft -q 8 --threads 0",
            "-b qft -q 8 --devices 0",
            "-b qft -q 8 --checkpoint-every 0",
            "-b qft -q 8 --checkpoint-every 4",
            "-b qft -q 8 --sample",
            "-b qft -q 8 --platform h100",
            "-b qft -q 8 --inject-transfer -1",
            "-b qft -q 8 --inject-transfer 1.5",
            "-b qft -q 8 --inject-codec 2",
            "-b qft -q 8 --inject-mask -0.5",
            "-b qft -q 8 --inject-worker 7",
            "-b qft -q 8 --inject-link-degrade 1.01",
            "-b qft -q 8 --inject-straggler 9:8",
            "-b qft -q 8 --inject-straggler 1:8",
            "-b qft -q 8 --devices 2 --inject-device-loss 7:3",
            "-b qft -q 8 --platform 4xp4 --inject-device-loss 4:3",
            "-b qft -q 8 --inject-kernel-flip 5:1:1:64",
            "-b qft -q 8 --nope",
            "-b qft -q 8 --drift --drift-tol nan",
            "-b qft -q 8 --drift --drift-tol -5",
            "-b qft -q 8 --drift --drift-tol inf",
        ];
        for line in bad {
            assert!(
                matches!(parse(&argv(line)), Err(Error::Usage(_))),
                "{line:?} accepted"
            );
        }
        // The device bound follows the run's fleet.
        assert!(parse(&argv("-b qft -q 8 --devices 4 --inject-device-loss 3:3")).is_ok());
        assert!(parse(&argv("-b qft -q 8 -p 4xv100 --inject-straggler 3:2")).is_ok());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(500))]

        /// Byte soup over this table's flags never panics the parser.
        #[test]
        fn byte_soup_never_panics(picks in proptest::collection::vec((0usize..200, proptest::collection::vec(proptest::prelude::any::<u8>(), 0..6)), 0..10)) {
            let argv: Vec<String> = picks.iter().map(|(i, bytes)| match CLI.flags.get(*i) {
                Some(f) => f.long.to_string(),
                None => String::from_utf8_lossy(bytes).into_owned(),
            }).collect();
            let _ = parse(&argv);
        }
    }
}
