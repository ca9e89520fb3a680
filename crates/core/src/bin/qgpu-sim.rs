//! `qgpu-sim` — simulate an OpenQASM 2.0 circuit (or a built-in
//! benchmark) through the Q-GPU pipeline.
//!
//! ```text
//! qgpu-sim circuit.qasm [options]
//! qgpu-sim --benchmark qft --qubits 16 [options]
//!
//! options:
//!   --version <baseline|naive|overlap|pruning|reorder|qgpu>   (default qgpu)
//!   --opts <list>      run an explicit optimization subset instead of a
//!                      named version: a +-separated list drawn from
//!                      {overlap, pruning, reorder, compression}, or
//!                      "none"/"all" (e.g. --opts pruning+compression)
//!   --codec <gfc|zero-run|alp|cascade>   compression codec for chunks
//!                      moving over the link (default gfc; cascade
//!                      samples each chunk and picks the best codec)
//!   --shots <N>        draw N seeded end-of-circuit shots (default 0)
//!   --sample           print the sampled counts (with --shots)
//!   --seed <N>         stochastic seed: noise sites, mid-circuit
//!                      collapse, and shot sampling (default 1)
//!   --noise <spec>     per-gate noise channels, e.g.
//!                      "depolarizing:0.01,loss:0.001" (channels:
//!                      depolarizing, bit_flip, phase_flip, loss)
//!   --chunks <log2>    chunk-count exponent (default 8)
//!   --platform <p100|v100|a100|4xp4|4xv100>   modeled platform (default p100)
//!   --devices <N>      replicate device 0 into an N-GPU fleet
//!   --top <N>          print the N most likely basis states (default 8)
//!   --batching         enable the gate-batching extension
//!   --fuse             enable the gate-fusion pass
//!   --threads <N>      functional worker threads (default 1)
//!   --peephole         run the peephole optimizer before simulating
//!   --cx-basis         transpile to the {1-qubit, CX} basis first
//!   --report           print the modeled execution report
//!   --report-json <path>  write the modeled execution report as JSON
//!   --save <path>      write the final state as a compressed checkpoint
//!   --trace-out <path> write a two-track Chrome/Perfetto trace JSON
//!   --metrics-out <path>  write the recorded metrics as JSON
//!                      (with a `meta` run-provenance block and the
//!                      labeled `registry` of per-stage histograms)
//!   --flight-out <path>  always dump the flight-recorder event ring to
//!                      JSON at <path> after the run. Any fault-injection
//!                      run arms the recorder automatically and dumps to
//!                      `qgpu-flight.json` when a retry/fallback/loss
//!                      trigger fires, even without this flag.
//!   --drift            print the modeled-vs-measured drift report
//!   --drift-tol <pp>   drift flagging tolerance in percentage points
//!   --gantt            print the modeled timeline as an ASCII Gantt chart
//!
//! fault injection & resilience:
//!   --inject-seed <N>      fault injector seed (default 0)
//!   --inject-transfer <P>  per-transfer corruption probability
//!   --inject-codec <P>     per-encode codec failure probability
//!   --inject-mask <P>      per-op involvement-mask corruption probability
//!   --inject-worker <P>    per-worker death probability
//!   --inject-fail-at <N>   abort with a fatal fault at program op N
//!   --verify-invariants    run the ABFT invariant checks (per-chunk
//!                          norms, diagonal magnitudes, zero blocks, and
//!                          the whole-state norm gate before readout)
//!   --inject-kernel-flip <OP[:COUNT[:ATTEMPTS[:BIT]]]>
//!                          XOR one amplitude bit inside kernel output at
//!                          program op OP (and the COUNT-1 following ops);
//!                          ATTEMPTS > 1 makes the fault sticky across
//!                          that many re-executions, BIT picks the flipped
//!                          bit (default 62, the exponent MSB). Arms the
//!                          invariant checks and repair automatically.
//!   --inject-device-loss <D:OP>  lose device D at program op OP
//!   --inject-link-degrade <P>    per-transfer link degradation probability
//!   --inject-straggler <D[:F]>   pin device D as a persistent straggler,
//!                                optionally stretched by factor F (default 4)
//!   --mem-budget <BYTES>   per-device chunk-residency budget (enables the
//!                          memory-pressure governor)
//!   --checkpoint-every <N> write a checkpoint every N program ops
//!   --checkpoint-out <p>   checkpoint path (with --checkpoint-every)
//!   --resume <path>        resume from a checkpoint written by --checkpoint-out
//!   --compare <path>       after the run, compare the final state against a
//!                          checkpoint; exit nonzero beyond 1e-12 deviation
//! ```

use std::env;
use std::fs;
use std::process::ExitCode;

use qgpu::{
    CodecKind, FaultConfig, FlightConfig, OptFlags, SimConfig, SimError, Simulator, Version,
};
use qgpu_circuit::generators::Benchmark;
use qgpu_circuit::{qasm, Circuit, NoiseConfig};
use qgpu_device::Platform;

struct Options {
    source: Source,
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
    platform: String,
    devices: usize,
    mem_budget: Option<u64>,
    peephole: bool,
    cx_basis: bool,
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

enum Source {
    File(String),
    Benchmark { name: String, qubits: usize },
}

fn parse_version(s: &str) -> Result<Version, String> {
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

fn parse_args() -> Result<Options, String> {
    let mut args = env::args().skip(1).peekable();
    let mut file = None;
    let mut benchmark = None;
    let mut qubits = None;
    let mut version = Version::QGpu;
    let mut opts = None;
    let mut codec = None;
    let mut shots = 0u64;
    let mut sample = false;
    let mut noise = None;
    let mut seed = 1u64;
    let mut chunks_log2 = 8u32;
    let mut top = 8usize;
    let mut batching = false;
    let mut fuse = false;
    let mut threads = 1usize;
    let mut report = false;
    let mut report_json = None;
    let mut save = None;
    let mut platform = "p100".to_string();
    let mut devices = 1usize;
    let mut mem_budget = None;
    let mut peephole = false;
    let mut cx_basis = false;
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut flight_out = None;
    let mut drift = false;
    let mut drift_tol = qgpu_obs::drift::DEFAULT_TOLERANCE_PP;
    let mut gantt = false;
    let mut faults = FaultConfig::default();
    let mut verify_invariants = false;
    let mut checkpoint_every = 0u64;
    let mut checkpoint_out = None;
    let mut resume = None;
    let mut compare = None;

    let take = |args: &mut std::iter::Peekable<std::iter::Skip<env::Args>>,
                flag: &str|
     -> Result<String, String> {
        args.next().ok_or(format!("missing value after {flag}"))
    };

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--benchmark" | "-b" => benchmark = Some(take(&mut args, "--benchmark")?),
            "--qubits" | "-q" => {
                qubits = Some(
                    take(&mut args, "--qubits")?
                        .parse()
                        .map_err(|_| "bad qubit count")?,
                )
            }
            "--version" | "-v" => version = parse_version(&take(&mut args, "--version")?)?,
            "--opts" => opts = Some(OptFlags::parse(&take(&mut args, "--opts")?)?),
            "--codec" => codec = Some(take(&mut args, "--codec")?.parse::<CodecKind>()?),
            "--shots" => {
                shots = take(&mut args, "--shots")?
                    .parse()
                    .map_err(|_| "bad shots")?
            }
            "--sample" => sample = true,
            "--noise" => noise = Some(take(&mut args, "--noise")?.parse::<NoiseConfig>()?),
            "--seed" => seed = take(&mut args, "--seed")?.parse().map_err(|_| "bad seed")?,
            "--chunks" => {
                chunks_log2 = take(&mut args, "--chunks")?
                    .parse()
                    .map_err(|_| "bad chunks")?
            }
            "--top" => top = take(&mut args, "--top")?.parse().map_err(|_| "bad top")?,
            "--batching" => batching = true,
            "--fuse" => fuse = true,
            "--threads" => {
                threads = take(&mut args, "--threads")?
                    .parse()
                    .map_err(|_| "bad thread count")?;
                if threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            "--report" | "-r" => report = true,
            "--report-json" => report_json = Some(take(&mut args, "--report-json")?),
            "--save" => save = Some(take(&mut args, "--save")?),
            "--platform" | "-p" => platform = take(&mut args, "--platform")?,
            "--devices" => {
                devices = take(&mut args, "--devices")?
                    .parse()
                    .map_err(|_| "bad device count")?;
                if devices == 0 {
                    return Err("--devices must be at least 1".into());
                }
            }
            "--mem-budget" => {
                mem_budget = Some(
                    take(&mut args, "--mem-budget")?
                        .parse()
                        .map_err(|_| "bad memory budget")?,
                )
            }
            "--peephole" => peephole = true,
            "--cx-basis" => cx_basis = true,
            "--trace-out" => trace_out = Some(take(&mut args, "--trace-out")?),
            "--metrics-out" => metrics_out = Some(take(&mut args, "--metrics-out")?),
            "--flight-out" => flight_out = Some(take(&mut args, "--flight-out")?),
            "--drift" => drift = true,
            "--drift-tol" => {
                drift_tol = take(&mut args, "--drift-tol")?
                    .parse()
                    .map_err(|_| "bad drift tolerance")?
            }
            "--gantt" => gantt = true,
            "--inject-seed" => {
                faults.seed = take(&mut args, "--inject-seed")?
                    .parse()
                    .map_err(|_| "bad injection seed")?
            }
            "--inject-transfer" => {
                faults.p_transfer_corrupt = take(&mut args, "--inject-transfer")?
                    .parse()
                    .map_err(|_| "bad transfer corruption probability")?
            }
            "--inject-codec" => {
                faults.p_codec_fail = take(&mut args, "--inject-codec")?
                    .parse()
                    .map_err(|_| "bad codec failure probability")?
            }
            "--inject-mask" => {
                faults.p_mask_corrupt = take(&mut args, "--inject-mask")?
                    .parse()
                    .map_err(|_| "bad mask corruption probability")?
            }
            "--inject-worker" => {
                faults.p_worker_death = take(&mut args, "--inject-worker")?
                    .parse()
                    .map_err(|_| "bad worker death probability")?
            }
            "--inject-fail-at" => {
                faults.fail_at_gate = take(&mut args, "--inject-fail-at")?
                    .parse()
                    .map_err(|_| "bad fatal fault op index")?
            }
            "--inject-device-loss" => {
                let spec = take(&mut args, "--inject-device-loss")?;
                let (d, op) = spec
                    .split_once(':')
                    .ok_or("--inject-device-loss wants D:OP (device:program-op)")?;
                faults.device_lost_id = d.parse().map_err(|_| "bad device id")?;
                faults.device_lost_at = op.parse().map_err(|_| "bad device-loss op index")?;
            }
            "--verify-invariants" => verify_invariants = true,
            "--inject-kernel-flip" => {
                let spec = take(&mut args, "--inject-kernel-flip")?;
                let mut parts = spec.split(':');
                faults.kernel_flip_at = parts
                    .next()
                    .unwrap_or_default()
                    .parse()
                    .map_err(|_| "bad kernel-flip op index")?;
                if let Some(c) = parts.next() {
                    faults.kernel_flip_count = c.parse().map_err(|_| "bad kernel-flip op count")?;
                }
                if let Some(a) = parts.next() {
                    faults.kernel_flip_attempts =
                        a.parse().map_err(|_| "bad kernel-flip attempt count")?;
                }
                if let Some(b) = parts.next() {
                    faults.kernel_flip_bit = b.parse().map_err(|_| "bad kernel-flip bit")?;
                    if faults.kernel_flip_bit > 63 {
                        return Err("kernel-flip bit must be 0..=63".into());
                    }
                }
                if parts.next().is_some() {
                    return Err("--inject-kernel-flip wants OP[:COUNT[:ATTEMPTS[:BIT]]]".into());
                }
            }
            "--inject-link-degrade" => {
                faults.p_link_degraded = take(&mut args, "--inject-link-degrade")?
                    .parse()
                    .map_err(|_| "bad link degradation probability")?
            }
            "--inject-straggler" => {
                let spec = take(&mut args, "--inject-straggler")?;
                let (dev, factor) = match spec.split_once(':') {
                    Some((d, f)) => (d.to_string(), Some(f.to_string())),
                    None => (spec, None),
                };
                faults.straggler_device = dev.parse().map_err(|_| "bad straggler device id")?;
                if let Some(f) = factor {
                    faults.slowdown_factor =
                        f.parse().map_err(|_| "bad straggler slowdown factor")?;
                    if faults.slowdown_factor <= 1.0 {
                        return Err("straggler slowdown factor must exceed 1".into());
                    }
                }
            }
            "--checkpoint-every" => {
                checkpoint_every = take(&mut args, "--checkpoint-every")?
                    .parse()
                    .map_err(|_| "bad checkpoint interval")?;
                if checkpoint_every == 0 {
                    return Err("--checkpoint-every must be at least 1".into());
                }
            }
            "--checkpoint-out" => checkpoint_out = Some(take(&mut args, "--checkpoint-out")?),
            "--resume" => resume = Some(take(&mut args, "--resume")?),
            "--compare" => compare = Some(take(&mut args, "--compare")?),
            "--help" | "-h" => return Err(HELP.to_string()),
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_string()),
            other => return Err(format!("unknown argument '{other}'\n{HELP}")),
        }
    }
    let source = match (file, benchmark) {
        (Some(f), None) => Source::File(f),
        (None, Some(name)) => Source::Benchmark {
            name,
            qubits: qubits.ok_or("--benchmark requires --qubits")?,
        },
        (Some(_), Some(_)) => return Err("give either a file or --benchmark, not both".into()),
        (None, None) => return Err(HELP.to_string()),
    };
    if sample && shots == 0 {
        return Err("--sample requires --shots".into());
    }
    Ok(Options {
        source,
        version,
        opts,
        codec,
        shots,
        sample,
        noise,
        seed,
        chunks_log2,
        top,
        batching,
        fuse,
        threads,
        report,
        report_json,
        save,
        platform,
        devices,
        mem_budget,
        peephole,
        cx_basis,
        trace_out,
        metrics_out,
        flight_out,
        drift,
        drift_tol,
        gantt,
        faults,
        verify_invariants,
        checkpoint_every,
        checkpoint_out,
        resume,
        compare,
    })
}

const HELP: &str = "usage: qgpu-sim <file.qasm> | --benchmark <name> --qubits <N>\n  [--version baseline|naive|overlap|pruning|reorder|qgpu] [--opts list]\n  [--codec gfc|zero-run|alp|cascade] [--shots N]\n  [--sample] [--noise spec] [--seed N] [--chunks log2] [--top N] [--batching] [--fuse] [--threads N]\n  [--report] [--report-json path] [--save path] [--trace-out path] [--metrics-out path]\n  [--flight-out path]\n  [--drift] [--drift-tol pp] [--gantt] [--devices N] [--mem-budget BYTES]\n  [--inject-seed N] [--inject-transfer P] [--inject-codec P]\n  [--inject-mask P] [--inject-worker P] [--inject-fail-at N]\n  [--inject-device-loss D:OP] [--inject-link-degrade P]\n  [--inject-straggler D[:FACTOR]]\n  [--verify-invariants] [--inject-kernel-flip OP[:COUNT[:ATTEMPTS[:BIT]]]]\n  [--checkpoint-every N] [--checkpoint-out path] [--resume path]\n  [--compare path]";

fn platform_for(name: &str, qubits: usize) -> Result<Platform, String> {
    let ratio = 496.0 / 8192.0;
    Ok(match name {
        "p100" => Platform::scaled_paper_p100(qubits),
        "v100" => Platform::paper_v100().miniaturize(qubits, 0.10),
        "a100" => Platform::paper_a100().miniaturize(qubits, 0.45),
        "4xp4" => Platform::quad_p4_pcie().miniaturize(qubits, ratio / 4.0),
        "4xv100" => Platform::quad_v100_nvlink().miniaturize(qubits, ratio / 4.0),
        other => return Err(format!("unknown platform '{other}'")),
    })
}

fn load_circuit(source: &Source) -> Result<Circuit, String> {
    match source {
        Source::File(path) => {
            let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            qasm::parse(&text).map_err(|e| e.to_string())
        }
        Source::Benchmark { name, qubits } => {
            let b = Benchmark::from_abbrev(name)
                .ok_or(format!("unknown benchmark '{name}' (try qft, iqp, gs, …)"))?;
            Ok(b.generate(*qubits))
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut circuit = match load_circuit(&opts.source) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.cx_basis {
        let before = circuit.len();
        circuit = qgpu_circuit::transpile::to_cx_basis(&circuit);
        eprintln!("[qgpu-sim] cx-basis: {before} -> {} ops", circuit.len());
    }
    if opts.peephole {
        let before = circuit.len();
        circuit = qgpu_circuit::transpile::peephole(&circuit);
        eprintln!("[qgpu-sim] peephole: {before} -> {} ops", circuit.len());
    }
    let n = circuit.num_qubits();
    match opts.opts {
        Some(f) => eprintln!("[qgpu-sim] {} qubits, {} ops, opts {}", n, circuit.len(), f),
        None => eprintln!(
            "[qgpu-sim] {} qubits, {} ops, version {}",
            n,
            circuit.len(),
            opts.version
        ),
    }

    let mut platform = match platform_for(&opts.platform, n) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
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
    if opts.faults.any_enabled() {
        config = config.with_faults(opts.faults);
        eprintln!(
            "[qgpu-sim] fault injection on (seed {}): transfer {}, codec {}, mask {}, worker {}",
            opts.faults.seed,
            opts.faults.p_transfer_corrupt,
            opts.faults.p_codec_fail,
            opts.faults.p_mask_corrupt,
            opts.faults.p_worker_death,
        );
        if opts.faults.kernel_faults_enabled() {
            eprintln!(
                "[qgpu-sim] kernel-flip injection: op {} x{}, {} attempt(s), bit {}",
                opts.faults.kernel_flip_at,
                opts.faults.kernel_flip_count,
                opts.faults.kernel_flip_attempts,
                opts.faults.kernel_flip_bit,
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
    if opts.checkpoint_every > 0 {
        let Some(path) = &opts.checkpoint_out else {
            eprintln!("error: --checkpoint-every requires --checkpoint-out");
            return ExitCode::FAILURE;
        };
        config = config.with_checkpointing(opts.checkpoint_every, path);
    }
    let resume_ckpt = match &opts.resume {
        Some(path) => match qgpu::checkpoint::load_with_progress(path) {
            Ok(ck) => {
                eprintln!(
                    "[qgpu-sim] resuming from {path} ({} ops done)",
                    ck.gates_done
                );
                Some(ck)
            }
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let sim = Simulator::new(config);
    let result = match sim.try_run_from(&circuit, resume_ckpt.as_ref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: simulation failed: {e}");
            if matches!(e, SimError::Fatal { .. }) {
                if let Some(path) = &opts.checkpoint_out {
                    eprintln!("[qgpu-sim] recover with --resume {path}");
                }
            }
            return ExitCode::FAILURE;
        }
    };
    let state = result.state.as_ref().expect("state collected");

    // Most likely outcomes.
    let mut probs: Vec<(usize, f64)> = state
        .probabilities()
        .into_iter()
        .enumerate()
        .filter(|&(_, p)| p > 1e-12)
        .collect();
    probs.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    println!("top basis states:");
    for &(basis, p) in probs.iter().take(opts.top) {
        println!("  |{basis:0n$b}>  p = {p:.6}");
    }

    if opts.sample {
        let samples = result.samples.as_deref().unwrap_or(&[]);
        println!("\n{} samples ({} distinct):", opts.shots, samples.len());
        for &(basis, count) in samples {
            println!("  |{basis:0n$b}>  x{count}");
        }
    }

    if let Some(path) = &opts.save {
        let save_codec = opts.codec.unwrap_or_default();
        match qgpu::checkpoint::save_with_codec(state.amps(), 0, save_codec, path) {
            Ok(()) => eprintln!("[qgpu-sim] checkpoint written to {path}"),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = &opts.compare {
        let reference = match qgpu::checkpoint::load(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if reference.num_qubits() != n {
            eprintln!(
                "error: --compare: checkpoint has {} qubits but the run has {n}",
                reference.num_qubits()
            );
            return ExitCode::FAILURE;
        }
        let dev = state.max_deviation(&reference);
        eprintln!("[qgpu-sim] compare: max deviation {dev:.3e} vs {path}");
        if dev >= 1e-12 {
            eprintln!("error: --compare: deviation {dev:.3e} exceeds 1e-12");
            return ExitCode::FAILURE;
        }
    }

    if opts.report {
        let r = &result.report;
        println!("\nmodeled execution report ({}):", opts.version);
        println!("  total time        : {:.6} s", r.total_time);
        println!("  host update       : {:.6} s", r.host_time);
        println!("  gpu compute       : {:.6} s", r.gpu_time);
        println!("  transfer busy     : {:.6} s", r.transfer_time);
        println!("  bytes H2D / D2H   : {} / {}", r.bytes_h2d, r.bytes_d2h);
        println!(
            "  chunks pruned     : {} of {}",
            r.chunks_pruned,
            r.chunks_pruned + r.chunks_processed
        );
        println!("  compression ratio : {:.3}x", r.compression_ratio());
        if opts.fuse {
            println!("  gates fused       : {}", r.gates_fused);
            println!("  fused kernels     : {}", r.fused_kernels);
        }
        if r.shots > 0 || r.collapses > 0 || r.noise_ops > 0 {
            println!("  shots             : {}", r.shots);
            println!("  collapses         : {}", r.collapses);
            println!("  noise ops         : {}", r.noise_ops);
        }
        if opts.faults.any_enabled() {
            println!("  chunk retries     : {}", r.chunk_retries);
            println!("  codec fallbacks   : {}", r.codec_fallbacks);
            println!("  prune fallbacks   : {}", r.prune_fallbacks);
            println!("  worker restarts   : {}", r.worker_restarts);
        }
        if let Some(integ) = &result.integrity {
            println!("  invariant checks  : {}", integ.checks);
            println!("  violations        : {}", integ.violations);
            println!("  flips injected    : {}", integ.flips_injected);
            println!(
                "  re-executions     : {} same-device, {} cross-device",
                integ.reexec_same_device, integ.reexec_cross_device
            );
            println!("  repairs           : {}", integ.repairs);
            println!("  quarantines       : {}", integ.quarantines);
        }
        if opts.devices > 1 || opts.mem_budget.is_some() || r.orchestration_events() > 0 {
            println!("  devices           : {}", r.num_gpus);
            println!("  devices lost      : {}", r.devices_lost);
            println!("  chunks migrated   : {}", r.chunks_migrated);
            println!("  steals            : {}", r.steals);
            println!("  pressure downshifts: {}", r.pressure_downshifts);
            println!("  link degradations : {}", r.link_degradations);
            println!("  peak resident     : {} bytes", r.peak_resident_bytes);
        }
    }

    if let Some(path) = &opts.report_json {
        if let Err(e) = fs::write(path, result.report.to_json_string()) {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[qgpu-sim] report written to {path}");
    }

    if opts.gantt {
        let chart = qgpu_device::gantt::render_full(&result.trace, 100);
        if chart.is_empty() {
            eprintln!("[qgpu-sim] --gantt: no timeline events recorded");
        } else {
            println!("\n{chart}");
        }
    }

    if let Some(path) = &opts.trace_out {
        let spans = result
            .obs
            .as_ref()
            .map(|o| o.spans.as_slice())
            .unwrap_or(&[]);
        let trace = qgpu_obs::ChromeTrace::two_track(&result.trace, spans);
        if let Err(e) = fs::write(path, trace.to_json_string()) {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
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
        if let Err(e) = fs::write(path, obs.registry.document(&meta).to_string()) {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[qgpu-sim] metrics written to {path}");
    }

    if opts.drift {
        let obs = result.obs.as_ref().expect("obs enabled with --drift");
        let drift =
            qgpu_obs::DriftReport::new(&result.report, &obs.spans, obs.wall_s, opts.drift_tol);
        println!("\n{}", drift.render());
    }
    ExitCode::SUCCESS
}
