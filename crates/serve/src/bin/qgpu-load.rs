//! qgpu-load — chaos/load harness for the `qgpu-serve` job server.
//!
//! Drives hundreds of concurrent jobs through seeded fault injection
//! (engine-level transfer/codec/worker faults, serve-level worker
//! panics, a timed device kill), tight deadlines, and caller
//! cancellations, then **asserts** the serving contract:
//!
//! * every submitted job reaches a terminal state (no hangs);
//! * every *completed* job is bit-identical (state and shot samples)
//!   to a fault-free reference run of the same spec;
//! * decisions are visible: shed/retry/cancel/deadline counters match
//!   what the run provoked.
//!
//! `qgpu-load --help` lists the flags. Exit code 0 = contract held (a
//! reader of stdout that went away only ends the output); 1 = violation;
//! 2 = bad usage. `--metrics-out` writes the same
//! document shape as `qgpu-sim --metrics-out`. Serving throughput and
//! latency are measured by the `benchmark/` harness's `serve_mix`
//! workload (see `benchmark/README.md`).

use std::io::{self, Write};
use std::num::NonZeroU64;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use qgpu::cli::{self, require, Cli, Error};
use qgpu::{SimConfig, Simulator, Version};
use qgpu_circuit::generators::Benchmark;
use qgpu_obs::RunMeta;
use qgpu_serve::{ChaosConfig, JobSpec, JobStatus, Priority, ServeConfig, Server, ShutdownMode};

struct Opts {
    jobs: usize,
    tenants: usize,
    workers: usize,
    devices: usize,
    qubits: usize,
    shots: u64,
    seed: u64,
    queue_cap: usize,
    mem_budget: Option<u64>,
    retries: Option<u32>,
    deadline_ms: Option<u64>,
    tight_frac: f64,
    cancel_frac: f64,
    inject_transfer: f64,
    inject_codec: f64,
    inject_worker: f64,
    chaos_worker_panic: f64,
    chaos_fail_first: u32,
    chaos_device_loss: Option<(usize, usize)>,
    chaos_kernel_flip: f64,
    timeout_s: u64,
    label: String,
    metrics_out: Option<String>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            jobs: 200,
            tenants: 4,
            workers: 4,
            devices: 2,
            qubits: 10,
            shots: 16,
            seed: 1,
            queue_cap: usize::MAX,
            mem_budget: None,
            retries: None,
            deadline_ms: None,
            tight_frac: 0.0,
            cancel_frac: 0.0,
            inject_transfer: 0.0,
            inject_codec: 0.0,
            inject_worker: 0.0,
            chaos_worker_panic: 0.0,
            chaos_fail_first: 0,
            chaos_device_loss: None,
            chaos_kernel_flip: 0.0,
            timeout_s: 600,
            label: "serve_load".to_string(),
            metrics_out: None,
        }
    }
}

const CLI: Cli<Opts> = Cli {
    usage: "usage: qgpu-load [flags]",
    flags: qgpu::flags! { Opts;
        "--jobs" <"N"> "jobs to submit (default 200)" => |o, v| o.jobs = v.parse()?;
        "--tenants" <"N"> "tenants the jobs round-robin over, quota i+1 (default 4)" => |o, v| o.tenants = v.parse()?;
        "--workers" <"N"> "server worker threads (default 4)" => |o, v| o.workers = v.parse()?;
        "--devices" <"N"> "server device slots (default 2)" => |o, v| o.devices = v.parse()?;
        "--qubits" <"N"> "width of every job's qft circuit, 2..=64 (default 10)" => |o, v| o.qubits = cli::qubits(v.parse()?, Benchmark::Qft.min_qubits())?;
        "--shots" <"N"> "shots per job (default 16)" => |o, v| o.shots = v.parse()?;
        "--seed" <"N"> "chaos and fault seed (default 1)" => |o, v| o.seed = v.parse()?;
        "--queue-cap" <"N"> "per-tenant queue bound (default none)" => |o, v| o.queue_cap = v.parse()?;
        "--mem-budget" <"BYTES"> "server memory admission budget, > 0" => |o, v| o.mem_budget = Some(v.parse::<NonZeroU64>()?.get());
        "--retries" <"N"> "job-level retries" => |o, v| o.retries = Some(v.parse()?);
        "--deadline-ms" <"MS"> "default job deadline" => |o, v| o.deadline_ms = Some(v.parse()?);
        "--tight-frac" <"F"> "fraction of jobs given an unmeetable 50 us deadline" => |o, v| o.tight_frac = cli::prob(v)?;
        "--cancel-frac" <"F"> "fraction of jobs the client cancels" => |o, v| o.cancel_frac = cli::prob(v)?;
        "--inject-transfer" <"P"> "engine per-transfer corruption probability" => |o, v| o.inject_transfer = cli::prob(v)?;
        "--inject-codec" <"P"> "engine per-encode codec failure probability" => |o, v| o.inject_codec = cli::prob(v)?;
        "--inject-worker" <"P"> "engine per-worker death probability" => |o, v| o.inject_worker = cli::prob(v)?;
        "--chaos-worker-panic" <"P"> "serve worker panic probability per attempt" => |o, v| o.chaos_worker_panic = cli::prob(v)?;
        "--chaos-fail-first" <"N"> "kill the first N attempts of every job" => |o, v| o.chaos_fail_first = v.parse()?;
        "--chaos-device-loss" <"D:MS"> "kill device D MS milliseconds into the run" => |o, v| o.chaos_device_loss = Some(cli::pair(v)?);
        "--chaos-kernel-flip" <"P"> "kernel bit-flip probability (arms the invariant checks)" => |o, v| o.chaos_kernel_flip = cli::prob(v)?;
        "--timeout-s" <"S"> "seconds to wait for each job, > 0 (default 600)" => |o, v| o.timeout_s = v.parse::<NonZeroU64>()?.get();
        "--label" <"NAME"> "run label in the metrics document (default serve_load)" => |o, v| o.label = v.into();
        "--metrics-out" <"PATH"> "write the serve metrics document" => |o, v| o.metrics_out = Some(v.into());
    },
};

/// The options of `args`: the table, and a device loss inside the fleet.
fn parse(args: &[String]) -> Result<Opts, Error> {
    let (o, rest) = CLI.parse(args)?;
    if let Some(extra) = rest.first() {
        return Err(format!("unexpected argument '{extra}'").into());
    }
    if let Some((d, _)) = o.chaos_device_loss {
        // The server clamps its fleet to at least one device.
        let devices = o.devices.max(1);
        let msg = format!("--chaos-device-loss: device {d} is not below the run's {devices}");
        require(d < devices, &msg)?;
    }
    Ok(o)
}

/// Keep intentional chaos panics (serve-level worker deaths) from
/// flooding stderr; real panics still print.
fn quiet_chaos_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let is_chaos = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("chaos:"))
            || info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("chaos:"));
        if !is_chaos {
            default(info);
        }
    }));
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

fn main() -> ExitCode {
    let opts = match parse(&cli::argv()) {
        Ok(o) => o,
        Err(e) => return CLI.exit(e),
    };
    quiet_chaos_panics();

    let base_cfg = || {
        let mut cfg = SimConfig::scaled_paper(opts.qubits).with_version(Version::QGpu);
        cfg.faults.p_transfer_corrupt = opts.inject_transfer;
        cfg.faults.p_codec_fail = opts.inject_codec;
        cfg.faults.p_worker_death = opts.inject_worker;
        // Kernel bit-flips force the ABFT invariant layer on: every
        // completed job must still be bit-identical to the reference,
        // proving detection + repair end to end under load.
        cfg.faults.p_kernel_flip = opts.chaos_kernel_flip;
        cfg
    };

    // Fault-free reference for the bit-identity assertion: same circuit,
    // same physics seed, zero injection.
    let circuit = Benchmark::Qft.generate(opts.qubits);
    let reference = {
        let mut cfg = SimConfig::scaled_paper(opts.qubits).with_version(Version::QGpu);
        cfg.shots = opts.shots;
        match Simulator::new(cfg).try_run(&circuit) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("[qgpu-load] fault-free reference run failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let mut serve_cfg = ServeConfig::default()
        .with_workers(opts.workers)
        .with_devices(opts.devices)
        .with_chaos(ChaosConfig {
            seed: opts.seed,
            p_worker_panic: opts.chaos_worker_panic,
            fail_first_attempts: opts.chaos_fail_first,
        });
    if opts.queue_cap != usize::MAX {
        serve_cfg = serve_cfg.with_queue_cap(opts.queue_cap);
    }
    if let Some(budget) = opts.mem_budget {
        serve_cfg = serve_cfg.with_mem_budget(budget);
    }
    if let Some(n) = opts.retries {
        let mut retry = serve_cfg.retry;
        retry.max_retries = n;
        serve_cfg = serve_cfg.with_retry(retry);
    }
    if let Some(ms) = opts.deadline_ms {
        serve_cfg = serve_cfg.with_default_deadline(Duration::from_millis(ms));
    }
    let server = Server::new(serve_cfg);
    let tenants: Vec<String> = (0..opts.tenants.max(1)).map(|i| format!("t{i}")).collect();
    for (i, t) in tenants.iter().enumerate() {
        server.set_tenant_quota(t, (i + 1) as f64);
    }

    let start = Instant::now();
    let mut handles = Vec::new();
    let mut submit_times = Vec::new();
    let mut shed_client = 0usize;
    let mut cancelled_client = 0usize;
    let mut tight_jobs = 0usize;
    for i in 0..opts.jobs as u64 {
        let mut cfg = base_cfg();
        // Distinct machine-fault seed per job; physics seed stays the
        // class default so one reference covers every job.
        cfg.faults.seed = opts.seed ^ (i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut spec = JobSpec::new(circuit.clone(), cfg)
            .with_shots(opts.shots)
            .with_tenant(tenants[(i as usize) % tenants.len()].clone())
            .with_priority(match i % 3 {
                0 => Priority::Low,
                1 => Priority::Normal,
                _ => Priority::High,
            });
        let tight = opts.tight_frac > 0.0
            && (i as f64 + 0.5) / opts.jobs as f64 * opts.tight_frac.recip() < 1.0;
        if tight {
            spec = spec.with_deadline(Duration::from_micros(50));
            tight_jobs += 1;
        }
        match server.submit(spec) {
            Ok(handle) => {
                let cancel = opts.cancel_frac > 0.0
                    && !tight
                    && (i % (1.0 / opts.cancel_frac).max(1.0) as u64) == 1;
                if cancel {
                    handle.cancel();
                    cancelled_client += 1;
                }
                submit_times.push(Instant::now());
                handles.push(handle);
            }
            Err(reason) => {
                shed_client += 1;
                eprintln!("[qgpu-load] job {i} rejected: {reason}");
            }
        }
        // Fire the timed device kill once its moment arrives
        // (kill_device is idempotent, so re-hitting it is harmless).
        if let Some((device, ms)) = opts.chaos_device_loss {
            if start.elapsed() >= Duration::from_millis(ms as u64) {
                server.kill_device(device);
            }
        }
    }
    // If submission outran the kill timer, wait for it and fire while
    // jobs are still in flight.
    if let Some((device, ms)) = opts.chaos_device_loss {
        let at = Duration::from_millis(ms as u64);
        if start.elapsed() < at {
            std::thread::sleep(at - start.elapsed());
        }
        server.kill_device(device);
    }

    // Wait for every job; collect terminal states and latencies.
    let timeout = Duration::from_secs(opts.timeout_s);
    let mut violations = 0usize;
    let mut latencies_ms = Vec::new();
    let mut by_label: std::collections::BTreeMap<&'static str, usize> =
        std::collections::BTreeMap::new();
    let mut engine_codec_fallbacks = 0u64;
    let mut engine_chunk_retries = 0u64;
    let mut integrity_flips = 0u64;
    let mut integrity_violations = 0u64;
    let mut integrity_repairs = 0u64;
    let mut bit_mismatches = 0usize;
    for (handle, submitted) in handles.iter().zip(&submit_times) {
        let Some(status) = handle.wait_timeout(timeout) else {
            eprintln!(
                "[qgpu-load] VIOLATION: job {} non-terminal after {}s ({:?})",
                handle.id(),
                opts.timeout_s,
                handle.status()
            );
            violations += 1;
            continue;
        };
        *by_label.entry(status.label()).or_insert(0) += 1;
        if status == JobStatus::Completed {
            latencies_ms.push(submitted.elapsed().as_secs_f64() * 1e3);
            let result = handle.result().expect("completed job has a result");
            engine_codec_fallbacks += result.report.codec_fallbacks;
            engine_chunk_retries += result.report.chunk_retries;
            if let Some(s) = result.integrity {
                integrity_flips += s.flips_injected;
                integrity_violations += s.violations;
                integrity_repairs += s.repairs;
            }
            let state_ok = match (&result.state, &reference.state) {
                (Some(a), Some(b)) => a.max_deviation(b) == 0.0,
                _ => false,
            };
            if !state_ok || result.samples != reference.samples {
                eprintln!(
                    "[qgpu-load] VIOLATION: job {} completed but is not \
                     bit-identical to the fault-free reference",
                    handle.id()
                );
                bit_mismatches += 1;
                violations += 1;
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();

    // Fold the engine-side recovery counters the completed jobs carried
    // into the serve recorder so --metrics-out is one document.
    let rec = server.metrics().recorder().clone();
    rec.add("engine.codec_fallbacks", engine_codec_fallbacks);
    rec.add("engine.chunk_retries", engine_chunk_retries);
    rec.add("engine.integrity_flips", integrity_flips);
    rec.add("engine.integrity_violations", integrity_violations);
    rec.add("engine.integrity_repairs", integrity_repairs);

    let metrics = server.metrics().clone();
    server.shutdown(ShutdownMode::Drain);

    let snap = metrics.recorder().registry().snapshot();
    let counter = |n: &str| snap.counter_total(n);
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let completed = latencies_ms.len();
    let throughput = completed as f64 / wall_s.max(1e-9);
    let (p50, p90, p99, p999) = (
        percentile(&latencies_ms, 50.0),
        percentile(&latencies_ms, 90.0),
        percentile(&latencies_ms, 99.0),
        percentile(&latencies_ms, 99.9),
    );

    // Every result line goes through one locked writer; a reader that
    // went away ends the output, not the run.
    let mut out = cli::Stdout::lock();
    let fail = |e: io::Error| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    };
    let summary = (|| -> io::Result<()> {
        writeln!(out, "qgpu-load: {} jobs in {wall_s:.2}s", opts.jobs)?;
        for (label, n) in &by_label {
            writeln!(out, "  {label:>18}: {n}")?;
        }
        writeln!(out, "  client-side sheds: {shed_client}")?;
        writeln!(
            out,
            "  client cancels: {cancelled_client}, tight deadlines: {tight_jobs}"
        )?;
        writeln!(
            out,
            "  serve.retries: {}, serve.shed: {}, serve.worker_panics: {}, serve.devices_lost: {}",
            counter("serve.retries"),
            counter("serve.shed"),
            counter("serve.worker_panics"),
            counter("serve.devices_lost"),
        )?;
        writeln!(
            out,
            "  engine recovery on completed jobs: {engine_codec_fallbacks} codec fallback(s), \
             {engine_chunk_retries} chunk retry(ies)"
        )?;
        if opts.chaos_kernel_flip > 0.0 || integrity_flips > 0 {
            writeln!(
                out,
                "  integrity on completed jobs: {integrity_flips} flip(s) injected, \
                 {integrity_violations} violation(s) detected, {integrity_repairs} repaired; \
                 serve quarantines: {}",
                counter("serve.quarantines"),
            )?;
        }
        writeln!(
            out,
            "  completed: {completed} ({throughput:.1} jobs/s), latency ms \
             p50={p50:.1} p90={p90:.1} p99={p99:.1} p999={p999:.1}"
        )?;
        writeln!(
            out,
            "  bit-identity: {completed} checked, {bit_mismatches} mismatched"
        )?;
        out.flush()
    })();
    if let Err(e) = summary {
        return fail(e);
    }

    let meta = RunMeta::collect(
        &opts.label,
        opts.seed,
        &format!(
            "jobs={} tenants={} workers={} devices={} qubits={} shots={} \
             inject=({},{},{}) chaos_panic={} queue_cap={:?} mem_budget={:?}",
            opts.jobs,
            opts.tenants,
            opts.workers,
            opts.devices,
            opts.qubits,
            opts.shots,
            opts.inject_transfer,
            opts.inject_codec,
            opts.inject_worker,
            opts.chaos_worker_panic,
            opts.queue_cap,
            opts.mem_budget,
        ),
        env!("CARGO_PKG_VERSION"),
    );

    if let Some(path) = &opts.metrics_out {
        if let Err(e) = std::fs::write(path, snap.document(&meta).to_string()) {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[qgpu-load] metrics written to {path}");
    }

    if violations > 0 {
        eprintln!("[qgpu-load] FAILED: {violations} contract violation(s)");
        return ExitCode::FAILURE;
    }
    let ok = writeln!(
        out,
        "[qgpu-load] OK: all jobs terminal, completions bit-identical"
    );
    match ok.and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(e),
    }
}

#[cfg(test)]
#[path = "../../../../tests/census.rs"]
mod census;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_covers_every_entry() {
        census::check("qgpu-load", CLI.flags.iter().map(|f| f.long));
    }

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn every_ci_line_parses() {
        let ci = include_str!("../../../../.github/workflows/ci.yml").replace("\\\n", " ");
        let lines: Vec<&str> = ci
            .lines()
            .filter_map(|l| l.split_once("./target/release/qgpu-load "))
            .map(|(_, rest)| rest)
            .collect();
        let opts: Vec<Opts> = lines
            .iter()
            .map(|line| parse(&argv(line)).unwrap_or_else(|e| panic!("{line}: {e:?}")))
            .collect();
        // The soak's device kill lands inside its fleet.
        assert!(opts
            .iter()
            .any(|o| (o.jobs, o.devices, o.chaos_device_loss) == (120, 4, Some((1, 10)))));
        // The knobs line sets what the soak leaves at its defaults.
        assert!(opts
            .iter()
            .any(|o| (o.tenants, o.retries, o.timeout_s, o.label.as_str())
                == (3, Some(2), 120, "ci_knobs")));
    }

    #[test]
    fn every_row_is_in_the_help() {
        let help = CLI.help();
        for f in CLI.flags {
            assert!(help.contains(f.long), "{}", f.long);
        }
        assert!(help.contains("--help"));
        assert_eq!(parse(&argv("-h")).err(), Some(Error::Help));
    }

    #[test]
    fn hostile_lines_are_usage_errors() {
        let bad = [
            "--qubits 1",
            "--qubits 70",
            "--devices 2 --chaos-device-loss 9:1",
            "--chaos-device-loss 2:10",
            "--tight-frac 2",
            "--cancel-frac -0.1",
            "--inject-transfer 1.5",
            "--inject-codec -1",
            "--inject-worker 2",
            "--chaos-worker-panic 1.1",
            "--chaos-kernel-flip 3",
            "--jobs",
            "--nope",
            "stray",
            "--bench-out x",
            "--timeout-s 0",
            "--mem-budget 0",
        ];
        for line in bad {
            assert!(
                matches!(parse(&argv(line)), Err(Error::Usage(_))),
                "{line:?} accepted"
            );
        }
    }
}
