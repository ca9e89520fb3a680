//! Golden-report harness: pins the engine's observable behavior —
//! final state vectors, modeled `Timeline`s, and `ExecutionReport`s —
//! against fixtures captured from the pre-refactor engine, so any
//! engine restructuring can prove itself bit-exact.
//!
//! Each scenario runs a benchmark through one engine configuration and
//! reduces the result to four 64-bit FNV-1a fingerprints:
//!
//! - `state`   — the bit patterns of every final amplitude,
//! - `report`  — the deterministic JSON text of the `ExecutionReport`,
//! - `trace`   — every timeline event (engine, kind, span bits, bytes),
//! - `samples` — the seeded shot counts (the FNV offset when no shots
//!   were requested).
//!
//! The fingerprints live in `tests/fixtures/golden/engine_fingerprints.txt`.
//! A mismatch means the engine's modeled behavior changed; that is only
//! acceptable with a deliberate fixture regeneration:
//!
//! ```text
//! QGPU_GOLDEN_REGEN=1 cargo test -q -p qgpu-integration --test golden_reports
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use qgpu::{CodecKind, FaultConfig, NoiseConfig, SimConfig, Simulator, Version};
use qgpu_circuit::generators::Benchmark;
use qgpu_circuit::Circuit;
use qgpu_device::timeline::TraceEvent;
use qgpu_device::Platform;

/// 64-bit FNV-1a — tiny, dependency-free, and stable across runs.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn finish(self) -> u64 {
        self.0
    }
}

fn state_fingerprint(state: &qgpu_statevec::StateVector) -> u64 {
    let mut h = Fnv::new();
    for i in 0..state.len() {
        let a = state.amp(i);
        h.write_u64(a.re.to_bits());
        h.write_u64(a.im.to_bits());
    }
    h.finish()
}

fn report_fingerprint(report: &qgpu_device::ExecutionReport) -> u64 {
    let mut h = Fnv::new();
    h.write(report.to_json_string().as_bytes());
    h.finish()
}

fn trace_fingerprint(trace: &[TraceEvent]) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(trace.len() as u64);
    for ev in trace {
        h.write(format!("{:?}|{:?}", ev.engine, ev.kind).as_bytes());
        h.write_u64(ev.span.start.to_bits());
        h.write_u64(ev.span.end.to_bits());
        h.write_u64(ev.bytes);
    }
    h.finish()
}

fn samples_fingerprint(samples: Option<&[(usize, u64)]>) -> u64 {
    let mut h = Fnv::new();
    for &(state, count) in samples.unwrap_or(&[]) {
        h.write_u64(state as u64);
        h.write_u64(count);
    }
    h.finish()
}

/// One pinned engine configuration: a label plus the config it runs and
/// an optional circuit edit (e.g. appending mid-circuit measurements).
struct Scenario {
    label: String,
    benchmark: Benchmark,
    qubits: usize,
    config: SimConfig,
    prep: Option<fn(&mut Circuit)>,
}

/// Every scenario the fixture pins. The core grid is all nine paper
/// benchmarks × all six versions; extended rows exercise the batching,
/// fusion, chunk-sizing, multi-device, fault-injection, and
/// orchestration paths whose timelines must also survive a refactor.
fn scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();
    let n = 10;
    for b in Benchmark::ALL {
        for v in Version::ALL {
            out.push(Scenario {
                label: format!("{}/{}", b.abbrev(), v.label()),
                benchmark: b,
                qubits: n,
                prep: None,
                config: SimConfig::scaled_paper(n).with_version(v),
            });
        }
    }
    // Gate batching. Only the streaming mode batches: the baseline row
    // must stay equal to the plain `qft/Baseline` one.
    for v in [Version::Baseline, Version::QGpu] {
        out.push(Scenario {
            label: format!("qft/{}+batching", v.label()),
            benchmark: Benchmark::Qft,
            qubits: n,
            prep: None,
            config: SimConfig::scaled_paper(n)
                .with_version(v)
                .with_gate_batching(),
        });
    }
    // Gate fusion.
    out.push(Scenario {
        label: "qft/qgpu+fusion".into(),
        benchmark: Benchmark::Qft,
        qubits: n,
        prep: None,
        config: SimConfig::scaled_paper(n)
            .with_version(Version::QGpu)
            .with_gate_fusion(),
    });
    // Fixed chunk size (the dynamic-sizing ablation path).
    out.push(Scenario {
        label: "qft/qgpu+fixed-chunks".into(),
        benchmark: Benchmark::Qft,
        qubits: n,
        prep: None,
        config: SimConfig::scaled_paper(n)
            .with_version(Version::QGpu)
            .fixed_chunk_size(),
    });
    // Multi-device fleets (dealer + per-device windows).
    for v in [Version::Baseline, Version::Overlap, Version::QGpu] {
        out.push(Scenario {
            label: format!("qft/{}+devices2", v.label()),
            benchmark: Benchmark::Qft,
            qubits: n,
            prep: None,
            config: SimConfig::new(Platform::scaled_paper_p100(n).with_devices(2)).with_version(v),
        });
    }
    // Seeded fault injection: retries, codec fallbacks, backoff — the
    // resilient pipeline's modeled timeline must be preserved exactly.
    let faults = FaultConfig {
        seed: 42,
        p_transfer_corrupt: 0.01,
        p_codec_fail: 0.02,
        ..FaultConfig::default()
    };
    out.push(Scenario {
        label: "qft/qgpu+faults42".into(),
        benchmark: Benchmark::Qft,
        qubits: 12,
        prep: None,
        config: SimConfig::new(Platform::scaled_paper_p100(12).with_devices(2))
            .with_version(Version::QGpu)
            .with_faults(faults),
    });
    // Deterministic device loss mid-run: re-shard + barrier replay.
    let loss = FaultConfig {
        seed: 7,
        device_lost_id: 2,
        device_lost_at: 40,
        ..FaultConfig::default()
    };
    out.push(Scenario {
        label: "qft/overlap+devloss".into(),
        benchmark: Benchmark::Qft,
        qubits: 12,
        prep: None,
        config: SimConfig::new(Platform::scaled_paper_p100(12).with_devices(4))
            .with_version(Version::Overlap)
            .with_faults(loss),
    });
    // Memory-pressure governor.
    out.push(Scenario {
        label: "qft/qgpu+membudget".into(),
        benchmark: Benchmark::Qft,
        qubits: n,
        prep: None,
        config: SimConfig::scaled_paper(n)
            .with_version(Version::QGpu)
            .with_mem_budget(6 * 1024),
    });
    // Stochastic execution: seeded per-gate noise (loss inserts resets,
    // so mid-circuit collapse is exercised) plus end-of-circuit shot
    // sampling — state, counters, timeline, and counts all pinned.
    let noise = NoiseConfig {
        depolarizing: 0.05,
        loss: 0.02,
        ..NoiseConfig::default()
    };
    for v in [Version::Baseline, Version::QGpu] {
        out.push(Scenario {
            label: format!("qft/{}+noise11", v.label()),
            benchmark: Benchmark::Qft,
            qubits: n,
            prep: None,
            config: SimConfig::scaled_paper(n)
                .with_version(v)
                .with_noise(noise)
                .with_stoch_seed(11)
                .with_shots(256),
        });
    }
    // Explicit mid-circuit measurements (no noise): the collapse sync
    // point on its own, through both execution modes and the batcher.
    for (v, batching) in [
        (Version::Baseline, false),
        (Version::QGpu, false),
        (Version::QGpu, true),
    ] {
        let mut config = SimConfig::scaled_paper(n)
            .with_version(v)
            .with_stoch_seed(5)
            .with_shots(128);
        let mut label = format!("qft/{}+measure", v.label());
        if batching {
            config = config.with_gate_batching();
            label.push_str("+batching");
        }
        out.push(Scenario {
            label,
            benchmark: Benchmark::Qft,
            qubits: n,
            prep: Some(|c: &mut Circuit| {
                c.measure(0).h(0).measure(1).reset(2).h(2);
            }),
            config,
        });
    }
    // Gates with more live tasks than one tile (4096) of the streaming
    // timeline phase — 57, 25 and 12 of them — so the column pass, the
    // lanes' write-back and the cancel poll between tiles all run inside
    // a gate (the 16-qubit runs get 2^14 chunks for that). Recorded with
    // the engine of the commit before the columnar loop landed.
    out.push(Scenario {
        label: "qft18/qgpu".into(),
        benchmark: Benchmark::Qft,
        qubits: 18,
        prep: None,
        config: SimConfig::scaled_paper(18).with_version(Version::QGpu),
    });
    out.push(Scenario {
        label: "rqc16/qgpu+noise+devices2+threads2".into(),
        benchmark: Benchmark::Rqc,
        qubits: 16,
        prep: None,
        config: SimConfig::new(Platform::scaled_paper_p100(16).with_devices(2))
            .with_version(Version::QGpu)
            .with_chunk_count_log2(14)
            .with_threads(2)
            .with_noise(NoiseConfig {
                depolarizing: 0.01,
                loss: 0.02,
                ..NoiseConfig::default()
            })
            .with_stoch_seed(42)
            .with_shots(512),
    });
    out.push(Scenario {
        label: "iqp16/qgpu+cascade+faults9".into(),
        benchmark: Benchmark::Iqp,
        qubits: 16,
        prep: None,
        config: SimConfig::scaled_paper(16)
            .with_version(Version::QGpu)
            .with_chunk_count_log2(14)
            .with_codec(CodecKind::Cascade)
            .with_faults(FaultConfig {
                seed: 9,
                p_transfer_corrupt: 0.01,
                p_codec_fail: 0.02,
                ..FaultConfig::default()
            }),
    });
    // Static mode on 2^10-amplitude chunks: deferred flushes replay long
    // runs of gates per chunk, and the closing swaps cross chunks, so the
    // vector-width kernels and the swap move path are pinned past the
    // sub-line sizes of the 10-qubit grid. Recorded before those kernels
    // landed.
    out.push(Scenario {
        label: "qft16/baseline".into(),
        benchmark: Benchmark::Qft,
        qubits: 16,
        prep: None,
        config: SimConfig::scaled_paper(16)
            .with_version(Version::Baseline)
            .with_chunk_count_log2(6),
    });
    // Static mode's fault and pressure paths: a device lost mid-run with
    // a straggler and degraded links (its stripe re-homes to the host),
    // a residency budget below one GPU's capacity, and sticky kernel
    // flips that quarantine a device and drain it through the same loss
    // path. `static_paths_fire` checks each path ran.
    out.push(Scenario {
        label: "qft12/baseline+devloss".into(),
        benchmark: Benchmark::Qft,
        qubits: 12,
        prep: None,
        config: SimConfig::new(Platform::scaled_paper_p100(12).with_devices(4))
            .with_version(Version::Baseline)
            .with_faults(FaultConfig {
                seed: 7,
                device_lost_id: 2,
                device_lost_at: 40,
                straggler_device: 1,
                slowdown_factor: 8.0,
                p_link_degraded: 0.05,
                ..FaultConfig::default()
            }),
    });
    out.push(Scenario {
        label: "qft/baseline+membudget".into(),
        benchmark: Benchmark::Qft,
        qubits: n,
        prep: None,
        config: SimConfig::scaled_paper(n)
            .with_version(Version::Baseline)
            .with_mem_budget(1024),
    });
    out.push(Scenario {
        label: "qft12/baseline+flip".into(),
        benchmark: Benchmark::Qft,
        qubits: 12,
        prep: None,
        config: SimConfig::new(Platform::scaled_paper_p100(12).with_devices(4))
            .with_version(Version::Baseline)
            .with_faults(FaultConfig {
                seed: 2,
                kernel_flip_at: 5,
                kernel_flip_count: 3,
                kernel_flip_attempts: 2,
                ..FaultConfig::default()
            }),
    });
    // Gate batching under transfer, codec and mask faults, under device
    // loss with a straggler and degraded links, and under a residency
    // budget tight enough to pull a rung (`qft/qgpu+membudget`'s pulls
    // none). `batching_paths_fire` checks each path ran.
    out.push(Scenario {
        label: "qft12/qgpu+batching+faults".into(),
        benchmark: Benchmark::Qft,
        qubits: 12,
        prep: None,
        config: SimConfig::scaled_paper(12)
            .with_version(Version::QGpu)
            .with_gate_batching()
            .with_faults(FaultConfig {
                seed: 42,
                p_transfer_corrupt: 0.02,
                p_codec_fail: 0.05,
                p_mask_corrupt: 0.15,
                ..FaultConfig::default()
            }),
    });
    out.push(Scenario {
        label: "qft12/qgpu+batching+devloss".into(),
        benchmark: Benchmark::Qft,
        qubits: 12,
        prep: None,
        config: SimConfig::new(Platform::scaled_paper_p100(12).with_devices(4))
            .with_version(Version::QGpu)
            .with_gate_batching()
            .with_faults(FaultConfig {
                seed: 7,
                device_lost_id: 2,
                device_lost_at: 40,
                straggler_device: 1,
                slowdown_factor: 8.0,
                p_link_degraded: 0.05,
                ..FaultConfig::default()
            }),
    });
    out.push(Scenario {
        label: "qft/qgpu+batching+membudget".into(),
        benchmark: Benchmark::Qft,
        qubits: n,
        prep: None,
        config: SimConfig::scaled_paper(n)
            .with_version(Version::QGpu)
            .with_gate_batching()
            .with_mem_budget(2 * 1024),
    });
    out
}

fn run_scenario(s: &Scenario) -> qgpu::RunResult {
    let mut circuit = s.benchmark.generate(s.qubits);
    if let Some(prep) = s.prep {
        prep(&mut circuit);
    }
    Simulator::new(s.config.clone().with_trace(200_000)).run(&circuit)
}

fn run_fingerprints(s: &Scenario) -> String {
    let r = run_scenario(s);
    let state = r.state.as_ref().expect("state collected");
    format!(
        "{} state={:016x} report={:016x} trace={:016x} samples={:016x}",
        s.label,
        state_fingerprint(state),
        report_fingerprint(&r.report),
        trace_fingerprint(&r.trace),
        samples_fingerprint(r.samples.as_deref()),
    )
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures/golden")
        .join("engine_fingerprints.txt")
}

#[test]
fn engine_matches_golden_fingerprints() {
    let mut actual = String::new();
    for s in scenarios() {
        writeln!(actual, "{}", run_fingerprints(&s)).unwrap();
    }

    let path = fixture_path();
    if std::env::var_os("QGPU_GOLDEN_REGEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &actual).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }

    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun with QGPU_GOLDEN_REGEN=1 to capture fixtures",
            path.display()
        )
    });
    let mut mismatches = Vec::new();
    for (want, got) in expected.lines().zip(actual.lines()) {
        if want != got {
            mismatches.push(format!("  expected: {want}\n  actual:   {got}"));
        }
    }
    if expected.lines().count() != actual.lines().count() {
        mismatches.push(format!(
            "  scenario count changed: fixture {} vs actual {}",
            expected.lines().count(),
            actual.lines().count()
        ));
    }
    assert!(
        mismatches.is_empty(),
        "engine behavior diverged from golden fixtures \
         (deliberate? regenerate with QGPU_GOLDEN_REGEN=1):\n{}",
        mismatches.join("\n")
    );
}

/// The static-mode scenarios pin the paths they are named for: a
/// fingerprint of a run where the path never fired would pin nothing.
#[test]
fn static_paths_fire() {
    let all = scenarios();
    let find = |label: &str| all.iter().find(|s| s.label == label).expect(label);
    let run = |label: &str| run_scenario(find(label));
    // The plain baseline updates host chunks on the host, pinned ones on
    // the GPU, and exchanges the tasks that straddle the boundary.
    let plain = run("qft/Baseline").report;
    assert!(plain.bytes_h2d > 0, "no reactive exchange");
    assert!(plain.host_time > 0.0, "no host update");
    assert!(plain.gpu_time > 0.0, "no GPU kernel");
    let s = find("qft12/baseline+devloss");
    let loss = run_scenario(s).report;
    assert_eq!(loss.devices_lost, 1);
    assert!(loss.chunks_migrated > 0);
    assert!(loss.link_degradations > 0);
    // The pinned straggler stretches its kernels.
    let steady = FaultConfig {
        straggler_device: usize::MAX,
        ..s.config.faults
    };
    let unstretched = Scenario {
        config: s.config.clone().with_faults(steady),
        label: String::new(),
        ..*s
    };
    let unstretched = run_scenario(&unstretched).report;
    assert!(
        loss.gpu_time > unstretched.gpu_time,
        "straggler: {} vs {}",
        loss.gpu_time,
        unstretched.gpu_time
    );
    let budget = run("qft/baseline+membudget").report;
    assert!(budget.pressure_downshifts > 0);
    let flip = run("qft12/baseline+flip");
    let integrity = flip.integrity.expect("flips arm the integrity checks");
    assert!(integrity.quarantines >= 1);
    assert_eq!(
        flip.report.devices_lost, 1,
        "the quarantine drains one device"
    );
}

/// The batching scenarios pin the paths they are named for, as
/// `static_paths_fire` does for static mode.
#[test]
fn batching_paths_fire() {
    let run = |label: &str| {
        let all = scenarios();
        let s = all.iter().find(|s| s.label == label).expect(label);
        run_scenario(s).report
    };
    let faults = run("qft12/qgpu+batching+faults");
    assert!(faults.chunk_retries > 0);
    assert!(faults.codec_fallbacks > 0);
    assert!(faults.prune_fallbacks > 0);
    let loss = run("qft12/qgpu+batching+devloss");
    assert_eq!(loss.devices_lost, 1);
    assert!(loss.link_degradations > 0);
    let budget = run("qft/qgpu+batching+membudget");
    assert!(budget.pressure_downshifts > 0);
}
