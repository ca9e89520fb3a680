//! The paper's §III-B baseline: static chunk allocation, CPU updates for
//! host-resident chunks, reactive synchronous exchange.

use qgpu_circuit::generators::Benchmark;
use qgpu_circuit::Circuit;
use qgpu_device::Platform;

use crate::config::{SimConfig, Version};
use crate::engine::Simulator;
use crate::result::RunResult;

fn run_cfg(c: &Circuit, cfg: SimConfig) -> RunResult {
    Simulator::new(cfg.with_version(Version::Baseline)).run(c)
}

#[test]
fn capacity_exceeded_is_host_dominated() {
    // The paper's Figure 2: ~89% CPU time, ~10% exchange, ~1% GPU.
    let c = Benchmark::Qft.generate(12);
    let r = run_cfg(&c, SimConfig::scaled_paper(12));
    assert!(
        r.report.host_fraction() > 0.6,
        "host fraction {:.2} too small",
        r.report.host_fraction()
    );
    assert!(r.report.gpu_fraction() < 0.2);
}

#[test]
fn state_fits_gpu_runs_entirely_on_gpu() {
    // Below 30 qubits (here: GPU memory not scaled down) the whole
    // state fits and the baseline uses only the GPU.
    let c = Benchmark::Qft.generate(10);
    let r = run_cfg(&c, SimConfig::new(Platform::paper_p100()));
    assert_eq!(r.report.host_time, 0.0);
    assert_eq!(r.report.bytes_h2d, 0);
    assert!(r.report.gpu_time > 0.0);
}

#[test]
fn exchange_happens_only_with_cross_boundary_mixing() {
    // A circuit of purely chunk-local gates never exchanges.
    let mut c = Circuit::new(10);
    for q in 0..3 {
        c.h(q);
    }
    c.cx(0, 1).cz(1, 2);
    let r = run_cfg(&c, SimConfig::scaled_paper(10));
    assert_eq!(r.report.bytes_h2d, 0, "no mixed groups expected");
}

#[test]
fn functional_state_is_correct() {
    let c = Benchmark::Gs.generate(9);
    let r = run_cfg(&c, SimConfig::scaled_paper(9));
    let mut reference = qgpu_statevec::StateVector::new_zero(9);
    reference.run(&c);
    assert!(r.state.expect("collected").max_deviation(&reference) < 1e-10);
}

#[test]
fn sync_time_accumulates_per_gate() {
    let c = Benchmark::Bv.generate(8);
    let r = run_cfg(&c, SimConfig::scaled_paper(8));
    let expected = c.len() as f64 * Platform::scaled_paper_p100(8).host.sync_latency;
    assert!((r.report.sync_time - expected).abs() < 1e-9);
}

/// A benchmark circuit with a measurement a third of the way in and a
/// reset (of the top qubit, across the chunk boundary) at two thirds.
fn with_collapses(b: Benchmark, n: usize) -> Circuit {
    let plain = b.generate(n);
    let mut c = Circuit::new(n);
    for (i, op) in plain.iter().enumerate() {
        if i == plain.len() / 3 {
            c.measure(1);
        }
        if i == 2 * plain.len() / 3 {
            c.reset(n - 1);
        }
        c.push(op.clone());
    }
    c
}

fn temp_ckpt(tag: &str) -> String {
    let file = format!("qgpu_static_{tag}_{}.ckpt", std::process::id());
    let path = std::env::temp_dir().join(file);
    path.to_str().expect("utf-8 temp path").to_string()
}

/// Static mode replays runs of chunk-local updates at the next barrier;
/// `--verify-invariants` observes the state per op, so it is the same
/// run with every update applied where it is modeled. Everything a run
/// exposes must agree bit for bit — with collapses and periodic
/// checkpoints (both force a flush) in the deferred run's way.
#[test]
fn deferred_updates_match_per_op_updates_bit_for_bit() {
    use Benchmark::{Bv, Hlf, Iqp, Qft, Rqc};
    for (b, n) in [(Qft, 14), (Iqp, 12), (Rqc, 11), (Bv, 13), (Hlf, 10)] {
        let c = with_collapses(b, n);
        let path = temp_ckpt(b.abbrev());
        for threads in [1, 2, 4] {
            for fuse in [false, true] {
                let mut base = SimConfig::scaled_paper(n)
                    .with_threads(threads)
                    .with_shots(256)
                    .with_trace(1 << 16);
                if fuse {
                    base = base.with_gate_fusion();
                }
                let deferred = run_cfg(&c, base.clone().with_checkpointing(7, &path));
                let per_op = run_cfg(&c, base.with_verify_invariants());
                let case = format!("{b} {n}q, {threads} thread(s), fusion {fuse}");
                super::assert_bitwise_eq(
                    deferred.state.as_ref().expect("collected"),
                    per_op.state.as_ref().expect("collected"),
                );
                assert_eq!(
                    deferred.report.to_json_string(),
                    per_op.report.to_json_string(),
                    "{case}: report"
                );
                assert_eq!(deferred.trace, per_op.trace, "{case}: timeline");
                assert_eq!(deferred.samples, per_op.samples, "{case}: samples");
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// A checkpoint taken while updates are pending must hold them: a run
/// killed mid-circuit and resumed from its last checkpoint lands on the
/// uninterrupted run's state, wherever the kill (and so the checkpoint,
/// every 7th op) falls among the runs of chunk-local ops.
#[test]
fn checkpoint_written_mid_run_resumes_to_the_uninterrupted_state() {
    let c = with_collapses(Benchmark::Rqc, 12);
    let base = SimConfig::scaled_paper(12)
        .with_version(Version::Baseline)
        .with_shots(64);
    let clean = Simulator::new(base.clone()).run(&c);
    let path = temp_ckpt("resume");
    for kill_at in (10..c.len()).step_by(9) {
        let faults = qgpu_faults::FaultConfig {
            fail_at_gate: kill_at,
            ..Default::default()
        };
        let killed = base.clone().with_faults(faults);
        Simulator::new(killed.with_checkpointing(7, &path))
            .try_run(&c)
            .expect_err("the injected fatal fault stops the run");
        let ck = crate::checkpoint::load_with_progress(&path).expect("checkpoint written");
        assert_eq!(ck.gates_done, (kill_at - kill_at % 7) as u64);
        let resumed = Simulator::new(base.clone())
            .try_run_from(&c, Some(&ck))
            .expect("resume");
        super::assert_bitwise_eq(
            clean.state.as_ref().expect("collected"),
            resumed.state.as_ref().expect("collected"),
        );
        assert_eq!(clean.samples, resumed.samples, "killed at {kill_at}");
    }
    let _ = std::fs::remove_file(&path);
}
