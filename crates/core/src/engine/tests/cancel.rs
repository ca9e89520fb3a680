//! Cooperative cancellation: a tripped token stops the run at the next
//! gate boundary — or, inside a streaming gate, between its phases and
//! between tiles of its tasks — releases its resident chunks, and still
//! reports the partial per-stage timings gathered before the abort.

use std::sync::Arc;
use std::time::Instant;

use qgpu_circuit::generators::Benchmark;
use qgpu_faults::{CancelToken, SimError};
use qgpu_obs::Recorder;

use crate::config::{SimConfig, Version};
use crate::engine::pipeline;

fn run_cancelled(cfg: SimConfig, trip_at: u64) -> (SimError, Arc<Recorder>) {
    let c = Benchmark::Qft.generate(10);
    let cfg = SimConfig {
        cancel: Some(CancelToken::cancelled_at(trip_at)),
        ..cfg
    };
    let rec = Arc::new(Recorder::new().with_flight(256));
    let err =
        pipeline::run(&c, &cfg, Some(&rec), None).expect_err("armed token must abort the run");
    (err, rec)
}

#[test]
fn cancelled_run_releases_chunks_and_reports_partial_timings() {
    let (err, rec) = run_cancelled(SimConfig::scaled_paper(10).with_version(Version::QGpu), 5);
    assert!(
        matches!(err, SimError::JobAborted { op: 5 }),
        "abort lands exactly at the armed gate boundary: {err}"
    );

    // The abort is a fault-class flight event naming the chunks the run
    // releases — after five QFT gates amplitude has spread, so the
    // count is nonzero.
    let events = rec.flight_events();
    let abort = events
        .iter()
        .find(|e| e.kind == "abort")
        .expect("abort flight event");
    assert!(
        abort.detail.contains("releasing"),
        "abort names what it releases: {}",
        abort.detail
    );
    let released: usize = abort
        .detail
        .split_whitespace()
        .find_map(|w| w.parse().ok())
        .expect("released-chunk count in detail");
    assert!(released > 0, "a mid-run abort holds resident chunks");
    assert!(rec.flight_triggered(), "abort trips the post-mortem latch");

    // Partial stage timings: the five completed gates flushed their
    // per-stage wall-clock attribution before the abort returned.
    let snap = rec.registry().snapshot();
    assert_eq!(snap.counter_total("cancel.aborts"), 1);
    // The five gates' event counts are published on the abort exit too.
    assert!(snap.counter_total("chunks.processed") > 0);
    assert!(snap.counter_total("chunks.pruned") > 0);
    let stage_samples: u64 = snap
        .histograms_named("stage.time_ns")
        .map(|e| e.value.count)
        .sum();
    assert!(
        stage_samples > 0,
        "partial per-stage timings must be flushed on abort"
    );
    let gates: u64 = snap
        .histograms_named("gate.ns")
        .map(|e| e.value.count)
        .sum();
    assert_eq!(gates, 5, "exactly the gates before the boundary completed");
}

#[test]
fn static_mode_honors_the_token_too() {
    let (err, rec) = run_cancelled(
        SimConfig::scaled_paper(10).with_version(Version::Baseline),
        3,
    );
    assert!(matches!(err, SimError::JobAborted { op: 3 }));
    assert!(rec.flight_events().iter().any(|e| e.kind == "abort"));
    let snap = rec.registry().snapshot();
    assert_eq!(snap.counter_total("cancel.aborts"), 1);
    assert!(snap.counter_total("chunks.processed") > 0);
    let gates: u64 = snap
        .histograms_named("gate.ns")
        .map(|e| e.value.count)
        .sum();
    assert_eq!(gates, 3);
}

#[test]
fn deadline_trip_surfaces_as_deadline_exceeded() {
    let c = Benchmark::Qft.generate(8);
    let cfg = SimConfig {
        cancel: Some(CancelToken::with_deadline(Some(Instant::now()))),
        ..SimConfig::scaled_paper(8).with_version(Version::QGpu)
    };
    let err = pipeline::run(&c, &cfg, None, None).unwrap_err();
    assert!(matches!(err, SimError::DeadlineExceeded { op: 0 }));
}

#[test]
fn untripped_token_is_free_and_bit_exact() {
    let c = Benchmark::Qft.generate(10);
    let clean =
        crate::engine::Simulator::new(SimConfig::scaled_paper(10).with_version(Version::QGpu))
            .run(&c);
    let tokened = crate::engine::Simulator::new(SimConfig {
        cancel: Some(CancelToken::new()),
        ..SimConfig::scaled_paper(10).with_version(Version::QGpu)
    })
    .run(&c);
    super::assert_bitwise_eq(
        clean.state.as_ref().expect("collected"),
        tokened.state.as_ref().expect("collected"),
    );
}

/// Static mode replays runs of chunk-local updates in one flush, far
/// longer than a gate; the flush polls the token between chunk visits.
/// Every per-op poll of this run passes before the watcher — released by
/// the flush announcing itself on the recorder — trips the token, so
/// only the flush can have produced the abort, and it names the first
/// op whose update had not landed.
#[test]
fn cancel_during_a_deferred_run_lands_between_chunk_visits() {
    use std::sync::atomic::{AtomicBool, Ordering};

    // Eight grouping ops spread amplitude over all 256 chunks; the 12 004
    // chunk-local ops after them (from index 8) are one pending run.
    let mut c = qgpu_circuit::Circuit::new(12);
    for q in (0..12).rev() {
        c.h(q);
    }
    for i in 0..4000 {
        c.h(i % 3).t((i + 1) % 3).cx(i % 3, (i + 2) % 3);
    }
    let token = CancelToken::new();
    let cfg = SimConfig {
        cancel: Some(token.clone()),
        ..SimConfig::scaled_paper(12).with_version(Version::Baseline)
    };
    let rec = Arc::new(Recorder::new().with_flight(256));
    let finished = Arc::new(AtomicBool::new(false));
    let watcher = {
        let (rec, finished) = (Arc::clone(&rec), Arc::clone(&finished));
        std::thread::spawn(move || {
            let flushing = |rec: &Recorder| {
                let snap = rec.registry().snapshot();
                let seen = snap.histograms_named("update.local.ops").count();
                seen > 0
            };
            while !flushing(&rec) && !finished.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            token.cancel()
        })
    };
    let outcome = pipeline::run(&c, &cfg, Some(&rec), None);
    finished.store(true, Ordering::Release);
    assert!(
        watcher.join().expect("watcher"),
        "the watcher's cancel tripped the token"
    );
    let err = outcome.expect_err("a flush of seconds outlasts the watcher's reaction");
    assert!(
        matches!(err, SimError::JobAborted { op: 8 }),
        "aborted inside the flush, at its first pending op: {err}"
    );
    assert!(rec.flight_events().iter().any(|e| e.kind == "abort"));
    let snap = rec.registry().snapshot();
    let gates: u64 = snap
        .histograms_named("gate.ns")
        .map(|e| e.value.count)
        .sum();
    assert_eq!(
        gates,
        c.len() as u64 + 1,
        "every op was modeled, then one flush"
    );
}

/// A tripped token stops a large gate within a tile of its tasks. The
/// last op of a layer of Hadamards on 2-amplitude chunks deals tens of
/// tiles of live tasks; a watcher trips the token once that gate has
/// been planned (its chunks join the `chunk.bytes` histogram), and the
/// run aborts inside it: the gate counted as planned, fewer tasks dealt
/// than the uncancelled run deals, that gate never completed.
#[test]
fn cancel_lands_within_a_tile_of_a_large_gate() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let n = 20;
    let mut c = qgpu_circuit::Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    let cfg = SimConfig::scaled_paper(n)
        .with_version(Version::QGpu)
        .fixed_chunk_size()
        .with_chunk_count_log2(n as u32 - 1);
    let tasks = |rec: &Recorder| -> u64 {
        let snap = rec.registry().snapshot();
        snap.counters
            .iter()
            .filter(|e| e.name == "tasks")
            .map(|e| e.value)
            .sum()
    };
    let planned = |rec: &Recorder| -> u64 {
        let snap = rec.registry().snapshot();
        let hists = snap.histograms_named("chunk.bytes");
        hists.map(|e| e.value.count).sum()
    };
    let full = Arc::new(Recorder::new());
    pipeline::run(&c, &cfg, Some(&full), None).expect("uncancelled run");
    let (all_planned, all_tasks) = (planned(&full), tasks(&full));

    let token = CancelToken::new();
    let rec = Arc::new(Recorder::new().with_flight(256));
    let finished = Arc::new(AtomicBool::new(false));
    let watcher = {
        let (rec, finished, token) = (Arc::clone(&rec), Arc::clone(&finished), token.clone());
        std::thread::spawn(move || {
            while planned(&rec) < all_planned && !finished.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            token.cancel()
        })
    };
    let cfg = SimConfig {
        cancel: Some(token),
        ..cfg
    };
    let outcome = pipeline::run(&c, &cfg, Some(&rec), None);
    finished.store(true, Ordering::Release);
    assert!(
        watcher.join().expect("watcher"),
        "the watcher tripped the token"
    );
    let err = outcome.expect_err("the last gate's tiles outlast the watcher's reaction");
    assert!(
        matches!(err, SimError::JobAborted { op } if op == n - 1),
        "aborted inside the last op: {err}"
    );
    let snap = rec.registry().snapshot();
    assert_eq!(snap.counter_total("cancel.aborts"), 1);
    assert_eq!(planned(&rec), all_planned, "the last gate was planned");
    let dealt = tasks(&rec);
    assert!(
        dealt < all_tasks,
        "the abort cut the last gate short: {dealt} of {all_tasks} tasks dealt"
    );
    let gates: u64 = snap
        .histograms_named("gate.ns")
        .map(|e| e.value.count)
        .sum();
    assert_eq!(
        gates,
        n as u64 - 1,
        "every gate but the cancelled one completed"
    );
}

/// A batch of chunk-local ops is a gate like any other: a token tripped
/// once the batch is planned stops it between its phases, between chunk
/// visits of its update or between tiles, and the abort names the batch's
/// first op. The batch here is the run's last four ops (no reorder pass
/// moves them), over 2^19 live chunks: 128 tiles.
#[test]
fn cancel_lands_inside_a_batch() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let n = 20;
    let mut c = qgpu_circuit::Circuit::new(n);
    for q in 1..n {
        c.h(q);
    }
    c.h(0).t(0).h(0).t(0);
    let cfg = SimConfig::scaled_paper(n)
        .with_version(Version::Pruning)
        .fixed_chunk_size()
        .with_chunk_count_log2(n as u32 - 1)
        .with_gate_batching();
    let tasks = |rec: &Recorder| -> u64 {
        let snap = rec.registry().snapshot();
        snap.counters
            .iter()
            .filter(|e| e.name == "tasks")
            .map(|e| e.value)
            .sum()
    };
    let planned = |rec: &Recorder| -> u64 {
        let snap = rec.registry().snapshot();
        let hists = snap.histograms_named("chunk.bytes");
        hists.map(|e| e.value.count).sum()
    };
    let full = Arc::new(Recorder::new());
    pipeline::run(&c, &cfg, Some(&full), None).expect("uncancelled run");
    let (all_planned, all_tasks) = (planned(&full), tasks(&full));

    let token = CancelToken::new();
    let rec = Arc::new(Recorder::new().with_flight(256));
    let finished = Arc::new(AtomicBool::new(false));
    let watcher = {
        let (rec, finished, token) = (Arc::clone(&rec), Arc::clone(&finished), token.clone());
        std::thread::spawn(move || {
            while planned(&rec) < all_planned && !finished.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            token.cancel()
        })
    };
    let cfg = SimConfig {
        cancel: Some(token),
        ..cfg
    };
    let outcome = pipeline::run(&c, &cfg, Some(&rec), None);
    finished.store(true, Ordering::Release);
    assert!(
        watcher.join().expect("watcher"),
        "the watcher tripped the token"
    );
    let err = outcome.expect_err("the batch's update and tiles outlast the watcher's reaction");
    let first = n - 1;
    assert!(
        matches!(err, SimError::JobAborted { op } if op == first),
        "aborted inside the batch, at its first op {first}: {err}"
    );
    let snap = rec.registry().snapshot();
    assert_eq!(snap.counter_total("cancel.aborts"), 1);
    assert_eq!(planned(&rec), all_planned, "the batch was planned");
    let dealt = tasks(&rec);
    assert!(
        dealt < all_tasks,
        "the abort cut the batch short: {dealt} of {all_tasks} tasks dealt"
    );
    let gates: u64 = snap
        .histograms_named("gate.ns")
        .map(|e| e.value.count)
        .sum();
    assert_eq!(gates, first as u64, "every gate before the batch completed");
}
