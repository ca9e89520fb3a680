//! Wall-clock spans: the measured counterpart of the modeled timeline.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::flightrec::{FlightEvent, FlightRecorder};
use crate::json::Json;
use crate::registry::Registry;

/// Default bound on the number of retained spans (see
/// [`Recorder::with_span_cap`]).
pub const DEFAULT_SPAN_CAP: usize = 1 << 20;

/// What a measured span was doing — the axis the drift report aligns
/// against the modeled [`qgpu_device::TaskKind`] categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Stage {
    /// Functional amplitude update (the host stand-in for both the
    /// modeled host update and the modeled GPU kernel).
    Update,
    /// GFC compression.
    Compress,
    /// GFC decompression.
    Decompress,
    /// Scheduling, planning, reordering, fusion — orchestration work the
    /// model charges as sync/driver overhead.
    Plan,
    /// Mid-circuit measurement/reset collapse (marginal reduction plus
    /// elementwise renormalization).
    Measure,
    /// End-of-circuit seeded shot sampling.
    Sample,
    /// Anything else.
    Other,
}

impl Stage {
    /// All stages (for report iteration).
    pub const ALL: [Stage; 7] = [
        Stage::Update,
        Stage::Compress,
        Stage::Decompress,
        Stage::Plan,
        Stage::Measure,
        Stage::Sample,
        Stage::Other,
    ];

    /// Stable lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Update => "update",
            Stage::Compress => "compress",
            Stage::Decompress => "decompress",
            Stage::Plan => "plan",
            Stage::Measure => "measure",
            Stage::Sample => "sample",
            Stage::Other => "other",
        }
    }
}

/// Which measured thread a span belongs to: the engine's orchestrator
/// loop, or one of the [`ChunkExecutor`](../../qgpu_statevec/executor/struct.ChunkExecutor.html)
/// workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Track {
    /// The engine's single-threaded orchestration loop. Only `Main`
    /// spans enter per-phase totals (worker spans overlap them).
    Main,
    /// Worker `i` of the chunk-executor pool.
    Worker(usize),
}

/// One measured wall-clock interval, in microseconds since the
/// recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WallSpan {
    /// Thread the span ran on.
    pub track: Track,
    /// Phase category.
    pub stage: Stage,
    /// Site label (e.g. `"update.local"`, `"gfc.compress"`).
    pub name: &'static str,
    /// Start, µs since the recorder was created.
    pub start_us: f64,
    /// Duration in µs.
    pub dur_us: f64,
}

/// A thread-safe span and metric sink.
///
/// A `Recorder` is created per observed run and handed down the stack as
/// `Option<&Recorder>` (or `Option<Arc<Recorder>>` across the executor's
/// worker threads). All methods are `&self`; recording takes one clock
/// read per span edge and one short mutex hold. Metrics have one store,
/// the [`Registry`]: [`Recorder::add`] and the `observe*` methods write
/// its unlabeled series.
///
/// The retained span list is bounded ([`DEFAULT_SPAN_CAP`] by default):
/// past the cap, spans still flow into the exact per-stage totals
/// ([`Recorder::stage_total_s`]) but are dropped from the list, each one
/// counted into the `spans.dropped` counter. This keeps memory and trace
/// size bounded on per-chunk hot paths without silently losing time
/// accounting.
pub struct Recorder {
    t0: Option<Instant>,
    span_cap: usize,
    /// When false (a flight-only recorder), [`span_opt`] short-circuits:
    /// no clock reads and no span storage, only the registry and the
    /// flight ring stay live.
    spans_enabled: bool,
    spans: Mutex<Vec<WallSpan>>,
    warned_dropped: AtomicBool,
    /// Exact Main-track per-stage totals in µs, indexed by
    /// [`Stage::ALL`] order — kept even for spans the cap drops.
    main_totals_us: Mutex<[f64; 7]>,
    registry: Registry,
    flight: Option<FlightRecorder>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            t0: None,
            span_cap: DEFAULT_SPAN_CAP,
            spans_enabled: true,
            spans: Mutex::new(Vec::new()),
            warned_dropped: AtomicBool::new(false),
            main_totals_us: Mutex::new([0.0; 7]),
            registry: Registry::new(),
            flight: None,
        }
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("spans", &self.spans.lock().len())
            .finish_non_exhaustive()
    }
}

impl Recorder {
    /// Creates an empty recorder anchored at the current instant.
    pub fn new() -> Self {
        Recorder {
            t0: Some(Instant::now()),
            ..Recorder::default()
        }
    }

    /// Bounds the retained span list to `cap` entries (totals stay
    /// exact; excess spans count into `spans.dropped`).
    pub fn with_span_cap(mut self, cap: usize) -> Self {
        self.span_cap = cap;
        self
    }

    /// Attaches a flight recorder keeping at most `events` entries.
    pub fn with_flight(mut self, events: usize) -> Self {
        self.flight = Some(FlightRecorder::new(events));
        self
    }

    /// Disables span recording (used for flight-only runs, where the
    /// per-span clock reads would be pure overhead). The registry and
    /// the flight ring stay live.
    pub fn without_spans(mut self) -> Self {
        self.spans_enabled = false;
        self
    }

    /// Whether [`span_opt`] records spans through this recorder.
    pub fn spans_enabled(&self) -> bool {
        self.spans_enabled
    }

    /// The metric store this recorder carries.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Records a flight event when a flight recorder is attached. The
    /// detail closure only runs in that case, so disabled runs pay one
    /// branch and format nothing.
    pub fn flight<F: FnOnce() -> String>(&self, kind: &'static str, detail: F) {
        if let Some(fr) = &self.flight {
            fr.record(self.now_us(), kind, detail());
        }
    }

    /// Whether any fault-class flight event was recorded.
    pub fn flight_triggered(&self) -> bool {
        self.flight.as_ref().is_some_and(FlightRecorder::triggered)
    }

    /// The retained flight events, oldest first (empty when no flight
    /// recorder is attached).
    pub fn flight_events(&self) -> Vec<FlightEvent> {
        self.flight
            .as_ref()
            .map(FlightRecorder::events)
            .unwrap_or_default()
    }

    /// The flight dump document, when a flight recorder is attached.
    pub fn flight_json(&self) -> Option<Json> {
        self.flight.as_ref().map(FlightRecorder::to_json)
    }

    fn now_us(&self) -> f64 {
        self.t0.map_or(0.0, |t0| t0.elapsed().as_secs_f64() * 1e6)
    }

    /// Wall-clock seconds since the recorder was created.
    pub fn elapsed_s(&self) -> f64 {
        self.now_us() / 1e6
    }

    /// Opens a span; it is recorded when the returned guard drops.
    pub fn span(&self, track: Track, stage: Stage, name: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            rec: self,
            track,
            stage,
            name,
            start_us: self.now_us(),
        }
    }

    /// Adds `n` to the unlabeled counter `name`.
    pub fn add(&self, name: &'static str, n: u64) {
        self.registry.add(name, &[], n);
    }

    /// Records one value into the unlabeled histogram `name`.
    pub fn observe(&self, name: &'static str, value: u64) {
        self.registry.observe(name, &[], value);
    }

    /// [`Registry::observe_n`] on the unlabeled histogram `name`.
    pub fn observe_n(&self, name: &'static str, value: u64, n: u64) {
        self.registry.observe_n(name, &[], value, n);
    }

    /// [`Registry::observe_all`] on the unlabeled histogram `name`.
    pub fn observe_all(&self, name: &'static str, values: impl IntoIterator<Item = u64>) {
        self.registry.observe_all(name, &[], values);
    }

    fn push(&self, span: WallSpan) {
        if span.track == Track::Main {
            let idx = Stage::ALL
                .iter()
                .position(|&s| s == span.stage)
                .expect("stage in Stage::ALL");
            self.main_totals_us.lock()[idx] += span.dur_us;
        }
        let mut spans = self.spans.lock();
        if spans.len() < self.span_cap {
            spans.push(span);
            return;
        }
        drop(spans);
        self.add("spans.dropped", 1);
        if !self.warned_dropped.swap(true, Ordering::Relaxed) {
            // Warn exactly once per recorder: the trace is truncated from
            // here on (totals stay exact).
            eprintln!(
                "[qgpu-obs] span cap ({}) reached; further spans are dropped \
                 from the trace (stage totals stay exact, see the \
                 spans.dropped counter)",
                self.span_cap
            );
        }
    }

    /// A copy of every recorded span, in recording order.
    pub fn spans(&self) -> Vec<WallSpan> {
        self.spans.lock().clone()
    }

    /// Total `Main`-track time spent in a stage, in seconds — exact
    /// even when the span cap dropped spans from the list. Worker
    /// spans are excluded: they overlap the orchestrator span that
    /// dispatched them, and double-counting would inflate phase totals.
    pub fn stage_total_s(&self, stage: Stage) -> f64 {
        let idx = Stage::ALL
            .iter()
            .position(|&s| s == stage)
            .expect("stage in Stage::ALL");
        self.main_totals_us.lock()[idx] / 1e6
    }
}

/// Records its span on drop (RAII, so early returns are covered).
#[must_use = "the span is recorded when the guard drops"]
pub struct SpanGuard<'a> {
    rec: &'a Recorder,
    track: Track,
    stage: Stage,
    name: &'static str,
    start_us: f64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.rec.now_us();
        self.rec.push(WallSpan {
            track: self.track,
            stage: self.stage,
            name: self.name,
            start_us: self.start_us,
            dur_us: end - self.start_us,
        });
    }
}

/// Opens a span only when a recorder is present — the instrumentation
/// idiom for hot paths:
///
/// ```
/// use qgpu_obs::{span_opt, Recorder, Stage, Track};
///
/// fn hot_path(rec: Option<&Recorder>) {
///     let _g = span_opt(rec, Track::Main, Stage::Update, "hot");
///     // ... work ...
/// }
/// hot_path(None); // no clock reads, no allocation
/// let rec = Recorder::new();
/// hot_path(Some(&rec));
/// assert_eq!(rec.spans().len(), 1);
/// ```
pub fn span_opt<'a>(
    rec: Option<&'a Recorder>,
    track: Track,
    stage: Stage,
    name: &'static str,
) -> Option<SpanGuard<'a>> {
    rec.filter(|r| r.spans_enabled)
        .map(|r| r.span(track, stage, name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_on_drop_with_monotonic_times() {
        let rec = Recorder::new();
        {
            let _outer = rec.span(Track::Main, Stage::Update, "outer");
            let _inner = rec.span(Track::Worker(1), Stage::Update, "inner");
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        // Inner guard drops first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[1].name, "outer");
        for s in &spans {
            assert!(s.dur_us >= 0.0 && s.start_us >= 0.0);
        }
    }

    #[test]
    fn counters_accumulate() {
        let rec = Recorder::new();
        rec.add("a", 2);
        rec.add("a", 3);
        rec.add("b", 1);
        let m = rec.registry().snapshot();
        assert_eq!(m.counter("a"), Some(5));
        assert_eq!(m.counter("b"), Some(1));
        assert_eq!(m.counter("missing"), None);
    }

    #[test]
    fn stage_totals_exclude_worker_tracks() {
        let rec = Recorder::new();
        drop(rec.span(Track::Main, Stage::Compress, "c"));
        drop(rec.span(Track::Worker(0), Stage::Compress, "w"));
        let all: f64 = rec.spans().iter().map(|s| s.dur_us).sum();
        assert!(rec.stage_total_s(Stage::Compress) * 1e6 <= all);
        assert_eq!(rec.stage_total_s(Stage::Update), 0.0);
    }

    #[test]
    fn span_cap_bounds_the_list_but_totals_stay_exact() {
        let rec = Recorder::new().with_span_cap(3);
        for _ in 0..5 {
            drop(rec.span(Track::Main, Stage::Update, "u"));
        }
        assert_eq!(rec.spans().len(), 3);
        assert_eq!(rec.registry().snapshot().counter("spans.dropped"), Some(2));
        // The stage total still covers all five spans.
        let listed: f64 = rec.spans().iter().map(|s| s.dur_us).sum();
        assert!(rec.stage_total_s(Stage::Update) * 1e6 >= listed);
    }

    #[test]
    fn bulk_observe_matches_repeated_observe() {
        let rec = Recorder::new();
        rec.observe_n("bytes", 4096, 3);
        rec.observe("bytes", 16);
        let m = rec.registry().snapshot();
        let h = &m.histograms_named("bytes").next().expect("recorded").value;
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 3 * 4096 + 16);
        assert_eq!(h.max, 4096);
        assert_eq!(h.min, 16);
    }

    #[test]
    fn flight_only_recorder_skips_spans_but_keeps_events() {
        let rec = Recorder::new().with_flight(16).without_spans();
        assert!(span_opt(Some(&rec), Track::Main, Stage::Update, "u").is_none());
        assert!(rec.spans().is_empty());
        rec.flight("retry", || "chunk 0 attempt 1".to_string());
        rec.flight("collapse", || "qubit 2 -> 1".to_string());
        assert!(rec.flight_triggered());
        assert_eq!(rec.flight_events().len(), 2);
        assert!(rec.flight_json().is_some());
        // Registry stays live regardless of the span switch.
        rec.registry().add("n", &[], 1);
        assert_eq!(rec.registry().snapshot().counter("n"), Some(1));
    }

    #[test]
    fn flight_detail_closure_is_lazy_without_a_ring() {
        let rec = Recorder::new();
        rec.flight("retry", || unreachable!("no flight ring attached"));
        assert!(!rec.flight_triggered());
        assert!(rec.flight_events().is_empty());
        assert!(rec.flight_json().is_none());
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let rec = std::sync::Arc::new(Recorder::new());
        crossbeam_scope(&rec);
        assert_eq!(rec.spans().len(), 4);

        fn crossbeam_scope(rec: &std::sync::Arc<Recorder>) {
            let handles: Vec<_> = (0..4)
                .map(|w| {
                    let rec = std::sync::Arc::clone(rec);
                    std::thread::spawn(move || {
                        let _g = rec.span(Track::Worker(w), Stage::Update, "worker");
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("worker");
            }
        }
    }
}
