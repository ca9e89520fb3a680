//! The discrete-event timeline: engines, spans, and busy accounting.

use serde::{Deserialize, Serialize};

use crate::report::Counter;

/// An execution engine that serializes its own tasks but runs concurrently
/// with every other engine — exactly the CUDA execution model the paper
/// exploits (compute overlapping both copy directions, §IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Engine {
    /// The host CPU (all cores together; the functional engines already
    /// model intra-host parallelism through their effective bandwidth).
    Host,
    /// GPU `i`'s compute queue.
    GpuCompute(usize),
    /// GPU `i`'s host-to-device copy engine.
    H2d(usize),
    /// GPU `i`'s device-to-host copy engine.
    D2h(usize),
    /// The host's outbound DMA staging path, shared by every GPU's H2D
    /// traffic: aggregate outbound bandwidth is bounded by host DRAM.
    HostDmaOut,
    /// The host's inbound DMA staging path, shared by every GPU's D2H
    /// traffic.
    HostDmaIn,
}

/// What a task is doing — used for the per-category breakdowns of the
/// paper's Figures 2, 4 and 14.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TaskKind {
    /// State update on the host.
    HostUpdate,
    /// State update kernel on a GPU.
    Kernel,
    /// Host-to-device chunk copy.
    H2dCopy,
    /// Device-to-host chunk copy.
    D2hCopy,
    /// GFC compression kernel.
    Compress,
    /// GFC decompression kernel.
    Decompress,
    /// Scheduler/driver synchronization overhead.
    Sync,
    /// Host-DRAM DMA staging reservation (rate limiting only; the bytes
    /// are counted by the matching copy task).
    HostDma,
    /// Retry backoff wait after an integrity failure (the resilient
    /// pipeline's exponential-backoff pauses; bytes = 0).
    Backoff,
}

impl Engine {
    /// Dense table slot: the three host-side engines first, then three
    /// per GPU.
    fn slot(self) -> usize {
        match self {
            Engine::Host => 0,
            Engine::HostDmaOut => 1,
            Engine::HostDmaIn => 2,
            Engine::GpuCompute(g) => 3 + 3 * g,
            Engine::H2d(g) => 4 + 3 * g,
            Engine::D2h(g) => 5 + 3 * g,
        }
    }
}

impl TaskKind {
    /// All task kinds (for report iteration).
    pub const ALL: [TaskKind; 9] = [
        TaskKind::HostUpdate,
        TaskKind::Kernel,
        TaskKind::H2dCopy,
        TaskKind::D2hCopy,
        TaskKind::Compress,
        TaskKind::Decompress,
        TaskKind::Sync,
        TaskKind::HostDma,
        TaskKind::Backoff,
    ];
}

/// A scheduled interval on an engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Start time in seconds.
    pub start: f64,
    /// End time in seconds.
    pub end: f64,
}

impl Span {
    /// Span duration.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// One recorded event (only kept when tracing is enabled).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Engine the task ran on.
    pub engine: Engine,
    /// Category.
    pub kind: TaskKind,
    /// Interval.
    pub span: Span,
    /// Bytes involved (0 for sync tasks).
    pub bytes: u64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
struct EngineState {
    available: f64,
    busy: f64,
}

/// Everything a scheduling call reads or writes: the engines, the
/// per-kind sums and the trace. A [`Timeline`] holds it; [`Lanes`] take
/// it by value for a run of calls.
#[derive(Debug, Clone, Default)]
struct Sched {
    /// Indexed by [`Engine::slot`], grown on demand.
    engines: Vec<EngineState>,
    /// Indexed by `TaskKind as usize`.
    kind_busy: [f64; TaskKind::ALL.len()],
    kind_bytes: [u64; TaskKind::ALL.len()],
    trace: Option<Vec<TraceEvent>>,
    trace_cap: usize,
}

impl Sched {
    /// The one scheduling body ([`Timeline::schedule`], [`Lanes::schedule`]).
    #[inline]
    fn schedule(
        &mut self,
        engine: Engine,
        ready: f64,
        duration: f64,
        kind: TaskKind,
        bytes: u64,
    ) -> Span {
        assert!(
            duration.is_finite() && duration >= 0.0,
            "bad task duration {duration}"
        );
        let slot = engine.slot();
        if slot >= self.engines.len() {
            self.grow(slot);
        }
        let state = &mut self.engines[slot];
        let start = state.available.max(ready);
        let end = start + duration;
        state.available = end;
        state.busy += duration;
        self.kind_busy[kind as usize] += duration;
        self.kind_bytes[kind as usize] += bytes;
        let span = Span { start, end };
        if self.trace.is_some() {
            self.record(engine, kind, span, bytes);
        }
        span
    }

    #[cold]
    #[inline(never)]
    fn grow(&mut self, slot: usize) {
        self.engines.resize(slot + 1, EngineState::default());
    }

    /// Appends the event to the trace, up to its cap.
    #[inline(never)]
    fn record(&mut self, engine: Engine, kind: TaskKind, span: Span, bytes: u64) {
        if let Some(trace) = self.trace.as_mut().filter(|t| t.len() < self.trace_cap) {
            trace.push(TraceEvent {
                engine,
                kind,
                span,
                bytes,
            });
        }
    }

    #[inline]
    fn engine_available(&self, engine: Engine) -> f64 {
        self.engines.get(engine.slot()).map_or(0.0, |s| s.available)
    }

    /// The end of the last task: an engine's tasks end in order, so the
    /// latest end is the latest engine's `available` — the same value a
    /// running maximum over every end would hold.
    fn makespan(&self) -> f64 {
        self.engines.iter().fold(0.0, |m, s| m.max(s.available))
    }
}

/// A deterministic discrete-event timeline.
///
/// Tasks are scheduled in program order: each engine starts a task at
/// `max(engine_available, ready)`; dependencies are expressed by passing a
/// predecessor's [`Span::end`] as `ready`.
///
/// # Examples
///
/// ```
/// use qgpu_device::timeline::{Engine, TaskKind, Timeline};
///
/// let mut tl = Timeline::new();
/// let a = tl.schedule(Engine::Host, 0.0, 2.0, TaskKind::HostUpdate, 100);
/// // Independent engine: overlaps with the host task.
/// let b = tl.schedule(Engine::H2d(0), 0.0, 1.5, TaskKind::H2dCopy, 100);
/// assert_eq!(a.start, 0.0);
/// assert_eq!(b.start, 0.0);
/// assert_eq!(tl.makespan(), 2.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    sched: Sched,
    // Engine-level accounting that scheduling alone cannot express; the
    // engines feed these so `ExecutionReport::from_timeline` is complete
    // without caller-side patching.
    counts: [u64; Counter::ALL.len()],
    flops_gpu: f64,
    peak_resident_bytes: u64,
    measure_time: f64,
    sample_time: f64,
}

impl Timeline {
    /// Creates an empty timeline with tracing disabled.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Creates a timeline that records up to `cap` trace events
    /// (for the paper's Figure 6 timeline plots).
    pub fn with_trace(cap: usize) -> Self {
        Timeline {
            sched: Sched {
                trace: Some(Vec::new()),
                trace_cap: cap,
                ..Sched::default()
            },
            ..Timeline::default()
        }
    }

    /// Schedules a task and returns its span.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is negative or not finite.
    pub fn schedule(
        &mut self,
        engine: Engine,
        ready: f64,
        duration: f64,
        kind: TaskKind,
        bytes: u64,
    ) -> Span {
        self.sched.schedule(engine, ready, duration, kind, bytes)
    }

    /// Borrows the timeline for a run of scheduling calls (see [`Lanes`]).
    pub fn lanes(&mut self) -> Lanes<'_> {
        Lanes {
            sched: std::mem::take(&mut self.sched),
            tl: self,
        }
    }

    /// The time the engine becomes free (0 if never used).
    pub fn engine_available(&self, engine: Engine) -> f64 {
        self.sched.engine_available(engine)
    }

    /// Total busy time of an engine.
    pub fn engine_busy(&self, engine: Engine) -> f64 {
        self.sched
            .engines
            .get(engine.slot())
            .map_or(0.0, |s| s.busy)
    }

    /// Total busy time across all engines of one task category.
    pub fn kind_busy(&self, kind: TaskKind) -> f64 {
        self.sched.kind_busy[kind as usize]
    }

    /// Total bytes accounted to one task category.
    pub fn kind_bytes(&self, kind: TaskKind) -> u64 {
        self.sched.kind_bytes[kind as usize]
    }

    /// End of the last scheduled task — the modeled wall-clock time.
    pub fn makespan(&self) -> f64 {
        self.sched.makespan()
    }

    /// Recorded events (empty when tracing is disabled).
    pub fn trace(&self) -> &[TraceEvent] {
        self.sched.trace.as_deref().unwrap_or(&[])
    }

    /// Adds `n` to an event count.
    #[inline]
    pub fn count(&mut self, c: Counter, n: u64) {
        self.counts[c as usize] += n;
    }

    /// An event count so far.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counts[c as usize]
    }

    /// Credits floating-point operations to the GPUs.
    pub fn add_flops(&mut self, flops: f64) {
        self.flops_gpu += flops;
    }

    /// GPU floating-point operations credited so far.
    pub fn flops_gpu(&self) -> f64 {
        self.flops_gpu
    }

    /// Records an observed per-device chunk residency; the report keeps
    /// the peak for budget verification.
    pub fn observe_resident_bytes(&mut self, bytes: u64) {
        self.peak_resident_bytes = self.peak_resident_bytes.max(bytes);
    }

    /// Peak observed per-device chunk residency in bytes.
    pub fn peak_resident_bytes(&self) -> u64 {
        self.peak_resident_bytes
    }

    /// Attributes `s` seconds of already-scheduled host time to the
    /// mid-circuit collapse passes (reduce + renormalize). A side
    /// accumulator, not a new task kind: the spans themselves stay
    /// `HostUpdate`, so trace fingerprints are unchanged.
    pub fn add_measure_time(&mut self, s: f64) {
        self.measure_time += s;
    }

    /// Attributes `s` seconds of already-scheduled host time to the
    /// end-of-circuit readout sampling sweep (see [`Timeline::add_measure_time`]).
    pub fn add_sample_time(&mut self, s: f64) {
        self.sample_time += s;
    }

    /// Host seconds attributed to mid-circuit collapse passes.
    pub fn measure_time(&self) -> f64 {
        self.measure_time
    }

    /// Host seconds attributed to readout sampling.
    pub fn sample_time(&self) -> f64 {
        self.sample_time
    }
}

/// A [`Timeline`] borrowed for a run of scheduling calls — the streaming
/// pipeline holds one per tile of chunk tasks.
///
/// The engines, the per-kind sums and the trace move into the lanes, so a loop of [`Lanes::schedule`] calls works on state it
/// owns rather than on state behind the timeline's pointer; dropping the
/// lanes moves it back. A call does exactly what [`Timeline::schedule`]
/// does — the same arithmetic on the same values in the same order — so
/// a run is bit for bit the same through either. Counts, flops and
/// residency go straight to the timeline.
///
/// # Examples
///
/// ```
/// use qgpu_device::timeline::{Engine, TaskKind, Timeline};
///
/// let (mut a, mut b) = (Timeline::new(), Timeline::new());
/// let copy = a.schedule(Engine::H2d(0), 0.0, 1.0, TaskKind::H2dCopy, 64);
/// a.schedule(Engine::GpuCompute(0), copy.end, 0.5, TaskKind::Kernel, 64);
/// {
///     let mut lanes = b.lanes();
///     let copy = lanes.schedule(Engine::H2d(0), 0.0, 1.0, TaskKind::H2dCopy, 64);
///     lanes.schedule(Engine::GpuCompute(0), copy.end, 0.5, TaskKind::Kernel, 64);
/// }
/// assert_eq!(a.makespan(), b.makespan());
/// assert_eq!(a.kind_bytes(TaskKind::Kernel), b.kind_bytes(TaskKind::Kernel));
/// ```
pub struct Lanes<'t> {
    sched: Sched,
    tl: &'t mut Timeline,
}

impl Lanes<'_> {
    /// [`Timeline::schedule`] on the lanes.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is negative or not finite.
    #[inline]
    pub fn schedule(
        &mut self,
        engine: Engine,
        ready: f64,
        duration: f64,
        kind: TaskKind,
        bytes: u64,
    ) -> Span {
        self.sched.schedule(engine, ready, duration, kind, bytes)
    }

    /// [`Timeline::engine_available`] on the lanes.
    #[inline]
    pub fn engine_available(&self, engine: Engine) -> f64 {
        self.sched.engine_available(engine)
    }

    /// [`Timeline::count`].
    #[inline]
    pub fn count(&mut self, c: Counter, n: u64) {
        self.tl.count(c, n);
    }

    /// [`Timeline::add_flops`].
    #[inline]
    pub fn add_flops(&mut self, flops: f64) {
        self.tl.add_flops(flops);
    }

    /// [`Timeline::observe_resident_bytes`].
    #[inline]
    pub fn observe_resident_bytes(&mut self, bytes: u64) {
        self.tl.observe_resident_bytes(bytes);
    }
}

impl Drop for Lanes<'_> {
    fn drop(&mut self) {
        self.tl.sched = std::mem::take(&mut self.sched);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;
    use crate::report::ExecutionReport;

    #[test]
    fn serial_on_one_engine() {
        let mut tl = Timeline::new();
        let a = tl.schedule(Engine::Host, 0.0, 1.0, TaskKind::HostUpdate, 10);
        let b = tl.schedule(Engine::Host, 0.0, 2.0, TaskKind::HostUpdate, 20);
        assert_eq!(a.end, 1.0);
        assert_eq!(b.start, 1.0);
        assert_eq!(tl.makespan(), 3.0);
        assert_eq!(tl.engine_busy(Engine::Host), 3.0);
        assert_eq!(tl.kind_bytes(TaskKind::HostUpdate), 30);
    }

    #[test]
    fn parallel_engines_overlap() {
        let mut tl = Timeline::new();
        tl.schedule(Engine::H2d(0), 0.0, 5.0, TaskKind::H2dCopy, 0);
        tl.schedule(Engine::D2h(0), 0.0, 5.0, TaskKind::D2hCopy, 0);
        tl.schedule(Engine::GpuCompute(0), 0.0, 5.0, TaskKind::Kernel, 0);
        assert_eq!(tl.makespan(), 5.0);
    }

    #[test]
    fn dependency_delays_start() {
        let mut tl = Timeline::new();
        let copy = tl.schedule(Engine::H2d(0), 0.0, 3.0, TaskKind::H2dCopy, 0);
        let kernel = tl.schedule(Engine::GpuCompute(0), copy.end, 1.0, TaskKind::Kernel, 0);
        assert_eq!(kernel.start, 3.0);
        assert_eq!(tl.makespan(), 4.0);
    }

    #[test]
    fn ready_in_the_past_starts_at_available() {
        let mut tl = Timeline::new();
        tl.schedule(Engine::Host, 0.0, 4.0, TaskKind::HostUpdate, 0);
        let s = tl.schedule(Engine::Host, 1.0, 1.0, TaskKind::HostUpdate, 0);
        assert_eq!(s.start, 4.0);
    }

    #[test]
    fn pipeline_throughput() {
        // Classic 3-stage pipeline: with N items of equal stage cost t the
        // makespan approaches N*t, not 3*N*t.
        let mut tl = Timeline::new();
        let t = 1.0;
        let n = 10;
        let mut prev_kernel_end = 0.0;
        for _ in 0..n {
            let h2d = tl.schedule(Engine::H2d(0), 0.0, t, TaskKind::H2dCopy, 0);
            let k = tl.schedule(
                Engine::GpuCompute(0),
                h2d.end.max(prev_kernel_end),
                t,
                TaskKind::Kernel,
                0,
            );
            prev_kernel_end = k.end;
            tl.schedule(Engine::D2h(0), k.end, t, TaskKind::D2hCopy, 0);
        }
        let makespan = tl.makespan();
        assert!(
            makespan <= (n as f64 + 2.0) * t + 1e-9,
            "pipeline should stream: {makespan}"
        );
    }

    #[test]
    fn trace_recording_and_cap() {
        let mut tl = Timeline::with_trace(2);
        for _ in 0..5 {
            tl.schedule(Engine::Host, 0.0, 1.0, TaskKind::HostUpdate, 0);
        }
        assert_eq!(tl.trace().len(), 2);
        assert_eq!(tl.trace()[1].span.start, 1.0);
    }

    #[test]
    fn multi_gpu_engines_are_independent() {
        let mut tl = Timeline::new();
        tl.schedule(Engine::GpuCompute(0), 0.0, 2.0, TaskKind::Kernel, 0);
        tl.schedule(Engine::GpuCompute(1), 0.0, 2.0, TaskKind::Kernel, 0);
        assert_eq!(tl.makespan(), 2.0);
        assert_eq!(tl.engine_busy(Engine::GpuCompute(1)), 2.0);
    }

    #[test]
    #[should_panic(expected = "bad task duration")]
    fn negative_duration_panics() {
        let mut tl = Timeline::new();
        tl.schedule(Engine::Host, 0.0, -1.0, TaskKind::Sync, 0);
    }

    /// The ordered-map timeline the slot tables replaced, kept as the
    /// reference model: same arithmetic, same accumulation order.
    #[derive(Default)]
    struct MapTimeline {
        engines: BTreeMap<Engine, (f64, f64)>, // (available, busy)
        kind_busy: BTreeMap<TaskKind, f64>,
        kind_bytes: BTreeMap<TaskKind, u64>,
        makespan: f64,
    }

    impl MapTimeline {
        fn schedule(&mut self, e: Engine, ready: f64, d: f64, k: TaskKind, bytes: u64) -> Span {
            let state = self.engines.entry(e).or_default();
            let start = state.0.max(ready);
            let end = start + d;
            state.0 = end;
            state.1 += d;
            *self.kind_busy.entry(k).or_default() += d;
            *self.kind_bytes.entry(k).or_default() += bytes;
            self.makespan = self.makespan.max(end);
            Span { start, end }
        }

        fn busy(&self, e: Engine) -> f64 {
            self.engines.get(&e).map_or(0.0, |s| s.1)
        }

        fn kind_busy(&self, k: TaskKind) -> f64 {
            self.kind_busy.get(&k).copied().unwrap_or(0.0)
        }

        fn kind_bytes(&self, k: TaskKind) -> u64 {
            self.kind_bytes.get(&k).copied().unwrap_or(0)
        }
    }

    /// Engine `code` on a fleet of `num_gpus` devices.
    fn engine_of(code: u32, num_gpus: usize) -> Engine {
        let g = (code / 6) as usize % num_gpus;
        match code % 6 {
            0 => Engine::Host,
            1 => Engine::GpuCompute(g),
            2 => Engine::H2d(g),
            3 => Engine::D2h(g),
            4 => Engine::HostDmaOut,
            _ => Engine::HostDmaIn,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One sequence three ways: `Timeline::schedule`, the ordered-map
        /// model, and lanes taken a tile at a time (tiles of any length,
        /// the last one cut mid-sequence), with engine reads and retry
        /// backoffs between tasks and the trace on (its cap hit anywhere,
        /// mid-tile included) or off.
        #[test]
        fn slot_tables_match_the_ordered_map_model(
            tasks in proptest::collection::vec(
                (any::<u32>(), any::<u32>(), 0.0f64..3.0, 0.0f64..2.0, any::<u32>()),
                0..200,
            ),
            num_gpus in 1usize..4,
            tile in 1usize..48,
            trace in 0usize..600,
        ) {
            // Trace off above 400, else capped at `trace` events.
            let new = || if trace < 400 { Timeline::with_trace(trace) } else { Timeline::new() };
            let (mut tl, mut model, mut laned) = (new(), MapTimeline::default(), new());
            let (mut last_end, mut scheduled) = (0.0, 0usize);
            for tile in tasks.chunks(tile) {
                let mut lanes = laned.lanes();
                for &(e, k, ready, d, bytes) in tile {
                    let engine = engine_of(e, num_gpus);
                    let kind = TaskKind::ALL[k as usize % TaskKind::ALL.len()];
                    prop_assert_eq!(
                        lanes.engine_available(engine).to_bits(),
                        tl.engine_available(engine).to_bits()
                    );
                    // Half the tasks chain on the previous one, like the
                    // pipeline's dependent copies and kernels.
                    let ready = if e & 64 == 0 { ready } else { last_end };
                    let got = tl.schedule(engine, ready, d, kind, u64::from(bytes));
                    let want = model.schedule(engine, ready, d, kind, u64::from(bytes));
                    let laned_span = lanes.schedule(engine, ready, d, kind, u64::from(bytes));
                    prop_assert_eq!(got.start.to_bits(), want.start.to_bits());
                    prop_assert_eq!(got.end.to_bits(), want.end.to_bits());
                    prop_assert_eq!(laned_span.start.to_bits(), got.start.to_bits());
                    prop_assert_eq!(laned_span.end.to_bits(), got.end.to_bits());
                    last_end = got.end;
                    scheduled += 1;
                    if bytes % 4 == 0 {
                        // A failed transfer's retry wait on the same engine.
                        let b = d / 3.0;
                        let got = tl.schedule(engine, last_end, b, TaskKind::Backoff, 0);
                        model.schedule(engine, last_end, b, TaskKind::Backoff, 0);
                        let laned_span = lanes.schedule(engine, last_end, b, TaskKind::Backoff, 0);
                        prop_assert_eq!(laned_span.end.to_bits(), got.end.to_bits());
                        last_end = got.end;
                        scheduled += 1;
                    }
                }
            }
            prop_assert_eq!(tl.makespan().to_bits(), model.makespan.to_bits());
            prop_assert_eq!(laned.makespan().to_bits(), tl.makespan().to_bits());
            for code in 0..18 {
                let e = engine_of(code, num_gpus);
                prop_assert_eq!(tl.engine_busy(e).to_bits(), model.busy(e).to_bits());
                let avail = model.engines.get(&e).map_or(0.0, |s| s.0);
                prop_assert_eq!(tl.engine_available(e).to_bits(), avail.to_bits());
                prop_assert_eq!(laned.engine_busy(e).to_bits(), tl.engine_busy(e).to_bits());
                prop_assert_eq!(laned.engine_available(e).to_bits(), avail.to_bits());
            }
            for k in TaskKind::ALL {
                prop_assert_eq!(tl.kind_busy(k).to_bits(), model.kind_busy(k).to_bits());
                prop_assert_eq!(tl.kind_bytes(k), model.kind_bytes(k));
                prop_assert_eq!(laned.kind_busy(k).to_bits(), tl.kind_busy(k).to_bits());
                prop_assert_eq!(laned.kind_bytes(k), tl.kind_bytes(k));
            }
            let traced = if trace < 400 { trace.min(scheduled) } else { 0 };
            prop_assert_eq!(laned.trace().len(), traced);
            prop_assert_eq!(format!("{:?}", laned.trace()), format!("{:?}", tl.trace()));
            prop_assert_eq!(
                ExecutionReport::from_timeline(&laned, num_gpus).to_json_string(),
                ExecutionReport::from_timeline(&tl, num_gpus).to_json_string()
            );
            // The report, field by field from the model, then as JSON.
            let got = ExecutionReport::from_timeline(&tl, num_gpus);
            let want = ExecutionReport {
                total_time: model.makespan,
                host_time: model.kind_busy(TaskKind::HostUpdate),
                gpu_time: (0..num_gpus).fold(0.0, |a, g| a + model.busy(Engine::GpuCompute(g))),
                transfer_time: (0..num_gpus).fold(0.0, |a, g| {
                    a + (model.busy(Engine::H2d(g)) + model.busy(Engine::D2h(g)))
                }),
                sync_time: model.kind_busy(TaskKind::Sync),
                compress_time: model.kind_busy(TaskKind::Compress),
                decompress_time: model.kind_busy(TaskKind::Decompress),
                backoff_time: model.kind_busy(TaskKind::Backoff),
                bytes_h2d: model.kind_bytes(TaskKind::H2dCopy),
                bytes_d2h: model.kind_bytes(TaskKind::D2hCopy),
                bytes_host: model.kind_bytes(TaskKind::HostUpdate),
                bytes_gpu: model.kind_bytes(TaskKind::Kernel),
                ..ExecutionReport::from_timeline(&Timeline::new(), num_gpus)
            };
            prop_assert_eq!(got.to_json_string(), want.to_json_string());
        }
    }
}
