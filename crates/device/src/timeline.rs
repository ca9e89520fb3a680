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
    /// Indexed by [`Engine::slot`], grown on demand.
    engines: Vec<EngineState>,
    /// Indexed by `TaskKind as usize`.
    kind_busy: [f64; TaskKind::ALL.len()],
    kind_bytes: [u64; TaskKind::ALL.len()],
    makespan: f64,
    trace: Option<Vec<TraceEvent>>,
    trace_cap: usize,
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
            trace: Some(Vec::new()),
            trace_cap: cap,
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
        assert!(
            duration.is_finite() && duration >= 0.0,
            "bad task duration {duration}"
        );
        let slot = engine.slot();
        if slot >= self.engines.len() {
            self.engines.resize(slot + 1, EngineState::default());
        }
        let state = &mut self.engines[slot];
        let start = state.available.max(ready);
        let end = start + duration;
        state.available = end;
        state.busy += duration;
        self.kind_busy[kind as usize] += duration;
        self.kind_bytes[kind as usize] += bytes;
        self.makespan = self.makespan.max(end);
        if let Some(trace) = &mut self.trace {
            if trace.len() < self.trace_cap {
                trace.push(TraceEvent {
                    engine,
                    kind,
                    span: Span { start, end },
                    bytes,
                });
            }
        }
        Span { start, end }
    }

    /// The time the engine becomes free (0 if never used).
    pub fn engine_available(&self, engine: Engine) -> f64 {
        self.engines.get(engine.slot()).map_or(0.0, |s| s.available)
    }

    /// Total busy time of an engine.
    pub fn engine_busy(&self, engine: Engine) -> f64 {
        self.engines.get(engine.slot()).map_or(0.0, |s| s.busy)
    }

    /// Total busy time across all engines of one task category.
    pub fn kind_busy(&self, kind: TaskKind) -> f64 {
        self.kind_busy[kind as usize]
    }

    /// Total bytes accounted to one task category.
    pub fn kind_bytes(&self, kind: TaskKind) -> u64 {
        self.kind_bytes[kind as usize]
    }

    /// End of the last scheduled task — the modeled wall-clock time.
    pub fn makespan(&self) -> f64 {
        self.makespan
    }

    /// Recorded events (empty when tracing is disabled).
    pub fn trace(&self) -> &[TraceEvent] {
        self.trace.as_deref().unwrap_or(&[])
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

    fn engine_of(code: u32) -> Engine {
        let g = (code / 6 % 3) as usize;
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

        #[test]
        fn slot_tables_match_the_ordered_map_model(
            tasks in proptest::collection::vec(
                (any::<u32>(), any::<u32>(), 0.0f64..3.0, 0.0f64..2.0, any::<u32>()),
                0..200,
            ),
        ) {
            let num_gpus = 3;
            let (mut tl, mut model) = (Timeline::new(), MapTimeline::default());
            let mut last_end = 0.0;
            for &(e, k, ready, d, bytes) in &tasks {
                let engine = engine_of(e);
                let kind = TaskKind::ALL[k as usize % TaskKind::ALL.len()];
                // Half the tasks chain on the previous one, like the
                // pipeline's dependent copies and kernels.
                let ready = if e & 64 == 0 { ready } else { last_end };
                let got = tl.schedule(engine, ready, d, kind, u64::from(bytes));
                let want = model.schedule(engine, ready, d, kind, u64::from(bytes));
                prop_assert_eq!(got.start.to_bits(), want.start.to_bits());
                prop_assert_eq!(got.end.to_bits(), want.end.to_bits());
                last_end = got.end;
            }
            prop_assert_eq!(tl.makespan().to_bits(), model.makespan.to_bits());
            for code in 0..18 {
                let e = engine_of(code);
                prop_assert_eq!(tl.engine_busy(e).to_bits(), model.busy(e).to_bits());
                let avail = model.engines.get(&e).map_or(0.0, |s| s.0);
                prop_assert_eq!(tl.engine_available(e).to_bits(), avail.to_bits());
            }
            for k in TaskKind::ALL {
                prop_assert_eq!(tl.kind_busy(k).to_bits(), model.kind_busy(k).to_bits());
                prop_assert_eq!(tl.kind_bytes(k), model.kind_bytes(k));
            }
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
