//! Per-stage wall-clock attribution middleware.
//!
//! `ObsMw` laps a single monotonic clock as the streaming driver moves
//! from one round-trip step to the next, crediting each elapsed slice to
//! the named bucket ([`PLAN`] … [`SYNC`], or a driver bucket) of the step
//! that just ran. Per gate the accumulated slices flush into the
//! recorder's labeled [`qgpu_obs::Registry`]:
//!
//! * `stage.time_ns{stage=…,version=…}` — HDR histogram of per-gate time
//!   attributed to each stage, plus the pseudo-stages `setup`,
//!   `measure`, `sample` and `driver` (loop overhead between steps).
//!   Histogram **sums** reconstruct the wall-clock breakdown;
//!   percentiles expose tail gates.
//! * `gate.ns{version=…}` — HDR histogram of whole-gate latency.
//! * `tasks{device=…,version=…}` — chunk tasks executed per device.
//!
//! The task loop is lapped once per gate, not per task — at tens of
//! nanoseconds a task, a clock read each would be the largest cost in
//! the loop. Every [`TASK_SAMPLE`]-th task of a gate (the first
//! included) instead laps after each step, and the loop's wall clock is
//! apportioned across the per-task buckets by those samples' shares.
//!
//! Attribution is exhaustive by construction — every nanosecond between
//! construction and [`ObsMw::finish`] lands in exactly one bucket — so
//! the per-stage sums add up to the measured end-to-end wall clock (the
//! `qgpu-bench` perf harness asserts within 10%). Disabled (no
//! recorder), every method is a no-op with zero clock reads.

use std::time::Instant;

use qgpu_obs::Recorder;

use crate::config::SimConfig;

/// Attribution bucket names, indexed by the constants below: `setup`,
/// one per round-trip step, then the driver-level pseudo-stages.
pub(crate) const BUCKETS: [&str; 13] = [
    "setup",
    "plan",
    "prune",
    "deal",
    "fetch",
    "decompress",
    "kernel",
    "compress",
    "writeback",
    "sync",
    "measure",
    "sample",
    "driver",
];

pub(crate) const SETUP: usize = 0;
pub(crate) const PLAN: usize = 1;
pub(crate) const PRUNE: usize = 2;
pub(crate) const DEAL: usize = 3;
pub(crate) const FETCH: usize = 4;
pub(crate) const DECOMPRESS: usize = 5;
pub(crate) const KERNEL: usize = 6;
pub(crate) const COMPRESS: usize = 7;
pub(crate) const WRITEBACK: usize = 8;
/// End-of-gate work: window occupancy sampling and the per-gate sync.
pub(crate) const SYNC: usize = 9;
pub(crate) const MEASURE: usize = 10;
pub(crate) const SAMPLE: usize = 11;
pub(crate) const DRIVER: usize = 12;

/// One task in this many has its steps timed individually.
const TASK_SAMPLE: u32 = 128;

/// The per-stage wall-clock attribution middleware (see module docs).
pub(crate) struct ObsMw<'a> {
    rec: Option<&'a Recorder>,
    /// The run's `version` label; empty (and unread) without a recorder.
    vlabel: String,
    last: Instant,
    gate_start: Instant,
    acc: [u64; BUCKETS.len()],
    /// Tasks seen in the current gate's loop.
    gate_tasks: u32,
    /// Whether the current task is a sampled one.
    sampling: bool,
    sample_last: Instant,
    lap_ns: u64,
    /// Per-bucket time of this gate's sampled tasks.
    sampled: [u64; BUCKETS.len()],
    device_tasks: Vec<u64>,
}

impl<'a> ObsMw<'a> {
    /// A new middleware lapping from "now". With `rec == None` every
    /// method no-ops (and this constructor's clock read is the last).
    pub(crate) fn new(rec: Option<&'a Recorder>, cfg: &SimConfig, num_gpus: usize) -> Self {
        let now = Instant::now();
        ObsMw {
            rec,
            vlabel: match (rec, &cfg.opts) {
                (None, _) => String::new(),
                (Some(_), Some(f)) => f.label(),
                (Some(_), None) => cfg.version.label().to_string(),
            },
            last: now,
            gate_start: now,
            acc: [0; BUCKETS.len()],
            gate_tasks: 0,
            sampling: false,
            sample_last: now,
            lap_ns: 0,
            sampled: [0; BUCKETS.len()],
            device_tasks: vec![0; num_gpus],
        }
    }

    /// Credits the time since the previous mark to `bucket`.
    #[inline]
    pub(crate) fn mark(&mut self, bucket: usize) {
        if self.rec.is_none() {
            return;
        }
        let now = Instant::now();
        self.acc[bucket] += now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
    }

    /// Starts a gate: loop work since the last mark is driver overhead,
    /// and the whole-gate latency clock starts here.
    #[inline]
    pub(crate) fn gate_begin(&mut self) {
        self.mark(DRIVER);
        self.gate_start = self.last;
    }

    /// Starts one task's round trip, deciding whether it is sampled
    /// (its [`ObsMw::task_lap`]s read the clock) or not (they no-op).
    #[inline]
    pub(crate) fn task_begin(&mut self) {
        if self.rec.is_none() {
            return;
        }
        self.sampling = self.gate_tasks.is_multiple_of(TASK_SAMPLE);
        self.gate_tasks += 1;
        if self.sampling {
            // Two reads back to back: what a lap itself costs, which at
            // this granularity rivals the steps and is subtracted.
            let t0 = Instant::now();
            self.sample_last = Instant::now();
            self.lap_ns = self.sample_last.duration_since(t0).as_nanos() as u64;
        }
    }

    /// Credits a sampled task's time since its previous lap to `bucket`.
    #[inline]
    pub(crate) fn task_lap(&mut self, bucket: usize) {
        if !self.sampling {
            return;
        }
        let now = Instant::now();
        let ns = now.duration_since(self.sample_last).as_nanos() as u64;
        self.sampled[bucket] += ns.saturating_sub(self.lap_ns);
        self.sample_last = now;
    }

    /// Ends one task's round trip: bumps the executing device's counter.
    #[inline]
    pub(crate) fn task_done(&mut self, gpu: usize) {
        if self.rec.is_some() {
            self.device_tasks[gpu] += 1;
        }
    }

    /// Ends a gate's task loop: its wall clock since the previous mark
    /// is split across the per-task stages in proportion to the sampled
    /// tasks' time (the rounding remainder, and a loop that ran no task,
    /// go to `driver`).
    pub(crate) fn tasks_end(&mut self) {
        if self.rec.is_none() {
            return;
        }
        let now = Instant::now();
        let mut left = now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        let total: u128 = self.sampled.iter().map(|&ns| u128::from(ns)).sum();
        let wall = u128::from(left);
        for (acc, ns) in self.acc.iter_mut().zip(&mut self.sampled) {
            let share = (wall * u128::from(*ns)).checked_div(total).unwrap_or(0) as u64;
            *acc += share;
            left -= share;
            *ns = 0;
        }
        self.acc[DRIVER] += left;
        self.gate_tasks = 0;
    }

    /// Ends a gate: flushes the accumulated per-stage slices into the
    /// registry histograms and records the whole-gate latency (reusing
    /// the final mark's clock read).
    pub(crate) fn gate_done(&mut self) {
        let Some(rec) = self.rec else {
            return;
        };
        let gate_ns = self.last.duration_since(self.gate_start).as_nanos() as u64;
        rec.registry()
            .observe("gate.ns", &[("version", &self.vlabel)], gate_ns);
        self.flush(rec);
    }

    /// Final flush: remaining slices (setup / measure / sample tails)
    /// plus the per-device task counters.
    pub(crate) fn finish(mut self) {
        let Some(rec) = self.rec else {
            return;
        };
        self.flush(rec);
        for (gpu, &n) in self.device_tasks.iter().enumerate() {
            if n > 0 {
                rec.registry().add(
                    "tasks",
                    &[("device", &gpu.to_string()), ("version", &self.vlabel)],
                    n,
                );
            }
        }
    }

    fn flush(&mut self, rec: &Recorder) {
        for (bucket, ns) in self.acc.iter_mut().enumerate() {
            if *ns > 0 {
                rec.registry().observe(
                    "stage.time_ns",
                    &[("stage", BUCKETS[bucket]), ("version", &self.vlabel)],
                    *ns,
                );
                *ns = 0;
            }
        }
    }
}
