//! Per-stage wall-clock attribution middleware.
//!
//! `ObsMw` laps a single monotonic clock as the driver moves
//! from one phase of a gate to the next, crediting each elapsed slice to
//! the named bucket ([`PLAN`] … [`SYNC`], or a driver bucket) of the
//! step that just ran: the functional phase's `plan`, `prune`, `kernel`
//! (the update, with the sizing its sink does in cache) and `compress`
//! (the walk over the size slots), then per tile of the
//! timeline phase `fetch` (the column pass), `deal` (the timeline loop:
//! every task's deal and modeled spans) and `writeback` (the tile's
//! last-download times). Static mode laps coarsely: a gate's whole time
//! is `kernel`, a collapse's `measure`. Per gate the accumulated slices
//! flush into the recorder's labeled [`qgpu_obs::Registry`]:
//!
//! * `stage.time_ns{stage=…,version=…}` — HDR histogram of per-gate time
//!   attributed to each stage, plus the pseudo-stages `setup`,
//!   `measure`, `sample` and `driver` (loop overhead between steps).
//!   Histogram **sums** reconstruct the wall-clock breakdown;
//!   percentiles expose tail gates.
//! * `gate.ns{version=…}` — HDR histogram of whole-gate latency.
//! * `tasks{device=…,version=…}` — chunk round trips per device: a
//!   streaming gate's tasks (a batch's included).
//!
//! Nothing is lapped per task — at tens of nanoseconds a task, a clock
//! read each would be the largest cost in the loop.
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
/// one per lapped step of a gate, then the driver-level pseudo-stages.
pub(crate) const BUCKETS: [&str; 12] = [
    "setup",
    "plan",
    "prune",
    "deal",
    "fetch",
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
/// The timeline loop of a tile.
pub(crate) const DEAL: usize = 3;
/// The column pass of a tile.
pub(crate) const FETCH: usize = 4;
pub(crate) const KERNEL: usize = 5;
pub(crate) const COMPRESS: usize = 6;
/// A tile's last-download write-back.
pub(crate) const WRITEBACK: usize = 7;
/// End-of-gate work: window occupancy sampling and the per-gate sync.
pub(crate) const SYNC: usize = 8;
pub(crate) const MEASURE: usize = 9;
pub(crate) const SAMPLE: usize = 10;
pub(crate) const DRIVER: usize = 11;

/// The per-stage wall-clock attribution middleware (see module docs).
pub(crate) struct ObsMw<'a> {
    rec: Option<&'a Recorder>,
    /// The run's `version` label; empty (and unread) without a recorder.
    vlabel: String,
    last: Instant,
    gate_start: Instant,
    acc: [u64; BUCKETS.len()],
    device_tasks: Vec<u64>,
}

impl<'a> ObsMw<'a> {
    /// A new middleware lapping from "now". With `rec == None` every
    /// method no-ops (and this constructor's clock read is the last).
    pub(crate) fn new(rec: Option<&'a Recorder>, cfg: &SimConfig) -> Self {
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
            device_tasks: vec![0; cfg.platform.num_gpus()],
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

    /// Ends one task's round trip: bumps the executing device's counter.
    #[inline]
    pub(crate) fn task_done(&mut self, gpu: usize) {
        if self.rec.is_some() {
            self.device_tasks[gpu] += 1;
        }
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
