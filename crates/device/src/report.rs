//! Execution reports: the model's answer to `nvprof`.

use serde::{Deserialize, Serialize};

use crate::timeline::{Engine, TaskKind, Timeline};

/// The event counts of a run, one row each: the [`Counter`] variant (a
/// slot of [`Timeline`]'s count array), the [`ExecutionReport`] field it
/// becomes, and the metric name the engine publishes it under once per
/// run. One table, so the report and the metrics cannot disagree.
macro_rules! counters {
    ($($(#[$doc:meta])* $variant:ident, $field:ident, $name:literal;)*) => {
        /// One event count of a run (see [`Timeline::count`]).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Counter {
            $($(#[$doc])* $variant,)*
        }

        impl Counter {
            /// All counters, in slot order.
            pub const ALL: [Counter; [$($name),*].len()] = [$(Counter::$variant),*];

            /// The metric name this count is published under.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)*
                }
            }
        }

        impl ExecutionReport {
            /// The report field a counter lands in.
            pub fn counter(&self, c: Counter) -> u64 {
                match c {
                    $(Counter::$variant => self.$field,)*
                }
            }

            fn counter_mut(&mut self, c: Counter) -> &mut u64 {
                match c {
                    $(Counter::$variant => &mut self.$field,)*
                }
            }
        }
    };
}

counters! {
    /// Chunk updates skipped by zero-amplitude pruning.
    ChunksPruned, chunks_pruned, "chunks.pruned";
    /// Chunk updates performed.
    ChunksProcessed, chunks_processed, "chunks.processed";
    /// Bytes entering the compressor.
    BytesBeforeCompress, bytes_before_compress, "compress.bytes_in";
    /// Bytes leaving the compressor.
    BytesAfterCompress, bytes_after_compress, "compress.bytes_out";
    /// Kernel launches that executed a multi-gate fused run.
    FusedKernels, fused_kernels, "fusion.kernels";
    /// Source gates eliminated by the fusion pass.
    GatesFused, gates_fused, "fusion.gates_fused";
    /// Chunk transfers re-issued after an integrity failure.
    ChunkRetries, chunk_retries, "chunk.retries";
    /// Codec-failure fallbacks to raw transfer.
    CodecFallbacks, codec_fallbacks, "codec.fallbacks";
    /// Corrupted-mask fallbacks from pruning to full-chunk execution.
    PruneFallbacks, prune_fallbacks, "prune.fallbacks";
    /// Worker deaths recovered by serial re-execution.
    WorkerRestarts, worker_restarts, "worker.restarts";
    /// Devices lost from the fleet.
    DevicesLost, devices_lost, "orch.devices_lost";
    /// Chunk tasks migrated off lost devices onto survivors.
    ChunksMigrated, chunks_migrated, "orch.chunks_migrated";
    /// Chunk tasks stolen from straggling devices.
    Steals, steals, "orch.steals";
    /// Memory-pressure ladder escalations.
    PressureDownshifts, pressure_downshifts, "orch.pressure_downshifts";
    /// Transfers that ran over a degraded link.
    LinkDegradations, link_degradations, "link.degradations";
    /// End-of-circuit measurement shots sampled.
    Shots, shots, "stoch.shots";
    /// Mid-circuit measurement/reset collapse sync points.
    Collapses, collapses, "stoch.collapses";
    /// Error gates inserted by the noise rewrite.
    NoiseOps, noise_ops, "stoch.noise_ops";
}

/// Aggregated metrics of one simulated execution — everything the paper's
/// evaluation plots are built from.
///
/// # Examples
///
/// ```
/// use qgpu_device::timeline::{Engine, TaskKind, Timeline};
/// use qgpu_device::ExecutionReport;
///
/// let mut tl = Timeline::new();
/// tl.schedule(Engine::Host, 0.0, 8.0, TaskKind::HostUpdate, 800);
/// tl.schedule(Engine::H2d(0), 0.0, 2.0, TaskKind::H2dCopy, 200);
/// let report = ExecutionReport::from_timeline(&tl, 1);
/// assert_eq!(report.total_time, 8.0);
/// assert!(report.host_fraction() > 0.7);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Modeled wall-clock time in seconds.
    pub total_time: f64,
    /// Host busy time (state updates).
    pub host_time: f64,
    /// Summed GPU compute busy time (kernels + (de)compression).
    pub gpu_time: f64,
    /// Summed copy-engine busy time, both directions.
    pub transfer_time: f64,
    /// Scheduler/driver synchronization time.
    pub sync_time: f64,
    /// Compression kernel time.
    pub compress_time: f64,
    /// Decompression kernel time.
    pub decompress_time: f64,
    /// Host time spent in mid-circuit collapse passes (marginal
    /// reduction + renormalization); a subset of `host_time`.
    pub measure_time: f64,
    /// Host time spent in the end-of-circuit readout sampling sweep; a
    /// subset of `host_time`.
    pub sample_time: f64,
    /// Bytes copied host → device.
    pub bytes_h2d: u64,
    /// Bytes copied device → host.
    pub bytes_d2h: u64,
    /// Amplitude bytes processed on the host.
    pub bytes_host: u64,
    /// Amplitude bytes processed on GPUs.
    pub bytes_gpu: u64,
    /// Floating-point operations executed on GPUs.
    pub flops_gpu: f64,
    /// Chunk updates skipped by zero-amplitude pruning.
    pub chunks_pruned: u64,
    /// Chunk updates performed.
    pub chunks_processed: u64,
    /// Bytes entering the compressor (0 when compression is off).
    pub bytes_before_compress: u64,
    /// Bytes leaving the compressor.
    pub bytes_after_compress: u64,
    /// Kernel launches that executed a multi-gate fused run (0 when gate
    /// fusion is off).
    pub fused_kernels: u64,
    /// Source gates eliminated by the fusion pass (gates in minus fused
    /// ops out).
    pub gates_fused: u64,
    /// Chunk transfers re-issued after a CRC mismatch (0 when the
    /// resilient pipeline is off or no fault fired).
    pub chunk_retries: u64,
    /// Chunks that fell back to raw transfer after a GFC encode failure.
    pub codec_fallbacks: u64,
    /// Gates that fell back from pruning to full-chunk execution after a
    /// corrupted involvement mask.
    pub prune_fallbacks: u64,
    /// Worker dispatches recovered by serial re-execution after a worker
    /// death.
    pub worker_restarts: u64,
    /// Modeled time spent waiting in retry backoff.
    pub backoff_time: f64,
    /// Devices lost from the fleet mid-run (0 without orchestration).
    pub devices_lost: u64,
    /// Chunk tasks migrated off lost devices onto survivors.
    pub chunks_migrated: u64,
    /// Chunk tasks stolen from straggling devices.
    pub steals: u64,
    /// Memory-pressure ladder escalations (shrink/compress/spill).
    pub pressure_downshifts: u64,
    /// Transfers that ran over a degraded link.
    pub link_degradations: u64,
    /// Peak observed per-device chunk residency in bytes (0 when the
    /// engine does not track residency).
    pub peak_resident_bytes: u64,
    /// End-of-circuit measurement shots sampled (0 when sampling is off).
    pub shots: u64,
    /// Mid-circuit measurement/reset collapse sync points executed.
    pub collapses: u64,
    /// Error gates inserted by the seeded noise rewrite (0 without noise).
    pub noise_ops: u64,
    /// Number of GPUs in the platform.
    pub num_gpus: usize,
}

impl ExecutionReport {
    /// Collects a report from a finished timeline.
    pub fn from_timeline(tl: &Timeline, num_gpus: usize) -> Self {
        let mut gpu_time = 0.0;
        for g in 0..num_gpus {
            gpu_time += tl.engine_busy(Engine::GpuCompute(g));
        }
        let mut transfer_time = 0.0;
        for g in 0..num_gpus {
            transfer_time += tl.engine_busy(Engine::H2d(g)) + tl.engine_busy(Engine::D2h(g));
        }
        let mut report = ExecutionReport {
            total_time: tl.makespan(),
            host_time: tl.kind_busy(TaskKind::HostUpdate),
            gpu_time,
            transfer_time,
            sync_time: tl.kind_busy(TaskKind::Sync),
            compress_time: tl.kind_busy(TaskKind::Compress),
            decompress_time: tl.kind_busy(TaskKind::Decompress),
            measure_time: tl.measure_time(),
            sample_time: tl.sample_time(),
            bytes_h2d: tl.kind_bytes(TaskKind::H2dCopy),
            bytes_d2h: tl.kind_bytes(TaskKind::D2hCopy),
            bytes_host: tl.kind_bytes(TaskKind::HostUpdate),
            bytes_gpu: tl.kind_bytes(TaskKind::Kernel),
            flops_gpu: tl.flops_gpu(),
            backoff_time: tl.kind_busy(TaskKind::Backoff),
            peak_resident_bytes: tl.peak_resident_bytes(),
            num_gpus,
            ..ExecutionReport::default()
        };
        for c in Counter::ALL {
            *report.counter_mut(c) = tl.counter(c);
        }
        report
    }

    /// Total orchestration events: every time the device group reacted
    /// to fleet disruption instead of stalling (losses + migrations +
    /// steals + pressure downshifts).
    pub fn orchestration_events(&self) -> u64 {
        self.devices_lost + self.chunks_migrated + self.steals + self.pressure_downshifts
    }

    /// Fraction of total time the host spends updating amplitudes
    /// (the dominant bar of the paper's Figure 2).
    pub fn host_fraction(&self) -> f64 {
        safe_div(self.host_time, self.total_time)
    }

    /// Fraction of total time GPUs spend computing.
    pub fn gpu_fraction(&self) -> f64 {
        safe_div(self.gpu_time, self.total_time)
    }

    /// Fraction of chunk updates eliminated by pruning.
    pub fn prune_fraction(&self) -> f64 {
        let total = self.chunks_pruned + self.chunks_processed;
        if total == 0 {
            0.0
        } else {
            self.chunks_pruned as f64 / total as f64
        }
    }

    /// Achieved compression ratio (1.0 when compression is off).
    pub fn compression_ratio(&self) -> f64 {
        if self.bytes_after_compress == 0 {
            1.0
        } else {
            self.bytes_before_compress as f64 / self.bytes_after_compress as f64
        }
    }

    /// GPU arithmetic intensity in FLOP/byte, counting kernel bytes plus
    /// transferred bytes (the roofline x-axis of the paper's Figure 15).
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = self.bytes_gpu + self.bytes_h2d + self.bytes_d2h;
        if bytes == 0 {
            0.0
        } else {
            self.flops_gpu / bytes as f64
        }
    }

    /// Serializes the report as a deterministic JSON object.
    ///
    /// Field order is fixed and floats use Rust's shortest-roundtrip
    /// `{:?}` formatting, so two bit-identical reports always produce
    /// byte-identical JSON — the property the golden-report fixtures
    /// under `tests/fixtures/golden/` rely on.
    pub fn to_json_string(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        let mut field = |key: &str, value: String| {
            if s.len() > 2 {
                s.push_str(",\n");
            }
            s.push_str("  \"");
            s.push_str(key);
            s.push_str("\": ");
            s.push_str(&value);
        };
        field("total_time", format!("{:?}", self.total_time));
        field("host_time", format!("{:?}", self.host_time));
        field("gpu_time", format!("{:?}", self.gpu_time));
        field("transfer_time", format!("{:?}", self.transfer_time));
        field("sync_time", format!("{:?}", self.sync_time));
        field("compress_time", format!("{:?}", self.compress_time));
        field("decompress_time", format!("{:?}", self.decompress_time));
        field("measure_time", format!("{:?}", self.measure_time));
        field("sample_time", format!("{:?}", self.sample_time));
        field("bytes_h2d", self.bytes_h2d.to_string());
        field("bytes_d2h", self.bytes_d2h.to_string());
        field("bytes_host", self.bytes_host.to_string());
        field("bytes_gpu", self.bytes_gpu.to_string());
        field("flops_gpu", format!("{:?}", self.flops_gpu));
        field("chunks_pruned", self.chunks_pruned.to_string());
        field("chunks_processed", self.chunks_processed.to_string());
        field(
            "bytes_before_compress",
            self.bytes_before_compress.to_string(),
        );
        field(
            "bytes_after_compress",
            self.bytes_after_compress.to_string(),
        );
        field("fused_kernels", self.fused_kernels.to_string());
        field("gates_fused", self.gates_fused.to_string());
        field("chunk_retries", self.chunk_retries.to_string());
        field("codec_fallbacks", self.codec_fallbacks.to_string());
        field("prune_fallbacks", self.prune_fallbacks.to_string());
        field("worker_restarts", self.worker_restarts.to_string());
        field("backoff_time", format!("{:?}", self.backoff_time));
        field("devices_lost", self.devices_lost.to_string());
        field("chunks_migrated", self.chunks_migrated.to_string());
        field("steals", self.steals.to_string());
        field("pressure_downshifts", self.pressure_downshifts.to_string());
        field("link_degradations", self.link_degradations.to_string());
        field("peak_resident_bytes", self.peak_resident_bytes.to_string());
        field("shots", self.shots.to_string());
        field("collapses", self.collapses.to_string());
        field("noise_ops", self.noise_ops.to_string());
        field("num_gpus", self.num_gpus.to_string());
        s.push_str("\n}\n");
        s
    }
}

fn safe_div(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_timeline() -> Timeline {
        let mut tl = Timeline::new();
        tl.schedule(Engine::Host, 0.0, 6.0, TaskKind::HostUpdate, 600);
        tl.schedule(Engine::H2d(0), 0.0, 1.0, TaskKind::H2dCopy, 100);
        tl.schedule(Engine::GpuCompute(0), 1.0, 0.5, TaskKind::Kernel, 100);
        tl.schedule(Engine::D2h(0), 1.5, 1.0, TaskKind::D2hCopy, 100);
        tl.schedule(Engine::Host, 0.0, 0.5, TaskKind::Sync, 0);
        tl
    }

    #[test]
    fn report_collects_categories() {
        let r = ExecutionReport::from_timeline(&sample_timeline(), 1);
        assert_eq!(r.total_time, 6.5);
        assert_eq!(r.host_time, 6.0);
        assert_eq!(r.gpu_time, 0.5);
        assert_eq!(r.transfer_time, 2.0);
        assert_eq!(r.sync_time, 0.5);
        assert_eq!(r.bytes_h2d, 100);
        assert_eq!(r.bytes_d2h, 100);
    }

    #[test]
    fn fractions() {
        let r = ExecutionReport::from_timeline(&sample_timeline(), 1);
        assert!((r.host_fraction() - 6.0 / 6.5).abs() < 1e-12);
        assert!((r.gpu_fraction() - 0.5 / 6.5).abs() < 1e-12);
    }

    #[test]
    fn orchestration_counters_flow_into_the_report() {
        let mut tl = sample_timeline();
        tl.count(Counter::DevicesLost, 1);
        tl.count(Counter::ChunksMigrated, 5);
        tl.count(Counter::Steals, 2);
        tl.count(Counter::PressureDownshifts, 1);
        tl.observe_resident_bytes(1024);
        tl.observe_resident_bytes(512); // peak keeps the max
        let r = ExecutionReport::from_timeline(&tl, 1);
        assert_eq!(r.peak_resident_bytes, 1024);
        assert_eq!(r.orchestration_events(), 9);
    }

    #[test]
    fn timeline_counters_flow_into_the_report() {
        // Every counter, counted twice, lands in its own report field.
        let mut tl = sample_timeline();
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            tl.count(c, i as u64 + 1);
            tl.count(c, 100);
        }
        tl.add_flops(1.5e9);
        let r = ExecutionReport::from_timeline(&tl, 1);
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(r.counter(c), i as u64 + 101, "{}", c.name());
            assert_eq!(tl.counter(c), r.counter(c));
        }
        assert_eq!((r.chunks_pruned, r.chunks_processed), (101, 102));
        assert_eq!(r.noise_ops, 118);
        assert_eq!(r.flops_gpu, 1.5e9);
        assert!((r.prune_fraction() - 101.0 / 203.0).abs() < 1e-12);
        assert!((r.compression_ratio() - 103.0 / 104.0).abs() < 1e-12);
    }

    #[test]
    fn stochastic_counters_flow_into_the_report() {
        let mut tl = sample_timeline();
        tl.count(Counter::Shots, 256);
        tl.count(Counter::Collapses, 2);
        tl.count(Counter::NoiseOps, 17);
        tl.add_measure_time(0.25);
        tl.add_measure_time(0.25);
        tl.add_sample_time(0.125);
        let r = ExecutionReport::from_timeline(&tl, 1);
        assert_eq!(r.measure_time, 0.5);
        assert_eq!(r.sample_time, 0.125);
        let json = r.to_json_string();
        assert!(json.contains("\"shots\": 256"));
        assert!(json.contains("\"collapses\": 2"));
        assert!(json.contains("\"noise_ops\": 17"));
        assert!(json.contains("\"measure_time\": 0.5"));
        assert!(json.contains("\"sample_time\": 0.125"));
    }

    #[test]
    fn report_without_compression_keeps_ratio_one() {
        // The timeline schedules (de)compression *kernels* but the
        // compressor never ran: byte accounting must stay zero rather
        // than misreading kernel bytes as compressor traffic.
        let mut tl = Timeline::new();
        tl.schedule(Engine::GpuCompute(0), 0.0, 1.0, TaskKind::Compress, 512);
        tl.schedule(Engine::GpuCompute(0), 1.0, 1.0, TaskKind::Decompress, 512);
        let r = ExecutionReport::from_timeline(&tl, 1);
        assert_eq!(r.bytes_before_compress, 0);
        assert_eq!(r.bytes_after_compress, 0);
        assert_eq!(r.compression_ratio(), 1.0);
        assert_eq!(r.compress_time, 1.0);
        assert_eq!(r.decompress_time, 1.0);
    }

    fn multi_gpu_timeline(num_gpus: usize) -> Timeline {
        let mut tl = Timeline::new();
        // Host update overlapping per-GPU pipelines of different lengths.
        tl.schedule(Engine::Host, 0.0, 4.0, TaskKind::HostUpdate, 400);
        for g in 0..num_gpus {
            let t = 1.0 + g as f64;
            let h2d = tl.schedule(Engine::H2d(g), 0.0, t, TaskKind::H2dCopy, 100);
            let k = tl.schedule(Engine::GpuCompute(g), h2d.end, t, TaskKind::Kernel, 100);
            tl.schedule(Engine::D2h(g), k.end, t, TaskKind::D2hCopy, 100);
        }
        tl
    }

    #[test]
    fn multi_gpu_fractions_sum_engines_across_devices() {
        let num_gpus = 3;
        let tl = multi_gpu_timeline(num_gpus);
        let r = ExecutionReport::from_timeline(&tl, num_gpus);
        // GPU 2's pipeline (3 s per stage) ends last: makespan 9 s.
        assert_eq!(r.total_time, 9.0);
        // gpu_time sums compute across devices: 1 + 2 + 3.
        assert_eq!(r.gpu_time, 6.0);
        // transfer_time sums both copy engines of every device.
        assert_eq!(r.transfer_time, 12.0);
        assert!((r.gpu_fraction() - 6.0 / 9.0).abs() < 1e-12);
        assert!((r.host_fraction() - 4.0 / 9.0).abs() < 1e-12);
        assert_eq!(r.num_gpus, num_gpus);
    }

    #[test]
    fn undercounting_num_gpus_drops_unseen_engines() {
        // Guard on the `num_gpus` contract: engines above the count are
        // not summed (the caller owns the platform size).
        let tl = multi_gpu_timeline(3);
        let r = ExecutionReport::from_timeline(&tl, 2);
        assert_eq!(r.gpu_time, 3.0);
        assert_eq!(r.transfer_time, 6.0);
    }

    #[test]
    fn prune_fraction() {
        let r = ExecutionReport {
            chunks_pruned: 30,
            chunks_processed: 70,
            ..ExecutionReport::default()
        };
        assert!((r.prune_fraction() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn compression_ratio_defaults_to_one() {
        let r = ExecutionReport::default();
        assert_eq!(r.compression_ratio(), 1.0);
    }

    #[test]
    fn json_string_is_deterministic_and_roundtrips_floats() {
        let mut tl = sample_timeline();
        tl.add_flops(1.5e9);
        tl.count(Counter::BytesAfterCompress, 1024);
        let r = ExecutionReport::from_timeline(&tl, 1);
        let a = r.to_json_string();
        let b = r.clone().to_json_string();
        assert_eq!(a, b, "same report must serialize byte-identically");
        // Shortest-roundtrip float formatting: parsing the emitted text
        // must recover the exact bit pattern.
        assert!(a.contains("\"total_time\": 6.5"));
        assert!(a.contains("\"flops_gpu\": 1500000000.0"));
        assert!(a.contains("\"bytes_after_compress\": 1024"));
        assert!(a.starts_with("{\n"));
        assert!(a.ends_with("\n}\n"));
    }

    #[test]
    fn empty_report_is_safe() {
        let r = ExecutionReport::default();
        assert_eq!(r.host_fraction(), 0.0);
        assert_eq!(r.arithmetic_intensity(), 0.0);
        assert_eq!(r.gpu_fraction(), 0.0);
    }
}
