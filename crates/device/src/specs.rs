//! Hardware specifications and calibration constants.
//!
//! Peak numbers come from vendor spec sheets; *effective* throughputs are
//! derated by an efficiency factor because state-vector update is a
//! strided streaming workload that never reaches peak bandwidth. The
//! derating constants were calibrated once against the relative numbers
//! the paper itself reports (see `EXPERIMENTS.md`):
//!
//! * baseline GPU ≈ 9–10× faster than CPU when the state fits on the GPU
//!   (paper §III-C reports 9.67× at 29 qubits);
//! * Qiskit-Aer's chunked CPU path is ≈ 2–2.5× slower than the plain
//!   OpenMP loop (implied by Figure 12: Q-GPU is 3.55× over the baseline
//!   but only 1.49× over CPU-OpenMP);
//! * PCIe 3.0 ×16 sustains ≈ 12 GB/s per direction.

use serde::{Deserialize, Serialize};

/// Which compression kernel family a modeled bandwidth applies to.
///
/// The engine maps its configured codec onto one of these classes so the
/// `Timeline` charges Compress/Decompress spans at that codec's modeled
/// throughput instead of pretending everything runs at GFC speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CodecClass {
    /// GFC warp-parallel residual coder (the paper's kernel).
    Gfc,
    /// Run-length zero/constant shortcut — a read-bound scan.
    ZeroRun,
    /// ALP-style adaptive decimal coder — exponent probing + bit packing.
    Alp,
    /// Sampling cascade — probes candidates, then runs the winner.
    Cascade,
}

/// A GPU device model.
///
/// # Examples
///
/// ```
/// use qgpu_device::GpuSpec;
///
/// let p100 = GpuSpec::p100();
/// assert_eq!(p100.mem_bytes, 16 << 30);
/// assert!(p100.update_bw() > 100e9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Marketing name, e.g. `"P100"`.
    pub name: String,
    /// Device memory capacity in bytes.
    pub mem_bytes: u64,
    /// Peak FP64 throughput in FLOP/s.
    pub peak_flops: f64,
    /// Peak memory bandwidth in bytes/s.
    pub mem_bw: f64,
    /// Fraction of peak bandwidth achieved by gate-update kernels.
    pub kernel_efficiency: f64,
    /// Fraction of peak bandwidth achieved by the GFC compression kernel.
    /// The GFC paper reports 75 GB/s on a GTX 480 (177 GB/s peak), i.e.
    /// ≈ 42% of peak; the kernel is bandwidth-bound, so the fraction
    /// carries over to newer parts.
    pub compress_efficiency: f64,
    /// Fraction of peak bandwidth achieved by the zero/constant run-length
    /// scan: reads every byte once and writes almost nothing, so it runs
    /// much closer to peak than GFC's residual + prefix packing.
    /// Every stock spec uses 0.80.
    #[serde(default)]
    pub zero_run_efficiency: f64,
    /// Fraction of peak bandwidth achieved by the ALP kernel: exponent
    /// probing plus frame-of-reference bit packing costs noticeably more
    /// than GFC per byte.
    /// Every stock spec uses 0.30.
    #[serde(default)]
    pub alp_efficiency: f64,
    /// Fraction of peak bandwidth achieved by the cascade on a dense
    /// chunk: slightly below GFC because the sample probe is paid before
    /// the winning kernel runs (sparse chunks win back far more through
    /// the bytes they no longer move).
    /// Every stock spec uses 0.40.
    #[serde(default)]
    pub cascade_efficiency: f64,
    /// Per-kernel launch overhead in seconds (CUDA launch + driver
    /// queueing).
    pub kernel_launch: f64,
}

impl GpuSpec {
    /// Effective state-update throughput (bytes of amplitudes processed
    /// per second).
    pub fn update_bw(&self) -> f64 {
        self.mem_bw * self.kernel_efficiency
    }

    /// Effective compression/decompression throughput of the given codec
    /// class in bytes/s — what the `Timeline` charges Compress and
    /// Decompress spans when a run selects a non-default codec.
    pub fn codec_bw(&self, class: CodecClass) -> f64 {
        let efficiency = match class {
            CodecClass::Gfc => self.compress_efficiency,
            CodecClass::ZeroRun => self.zero_run_efficiency,
            CodecClass::Alp => self.alp_efficiency,
            CodecClass::Cascade => self.cascade_efficiency,
        };
        self.mem_bw * efficiency
    }

    /// NVIDIA Tesla P100 (16 GB HBM2) — the paper's main platform.
    pub fn p100() -> Self {
        GpuSpec {
            name: "P100".into(),
            mem_bytes: 16 << 30,
            peak_flops: 4.7e12,
            mem_bw: 732e9,
            kernel_efficiency: 0.40,
            compress_efficiency: 0.42,
            zero_run_efficiency: 0.80,
            alp_efficiency: 0.30,
            cascade_efficiency: 0.40,
            kernel_launch: 8e-6,
        }
    }

    /// NVIDIA Tesla V100 (16 GB HBM2).
    pub fn v100_16gb() -> Self {
        GpuSpec {
            name: "V100-16GB".into(),
            mem_bytes: 16 << 30,
            peak_flops: 7.0e12,
            mem_bw: 900e9,
            kernel_efficiency: 0.40,
            compress_efficiency: 0.42,
            zero_run_efficiency: 0.80,
            alp_efficiency: 0.30,
            cascade_efficiency: 0.40,
            kernel_launch: 8e-6,
        }
    }

    /// NVIDIA Tesla V100 (32 GB HBM2) — the paper's §V-D platform.
    pub fn v100_32gb() -> Self {
        let mut g = Self::v100_16gb();
        g.name = "V100-32GB".into();
        g.mem_bytes = 32 << 30;
        g
    }

    /// NVIDIA A100 (40 GB HBM2e) — the paper's §V-D platform.
    pub fn a100_40gb() -> Self {
        GpuSpec {
            name: "A100-40GB".into(),
            mem_bytes: 40 << 30,
            peak_flops: 9.7e12,
            mem_bw: 1555e9,
            kernel_efficiency: 0.40,
            compress_efficiency: 0.42,
            zero_run_efficiency: 0.80,
            alp_efficiency: 0.30,
            cascade_efficiency: 0.40,
            kernel_launch: 8e-6,
        }
    }

    /// NVIDIA Tesla P4 (8 GB GDDR5) — the paper's multi-GPU server-1.
    /// FP64 on the P4 is a token rate (1/32 of FP32).
    pub fn p4() -> Self {
        GpuSpec {
            name: "P4".into(),
            mem_bytes: 8 << 30,
            peak_flops: 0.17e12,
            mem_bw: 192e9,
            kernel_efficiency: 0.40,
            compress_efficiency: 0.42,
            zero_run_efficiency: 0.80,
            alp_efficiency: 0.30,
            cascade_efficiency: 0.40,
            kernel_launch: 8e-6,
        }
    }
}

/// A host CPU model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostSpec {
    /// Marketing name.
    pub name: String,
    /// Physical core count (all used by the OpenMP-style engines).
    pub cores: u32,
    /// Peak FP64 throughput in FLOP/s.
    pub peak_flops: f64,
    /// Effective state-update throughput of the plain multithreaded loop,
    /// in bytes/s.
    pub update_bw: f64,
    /// Extra slowdown of Qiskit-Aer's *chunked* CPU path relative to the
    /// plain loop (gather/scatter across chunk boundaries, per-chunk
    /// bookkeeping, GPU-scheduler synchronization).
    pub chunk_penalty: f64,
    /// Per-gate synchronization latency between the CPU scheduler and the
    /// device queue, in seconds.
    pub sync_latency: f64,
    /// Aggregate host-DRAM bandwidth available to device DMA, per
    /// direction, in bytes/s. Every CPU↔GPU transfer is staged through
    /// host memory, so the *sum* of concurrent link transfers cannot
    /// exceed this — the effect that makes a 4×NVLink node no faster at
    /// streaming than 4×PCIe (paper §V-E: "the majority of the data
    /// movement is between CPU and GPUs").
    pub copy_bw: f64,
}

impl HostSpec {
    /// Effective throughput of the chunked (Qiskit-Aer-style) CPU path.
    pub fn chunked_update_bw(&self) -> f64 {
        self.update_bw / self.chunk_penalty
    }

    /// Dual Intel Xeon Silver 4114 (2 × 10 cores) — the paper's host.
    pub fn dual_xeon_4114() -> Self {
        HostSpec {
            name: "2x Xeon Silver 4114".into(),
            cores: 20,
            peak_flops: 0.7e12,
            update_bw: 26e9,
            chunk_penalty: 2.5,
            sync_latency: 30e-6,
            copy_bw: 50e9,
        }
    }

    /// 8-core Intel Xeon Gold 6133 — the V100 server's host (§V-D).
    pub fn xeon_6133_8c() -> Self {
        HostSpec {
            name: "8c Xeon Gold 6133".into(),
            cores: 8,
            peak_flops: 0.4e12,
            update_bw: 14e9,
            chunk_penalty: 2.5,
            sync_latency: 30e-6,
            copy_bw: 40e9,
        }
    }

    /// 12-vCPU host — the A100 server's host (§V-D).
    pub fn vcpu_12() -> Self {
        HostSpec {
            name: "12 vCPU".into(),
            cores: 12,
            peak_flops: 0.5e12,
            update_bw: 18e9,
            chunk_penalty: 2.5,
            sync_latency: 30e-6,
            copy_bw: 45e9,
        }
    }

    /// 32-core host of the multi-GPU servers (§V-E).
    pub fn multi_gpu_host() -> Self {
        HostSpec {
            name: "32c multi-GPU host".into(),
            cores: 32,
            peak_flops: 1.0e12,
            update_bw: 34e9,
            chunk_penalty: 2.5,
            sync_latency: 30e-6,
            copy_bw: 55e9,
        }
    }
}

/// A CPU↔GPU (or GPU↔GPU) interconnect model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Marketing name.
    pub name: String,
    /// Sustained bandwidth per direction, bytes/s.
    pub bw_per_direction: f64,
    /// Per-transfer latency in seconds.
    pub latency: f64,
}

impl LinkSpec {
    /// Time to move `bytes` over the link (one transfer operation).
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / self.bw_per_direction
    }

    /// PCIe 3.0 ×16 (≈ 13.5 GB/s sustained per direction with pinned
    /// memory).
    pub fn pcie3_x16() -> Self {
        LinkSpec {
            name: "PCIe3 x16".into(),
            bw_per_direction: 13.5e9,
            latency: 10e-6,
        }
    }

    /// PCIe 4.0 ×16 (≈ 24 GB/s sustained per direction).
    pub fn pcie4_x16() -> Self {
        LinkSpec {
            name: "PCIe4 x16".into(),
            bw_per_direction: 24e9,
            latency: 8e-6,
        }
    }

    /// NVLink 2.0 (≈ 45 GB/s sustained per direction per brick pair).
    pub fn nvlink2() -> Self {
        LinkSpec {
            name: "NVLink2".into(),
            bw_per_direction: 45e9,
            latency: 5e-6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_bandwidths_are_derated() {
        let g = GpuSpec::p100();
        assert!(g.update_bw() < g.mem_bw);
        assert!(g.codec_bw(CodecClass::Gfc) < g.mem_bw);
    }

    #[test]
    fn codec_bw_classes_bracket_gfc() {
        let g = GpuSpec::p100();
        // The Gfc class must be *exactly* `mem_bw * compress_efficiency`
        // — the golden timelines depend on it.
        let gfc = g.mem_bw * g.compress_efficiency;
        assert_eq!(g.codec_bw(CodecClass::Gfc), gfc);
        assert!(g.codec_bw(CodecClass::ZeroRun) > gfc);
        assert!(g.codec_bw(CodecClass::Alp) < gfc);
        assert!(g.codec_bw(CodecClass::Cascade) < g.codec_bw(CodecClass::ZeroRun));
    }

    #[test]
    fn gpu_cpu_ratio_matches_paper_ballpark() {
        // Paper §III-C: GPU ~9.67x faster than CPU when state fits.
        let ratio = GpuSpec::p100().update_bw() / HostSpec::dual_xeon_4114().update_bw;
        assert!(
            (5.0..20.0).contains(&ratio),
            "P100/CPU throughput ratio {ratio:.1} out of plausible band"
        );
    }

    #[test]
    fn chunked_path_is_slower() {
        let h = HostSpec::dual_xeon_4114();
        assert!(h.chunked_update_bw() < h.update_bw);
    }

    #[test]
    fn transfer_time_includes_latency() {
        let l = LinkSpec::pcie3_x16();
        assert!(l.transfer_time(0) > 0.0);
        let t = l.transfer_time(13_500_000_000);
        assert!((t - 1.0).abs() < 1e-3);
    }

    #[test]
    fn nvlink_faster_than_pcie() {
        assert!(LinkSpec::nvlink2().bw_per_direction > LinkSpec::pcie3_x16().bw_per_direction);
    }

    #[test]
    fn device_memory_ordering() {
        // A100 > V100-32 > P100 = V100-16 > P4.
        assert!(GpuSpec::a100_40gb().mem_bytes > GpuSpec::v100_32gb().mem_bytes);
        assert!(GpuSpec::v100_32gb().mem_bytes > GpuSpec::p100().mem_bytes);
        assert!(GpuSpec::p100().mem_bytes > GpuSpec::p4().mem_bytes);
    }
}
