//! Platform descriptions: a host, one or more GPUs, and their links.

use serde::{Deserialize, Serialize};

use crate::specs::{GpuSpec, HostSpec, LinkSpec};

/// A heterogeneous node: the execution platform of one experiment.
///
/// Presets mirror the paper's test machines; [`Platform::scaled_paper_p100`]
/// shrinks the GPU memory so that laptop-size state vectors reproduce the
/// paper's GPU-memory-to-state ratio (496 of 8192 chunks resident — the
/// P100 at 34 qubits, §III-B).
///
/// # Examples
///
/// ```
/// use qgpu_device::Platform;
///
/// let p = Platform::paper_p100();
/// assert_eq!(p.num_gpus(), 1);
/// assert!(p.gpu(0).mem_bytes >= 16 << 30);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Platform {
    /// Platform label used in reports.
    pub name: String,
    /// The host CPU.
    pub host: HostSpec,
    /// The GPUs (at least one).
    pub gpus: Vec<GpuSpec>,
    /// CPU↔GPU link per GPU (same length as `gpus`).
    pub links: Vec<LinkSpec>,
    /// Optional GPU↔GPU peer link (e.g. NVLink). Streaming execution
    /// moves chunks through host memory, so this is informational: the
    /// paper's §V-E finds cross-GPU movement "limited and does not
    /// dominate the execution time".
    pub peer_link: Option<LinkSpec>,
}

impl Platform {
    /// Builds a single-GPU platform.
    pub fn single(name: impl Into<String>, host: HostSpec, gpu: GpuSpec, link: LinkSpec) -> Self {
        Platform {
            name: name.into(),
            host,
            gpus: vec![gpu],
            links: vec![link],
            peer_link: None,
        }
    }

    /// The paper's main platform: dual Xeon 4114 + P100 over PCIe 3.0.
    pub fn paper_p100() -> Self {
        Platform::single(
            "P100/PCIe3",
            HostSpec::dual_xeon_4114(),
            GpuSpec::p100(),
            LinkSpec::pcie3_x16(),
        )
    }

    /// §V-D platform: 8-core Xeon 6133 + 32 GB V100.
    pub fn paper_v100() -> Self {
        Platform::single(
            "V100/PCIe3",
            HostSpec::xeon_6133_8c(),
            GpuSpec::v100_32gb(),
            LinkSpec::pcie3_x16(),
        )
    }

    /// §V-D platform: 12 vCPU + 40 GB A100.
    pub fn paper_a100() -> Self {
        Platform::single(
            "A100/PCIe4",
            HostSpec::vcpu_12(),
            GpuSpec::a100_40gb(),
            LinkSpec::pcie4_x16(),
        )
    }

    /// §V-E server-1: 32-core host + 4 × P4 over PCIe 3.0.
    pub fn quad_p4_pcie() -> Self {
        Platform {
            name: "4xP4/PCIe3".into(),
            host: HostSpec::multi_gpu_host(),
            gpus: vec![GpuSpec::p4(); 4],
            links: vec![LinkSpec::pcie3_x16(); 4],
            peer_link: None,
        }
    }

    /// §V-E server-2: 32-core host + 4 × V100 with NVLink between the
    /// GPUs. The CPU↔GPU links are still PCIe — NVLink connects peers —
    /// which is why the paper finds "the majority of the data movement is
    /// between CPU and GPUs" and both servers speed up almost identically.
    pub fn quad_v100_nvlink() -> Self {
        Platform {
            name: "4xV100/NVLink".into(),
            host: HostSpec::multi_gpu_host(),
            gpus: vec![GpuSpec::v100_16gb(); 4],
            links: vec![LinkSpec::pcie3_x16(); 4],
            peer_link: Some(LinkSpec::nvlink2()),
        }
    }

    /// The reference size all miniaturized platforms scale from — the
    /// largest circuit the paper runs (34 qubits).
    pub const PAPER_QUBITS: usize = 34;

    /// The paper's P100 platform miniaturized to `num_qubits`: GPU memory
    /// holds the paper's 34-qubit residency ratio (`496/8192` of the
    /// state, §III-B) and all fixed latencies shrink with the state.
    pub fn scaled_paper_p100(num_qubits: usize) -> Self {
        let mut p = Platform::paper_p100().miniaturize(num_qubits, 496.0 / 8192.0);
        p.name = format!("P100-scaled/{num_qubits}q");
        p
    }

    /// Miniaturizes the platform for a `num_qubits`-qubit experiment:
    ///
    /// * every GPU's memory is set to `mem_fraction` of the state vector;
    /// * every fixed per-operation latency (link latency, kernel launch,
    ///   per-gate synchronization) shrinks by `2^(34 - num_qubits)`.
    ///
    /// Scaling the latencies together with the state keeps the model in
    /// the same bandwidth-dominated regime as the paper's 32 MB chunks;
    /// without it, microsecond overheads would swamp microsecond-scale
    /// miniature transfers and distort every ratio.
    pub fn miniaturize(mut self, num_qubits: usize, mem_fraction: f64) -> Self {
        self = self.with_gpu_mem_fraction(num_qubits, mem_fraction);
        let shrink = if num_qubits < Self::PAPER_QUBITS {
            (1u64 << (Self::PAPER_QUBITS - num_qubits)) as f64
        } else {
            1.0
        };
        self.host.sync_latency /= shrink;
        for g in &mut self.gpus {
            g.kernel_launch /= shrink;
        }
        for l in &mut self.links {
            l.latency /= shrink;
        }
        self
    }

    /// A platform variant with every GPU's memory set to hold the given
    /// fraction of a `num_qubits`-qubit state vector.
    pub fn with_gpu_mem_fraction(mut self, num_qubits: usize, fraction: f64) -> Self {
        let state_bytes = (1u128 << num_qubits) as f64 * 16.0;
        let mem = ((state_bytes * fraction) as u64).max(1 << 12);
        for g in &mut self.gpus {
            g.mem_bytes = mem;
        }
        self
    }

    /// A fleet of `n` identical devices: GPU 0 and its link replicated.
    /// The orchestration layer's fleet-size experiments and the CLI's
    /// `--devices` flag build their topologies this way.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use qgpu_device::Platform;
    ///
    /// let fleet = Platform::paper_p100().with_devices(4);
    /// assert_eq!(fleet.num_gpus(), 4);
    /// assert_eq!(fleet.gpu(3), fleet.gpu(0));
    /// ```
    pub fn with_devices(mut self, n: usize) -> Self {
        assert!(n > 0, "a platform needs at least one device");
        self.gpus = vec![self.gpus[0].clone(); n];
        self.links = vec![self.links[0].clone(); n];
        if n > 1 {
            self.name = format!("{} x{n}", self.name);
        }
        self
    }

    /// Number of GPUs.
    pub fn num_gpus(&self) -> usize {
        self.gpus.len()
    }

    /// GPU `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn gpu(&self, i: usize) -> &GpuSpec {
        &self.gpus[i]
    }

    /// Link serving GPU `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn link(&self, i: usize) -> &LinkSpec {
        &self.links[i]
    }

    /// How many chunks of `chunk_bytes` fit in GPU `i`'s memory.
    pub fn gpu_chunk_capacity(&self, i: usize, chunk_bytes: u64) -> usize {
        if chunk_bytes == 0 {
            return 0;
        }
        (self.gpus[i].mem_bytes / chunk_bytes) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        for p in [
            Platform::paper_p100(),
            Platform::paper_v100(),
            Platform::paper_a100(),
            Platform::quad_p4_pcie(),
            Platform::quad_v100_nvlink(),
        ] {
            assert_eq!(p.gpus.len(), p.links.len(), "{}", p.name);
            assert!(p.num_gpus() >= 1);
        }
    }

    #[test]
    fn scaled_platform_preserves_residency_ratio() {
        let p = Platform::scaled_paper_p100(20);
        let state_bytes = (1u64 << 20) * 16;
        let ratio = p.gpu(0).mem_bytes as f64 / state_bytes as f64;
        assert!((ratio - 496.0 / 8192.0).abs() < 0.01, "ratio = {ratio}");
    }

    #[test]
    fn chunk_capacity() {
        let p = Platform::paper_p100();
        // 16 GB GPU, 1 MB chunks.
        assert_eq!(p.gpu_chunk_capacity(0, 1 << 20), 16 * 1024);
        assert_eq!(p.gpu_chunk_capacity(0, 0), 0);
    }

    #[test]
    fn mem_fraction_override() {
        let p = Platform::paper_p100().with_gpu_mem_fraction(20, 0.25);
        assert_eq!(p.gpu(0).mem_bytes, (1 << 20) * 16 / 4);
    }

    #[test]
    fn multi_gpu_counts() {
        assert_eq!(Platform::quad_p4_pcie().num_gpus(), 4);
        assert_eq!(Platform::quad_v100_nvlink().num_gpus(), 4);
    }

    #[test]
    fn with_devices_replicates_device_zero() {
        let p = Platform::scaled_paper_p100(12).with_devices(3);
        assert_eq!(p.num_gpus(), 3);
        assert_eq!(p.gpus.len(), p.links.len());
        assert_eq!(p.gpu(2), p.gpu(0));
        assert_eq!(p.link(2), p.link(0));
        // Single-device "fleet" keeps the original name.
        let one = Platform::paper_p100().with_devices(1);
        assert_eq!(one.name, Platform::paper_p100().name);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn with_devices_rejects_zero() {
        let _ = Platform::paper_p100().with_devices(0);
    }
}
