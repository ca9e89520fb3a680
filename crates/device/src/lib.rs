//! Discrete-event timing model of heterogeneous CPU + GPU nodes.
//!
//! # Why this crate exists
//!
//! The Q-GPU paper runs on real NVIDIA GPUs. This reproduction targets a
//! CPU-only machine, so the *hardware* is substituted by a model (see
//! `DESIGN.md`): every optimization in the paper changes **where bytes
//! move and which engines overlap**, and those effects are captured
//! exactly by a timeline with explicit engines:
//!
//! * the host CPU ([`Engine::Host`]),
//! * per-GPU compute ([`Engine::GpuCompute`]),
//! * per-GPU copy engines in each direction ([`Engine::H2d`],
//!   [`Engine::D2h`]) — the two CUDA streams of the paper's §IV-A.
//!
//! The functional simulation (crate `qgpu-statevec`) computes the *real*
//! amplitudes; the orchestrator (crate `qgpu`) walks the same chunk
//! schedule and charges each operation to this model. Absolute times are
//! calibrated from public spec sheets ([`specs`]), so the *shape* of the
//! paper's figures (who wins, crossovers) is reproduced, not the exact
//! seconds.
//!
//! # Examples
//!
//! ```
//! use qgpu_device::timeline::{Engine, TaskKind, Timeline};
//!
//! let mut tl = Timeline::new();
//! // An H2D copy followed by a dependent kernel on GPU 0.
//! let copy = tl.schedule(Engine::H2d(0), 0.0, 1e-3, TaskKind::H2dCopy, 1 << 20);
//! let kernel = tl.schedule(Engine::GpuCompute(0), copy.end, 5e-4, TaskKind::Kernel, 1 << 20);
//! assert_eq!(kernel.start, copy.end);
//! assert_eq!(tl.makespan(), copy.end + 5e-4);
//! ```

pub mod gantt;
pub mod report;
pub mod roofline;
pub mod specs;
pub mod timeline;
pub mod topology;

pub use report::{Counter, ExecutionReport};
pub use specs::{CodecClass, GpuSpec, HostSpec, LinkSpec};
pub use timeline::{Engine, Lanes, Span, TaskKind, Timeline};
pub use topology::Platform;
