//! Q-GPU: a recipe of optimizations for quantum circuit simulation.
//!
//! This crate is the top of the workspace: it orchestrates the functional
//! simulator (`qgpu-statevec`), the scheduling machinery (`qgpu-sched`),
//! the GFC compressor (`qgpu-compress`) and the device timing model
//! (`qgpu-device`) into the six execution versions evaluated by the paper
//! (HPCA 2022):
//!
//! | Version | Adds |
//! |---|---|
//! | [`Version::Baseline`] | Qiskit-Aer-style static chunk allocation |
//! | [`Version::Naive`] | dynamic streaming of every chunk, serialized |
//! | [`Version::Overlap`] | proactive bidirectional transfer (§IV-A) |
//! | [`Version::Pruning`] | zero-amplitude chunk pruning (§IV-B) |
//! | [`Version::Reorder`] | forward-looking gate reordering (§IV-C) |
//! | [`Version::QGpu`] | GFC compression of non-zero chunks (§IV-D) |
//!
//! Every version produces the **identical final state** — only the modeled
//! timing differs. That invariant is what makes the recipe a set of pure
//! optimizations, and it is enforced by this crate's tests.
//!
//! # Examples
//!
//! ```
//! use qgpu::{SimConfig, Simulator, Version};
//! use qgpu_circuit::generators::Benchmark;
//!
//! let circuit = Benchmark::Gs.generate(10);
//! let config = SimConfig::scaled_paper(10).with_version(Version::QGpu);
//! let result = Simulator::new(config).run(&circuit);
//! assert!(result.report.total_time > 0.0);
//! let state = result.state.expect("state collected by default");
//! assert!((state.norm() - 1.0).abs() < 1e-9);
//! ```

pub mod checkpoint;
pub mod cli;
pub mod comparators;
pub mod config;
pub mod engine;
pub mod experiments;
pub mod result;

pub use checkpoint::Checkpoint;
pub use config::{FlightConfig, OptFlags, SimConfig, Version};
pub use engine::Simulator;
pub use qgpu_circuit::NoiseConfig;
pub use qgpu_compress::CodecKind;
pub use qgpu_faults::{FaultConfig, RetryPolicy, SimError};
pub use qgpu_sched::devicegroup::OrchestratorConfig;
pub use result::{ObsData, RunResult};
