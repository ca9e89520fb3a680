//! Math utilities for the Q-GPU quantum circuit simulator.
//!
//! This crate provides the low-level numeric building blocks shared by the
//! rest of the workspace:
//!
//! * [`Complex64`] — a `f64`-based complex number with the arithmetic needed
//!   by state-vector simulation (no external `num` dependency),
//! * [`bits`] — bit-manipulation helpers used by gate kernels and chunk
//!   indexing (inserting zero bits, masks, log2 helpers),
//! * [`isa`] — the CPU-feature probe that picks, once per process, which
//!   instantiation of a twice-compiled hot loop runs,
//! * [`mem`] — page sizes and the huge-page advice for lazily zeroed
//!   state memory,
//! * [`rng`] — the pure splitmix64 keyed-draw primitive behind every
//!   stochastic decision in the workspace (faults, noise, collapse,
//!   sampling),
//! * [`stats`] — small online statistics and histogram types used by the
//!   experiment harness.
//!
//! # Examples
//!
//! ```
//! use qgpu_math::Complex64;
//!
//! let h = Complex64::new(std::f64::consts::FRAC_1_SQRT_2, 0.0);
//! let amp = h * Complex64::ONE;
//! assert!((amp.norm_sqr() - 0.5).abs() < 1e-12);
//! ```

pub mod bits;
pub mod complex;
pub mod isa;
pub mod mem;
pub mod reduce;
pub mod rng;
pub mod stats;

pub use complex::Complex64;
