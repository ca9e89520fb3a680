//! Chunked full-state-vector storage and CPU gate kernels.
//!
//! This crate is the *functional* half of the Q-GPU simulator: it stores
//! the `2^n` complex amplitudes and updates them exactly, using `f64`
//! arithmetic. (The *timing* half — modelling where chunks live and what
//! data movement costs — is in `qgpu-device` and `qgpu-sched`; the
//! orchestrator in the `qgpu` crate drives both.)
//!
//! * [`StateVector`] — a flat amplitude vector with single-threaded and
//!   multi-threaded gate application; the reference implementation.
//! * [`ChunkedState`] — the paper's chunked layout (Figure 1): one array
//!   in which a chunk is a range of `2^chunk_bits` amplitudes, with
//!   all-zero chunks marked non-live and never touched (exactly what
//!   pruning exploits).
//! * [`ChunkExecutor`] — the shared worker pool that applies gate
//!   kernels (and fused runs) across disjoint chunks in parallel, with
//!   bit-exact results at every thread count.
//! * [`kernels`] — the low-level update routines shared by both layouts
//!   ([`mod@reference`] keeps the per-index loops they are checked against).
//! * [`measure`] — probabilities and sampling.
//!
//! # Examples
//!
//! ```
//! use qgpu_circuit::Circuit;
//! use qgpu_statevec::StateVector;
//!
//! let mut bell = Circuit::new(2);
//! bell.h(0).cx(0, 1);
//!
//! let mut state = StateVector::new_zero(2);
//! for op in bell.iter() {
//!     state.apply(op);
//! }
//! let probs = state.probabilities();
//! assert!((probs[0] - 0.5).abs() < 1e-12);
//! assert!((probs[3] - 0.5).abs() < 1e-12);
//! ```

pub mod chunked;
pub mod executor;
pub mod kernels;
pub mod measure;
pub mod reference;
pub mod state;

pub use chunked::ChunkedState;
pub use executor::ChunkExecutor;
pub use state::StateVector;
