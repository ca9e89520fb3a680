//! Quantum circuit representation for the Q-GPU simulator.
//!
//! This crate contains everything the simulator needs to *describe* a
//! computation, independent of how it is executed:
//!
//! * [`Gate`] and [`Operation`] — the gate set and its unitary matrices,
//! * [`Circuit`] — an ordered list of operations with builder methods,
//! * [`dag::GateDag`] — the dependency DAG used by gate reordering,
//! * [`involvement`] — qubit-involvement analysis (the basis of
//!   zero-amplitude pruning, paper §IV-B),
//! * [`noise`] — seeded Pauli/depolarizing/loss noise channels that
//!   rewrite a circuit into a deterministic noisy trajectory,
//! * [`qasm`] — OpenQASM 2.0 emission and parsing,
//! * [`generators`] — the nine benchmark circuits of Table I plus the deep
//!   random circuits of Table III.
//!
//! # Examples
//!
//! Build a Bell pair by hand:
//!
//! ```
//! use qgpu_circuit::Circuit;
//!
//! let mut c = Circuit::new(2);
//! c.h(0).cx(0, 1);
//! assert_eq!(c.len(), 2);
//! assert_eq!(c.depth(), 2);
//! ```
//!
//! Or generate a paper benchmark:
//!
//! ```
//! use qgpu_circuit::generators::Benchmark;
//!
//! let qft = Benchmark::Qft.generate(10);
//! assert_eq!(qft.num_qubits(), 10);
//! ```

pub mod access;
pub mod circuit;
pub mod dag;
pub mod fuse;
pub mod gate;
pub mod generators;
pub mod involvement;
pub mod noise;
pub mod qasm;

pub use circuit::Circuit;
pub use gate::{Gate, Matrix, Operation};
pub use noise::NoiseConfig;
