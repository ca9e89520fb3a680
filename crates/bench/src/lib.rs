//! Benchmark harness for the Q-GPU reproduction.
//!
//! This crate ships:
//!
//! * the **`repro` binary** — regenerates every table and figure of the
//!   paper's evaluation (`cargo run -p qgpu-bench --bin repro -- list`);
//! * **Criterion microbenchmarks** — gate kernels, GFC compression,
//!   reorder passes, and end-to-end version comparisons
//!   (`cargo bench -p qgpu-bench`);
//! * **overhead guards** — `*_overhead` benches that hold a feature's
//!   zero-fault cost to a budget, all through one A/B runner ([`guard`]).
//!
//! End-to-end performance is measured by the `benchmark/` harness alone
//! (see `benchmark/README.md`). The library portion hosts shared helpers
//! for the benches.

pub mod guard;

use qgpu_circuit::generators::Benchmark;
use qgpu_circuit::Circuit;
use qgpu_math::Complex64;
use qgpu_statevec::StateVector;

/// Standard bench circuit: small enough for Criterion iteration counts.
pub fn bench_circuit(b: Benchmark, qubits: usize) -> Circuit {
    b.generate(qubits)
}

/// A deterministic non-trivial state for kernel benchmarks: the given
/// benchmark circuit fully applied.
pub fn bench_state(b: Benchmark, qubits: usize) -> StateVector {
    let c = b.generate(qubits);
    let mut s = StateVector::new_zero(qubits);
    s.run(&c);
    s
}

/// Deterministic pseudo-random amplitude buffer (for compression benches).
pub fn noise_amplitudes(len: usize, seed: u64) -> Vec<Complex64> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state as f64 / u64::MAX as f64) - 0.5
    };
    (0..len).map(|_| Complex64::new(next(), next())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_are_deterministic() {
        assert_eq!(noise_amplitudes(16, 3), noise_amplitudes(16, 3));
        let a = bench_state(Benchmark::Gs, 8);
        let b = bench_state(Benchmark::Gs, 8);
        assert!(a.max_deviation(&b) < 1e-15);
    }

    #[test]
    fn noise_is_nonzero() {
        let amps = noise_amplitudes(64, 7);
        assert!(amps.iter().all(|a| !a.is_zero()));
    }
}
