//! Instantaneous quantum polynomial-time (IQP) circuits.

use std::f64::consts::PI;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::Benchmark;
use crate::circuit::Circuit;

/// An IQP circuit: `H^{⊗n} · D · H^{⊗n}` with `D` a random diagonal
/// operator built from `T`-power and controlled-phase gates.
///
/// Because every gate of `D` commutes, the instruction stream can be
/// emitted qubit-block by qubit-block: qubit `i`'s opening Hadamard is
/// placed immediately before its diagonal gates. Later qubits therefore
/// join the computation late — matching the paper's Table II, where `iqp`
/// reaches full involvement only after 90% of its operations, and making
/// it the best-case circuit for zero-amplitude pruning.
///
/// # Panics
///
/// Panics if `n < 2`.
///
/// # Examples
///
/// ```
/// use qgpu_circuit::generators::instantaneous_quantum_polynomial;
/// use qgpu_circuit::involvement::summarize;
///
/// let c = instantaneous_quantum_polynomial(16, 1);
/// let s = summarize(&c);
/// assert!(s.percentage > 60.0, "iqp involves qubits late");
/// ```
pub fn instantaneous_quantum_polynomial(n: usize, seed: u64) -> Circuit {
    Benchmark::Iqp.check_size(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::with_name(n, format!("iqp_{n}"));
    for i in 0..n {
        c.h(i);
        // Diagonal single-qubit part: a random power of T.
        let t_power = rng.gen_range(0..4);
        for _ in 0..t_power {
            c.t(i);
        }
        // Diagonal two-qubit part: controlled phases to ~2 earlier qubits.
        if i > 0 {
            let pairs = rng.gen_range(1..=2.min(i));
            for _ in 0..pairs {
                let j = rng.gen_range(0..i);
                let theta = PI / (1 << rng.gen_range(1..4)) as f64;
                c.cp(theta, j, i);
            }
        }
    }
    // Closing Hadamard layer.
    for i in 0..n {
        c.h(i);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::involvement::{full_mask, involvement_sequence, summarize};

    #[test]
    fn touches_all_qubits() {
        let c = instantaneous_quantum_polynomial(14, 9);
        assert_eq!(involvement_sequence(&c).last(), Some(&full_mask(14)));
    }

    #[test]
    fn late_involvement() {
        let s = summarize(&instantaneous_quantum_polynomial(20, 2));
        assert!(
            s.percentage > 60.0,
            "expected late involvement, got {:.1}%",
            s.percentage
        );
    }

    #[test]
    fn op_count_scales_linearly() {
        let c = instantaneous_quantum_polynomial(30, 3);
        // Between 2n (pure H layers) and ~7n.
        assert!(c.len() >= 60 && c.len() <= 210, "len = {}", c.len());
    }

    #[test]
    fn deterministic_for_seed() {
        assert_eq!(
            instantaneous_quantum_polynomial(10, 5),
            instantaneous_quantum_polynomial(10, 5)
        );
    }
}
