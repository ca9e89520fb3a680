//! Quantum Fourier transform circuits.

use std::f64::consts::PI;

use super::Benchmark;
use crate::circuit::Circuit;

/// The full `n`-qubit quantum Fourier transform.
///
/// Uses the textbook construction: for each target qubit from the most
/// significant down, a Hadamard followed by controlled phases from every
/// lower qubit, then a final layer of swaps that reverses the qubit order.
///
/// The first Hadamard-plus-rotations block touches *every* qubit, so all
/// qubits are involved after `n` operations — the reason `qft` has one of
/// the smallest pruning potentials in the paper's Table II.
///
/// # Panics
///
/// Panics if `n < 2`.
///
/// # Examples
///
/// ```
/// use qgpu_circuit::generators::quantum_fourier_transform;
///
/// let c = quantum_fourier_transform(4);
/// // n Hadamards + n(n-1)/2 controlled phases + n/2 swaps.
/// assert_eq!(c.len(), 4 + 6 + 2);
/// ```
pub fn quantum_fourier_transform(n: usize) -> Circuit {
    quantum_fourier_transform_approx(n, n)
}

/// Approximate QFT: controlled phases with angle below `π/2^degree` are
/// dropped.
///
/// `degree >= n` gives the exact QFT. Approximation bounds the number of
/// rotations per qubit, which is how large-scale QFT circuits are built in
/// practice.
///
/// # Panics
///
/// Panics if `n < 2` or `degree == 0`.
pub fn quantum_fourier_transform_approx(n: usize, degree: usize) -> Circuit {
    Benchmark::Qft.check_size(n);
    assert!(degree >= 1, "approximation degree must be at least 1");
    let mut c = Circuit::with_name(n, format!("qft_{n}"));
    for target in (0..n).rev() {
        c.h(target);
        for k in (0..target).rev() {
            let distance = target - k;
            if distance >= degree {
                break;
            }
            c.cp(PI / (1u64 << distance) as f64, k, target);
        }
    }
    for q in 0..n / 2 {
        c.swap(q, n - 1 - q);
    }
    c
}

/// The inverse quantum Fourier transform: [`quantum_fourier_transform`]
/// inverted exactly (reversed gate order, negated phases).
///
/// # Panics
///
/// Panics if `n < 2`.
///
/// # Examples
///
/// ```
/// use qgpu_circuit::generators::{quantum_fourier_transform, quantum_fourier_transform_inverse};
///
/// let qft = quantum_fourier_transform(4);
/// let inv = quantum_fourier_transform_inverse(4);
/// assert_eq!(qft.len(), inv.len());
/// ```
pub fn quantum_fourier_transform_inverse(n: usize) -> Circuit {
    let mut c = quantum_fourier_transform(n).inverse();
    c.set_name(format!("qft_dg_{n}"));
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::involvement::ops_until_full_involvement;

    #[test]
    fn exact_qft_op_count() {
        let n = 10;
        let c = quantum_fourier_transform(n);
        assert_eq!(c.len(), n + n * (n - 1) / 2 + n / 2);
    }

    #[test]
    fn early_full_involvement() {
        // All qubits are involved after the first H + rotation block.
        let n = 16;
        let c = quantum_fourier_transform(n);
        assert_eq!(ops_until_full_involvement(&c), n);
    }

    #[test]
    fn approximation_truncates_rotations() {
        let exact = quantum_fourier_transform_approx(12, 12);
        let approx = quantum_fourier_transform_approx(12, 4);
        assert!(approx.len() < exact.len());
        // Still touches all qubits.
        assert_eq!(
            crate::involvement::involvement_sequence(&approx).last(),
            Some(&crate::involvement::full_mask(12))
        );
    }

    #[test]
    fn inverse_qft_mirrors_qft_structurally() {
        // Functional identity is verified in the integration tests
        // (statevec is not a dependency here); structurally the inverse
        // is the reversed, gate-inverted sequence.
        let n = 5;
        let qft = quantum_fourier_transform(n);
        let inv = quantum_fourier_transform_inverse(n);
        assert_eq!(inv.len(), qft.len());
        for (a, b) in inv.iter().zip(qft.iter().rev()) {
            assert_eq!(a.qubits(), b.qubits());
            assert_eq!(a.gate(), b.gate().inverse());
        }
    }

    #[test]
    fn smallest_qft() {
        let c = quantum_fourier_transform(2);
        // h, cp, h, swap.
        assert_eq!(c.len(), 4);
    }
}
