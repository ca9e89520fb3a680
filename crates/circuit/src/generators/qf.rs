//! Quadratic form circuits (Grover adaptive search building block).

use std::f64::consts::PI;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::Benchmark;
use crate::circuit::Circuit;

/// A quadratic-form circuit: computes `Q(x) = x^T A x + b^T x` over binary
/// variables into a result register via phase arithmetic, QFT-style.
///
/// Layout: the first `n - m` qubits are the input register, the last
/// `m = max(3, n/4)` qubits are the result register. The circuit applies
/// Hadamards everywhere, phase rotations implementing the linear and
/// (sparse) quadratic terms against the Fourier-encoded result register,
/// and closes with an inverse QFT on the result. All registers are touched
/// within the opening layers, so `qf` involves all qubits early — the
/// paper's Table II reports only 7.21% of operations before full
/// involvement.
///
/// # Panics
///
/// Panics if `n < 4`.
///
/// # Examples
///
/// ```
/// use qgpu_circuit::generators::quadratic_form;
///
/// let c = quadratic_form(10, 1);
/// assert_eq!(c.num_qubits(), 10);
/// ```
pub fn quadratic_form(n: usize, seed: u64) -> Circuit {
    Benchmark::Qf.check_size(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let m = (n / 4).max(3); // result register width
    let k = n - m; // input register width
    let mut c = Circuit::with_name(n, format!("qf_{n}"));

    // Superpose inputs and Fourier-prepare the result register.
    for q in 0..k {
        c.h(q);
    }
    for r in 0..m {
        c.h(k + r);
    }

    // Linear terms b_i: controlled phases from each input onto each
    // result bit, with the usual 2^j weighting.
    for i in 0..k {
        let b = rng.gen_range(1..4) as f64;
        for j in 0..m {
            let theta = 2.0 * PI * b * (1u64 << j) as f64 / (1u64 << m) as f64;
            c.cp(theta, i, k + j);
        }
    }

    // Sparse quadratic terms A_ij: doubly-controlled phases, decomposed.
    let quad_terms = k / 2;
    for _ in 0..quad_terms {
        let i = rng.gen_range(0..k);
        let j = rng.gen_range(0..k);
        if i == j {
            continue;
        }
        let a = rng.gen_range(1..3) as f64;
        // Apply against the least significant result bit only (sparse form).
        let theta = 2.0 * PI * a / (1u64 << m) as f64;
        c.ccp(theta, i.min(j), i.max(j), k);
    }

    // Inverse QFT on the result register.
    for target in 0..m {
        for kk in 0..target {
            let theta = -PI / (1u64 << (target - kk)) as f64;
            c.cp(theta, k + kk, k + target);
        }
        c.h(k + target);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::involvement::{full_mask, involvement_sequence, summarize};

    #[test]
    fn touches_all_qubits() {
        let c = quadratic_form(12, 4);
        assert_eq!(involvement_sequence(&c).last(), Some(&full_mask(12)));
    }

    #[test]
    fn early_involvement() {
        let s = summarize(&quadratic_form(20, 1));
        assert!(
            s.percentage < 25.0,
            "qf involves early: {:.1}%",
            s.percentage
        );
    }

    #[test]
    fn registers_partitioned() {
        // Result register is at least 3 qubits wide.
        let c = quadratic_form(8, 2);
        assert_eq!(c.num_qubits(), 8);
        assert!(c.len() > 20);
    }

    #[test]
    fn deterministic_for_seed() {
        assert_eq!(quadratic_form(10, 6), quadratic_form(10, 6));
    }
}
