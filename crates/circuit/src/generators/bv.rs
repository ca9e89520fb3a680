//! Bernstein–Vazirani circuits.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::Benchmark;
use crate::circuit::Circuit;

/// The Bernstein–Vazirani circuit for a random secret string.
///
/// Qubit `n-1` is the oracle ancilla (prepared in |−⟩); the rest are the
/// input register. The oracle is a CX from every secret-bit qubit onto the
/// ancilla, sandwiched between Hadamard layers.
///
/// # Panics
///
/// Panics if `n < 2`.
///
/// # Examples
///
/// ```
/// use qgpu_circuit::generators::bernstein_vazirani;
///
/// let c = bernstein_vazirani(8, 3);
/// assert_eq!(c.num_qubits(), 8);
/// ```
pub fn bernstein_vazirani(n: usize, seed: u64) -> Circuit {
    Benchmark::Bv.check_size(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let anc = n - 1;
    let mut c = Circuit::with_name(n, format!("bv_{n}"));

    for q in 0..anc {
        c.h(q);
    }
    c.x(anc).h(anc);

    // Oracle: secret has each bit set with probability 1/2 (at least one).
    let mut any = false;
    for q in 0..anc {
        if rng.gen_bool(0.5) {
            c.cx(q, anc);
            any = true;
        }
    }
    if !any {
        c.cx(0, anc);
    }

    for q in 0..anc {
        c.h(q);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::involvement::{full_mask, involvement_sequence, summarize};

    #[test]
    fn touches_all_qubits() {
        let c = bernstein_vazirani(10, 8);
        assert_eq!(involvement_sequence(&c).last(), Some(&full_mask(10)));
    }

    #[test]
    fn ancilla_involved_after_input_layer() {
        let c = bernstein_vazirani(16, 1);
        let s = summarize(&c);
        // Full involvement right after the opening layer: n-1 H + X on
        // the ancilla = n ops out of ~2.5n-3.5n total.
        assert_eq!(s.ops_before_full, 16);
        assert!(s.percentage > 20.0 && s.percentage < 50.0);
    }

    #[test]
    fn oracle_never_empty() {
        // Even a secret of all zeros gets a fallback CX.
        for seed in 0..20 {
            let c = bernstein_vazirani(4, seed);
            assert!(c.ops().iter().any(|op| op.gate().name() == "cx"));
        }
    }

    #[test]
    fn deterministic_for_seed() {
        assert_eq!(bernstein_vazirani(12, 9), bernstein_vazirani(12, 9));
    }
}
