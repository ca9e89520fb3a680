//! Hidden linear function circuits (Bravyi, Gosset, König).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::Benchmark;
use crate::circuit::Circuit;

/// The 2D hidden linear function circuit: `H^{⊗n} · U_q · H^{⊗n}` where
/// `U_q` applies `CZ` on the edges of a sparse grid-like adjacency matrix
/// and `S` on qubits with a diagonal entry.
///
/// Like `gs`, the opening Hadamard layer commutes with most of the
/// diagonal middle section, giving moderate reordering potential (the
/// paper reports 33% of operations before full involvement).
///
/// # Panics
///
/// Panics if `n < 2`.
///
/// # Examples
///
/// ```
/// use qgpu_circuit::generators::hidden_linear_function;
///
/// let c = hidden_linear_function(9, 5);
/// assert_eq!(c.num_qubits(), 9);
/// ```
pub fn hidden_linear_function(n: usize, seed: u64) -> Circuit {
    Benchmark::Hlf.check_size(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::with_name(n, format!("hlf_{n}"));

    for q in 0..n {
        c.h(q);
    }
    // Grid edges with probability 1/2 (the problem's random symmetric
    // adjacency restricted to a 2D grid).
    let cols = (n as f64).sqrt().ceil() as usize;
    for q in 0..n {
        let right = q + 1;
        if right < n && right % cols != 0 && rng.gen_bool(0.5) {
            c.cz(q, right);
        }
        let down = q + cols;
        if down < n && rng.gen_bool(0.5) {
            c.cz(q, down);
        }
    }
    // Diagonal entries -> S gates.
    for q in 0..n {
        if rng.gen_bool(0.5) {
            c.s(q);
        }
    }
    for q in 0..n {
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
        let c = hidden_linear_function(10, 2);
        assert_eq!(involvement_sequence(&c).last(), Some(&full_mask(10)));
    }

    #[test]
    fn moderate_involvement_fraction() {
        let s = summarize(&hidden_linear_function(25, 1));
        // Opening H layer of n ops out of ~2n + edges + S ops: 25-45%.
        assert!(
            s.percentage > 20.0 && s.percentage < 55.0,
            "got {:.1}%",
            s.percentage
        );
    }

    #[test]
    fn sandwich_structure() {
        let c = hidden_linear_function(8, 3);
        // First and last ops are Hadamards.
        assert_eq!(c.ops()[0].gate().name(), "h");
        assert_eq!(c.ops()[c.len() - 1].gate().name(), "h");
    }

    #[test]
    fn deterministic_for_seed() {
        assert_eq!(hidden_linear_function(12, 7), hidden_linear_function(12, 7));
    }
}
