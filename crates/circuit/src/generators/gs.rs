//! Graph state preparation circuits.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::Benchmark;
use crate::circuit::Circuit;

/// Prepares a graph state: a Hadamard on every qubit followed by an
/// entangling gate per edge of a sparse random graph.
///
/// Mirrors the paper's `gs_5` walk-through (Figure 8), which uses a
/// Hadamard layer followed by tree-structured CNOTs: we use a random
/// spanning tree plus a few extra chords, entangling with CNOT as in the
/// figure. Because the H layer and the entangling layer interleave freely
/// in the dependency DAG, `gs` is the showcase circuit for
/// forward-looking reordering.
///
/// # Panics
///
/// Panics if `n < 2`.
///
/// # Examples
///
/// ```
/// use qgpu_circuit::generators::graph_state;
///
/// let c = graph_state(5, 7);
/// assert_eq!(c.num_qubits(), 5);
/// // n Hadamards + (n-1) tree edges + chords.
/// assert!(c.len() >= 9);
/// ```
pub fn graph_state(n: usize, seed: u64) -> Circuit {
    Benchmark::Gs.check_size(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::with_name(n, format!("gs_{n}"));
    for q in 0..n {
        c.h(q);
    }
    // Random spanning tree: attach each qubit to an earlier one.
    for q in 1..n {
        let parent = rng.gen_range(0..q);
        c.cx(parent, q);
    }
    // A few chord edges (~10% of n) for irregularity.
    let chords = n / 10;
    for _ in 0..chords {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            c.cz(a.min(b), a.max(b));
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::involvement::{full_mask, involvement_sequence, ops_until_full_involvement};

    #[test]
    fn touches_all_qubits() {
        let c = graph_state(12, 3);
        assert_eq!(involvement_sequence(&c).last(), Some(&full_mask(12)));
    }

    #[test]
    fn h_layer_dominates_involvement() {
        // Full involvement exactly at the end of the H layer.
        let c = graph_state(10, 1);
        assert_eq!(ops_until_full_involvement(&c), 10);
    }

    #[test]
    fn op_count_is_n_plus_tree() {
        let n = 20;
        let c = graph_state(n, 5);
        // n H + (n-1) CX + up to n/10 CZ chords.
        assert!(c.len() >= 2 * n - 1);
        assert!(c.len() <= 2 * n - 1 + n / 10);
    }

    #[test]
    fn deterministic_for_seed() {
        assert_eq!(graph_state(8, 42), graph_state(8, 42));
    }
}
