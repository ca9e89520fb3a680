//! QAOA MaxCut circuits.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::Benchmark;
use crate::circuit::Circuit;

/// A `rounds`-level QAOA ansatz for MaxCut on a random 3-regular-ish
/// graph.
///
/// Structure: an opening Hadamard layer, then per round a `rzz(γ)` per
/// graph edge followed by an `rx(β)` per qubit. Every qubit is involved by
/// the end of the opening layer and the rounds repeat over the same dense
/// dependency structure, so `qaoa` gains almost nothing from pruning or
/// reordering (paper Figure 9) — but its smooth amplitude distribution
/// makes it the best compression target (paper Figure 10).
///
/// # Panics
///
/// Panics if `n < 2` or `rounds == 0`.
///
/// # Examples
///
/// ```
/// use qgpu_circuit::generators::qaoa_maxcut;
///
/// let c = qaoa_maxcut(10, 2, 3);
/// assert_eq!(c.num_qubits(), 10);
/// ```
pub fn qaoa_maxcut(n: usize, rounds: usize, seed: u64) -> Circuit {
    Benchmark::Qaoa.check_size(n);
    assert!(rounds >= 1, "qaoa needs at least one round");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::with_name(n, format!("qaoa_{n}"));

    // Random near-3-regular graph: ring + ~n/2 random chords.
    let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    for _ in 0..n / 2 {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && !edges.contains(&(a.min(b), a.max(b))) {
            edges.push((a.min(b), a.max(b)));
        }
    }

    for q in 0..n {
        c.h(q);
    }
    // Parameters fixed at the structured point (γ = π/4, β = π/2). At
    // these angles the layer unitaries map the state onto a discrete
    // amplitude set, so the state vector contains massively repeated
    // values — the spatial similarity behind the paper's Figure 10
    // compressibility finding for qaoa.
    let gamma = std::f64::consts::FRAC_PI_4;
    let beta = std::f64::consts::FRAC_PI_2;
    for _ in 0..rounds {
        for &(a, b) in &edges {
            c.rzz(2.0 * gamma, a, b);
        }
        for q in 0..n {
            c.rx(2.0 * beta, q);
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::involvement::{ops_until_full_involvement, summarize};

    #[test]
    fn involvement_completes_at_h_layer() {
        let c = qaoa_maxcut(12, 4, 1);
        assert_eq!(ops_until_full_involvement(&c), 12);
    }

    #[test]
    fn early_involvement_percentage() {
        let s = summarize(&qaoa_maxcut(20, 8, 2));
        assert!(
            s.percentage < 10.0,
            "qaoa involves early: {:.1}%",
            s.percentage
        );
    }

    #[test]
    fn rounds_scale_op_count() {
        let c1 = qaoa_maxcut(10, 1, 7);
        let c4 = qaoa_maxcut(10, 4, 7);
        assert!(c4.len() > 3 * c1.len() - 10);
    }

    #[test]
    fn deterministic_for_seed() {
        assert_eq!(qaoa_maxcut(9, 3, 11), qaoa_maxcut(9, 3, 11));
    }
}
