//! Linear hydrogen-chain (quantum chemistry) circuits.

use std::f64::consts::PI;

use super::Benchmark;
use crate::circuit::Circuit;

/// A Trotterized time-evolution circuit for a linear chain of hydrogen
/// atoms under a nearest-neighbour hopping + on-site Hamiltonian
/// (Jordan–Wigner mapped).
///
/// This mirrors the structural properties the paper relies on: `hchain` is
/// by far the *deepest* benchmark, entangles neighbouring qubits early,
/// and its dense dependency chains leave little room for reordering
/// (paper §V-A: "for hchain and rqc, reordering cannot enlarge the pruning
/// potential due to dependent gates").
///
/// Per Trotter step and per bond `(i, i+1)` the circuit applies the
/// exponentials of `XX` and `YY` (hopping) via the standard CX–RZ–CX
/// sandwich, plus on-site `RZ` terms.
///
/// # Panics
///
/// Panics if `n < 2` or `trotter_steps == 0`.
///
/// # Examples
///
/// ```
/// use qgpu_circuit::generators::hydrogen_chain;
///
/// let c = hydrogen_chain(6, 2);
/// assert!(c.depth() > 20, "hchain is deep");
/// ```
pub fn hydrogen_chain(n: usize, trotter_steps: usize) -> Circuit {
    Benchmark::Hchain.check_size(n);
    assert!(trotter_steps >= 1, "need at least one Trotter step");
    let mut c = Circuit::with_name(n, format!("hchain_{n}"));

    // Hartree–Fock-like reference state: occupy alternating sites.
    for q in (0..n).step_by(2) {
        c.x(q);
    }

    let dt = 0.1;
    for step in 0..trotter_steps {
        let theta = dt * (1.0 + 0.1 * step as f64);
        for i in 0..n - 1 {
            // exp(-i θ XX/2): rotate into X basis, entangle, rotate back.
            c.h(i).h(i + 1);
            c.cx(i, i + 1);
            c.rz(theta, i + 1);
            c.cx(i, i + 1);
            c.h(i).h(i + 1);
            // exp(-i θ YY/2): rotate into Y basis.
            c.sdg(i).h(i).sdg(i + 1).h(i + 1);
            c.cx(i, i + 1);
            c.rz(theta, i + 1);
            c.cx(i, i + 1);
            c.h(i).s(i).h(i + 1).s(i + 1);
        }
        // On-site terms.
        for q in 0..n {
            c.rz(PI * 0.05 * (q % 3 + 1) as f64, q);
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::involvement::{full_mask, involvement_sequence, summarize};

    #[test]
    fn touches_all_qubits() {
        let c = hydrogen_chain(10, 2);
        assert_eq!(involvement_sequence(&c).last(), Some(&full_mask(10)));
    }

    #[test]
    fn deep_circuit() {
        let c = hydrogen_chain(8, 4);
        assert!(c.depth() > 50, "depth = {}", c.depth());
    }

    #[test]
    fn involvement_grows_gradually() {
        // Bonds are processed left to right, so the last qubit joins
        // during the first Trotter step — a modest percentage like the
        // paper's 15%.
        let s = summarize(&hydrogen_chain(20, 4));
        assert!(
            s.percentage > 3.0 && s.percentage < 40.0,
            "got {:.1}%",
            s.percentage
        );
    }

    #[test]
    fn op_count_scales_with_steps() {
        let c1 = hydrogen_chain(10, 1);
        let c3 = hydrogen_chain(10, 3);
        assert!(c3.len() > 2 * c1.len());
    }
}
