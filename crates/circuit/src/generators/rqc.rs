//! Google-style random quantum circuits.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::Benchmark;
use crate::circuit::Circuit;

/// A random quantum circuit in the style of Boixo et al., mapped onto a
/// near-square 2D grid.
///
/// Per cycle, a staggered pattern of CZ gates couples neighbouring grid
/// sites, and every qubit that just participated in a CZ receives a random
/// single-qubit gate from {√X, √Y, T}. A qubit's opening Hadamard is
/// emitted immediately before its first two-qubit gate, so involvement
/// grows gradually over the first cycles (the paper's Table II reports
/// 43.5% of `rqc` operations before full involvement).
///
/// # Panics
///
/// Panics if `n < 2` or `cycles == 0`.
///
/// # Examples
///
/// ```
/// use qgpu_circuit::generators::random_quantum_circuit;
///
/// let c = random_quantum_circuit(12, 4, 1);
/// assert_eq!(c.num_qubits(), 12);
/// ```
pub fn random_quantum_circuit(n: usize, cycles: usize, seed: u64) -> Circuit {
    Benchmark::Rqc.check_size(n);
    assert!(cycles >= 1, "rqc needs at least one cycle");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::with_name(n, format!("rqc_{n}"));

    // Map qubits onto a rows × cols grid.
    let cols = (n as f64).sqrt().ceil() as usize;
    let site = |r: usize, col: usize| r * cols + col;
    let rows = n.div_ceil(cols);

    let mut hadamarded = vec![false; n];
    let ensure_h = |c: &mut Circuit, q: usize, hadamarded: &mut Vec<bool>| {
        if !hadamarded[q] {
            c.h(q);
            hadamarded[q] = true;
        }
    };

    for cycle in 0..cycles {
        // Staggered CZ pattern: alternate horizontal / vertical, even/odd.
        let mut touched: Vec<usize> = Vec::new();
        match cycle % 4 {
            0 | 2 => {
                // Horizontal pairs, offset alternates.
                let offset = (cycle / 2) % 2;
                for r in 0..rows {
                    let mut col = offset;
                    while col + 1 < cols {
                        let (a, b) = (site(r, col), site(r, col + 1));
                        if a < n && b < n {
                            ensure_h(&mut c, a, &mut hadamarded);
                            ensure_h(&mut c, b, &mut hadamarded);
                            c.cz(a, b);
                            touched.push(a);
                            touched.push(b);
                        }
                        col += 2;
                    }
                }
            }
            _ => {
                // Vertical pairs.
                let offset = (cycle / 2) % 2;
                for col in 0..cols {
                    let mut r = offset;
                    while r + 1 < rows {
                        let (a, b) = (site(r, col), site(r + 1, col));
                        if a < n && b < n {
                            ensure_h(&mut c, a, &mut hadamarded);
                            ensure_h(&mut c, b, &mut hadamarded);
                            c.cz(a, b);
                            touched.push(a);
                            touched.push(b);
                        }
                        r += 2;
                    }
                }
            }
        }
        // Random single-qubit gates on qubits that just interacted.
        for q in touched {
            match rng.gen_range(0..3) {
                0 => c.sx(q),
                1 => c.sy(q),
                _ => c.t(q),
            };
        }
    }
    // Any isolated qubit (possible on ragged grids) still gets involved.
    for (q, done) in hadamarded.iter().enumerate() {
        if !done {
            c.h(q);
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
        for n in [5, 9, 12, 16] {
            let c = random_quantum_circuit(n, 4, 3);
            assert_eq!(
                involvement_sequence(&c).last(),
                Some(&full_mask(n)),
                "n = {n}"
            );
        }
    }

    #[test]
    fn gradual_involvement() {
        let s = summarize(&random_quantum_circuit(25, 4, 1));
        assert!(
            s.percentage > 15.0 && s.percentage < 80.0,
            "rqc involvement should be gradual, got {:.1}%",
            s.percentage
        );
    }

    #[test]
    fn cycles_scale_depth() {
        let shallow = random_quantum_circuit(16, 2, 5);
        let deep = random_quantum_circuit(16, 16, 5);
        assert!(deep.len() > 4 * shallow.len() / 2);
        assert!(deep.depth() > shallow.depth());
    }

    #[test]
    fn deterministic_for_seed() {
        assert_eq!(
            random_quantum_circuit(10, 4, 2),
            random_quantum_circuit(10, 4, 2)
        );
    }
}
