//! The block-structured kernels against the per-index loop they replaced
//! ([`qgpu_statevec::reference::apply_action_per_index`]), bit for bit:
//! every slice length from 2 to 2^10, bases on and off block boundaries,
//! operand qubits below, at and above the slice boundary, and amplitudes
//! that include signed zeros, subnormals, infinities and NaN — the values
//! on which `x·1`, `x + 0.0` and `0·∞` stop being identities.

use qgpu_circuit::access::GateAction;
use qgpu_circuit::{Gate, Matrix, Operation};
use qgpu_math::Complex64;
use qgpu_statevec::reference::apply_action_per_index;
use qgpu_statevec::{kernels, ChunkExecutor, ChunkedState, StateVector};

/// xorshift64*: a seeded stream, so a failing case replays.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// One component in four is a value ordinary arithmetic never shows.
    fn component(&mut self) -> f64 {
        const SPECIAL: [f64; 8] = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 4.0,
            -5e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MAX,
        ];
        match self.next() % 4 {
            0 => SPECIAL[(self.next() % 8) as usize],
            _ => self.unit(),
        }
    }

    fn amps(&mut self, len: usize) -> Vec<Complex64> {
        let mut c = || Complex64::new(self.component(), self.component());
        (0..len).map(|_| c()).collect()
    }

    fn matrix(&mut self, dim: usize) -> Matrix {
        let mut c = || Complex64::new(self.unit(), self.unit());
        Matrix::new(dim, (0..dim * dim).map(|_| c()).collect())
    }
}

/// Bit equality, except that any NaN equals any NaN: IEEE 754 leaves a
/// NaN result's sign and payload to the implementation, and the compiler
/// may commute the operands they are inherited from.
fn assert_same(got: &[Complex64], want: &[Complex64], case: impl Fn() -> String) {
    let same = |x: f64, y: f64| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            same(g.re, w.re) && same(g.im, w.im),
            "{}: amplitude {i} is {g:?}, the per-index loop gives {w:?}",
            case()
        );
    }
}

/// `kernels::apply_action` against the oracle on one random slice.
fn check(rng: &mut Rng, len: usize, base: usize, action: &GateAction) {
    let mut got = rng.amps(len);
    let mut want = got.clone();
    kernels::apply_action(&mut got, base, action);
    apply_action_per_index(&mut want, base, action);
    assert_same(&got, &want, || format!("len {len} base {base} {action:?}"));
}

fn dense(controls: &[usize], mixing: &[usize], matrix: &Matrix) -> GateAction {
    GateAction::ControlledDense {
        controls: controls.to_vec(),
        mixing: mixing.to_vec(),
        matrix: matrix.clone(),
    }
}

fn matrix_of(g: Gate, arity: usize) -> Matrix {
    let op = Operation::new(g, (0..arity).collect());
    match GateAction::from_operation(&op) {
        GateAction::ControlledDense { matrix, .. } => matrix,
        GateAction::Diagonal { .. } => panic!("{g:?} is diagonal"),
    }
}

#[test]
fn diagonal_runs_match_per_index_on_any_slice_and_base() {
    let mut rng = Rng(0x5EED_0001);
    // Phase tables with the entries that tempt a shortcut: exact 1, -1, i.
    let diagonal = |rng: &mut Rng, qubits: &[usize]| GateAction::Diagonal {
        qubits: qubits.to_vec(),
        dvec: (0..1usize << qubits.len())
            .map(|s| match s % 4 {
                0 => Complex64::ONE,
                1 => Complex64::cis(rng.unit() * 3.0),
                2 => -Complex64::ONE,
                _ => Complex64::I,
            })
            .collect(),
    };
    let positions = [0usize, 1, 2, 3, 5, 9, 10, 11, 13];
    for len in (2..=64).chain([100, 255, 256, 1000, 1024]) {
        for base in [0, 1, 7, len, 3 * len + 5, (1 << 12) | 6, 5 << 10] {
            for &q0 in &positions {
                let action = diagonal(&mut rng, &[q0]);
                check(&mut rng, len, base, &action);
                for &q1 in positions.iter().filter(|&&q| q != q0) {
                    let action = diagonal(&mut rng, &[q0, q1]);
                    check(&mut rng, len, base, &action);
                }
            }
            for qubits in [&[2, 0, 7][..], &[4, 12, 3, 9], &[10, 1, 0, 5, 11]] {
                let action = diagonal(&mut rng, qubits);
                check(&mut rng, len, base, &action);
            }
        }
    }
}

#[test]
fn dense_kernels_match_per_index_for_every_target_and_control() {
    let mut rng = Rng(0x5EED_0002);
    let swap = matrix_of(Gate::Swap, 2);
    for bits in 1..=10usize {
        let len = 1usize << bits;
        let (m2, m4, m8) = (rng.matrix(2), rng.matrix(4), rng.matrix(8));
        for target in 0..bits {
            // Controls up to two positions above the slice read the base.
            let others: Vec<usize> = (0..bits + 2).filter(|&c| c != target).collect();
            for m in [&m2, &matrix_of(Gate::X, 1), &matrix_of(Gate::H, 1)] {
                check(&mut rng, len, 0, &dense(&[], &[target], m));
                for &c0 in &others {
                    for base in [0, len, 2 * len, 3 * len] {
                        check(&mut rng, len, base, &dense(&[c0], &[target], m));
                    }
                    // A second control: next to the first, or at either end.
                    let near = |c: usize| c.abs_diff(c0) == 1 || c == 0 || c + 1 == bits;
                    for &c1 in others.iter().filter(|&&c| c != c0 && near(c)) {
                        check(&mut rng, len, 3 * len, &dense(&[c0, c1], &[target], m));
                    }
                }
            }
            for q1 in (0..bits).filter(|&q| q != target) {
                for m in [&swap, &m4] {
                    check(&mut rng, len, 0, &dense(&[], &[target, q1], m));
                }
                // One control, local or above the slice (both base bits).
                for c in (0..bits + 1).filter(|&c| c != target && c != q1) {
                    check(&mut rng, len, len, &dense(&[c], &[target, q1], &m4));
                    check(&mut rng, len, 0, &dense(&[c], &[target, q1], &m4));
                }
            }
        }
        if bits >= 4 {
            for mixing in [[0, 1, 2], [bits - 1, 0, 2], [1, bits - 2, bits - 1]] {
                let free = (0..bits).find(|q| !mixing.contains(q)).expect("bits >= 4");
                check(&mut rng, len, 0, &dense(&[], &mixing, &m8));
                check(&mut rng, len, 0, &dense(&[free], &mixing, &m8));
            }
        }
    }
}

/// The cross-chunk entry points see a group's member chunks as separate
/// slices; the oracle sees the same amplitudes as one flat slice whose
/// top bits tell the members apart.
#[test]
fn cross_chunk_entry_points_match_per_index_on_the_joined_slice() {
    let mut rng = Rng(0x5EED_0003);
    let swap = matrix_of(Gate::Swap, 2);
    for bits in 1..=9usize {
        let len = 1usize << bits;
        let (m2, m4) = (rng.matrix(2), rng.matrix(4));
        // Runs `kernel` on `parts` equal pieces of a random slice and the
        // oracle's `action` on the whole of it.
        let mut check_parts =
            |parts: usize, action: GateAction, kernel: &dyn Fn(Vec<&mut [Complex64]>)| {
                let mut want = rng.amps(parts * len);
                let mut got = want.clone();
                apply_action_per_index(&mut want, 0, &action);
                kernel(got.chunks_exact_mut(len).collect());
                assert_same(&got, &want, || {
                    format!("{parts} parts of {len}: {action:?}")
                });
            };
        // One high qubit: two members, the target (or one swap qubit) on top.
        for cmask in (0..len).filter(|c| c.count_ones() <= 2) {
            let controls: Vec<usize> = (0..bits).filter(|c| cmask >> c & 1 == 1).collect();
            check_parts(2, dense(&controls, &[bits], &m2), &|mut p| {
                let (hi, lo) = (p.pop().expect("two"), p.pop().expect("two"));
                kernels::apply_1q_halves(lo, hi, cmask, &m2);
            });
        }
        for low in 0..bits {
            for (m, low_first) in [(&swap, true), (&m4, true), (&m4, false)] {
                let mixing = if low_first { [low, bits] } else { [bits, low] };
                check_parts(2, dense(&[], &mixing, m), &|mut p| {
                    let (h1, h0) = (p.pop().expect("two"), p.pop().expect("two"));
                    kernels::apply_2q_halves(h0, h1, low, low_first, m);
                });
            }
        }
        // Two high qubits: four members, in either matrix order (basis
        // index bit 0 ↔ mixing[0], so the orders differ in pieces 1 and 2).
        for mixing in [[bits, bits + 1], [bits + 1, bits]] {
            check_parts(4, dense(&[], &mixing, &m4), &|p| {
                let [s0, s1, s2, s3]: [&mut [Complex64]; 4] = p.try_into().expect("four");
                let quarters = if mixing[0] == bits {
                    [s0, s1, s2, s3]
                } else {
                    [s0, s2, s1, s3]
                };
                kernels::apply_2q_quarters(quarters, &m4);
            });
        }
    }
}

/// End to end through the executor: every gate shape on a chunked state
/// (no chunk sparse, so nothing is skipped) at every chunk size, and on a
/// flat state split over workers, lands on the oracle's bits.
#[test]
fn executor_paths_match_per_index_at_every_chunk_size_and_thread_count() {
    use Gate::{Ccx, Cp, Cx, Cy, Rx, Rzz, Swap, H};
    let mut rng = Rng(0x5EED_0004);
    let gates = [H, Rx(0.3), Cx, Cy, Ccx, Swap, Cp(0.7), Rzz(1.1)];
    // 7 qubits through the chunked path (no workers); 15 through
    // `apply_flat`, which splits above 2^14 amplitudes.
    let small: (usize, &[[usize; 3]], &[usize]) = (
        7,
        &[[6, 0, 4], [1, 5, 6], [5, 6, 0], [3, 2, 1], [0, 6, 5]],
        &[],
    );
    let big = (15, &[[14, 0, 3], [3, 13, 1]][..], &[2, 3, 4][..]);
    for (n, orders, workers) in [small, big] {
        for (g, order) in gates
            .iter()
            .flat_map(|g| orders.iter().map(move |o| (*g, o)))
        {
            let op = Operation::new(g, order[..g.arity()].to_vec());
            let action = GateAction::from_operation(&op);
            let start = rng.amps(1 << n);
            let mut want = start.clone();
            apply_action_per_index(&mut want, 0, &action);
            for &threads in workers {
                let mut got = start.clone();
                ChunkExecutor::with_exact_threads(threads).apply_flat(&mut got, &action);
                assert_same(&got, &want, || format!("{op} on {threads} workers"));
            }
            for chunk_bits in (1..=n as u32).filter(|_| workers.is_empty()) {
                let flat = StateVector::from_amplitudes(start.clone());
                let mut chunked = ChunkedState::from_flat(&flat, chunk_bits);
                // (An all-zero chunk would be skipped, not multiplied.)
                if chunked.dense_chunk_count() == chunked.num_chunks() {
                    chunked.apply_action(&action);
                    let got = chunked.to_flat();
                    assert_same(got.amps(), &want, || {
                        format!("{op}, chunk_bits {chunk_bits}")
                    });
                }
            }
        }
    }
}
