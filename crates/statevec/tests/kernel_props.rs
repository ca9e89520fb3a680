//! The block-structured kernels against the per-index loop they replaced
//! ([`qgpu_statevec::reference::apply_action_per_index`]), bit for bit:
//! every slice length from 2 to 2^10, bases on and off block boundaries,
//! operand qubits below, at and above the slice boundary, and amplitudes
//! that include signed zeros, subnormals, infinities and NaN — the values
//! on which `x·1`, `x + 0.0` and `0·∞` stop being identities. Every
//! property runs through each instantiation of the kernel bodies this
//! CPU has (portable, and AVX-512 where detected).

use qgpu_circuit::access::GateAction;
use qgpu_circuit::{Gate, Matrix, Operation};
use qgpu_math::Complex64;
use qgpu_statevec::kernels::Kernels;
use qgpu_statevec::reference::apply_action_per_index;
use qgpu_statevec::{ChunkExecutor, ChunkedState, StateVector};

mod support;

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

/// Whether the CPU reports every feature of the wide instantiation
/// (asked directly, not through the probe under test).
fn cpu_has_wide() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        has!("avx512f") && has!("avx512cd") && has!("avx512vl") && has!("lzcnt")
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Every instantiation this CPU runs, portable first. Where the CPU has
/// the wide one's features it must be in the list, or its comparisons
/// would be skipped and read as passes.
fn instantiations() -> Vec<&'static Kernels> {
    let all: Vec<&Kernels> = std::iter::once(Kernels::portable())
        .chain(Kernels::wide())
        .collect();
    let names: Vec<&str> = all.iter().map(|k| k.name()).collect();
    let want: &[&str] = if cpu_has_wide() {
        &["portable", "avx512"]
    } else {
        &["portable"]
    };
    assert_eq!(names, want, "instantiations under test");
    all
}

/// One instantiation's `apply_action` against the oracle on one random
/// slice.
fn check(k: &Kernels, rng: &mut Rng, len: usize, base: usize, action: &GateAction) {
    check_on(k, rng.amps(len), base, action);
}

/// One instantiation's `apply_action` against the oracle on `amps`.
fn check_on(k: &Kernels, amps: Vec<Complex64>, base: usize, action: &GateAction) {
    let mut got = amps;
    let mut want = got.clone();
    k.apply_action(&mut got, base, action);
    apply_action_per_index(&mut want, base, action);
    assert_same(&got, &want, || {
        format!("{}: len {} base {base} {action:?}", k.name(), got.len())
    });
}

#[test]
fn the_widest_instantiation_the_cpu_has_is_the_one_that_runs() {
    let want = if cpu_has_wide() { "avx512" } else { "portable" };
    assert_eq!(Kernels::detected().name(), want);
    assert_eq!(qgpu_math::isa::wide(), cpu_has_wide());
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

/// A phase table with the entries that tempt a shortcut: exact 1, -1, i.
fn diagonal(rng: &mut Rng, qubits: &[usize]) -> GateAction {
    GateAction::Diagonal {
        qubits: qubits.to_vec(),
        dvec: (0..1usize << qubits.len())
            .map(|s| match s % 4 {
                0 => Complex64::ONE,
                1 => Complex64::cis(rng.unit() * 3.0),
                2 => -Complex64::ONE,
                _ => Complex64::I,
            })
            .collect(),
    }
}

#[test]
fn diagonal_runs_match_per_index_on_any_slice_and_base() {
    for k in instantiations() {
        let mut rng = Rng(0x5EED_0001);
        let positions = [0usize, 1, 2, 3, 5, 9, 10, 11, 13];
        for len in (2..=64).chain([100, 255, 256, 1000, 1024]) {
            for base in [0, 1, 7, len, 3 * len + 5, (1 << 12) | 6, 5 << 10] {
                for &q0 in &positions {
                    let action = diagonal(&mut rng, &[q0]);
                    check(k, &mut rng, len, base, &action);
                    for &q1 in positions.iter().filter(|&&q| q != q0) {
                        let action = diagonal(&mut rng, &[q0, q1]);
                        check(k, &mut rng, len, base, &action);
                    }
                }
                for qubits in [&[2, 0, 7][..], &[4, 12, 3, 9], &[10, 1, 0, 5, 11]] {
                    let action = diagonal(&mut rng, qubits);
                    check(k, &mut rng, len, base, &action);
                }
            }
        }
    }
}

/// Power-of-two slices at aligned bases, as chunks see them, through
/// every segment shape of the diagonal body: qubits only at or above the
/// 16-amplitude period (one factor per segment, segments from 16
/// amplitudes to the whole slice), only below it (one periodic table for
/// the whole slice), both (a table per segment), and above the slice
/// (read off the base).
#[test]
fn diagonal_segments_match_per_index_on_aligned_power_of_two_slices() {
    let shapes: [&[usize]; 12] = [
        &[4],
        &[5, 8],
        &[11, 12],
        &[13, 4, 20],
        &[0],
        &[2, 3],
        &[3, 1, 0],
        &[2, 4],
        &[3, 7, 1],
        &[0, 12],
        &[15, 2],
        &[1, 2, 3, 6, 9],
    ];
    for k in instantiations() {
        let mut rng = Rng(0x5EED_0005);
        for bits in 4..=13 {
            let len = 1usize << bits;
            for base in [0, len, 5 * len, (1 << 20) | (3 << 13)] {
                for qubits in shapes {
                    let action = diagonal(&mut rng, qubits);
                    check(k, &mut rng, len, base, &action);
                }
            }
        }
    }
}

#[test]
fn dense_kernels_match_per_index_for_every_target_and_control() {
    for k in instantiations() {
        let mut rng = Rng(0x5EED_0002);
        let swap = matrix_of(Gate::Swap, 2);
        for bits in 1..=10usize {
            let len = 1usize << bits;
            let (m2, m4, m8) = (rng.matrix(2), rng.matrix(4), rng.matrix(8));
            for target in 0..bits {
                // Controls up to two positions above the slice read the base.
                let others: Vec<usize> = (0..bits + 2).filter(|&c| c != target).collect();
                for m in [&m2, &matrix_of(Gate::X, 1), &matrix_of(Gate::H, 1)] {
                    check(k, &mut rng, len, 0, &dense(&[], &[target], m));
                    for &c0 in &others {
                        for base in [0, len, 2 * len, 3 * len] {
                            check(k, &mut rng, len, base, &dense(&[c0], &[target], m));
                        }
                        // A second control: next to the first, or at either end.
                        let near = |c: usize| c.abs_diff(c0) == 1 || c == 0 || c + 1 == bits;
                        for &c1 in others.iter().filter(|&&c| c != c0 && near(c)) {
                            let action = dense(&[c0, c1], &[target], m);
                            check(k, &mut rng, len, 3 * len, &action);
                        }
                    }
                }
                for q1 in (0..bits).filter(|&q| q != target) {
                    for m in [&swap, &m4] {
                        check(k, &mut rng, len, 0, &dense(&[], &[target, q1], m));
                    }
                    // One control, local or above the slice (both base bits).
                    for c in (0..bits + 1).filter(|&c| c != target && c != q1) {
                        check(k, &mut rng, len, len, &dense(&[c], &[target, q1], &m4));
                        check(k, &mut rng, len, 0, &dense(&[c], &[target, q1], &m4));
                    }
                }
            }
            if bits >= 4 {
                for mixing in [[0, 1, 2], [bits - 1, 0, 2], [1, bits - 2, bits - 1]] {
                    let free = (0..bits).find(|q| !mixing.contains(q)).expect("bits >= 4");
                    check(k, &mut rng, len, 0, &dense(&[], &mixing, &m8));
                    check(k, &mut rng, len, 0, &dense(&[free], &mixing, &m8));
                }
            }
        }
    }
}

/// The cross-chunk entry points see a group's member chunks as separate
/// slices; the oracle sees the same amplitudes as one flat slice whose
/// top bits tell the members apart.
#[test]
fn cross_chunk_entry_points_match_per_index_on_the_joined_slice() {
    for k in instantiations() {
        let mut rng = Rng(0x5EED_0003);
        let swap = matrix_of(Gate::Swap, 2);
        for bits in 1..=9usize {
            let len = 1usize << bits;
            let (m2, m4) = (rng.matrix(2), rng.matrix(4));
            // One high qubit: two members, the target (or one swap qubit) on top.
            for cmask in (0..len).filter(|c| c.count_ones() <= 2) {
                let controls: Vec<usize> = (0..bits).filter(|c| cmask >> c & 1 == 1).collect();
                let action = dense(&controls, &[bits], &m2);
                check_parts(k, rng.amps(2 * len), 2, &action, &|k, mut p| {
                    let (hi, lo) = (p.pop().expect("two"), p.pop().expect("two"));
                    k.apply_1q_halves(lo, hi, cmask, &m2);
                });
            }
            for low in 0..bits {
                for (m, first) in [(&swap, true), (&m4, true), (&m4, false)] {
                    let action = halves_action(low, bits, first, m);
                    check_parts(k, rng.amps(2 * len), 2, &action, &|k, p| {
                        apply_halves(k, p, low, first, m)
                    });
                }
            }
            // Two high qubits: four members, in either matrix order.
            for m in [&swap, &m4] {
                for in_order in [true, false] {
                    let action = quarters_action(bits, in_order, m);
                    check_parts(k, rng.amps(4 * len), 4, &action, &|k, p| {
                        apply_quarters(k, p, in_order, m)
                    });
                }
            }
        }
    }
}

/// A cross-chunk kernel call on the member slices of one group.
type PartsKernel<'a> = dyn Fn(&Kernels, Vec<&mut [Complex64]>) + 'a;

/// Runs `kernel` on `parts` equal pieces of `amps` and the oracle's
/// `action` on the whole of it.
fn check_parts(
    k: &Kernels,
    amps: Vec<Complex64>,
    parts: usize,
    action: &GateAction,
    kernel: &PartsKernel<'_>,
) {
    let len = amps.len() / parts;
    let mut want = amps;
    let mut got = want.clone();
    apply_action_per_index(&mut want, 0, action);
    kernel(k, got.chunks_exact_mut(len).collect());
    assert_same(&got, &want, || {
        format!("{}: {parts} parts of {len}: {action:?}", k.name())
    });
}

/// A two-qubit matrix on in-slice qubit `low` and the qubit `bits` that
/// tells two `bits`-qubit members apart.
fn halves_action(low: usize, bits: usize, low_first: bool, m: &Matrix) -> GateAction {
    let mixing = if low_first { [low, bits] } else { [bits, low] };
    dense(&[], &mixing, m)
}

fn apply_halves(k: &Kernels, mut p: Vec<&mut [Complex64]>, low: usize, first: bool, m: &Matrix) {
    let (h1, h0) = (p.pop().expect("two"), p.pop().expect("two"));
    k.apply_2q_halves(h0, h1, low, first, m);
}

/// A two-qubit matrix on the two qubits above `bits`-qubit members;
/// `in_order` puts the lower one first (basis index bit 0 ↔ `mixing[0]`,
/// so the two orders differ in members 1 and 2).
fn quarters_action(bits: usize, in_order: bool, m: &Matrix) -> GateAction {
    let mixing = if in_order {
        [bits, bits + 1]
    } else {
        [bits + 1, bits]
    };
    dense(&[], &mixing, m)
}

fn apply_quarters(k: &Kernels, p: Vec<&mut [Complex64]>, in_order: bool, m: &Matrix) {
    let [s0, s1, s2, s3]: [&mut [Complex64]; 4] = p.try_into().expect("four");
    let quarters = if in_order {
        [s0, s1, s2, s3]
    } else {
        [s0, s2, s1, s3]
    };
    k.apply_2q_quarters(quarters, m);
}

/// Amplitudes whose components are all finite — signed zeros,
/// subnormals and `f64::MAX` included — so every group of a permutation
/// matrix takes the move path; then the same with one infinity or NaN
/// planted every `gap` amplitudes, so the groups holding one take the
/// dot products (where `0·∞` is NaN) and the rest still move.
fn finite_then_planted(rng: &mut Rng, len: usize, gap: usize) -> [Vec<Complex64>; 2] {
    const FINITE: [f64; 5] = [0.0, -0.0, f64::MIN_POSITIVE / 4.0, -5e-324, f64::MAX];
    let mut component = || match rng.next() % 3 {
        0 => FINITE[(rng.next() % 5) as usize],
        _ => rng.unit(),
    };
    let finite: Vec<Complex64> = (0..len)
        .map(|_| Complex64::new(component(), component()))
        .collect();
    let mut planted = finite.clone();
    for (i, amp) in planted.iter_mut().enumerate().step_by(gap) {
        let bad = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][i % 3];
        *amp = if i % 2 == 0 {
            Complex64::new(bad, amp.im)
        } else {
            Complex64::new(amp.re, bad)
        };
    }
    [finite, planted]
}

/// The swap's move path and its dot-product fallback, on every entry
/// point that takes a 4×4 matrix: a local swap (sub-line and wide
/// blocks), a swap across two members, and across four. Besides `Swap`
/// itself: other exact permutations, a selection that repeats columns,
/// and a permutation whose zeros are `-0.0`.
#[test]
fn permutation_moves_match_per_index_with_and_without_non_finite_groups() {
    let swap = matrix_of(Gate::Swap, 2);
    let perm = |cols: [usize; 4], zero: f64| {
        let mut entries = vec![Complex64::new(zero, 0.0); 16];
        for (r, c) in cols.into_iter().enumerate() {
            entries[4 * r + c] = Complex64::ONE;
        }
        Matrix::new(4, entries)
    };
    let matrices = [
        swap,
        perm([3, 2, 1, 0], 0.0),
        perm([1, 2, 3, 0], 0.0),
        perm([0, 0, 3, 3], 0.0),
        perm([0, 2, 1, 3], -0.0),
    ];
    for k in instantiations() {
        let mut rng = Rng(0x5EED_0006);
        for bits in [1usize, 2, 3, 6, 8] {
            let len = 1usize << bits;
            for m in &matrices {
                for amps in finite_then_planted(&mut rng, 4 * len, 7) {
                    for q0 in 0..bits + 2 {
                        for q1 in (0..bits + 2).filter(|&q| q != q0) {
                            check_on(k, amps.clone(), 0, &dense(&[], &[q0, q1], m));
                        }
                    }
                    for low in 0..bits {
                        let first = low % 2 == 0;
                        let action = halves_action(low, bits, first, m);
                        check_parts(k, amps[..2 * len].to_vec(), 2, &action, &|k, p| {
                            apply_halves(k, p, low, first, m)
                        });
                    }
                    let action = quarters_action(bits, bits % 2 == 0, m);
                    check_parts(k, amps.clone(), 4, &action, &|k, p| {
                        apply_quarters(k, p, bits % 2 == 0, m)
                    });
                }
            }
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

/// The executor with a sink on 1, 2 and 4 workers (a fan-out even at 7
/// qubits: an injector that kills none keeps every dispatch), every gate
/// shape at every chunk size: the state lands on the oracle's bits, and
/// the sink is handed every chunk once, in its final state.
#[test]
fn sink_on_runs_match_per_index_and_hand_over_final_chunks() {
    use qgpu_faults::{FaultConfig, FaultInjector};
    use Gate::{Ccx, Cp, Cx, Cy, Rx, Rzz, Swap, H};
    let mut rng = Rng(0x5EED_0005);
    let gates = [H, Rx(0.3), Cx, Cy, Ccx, Swap, Cp(0.7), Rzz(1.1)];
    let n = 7;
    let orders = [[6, 0, 4], [1, 5, 6], [5, 6, 0], [3, 2, 1], [0, 6, 5]];
    for (g, order) in gates
        .iter()
        .flat_map(|g| orders.iter().map(move |o| (*g, o)))
    {
        let op = Operation::new(g, order[..g.arity()].to_vec());
        let action = GateAction::from_operation(&op);
        let start = rng.amps(1 << n);
        let mut want = start.clone();
        apply_action_per_index(&mut want, 0, &action);
        for chunk_bits in 1..=n as u32 {
            let high: Vec<usize> = action
                .mixing_qubits()
                .iter()
                .copied()
                .filter(|&q| q as u32 >= chunk_bits)
                .collect();
            let mask: usize = high
                .iter()
                .map(|&q| 1usize << (q as u32 - chunk_bits))
                .sum();
            let reps: Vec<usize> = (0..1usize << (n as u32 - chunk_bits))
                .filter(|c| c & mask == 0)
                .collect();
            for threads in [1usize, 2, 4] {
                let ex = ChunkExecutor::with_exact_threads(threads).with_faults(
                    std::sync::Arc::new(FaultInjector::new(FaultConfig::default())),
                );
                let flat = StateVector::from_amplitudes(start.clone());
                let mut chunked = ChunkedState::from_flat(&flat, chunk_bits);
                // (An all-zero chunk would be skipped, not multiplied.)
                if chunked.dense_chunk_count() != chunked.num_chunks() {
                    continue;
                }
                support::run_with_sink(
                    &ex,
                    &mut chunked,
                    std::slice::from_ref(&action),
                    &reps,
                    &high,
                );
                assert_same(chunked.to_flat().amps(), &want, || {
                    format!("{op}, chunk_bits {chunk_bits}, {threads} workers")
                });
            }
        }
    }
}
