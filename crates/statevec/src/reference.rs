//! Dense-operator reference implementation: an independent oracle —
//! and the per-index loops the block kernels and collapse passes
//! replaced, kept as their bit-for-bit oracles.
//!
//! For small systems, a circuit can be evaluated by materializing each
//! gate as a full `2^n × 2^n` operator and multiplying state vectors
//! directly. This is exponentially expensive and exists purely as an
//! *independent check* on the optimized kernels: the two paths share no
//! indexing code, so agreement is strong evidence both are right.

use qgpu_circuit::access::GateAction;
use qgpu_circuit::{Circuit, Matrix, Operation};
use qgpu_math::bits::insert_zero_bits;
use qgpu_math::Complex64;

use crate::chunked::ChunkedState;
use crate::state::StateVector;

/// Largest system the dense path accepts (a 2^12 × 2^12 operator is 256 MB).
pub const MAX_DENSE_QUBITS: usize = 12;

/// Builds the full `2^n × 2^n` operator of a single gate.
///
/// # Panics
///
/// Panics if `n > MAX_DENSE_QUBITS` or the operation is out of range.
pub fn operator_of(op: &Operation, n: usize) -> Matrix {
    assert!(n <= MAX_DENSE_QUBITS, "dense operator would be too large");
    assert!(op.max_qubit() < n);
    let dim = 1usize << n;
    let gm = op.gate().matrix();
    let qubits = op.qubits();
    let k = qubits.len();
    let mut data = vec![Complex64::ZERO; dim * dim];
    for col in 0..dim {
        // Sub-index of the gate's qubits within this column.
        let mut sub = 0usize;
        for (bit, &q) in qubits.iter().enumerate() {
            sub |= ((col >> q) & 1) << bit;
        }
        for row_sub in 0..(1 << k) {
            let v = gm.get(row_sub, sub);
            if v.is_zero() {
                continue;
            }
            let mut row = col;
            for (bit, &q) in qubits.iter().enumerate() {
                row = (row & !(1 << q)) | (((row_sub >> bit) & 1) << q);
            }
            data[row * dim + col] = v;
        }
    }
    Matrix::new(dim, data)
}

/// Runs a circuit by dense operator application.
///
/// # Panics
///
/// Panics if the circuit has more than [`MAX_DENSE_QUBITS`] qubits.
pub fn run_dense(circuit: &Circuit) -> StateVector {
    let n = circuit.num_qubits();
    assert!(n <= MAX_DENSE_QUBITS);
    let dim = 1usize << n;
    let mut amps = vec![Complex64::ZERO; dim];
    amps[0] = Complex64::ONE;
    for op in circuit.iter() {
        let m = operator_of(op, n);
        let mut next = vec![Complex64::ZERO; dim];
        for (row, out) in next.iter_mut().enumerate() {
            let mut acc = Complex64::ZERO;
            for (col, &a) in amps.iter().enumerate() {
                if !a.is_zero() {
                    acc = m.get(row, col).mul_add(a, acc);
                }
            }
            *out = acc;
        }
        amps = next;
    }
    StateVector::from_amplitudes(amps)
}

/// The per-index gate loop that [`crate::kernels`] replaced, kept as its
/// bit-for-bit oracle (and as its fallback for the shapes no gate has):
/// every amplitude is located by its own index computation and rewritten
/// with the expressions the block kernels must reproduce. Same contract
/// as [`crate::kernels::apply_action`].
///
/// # Panics
///
/// Panics as `apply_action` does.
pub fn apply_action_per_index(amps: &mut [Complex64], base: usize, action: &GateAction) {
    match action {
        GateAction::Diagonal { qubits, dvec } => {
            for (off, amp) in amps.iter_mut().enumerate() {
                let s = qubits
                    .iter()
                    .enumerate()
                    .fold(0, |s, (bit, &q)| s | (((base + off) >> q) & 1) << bit);
                *amp *= dvec[s];
            }
        }
        GateAction::ControlledDense {
            controls,
            mixing,
            matrix,
        } => {
            // Controls above the slice select it whole, by its base.
            let (local, high): (Vec<usize>, Vec<usize>) =
                controls.iter().partition(|&&c| 1usize << c < amps.len());
            if high.iter().all(|&c| (base >> c) & 1 == 1) {
                apply_dense_per_index(amps, &local, mixing, matrix);
            }
        }
    }
}

/// The dense half of [`apply_action_per_index`], all qubits local: one
/// gathered group per index of the compressed space. A 2×2 matrix adds
/// two products; a larger one accumulates each row from zero in column
/// order (so it rewrites `-0.0` as `0.0` and turns `0·∞` into NaN).
///
/// # Panics
///
/// Panics if the matrix dimension is not `2^mixing.len()`, the slice
/// length not a power of two, or a qubit not local.
pub fn apply_dense_per_index(
    amps: &mut [Complex64],
    controls: &[usize],
    mixing: &[usize],
    m: &Matrix,
) {
    assert_eq!(m.dim(), 1 << mixing.len(), "matrix dimension mismatch");
    assert!(amps.len().is_power_of_two());
    let mut positions: Vec<u32> = mixing.iter().chain(controls).map(|&q| q as u32).collect();
    assert!(
        positions.iter().all(|&p| 1usize << p < amps.len()),
        "qubits must be local"
    );
    positions.sort_unstable();
    let control_mask: usize = controls.iter().map(|&c| 1usize << c).sum();
    let offsets: Vec<usize> = (0..m.dim())
        .map(|s| {
            mixing
                .iter()
                .enumerate()
                .fold(0, |off, (bit, &q)| off | ((s >> bit) & 1) << q)
        })
        .collect();
    let mut gathered = vec![Complex64::ZERO; m.dim()];
    for c in 0..amps.len() >> positions.len() {
        let ibase = insert_zero_bits(c, &positions) | control_mask;
        for (g, &off) in gathered.iter_mut().zip(&offsets) {
            *g = amps[ibase + off];
        }
        if let [a0, a1] = gathered[..] {
            amps[ibase] = m.get(0, 0) * a0 + m.get(0, 1) * a1;
            amps[ibase + offsets[1]] = m.get(1, 0) * a0 + m.get(1, 1) * a1;
            continue;
        }
        for (r, &off) in offsets.iter().enumerate() {
            amps[ibase + off] = gathered
                .iter()
                .enumerate()
                .fold(Complex64::ZERO, |acc, (s, &g)| m.get(r, s).mul_add(g, acc));
        }
    }
}

/// The per-index loop [`crate::measure::prob_one_chunked`] replaced,
/// kept as its bit-for-bit oracle: every amplitude of every live chunk is
/// tested for the qubit's bit, and the set ones summed in index order.
///
/// # Panics
///
/// Panics if `qubit` is out of range.
pub fn prob_one_per_index(state: &ChunkedState, qubit: usize) -> f64 {
    assert!(qubit < state.num_qubits());
    let mut acc = 0.0f64;
    for c in 0..state.num_chunks() {
        let Some(amps) = state.chunk(c) else { continue };
        let base = c << state.chunk_bits();
        for (off, a) in amps.iter().enumerate() {
            if (base | off) & (1usize << qubit) != 0 {
                acc += a.norm_sqr();
            }
        }
    }
    acc
}

/// The per-index loop [`crate::measure::collapse_chunked`] replaced, kept
/// as its bit-for-bit oracle: every amplitude of every live chunk is
/// scaled or zeroed by its own index, and each chunk is then demoted if
/// it holds zeros only.
///
/// # Panics
///
/// Panics if `qubit` is out of range.
pub fn collapse_per_index(state: &mut ChunkedState, qubit: usize, outcome: bool, p_outcome: f64) {
    assert!(qubit < state.num_qubits());
    let scale = 1.0 / p_outcome.sqrt();
    let bit = 1usize << qubit;
    let chunk_bits = state.chunk_bits();
    for c in 0..state.num_chunks() {
        let base = c << chunk_bits;
        let Some(amps) = state.chunk_mut(c) else {
            continue;
        };
        for (off, a) in amps.iter_mut().enumerate() {
            if (((base | off) & bit) != 0) == outcome {
                *a = *a * scale;
            } else {
                *a = Complex64::ZERO;
            }
        }
        state.demote_if_zero(c);
    }
}

/// The per-index loop [`crate::measure::reset_chunked`] replaced, kept as
/// its bit-for-bit oracle: [`collapse_per_index`], then for outcome 1
/// each amplitude with the bit set moved to its partner, one index at a
/// time (a whole chunk at a time when the qubit selects chunks).
///
/// # Panics
///
/// Panics if `qubit` is out of range.
pub fn reset_per_index(state: &mut ChunkedState, qubit: usize, outcome: bool, p_outcome: f64) {
    collapse_per_index(state, qubit, outcome, p_outcome);
    if !outcome {
        return;
    }
    let chunk_bits = state.chunk_bits() as usize;
    if qubit < chunk_bits {
        let bit = 1usize << qubit;
        for c in 0..state.num_chunks() {
            let Some(amps) = state.chunk_mut(c) else {
                continue;
            };
            for off in 0..amps.len() {
                if off & bit != 0 {
                    amps[off & !bit] = amps[off];
                    amps[off] = Complex64::ZERO;
                }
            }
        }
    } else {
        let bit = 1usize << (qubit - chunk_bits);
        for c in 0..state.num_chunks() {
            if c & bit != 0 && !state.is_zero_chunk(c) {
                state.move_chunk(c, c & !bit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgpu_circuit::generators::Benchmark;
    use qgpu_circuit::Gate;

    #[test]
    fn dense_operators_are_unitary() {
        for (g, qs) in [
            (Gate::H, vec![2]),
            (Gate::Cx, vec![0, 3]),
            (Gate::Swap, vec![1, 2]),
            (Gate::Ccx, vec![3, 0, 2]),
            (Gate::Cp(0.7), vec![2, 1]),
        ] {
            let op = Operation::new(g, qs);
            let m = operator_of(&op, 4);
            assert!(m.is_unitary(1e-10), "{}", op);
        }
    }

    #[test]
    fn dense_path_agrees_with_kernels_on_benchmarks() {
        for b in Benchmark::ALL {
            let c = b.generate(6);
            let dense = run_dense(&c);
            let mut fast = StateVector::new_zero(6);
            fast.run(&c);
            let dev = fast.max_deviation(&dense);
            assert!(
                dev < 1e-9,
                "{b}: kernels deviate from dense oracle by {dev}"
            );
        }
    }

    #[test]
    fn dense_path_agrees_on_awkward_qubit_orders() {
        // Reversed and interleaved argument orders stress the bit
        // embedding on both paths.
        let mut c = Circuit::new(5);
        c.h(4)
            .cx(4, 0)
            .ccx(3, 1, 0)
            .swap(0, 4)
            .cp(1.234, 4, 2)
            .rzz(0.5, 3, 0)
            .cy(2, 4);
        let dense = run_dense(&c);
        let mut fast = StateVector::new_zero(5);
        fast.run(&c);
        assert!(fast.max_deviation(&dense) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn dense_operator_size_capped() {
        let op = Operation::new(Gate::H, vec![0]);
        let _ = operator_of(&op, 20);
    }
}
