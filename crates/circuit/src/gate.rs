//! The gate set, gate matrices, and circuit operations.
//!
//! The gate set matches what the paper's benchmarks need (the Qiskit
//! standard gates that appear in hchain, rqc, qaoa, gs, hlf, qft, iqp, qf
//! and bv): the usual one-qubit Cliffords and rotations, controlled
//! phases, `swap`, `rzz`, and the Toffoli gate.

use std::f64::consts::FRAC_1_SQRT_2;
use std::fmt;

use qgpu_math::Complex64;
use serde::{Deserialize, Serialize};

/// A quantum gate, parameterized where applicable by rotation angles in
/// radians.
///
/// The discriminants are grouped by arity; use [`Gate::arity`] to know how
/// many qubit arguments an [`Operation`] built from this gate requires.
///
/// # Examples
///
/// ```
/// use qgpu_circuit::Gate;
///
/// assert_eq!(Gate::H.arity(), 1);
/// assert_eq!(Gate::Cx.arity(), 2);
/// assert!(Gate::Cz.is_diagonal());
/// assert!(!Gate::H.is_diagonal());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Gate {
    /// Hadamard.
    H,
    /// Pauli-X (NOT).
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Phase gate `S = diag(1, i)`.
    S,
    /// Inverse phase gate `S† = diag(1, -i)`.
    Sdg,
    /// T gate `diag(1, e^{iπ/4})`.
    T,
    /// Inverse T gate.
    Tdg,
    /// Square root of X.
    Sx,
    /// Square root of Y (used by Google random circuits).
    Sy,
    /// Rotation about X by the given angle.
    Rx(f64),
    /// Rotation about Y by the given angle.
    Ry(f64),
    /// Rotation about Z by the given angle.
    Rz(f64),
    /// Phase gate `diag(1, e^{iθ})` (OpenQASM `p` / `u1`).
    Phase(f64),
    /// Generic single-qubit gate `U(θ, φ, λ)` (OpenQASM `u3`).
    U(f64, f64, f64),
    /// Controlled-X (CNOT).
    Cx,
    /// Controlled-Y.
    Cy,
    /// Controlled-Z.
    Cz,
    /// Controlled phase `diag(1,1,1,e^{iθ})` (OpenQASM `cp` / `cu1`).
    Cp(f64),
    /// Two-qubit ZZ interaction `e^{-iθ/2 Z⊗Z}` (used by QAOA).
    Rzz(f64),
    /// Swap.
    Swap,
    /// Toffoli (CCX).
    Ccx,
    /// Mid-circuit computational-basis measurement with seeded collapse.
    ///
    /// Not a unitary: [`Gate::matrix`] and [`Gate::inverse`] panic.
    /// The engine resolves the outcome from its deterministic
    /// `(seed, site, shot)` draw stream and renormalizes the state.
    Measure,
    /// Reset to |0⟩ (measure, then flip to |0⟩ if the outcome was 1).
    ///
    /// Not a unitary: [`Gate::matrix`] and [`Gate::inverse`] panic.
    /// Inserted by the qubit-loss noise channel, QDK-style.
    Reset,
}

impl Gate {
    /// Number of qubits the gate acts on.
    pub fn arity(self) -> usize {
        match self {
            Gate::H
            | Gate::X
            | Gate::Y
            | Gate::Z
            | Gate::S
            | Gate::Sdg
            | Gate::T
            | Gate::Tdg
            | Gate::Sx
            | Gate::Sy
            | Gate::Rx(_)
            | Gate::Ry(_)
            | Gate::Rz(_)
            | Gate::Phase(_)
            | Gate::U(..)
            | Gate::Measure
            | Gate::Reset => 1,
            Gate::Cx | Gate::Cy | Gate::Cz | Gate::Cp(_) | Gate::Rzz(_) | Gate::Swap => 2,
            Gate::Ccx => 3,
        }
    }

    /// Returns `true` for gates with a unitary matrix — everything except
    /// [`Gate::Measure`] and [`Gate::Reset`].
    ///
    /// Transformation passes (fusion, circuit inversion, dense
    /// reference simulation) must check this before calling
    /// [`Gate::matrix`] or [`Gate::inverse`]: non-unitary ops are
    /// barriers, not matrices.
    pub fn is_unitary(self) -> bool {
        !matches!(self, Gate::Measure | Gate::Reset)
    }

    /// Returns `true` if the gate's matrix is diagonal in the computational
    /// basis.
    ///
    /// Diagonal gates never mix amplitudes, so the simulator applies them
    /// with one complex multiplication per amplitude instead of a 2×2
    /// matrix-vector product, and pruning can skip them entirely on
    /// all-zero chunks regardless of qubit position.
    pub fn is_diagonal(self) -> bool {
        matches!(
            self,
            Gate::Z
                | Gate::S
                | Gate::Sdg
                | Gate::T
                | Gate::Tdg
                | Gate::Rz(_)
                | Gate::Phase(_)
                | Gate::Cz
                | Gate::Cp(_)
                | Gate::Rzz(_)
        )
    }

    /// The OpenQASM 2.0 name of the gate.
    pub fn name(self) -> &'static str {
        match self {
            Gate::H => "h",
            Gate::X => "x",
            Gate::Y => "y",
            Gate::Z => "z",
            Gate::S => "s",
            Gate::Sdg => "sdg",
            Gate::T => "t",
            Gate::Tdg => "tdg",
            Gate::Sx => "sx",
            Gate::Sy => "sy",
            Gate::Rx(_) => "rx",
            Gate::Ry(_) => "ry",
            Gate::Rz(_) => "rz",
            Gate::Phase(_) => "p",
            Gate::U(..) => "u3",
            Gate::Cx => "cx",
            Gate::Cy => "cy",
            Gate::Cz => "cz",
            Gate::Cp(_) => "cp",
            Gate::Rzz(_) => "rzz",
            Gate::Swap => "swap",
            Gate::Ccx => "ccx",
            Gate::Measure => "measure",
            Gate::Reset => "reset",
        }
    }

    /// The gate's unitary as a dense row-major matrix of dimension
    /// `2^arity`.
    ///
    /// Qubit ordering follows the little-endian convention used throughout
    /// the crate: for a two-qubit gate on `(q0, q1)`, basis index bit 0
    /// corresponds to the *first* qubit argument.
    ///
    /// # Panics
    ///
    /// Panics on the non-unitary ops [`Gate::Measure`] and
    /// [`Gate::Reset`] — guard call sites with [`Gate::is_unitary`].
    pub fn matrix(self) -> Matrix {
        let h = FRAC_1_SQRT_2;
        let z = Complex64::ZERO;
        let o = Complex64::ONE;
        let i = Complex64::I;
        match self {
            Gate::H => Matrix::new(2, vec![o * h, o * h, o * h, -o * h]),
            Gate::X => Matrix::new(2, vec![z, o, o, z]),
            Gate::Y => Matrix::new(2, vec![z, -i, i, z]),
            Gate::Z => Matrix::new(2, vec![o, z, z, -o]),
            Gate::S => Matrix::new(2, vec![o, z, z, i]),
            Gate::Sdg => Matrix::new(2, vec![o, z, z, -i]),
            Gate::T => Matrix::new(
                2,
                vec![o, z, z, Complex64::cis(std::f64::consts::FRAC_PI_4)],
            ),
            Gate::Tdg => Matrix::new(
                2,
                vec![o, z, z, Complex64::cis(-std::f64::consts::FRAC_PI_4)],
            ),
            Gate::Sx => {
                let a = Complex64::new(0.5, 0.5);
                let b = Complex64::new(0.5, -0.5);
                Matrix::new(2, vec![a, b, b, a])
            }
            Gate::Sy => {
                let a = Complex64::new(0.5, 0.5);
                let b = Complex64::new(-0.5, -0.5);
                Matrix::new(2, vec![a, b, -b, a])
            }
            Gate::Rx(t) => {
                let c = Complex64::from_real((t / 2.0).cos());
                let s = Complex64::new(0.0, -(t / 2.0).sin());
                Matrix::new(2, vec![c, s, s, c])
            }
            Gate::Ry(t) => {
                let c = Complex64::from_real((t / 2.0).cos());
                let s = Complex64::from_real((t / 2.0).sin());
                Matrix::new(2, vec![c, -s, s, c])
            }
            Gate::Rz(t) => Matrix::new(
                2,
                vec![Complex64::cis(-t / 2.0), z, z, Complex64::cis(t / 2.0)],
            ),
            Gate::Phase(t) => Matrix::new(2, vec![o, z, z, Complex64::cis(t)]),
            Gate::U(theta, phi, lam) => {
                let c = (theta / 2.0).cos();
                let s = (theta / 2.0).sin();
                Matrix::new(
                    2,
                    vec![
                        Complex64::from_real(c),
                        -Complex64::cis(lam) * s,
                        Complex64::cis(phi) * s,
                        Complex64::cis(phi + lam) * c,
                    ],
                )
            }
            Gate::Cx => {
                // Control = qubit argument 0 (basis bit 0), target = argument 1.
                let mut m = Matrix::identity(4);
                // States with bit0=1: indices 1 (bit1=0) and 3 (bit1=1) swap target bit.
                m.set(1, 1, z);
                m.set(1, 3, o);
                m.set(3, 3, z);
                m.set(3, 1, o);
                m
            }
            Gate::Cy => {
                let mut m = Matrix::identity(4);
                m.set(1, 1, z);
                m.set(1, 3, -i);
                m.set(3, 3, z);
                m.set(3, 1, i);
                m
            }
            Gate::Cz => {
                let mut m = Matrix::identity(4);
                m.set(3, 3, -o);
                m
            }
            Gate::Cp(t) => {
                let mut m = Matrix::identity(4);
                m.set(3, 3, Complex64::cis(t));
                m
            }
            Gate::Rzz(t) => {
                let mut m = Matrix::identity(4);
                let e_neg = Complex64::cis(-t / 2.0);
                let e_pos = Complex64::cis(t / 2.0);
                m.set(0, 0, e_neg);
                m.set(1, 1, e_pos);
                m.set(2, 2, e_pos);
                m.set(3, 3, e_neg);
                m
            }
            Gate::Swap => {
                let mut m = Matrix::identity(4);
                m.set(1, 1, z);
                m.set(2, 2, z);
                m.set(1, 2, o);
                m.set(2, 1, o);
                m
            }
            Gate::Ccx => {
                // Controls = arguments 0 and 1 (bits 0 and 1), target = argument 2.
                let mut m = Matrix::identity(8);
                // Indices with bits 0 and 1 set: 0b011 = 3 and 0b111 = 7.
                m.set(3, 3, z);
                m.set(7, 7, z);
                m.set(3, 7, o);
                m.set(7, 3, o);
                m
            }
            Gate::Measure | Gate::Reset => {
                panic!("{} is not a unitary and has no matrix", self.name())
            }
        }
    }

    /// The inverse gate (`U†`).
    ///
    /// # Panics
    ///
    /// Panics on the non-unitary ops [`Gate::Measure`] and
    /// [`Gate::Reset`]: collapse destroys information and has no inverse.
    ///
    /// # Examples
    ///
    /// ```
    /// use qgpu_circuit::Gate;
    /// assert_eq!(Gate::S.inverse(), Gate::Sdg);
    /// assert_eq!(Gate::Rx(0.5).inverse(), Gate::Rx(-0.5));
    /// assert_eq!(Gate::Cx.inverse(), Gate::Cx);
    /// ```
    pub fn inverse(self) -> Gate {
        match self {
            Gate::S => Gate::Sdg,
            Gate::Sdg => Gate::S,
            Gate::T => Gate::Tdg,
            Gate::Tdg => Gate::T,
            // √X† = √X·X up to phase; expressed exactly as a U gate is
            // awkward, so use the rotation form (equal up to global
            // phase, which is unobservable).
            Gate::Sx => Gate::Rx(-std::f64::consts::FRAC_PI_2),
            Gate::Sy => Gate::Ry(-std::f64::consts::FRAC_PI_2),
            Gate::Rx(t) => Gate::Rx(-t),
            Gate::Ry(t) => Gate::Ry(-t),
            Gate::Rz(t) => Gate::Rz(-t),
            Gate::Phase(t) => Gate::Phase(-t),
            Gate::U(theta, phi, lam) => Gate::U(-theta, -lam, -phi),
            Gate::Cp(t) => Gate::Cp(-t),
            Gate::Rzz(t) => Gate::Rzz(-t),
            // Self-inverse gates.
            g @ (Gate::H
            | Gate::X
            | Gate::Y
            | Gate::Z
            | Gate::Cx
            | Gate::Cy
            | Gate::Cz
            | Gate::Swap
            | Gate::Ccx) => g,
            Gate::Measure | Gate::Reset => {
                panic!("{} is not a unitary and has no inverse", self.name())
            }
        }
    }

    /// Angle parameters of the gate, in OpenQASM argument order.
    pub fn params(self) -> Vec<f64> {
        match self {
            Gate::Rx(t)
            | Gate::Ry(t)
            | Gate::Rz(t)
            | Gate::Phase(t)
            | Gate::Cp(t)
            | Gate::Rzz(t) => vec![t],
            Gate::U(a, b, c) => vec![a, b, c],
            _ => Vec::new(),
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let params = self.params();
        if params.is_empty() {
            write!(f, "{}", self.name())
        } else {
            let joined = params
                .iter()
                .map(|p| format!("{p}"))
                .collect::<Vec<_>>()
                .join(",");
            write!(f, "{}({})", self.name(), joined)
        }
    }
}

/// A dense, row-major complex matrix of power-of-two dimension.
///
/// Gate matrices are tiny (2×2 to 8×8), so a boxed `Vec` is fine.
///
/// # Examples
///
/// ```
/// use qgpu_circuit::Gate;
///
/// let h = Gate::H.matrix();
/// assert_eq!(h.dim(), 2);
/// assert!(h.is_unitary(1e-12));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    dim: usize,
    data: Vec<Complex64>,
}

impl Matrix {
    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != dim * dim`.
    pub fn new(dim: usize, data: Vec<Complex64>) -> Self {
        assert_eq!(data.len(), dim * dim, "matrix data must be dim²");
        Matrix { dim, data }
    }

    /// The identity matrix of the given dimension.
    pub fn identity(dim: usize) -> Self {
        let mut data = vec![Complex64::ZERO; dim * dim];
        for r in 0..dim {
            data[r * dim + r] = Complex64::ONE;
        }
        Matrix { dim, data }
    }

    /// Matrix dimension (number of rows).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Complex64 {
        self.data[row * self.dim + col]
    }

    /// Sets element `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, v: Complex64) {
        self.data[row * self.dim + col] = v;
    }

    /// Row-major element slice.
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.dim, rhs.dim);
        let n = self.dim;
        let mut out = vec![Complex64::ZERO; n * n];
        for r in 0..n {
            for k in 0..n {
                let a = self.get(r, k);
                if a.is_zero() {
                    continue;
                }
                for c in 0..n {
                    out[r * n + c] += a * rhs.get(k, c);
                }
            }
        }
        Matrix { dim: n, data: out }
    }

    /// Conjugate transpose.
    pub fn dagger(&self) -> Matrix {
        let n = self.dim;
        let mut out = vec![Complex64::ZERO; n * n];
        for r in 0..n {
            for c in 0..n {
                out[c * n + r] = self.get(r, c).conj();
            }
        }
        Matrix { dim: n, data: out }
    }

    /// Checks `U† U = I` within `eps` per element.
    pub fn is_unitary(&self, eps: f64) -> bool {
        let prod = self.dagger().matmul(self);
        let id = Matrix::identity(self.dim);
        prod.data
            .iter()
            .zip(id.data.iter())
            .all(|(a, b)| a.approx_eq(*b, eps))
    }

    /// Returns `true` if all off-diagonal entries are zero within `eps`.
    pub fn is_diagonal(&self, eps: f64) -> bool {
        let n = self.dim;
        (0..n).all(|r| (0..n).all(|c| r == c || self.get(r, c).approx_eq(Complex64::ZERO, eps)))
    }
}

/// A gate applied to specific qubits: one node of a [`crate::Circuit`].
///
/// # Examples
///
/// ```
/// use qgpu_circuit::{Gate, Operation};
///
/// let op = Operation::new(Gate::Cx, vec![0, 3]);
/// assert_eq!(op.qubits(), &[0, 3]);
/// assert_eq!(op.max_qubit(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Operation {
    gate: Gate,
    qubits: Vec<usize>,
}

impl Operation {
    /// Creates an operation.
    ///
    /// # Panics
    ///
    /// Panics if `qubits.len()` does not match the gate's arity, or if a
    /// qubit is repeated.
    pub fn new(gate: Gate, qubits: Vec<usize>) -> Self {
        assert_eq!(
            qubits.len(),
            gate.arity(),
            "gate {} needs {} qubits, got {}",
            gate.name(),
            gate.arity(),
            qubits.len()
        );
        for (i, q) in qubits.iter().enumerate() {
            assert!(
                !qubits[..i].contains(q),
                "gate {} applied with repeated qubit {}",
                gate.name(),
                q
            );
        }
        Operation { gate, qubits }
    }

    /// The gate being applied.
    pub fn gate(&self) -> Gate {
        self.gate
    }

    /// The qubit arguments, in gate-argument order.
    pub fn qubits(&self) -> &[usize] {
        &self.qubits
    }

    /// Largest qubit index referenced.
    ///
    /// # Panics
    ///
    /// Never panics: operations always have at least one qubit.
    pub fn max_qubit(&self) -> usize {
        *self.qubits.iter().max().expect("operations are non-empty")
    }

    /// Bitmask with the operation's qubits set.
    ///
    /// # Panics
    ///
    /// Panics if a qubit index is ≥ 64 (the involvement machinery uses a
    /// `u64` mask, matching the paper's ≤ 64-qubit scope).
    pub fn qubit_mask(&self) -> u64 {
        let mut m = 0u64;
        for &q in &self.qubits {
            assert!(q < 64, "qubit index {q} exceeds the 64-qubit mask limit");
            m |= 1 << q;
        }
        m
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let qs = self
            .qubits
            .iter()
            .map(|q| format!("q[{q}]"))
            .collect::<Vec<_>>()
            .join(",");
        write!(f, "{} {qs}", self.gate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    fn all_gates() -> Vec<Gate> {
        vec![
            Gate::H,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Sx,
            Gate::Sy,
            Gate::Rx(0.3),
            Gate::Ry(-1.1),
            Gate::Rz(2.2),
            Gate::Phase(0.7),
            Gate::U(0.5, 1.0, -0.25),
            Gate::Cx,
            Gate::Cy,
            Gate::Cz,
            Gate::Cp(0.4),
            Gate::Rzz(0.9),
            Gate::Swap,
            Gate::Ccx,
        ]
    }

    #[test]
    fn all_gate_matrices_are_unitary() {
        for g in all_gates() {
            assert!(g.matrix().is_unitary(EPS), "{} is not unitary", g.name());
        }
    }

    #[test]
    fn matrix_dims_match_arity() {
        for g in all_gates() {
            assert_eq!(g.matrix().dim(), 1 << g.arity(), "{}", g.name());
        }
    }

    #[test]
    fn diagonal_flag_matches_matrix() {
        for g in all_gates() {
            assert_eq!(
                g.is_diagonal(),
                g.matrix().is_diagonal(EPS),
                "is_diagonal mismatch for {}",
                g.name()
            );
        }
    }

    #[test]
    fn s_squared_is_z() {
        let s = Gate::S.matrix();
        assert_eq!(s.matmul(&s), Gate::Z.matrix());
    }

    #[test]
    fn t_squared_is_s() {
        let t = Gate::T.matrix();
        let s = Gate::S.matrix();
        let tt = t.matmul(&t);
        for r in 0..2 {
            for c in 0..2 {
                assert!(tt.get(r, c).approx_eq(s.get(r, c), EPS));
            }
        }
    }

    #[test]
    fn sx_squared_is_x() {
        let sx = Gate::Sx.matrix();
        let xx = sx.matmul(&sx);
        let x = Gate::X.matrix();
        for r in 0..2 {
            for c in 0..2 {
                assert!(xx.get(r, c).approx_eq(x.get(r, c), EPS));
            }
        }
    }

    #[test]
    fn sdg_inverts_s() {
        let p = Gate::S.matrix().matmul(&Gate::Sdg.matrix());
        assert_eq!(p, Matrix::identity(2));
    }

    #[test]
    fn u_gate_reduces_to_known_gates() {
        use std::f64::consts::PI;
        // U(π/2, 0, π) = H up to global phase (exact in this convention).
        let u = Gate::U(PI / 2.0, 0.0, PI).matrix();
        let h = Gate::H.matrix();
        for r in 0..2 {
            for c in 0..2 {
                assert!(u.get(r, c).approx_eq(h.get(r, c), EPS));
            }
        }
    }

    #[test]
    fn phase_vs_rz_differ_by_global_phase() {
        let t = 0.8;
        let p = Gate::Phase(t).matrix();
        let rz = Gate::Rz(t).matrix();
        let phase = Complex64::cis(t / 2.0);
        for r in 0..2 {
            for c in 0..2 {
                assert!(p.get(r, c).approx_eq(rz.get(r, c) * phase, EPS));
            }
        }
    }

    #[test]
    fn cx_truth_table() {
        // Little-endian: index = q0 + 2*q1, control is argument 0 (bit 0).
        let m = Gate::Cx.matrix();
        // |control=1, target=0> = index 1 maps to index 3.
        assert!(m.get(3, 1).approx_eq(Complex64::ONE, EPS));
        assert!(m.get(1, 3).approx_eq(Complex64::ONE, EPS));
        // |00> and |10> (index 0, 2) are fixed.
        assert!(m.get(0, 0).approx_eq(Complex64::ONE, EPS));
        assert!(m.get(2, 2).approx_eq(Complex64::ONE, EPS));
    }

    #[test]
    fn ccx_truth_table() {
        let m = Gate::Ccx.matrix();
        // |c0=1, c1=1, t=0> = index 3 maps to index 7.
        assert!(m.get(7, 3).approx_eq(Complex64::ONE, EPS));
        // Single control set: fixed.
        assert!(m.get(1, 1).approx_eq(Complex64::ONE, EPS));
        assert!(m.get(2, 2).approx_eq(Complex64::ONE, EPS));
    }

    #[test]
    fn swap_matrix() {
        let m = Gate::Swap.matrix();
        assert!(m.get(2, 1).approx_eq(Complex64::ONE, EPS));
        assert!(m.get(1, 2).approx_eq(Complex64::ONE, EPS));
    }

    #[test]
    #[should_panic(expected = "needs 2 qubits")]
    fn operation_arity_checked() {
        let _ = Operation::new(Gate::Cx, vec![0]);
    }

    #[test]
    #[should_panic(expected = "repeated qubit")]
    fn operation_rejects_repeated_qubits() {
        let _ = Operation::new(Gate::Cx, vec![1, 1]);
    }

    #[test]
    fn qubit_mask_sets_bits() {
        let op = Operation::new(Gate::Ccx, vec![0, 5, 63]);
        assert_eq!(op.qubit_mask(), (1 << 0) | (1 << 5) | (1 << 63));
    }

    #[test]
    fn inverse_gates_multiply_to_identity() {
        for g in all_gates() {
            let prod = g.matrix().matmul(&g.inverse().matrix());
            // Allow a global phase: normalize by the (0,0) entry.
            let phase = prod.get(0, 0);
            assert!(
                (phase.norm_sqr() - 1.0).abs() < EPS,
                "{}: global phase not unit",
                g.name()
            );
            for r in 0..prod.dim() {
                for c in 0..prod.dim() {
                    let expected = if r == c { phase } else { Complex64::ZERO };
                    assert!(
                        prod.get(r, c).approx_eq(expected, 1e-10),
                        "{}: U·U† differs from identity at ({r},{c})",
                        g.name()
                    );
                }
            }
        }
    }

    #[test]
    fn only_measure_and_reset_are_non_unitary() {
        for g in all_gates() {
            assert!(g.is_unitary(), "{}", g.name());
        }
        assert!(!Gate::Measure.is_unitary());
        assert!(!Gate::Reset.is_unitary());
        assert_eq!(Gate::Measure.arity(), 1);
        assert_eq!(Gate::Reset.arity(), 1);
        assert_eq!(Gate::Measure.name(), "measure");
        assert_eq!(Gate::Reset.name(), "reset");
        assert!(!Gate::Measure.is_diagonal());
        assert!(Gate::Measure.params().is_empty());
    }

    #[test]
    #[should_panic(expected = "has no matrix")]
    fn measure_has_no_matrix() {
        let _ = Gate::Measure.matrix();
    }

    #[test]
    #[should_panic(expected = "has no inverse")]
    fn reset_has_no_inverse() {
        let _ = Gate::Reset.inverse();
    }

    #[test]
    fn display_includes_params() {
        assert_eq!(Gate::Rz(0.5).to_string(), "rz(0.5)");
        assert_eq!(Gate::H.to_string(), "h");
        let op = Operation::new(Gate::Cx, vec![0, 1]);
        assert_eq!(op.to_string(), "cx q[0],q[1]");
    }
}
