//! The [`Circuit`] type: an ordered list of gate operations.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::gate::{Gate, Operation};

/// A quantum circuit: `num_qubits` and an ordered operation list.
///
/// Builder methods (`h`, `cx`, …) return `&mut Self` so circuits can be
/// assembled fluently; [`Circuit::push`] accepts an arbitrary
/// [`Operation`].
///
/// # Examples
///
/// ```
/// use qgpu_circuit::Circuit;
///
/// let mut ghz = Circuit::new(3);
/// ghz.h(0).cx(0, 1).cx(1, 2);
/// assert_eq!(ghz.len(), 3);
/// assert_eq!(ghz.depth(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Circuit {
    num_qubits: usize,
    ops: Vec<Operation>,
    name: String,
}

impl Circuit {
    /// The widest circuit: the involvement machinery uses `u64` masks,
    /// matching the paper's scope.
    pub const MAX_QUBITS: usize = 64;

    /// Creates an empty circuit over `num_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is 0 or greater than [`Circuit::MAX_QUBITS`].
    pub fn new(num_qubits: usize) -> Self {
        assert!(num_qubits > 0, "circuit needs at least one qubit");
        assert!(
            num_qubits <= Self::MAX_QUBITS,
            "circuits beyond 64 qubits are unsupported"
        );
        Circuit {
            num_qubits,
            ops: Vec::new(),
            name: String::new(),
        }
    }

    /// Creates an empty named circuit (names appear in reports).
    pub fn with_name(num_qubits: usize, name: impl Into<String>) -> Self {
        let mut c = Circuit::new(num_qubits);
        c.name = name.into();
        c
    }

    /// The circuit's name ("" if unnamed).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the circuit name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if the circuit has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operation list.
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// Iterates over operations.
    pub fn iter(&self) -> std::slice::Iter<'_, Operation> {
        self.ops.iter()
    }

    /// Appends an operation.
    ///
    /// # Panics
    ///
    /// Panics if the operation references a qubit outside the circuit.
    pub fn push(&mut self, op: Operation) -> &mut Self {
        assert!(
            op.max_qubit() < self.num_qubits,
            "operation {op} out of range for {} qubits",
            self.num_qubits
        );
        self.ops.push(op);
        self
    }

    /// Appends a gate on the given qubits.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch, repeated qubits, or out-of-range qubits.
    pub fn apply(&mut self, gate: Gate, qubits: &[usize]) -> &mut Self {
        self.push(Operation::new(gate, qubits.to_vec()))
    }

    /// Appends every operation of `other`.
    ///
    /// # Panics
    ///
    /// Panics if `other` uses more qubits than `self`.
    pub fn extend_from(&mut self, other: &Circuit) -> &mut Self {
        assert!(other.num_qubits <= self.num_qubits);
        for op in &other.ops {
            self.ops.push(op.clone());
        }
        self
    }

    /// Replaces the operation order with `ops`.
    ///
    /// Used by the reordering passes, which produce a permutation of the
    /// original operations.
    ///
    /// # Panics
    ///
    /// Panics if any operation is out of range.
    pub fn with_ops(&self, ops: Vec<Operation>) -> Circuit {
        let mut c = Circuit::with_name(self.num_qubits, self.name.clone());
        for op in ops {
            c.push(op);
        }
        c
    }

    /// The inverse circuit: gates inverted, order reversed, so that
    /// `c · c.inverse()` is the identity (up to an unobservable global
    /// phase for `sx`/`sy`).
    ///
    /// # Panics
    ///
    /// Panics if the circuit contains non-unitary operations
    /// (measurements or resets), which have no inverse.
    ///
    /// # Examples
    ///
    /// ```
    /// use qgpu_circuit::Circuit;
    /// let mut c = Circuit::new(2);
    /// c.h(0).cx(0, 1).t(1);
    /// let inv = c.inverse();
    /// assert_eq!(inv.ops()[0].gate().name(), "tdg");
    /// ```
    pub fn inverse(&self) -> Circuit {
        let ops = self
            .ops
            .iter()
            .rev()
            .map(|op| Operation::new(op.gate().inverse(), op.qubits().to_vec()))
            .collect();
        let mut c = self.with_ops(ops);
        if !self.name.is_empty() {
            c.set_name(format!("{}_dg", self.name));
        }
        c
    }

    /// Circuit depth: the length of the longest qubit-dependency chain.
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.num_qubits];
        for op in &self.ops {
            let d = op.qubits().iter().map(|&q| level[q]).max().unwrap_or(0) + 1;
            for &q in op.qubits() {
                level[q] = d;
            }
        }
        level.into_iter().max().unwrap_or(0)
    }

    // ---- builder methods for every gate -------------------------------

    /// Hadamard on `q`.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::H, &[q])
    }

    /// Pauli-X on `q`.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::X, &[q])
    }

    /// Pauli-Y on `q`.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::Y, &[q])
    }

    /// Pauli-Z on `q`.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::Z, &[q])
    }

    /// S gate on `q`.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::S, &[q])
    }

    /// S† gate on `q`.
    pub fn sdg(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::Sdg, &[q])
    }

    /// T gate on `q`.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::T, &[q])
    }

    /// T† gate on `q`.
    pub fn tdg(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::Tdg, &[q])
    }

    /// √X on `q`.
    pub fn sx(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::Sx, &[q])
    }

    /// √Y on `q`.
    pub fn sy(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::Sy, &[q])
    }

    /// X rotation by `theta` on `q`.
    pub fn rx(&mut self, theta: f64, q: usize) -> &mut Self {
        self.apply(Gate::Rx(theta), &[q])
    }

    /// Y rotation by `theta` on `q`.
    pub fn ry(&mut self, theta: f64, q: usize) -> &mut Self {
        self.apply(Gate::Ry(theta), &[q])
    }

    /// Z rotation by `theta` on `q`.
    pub fn rz(&mut self, theta: f64, q: usize) -> &mut Self {
        self.apply(Gate::Rz(theta), &[q])
    }

    /// Phase gate by `theta` on `q`.
    pub fn p(&mut self, theta: f64, q: usize) -> &mut Self {
        self.apply(Gate::Phase(theta), &[q])
    }

    /// Generic `U(θ, φ, λ)` on `q`.
    pub fn u(&mut self, theta: f64, phi: f64, lam: f64, q: usize) -> &mut Self {
        self.apply(Gate::U(theta, phi, lam), &[q])
    }

    /// CNOT with control `c` and target `t`.
    pub fn cx(&mut self, c: usize, t: usize) -> &mut Self {
        self.apply(Gate::Cx, &[c, t])
    }

    /// Controlled-Y with control `c` and target `t`.
    pub fn cy(&mut self, c: usize, t: usize) -> &mut Self {
        self.apply(Gate::Cy, &[c, t])
    }

    /// Controlled-Z between `a` and `b`.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.apply(Gate::Cz, &[a, b])
    }

    /// Controlled phase by `theta` between `a` and `b`.
    pub fn cp(&mut self, theta: f64, a: usize, b: usize) -> &mut Self {
        self.apply(Gate::Cp(theta), &[a, b])
    }

    /// ZZ interaction by `theta` between `a` and `b`.
    pub fn rzz(&mut self, theta: f64, a: usize, b: usize) -> &mut Self {
        self.apply(Gate::Rzz(theta), &[a, b])
    }

    /// Swap between `a` and `b`.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.apply(Gate::Swap, &[a, b])
    }

    /// Toffoli with controls `c0`, `c1` and target `t`.
    pub fn ccx(&mut self, c0: usize, c1: usize, t: usize) -> &mut Self {
        self.apply(Gate::Ccx, &[c0, c1, t])
    }

    /// Doubly-controlled phase by `theta`, decomposed into `cp` and `cx`
    /// gates (the decomposition Qiskit uses for `mcp` with two controls).
    pub fn ccp(&mut self, theta: f64, c0: usize, c1: usize, t: usize) -> &mut Self {
        self.cp(theta / 2.0, c1, t)
            .cx(c0, c1)
            .cp(-theta / 2.0, c1, t)
            .cx(c0, c1)
            .cp(theta / 2.0, c0, t)
    }

    // ---- non-unitary operations ---------------------------------------

    /// Mid-circuit measurement of `q` in the computational basis.
    ///
    /// The engine collapses the state to the sampled outcome using its
    /// seeded stochastic stream. Note [`Circuit::inverse`] panics on
    /// circuits containing measurements (collapse is irreversible).
    pub fn measure(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::Measure, &[q])
    }

    /// Mid-circuit reset of `q` to |0⟩ (measure, then flip on outcome 1).
    ///
    /// Like [`Circuit::measure`], this is irreversible and makes
    /// [`Circuit::inverse`] panic.
    pub fn reset(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::Reset, &[q])
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Operation;
    type IntoIter = std::slice::Iter<'a, Operation>;

    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit{}{} on {} qubits, {} ops:",
            if self.name.is_empty() { "" } else { " " },
            self.name,
            self.num_qubits,
            self.ops.len()
        )?;
        for op in &self.ops {
            writeln!(f, "  {op}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cz(1, 2).rz(0.5, 2).ccx(0, 1, 2);
        assert_eq!(c.len(), 5);
        assert_eq!(c.num_qubits(), 3);
    }

    #[test]
    fn depth_of_parallel_gates_is_one() {
        let mut c = Circuit::new(4);
        c.h(0).h(1).h(2).h(3);
        assert_eq!(c.depth(), 1);
    }

    #[test]
    fn depth_counts_chains() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).h(1);
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn empty_circuit() {
        let c = Circuit::new(5);
        assert!(c.is_empty());
        assert_eq!(c.depth(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_checks_range() {
        let mut c = Circuit::new(2);
        c.h(2);
    }

    #[test]
    fn with_ops_reorders() {
        let mut c = Circuit::new(2);
        c.h(0).h(1);
        let reversed: Vec<_> = c.ops().iter().rev().cloned().collect();
        let r = c.with_ops(reversed);
        assert_eq!(r.ops()[0].qubits(), &[1]);
        assert_eq!(r.ops()[1].qubits(), &[0]);
    }

    #[test]
    fn ccp_decomposition_length() {
        let mut c = Circuit::new(3);
        c.ccp(1.0, 0, 1, 2);
        assert_eq!(c.len(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one qubit")]
    fn zero_qubits_rejected() {
        let _ = Circuit::new(0);
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let mut c = Circuit::with_name(2, "demo");
        c.h(0).s(0).cx(0, 1);
        let inv = c.inverse();
        assert_eq!(inv.name(), "demo_dg");
        let names: Vec<&str> = inv.iter().map(|op| op.gate().name()).collect();
        assert_eq!(names, vec!["cx", "sdg", "h"]);
    }

    #[test]
    fn display_lists_ops() {
        let mut c = Circuit::with_name(2, "bell");
        c.h(0).cx(0, 1);
        let s = c.to_string();
        assert!(s.contains("bell"));
        assert!(s.contains("h q[0]"));
        assert!(s.contains("cx q[0],q[1]"));
    }
}
