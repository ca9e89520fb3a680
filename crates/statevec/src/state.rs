//! Flat state-vector storage: the reference implementation.

use qgpu_circuit::access::GateAction;
use qgpu_circuit::{Circuit, Operation};
use qgpu_math::Complex64;

use crate::kernels;

/// A full `2^n`-amplitude state vector.
///
/// This is the reference simulator layout: gates are applied in place over
/// the whole vector. The chunked layout ([`crate::ChunkedState`]) must
/// always agree with it — the integration tests enforce that.
///
/// # Examples
///
/// ```
/// use qgpu_statevec::StateVector;
/// use qgpu_circuit::{Gate, Operation};
///
/// let mut s = StateVector::new_zero(2);
/// s.apply(&Operation::new(Gate::H, vec![0]));
/// assert!((s.norm() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    num_qubits: usize,
    amps: Vec<Complex64>,
}

impl StateVector {
    /// The all-zeros computational basis state |0…0⟩.
    ///
    /// The vector is resident whole, like any dense state, but its pages
    /// are mapped by one write each (on huge pages where the host allows)
    /// rather than by a fill.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is 0 or large enough to overflow memory
    /// (`2^n * 16` bytes are allocated).
    pub fn new_zero(num_qubits: usize) -> Self {
        assert!(num_qubits > 0, "need at least one qubit");
        assert!(
            num_qubits <= crate::MAX_QUBITS,
            "state vector would not fit in memory"
        );
        let mut amps = crate::chunked::resident_zeroed(1usize << num_qubits);
        amps[0] = Complex64::ONE;
        StateVector { num_qubits, amps }
    }

    /// Builds a state from raw amplitudes.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two.
    pub fn from_amplitudes(amps: Vec<Complex64>) -> Self {
        assert!(
            amps.len().is_power_of_two() && amps.len() >= 2,
            "amplitude count must be a power of two, got {}",
            amps.len()
        );
        let num_qubits = amps.len().trailing_zeros() as usize;
        StateVector { num_qubits, amps }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of amplitudes (`2^n`).
    pub fn len(&self) -> usize {
        self.amps.len()
    }

    /// Always `false`: a state vector has at least two amplitudes.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The amplitude of basis state `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn amp(&self, i: usize) -> Complex64 {
        self.amps[i]
    }

    /// All amplitudes.
    pub fn amps(&self) -> &[Complex64] {
        &self.amps
    }

    /// Mutable amplitude access (for kernels and tests).
    pub fn amps_mut(&mut self) -> &mut [Complex64] {
        &mut self.amps
    }

    /// Applies one operation in place (single-threaded).
    pub fn apply(&mut self, op: &Operation) {
        let action = GateAction::from_operation(op);
        kernels::apply_action(&mut self.amps, 0, &action);
    }

    /// Applies a prebuilt action (avoids rebuilding it per call).
    pub fn apply_action(&mut self, action: &GateAction) {
        kernels::apply_action(&mut self.amps, 0, action);
    }

    /// Runs a whole circuit on the state.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more qubits than the state.
    pub fn run(&mut self, circuit: &Circuit) {
        assert!(circuit.num_qubits() <= self.num_qubits);
        for op in circuit.iter() {
            self.apply(op);
        }
    }

    /// Runs a whole circuit using up to `threads` worker threads per gate
    /// (the OpenMP-style execution of the paper's CPU comparator).
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more qubits than the state or
    /// `threads == 0`.
    pub fn run_parallel(&mut self, circuit: &Circuit, threads: usize) {
        assert!(circuit.num_qubits() <= self.num_qubits);
        let ex = crate::executor::ChunkExecutor::new(threads);
        for op in circuit.iter() {
            ex.apply_flat(&mut self.amps, &GateAction::from_operation(op));
        }
    }

    /// Runs a whole circuit through the gate-fusion pass with *exact
    /// replay*: each fused run is applied member-by-member inside one
    /// cache-blocked pass, so the result is bitwise identical to
    /// [`StateVector::run`] at every thread count while touching memory
    /// once per run instead of once per gate.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more qubits than the state or
    /// `threads == 0`.
    pub fn run_fused(&mut self, circuit: &Circuit, threads: usize) {
        assert!(circuit.num_qubits() <= self.num_qubits);
        let ex = crate::executor::ChunkExecutor::new(threads);
        for fop in qgpu_circuit::fuse::fuse(circuit) {
            ex.apply_flat_run(&mut self.amps, fop.actions());
        }
    }

    /// The 2-norm of the state (1.0 for any valid quantum state).
    pub fn norm(&self) -> f64 {
        // Fixed-order tree reduction (not a running serial sum) so the
        // norm matches what any parallel caller computes, bit for bit.
        crate::executor::ChunkExecutor::new(1)
            .reduce_f64(self.amps.len(), |r| {
                self.amps[r].iter().map(|a| a.norm_sqr()).sum()
            })
            .sqrt()
    }

    /// Measurement probabilities of all basis states.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Largest per-amplitude deviation from `other`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn max_deviation(&self, other: &StateVector) -> f64 {
        assert_eq!(self.num_qubits, other.num_qubits);
        self.amps
            .iter()
            .zip(other.amps.iter())
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }

    /// Number of exactly-zero amplitudes.
    ///
    /// The paper's pruning exploits the fact that untouched qubits leave
    /// entire index ranges bit-exactly zero.
    pub fn zero_count(&self) -> usize {
        self.amps.iter().filter(|a| a.is_zero()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgpu_circuit::generators::Benchmark;
    use qgpu_circuit::Gate;

    #[test]
    fn zero_state_has_unit_norm() {
        let s = StateVector::new_zero(5);
        assert!((s.norm() - 1.0).abs() < 1e-15);
        assert_eq!(s.zero_count(), 31);
    }

    #[test]
    fn ghz_probabilities() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let mut s = StateVector::new_zero(3);
        s.run(&c);
        let p = s.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[7] - 0.5).abs() < 1e-12);
        assert!(p[1..7].iter().all(|&x| x < 1e-12));
    }

    #[test]
    fn norm_preserved_across_benchmarks() {
        for b in Benchmark::ALL {
            let c = b.generate(8);
            let mut s = StateVector::new_zero(8);
            s.run(&c);
            assert!((s.norm() - 1.0).abs() < 1e-9, "{b}: norm = {}", s.norm());
        }
    }

    #[test]
    fn x_then_x_is_identity() {
        let mut s = StateVector::new_zero(4);
        let reference = s.clone();
        s.apply(&Operation::new(Gate::X, vec![2]));
        s.apply(&Operation::new(Gate::X, vec![2]));
        assert!(s.max_deviation(&reference) < 1e-15);
    }

    #[test]
    fn uninvolved_qubits_leave_zeros() {
        // Touch only qubits 0 and 1 of a 5-qubit state: 3 qubits
        // uninvolved leaves 2^5 - 2^2 = 28 amplitudes exactly zero.
        let mut s = StateVector::new_zero(5);
        let mut c = Circuit::new(5);
        c.h(0).h(1).cx(0, 1).t(0);
        s.run(&c);
        assert!(s.zero_count() >= 28);
    }

    #[test]
    fn from_amplitudes_roundtrip() {
        let amps = vec![
            Complex64::new(0.6, 0.0),
            Complex64::ZERO,
            Complex64::new(0.0, 0.8),
            Complex64::ZERO,
        ];
        let s = StateVector::from_amplitudes(amps.clone());
        assert_eq!(s.num_qubits(), 2);
        assert_eq!(s.amps(), &amps[..]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn from_amplitudes_checks_length() {
        let _ = StateVector::from_amplitudes(vec![Complex64::ONE; 3]);
    }
}
