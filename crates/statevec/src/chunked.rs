//! The chunked state-vector layout of the paper's Figure 1.
//!
//! The `2^n` amplitudes are split into `2^(n - chunk_bits)` chunks of
//! `2^chunk_bits` amplitudes; the high `n - chunk_bits` index bits select
//! the chunk, the low bits the offset inside it. All-zero chunks are
//! stored sparsely (`None`) — the storage-level counterpart of Q-GPU's
//! zero-amplitude pruning: a chunk that has never been written is
//! guaranteed zero because gate application is linear.
//!
//! Gates whose mixing qubits are all below the chunk boundary update each
//! chunk independently (the paper's Case 1). A mixing qubit at or above
//! the boundary forces chunks to be processed in groups of
//! `2^high_mixing` (Case 2) — the functional analogue of the CPU→GPU
//! chunk exchange the paper optimizes. Both cases are executed by
//! [`crate::ChunkExecutor`]; [`ChunkedState::apply_action`] is its serial
//! path over the whole state.

use qgpu_circuit::access::GateAction;
use qgpu_circuit::Operation;
use qgpu_math::Complex64;

use crate::executor::ChunkExecutor;
use crate::state::StateVector;

/// A chunk checked out of a [`ChunkedState`] so an executor worker can
/// own it (see [`ChunkedState::take_chunk`]).
pub(crate) struct Member {
    pub(crate) chunk: usize,
    pub(crate) amps: Box<[Complex64]>,
    was_sparse: bool,
}

/// A state vector partitioned into power-of-two chunks with sparse
/// all-zero chunks.
///
/// # Examples
///
/// ```
/// use qgpu_statevec::ChunkedState;
/// use qgpu_circuit::{Gate, Operation};
///
/// let mut s = ChunkedState::new_zero(6, 3); // 8 chunks of 8 amplitudes
/// assert_eq!(s.num_chunks(), 8);
/// assert_eq!(s.dense_chunk_count(), 1); // only chunk 0 is materialized
///
/// s.apply_operation(&Operation::new(Gate::H, vec![0]));
/// assert_eq!(s.dense_chunk_count(), 1); // still confined to chunk 0
///
/// s.apply_operation(&Operation::new(Gate::H, vec![5]));
/// assert_eq!(s.dense_chunk_count(), 2); // qubit 5 spans chunks
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkedState {
    num_qubits: usize,
    chunk_bits: u32,
    chunks: Vec<Option<Box<[Complex64]>>>,
}

impl ChunkedState {
    /// The |0…0⟩ state with the given chunk size (in qubits).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bits` is 0 or exceeds `num_qubits`.
    pub fn new_zero(num_qubits: usize, chunk_bits: u32) -> Self {
        assert!(num_qubits > 0 && num_qubits < 48);
        assert!(
            chunk_bits >= 1 && (chunk_bits as usize) <= num_qubits,
            "chunk_bits {chunk_bits} out of range for {num_qubits} qubits"
        );
        let num_chunks = 1usize << (num_qubits as u32 - chunk_bits);
        let mut chunks = vec![None; num_chunks];
        let mut first = vec![Complex64::ZERO; 1 << chunk_bits].into_boxed_slice();
        first[0] = Complex64::ONE;
        chunks[0] = Some(first);
        ChunkedState {
            num_qubits,
            chunk_bits,
            chunks,
        }
    }

    /// Builds a chunked state from a flat one.
    ///
    /// Chunks that are entirely zero are stored sparsely.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bits` exceeds the state's qubit count or is 0.
    pub fn from_flat(state: &StateVector, chunk_bits: u32) -> Self {
        let num_qubits = state.num_qubits();
        assert!(chunk_bits >= 1 && (chunk_bits as usize) <= num_qubits);
        let chunk_len = 1usize << chunk_bits;
        let chunks = state
            .amps()
            .chunks(chunk_len)
            .map(|c| {
                if c.iter().all(|a| a.is_zero()) {
                    None
                } else {
                    Some(c.to_vec().into_boxed_slice())
                }
            })
            .collect();
        ChunkedState {
            num_qubits,
            chunk_bits,
            chunks,
        }
    }

    /// Flattens back into a [`StateVector`].
    pub fn to_flat(&self) -> StateVector {
        let chunk_len = self.chunk_len();
        let mut amps = vec![Complex64::ZERO; 1 << self.num_qubits];
        for (i, chunk) in self.chunks.iter().enumerate() {
            if let Some(c) = chunk {
                amps[i * chunk_len..(i + 1) * chunk_len].copy_from_slice(c);
            }
        }
        StateVector::from_amplitudes(amps)
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Chunk size in qubits.
    pub fn chunk_bits(&self) -> u32 {
        self.chunk_bits
    }

    /// Amplitudes per chunk.
    pub fn chunk_len(&self) -> usize {
        1 << self.chunk_bits
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// The chunk's amplitudes, or `None` if it is (guaranteed) all-zero.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn chunk(&self, i: usize) -> Option<&[Complex64]> {
        self.chunks[i].as_deref()
    }

    /// Returns `true` if chunk `i` is stored sparsely (all-zero).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn is_zero_chunk(&self, i: usize) -> bool {
        self.chunks[i].is_none()
    }

    /// Number of materialized (non-sparse) chunks.
    pub fn dense_chunk_count(&self) -> usize {
        self.chunks.iter().filter(|c| c.is_some()).count()
    }

    /// Bytes of amplitude storage actually allocated — the memory-side
    /// benefit of sparse zero chunks (a full vector would always take
    /// `2^n × 16`).
    pub fn memory_bytes(&self) -> usize {
        self.dense_chunk_count() * self.chunk_len() * 16
    }

    /// Materializes chunk `i` (zero-filled if sparse) and returns it.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn chunk_mut_or_alloc(&mut self, i: usize) -> &mut [Complex64] {
        let len = self.chunk_len();
        self.chunks[i].get_or_insert_with(|| vec![Complex64::ZERO; len].into_boxed_slice())
    }

    /// Reverts chunk `i` to sparse storage if its contents are all zero
    /// (a collapse zeroes whole chunks).
    pub(crate) fn demote_if_zero(&mut self, i: usize) {
        if let Some(c) = &self.chunks[i] {
            if c.iter().all(|a| a.is_zero()) {
                self.chunks[i] = None;
            }
        }
    }

    /// The chunk's amplitudes for in-place update, or `None` if it is
    /// stored sparsely.
    pub(crate) fn chunk_mut(&mut self, i: usize) -> Option<&mut [Complex64]> {
        self.chunks[i].as_deref_mut()
    }

    /// Checks chunk `i` out of the state — materialized (zero-filled) if
    /// it was sparse, so a worker can write it without allocating. Until
    /// [`ChunkedState::put_chunk`] hands it back the slot reads as sparse.
    pub(crate) fn take_chunk(&mut self, i: usize) -> Member {
        let taken = self.chunks[i].take();
        Member {
            chunk: i,
            was_sparse: taken.is_none(),
            amps: taken
                .unwrap_or_else(|| vec![Complex64::ZERO; self.chunk_len()].into_boxed_slice()),
        }
    }

    /// Hands a checked-out chunk back. One that was sparse and is still
    /// all zero goes back sparse, matching the sparsity a per-gate update
    /// would have produced; one that was dense stays dense.
    pub(crate) fn put_chunk(&mut self, m: Member) {
        if !(m.was_sparse && m.amps.iter().all(|a| a.is_zero())) {
            self.chunks[m.chunk] = Some(m.amps);
        }
    }

    /// Re-partitions the state with a new chunk size, preserving contents.
    ///
    /// Growing merges `2^(new-old)` consecutive chunks (sparse only if all
    /// parts were sparse); shrinking splits chunks (each part sparse if it
    /// is all-zero). This implements the paper's *dynamic chunk size*
    /// (Algorithm 1's `getChunkSize`).
    ///
    /// # Panics
    ///
    /// Panics if `new_bits` is 0 or exceeds the qubit count.
    pub fn set_chunk_bits(&mut self, new_bits: u32) {
        assert!(new_bits >= 1 && (new_bits as usize) <= self.num_qubits);
        if new_bits == self.chunk_bits {
            return;
        }
        if new_bits > self.chunk_bits {
            let factor = 1usize << (new_bits - self.chunk_bits);
            let old_len = self.chunk_len();
            let new_len = old_len * factor;
            let mut merged: Vec<Option<Box<[Complex64]>>> =
                Vec::with_capacity(self.chunks.len() / factor);
            for group in self.chunks.chunks(factor) {
                if group.iter().all(|c| c.is_none()) {
                    merged.push(None);
                } else {
                    let mut buf = vec![Complex64::ZERO; new_len].into_boxed_slice();
                    for (j, part) in group.iter().enumerate() {
                        if let Some(p) = part {
                            buf[j * old_len..(j + 1) * old_len].copy_from_slice(p);
                        }
                    }
                    merged.push(Some(buf));
                }
            }
            self.chunks = merged;
        } else {
            let factor = 1usize << (self.chunk_bits - new_bits);
            let new_len = 1usize << new_bits;
            let mut split: Vec<Option<Box<[Complex64]>>> =
                Vec::with_capacity(self.chunks.len() * factor);
            for chunk in &self.chunks {
                match chunk {
                    None => split.extend(std::iter::repeat_with(|| None).take(factor)),
                    Some(c) => {
                        for part in c.chunks(new_len) {
                            if part.iter().all(|a| a.is_zero()) {
                                split.push(None);
                            } else {
                                split.push(Some(part.to_vec().into_boxed_slice()));
                            }
                        }
                    }
                }
            }
            self.chunks = split;
        }
        self.chunk_bits = new_bits;
    }

    /// The chunk group that must be co-processed with `chunk` for the
    /// given high-mixing qubit positions, ordered by mixing-bit pattern.
    ///
    /// `high_mixing` lists global qubit positions `>= chunk_bits`; the
    /// group has `2^high_mixing.len()` members.
    ///
    /// # Panics
    ///
    /// Panics if a listed qubit is below the chunk boundary.
    pub fn chunk_group(&self, chunk: usize, high_mixing: &[usize]) -> Vec<usize> {
        let mut base = chunk;
        for &q in high_mixing {
            let bit = q as u32 - self.chunk_bits;
            assert!(q as u32 >= self.chunk_bits);
            base &= !(1usize << bit);
        }
        (0..1usize << high_mixing.len())
            .map(|pattern| {
                let mut idx = base;
                for (b, &q) in high_mixing.iter().enumerate() {
                    if (pattern >> b) & 1 == 1 {
                        idx |= 1usize << (q as u32 - self.chunk_bits);
                    }
                }
                idx
            })
            .collect()
    }

    /// Applies one action to the whole state: chunk by chunk when every
    /// mixing qubit is below the boundary (Case 1), by canonical chunk
    /// groups otherwise (Case 2) — the executor's serial path.
    pub fn apply_action(&mut self, action: &GateAction) {
        let ex = ChunkExecutor::with_exact_threads(1);
        let actions = std::slice::from_ref(action);
        let high_mixing: Vec<usize> = action
            .mixing_qubits()
            .iter()
            .copied()
            .filter(|&q| (q as u32) >= self.chunk_bits)
            .collect();
        if high_mixing.is_empty() {
            let chunks: Vec<usize> = (0..self.num_chunks()).collect();
            return ex.apply_local_run(self, actions, &chunks);
        }
        // Canonical groups start at chunks whose high-mixing index bits
        // are all zero.
        let group_mask: usize = high_mixing
            .iter()
            .map(|&q| 1usize << (q as u32 - self.chunk_bits))
            .sum();
        let groups: Vec<Vec<usize>> = (0..self.num_chunks())
            .filter(|chunk| chunk & group_mask == 0)
            .map(|chunk| self.chunk_group(chunk, &high_mixing))
            .collect();
        let groups: Vec<&[usize]> = groups.iter().map(Vec::as_slice).collect();
        ex.apply_group_runs(self, actions, &groups, &high_mixing);
    }

    /// Applies one operation (convenience wrapper over
    /// [`ChunkedState::apply_action`]).
    pub fn apply_operation(&mut self, op: &Operation) {
        self.apply_action(&GateAction::from_operation(op));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgpu_circuit::generators::Benchmark;
    use qgpu_circuit::{Circuit, Gate};

    fn run_both(c: &Circuit, chunk_bits: u32) -> (StateVector, ChunkedState) {
        let mut flat = StateVector::new_zero(c.num_qubits());
        flat.run(c);
        let mut chunked = ChunkedState::new_zero(c.num_qubits(), chunk_bits);
        for op in c.iter() {
            chunked.apply_operation(op);
        }
        (flat, chunked)
    }

    #[test]
    fn matches_flat_on_benchmarks() {
        for b in Benchmark::ALL {
            let c = b.generate(8);
            let (flat, chunked) = run_both(&c, 3);
            let dev = chunked.to_flat().max_deviation(&flat);
            assert!(dev < 1e-10, "{b}: deviation {dev}");
        }
    }

    #[test]
    fn matches_flat_for_all_chunk_sizes() {
        let c = Benchmark::Qft.generate(7);
        let mut flat = StateVector::new_zero(7);
        flat.run(&c);
        for chunk_bits in 1..=7 {
            let mut chunked = ChunkedState::new_zero(7, chunk_bits);
            for op in c.iter() {
                chunked.apply_operation(op);
            }
            let dev = chunked.to_flat().max_deviation(&flat);
            assert!(dev < 1e-10, "chunk_bits {chunk_bits}: deviation {dev}");
        }
    }

    #[test]
    fn zero_chunks_stay_sparse_until_involved() {
        // Gates confined to chunk-local qubits never materialize other chunks.
        let mut s = ChunkedState::new_zero(8, 4);
        let mut c = Circuit::new(8);
        c.h(0).h(1).cx(0, 2).t(3).cz(1, 3);
        for op in c.iter() {
            s.apply_operation(op);
        }
        assert_eq!(s.dense_chunk_count(), 1);
        // Involving qubit 7 (top chunk bit) doubles the dense chunks.
        s.apply_operation(&Operation::new(Gate::H, vec![7]));
        assert_eq!(s.dense_chunk_count(), 2);
    }

    #[test]
    fn diagonal_gates_never_materialize() {
        let mut s = ChunkedState::new_zero(8, 4);
        s.apply_operation(&Operation::new(Gate::H, vec![0]));
        // CZ and CP across the boundary stay Case-1.
        s.apply_operation(&Operation::new(Gate::Cz, vec![0, 7]));
        s.apply_operation(&Operation::new(Gate::Cp(0.4), vec![6, 1]));
        assert_eq!(s.dense_chunk_count(), 1);
    }

    #[test]
    fn high_control_does_not_group() {
        // CX with high control, low target: chunk-local once selected.
        let mut s = ChunkedState::new_zero(6, 3);
        s.apply_operation(&Operation::new(Gate::H, vec![5]));
        s.apply_operation(&Operation::new(Gate::Cx, vec![5, 0]));
        let flat = s.to_flat();
        // Expect (|000000> + |100001>)/√2.
        assert!((flat.amp(0).norm_sqr() - 0.5).abs() < 1e-12);
        assert!((flat.amp(0b100001).norm_sqr() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn chunk_group_enumeration() {
        let s = ChunkedState::new_zero(8, 3);
        // High mixing qubits 4 and 6 -> chunk-index bits 1 and 3.
        let group = s.chunk_group(0b0101, &[4, 6]);
        assert_eq!(group, vec![0b0101, 0b0111, 0b1101, 0b1111]);
    }

    #[test]
    fn rechunking_preserves_state() {
        let c = Benchmark::Gs.generate(8);
        let (flat, mut chunked) = run_both(&c, 2);
        chunked.set_chunk_bits(5);
        assert!(chunked.to_flat().max_deviation(&flat) < 1e-10);
        chunked.set_chunk_bits(3);
        assert!(chunked.to_flat().max_deviation(&flat) < 1e-10);
        assert_eq!(chunked.chunk_bits(), 3);
    }

    #[test]
    fn rechunking_keeps_sparsity() {
        let s0 = ChunkedState::new_zero(10, 2);
        let mut s = s0.clone();
        s.set_chunk_bits(5);
        assert_eq!(s.dense_chunk_count(), 1);
        s.set_chunk_bits(1);
        assert_eq!(s.dense_chunk_count(), 1);
    }

    #[test]
    fn from_flat_detects_zero_chunks() {
        let mut flat = StateVector::new_zero(6);
        let mut c = Circuit::new(6);
        c.h(0).h(1);
        flat.run(&c);
        let chunked = ChunkedState::from_flat(&flat, 2);
        assert_eq!(chunked.dense_chunk_count(), 1);
        assert!(chunked.to_flat().max_deviation(&flat) < 1e-15);
    }

    #[test]
    fn memory_tracks_dense_chunks() {
        let mut s = ChunkedState::new_zero(10, 4);
        assert_eq!(s.memory_bytes(), 16 * 16); // one 16-amp chunk
        s.apply_operation(&Operation::new(Gate::H, vec![9]));
        assert_eq!(s.memory_bytes(), 2 * 16 * 16);
        // Full involvement materializes everything.
        for q in 0..10 {
            s.apply_operation(&Operation::new(Gate::H, vec![q]));
        }
        assert_eq!(s.memory_bytes(), (1 << 10) * 16);
    }

    #[test]
    fn mid_circuit_rechunk_matches_flat() {
        // Change chunk size mid-run, as dynamic chunk sizing does.
        let c = Benchmark::Iqp.generate(8);
        let mut flat = StateVector::new_zero(8);
        let mut chunked = ChunkedState::new_zero(8, 1);
        for (i, op) in c.iter().enumerate() {
            flat.apply(op);
            chunked.apply_operation(op);
            if i == c.len() / 3 {
                chunked.set_chunk_bits(4);
            }
            if i == 2 * c.len() / 3 {
                chunked.set_chunk_bits(2);
            }
        }
        assert!(chunked.to_flat().max_deviation(&flat) < 1e-10);
    }
}
