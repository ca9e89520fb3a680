//! The involvement tracker and zero-chunk pruning test (Algorithm 1).
//!
//! A chunk of the state vector is guaranteed all-zero exactly when its
//! chunk-index selects a `1` for some qubit that no gate has touched yet
//! (the initial state is |0…0⟩, and linear gate application keeps
//! untouched subspaces zero). Algorithm 1 of the paper evaluates this with
//! two bit tricks over the involvement mask; both are implemented here
//! verbatim, plus the dynamic chunk-size selection.

use qgpu_circuit::Operation;
use serde::{Deserialize, Serialize};

/// Tracks which qubits have been involved by the gates applied so far.
///
/// # Examples
///
/// ```
/// use qgpu_sched::InvolvementTracker;
/// use qgpu_circuit::{Gate, Operation};
///
/// let mut t = InvolvementTracker::new(8);
/// t.involve(&Operation::new(Gate::H, vec![0]));
/// t.involve(&Operation::new(Gate::Cx, vec![0, 1]));
/// assert_eq!(t.mask(), 0b11);
/// // With 1-qubit chunks, chunks with any bit ≥ 1 set beyond the mask
/// // are prunable.
/// assert!(!t.chunk_is_zero(0, 1));
/// assert!(t.chunk_is_zero(2, 1)); // index bit for qubit 2 set
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InvolvementTracker {
    mask: u64,
    num_qubits: usize,
}

impl InvolvementTracker {
    /// A tracker with no qubits involved.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is 0 or greater than 64.
    pub fn new(num_qubits: usize) -> Self {
        assert!(num_qubits > 0 && num_qubits <= 64);
        InvolvementTracker {
            mask: 0,
            num_qubits,
        }
    }

    /// The involvement bitmask (`involvement` in Algorithm 1).
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// Marks the operation's qubits involved (Algorithm 1's
    /// `updateInvolvement`).
    pub fn involve(&mut self, op: &Operation) {
        self.mask |= op.qubit_mask();
    }

    /// Marks an explicit qubit set involved.
    pub fn involve_mask(&mut self, mask: u64) {
        self.mask |= mask;
    }

    /// Algorithm 1's pruning test: is the chunk with index `chunk` (under
    /// `chunk_bits`-qubit chunks) guaranteed all-zero?
    ///
    /// The chunk's high index bits occupy global bit positions
    /// `chunk_bits..`; the chunk is non-zero only if every set bit maps to
    /// an involved qubit (`iChunk' & involvement == iChunk'`).
    pub fn chunk_is_zero(&self, chunk: usize, chunk_bits: u32) -> bool {
        let shifted = (chunk as u64) << chunk_bits;
        shifted & self.mask != shifted
    }

    /// Dynamic chunk size (Algorithm 1's `getChunkSize`): the number of
    /// contiguous low involved qubits, clamped to `[1, max_bits]`.
    ///
    /// Early in a run, when only qubits `0..k` are involved, a `k`-qubit
    /// chunk makes chunk 0 hold every non-zero amplitude and all other
    /// chunks prunable; the clamp keeps chunks within the transfer-buffer
    /// size once involvement has spread.
    pub fn dynamic_chunk_bits(&self, max_bits: u32) -> u32 {
        let trailing = (self.mask.trailing_ones()).max(1);
        trailing.min(max_bits).min(self.num_qubits as u32)
    }

    /// Number of chunks that *survive* pruning under the given chunk
    /// size: one per pattern of involved qubits at positions ≥
    /// `chunk_bits`.
    pub fn surviving_chunks(&self, chunk_bits: u32) -> usize {
        let high_involved = (self.mask >> chunk_bits).count_ones();
        1usize << high_involved.min(usize::BITS - 1)
    }

    /// Cost-model-driven chunk size: picks the `chunk_bits` in
    /// `[1, max_bits]` minimizing the per-gate movement cost
    /// `surviving_chunks(b) × (overhead_bytes + chunk_bytes(b))`, where
    /// `overhead_bytes` is the fixed per-task cost (transfer latency +
    /// kernel launch) expressed in byte-equivalents.
    ///
    /// This generalizes Algorithm 1's `getChunkSize`: when the involved
    /// qubits are the contiguous low block `0..k`, the minimum is the
    /// paper's choice (a chunk exactly covering the block); when
    /// involvement has gaps, tiny chunks would multiply per-task overhead
    /// without pruning more, and the cost model correctly keeps chunks
    /// large.
    pub fn optimal_chunk_bits(&self, max_bits: u32, overhead_bytes: f64) -> u32 {
        let max_bits = max_bits.clamp(1, self.num_qubits as u32);
        // Iterate from large to small so ties keep the larger size
        // (fewer tasks for the same bytes).
        let mut best = (f64::INFINITY, max_bits);
        for b in (1..=max_bits).rev() {
            let surviving = self.surviving_chunks(b) as f64;
            let cost = surviving * (overhead_bytes + (16u64 << b) as f64);
            if cost < best.0 {
                best = (cost, b);
            }
        }
        best.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgpu_circuit::generators::Benchmark;
    use qgpu_circuit::{Circuit, Gate};

    #[test]
    fn initial_tracker_prunes_everything_but_chunk_zero() {
        let t = InvolvementTracker::new(8);
        assert!(!t.chunk_is_zero(0, 2));
        for c in 1..64 {
            assert!(t.chunk_is_zero(c, 2), "chunk {c}");
        }
    }

    #[test]
    fn fully_involved_prunes_nothing() {
        let mut t = InvolvementTracker::new(6);
        t.involve_mask(0b111111);
        assert_eq!(t.surviving_chunks(2), 1 << 4);
        assert!((0..1 << 4).all(|c| !t.chunk_is_zero(c, 2)));
    }

    #[test]
    fn exhaustion_is_monotone() {
        // Algorithm 1's early exit: once `iChunk'` exceeds the mask, this
        // and every later chunk is zero.
        let mut t = InvolvementTracker::new(10);
        t.involve_mask(0b1111); // qubits 0..4
        let chunk_bits = 2;
        let first = (0..1usize << 8)
            .find(|&c| (c as u64) << chunk_bits > t.mask())
            .expect("the mask is below the last chunk");
        assert!((first..1 << 8).all(|c| t.chunk_is_zero(c, chunk_bits)));
        assert!(!t.chunk_is_zero(first - 1, chunk_bits));
    }

    #[test]
    fn dynamic_chunk_bits_follow_involvement() {
        let mut t = InvolvementTracker::new(16);
        assert_eq!(t.dynamic_chunk_bits(8), 1); // nothing involved yet
        t.involve_mask(0b1);
        assert_eq!(t.dynamic_chunk_bits(8), 1);
        t.involve_mask(0b111);
        assert_eq!(t.dynamic_chunk_bits(8), 3);
        t.involve_mask(0xffff);
        assert_eq!(t.dynamic_chunk_bits(8), 8); // clamped to max
    }

    #[test]
    fn gap_in_involvement_stops_trailing_ones() {
        let mut t = InvolvementTracker::new(16);
        t.involve_mask(0b101); // qubit 1 untouched
        assert_eq!(t.dynamic_chunk_bits(8), 1);
    }

    #[test]
    fn prune_test_agrees_with_real_amplitudes() {
        // The key safety property: a chunk reported zero must actually be
        // all-zero in the functional simulation, at every step.
        use qgpu_statevec::StateVector;
        for b in [Benchmark::Iqp, Benchmark::Gs, Benchmark::Hchain] {
            let c = b.generate(8);
            let mut t = InvolvementTracker::new(8);
            let mut s = StateVector::new_zero(8);
            let chunk_bits = 3u32;
            let chunk_len = 1usize << chunk_bits;
            for op in c.iter() {
                t.involve(op);
                s.apply(op);
                for chunk in 0..(1 << (8 - chunk_bits)) {
                    if t.chunk_is_zero(chunk, chunk_bits) {
                        let lo = chunk * chunk_len;
                        assert!(
                            s.amps()[lo..lo + chunk_len].iter().all(|a| a.is_zero()),
                            "{b}: chunk {chunk} claimed zero but is not"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn masks_before_each_op_shape() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).h(2);
        let mut t = InvolvementTracker::new(3);
        let masks: Vec<u64> = c
            .iter()
            .map(|op| {
                let before = t.mask();
                t.involve(op);
                before
            })
            .collect();
        assert_eq!(masks, vec![0b000, 0b001, 0b011]);
    }

    #[test]
    fn optimal_chunk_bits_minimizes_its_cost_model() {
        use proptest::prelude::*;
        let mut runner = proptest::test_runner::TestRunner::default();
        runner
            .run(
                &(any::<u64>(), 1u32..16, 0.0f64..1e6),
                |(mask, max_bits, overhead)| {
                    let mut t = InvolvementTracker::new(16);
                    t.involve_mask(mask & 0xffff);
                    let chosen = t.optimal_chunk_bits(max_bits, overhead);
                    let cost =
                        |b: u32| t.surviving_chunks(b) as f64 * (overhead + (16u64 << b) as f64);
                    for b in 1..=max_bits.min(16) {
                        prop_assert!(
                            cost(chosen) <= cost(b) + 1e-9,
                            "b={b} beats chosen={chosen}"
                        );
                    }
                    Ok(())
                },
            )
            .expect("property holds");
    }

    #[test]
    fn surviving_chunks_matches_direct_count() {
        let mut t = InvolvementTracker::new(10);
        t.involve_mask(0b1010110011);
        for b in 1..=8u32 {
            let direct = (0..(1usize << (10 - b)))
                .filter(|&c| !t.chunk_is_zero(c, b))
                .count();
            assert_eq!(t.surviving_chunks(b), direct, "chunk_bits {b}");
        }
    }

    #[test]
    fn involve_is_idempotent() {
        let mut t = InvolvementTracker::new(4);
        let op = qgpu_circuit::Operation::new(Gate::H, vec![2]);
        t.involve(&op);
        let m = t.mask();
        t.involve(&op);
        assert_eq!(t.mask(), m);
    }
}
