//! The chunked state-vector layout of the paper's Figure 1.
//!
//! The `2^n` amplitudes are one contiguous host array — the *arena* — and
//! a chunk is an index range of it: the high `n - chunk_bits` index bits
//! select the chunk, the low bits the offset inside it. A bitmap marks
//! the *live* chunks; every other chunk is guaranteed all-zero — the
//! storage-level counterpart of Q-GPU's zero-amplitude pruning: a chunk
//! that has never been written is zero because gate application is
//! linear.
//!
//! A non-live range holds `+0.0` bits, always: the arena comes zeroed
//! from the allocator, which maps a page only when it is first touched
//! (a chunk that stays non-live costs neither memory nor time), and
//! whatever ends a chunk's life re-zeroes it (`-0.0` passes `is_zero()`).
//! So the arena *is* the flat state — [`ChunkedState::into_flat`] moves
//! it out — and re-partitioning only rebuilds the bitmap. Above a *fresh
//! mark* nothing has been written yet: a group dispatch about to write
//! 2 MiB of that whole first advises it onto a huge page
//! (`huge_regions`).
//!
//! Gates whose mixing qubits are all below the chunk boundary update each
//! chunk independently (the paper's Case 1). A mixing qubit at or above
//! the boundary forces chunks to be processed in groups of
//! `2^high_mixing` (Case 2) — the functional analogue of the CPU→GPU
//! chunk exchange the paper optimizes. Both cases are one dispatch of
//! [`crate::ChunkExecutor`] — Case 1 over groups of one chunk — and
//! [`ChunkedState::apply_action`] is its serial path over the whole state.

use std::ops::Range;

use qgpu_circuit::access::GateAction;
use qgpu_circuit::Operation;
use qgpu_math::mem::{advise_huge, HUGE_PAGE, PAGE};
use qgpu_math::Complex64;

use crate::executor::ChunkExecutor;
use crate::state::StateVector;

/// A run of consecutive chunks borrowed out of a [`ChunkedState`] so an
/// executor worker can own it (see [`ChunkedState::carve`]): `chunk` is
/// its first chunk.
pub(crate) struct Member<'a> {
    pub(crate) chunk: usize,
    pub(crate) amps: &'a mut [Complex64],
}

/// `len` amplitudes of `+0.0`, straight from the allocator's zeroed
/// pages: an optimized build folds "allocate, then fill all of it with
/// zero bits" into a zeroed allocation — when `len` is known non-zero and
/// the fill covers exactly `len` (`vec![ZERO; len]` fills `len - 1` and
/// moves the last in). Out of line, so every caller gets the one body
/// the fold reaches; `crates/core/tests/state_memory.rs` fails if it
/// stops.
#[inline(never)]
fn zeroed(len: usize) -> Vec<Complex64> {
    assert!(len > 0);
    std::iter::repeat_n(Complex64::ZERO, len).collect()
}

/// Amplitudes per base page.
const PAGE_AMPS: usize = PAGE / size_of::<Complex64>();

/// Amplitudes per huge page.
const HUGE_AMPS: usize = HUGE_PAGE / size_of::<Complex64>();

/// Writes `+0.0` once into every page `part` reaches — at a page's
/// stride from its start, and at its end, whose page the stride may
/// skip. Only for ranges that hold `+0.0` bits already: the point is the
/// first touch, which must be a write (see [`ChunkedState::touch`]).
fn first_write(part: &mut [Complex64]) {
    for a in part.iter_mut().step_by(PAGE_AMPS) {
        *a = Complex64::ZERO;
    }
    if let Some(last) = part.last_mut() {
        *last = Complex64::ZERO;
    }
}

/// The huge-page regions a dispatch may advise, as arena index ranges:
/// every 2 MiB-*address*-aligned range of an arena at address `base`
/// whose chunks (of `2^chunk_bits` amplitudes, the two it straddles
/// included) all start at or above the fresh mark `fresh` and all belong
/// to one of `runs`, the chunk runs the dispatch writes (any order,
/// disjoint). Each region is checked once against the merged runs, not
/// once per chunk.
fn huge_regions(
    base: usize,
    chunk_bits: u32,
    fresh: usize,
    runs: impl IntoIterator<Item = Range<usize>>,
) -> Vec<Range<usize>> {
    // The index of an amplitude that starts a huge page (modulo
    // HUGE_AMPS); none does if the boundaries fall inside amplitudes.
    let lead = base.wrapping_neg() % HUGE_PAGE;
    if !lead.is_multiple_of(size_of::<Complex64>()) {
        return Vec::new();
    }
    let phase = lead / size_of::<Complex64>();
    let first_fresh = fresh.div_ceil(1 << chunk_bits);
    let mut spans: Vec<Range<usize>> = runs
        .into_iter()
        .map(|r| r.start.max(first_fresh)..r.end)
        .filter(|r| !r.is_empty())
        .collect();
    spans.sort_unstable_by_key(|r| r.start);
    let mut spans = spans.into_iter().peekable();
    let mut regions = Vec::new();
    while let Some(mut span) = spans.next() {
        while let Some(next) = spans.next_if(|n| n.start == span.end) {
            span.end = next.end;
        }
        let (lo, hi) = (span.start << chunk_bits, span.end << chunk_bits);
        let mut at = lo + phase.wrapping_sub(lo) % HUGE_AMPS;
        while at + HUGE_AMPS <= hi {
            regions.push(at..at + HUGE_AMPS);
            at += HUGE_AMPS;
        }
    }
    regions
}

/// `len` amplitudes of `+0.0`, resident: [`zeroed`], with huge pages
/// advised over its aligned interior and every page written once.
pub(crate) fn resident_zeroed(len: usize) -> Vec<Complex64> {
    let mut amps = zeroed(len);
    for r in huge_regions(amps.as_ptr() as usize, 0, 0, std::iter::once(0..len)) {
        advise_huge(&mut amps[r]);
    }
    first_write(&mut amps);
    amps
}

/// Whether `part` is all zero — and if so leaves it holding `+0.0` bits,
/// as a non-live range must. Writes only where a `-0.0` is, so a page
/// nothing ever touched stays unmapped.
fn settle_zero(part: &mut [Complex64]) -> bool {
    if !part.iter().all(|a| a.is_zero()) {
        return false;
    }
    if part
        .iter()
        .any(|a| a.re.is_sign_negative() || a.im.is_sign_negative())
    {
        part.fill(Complex64::ZERO);
    }
    true
}

/// The indices of the set bits of `words`, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

/// A state vector partitioned into power-of-two chunks, all-zero chunks
/// marked non-live.
///
/// # Examples
///
/// ```
/// use qgpu_statevec::ChunkedState;
/// use qgpu_circuit::{Gate, Operation};
///
/// let mut s = ChunkedState::new_zero(6, 3); // 8 chunks of 8 amplitudes
/// assert_eq!(s.num_chunks(), 8);
/// assert_eq!(s.dense_chunk_count(), 1); // only chunk 0 is live
///
/// s.apply_operation(&Operation::new(Gate::H, vec![0]));
/// assert_eq!(s.dense_chunk_count(), 1); // still confined to chunk 0
///
/// s.apply_operation(&Operation::new(Gate::H, vec![5]));
/// assert_eq!(s.dense_chunk_count(), 2); // qubit 5 spans chunks
/// ```
#[derive(Debug, PartialEq)]
pub struct ChunkedState {
    num_qubits: usize,
    chunk_bits: u32,
    /// All `2^n` amplitudes; `+0.0` bits wherever no live chunk is.
    amps: Vec<Complex64>,
    /// Bit `i` is set iff chunk `i` is live.
    live: Vec<u64>,
    /// The *fresh mark*: no amplitude from this index on has been
    /// written since the arena was allocated.
    fresh: usize,
}

/// Copies the live chunks into a fresh arena: the rest of `2^n`
/// amplitudes is never read or written.
impl Clone for ChunkedState {
    fn clone(&self) -> Self {
        let mut amps = zeroed(self.amps.len());
        for c in set_bits(&self.live) {
            let r = self.range(c);
            amps[r.clone()].copy_from_slice(&self.amps[r]);
        }
        ChunkedState {
            amps,
            live: self.live.clone(),
            ..*self
        }
    }
}

/// The widest state this crate holds, in qubits: `2^47` amplitudes are
/// 2 PiB, past any host.
pub const MAX_QUBITS: usize = 47;

impl ChunkedState {
    /// The all-zero vector: no chunk live.
    fn null(num_qubits: usize, chunk_bits: u32) -> Self {
        assert!(num_qubits > 0 && num_qubits <= MAX_QUBITS);
        assert!(
            chunk_bits >= 1 && (chunk_bits as usize) <= num_qubits,
            "chunk_bits {chunk_bits} out of range for {num_qubits} qubits"
        );
        ChunkedState {
            num_qubits,
            chunk_bits,
            amps: zeroed(1 << num_qubits),
            live: vec![0; (1usize << (num_qubits as u32 - chunk_bits)).div_ceil(64)],
            fresh: 0,
        }
    }

    /// The |0…0⟩ state with the given chunk size (in qubits).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bits` is 0 or exceeds `num_qubits`.
    pub fn new_zero(num_qubits: usize, chunk_bits: u32) -> Self {
        let mut state = ChunkedState::null(num_qubits, chunk_bits);
        state.chunk_mut_or_alloc(0)[0] = Complex64::ONE;
        state
    }

    /// Builds a chunked state from a flat one.
    ///
    /// Chunks that are entirely zero are non-live.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bits` exceeds the state's qubit count or is 0.
    pub fn from_flat(state: &StateVector, chunk_bits: u32) -> Self {
        let mut chunked = ChunkedState::null(state.num_qubits(), chunk_bits);
        for (i, c) in state.amps().chunks(1 << chunk_bits).enumerate() {
            if !c.iter().all(|a| a.is_zero()) {
                chunked.chunk_mut_or_alloc(i).copy_from_slice(c);
            }
        }
        chunked
    }

    /// The flat state: the arena itself, moved — nothing is allocated or
    /// copied.
    pub fn into_flat(self) -> StateVector {
        StateVector::from_amplitudes(self.amps)
    }

    /// All `2^n` amplitudes in index order, borrowed.
    pub fn as_flat(&self) -> &[Complex64] {
        &self.amps
    }

    /// A flat copy of the state.
    pub fn to_flat(&self) -> StateVector {
        self.clone().into_flat()
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
        self.amps.len() >> self.chunk_bits
    }

    /// The arena range of chunk `i`.
    fn range(&self, i: usize) -> Range<usize> {
        self.span(&(i..i + 1))
    }

    /// The arena range of the consecutive chunks `run`.
    fn span(&self, run: &Range<usize>) -> Range<usize> {
        run.start << self.chunk_bits..run.end << self.chunk_bits
    }

    /// The chunk's amplitudes, or `None` if it is (guaranteed) all-zero.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn chunk(&self, i: usize) -> Option<&[Complex64]> {
        let part = &self.amps[self.range(i)];
        self.is_live(i).then_some(part)
    }

    /// Returns `true` if chunk `i` is non-live (all-zero).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn is_zero_chunk(&self, i: usize) -> bool {
        assert!(i < self.num_chunks(), "chunk {i} out of range");
        !self.is_live(i)
    }

    /// The stretches of live chunks in `run`, in order.
    pub(crate) fn live_runs(&self, run: Range<usize>) -> impl Iterator<Item = Range<usize>> + '_ {
        // The first chunk at or after `c`, before `run.end`, whose live
        // bit is `bit` (or `run.end`).
        let next = move |mut c: usize, bit: bool| {
            while c < run.end {
                let word = self.live[c / 64] ^ if bit { 0 } else { u64::MAX };
                let ahead = word >> (c % 64);
                if ahead != 0 {
                    return (c + ahead.trailing_zeros() as usize).min(run.end);
                }
                c = (c / 64 + 1) * 64;
            }
            run.end
        };
        let mut at = run.start;
        std::iter::from_fn(move || {
            let start = next(at, true);
            at = next(start, false);
            (start < at).then_some(start..at)
        })
    }

    #[inline]
    fn is_live(&self, i: usize) -> bool {
        self.live[i / 64] >> (i % 64) & 1 != 0
    }

    fn set_live(&mut self, i: usize, live: bool) {
        let bit = 1u64 << (i % 64);
        if live {
            self.live[i / 64] |= bit;
        } else {
            self.live[i / 64] &= !bit;
        }
    }

    /// Number of live chunks.
    pub fn dense_chunk_count(&self) -> usize {
        self.live.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Bytes of amplitude storage in live chunks — the memory-side
    /// benefit of pruning (a full vector would always take `2^n × 16`).
    pub fn memory_bytes(&self) -> usize {
        self.dense_chunk_count() * self.chunk_len() * 16
    }

    /// Makes chunk `i` live (it reads all-zero if it was not) and returns
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn chunk_mut_or_alloc(&mut self, i: usize) -> &mut [Complex64] {
        let r = self.range(i);
        self.set_live(i, true);
        self.fresh = self.fresh.max(r.end);
        &mut self.amps[r]
    }

    /// Ends chunk `i`'s life if its contents are all zero (a collapse
    /// zeroes whole chunks).
    pub(crate) fn demote_if_zero(&mut self, i: usize) {
        let r = self.range(i);
        if self.is_live(i) && settle_zero(&mut self.amps[r]) {
            self.set_live(i, false);
        }
    }

    /// The chunk's amplitudes for in-place update, or `None` if it is
    /// not live.
    #[inline]
    pub(crate) fn chunk_mut(&mut self, i: usize) -> Option<&mut [Complex64]> {
        let r = self.range(i);
        let live = self.is_live(i);
        live.then_some(&mut self.amps[r])
    }

    /// The amplitudes of the consecutive chunks `run`, one slice, live or
    /// not.
    pub(crate) fn run_mut(&mut self, run: &Range<usize>) -> &mut [Complex64] {
        let r = self.span(run);
        &mut self.amps[r]
    }

    /// Moves live chunk `from` onto chunk `to`: `to` is live with `from`'s
    /// amplitudes, `from` is all-zero and not.
    pub(crate) fn move_chunk(&mut self, from: usize, to: usize) {
        let r = self.range(from);
        self.amps.copy_within(r, to << self.chunk_bits);
        self.set_live(to, true);
        self.fresh = self.fresh.max(self.range(to).end);
        self.clear_chunk(from);
    }

    /// Ends chunk `i`'s life whatever it holds: it is `+0.0` and not
    /// live.
    pub(crate) fn clear_chunk(&mut self, i: usize) {
        let r = self.range(i);
        self.amps[r].fill(Complex64::ZERO);
        self.set_live(i, false);
    }

    /// The (disjoint) runs' amplitudes, live or not: writing a non-live
    /// chunk is speculative until [`ChunkedState::settle`] rules on it.
    pub(crate) fn runs_mut<const N: usize>(
        &mut self,
        runs: [Range<usize>; N],
    ) -> [&mut [Complex64]; N] {
        let spans = runs.map(|r| self.span(&r));
        self.amps.get_disjoint_mut(spans).expect("disjoint runs")
    }

    /// Borrows the listed runs of chunks out of the arena all at once, in
    /// list order, so that workers can own disjoint amplitudes with no
    /// `unsafe`: one walk of the arena in chunk order, sorted back into
    /// list order (O(listed) when the list ascends).
    ///
    /// # Panics
    ///
    /// Panics if a run is out of range or overlaps another.
    pub(crate) fn carve(&mut self, runs: &[Range<usize>]) -> Vec<Member<'_>> {
        let mut order: Vec<usize> = (0..runs.len()).collect();
        order.sort_unstable_by_key(|&p| runs[p].start);
        let (bits, mut rest, mut rest_at) = (self.chunk_bits, &mut self.amps[..], 0);
        let carve_next = |p: usize| {
            let run = &runs[p];
            let skip = (run.start << bits).checked_sub(rest_at);
            let skip = skip.expect("a chunk is carved once");
            let len = run.len() << bits;
            let (amps, tail) = std::mem::take(&mut rest)[skip..].split_at_mut(len);
            (rest, rest_at) = (tail, rest_at + skip + len);
            (
                p,
                Member {
                    chunk: run.start,
                    amps,
                },
            )
        };
        let mut carved: Vec<(usize, Member<'_>)> = order.into_iter().map(carve_next).collect();
        carved.sort_unstable_by_key(|&(p, _)| p);
        carved.into_iter().map(|(_, m)| m).collect()
    }

    /// Writes the non-live chunks of `run` first, ahead of a group run
    /// that will read and then write them: one `+0.0` per page, over the
    /// `+0.0` they hold. A lazily zeroed page whose first touch is a read
    /// is mapped twice — the shared zero page, then its own — and the
    /// second mapping interrupts every other running thread of the
    /// process to flush its TLB; in a huge-page region the write maps all
    /// 2 MiB at once, where a read would map the huge zero page and leave
    /// the write to fault 512 times.
    pub(crate) fn touch(&mut self, run: Range<usize>) {
        self.fresh = self.fresh.max(self.span(&run).end);
        for c in run {
            let r = self.range(c);
            if !self.is_live(c) {
                first_write(&mut self.amps[r]);
            }
        }
    }

    /// The huge-page regions of the arena a dispatch about to write the
    /// chunk runs `runs` whole may advise (see [`huge_regions`]): fresh
    /// arena only, so an advised region would have become resident
    /// whole anyway. `runs` is not walked when fewer than 2 MiB of the
    /// arena is fresh.
    pub(crate) fn fresh_regions(
        &self,
        runs: impl IntoIterator<Item = Range<usize>>,
    ) -> Vec<Range<usize>> {
        if self.amps.len() - self.fresh < HUGE_AMPS {
            return Vec::new();
        }
        let base = self.amps.as_ptr() as usize;
        huge_regions(base, self.chunk_bits, self.fresh, runs)
    }

    /// Advises huge pages over the arena `regions` that
    /// [`ChunkedState::fresh_regions`] returned.
    pub(crate) fn advise_huge(&mut self, regions: &[Range<usize>]) {
        for r in regions {
            advise_huge(&mut self.amps[r.clone()]);
        }
    }

    /// Rules on the chunks of `run` after a group run wrote through
    /// [`ChunkedState::runs_mut`] or [`ChunkedState::carve`]: a non-live
    /// chunk the run left all zero stays non-live, matching the sparsity
    /// a per-gate update would have produced; one it wrote becomes live;
    /// one that was live stays live.
    pub(crate) fn settle(&mut self, run: Range<usize>) {
        for c in run {
            let r = self.range(c);
            if !self.is_live(c) && !settle_zero(&mut self.amps[r]) {
                self.set_live(c, true);
            }
        }
    }

    /// Re-partitions the state with a new chunk size, preserving contents:
    /// no amplitude moves, only the live bitmap is rebuilt.
    ///
    /// Growing merges `2^(new-old)` consecutive chunks (live if any part
    /// was); shrinking splits chunks (each part live unless it is
    /// all-zero). This implements the paper's *dynamic chunk size*
    /// (Algorithm 1's `getChunkSize`).
    ///
    /// # Panics
    ///
    /// Panics if `new_bits` is 0 or exceeds the qubit count.
    pub fn set_chunk_bits(&mut self, new_bits: u32) {
        assert!(new_bits >= 1 && (new_bits as usize) <= self.num_qubits);
        let old = std::mem::replace(
            &mut self.live,
            vec![0; (self.amps.len() >> new_bits).div_ceil(64)],
        );
        let old_bits = std::mem::replace(&mut self.chunk_bits, new_bits);
        for c in set_bits(&old) {
            if new_bits >= old_bits {
                self.set_live(c >> (new_bits - old_bits), true);
            } else {
                let factor = old_bits - new_bits;
                for part in c << factor..(c + 1) << factor {
                    let r = self.range(part);
                    if !settle_zero(&mut self.amps[r]) {
                        self.set_live(part, true);
                    }
                }
            }
        }
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
        let high_mixing: Vec<usize> = action
            .mixing_qubits()
            .iter()
            .copied()
            .filter(|&q| (q as u32) >= self.chunk_bits)
            .collect();
        // Canonical groups start at chunks whose high-mixing index bits
        // are all zero.
        let group_mask: usize = high_mixing
            .iter()
            .map(|&q| 1usize << (q as u32 - self.chunk_bits))
            .sum();
        let reps = (0..self.num_chunks()).filter(|chunk| chunk & group_mask == 0);
        let actions = std::slice::from_ref(action);
        ChunkExecutor::with_exact_threads(1)
            .try_apply_group_runs(self, actions, reps, &high_mixing, None, None)
            .expect("the serial path runs no worker");
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

    /// An arena address as the allocator hands out a large one: 16 bytes
    /// past a page boundary, at no particular 2 MiB phase.
    const BASE: usize = 0x7f3a_5c61_3010;

    /// [`huge_regions`] decided chunk by chunk: every aligned region of a
    /// `len`-amplitude arena at `BASE` all of whose chunks are fresh and
    /// listed.
    fn regions_by_chunk(
        chunk_bits: u32,
        fresh: usize,
        runs: &[Range<usize>],
        len: usize,
    ) -> Vec<Range<usize>> {
        let phase = BASE.wrapping_neg() % HUGE_PAGE / 16;
        let mut listed = vec![false; len >> chunk_bits];
        runs.iter()
            .flat_map(Range::clone)
            .for_each(|c| listed[c] = true);
        let fresh_listed = |c: usize| c << chunk_bits >= fresh && listed[c];
        (phase..len)
            .step_by(HUGE_AMPS)
            .map(|at| at..at + HUGE_AMPS)
            .filter(|r| r.end <= len)
            .filter(|r| (r.start >> chunk_bits..=(r.end - 1) >> chunk_bits).all(fresh_listed))
            .collect()
    }

    /// The member runs of the groups `reps` with `offsets`, a chunk each.
    fn member_runs(reps: impl Iterator<Item = usize>, offsets: &[usize]) -> Vec<Range<usize>> {
        reps.flat_map(|r| offsets.iter().map(move |&o| r + o..r + o + 1))
            .collect()
    }

    #[test]
    fn a_doubling_walk_advises_every_fresh_interior_region() {
        // IQP's Hadamard layer: each high qubit doubles the live prefix,
        // writing a fresh upper half as big as everything before it.
        let len = 1usize << 21;
        for chunk_bits in [4u32, 11, 18] {
            let num_chunks = len >> chunk_bits;
            let (mut live, mut fresh, mut advised) = (1usize, 1usize << chunk_bits, 0);
            while live < num_chunks {
                let runs = member_runs(0..live, &[0, live]);
                let regions = huge_regions(BASE, chunk_bits, fresh, runs.iter().cloned());
                assert_eq!(regions, regions_by_chunk(chunk_bits, fresh, &runs, len));
                assert!(regions.iter().all(|r| r.start >= live << chunk_bits));
                advised += regions.len();
                (live, fresh) = (2 * live, (2 * live) << chunk_bits);
            }
            // The halves of 4, 8 and 16 MiB hold 1, 3 and 7 whole regions
            // (the 2 MiB half starts off the boundary).
            assert_eq!(advised, 11, "chunk_bits {chunk_bits}");
        }
    }

    #[test]
    fn a_sparse_walk_advises_nothing() {
        // Bernstein–Vazirani on a pruned state: a handful of live chunks
        // paired with fresh partners far away, never 2 MiB in a row.
        let (len, chunk_bits) = (1usize << 22, 1);
        let (mut live, mut fresh) = (vec![0usize], 1 << chunk_bits);
        for k in 0..21 {
            let runs = member_runs(live.iter().copied(), &[0, 1 << k]);
            assert_eq!(
                huge_regions(BASE, chunk_bits, fresh, runs.iter().cloned()),
                []
            );
            assert_eq!(regions_by_chunk(chunk_bits, fresh, &runs, len), []);
            fresh = fresh.max(runs.iter().map(|r| r.end << chunk_bits).max().unwrap());
            if k % 5 == 0 {
                live.push(live[0] | 1 << k);
            }
        }
    }

    #[test]
    fn after_a_collapse_regions_below_the_mark_are_not_advised() {
        // The state grows dense (advising the fresh halves it writes), a
        // collapse zeroes its upper half, and a Hadamard on the top qubit
        // brings that half back: written before, so not fresh, so not
        // advised.
        let (n, chunk_bits) = (19, 11);
        let rec = std::sync::Arc::new(qgpu_obs::Recorder::new());
        let ex = ChunkExecutor::with_exact_threads(1).with_recorder(rec.clone());
        let advised = || {
            rec.registry()
                .snapshot()
                .counter_total("arena.huge_regions")
        };
        let mut state = ChunkedState::new_zero(n, chunk_bits);
        let h = |q| GateAction::from_operation(&Operation::new(Gate::H, vec![q]));
        let num_chunks = state.num_chunks();
        for q in chunk_bits as usize..n {
            let bit = 1 << (q - chunk_bits as usize);
            let reps = (0..num_chunks).filter(|c| c & bit == 0);
            ex.try_apply_group_runs(&mut state, &[h(q)], reps, &[q], None, None)
                .unwrap();
        }
        let grown = advised();
        assert!(grown > 0);
        assert_eq!(state.fresh, 1 << n);
        crate::measure::collapse_chunked(&mut state, n - 1, false, 0.5);
        assert_eq!(state.dense_chunk_count(), num_chunks / 2);
        let top = num_chunks / 2;
        ex.try_apply_group_runs(&mut state, &[h(n - 1)], 0..top, &[n - 1], None, None)
            .unwrap();
        assert_eq!(state.dense_chunk_count(), num_chunks);
        assert_eq!(advised(), grown);
        // The same dispatch over a state only half ever written would
        // advise the upper half's 7 interior regions of a 2^21 arena, and
        // nothing below the mark.
        let (len, runs) = (1usize << 21, member_runs(0..1 << 9, &[0, 1 << 9]));
        assert_eq!(
            huge_regions(BASE, chunk_bits, len, runs.iter().cloned()),
            []
        );
        let regions = huge_regions(BASE, chunk_bits, len / 2, runs.iter().cloned());
        assert_eq!(regions, regions_by_chunk(chunk_bits, len / 2, &runs, len));
        assert_eq!(regions.len(), 7);
        assert!(regions.iter().all(|r| r.start >= len / 2));
    }

    #[test]
    fn a_high_control_inside_a_region_advises_nothing() {
        // CX from chunk-index bit 5 (8 KiB of 256 B chunks) onto the top
        // qubit: only groups with the control set are listed, so every
        // 2 MiB region keeps unlisted chunks.
        let (len, chunk_bits) = (1usize << 21, 4);
        let half = (len >> chunk_bits) / 2;
        let fresh = len / 2;
        let controlled = member_runs((0..half).filter(|r| r & 1 << 5 != 0), &[0, half]);
        assert_eq!(
            huge_regions(BASE, chunk_bits, fresh, controlled.iter().cloned()),
            []
        );
        assert_eq!(regions_by_chunk(chunk_bits, fresh, &controlled, len), []);
        let plain = member_runs(0..half, &[0, half]);
        assert_eq!(huge_regions(BASE, chunk_bits, fresh, plain).len(), 7);
    }

    #[test]
    fn touch_writes_the_first_and_last_amplitude_of_every_page() {
        let mut part = vec![Complex64::ONE; 3 * PAGE_AMPS + 5];
        first_write(&mut part);
        let written: Vec<usize> = (0..part.len()).filter(|&i| part[i].is_zero()).collect();
        let last = part.len() - 1;
        assert_eq!(written, [0, PAGE_AMPS, 2 * PAGE_AMPS, 3 * PAGE_AMPS, last]);
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
