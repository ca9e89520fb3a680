//! The arena-backed [`ChunkedState`] against the representation it
//! replaced — one box per live chunk, `None` for an all-zero one — kept
//! here, test-only, as the oracle: random gate runs (chunk-local and
//! cross-chunk, on 1, 2 and 4 workers) interleaved with repartitions,
//! collapses, resets and flat round trips must leave the same live set
//! and the same bits in every amplitude. The executor visits consecutive
//! listed live chunks (or groups) as one slice, so the runs here span
//! non-live gaps that must stay unwritten. Inputs carry `-0.0`, subnormals,
//! infinities and NaN: a chunk of `-0.0` is all-zero, and an all-zero
//! chunk reads back as `+0.0`.

use std::sync::Arc;

use proptest::prelude::*;
use qgpu_circuit::access::GateAction;
use qgpu_circuit::{Gate, Operation};
use qgpu_faults::{FaultConfig, FaultInjector};
use qgpu_math::Complex64;
use qgpu_statevec::reference::apply_action_per_index;
use qgpu_statevec::{measure, ChunkExecutor, ChunkedState, StateVector};

mod support;

/// The boxed representation, with the sparsity rules of the old
/// `ChunkedState` and gates applied by the per-index loop.
struct Boxed {
    bits: u32,
    chunks: Vec<Option<Box<[Complex64]>>>,
}

fn all_zero(c: &[Complex64]) -> bool {
    c.iter().all(|a| a.is_zero())
}

impl Boxed {
    fn from_flat(amps: &[Complex64], bits: u32) -> Self {
        let boxed = |c: &[Complex64]| (!all_zero(c)).then(|| c.into());
        let chunks = amps.chunks(1 << bits).map(boxed).collect();
        Boxed { bits, chunks }
    }

    fn to_flat(&self) -> Vec<Complex64> {
        let zeros = vec![Complex64::ZERO; 1 << self.bits];
        let chunks = self.chunks.iter();
        chunks
            .flat_map(|c| c.as_deref().unwrap_or(&zeros).to_vec())
            .collect()
    }

    /// Split: a part is sparse if it is all-zero. Merge: sparse only if
    /// every part was — a dense part makes it dense even when all-zero.
    fn set_chunk_bits(&mut self, bits: u32) {
        let flat = self.to_flat();
        let old = std::mem::replace(self, Boxed::from_flat(&flat, bits));
        for j in (0..old.chunks.len()).filter(|&j| bits > old.bits && old.chunks[j].is_some()) {
            let i = j >> (bits - old.bits);
            self.chunks[i].get_or_insert_with(|| flat[i << bits..(i + 1) << bits].into());
        }
    }

    /// A run over `tasks` (single chunks, or groups): a task with no dense
    /// chunk is skipped; a single sparse chunk is skipped; a sparse group
    /// member the run leaves all-zero stays sparse; dense stays dense.
    fn apply(&mut self, actions: &[GateAction], tasks: &[Vec<usize>]) {
        let mut flat = self.to_flat();
        for a in actions {
            apply_action_per_index(&mut flat, 0, a);
        }
        for task in tasks {
            if task.iter().all(|&c| self.chunks[c].is_none()) {
                continue;
            }
            for &c in task {
                let after = &flat[c << self.bits..(c + 1) << self.bits];
                if self.chunks[c].is_some() || !all_zero(after) {
                    self.chunks[c] = Some(after.into());
                }
            }
        }
    }

    /// Projection and renormalization chunk by chunk, demoting a dense
    /// chunk left all-zero; a reset then moves the `|1⟩` half down —
    /// inside each dense chunk, or dense chunk onto partner chunk.
    fn collapse(&mut self, qubit: usize, outcome: bool, p: f64, reset: bool) {
        let (scale, bit) = (1.0 / p.sqrt(), 1usize << qubit);
        for (c, slot) in self.chunks.iter_mut().enumerate() {
            let Some(amps) = slot else { continue };
            for (off, a) in amps.iter_mut().enumerate() {
                let keep = (((c << self.bits | off) & bit) != 0) == outcome;
                *a = if keep { *a * scale } else { Complex64::ZERO };
            }
            if all_zero(amps) {
                *slot = None;
            }
        }
        if !(reset && outcome) {
            return;
        }
        for c in 0..self.chunks.len() {
            if qubit < self.bits as usize {
                let Some(amps) = &mut self.chunks[c] else {
                    continue;
                };
                for off in (0..amps.len()).filter(|off| off & bit != 0) {
                    amps[off & !bit] = std::mem::replace(&mut amps[off], Complex64::ZERO);
                }
            } else if c & (bit >> self.bits) != 0 && self.chunks[c].is_some() {
                self.chunks[c & !(bit >> self.bits)] = self.chunks[c].take();
            }
        }
    }
}

/// xorshift64*: every choice of a case is drawn from its one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn component(&mut self) -> f64 {
        const SPECIAL: [f64; 7] = [
            0.0,
            -0.0,
            -5e-324,
            f64::MIN_POSITIVE / 4.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        match self.below(16) {
            0 => SPECIAL[self.below(7)],
            _ => (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0,
        }
    }

    /// A state in blocks of `2^block` amplitudes: one in three all-zero,
    /// some of those written as `-0.0`.
    fn state(&mut self, n: usize, block: u32) -> Vec<Complex64> {
        let mut amps = Vec::with_capacity(1 << n);
        for _ in 0..1usize << (n as u32 - block) {
            let kind = self.below(6);
            amps.extend((0..1usize << block).map(|_| match kind {
                0 => Complex64::ZERO,
                1 => Complex64::new(-0.0, -0.0),
                _ => Complex64::new(self.component(), self.component()),
            }));
        }
        amps
    }

    /// `k` distinct qubits of `lo..hi`.
    fn qubits(&mut self, lo: usize, hi: usize, k: usize) -> Vec<usize> {
        let mut qs: Vec<usize> = Vec::new();
        while qs.len() < k {
            let q = lo + self.below(hi - lo);
            if !qs.contains(&q) {
                qs.push(q);
            }
        }
        qs
    }
}

fn action(g: Gate, qubits: Vec<usize>) -> GateAction {
    GateAction::from_operation(&Operation::new(g, qubits))
}

/// Bit equality (any NaN equals any NaN: IEEE 754 leaves its sign and
/// payload to the implementation) of the arena and the oracle, and the
/// same live set.
fn assert_same(state: &ChunkedState, oracle: &Boxed, step: &str) {
    assert_eq!(state.chunk_bits(), oracle.bits, "{step}");
    let same = |x: f64, y: f64| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
    for (i, (g, w)) in state.as_flat().iter().zip(oracle.to_flat()).enumerate() {
        assert!(
            same(g.re, w.re) && same(g.im, w.im),
            "{step}: amplitude {i} is {g:?}, the boxed state has {w:?}"
        );
    }
    for (c, boxed) in oracle.chunks.iter().enumerate() {
        assert_eq!(
            state.chunk(c).is_some(),
            boxed.is_some(),
            "{step}: chunk {c}"
        );
    }
}

/// One seeded walk: `steps` random operations on both representations,
/// compared after each. With `sinks`, every run hands its blocks to a
/// recording sink whose contract is checked too, and a run on more than
/// one worker always fans out (an injector that kills none keeps every
/// dispatch).
fn walk(seed: u64, n: usize, threads: usize, steps: usize, sinks: bool) {
    let mut rng = Rng(seed | 1);
    let mut ex = ChunkExecutor::with_exact_threads(threads);
    if sinks && threads > 1 {
        ex = ex.with_faults(Arc::new(FaultInjector::new(FaultConfig::default())));
    }
    let run_on = |state: &mut ChunkedState, run: &[GateAction], reps: &[usize], high: &[usize]| {
        if sinks {
            support::run_with_sink(&ex, state, run, reps, high);
        } else {
            let reps = reps.iter().copied();
            ex.try_apply_group_runs(state, run, reps, high, None, None)
                .unwrap();
        }
    };
    let mut bits = 1 + rng.below(n - 2) as u32;
    let block = 1 + rng.below(n - 1) as u32;
    let start = rng.state(n, block);
    let mut state = ChunkedState::from_flat(&StateVector::from_amplitudes(start.clone()), bits);
    let mut oracle = Boxed::from_flat(&start, bits);
    assert_same(&state, &oracle, "from_flat");
    for step in 0..steps {
        let cb = bits as usize;
        // (With one chunk there is no high qubit to control on or mix.)
        let what = match if cb == n { 5 } else { rng.below(8) } {
            // A chunk-local run (a high control, a diagonal over the
            // boundary) on a random ascending subset of the chunks.
            0..=2 => {
                let q = rng.qubits(0, cb, cb.min(2));
                let mut run = vec![
                    action(Gate::H, vec![q[0]]),
                    action(Gate::Cx, vec![rng.qubits(cb, n, 1)[0], q[0]]),
                    action(Gate::Cp(0.7), rng.qubits(0, n, 2)),
                    action(Gate::Z, vec![q[0]]),
                ];
                if cb > 1 {
                    run.push(action(Gate::Swap, q));
                }
                run.truncate(1 + rng.below(run.len()));
                let keep = rng.below(4);
                let chunks: Vec<usize> = (0..state.num_chunks())
                    .filter(|_| keep != 0 || rng.below(2) == 0)
                    .collect();
                run_on(&mut state, &run, &chunks, &[]);
                let tasks: Vec<Vec<usize>> = chunks.iter().map(|&c| vec![c]).collect();
                oracle.apply(&run, &tasks);
                format!("local run {run:?} on {chunks:?}")
            }
            // A cross-chunk run: one or two high mixing qubits, in either
            // order, on all the canonical groups or a subset.
            3..=4 => {
                let k = (n - cb).min(1 + rng.below(2));
                let high = rng.qubits(cb, n, k);
                let mut run = vec![action(Gate::Rx(0.3), vec![high[0]])];
                if let [h0, h1] = high[..] {
                    run.push(action(Gate::Swap, vec![h0, h1]));
                    run.push(action(Gate::Ccx, vec![rng.below(cb), h0, h1]));
                } else {
                    run.push(action(Gate::Swap, vec![rng.below(cb), high[0]]));
                    run.push(action(Gate::Cy, vec![rng.below(cb), high[0]]));
                }
                run.push(action(Gate::Z, vec![rng.below(n)]));
                run.rotate_left(rng.below(3));
                run.truncate(1 + rng.below(run.len()));
                let mask: usize = high.iter().map(|&q| 1usize << (q - cb)).sum();
                let keep = rng.below(4);
                let reps: Vec<usize> = (0..state.num_chunks())
                    .filter(|c| c & mask == 0 && (keep != 0 || rng.below(2) == 0))
                    .collect();
                let groups: Vec<Vec<usize>> =
                    reps.iter().map(|&c| state.chunk_group(c, &high)).collect();
                run_on(&mut state, &run, &reps, &high);
                oracle.apply(&run, &groups);
                format!("group run {run:?} mixing {high:?} on {groups:?}")
            }
            5 => {
                bits = 1 + rng.below(n) as u32;
                state.set_chunk_bits(bits);
                oracle.set_chunk_bits(bits);
                format!("set_chunk_bits({bits})")
            }
            6 => {
                let (qubit, outcome, reset) = (rng.below(n), rng.below(2) == 0, rng.below(2) == 0);
                if reset {
                    measure::reset_chunked(&mut state, qubit, outcome, 0.6);
                } else {
                    measure::collapse_chunked(&mut state, qubit, outcome, 0.6);
                }
                oracle.collapse(qubit, outcome, 0.6, reset);
                format!("collapse qubit {qubit} to {outcome}, reset {reset}")
            }
            _ => {
                let clone = state.clone();
                assert_same(&clone, &oracle, "clone");
                state = ChunkedState::from_flat(&state.into_flat(), bits);
                oracle = Boxed::from_flat(&oracle.to_flat(), bits);
                "into_flat, from_flat".to_string()
            }
        };
        assert_same(
            &state,
            &oracle,
            &format!("seed {seed}, step {step}: {what}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Small states at every chunk size: everything stays on one thread.
    #[test]
    fn arena_matches_boxed_state_on_one_thread(seed in any::<u64>(), n in 3usize..9) {
        walk(seed, n, 1, 12, false);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// 2^15 amplitudes: above the executor's serial floor, so chunks and
    /// groups are carved out of the arena and spread over the workers.
    #[test]
    fn arena_matches_boxed_state_across_workers(seed in any::<u64>(), threads in 1usize..3) {
        walk(seed, 15, 2 * threads, 6, false);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The walk with a sink on every run, on 1, 2 and 4 workers: the
    /// state still matches the boxed one, and each run hands over the
    /// final bits of exactly the chunks that were live before it.
    #[test]
    fn sinks_see_every_live_chunk_once_in_its_final_state(
        seed in any::<u64>(),
        n in 3usize..9,
        log_threads in 0u32..3,
    ) {
        walk(seed, n, 1 << log_threads, 12, true);
    }
}

/// A group run multiplies its non-live members like the live ones: a
/// phase of −1 leaves such a member all `-0.0`, which is all-zero — it
/// must stay non-live and read back as `+0.0`. On one thread through the
/// arena, on two through carved chunks (an injector keeps the dispatch).
#[test]
fn a_sparse_member_left_all_negative_zero_reads_back_positive() {
    let (n, bits) = (6usize, 3u32);
    let minus = GateAction::Diagonal {
        qubits: vec![0],
        dvec: vec![-Complex64::ONE; 2],
    };
    for threads in [1, 2] {
        // Chunks 0 and 1 live: two surviving groups, {0, 4} and {1, 5}.
        let mut state = ChunkedState::new_zero(n, bits);
        state.apply_operation(&Operation::new(Gate::X, vec![3]));
        ChunkExecutor::with_exact_threads(threads)
            .with_faults(Arc::new(FaultInjector::new(FaultConfig::default())))
            .try_apply_group_runs(
                &mut state,
                std::slice::from_ref(&minus),
                0..2,
                &[n - 1],
                None,
                None,
            )
            .unwrap();
        assert_eq!(state.dense_chunk_count(), 2);
        assert_eq!(state.as_flat()[1 << 3], -Complex64::ONE);
        for a in &state.as_flat()[2 << 3..] {
            assert_eq!((a.re.to_bits(), a.im.to_bits()), (0, 0));
        }
    }
}

/// The same run with a sink: chunks 4 and 5, non-live members the run
/// leaves all `-0.0`, are not handed over — those bits would size apart
/// from the `+0.0` the ruling on them writes — while the live 0 and 1
/// are, on the serial path and in a fan-out alike.
#[test]
fn a_sparse_member_left_all_negative_zero_is_not_handed_to_a_sink() {
    let (n, bits) = (6usize, 3u32);
    let minus = GateAction::Diagonal {
        qubits: vec![0],
        dvec: vec![-Complex64::ONE; 2],
    };
    for threads in [1, 2] {
        let mut state = ChunkedState::new_zero(n, bits);
        state.apply_operation(&Operation::new(Gate::X, vec![3]));
        let ex = ChunkExecutor::with_exact_threads(threads)
            .with_faults(Arc::new(FaultInjector::new(FaultConfig::default())));
        // Counts each slot's writes: chunk 4 is member 1 of rank 0.
        support::run_with_sink(
            &ex,
            &mut state,
            std::slice::from_ref(&minus),
            &[0, 1],
            &[n - 1],
        );
        assert_eq!(state.dense_chunk_count(), 2);
        for a in &state.as_flat()[4 << 3..] {
            assert_eq!((a.re.to_bits(), a.im.to_bits()), (0, 0));
        }
    }
}
