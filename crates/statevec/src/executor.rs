//! Shared parallel executor for gate kernels over disjoint chunks.
//!
//! [`ChunkExecutor`] is the one place threading lives: every functional
//! path — the flat comparators, the chunked engines, and the reduction
//! helpers in [`crate::measure`] — cuts its work into disjoint pieces, and one fan-out spreads them over the executor's
//! pool: `threads − 1` parked workers, spawned at its first fan-out and
//! joined when its last clone drops, take pieces 1.. while the calling
//! thread works piece 0. Each piece is owned by the thread running it
//! (distinct chunks, borrowed out of the state's arena for the dispatch,
//! distinct aligned blocks of a flat slice, or distinct block partials),
//! so the only synchronization is the hand-off and the completion wait.
//! The one `unsafe` lends the dispatch's borrowed job to the workers; a
//! guard that waits for every piece keeps the borrow alive until they are
//! done with it.
//!
//! A chunked update is one dispatch,
//! [`ChunkExecutor::try_apply_group_runs`]: a run whose mixing qubits
//! all lie below the chunk boundary (the paper's Case 1) goes over
//! groups of one chunk, a run mixing a higher qubit (Case 2) over groups
//! of `2^k` chunks. An optional [`Sink`] sees each block's members once
//! its actions have run, while they are still in cache.
//!
//! # Determinism
//!
//! The executor guarantees *bit-exact* results at every thread count:
//!
//! * gate application is embarrassingly per-amplitude — partitioning the
//!   index space differently changes which core performs an operation,
//!   never the operation itself, so parallel application is bitwise
//!   identical to serial;
//! * fused runs are replayed member-by-member inside each chunk/block
//!   visit (exact replay), performing the same floating-point ops in the
//!   same per-amplitude order as the unfused circuit;
//! * reductions never accumulate in completion order: block partials are
//!   cut at fixed [`qgpu_math::reduce::REDUCE_BLOCK`] boundaries that
//!   depend only on the input length, and combined with a deterministic
//!   pairwise tree ([`qgpu_math::reduce::pairwise_sum`]).

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

use qgpu_circuit::access::GateAction;
use qgpu_faults::{FaultInjector, FaultSite, SimError};
use qgpu_math::reduce;
use qgpu_math::Complex64;
use qgpu_obs::{span_opt, Recorder, Stage, Track};

use crate::chunked::{ChunkedState, Member};
use crate::kernels;

/// Below this many amplitudes the hand-off to the workers costs more than
/// it saves and the executor stays on the serial path (which computes
/// identical bits).
const MIN_PARALLEL: usize = 1 << 14;

/// Default block size (in qubits) for cache-blocked flat runs: 2^13
/// amplitudes = 128 KiB, sized to sit in L2 while a fused run makes
/// several passes over the block.
const FLAT_BLOCK_BITS: u32 = 13;

/// What a chunked run hands each block to once the block's actions have
/// run, while its amplitudes are still in cache (see
/// [`ChunkExecutor::try_apply_group_runs`]). A chunk is addressed by its
/// *slot*: member `j` of the group at rank `t` among the listed
/// representatives has slot `t · 2^high_mixing.len() + j`.
pub trait Sink: Send {
    /// Consecutive chunks from `first`, every one live before the run,
    /// with their amplitudes after it: chunk `first + i` has slot
    /// `slot + i · stride`.
    fn run(&mut self, slot: usize, stride: usize, first: usize, amps: &[Complex64]);

    /// Cuts the sink at the slots `at` (ascending): one part for the
    /// slots below `at[0]`, one from each `at[i]` to the next, one from
    /// the last on. A fan-out hands each worker one part.
    fn split(&mut self, at: &[usize]) -> Vec<Box<dyn Sink + '_>>;
}

/// A worker pool applying gate kernels across disjoint chunks in
/// parallel. Clones share the pool (and the dispatch counter).
///
/// # Examples
///
/// ```
/// use qgpu_statevec::{ChunkExecutor, StateVector};
/// use qgpu_circuit::{access::GateAction, Gate, Operation};
///
/// let mut s = StateVector::new_zero(15);
/// let h = GateAction::from_operation(&Operation::new(Gate::H, vec![3]));
/// ChunkExecutor::new(4).apply_flat(s.amps_mut(), &h);
/// assert!((s.norm() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct ChunkExecutor {
    threads: usize,
    /// When set, workers record wall-clock spans and queue-occupancy
    /// histograms into it (see [`ChunkExecutor::with_recorder`]).
    recorder: Option<Arc<Recorder>>,
    /// When set, the fault injector may kill workers at dispatch entry
    /// (see [`ChunkExecutor::with_faults`]).
    faults: Option<Arc<FaultInjector>>,
    /// Monotonic dispatch index shared across clones; the injector's
    /// worker-death decisions key off it, so a given seed kills the same
    /// workers of the same dispatches on every run.
    dispatches: Arc<AtomicU64>,
    /// The parked workers, spawned at the first fan-out.
    pool: Arc<OnceLock<Pool>>,
}

impl ChunkExecutor {
    /// Creates an executor using up to `threads` workers.
    ///
    /// The pool is clamped to the machine's available parallelism:
    /// oversubscribing cores only adds context-switch overhead,
    /// and the aligned partitioning makes results bitwise identical at
    /// every worker count, so the clamp changes wall-clock only.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        let cores = std::thread::available_parallelism().map_or(threads, |n| n.get());
        ChunkExecutor::with_exact_threads(threads.min(cores))
    }

    /// Creates an executor with *exactly* `threads` workers, bypassing
    /// the hardware clamp of [`ChunkExecutor::new`]. Results are
    /// identical either way; this exists so the multi-worker partitioning
    /// paths can be exercised even on machines with few cores.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_exact_threads(threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        ChunkExecutor {
            threads,
            recorder: None,
            faults: None,
            dispatches: Arc::new(AtomicU64::new(0)),
            pool: Arc::new(OnceLock::new()),
        }
    }

    /// Attaches an observability recorder: piece `t` of every dispatch is
    /// recorded as a [`Track::Worker`]`(t)` span, whichever thread runs it,
    /// and the `worker.queue` histogram tracks how many work items each
    /// piece held. Without a recorder the instrumentation is a no-op (no
    /// clock reads).
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Attaches a fault injector: every dispatch that fans out consults
    /// it at hand-off time and may lose workers to injected deaths —
    /// which the dispatch then recovers from by re-executing the dead
    /// workers' (untouched) pieces serially. A chunked dispatch under an
    /// injector always fans out, however small, so the seeded draws see
    /// every dispatch. Without an injector the consult is a branch on
    /// `None`.
    pub fn with_faults(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The effective worker count (after the hardware clamp).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies one action to a flat amplitude slice, splitting the state
    /// over the workers in aligned blocks that span the action's highest
    /// mixing qubit (a gate mixing the top qubit is one block, one worker).
    ///
    /// Semantically identical to [`crate::kernels::apply_action`] with
    /// `base = 0`, and bitwise identical at every thread count; small
    /// inputs fall back to the single-threaded kernel.
    ///
    /// # Panics
    ///
    /// Panics if the action names a qubit outside the state, whichever
    /// path it would take.
    pub fn apply_flat(&self, amps: &mut [Complex64], action: &GateAction) {
        let run = std::slice::from_ref(action);
        if self.threads == 1 || amps.len() < MIN_PARALLEL {
            assert_inside(amps.len(), run);
            return kernels::apply_action(amps, 0, action);
        }
        self.apply_flat_run(amps, run);
    }

    /// Replays a fused run over a flat state in cache-sized blocks: each
    /// block is brought in once and every member action is applied to it
    /// before moving on, so the state makes one memory pass per *run*
    /// instead of one per gate.
    ///
    /// Bitwise identical to applying the actions one by one over the whole
    /// state (per-amplitude arithmetic is unchanged; only the visit order
    /// differs), at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if an action names a qubit outside the state.
    pub fn apply_flat_run(&self, amps: &mut [Complex64], actions: &[GateAction]) {
        assert_inside(amps.len(), actions);
        if actions.is_empty() {
            return;
        }
        let n_bits = amps.len().trailing_zeros();
        // Dense mixing qubits must be local to a block; raise the block
        // size to cover the highest one. (High *controls* are fine: the
        // kernel checks them against the block base.)
        let mut block_bits = FLAT_BLOCK_BITS;
        for a in actions {
            for &q in a.mixing_qubits() {
                block_bits = block_bits.max(q as u32 + 1);
            }
        }
        let block_bits = block_bits.min(n_bits);
        let block_len = 1usize << block_bits;
        let num_blocks = amps.len() >> block_bits;
        let run_blocks = |piece: &mut [Complex64], base: usize| {
            for (i, block) in piece.chunks_mut(block_len).enumerate() {
                for a in actions {
                    kernels::apply_action(block, base + i * block_len, a);
                }
            }
        };
        if self.threads == 1 || num_blocks <= 1 || amps.len() < MIN_PARALLEL {
            return run_blocks(amps, 0);
        }
        let per = num_blocks.div_ceil(self.threads) << block_bits;
        let mut pieces: Vec<&mut [Complex64]> = amps.chunks_mut(per).collect();
        self.run_dispatch(
            &mut pieces,
            "apply_flat_run",
            "worker.run",
            |piece| piece.len() >> block_bits,
            &|t, piece| run_blocks(piece, t * per),
        )
        .expect("worker thread panicked");
    }

    /// Applies a fused run to chunk groups: the one chunked update.
    /// `reps` lists the groups by *representative* — a chunk index with
    /// every `high_mixing` bit clear; the group of `rep` is
    /// [`ChunkedState::chunk_group`]`(rep, high_mixing)`. With
    /// `high_mixing` empty (every mixing qubit below the chunk boundary,
    /// the paper's Case 1) a group is its one chunk; otherwise (Case 2) a
    /// high mixing qubit selects *which* members a kernel pairs up, so
    /// nothing is gathered or scattered. Groups of consecutive listed
    /// representatives go as one *block* — an aligned power of two of
    /// them, at most 2^13 amplitudes a member (one chunk when chunks are
    /// larger), never across a high control or high-mixing bit — whose
    /// member `j` is one arena slice; every action is replayed on a block
    /// while it is cache-resident.
    ///
    /// A group with no live member is skipped: linear maps keep it zero.
    /// Sparse members that remain all-zero after the run stay sparse.
    /// Before any member is touched, every 2 MiB region of never-written
    /// arena the dispatch writes whole is advised onto a huge page
    /// ([`ChunkedState`]'s fresh regions), and counted in the recorder's
    /// `arena.huge_regions`. (A one-member group is a live chunk: none of
    /// this concerns it.)
    ///
    /// Blocks are dealt to the workers; results are bitwise identical at
    /// every thread count, and to visiting group by group. Below 2^14
    /// amplitudes the run stays on the calling thread, unless a fault
    /// injector is attached ([`ChunkExecutor::with_faults`]). Injected
    /// worker deaths are recovered by re-executing the dead workers'
    /// untouched pieces serially — bit-exactly, since a group is
    /// processed entirely by one worker; a genuine worker panic surfaces
    /// as [`SimError::WorkerLost`]. Returns the number of workers
    /// recovered this dispatch.
    ///
    /// With a `poll` the run stays interruptible: a block is one group,
    /// and `poll` is asked before every visit; its first `Some(err)` ends
    /// the run with that error — groups visited so far hold the whole
    /// run, the rest none of it, so the state is only fit to be dropped.
    /// `poll` must keep answering `Some` once it has (a tripped
    /// [`qgpu_faults::CancelToken`] does).
    ///
    /// With a `sink`, each block's members go to [`Sink::run`] right
    /// after the block's actions ran, on the thread that ran them — on
    /// the serial path after [`ChunkedState`]'s ruling on the block's
    /// non-live members, a group member's run joined to the one before
    /// when it continues it in chunks and slots (up to 2^13 amplitudes,
    /// so still in cache). Only chunks that were live before the run are handed
    /// over: a non-live member the run leaves all zero may hold `-0.0`
    /// until that ruling rewrites it. A fan-out cuts the sink at its
    /// pieces' first slots ([`Sink::split`]), so each worker feeds its
    /// own part.
    ///
    /// # Panics
    ///
    /// Panics on caller contract violations, not runtime faults: a
    /// representative with a high-mixing bit set, a dense member mixing a
    /// high qubit not listed in `high_mixing`, a dense member spanning
    /// chunks with more than two mixing qubits (or two and a local
    /// control — no gate does).
    pub fn try_apply_group_runs<I>(
        &self,
        state: &mut ChunkedState,
        actions: &[GateAction],
        reps: I,
        high_mixing: &[usize],
        poll: Option<&(dyn Fn() -> Option<SimError> + Sync)>,
        mut sink: Option<&mut dyn Sink>,
    ) -> Result<u64, SimError>
    where
        I: IntoIterator<Item = usize>,
        I::IntoIter: Clone,
    {
        let reps = reps.into_iter();
        let chunk_bits = state.chunk_bits();
        for &q in actions.iter().flat_map(GateAction::mixing_qubits) {
            let listed = (q as u32) < chunk_bits || high_mixing.contains(&q);
            assert!(listed, "high mixing qubit {q} not in high_mixing");
        }
        // Member offsets by high-mixing bit pattern (pattern bit `b` ↔
        // `high_mixing[b]`); the last one is every high-mixing bit.
        let offsets: Vec<usize> = (0..1usize << high_mixing.len())
            .map(|pattern| {
                let bits = high_mixing.iter().enumerate();
                bits.filter(|&(b, _)| pattern >> b & 1 == 1)
                    .map(|(_, &q)| 1usize << (q as u32 - chunk_bits))
                    .sum()
            })
            .collect();
        let (group_len, group_mask) = (offsets.len(), offsets[offsets.len() - 1]);
        let single = group_len == 1;
        // A group with no live member stays all zero: skip it. The rest
        // run with their non-live members as they are — all `+0.0` — and
        // `settle` re-zeroes those the run left zero. (Member 0, the
        // representative itself, is checked first: walking `offsets` for
        // every listed chunk slowed one-member runs over 2-amplitude
        // chunks by up to 30 %.)
        let survives = |state: &ChunkedState, rep: usize| {
            let rest = &offsets[1..];
            !state.is_zero_chunk(rep) || rest.iter().any(|&o| !state.is_zero_chunk(rep | o))
        };
        let num_groups = match self.threads {
            1 => 0,
            _ => reps.clone().filter(|&r| survives(state, r)).count(),
        };
        // A seeded worker-death campaign counts dispatches, so it keeps
        // every one; otherwise small work stays on this thread.
        let small = self.faults.is_none() && (num_groups * group_len) << chunk_bits < MIN_PARALLEL;
        let cap = match poll {
            Some(_) => 1,
            None => block_cap(chunk_bits, high_controls(actions, chunk_bits) | group_mask),
        };
        let stop = || poll.and_then(|p| p());
        // A block never spans a high-mixing bit, so its first
        // representative speaks for all of them.
        let members = |b: &Range<usize>| {
            assert_eq!(
                b.start & group_mask,
                0,
                "representative {} has a high-mixing bit set",
                b.start
            );
            let (first, end) = (b.start, b.end);
            offsets.iter().map(move |&o| first + o..end + o)
        };
        // The stretches of member chunks that were live before the run,
        // each with its member's index, for a sink that sees groups of
        // several members. (Every chunk of a block of one-member groups is
        // live.)
        let sinks_groups = sink.is_some() && !single;
        let mut was_live: Vec<(usize, Range<usize>)> = Vec::new();
        // Fresh arena this dispatch writes whole goes on huge pages before
        // the first touch (the walk happens only while 2 MiB are fresh).
        if !single {
            let mut walk = Blocks::new(reps.clone(), cap, usize::MAX);
            let listed = std::iter::from_fn(|| walk.next(|r| survives(state, r)));
            let regions = state.fresh_regions(listed.flat_map(|(b, ..)| members(&b)));
            if !regions.is_empty() {
                if let Some(r) = self.recorder.as_deref() {
                    r.add("arena.huge_regions", regions.len() as u64);
                }
                state.advise_huge(&regions);
            }
        }
        if num_groups <= 1 || small {
            let mut blocks = Blocks::new(reps, cap, usize::MAX);
            let mut held = Held::default();
            while let Some((block, rank, _)) = blocks.next(|r| survives(state, r)) {
                if let Some(err) = stop() {
                    return Err(err);
                }
                if single {
                    let amps = state.run_mut(&block);
                    visit_block(amps, block.start << chunk_bits, actions);
                    if let Some(sink) = sink.as_deref_mut() {
                        sink.run(rank, 1, block.start, amps);
                    }
                    continue;
                }
                if sinks_groups {
                    was_live.clear();
                    let stretches = |(j, m)| state.live_runs(m).map(move |s| (j, s));
                    was_live.extend(members(&block).enumerate().flat_map(stretches));
                }
                members(&block).for_each(|m| state.touch(m));
                for a in actions {
                    let mut group = InArena(state, &block, &offsets);
                    apply_to_group(&mut group, chunk_bits, high_mixing, a);
                }
                members(&block).for_each(|m| state.settle(m));
                if let Some(sink) = sink.as_deref_mut() {
                    for (j, s) in was_live.drain(..) {
                        let slot = (rank + s.start - block.start - offsets[j]) * group_len + j;
                        held.add(sink, state.as_flat(), chunk_bits, slot, group_len, s);
                    }
                }
            }
            if let Some(sink) = sink {
                held.flush(sink, state.as_flat(), chunk_bits);
            }
            return Ok(0);
        }
        let per = num_groups.div_ceil(self.threads);
        let (blocks, ends) = Blocks::new(reps, cap, per).collect(|r| survives(state, r));
        let runs: Vec<Range<usize>> = blocks.iter().flat_map(|(b, _)| members(b)).collect();
        if sinks_groups {
            let stretches =
                |(r, m): (usize, &Range<usize>)| state.live_runs(m.clone()).map(move |s| (r, s));
            was_live.extend(runs.iter().enumerate().flat_map(stretches));
        }
        if !single {
            runs.iter().for_each(|run| state.touch(run.clone()));
        }
        // Each piece is a contiguous range of ranks: its part of the sink
        // starts at its first block's first slot.
        let firsts: Vec<usize> = ends[..ends.len() - 1]
            .iter()
            .map(|&e| blocks[e].1 * group_len)
            .collect();
        let parts: Vec<Option<Box<dyn Sink + '_>>> = match sink {
            Some(sink) => sink.split(&firsts).into_iter().map(Some).collect(),
            None => ends.iter().map(|_| None).collect(),
        };
        let ranks: Vec<usize> = blocks.iter().map(|&(_, rank)| rank).collect();
        let starts = std::iter::once(0).chain(ends.iter().copied());
        let piece_ranks = starts.zip(&ends).map(|(start, &end)| &ranks[start..end]);
        // Workers own their blocks for the dispatch: borrow them out of
        // the arena.
        let member_ends: Vec<usize> = ends.iter().map(|&e| e * group_len).collect();
        // A piece's stretches: those of its runs, `was_live` cut where the
        // run index reaches the piece's end.
        let mut rest = was_live.as_slice();
        let piece_lives: Vec<_> = std::iter::once(0)
            .chain(member_ends.iter().copied())
            .zip(&member_ends)
            .map(|(start, &end)| {
                let (here, next) = rest.split_at(rest.partition_point(|(r, _)| *r < end));
                rest = next;
                (start, here)
            })
            .collect();
        let mut work = state.carve(&runs);
        let mut pieces: Vec<_> = pieces(&mut work, &member_ends)
            .into_iter()
            .zip(piece_ranks)
            .zip(parts)
            .zip(piece_lives)
            .map(|(((groups, ranks), part), live)| (groups, ranks, part, live))
            .collect();
        let restarts = self.run_dispatch(
            &mut pieces,
            "try_apply_group_runs",
            "worker.group",
            |(groups, ..)| groups.iter().map(|m| m.amps.len() >> chunk_bits).sum(),
            &|_, (groups, ranks, part, (first_run, live))| {
                let mut live = *live;
                let runs = groups.chunks_exact_mut(group_len).zip(ranks.iter());
                for (b, (group, &rank)) in runs.enumerate() {
                    if stop().is_some() {
                        return;
                    }
                    for a in actions {
                        apply_to_group(group, chunk_bits, high_mixing, a);
                    }
                    let Some(sink) = part.as_deref_mut() else {
                        continue;
                    };
                    for (j, m) in group.iter().enumerate() {
                        let (len, r) = (m.amps.len() >> chunk_bits, *first_run + b * group_len + j);
                        // One-member groups are live throughout.
                        let whole = [(r, m.chunk..m.chunk + len)];
                        let stretches = match sinks_groups {
                            true => {
                                let mine;
                                (mine, live) = live.split_at(live.partition_point(|s| s.0 == r));
                                mine
                            }
                            false => &whole[..],
                        };
                        for (_, s) in stretches {
                            let slot = (rank + s.start - m.chunk) * group_len + j;
                            let amps = &m.amps[(s.start - m.chunk) << chunk_bits
                                ..(s.end - m.chunk) << chunk_bits];
                            sink.run(slot, group_len, s.start, amps);
                        }
                    }
                }
            },
        );
        drop(pieces);
        drop(work);
        if !single {
            runs.into_iter().for_each(|run| state.settle(run));
        }
        match stop() {
            Some(err) => Err(err),
            None => restarts,
        }
    }

    /// The executor's one fan-out: `run_piece` given each piece with its
    /// index, piece 0 on the calling thread and the rest on the parked
    /// workers ([`Pool::run`]); it returns once every piece has finished.
    /// It counts the dispatch and, with a recorder, each piece's span and
    /// the `queue` (work items) of each piece in `worker.queue`. An
    /// injected worker death (a pure decision of the injector keyed on the
    /// dispatch counter and piece index) makes that piece's run end
    /// *before touching it*; once every piece has finished, any piece not
    /// flagged done is re-executed serially — identical result, since the
    /// dead worker mutated nothing. A genuine panic in a piece cannot
    /// guarantee that, so it maps to [`SimError::WorkerLost`] and is not
    /// retried; the pool keeps serving later dispatches. Returns the
    /// number of recovered workers.
    fn run_dispatch<P: Send>(
        &self,
        pieces: &mut [P],
        dispatch_name: &'static str,
        span_name: &'static str,
        queue: impl Fn(&P) -> usize,
        run_piece: &(dyn Fn(usize, &mut P) + Sync),
    ) -> Result<u64, SimError> {
        let rec = self.recorder.as_deref();
        let dispatch = self.dispatches.fetch_add(1, Ordering::Relaxed);
        if let Some(r) = rec {
            for piece in pieces.iter() {
                r.observe("worker.queue", queue(piece) as u64);
            }
        }
        let killed: Vec<bool> = (0..pieces.len())
            .map(|t| {
                self.faults
                    .as_deref()
                    .is_some_and(|f| f.fires_attempt(FaultSite::WorkerDeath, dispatch, t as u32))
            })
            .collect();
        let done: Vec<AtomicBool> = (0..pieces.len()).map(|_| AtomicBool::new(false)).collect();
        // A piece is run by one thread, and re-run here only if it was not:
        // the lock just lends it across.
        let slots: Vec<Mutex<&mut P>> = pieces.iter_mut().map(Mutex::new).collect();
        let lent = |t: usize| slots[t].lock().expect("a piece is run once at a time");
        let job = |t: usize| {
            if killed[t] {
                return;
            }
            let _g = span_opt(rec, Track::Worker(t), Stage::Update, span_name);
            run_piece(t, &mut lent(t));
            done[t].store(true, Ordering::Release);
        };
        let pool = self.pool.get_or_init(|| Pool::new(self.threads - 1));
        if pool.run(slots.len(), &job) {
            return Err(SimError::WorkerLost {
                dispatch: dispatch_name,
            });
        }
        let mut restarts = 0u64;
        for (t, done) in done.iter().enumerate() {
            if !done.load(Ordering::Acquire) {
                run_piece(t, &mut lent(t));
                restarts += 1;
            }
        }
        Ok(restarts)
    }

    /// Deterministic parallel sum of `block_sum` over fixed-size blocks
    /// covering `0..len` (see [`qgpu_math::reduce`]): bitwise identical at
    /// every thread count.
    pub fn reduce_f64<F>(&self, len: usize, block_sum: F) -> f64
    where
        F: Fn(Range<usize>) -> f64 + Sync,
    {
        let nb = reduce::num_blocks(len);
        let mut partials = vec![0.0f64; nb];
        self.fill_partials(&mut partials, len, &block_sum);
        reduce::pairwise_sum(&partials)
    }

    fn fill_partials(
        &self,
        partials: &mut [f64],
        len: usize,
        block_sum: &(dyn Fn(Range<usize>) -> f64 + Sync),
    ) {
        let nb = partials.len();
        let fill = |first: usize, piece: &mut [f64]| {
            for (i, p) in piece.iter_mut().enumerate() {
                *p = block_sum(reduce::block_range(first + i, len));
            }
        };
        if self.threads == 1 || len < MIN_PARALLEL || nb <= 1 {
            return fill(0, partials);
        }
        let per = nb.div_ceil(self.threads);
        let mut pieces: Vec<&mut [f64]> = partials.chunks_mut(per).collect();
        self.run_dispatch(
            &mut pieces,
            "reduce",
            "worker.reduce",
            |piece| piece.len(),
            &|t, piece| fill(t * per, piece),
        )
        .expect("worker thread panicked");
    }
}

/// The parked workers of an executor's fan-out. Worker `w` runs piece
/// `w + 1` of each round it is handed; between rounds it waits on a
/// condition variable. Dropping the pool (with the executor's last
/// clone) wakes the workers to exit and joins them.
struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

/// What the workers and the dispatching thread share.
struct Shared {
    hand: Mutex<Hand>,
    /// Wakes the parked workers: a round was posted, or the pool drops.
    posted: Condvar,
    /// Wakes the dispatching thread: the round's last handed piece is done.
    finished: Condvar,
}

/// The state of the hand-off, under [`Shared::hand`].
struct Hand {
    /// The open round's job (see [`Pool::run`]); `None` between rounds.
    job: Option<&'static (dyn Fn(usize) + Sync)>,
    /// Rounds posted so far: a worker runs a round's job at most once.
    round: u64,
    /// Workers `0..handed` run pieces `1..=handed` of the open round.
    handed: usize,
    /// Handed pieces not finished yet.
    running: usize,
    /// Whether a handed piece of the open round panicked.
    panicked: bool,
    /// Set when the pool drops: the workers exit.
    shutdown: bool,
}

impl Shared {
    /// The hand-off state, poisoned or not: every update of [`Hand`] is a
    /// few stores that leave it valid, and no piece runs under the lock.
    fn lock(&self) -> MutexGuard<'_, Hand> {
        self.hand.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Waits on `cv`, poisoned or not (see [`Shared::lock`]).
fn wait<'a>(cv: &Condvar, hand: MutexGuard<'a, Hand>) -> MutexGuard<'a, Hand> {
    cv.wait(hand).unwrap_or_else(PoisonError::into_inner)
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl Pool {
    /// Spawns `workers` parked workers.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses a thread.
    fn new(workers: usize) -> Pool {
        let shared = Arc::new(Shared {
            hand: Mutex::new(Hand {
                job: None,
                round: 0,
                handed: 0,
                running: 0,
                panicked: false,
                shutdown: false,
            }),
            posted: Condvar::new(),
            finished: Condvar::new(),
        });
        let workers = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("qgpu-worker-{w}"))
                    .spawn(move || park(&shared, w))
                    .expect("the OS spawns an executor worker")
            })
            .collect();
        Pool { shared, workers }
    }

    /// Runs `job(t)` for every piece `t` in `0..pieces` and returns once
    /// all have finished, with whether any panicked. Pieces 1.. go to the
    /// workers; piece 0, and any piece past the last worker, run on the
    /// calling thread. A call made while a round is open (from inside a
    /// piece, or through a clone on another thread) runs every piece on
    /// its own thread.
    fn run(&self, pieces: usize, job: &(dyn Fn(usize) + Sync)) -> bool {
        let here = |ts: Range<usize>| ts.fold(false, |p, t| panics(job, t) | p);
        let handed = pieces.saturating_sub(1).min(self.workers.len());
        let mut hand = self.shared.lock();
        if hand.job.is_some() || handed == 0 {
            drop(hand);
            return here(0..pieces);
        }
        // SAFETY: `job` is lent to the workers as `'static` for one round.
        // A round is posted only when none is open (checked above under
        // the same lock), so only this call closes it. The workers read
        // `job` only while the round is open: they take it from `hand`
        // under the lock, call it, and count the piece off under the lock
        // before looking at `hand` again. The round is closed by `round`
        // below — by `close` or, if this call unwinds, by its drop — which
        // waits under the same lock until every handed piece is counted
        // off and then withdraws the job. Nothing between this store and
        // `round`'s creation can panic, so this call cannot return or
        // unwind while a worker may still call `job`, and the borrow
        // behind it outlives every such call.
        let job_for_workers = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job)
        };
        hand.job = Some(job_for_workers);
        hand.round += 1;
        hand.handed = handed;
        hand.running = handed;
        hand.panicked = false;
        drop(hand);
        let round = Round {
            shared: &self.shared,
            open: true,
        };
        self.shared.posted.notify_all();
        let mine = panics(job, 0) | here(handed + 1..pieces);
        round.close() | mine
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.posted.notify_all();
        for worker in self.workers.drain(..) {
            // A worker catches its pieces' panics and cannot panic itself.
            let _ = worker.join();
        }
    }
}

/// The open round of a [`Pool::run`]: closing it — or dropping it, on
/// unwind — waits until every handed piece is done, then withdraws the
/// job.
struct Round<'p> {
    shared: &'p Shared,
    open: bool,
}

impl Round<'_> {
    /// Closes the round: whether a handed piece panicked.
    fn close(mut self) -> bool {
        self.open = false;
        self.wait()
    }

    fn wait(&self) -> bool {
        let mut hand = self.shared.lock();
        while hand.running > 0 {
            hand = wait(&self.shared.finished, hand);
        }
        hand.job = None;
        hand.panicked
    }
}

impl Drop for Round<'_> {
    fn drop(&mut self) {
        if self.open {
            self.wait();
        }
    }
}

/// A parked worker's life: wait for a round that hands it a piece, run
/// the piece, count it off; exit when the pool drops.
fn park(shared: &Shared, w: usize) {
    let mut seen = 0;
    let mut hand = shared.lock();
    while !hand.shutdown {
        match hand.job {
            Some(job) if hand.round != seen && w < hand.handed => {
                seen = hand.round;
                drop(hand);
                let panicked = panics(job, w + 1);
                hand = shared.lock();
                hand.panicked |= panicked;
                hand.running -= 1;
                if hand.running == 0 {
                    shared.finished.notify_one();
                }
            }
            _ => hand = wait(&shared.posted, hand),
        }
    }
}

/// Runs piece `t` of `job`: whether it panicked.
fn panics(job: &(dyn Fn(usize) + Sync), t: usize) -> bool {
    catch_unwind(AssertUnwindSafe(|| job(t))).is_err()
}

/// Asserts that `len` is a power of two and that every qubit `actions`
/// name — diagonal, control or mixing — lies below its top.
fn assert_inside(len: usize, actions: &[GateAction]) {
    assert!(len.is_power_of_two());
    let bits = len.trailing_zeros() as usize;
    for a in actions {
        let diagonal = match a {
            GateAction::Diagonal { qubits, .. } => qubits.as_slice(),
            GateAction::ControlledDense { .. } => &[],
        };
        let named = diagonal.iter().chain(a.control_qubits());
        for &q in named.chain(a.mixing_qubits()) {
            assert!(q < bits, "qubit {q} outside state");
        }
    }
}

/// Replays `actions` on a block of live chunks whose first amplitude has
/// global index `base`: a one-member group's serial visit, with the
/// kernels and operands [`apply_to_group`] would use for it. Not through
/// [`apply_to_group`], whose per-block cost shows where every block is
/// one 2-amplitude chunk; and out of line, because inlined into the
/// dispatch it slows the block walk around it.
#[inline(never)]
fn visit_block(amps: &mut [Complex64], base: usize, actions: &[GateAction]) {
    for a in actions {
        kernels::apply_action(amps, base, a);
    }
}

/// The serial path's hand-over of group members to a sink: a run of
/// chunks that continues the one held in both chunks and slots joins it,
/// up to 2^13 amplitudes (still in cache when handed over). Groups whose
/// members are adjacent chunks — a high-mixing qubit just above the chunk
/// boundary — then reach the sink as one run per cache-sized stretch, not
/// one call per member. (A block of one-member groups is already the
/// longest such run its listing allows, and goes straight to the sink.)
#[derive(Default)]
struct Held {
    slot: usize,
    chunks: Range<usize>,
}

impl Held {
    /// Adds `chunks`, the first at `slot` and each next `stride` slots on,
    /// handing what can no longer grow to `sink`.
    fn add(
        &mut self,
        sink: &mut dyn Sink,
        flat: &[Complex64],
        chunk_bits: u32,
        slot: usize,
        stride: usize,
        chunks: Range<usize>,
    ) {
        let unit = stride == 1 || chunks.len() == 1;
        let fits = (self.chunks.len() + chunks.len()) << chunk_bits <= 1 << FLAT_BLOCK_BITS;
        let continues = self.slot + self.chunks.len() == slot && self.chunks.end == chunks.start;
        if unit && fits && continues && !self.chunks.is_empty() {
            self.chunks.end = chunks.end;
            return;
        }
        self.flush(sink, flat, chunk_bits);
        if unit {
            *self = Held { slot, chunks };
        } else {
            let amps = &flat[chunks.start << chunk_bits..chunks.end << chunk_bits];
            sink.run(slot, stride, chunks.start, amps);
        }
    }

    /// Hands the held run to `sink`.
    fn flush(&mut self, sink: &mut dyn Sink, flat: &[Complex64], chunk_bits: u32) {
        let chunks = std::mem::take(&mut self.chunks);
        if !chunks.is_empty() {
            let amps = &flat[chunks.start << chunk_bits..chunks.end << chunk_bits];
            sink.run(self.slot, 1, chunks.start, amps);
        }
    }
}

/// The most chunks one block holds, a power of two: 2^13 amplitudes —
/// the block stays in L2 while a fused run makes its passes over it (one
/// chunk when chunks are larger) — and never so many that a bit of
/// `fixed` varies inside an aligned block. `fixed` holds the chunk-index
/// bits every chunk of a block must agree on: the high controls (a
/// kernel reads them off the block's base) and, for groups, the
/// high-mixing bits.
fn block_cap(chunk_bits: u32, fixed: usize) -> usize {
    let cache = 1usize << FLAT_BLOCK_BITS.saturating_sub(chunk_bits);
    match fixed {
        0 => cache,
        f => cache.min(f & f.wrapping_neg()),
    }
}

/// The chunk-index bits of the controls of `actions` at or above the
/// boundary.
fn high_controls(actions: &[GateAction], chunk_bits: u32) -> usize {
    let controls = actions.iter().flat_map(GateAction::control_qubits);
    controls
        .filter(|&&c| c as u32 >= chunk_bits)
        .fold(0, |mask, &c| mask | 1 << (c as u32 - chunk_bits))
}

/// A walk over listed chunk indices a block at a time: the consecutive
/// listed chunks that `keep` admits, cut into aligned runs of a power of
/// two chunks, at most `cap` (a power of two), each with the rank of its
/// first chunk in the listing. Admitted chunks are also dealt into
/// pieces of `per` (the last may be short) that no block straddles.
struct Blocks<I> {
    chunks: I,
    /// Listed chunks read so far.
    read: usize,
    /// Admitted chunks not handed out yet, and the rank of the first.
    run: Range<usize>,
    rank: usize,
    /// A listed chunk read past the end of `run`.
    ahead: Option<usize>,
    cap: usize,
    per: usize,
    /// Admitted chunks in the current piece.
    dealt: usize,
}

impl<I: Iterator<Item = usize>> Blocks<I> {
    fn new(chunks: I, cap: usize, per: usize) -> Self {
        Blocks {
            chunks,
            read: 0,
            run: 0..0,
            rank: 0,
            ahead: None,
            cap,
            per,
            dealt: 0,
        }
    }

    /// The next listed chunk, counted.
    #[inline]
    fn read_next(&mut self) -> Option<usize> {
        let c = self.chunks.next();
        self.read += usize::from(c.is_some());
        c
    }

    /// The next block, its rank, and whether it ends a piece.
    #[inline]
    fn next(&mut self, keep: impl Fn(usize) -> bool) -> Option<(Range<usize>, usize, bool)> {
        if self.run.is_empty() {
            let start = loop {
                let c = self.ahead.take().or_else(|| self.read_next())?;
                if keep(c) {
                    break c;
                }
            };
            // `start` is the last chunk read, whether just now or ahead.
            self.rank = self.read - 1;
            let mut end = start + 1;
            while end - start < self.per - self.dealt {
                match self.read_next() {
                    Some(c) if c == end && keep(c) => end += 1,
                    other => {
                        self.ahead = other;
                        break;
                    }
                }
            }
            self.dealt += end - start;
            self.run = start..end;
        }
        let (c, rank) = (self.run.start, self.rank);
        let fit = 1usize << (usize::BITS - 1 - self.run.len().leading_zeros());
        let align = match c {
            0 => usize::MAX,
            c => c & c.wrapping_neg(),
        };
        self.run.start += fit.min(self.cap).min(align);
        self.rank += self.run.start - c;
        let ends_piece = self.run.is_empty() && self.dealt == self.per;
        if ends_piece {
            self.dealt = 0;
        }
        Some((c..self.run.start, rank, ends_piece))
    }

    /// Every block with its rank, and per piece the index one past its
    /// last block.
    fn collect(mut self, keep: impl Fn(usize) -> bool) -> (Vec<(Range<usize>, usize)>, Vec<usize>) {
        let (mut blocks, mut ends) = (Vec::new(), Vec::new());
        while let Some((block, rank, ends_piece)) = self.next(&keep) {
            blocks.push((block, rank));
            if ends_piece {
                ends.push(blocks.len());
            }
        }
        if ends.last() != Some(&blocks.len()) {
            ends.push(blocks.len());
        }
        (blocks, ends)
    }
}

/// `work` cut into consecutive pieces, each ending where `ends` says.
fn pieces<'w, T>(mut work: &'w mut [T], ends: &[usize]) -> Vec<&'w mut [T]> {
    let mut at = 0;
    ends.iter()
        .map(|&end| {
            let (piece, rest) = std::mem::take(&mut work).split_at_mut(end - at);
            (work, at) = (rest, end);
            piece
        })
        .collect()
}

/// A block of consecutive chunk groups during a run, by member index:
/// member `j` — one slice holding member `j` of every group of the block
/// — is the one whose high-mixing bit pattern is `j` (rank `r` of
/// `high_mixing` ↔ bit `r`).
trait Group {
    /// The first chunk index and the amplitudes of the (distinct)
    /// members `js`.
    fn members<const N: usize>(&mut self, js: [usize; N]) -> [(usize, &mut [Complex64]); N];
}

/// A block of groups addressed straight in the state's arena — the
/// serial path of groups of two members or more, which borrows nothing
/// for longer than a kernel call:
/// the block's representatives and the member offsets.
struct InArena<'a>(&'a mut ChunkedState, &'a Range<usize>, &'a [usize]);

impl Group for InArena<'_> {
    fn members<const N: usize>(&mut self, js: [usize; N]) -> [(usize, &mut [Complex64]); N] {
        let InArena(state, block, offsets) = self;
        let runs = js.map(|j| block.start + offsets[j]..block.end + offsets[j]);
        let firsts = runs.clone().map(|r| r.start);
        let mut amps = state.runs_mut(runs).into_iter();
        firsts.map(|c| (c, amps.next().expect("one slice per member")))
    }
}

/// A block of groups carved out of the arena for a worker.
impl Group for [Member<'_>] {
    fn members<const N: usize>(&mut self, js: [usize; N]) -> [(usize, &mut [Complex64]); N] {
        let members = self.get_disjoint_mut(js).expect("distinct members");
        members.map(|m| (m.chunk, &mut *m.amps))
    }
}

/// Applies one member action of a run to a block of chunk groups.
/// Diagonals and chunk-local dense actions visit each member with its own
/// global base; a dense action mixing a high qubit pairs up the members
/// that qubit tells apart. (A block never spans a high control bit, so
/// its first chunk speaks for all of them.)
fn apply_to_group<G: Group + ?Sized>(
    group: &mut G,
    chunk_bits: u32,
    high_mixing: &[usize],
    action: &GateAction,
) {
    let group_len = 1usize << high_mixing.len();
    let (controls, mixing, matrix) = match action {
        GateAction::Diagonal { qubits, dvec } => {
            for j in 0..group_len {
                let [(chunk, amps)] = group.members([j]);
                kernels::apply_diagonal(amps, chunk << chunk_bits, qubits, dvec);
            }
            return;
        }
        GateAction::ControlledDense {
            controls,
            mixing,
            matrix,
        } => (controls, mixing, matrix),
    };
    let is_high = |q: usize| q as u32 >= chunk_bits;
    // A high mixing qubit as a bit of the member index.
    let member_bit = |q: usize| {
        let rank = high_mixing.iter().position(|&h| h == q);
        1usize << rank.expect("high mixing qubit of a member must be in the run's high_mixing")
    };
    // Local controls index into a chunk; high ones are bits of each
    // member's chunk index (the operands of one kernel call agree on them).
    let (mut cmask, mut high_cmask) = (0usize, 0usize);
    for &c in controls {
        if is_high(c) {
            high_cmask |= 1 << (c as u32 - chunk_bits);
        } else {
            cmask |= 1 << c;
        }
    }
    let enabled = |chunk: usize| chunk & high_cmask == high_cmask;
    // The members a kernel call starts from: index 0 at every mixing bit.
    let anchors = |bits: usize| (0..group_len).filter(move |j| j & bits == 0);
    match **mixing {
        _ if !mixing.iter().any(|&q| is_high(q)) => {
            for j in 0..group_len {
                let [(chunk, amps)] = group.members([j]);
                if enabled(chunk) {
                    kernels::apply_dense(amps, cmask, mixing, matrix);
                }
            }
        }
        [target] => {
            let bit = member_bit(target);
            for j in anchors(bit) {
                let [(chunk, lo), (_, hi)] = group.members([j, j | bit]);
                if enabled(chunk) {
                    kernels::apply_1q_halves(lo, hi, cmask, matrix);
                }
            }
        }
        [q0, q1] if cmask == 0 && is_high(q0) && is_high(q1) => {
            let (b0, b1) = (member_bit(q0), member_bit(q1));
            for j in anchors(b0 | b1) {
                let [(chunk, s0), (_, s1), (_, s2), (_, s3)] =
                    group.members([j, j | b0, j | b1, j | b0 | b1]);
                if enabled(chunk) {
                    kernels::apply_2q_quarters([s0, s1, s2, s3], matrix);
                }
            }
        }
        [q0, q1] if cmask == 0 => {
            let (low, high) = if is_high(q0) { (q1, q0) } else { (q0, q1) };
            let bit = member_bit(high);
            for j in anchors(bit) {
                let [(chunk, h0), (_, h1)] = group.members([j, j | bit]);
                if enabled(chunk) {
                    kernels::apply_2q_halves(h0, h1, low, low == q0, matrix);
                }
            }
        }
        _ => panic!("a dense action spanning chunks has at most two mixing qubits, and no local control beside two"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateVector;
    use qgpu_circuit::generators::Benchmark;
    use qgpu_circuit::{fuse, Gate, Operation};

    fn bits_equal(a: &StateVector, b: &StateVector) -> bool {
        a.amps()
            .iter()
            .zip(b.amps().iter())
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
    }

    fn actions_of(ops: &[(Gate, Vec<usize>)]) -> Vec<GateAction> {
        ops.iter()
            .map(|(g, qs)| GateAction::from_operation(&Operation::new(*g, qs.clone())))
            .collect()
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        ChunkExecutor::new(0);
    }

    #[test]
    fn recorder_captures_worker_spans_and_queue_occupancy() {
        let rec = Arc::new(Recorder::new());
        let n = 15;
        let chunk_bits = 8;
        let c = Benchmark::Qft.generate(n);
        let mut flat = StateVector::new_zero(n);
        flat.run(&c);
        let mut state = ChunkedState::from_flat(&flat, chunk_bits);
        let chunks = 0..state.num_chunks();
        let run = actions_of(&[(Gate::H, vec![1]), (Gate::T, vec![2])]);
        ChunkExecutor::with_exact_threads(4)
            .with_recorder(Arc::clone(&rec))
            .try_apply_group_runs(&mut state, &run, chunks, &[], None, None)
            .unwrap();
        let spans = rec.spans();
        assert!(
            spans.iter().any(|s| matches!(s.track, Track::Worker(_))),
            "worker spans expected"
        );
        let queue = rec.registry().snapshot();
        let hist = &queue
            .histograms_named("worker.queue")
            .next()
            .expect("occupancy")
            .value;
        // 128 dense chunks over 4 workers: 32 items each.
        assert_eq!(hist.count, 4);
        assert_eq!(hist.max, 32);
    }

    #[test]
    #[should_panic(expected = "high mixing qubit 5 not in high_mixing")]
    fn unlisted_high_mixing_qubit_panics_on_the_serial_path() {
        // A dense state: its 128 chunks of 2^3 amplitudes are one block,
        // to which qubit 5 is local, so only the contract check stops the
        // run.
        let mut flat = StateVector::new_zero(10);
        flat.run(&Benchmark::Rqc.generate(10));
        let mut state = ChunkedState::from_flat(&flat, 3);
        assert_eq!(state.dense_chunk_count(), 128);
        let run = actions_of(&[(Gate::H, vec![5])]);
        let _ = ChunkExecutor::with_exact_threads(1).try_apply_group_runs(
            &mut state,
            &run,
            0..128,
            &[],
            None,
            None,
        );
    }

    #[test]
    fn new_clamps_to_available_parallelism() {
        let cores = std::thread::available_parallelism().map_or(usize::MAX, |n| n.get());
        assert!(ChunkExecutor::new(1024).threads() <= cores.max(1));
        assert_eq!(ChunkExecutor::with_exact_threads(1024).threads(), 1024);
    }

    #[test]
    fn flat_run_is_bitwise_equal_to_sequential_at_any_thread_count() {
        let c = Benchmark::Qft.generate(15);
        let program = fuse::fuse(&c);
        let mut reference = StateVector::new_zero(15);
        reference.run(&c);
        for threads in [1usize, 2, 3, 4, 8] {
            let ex = ChunkExecutor::with_exact_threads(threads);
            let mut s = StateVector::new_zero(15);
            for fop in &program {
                ex.apply_flat_run(s.amps_mut(), fop.actions());
            }
            assert!(bits_equal(&s, &reference), "threads = {threads}");
        }
    }

    #[test]
    fn flat_run_handles_high_dense_qubits() {
        // A run whose dense member mixes the top qubit forces block_bits
        // up to the full state: exercises the single-block fallback.
        let n = 15;
        let run = actions_of(&[(Gate::H, vec![n - 1]), (Gate::T, vec![n - 1])]);
        let mut a = StateVector::new_zero(n);
        let mut b = StateVector::new_zero(n);
        for act in &run {
            kernels::apply_action(b.amps_mut(), 0, act);
        }
        ChunkExecutor::with_exact_threads(4).apply_flat_run(a.amps_mut(), &run);
        assert!(bits_equal(&a, &b));
    }

    #[test]
    fn empty_run_is_a_no_op() {
        let mut s = StateVector::new_zero(4);
        ChunkExecutor::with_exact_threads(2).apply_flat_run(s.amps_mut(), &[]);
        assert!((s.amp(0) - Complex64::ONE).abs() < 1e-15);
    }

    /// Regression: a fused run whose target qubit sits *below* the
    /// chunk-size exponent must go through the Case-1 path and match the
    /// flat result bitwise.
    #[test]
    fn local_run_below_chunk_boundary_matches_flat() {
        let n = 10;
        let chunk_bits = 4;
        let prep = Benchmark::Gs.generate(n);
        let run = actions_of(&[(Gate::H, vec![2]), (Gate::T, vec![2]), (Gate::H, vec![2])]);

        let mut flat = StateVector::new_zero(n);
        flat.run(&prep);
        let chunked = ChunkedState::from_flat(&flat, chunk_bits);
        for act in &run {
            kernels::apply_action(flat.amps_mut(), 0, act);
        }
        for threads in [1usize, 2, 4] {
            let mut state = chunked.clone();
            let chunks = 0..state.num_chunks();
            ChunkExecutor::with_exact_threads(threads)
                .try_apply_group_runs(&mut state, &run, chunks, &[], None, None)
                .unwrap();
            assert!(bits_equal(&state.to_flat(), &flat), "threads = {threads}");
        }
    }

    /// Regression: a fused run whose target qubit sits *above* the
    /// chunk-size exponent must go through the Case-2 group path and
    /// match the flat result bitwise.
    #[test]
    fn group_run_above_chunk_boundary_matches_flat() {
        let n = 10;
        let chunk_bits: u32 = 3;
        let target = 8usize; // above the boundary
        let prep = Benchmark::Iqp.generate(n);
        let run = actions_of(&[
            (Gate::H, vec![target]),
            (Gate::T, vec![target]),
            (Gate::H, vec![target]),
        ]);

        let mut flat = StateVector::new_zero(n);
        flat.run(&prep);
        let chunked = ChunkedState::from_flat(&flat, chunk_bits);
        for act in &run {
            kernels::apply_action(flat.amps_mut(), 0, act);
        }
        let high_mixing = [target];
        for threads in [1usize, 2, 4] {
            let mut state = chunked.clone();
            let group_bit = 1usize << (target as u32 - chunk_bits);
            let reps = (0..state.num_chunks()).filter(|c| c & group_bit == 0);
            ChunkExecutor::with_exact_threads(threads)
                .try_apply_group_runs(&mut state, &run, reps, &high_mixing, None, None)
                .unwrap();
            assert!(bits_equal(&state.to_flat(), &flat), "threads = {threads}");
        }
    }

    #[test]
    fn group_run_sparsity_matches_per_gate_semantics() {
        // |0…0⟩ chunked: only chunk 0 is dense. The run X·X on the top
        // qubit moves the amplitude into the (sparse) top chunk and back:
        // the top chunk was speculatively materialized but ends all-zero,
        // so it must demote back to sparse. Chunk 0 was dense before the
        // run, so it stays dense even while holding the amplitude — the
        // same sparsity the per-gate path produces.
        let n = 8;
        let chunk_bits: u32 = 3;
        let mut state = ChunkedState::new_zero(n, chunk_bits);
        let top = n - 1;
        let run = actions_of(&[(Gate::X, vec![top]), (Gate::X, vec![top])]);
        let groups = 0..1;
        ChunkExecutor::with_exact_threads(2)
            .try_apply_group_runs(&mut state, &run, groups.clone(), &[top], None, None)
            .unwrap();
        assert_eq!(state.dense_chunk_count(), 1);
        assert!(
            state.is_zero_chunk(state.num_chunks() - 1),
            "speculatively materialized chunk must re-sparsify"
        );
        let flat = state.to_flat();
        assert!((flat.amp(0) - Complex64::ONE).abs() < 1e-15);

        // A single X leaves the amplitude in the top chunk: the sparse
        // member stays dense, and chunk 0 — though now zero — was dense
        // before the run and is not demoted.
        let mut state = ChunkedState::new_zero(n, chunk_bits);
        let run = actions_of(&[(Gate::X, vec![top])]);
        ChunkExecutor::with_exact_threads(2)
            .try_apply_group_runs(&mut state, &run, groups.clone(), &[top], None, None)
            .unwrap();
        assert_eq!(state.dense_chunk_count(), 2);
        assert!(!state.is_zero_chunk(0));
        let flat = state.to_flat();
        assert!((flat.amp(1 << top) - Complex64::ONE).abs() < 1e-15);
    }

    #[test]
    fn group_run_respects_high_controls() {
        // CX with a high control and high target: control bit selects
        // half the groups; compare against the per-gate path bitwise.
        let n = 9;
        let chunk_bits: u32 = 3;
        let prep = Benchmark::Rqc.generate(n);
        let mut flat = StateVector::new_zero(n);
        flat.run(&prep);
        let op = Operation::new(Gate::Cx, vec![7, 8]);
        let action = GateAction::from_operation(&op);

        let mut expected = ChunkedState::from_flat(&flat, chunk_bits);
        expected.apply_action(&action);

        let mut state = ChunkedState::from_flat(&flat, chunk_bits);
        let high_mixing = [8usize];
        let group_bit = 1usize << (8 - chunk_bits);
        let reps = (0..state.num_chunks()).filter(|c| c & group_bit == 0);
        ChunkExecutor::with_exact_threads(3)
            .try_apply_group_runs(&mut state, &[action], reps, &high_mixing, None, None)
            .unwrap();
        assert!(bits_equal(&state.to_flat(), &expected.to_flat()));
    }

    #[test]
    fn flat_diagonal_is_bitwise_identical_across_worker_counts() {
        // Large enough to clear MIN_PARALLEL so the aligned-block split
        // actually runs; compare every worker count against the kernel
        // over the whole slice, bit for bit.
        let n = 15;
        let amps0: Vec<Complex64> = (0..1usize << n)
            .map(|i| Complex64::new(0.4 + 1e-5 * i as f64, -0.3 + 7e-6 * i as f64))
            .collect();
        let qubits = [1usize, 4, 9];
        let dvec: Vec<Complex64> = (0..8)
            .map(|s| match s {
                3 => Complex64::cis(0.81),
                6 => Complex64::new(-1.0, 0.0),
                _ => Complex64::ONE,
            })
            .collect();
        let mut reference = amps0.clone();
        kernels::apply_diagonal(&mut reference, 0, &qubits, &dvec);
        let diagonal = GateAction::Diagonal {
            qubits: qubits.to_vec(),
            dvec,
        };
        for threads in [1usize, 2, 3, 4, 8] {
            let mut amps = amps0.clone();
            ChunkExecutor::with_exact_threads(threads).apply_flat(&mut amps, &diagonal);
            for (i, (x, y)) in amps.iter().zip(reference.iter()).enumerate() {
                assert!(
                    x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                    "threads = {threads}, amp {i}"
                );
            }
        }
    }

    #[test]
    fn flat_diagonal_accepts_gate_ordered_qubits() {
        // A controlled phase listed control-first puts the higher qubit
        // position at table bit 0: every worker's blocks must read the
        // table in that order, matching the whole-slice kernel bitwise.
        let n = 15;
        let amps0: Vec<Complex64> = (0..1usize << n)
            .map(|i| Complex64::new(0.5 + 3e-6 * i as f64, 0.1 - 2e-6 * i as f64))
            .collect();
        let qubits = [9usize, 2];
        let dvec = vec![
            Complex64::ONE,
            Complex64::ONE,
            Complex64::cis(0.55),
            Complex64::new(-1.0, 0.0),
        ];
        let mut reference = amps0.clone();
        kernels::apply_diagonal(&mut reference, 0, &qubits, &dvec);
        let diagonal = GateAction::Diagonal {
            qubits: qubits.to_vec(),
            dvec,
        };
        for threads in [1usize, 4] {
            let mut amps = amps0.clone();
            ChunkExecutor::with_exact_threads(threads).apply_flat(&mut amps, &diagonal);
            for (i, (x, y)) in amps.iter().zip(reference.iter()).enumerate() {
                assert!(
                    x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                    "threads = {threads}, amp {i}"
                );
            }
        }
    }

    #[test]
    fn reduce_is_bitwise_identical_across_thread_counts() {
        let c = Benchmark::Qaoa.generate(15);
        let mut s = StateVector::new_zero(15);
        s.run(&c);
        let amps = s.amps();
        let serial = ChunkExecutor::with_exact_threads(1)
            .reduce_f64(amps.len(), |r| amps[r].iter().map(|a| a.norm_sqr()).sum());
        for threads in [2usize, 3, 4, 8] {
            let par = ChunkExecutor::with_exact_threads(threads)
                .reduce_f64(amps.len(), |r| amps[r].iter().map(|a| a.norm_sqr()).sum());
            assert_eq!(serial.to_bits(), par.to_bits(), "threads = {threads}");
        }
        assert!((serial - 1.0).abs() < 1e-10);
    }

    #[test]
    fn reduce_handles_odd_lengths() {
        let values: Vec<f64> = (0..10_001).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let sum = |threads| {
            ChunkExecutor::with_exact_threads(threads)
                .reduce_f64(values.len(), |r| values[r].iter().sum())
        };
        assert_eq!(sum(1).to_bits(), sum(4).to_bits());
    }

    #[test]
    fn injected_worker_death_recovers_bit_exactly() {
        use qgpu_faults::FaultConfig;
        let n = 15;
        let chunk_bits = 8;
        let c = Benchmark::Qft.generate(n);
        let mut flat = StateVector::new_zero(n);
        flat.run(&c);
        let run = actions_of(&[(Gate::H, vec![1]), (Gate::T, vec![2]), (Gate::X, vec![0])]);
        let chunks = 0..1usize << (n as u32 - chunk_bits);

        let mut healthy = ChunkedState::from_flat(&flat, chunk_bits);
        ChunkExecutor::with_exact_threads(4)
            .try_apply_group_runs(&mut healthy, &run, chunks.clone(), &[], None, None)
            .unwrap();

        // Every worker of every dispatch dies; recovery re-runs all pieces
        // serially and the result must still be bit-identical.
        let injector = FaultInjector::new(FaultConfig {
            p_worker_death: 1.0,
            ..FaultConfig::default()
        });
        let mut faulty = ChunkedState::from_flat(&flat, chunk_bits);
        let restarts = ChunkExecutor::with_exact_threads(4)
            .with_faults(Arc::new(injector))
            .try_apply_group_runs(&mut faulty, &run, chunks.clone(), &[], None, None)
            .expect("injected deaths are recoverable");
        assert!(restarts > 0, "all workers were killed, none restarted?");
        assert!(bits_equal(&healthy.to_flat(), &faulty.to_flat()));
    }

    #[test]
    fn injected_death_in_group_dispatch_recovers() {
        use qgpu_faults::FaultConfig;
        let n = 12;
        let chunk_bits = 8;
        let c = Benchmark::Qft.generate(n);
        let mut flat = StateVector::new_zero(n);
        flat.run(&c);
        // One high mixing qubit: groups pair chunk k with chunk k + 8.
        let run = actions_of(&[(Gate::H, vec![(chunk_bits + 3) as usize])]);
        let groups = 0..8;
        let high_mixing = vec![(chunk_bits + 3) as usize];

        let mut healthy = ChunkedState::from_flat(&flat, chunk_bits);
        ChunkExecutor::with_exact_threads(4)
            .try_apply_group_runs(&mut healthy, &run, groups.clone(), &high_mixing, None, None)
            .unwrap();

        let injector = FaultInjector::new(FaultConfig {
            p_worker_death: 1.0,
            ..FaultConfig::default()
        });
        let mut faulty = ChunkedState::from_flat(&flat, chunk_bits);
        let restarts = ChunkExecutor::with_exact_threads(4)
            .with_faults(Arc::new(injector))
            .try_apply_group_runs(&mut faulty, &run, groups.clone(), &high_mixing, None, None)
            .expect("injected deaths are recoverable");
        assert!(restarts > 0);
        assert!(bits_equal(&healthy.to_flat(), &faulty.to_flat()));
    }

    #[test]
    fn partial_worker_death_is_deterministic_across_thread_interleavings() {
        use qgpu_faults::FaultConfig;
        let n = 15;
        let chunk_bits = 8;
        let c = Benchmark::Qft.generate(n);
        let mut flat = StateVector::new_zero(n);
        flat.run(&c);
        let run = actions_of(&[(Gate::H, vec![0]), (Gate::S, vec![3])]);
        let chunks = 0..1usize << (n as u32 - chunk_bits);
        let injector = Arc::new(FaultInjector::new(FaultConfig {
            seed: 7,
            p_worker_death: 0.5,
            ..FaultConfig::default()
        }));

        let mut first = ChunkedState::from_flat(&flat, chunk_bits);
        let r1 = ChunkExecutor::with_exact_threads(4)
            .with_faults(Arc::clone(&injector))
            .try_apply_group_runs(&mut first, &run, chunks.clone(), &[], None, None)
            .unwrap();
        let mut second = ChunkedState::from_flat(&flat, chunk_bits);
        let r2 = ChunkExecutor::with_exact_threads(4)
            .with_faults(injector)
            .try_apply_group_runs(&mut second, &run, chunks.clone(), &[], None, None)
            .unwrap();
        assert_eq!(r1, r2, "same seed, same dispatch → same deaths");
        assert!(bits_equal(&first.to_flat(), &second.to_flat()));
    }

    #[test]
    fn polled_local_run_stops_between_chunk_visits() {
        use std::sync::atomic::AtomicUsize;
        let n = 15;
        let chunk_bits = 8;
        let mut flat = StateVector::new_zero(n);
        flat.run(&Benchmark::Qft.generate(n));
        let before = ChunkedState::from_flat(&flat, chunk_bits);
        let run = actions_of(&[(Gate::H, vec![1]), (Gate::T, vec![2])]);
        let chunks = 0..before.num_chunks();
        let mut done = before.clone();
        ChunkExecutor::with_exact_threads(1)
            .try_apply_group_runs(&mut done, &run, chunks.clone(), &[], None, None)
            .unwrap();

        // Serial: the poll answers `Some` from its 6th call on, so exactly
        // five chunks carry the run and the rest are untouched.
        let polls = AtomicUsize::new(0);
        let poll = || {
            (polls.fetch_add(1, Ordering::Relaxed) >= 5).then_some(SimError::JobAborted { op: 7 })
        };
        let mut state = before.clone();
        let err = ChunkExecutor::with_exact_threads(1)
            .try_apply_group_runs(&mut state, &run, chunks.clone(), &[], Some(&poll), None)
            .expect_err("the poll ends the run");
        assert!(matches!(err, SimError::JobAborted { op: 7 }));
        for c in 0..before.num_chunks() {
            let want = if c < 5 { &done } else { &before };
            assert_eq!(state.chunk(c), want.chunk(c), "chunk {c}");
        }

        // Parallel: every worker stops at once, and every chunk checked
        // out for the dispatch is back in place.
        let mut state = before.clone();
        ChunkExecutor::with_exact_threads(4)
            .try_apply_group_runs(
                &mut state,
                &run,
                chunks.clone(),
                &[],
                Some(&|| Some(SimError::JobAborted { op: 7 })),
                None,
            )
            .expect_err("the poll ends the run");
        assert_eq!(state, before);
    }

    #[test]
    fn small_group_dispatch_stays_on_the_calling_thread() {
        use qgpu_faults::FaultConfig;
        // 32 chunks of 8 amplitudes: far below MIN_PARALLEL, whether a
        // run pairs them into 16 groups on the top qubit or leaves them
        // groups of one.
        let n = 8;
        let chunk_bits: u32 = 3;
        let mut flat = StateVector::new_zero(n);
        flat.run(&Benchmark::Rqc.generate(n));
        let cases = [(Gate::H, 7usize, 0..16), (Gate::H, 0, 0..32)];
        for (gate, q, reps) in cases {
            let run = actions_of(&[(gate, vec![q])]);
            let high_mixing: &[usize] = if q >= chunk_bits as usize { &[7] } else { &[] };
            let dispatches = |ex: ChunkExecutor| {
                let rec = Arc::new(Recorder::new());
                let mut state = ChunkedState::from_flat(&flat, chunk_bits);
                ex.with_recorder(Arc::clone(&rec))
                    .try_apply_group_runs(&mut state, &run, reps.clone(), high_mixing, None, None)
                    .unwrap();
                let snap = rec.registry().snapshot();
                let queued = snap
                    .histograms_named("worker.queue")
                    .next()
                    .map_or(0, |h| h.value.count);
                (state, queued)
            };
            let (serial, none) = dispatches(ChunkExecutor::with_exact_threads(4));
            assert_eq!(none, 0, "no worker was spawned for 256 amplitudes (q{q})");
            // A seeded worker-death campaign counts dispatches: it keeps
            // them, chunk-local ones included.
            let injector = Arc::new(FaultInjector::new(FaultConfig::default()));
            let (dispatched, four) =
                dispatches(ChunkExecutor::with_exact_threads(4).with_faults(injector));
            assert_eq!(four, 4, "q{q}");
            assert_eq!(serial, dispatched, "q{q}");
        }
    }

    #[test]
    fn flat_paths_reject_a_qubit_outside_the_state_alike() {
        let n = 15;
        let high_control = GateAction::from_operation(&Operation::new(Gate::Cx, vec![n, 0]));
        let high_diagonal = GateAction::Diagonal {
            qubits: vec![2, n + 1],
            dvec: vec![Complex64::ONE; 4],
        };
        for action in [high_control, high_diagonal] {
            for threads in [1usize, 4] {
                let mut s = StateVector::new_zero(n);
                let ex = ChunkExecutor::with_exact_threads(threads);
                let apply = std::panic::AssertUnwindSafe(|| ex.apply_flat(s.amps_mut(), &action));
                let err = std::panic::catch_unwind(apply).expect_err("must panic");
                let msg = err.downcast_ref::<String>().expect("formatted message");
                assert!(
                    msg.contains("outside state"),
                    "{action:?}, threads {threads}: {msg}"
                );
            }
        }
    }

    #[test]
    fn flat_and_reduce_fan_outs_recover_injected_deaths() {
        use qgpu_faults::FaultConfig;
        let n = 15;
        let c = Benchmark::Qft.generate(n);
        let mut reference = StateVector::new_zero(n);
        reference.run(&c);
        let ex = ChunkExecutor::with_exact_threads(4).with_faults(Arc::new(FaultInjector::new(
            FaultConfig {
                p_worker_death: 1.0,
                ..FaultConfig::default()
            },
        )));
        let mut s = StateVector::new_zero(n);
        for fop in &fuse::fuse(&c) {
            ex.apply_flat_run(s.amps_mut(), fop.actions());
        }
        assert!(bits_equal(&s, &reference));
        let amps = s.amps();
        let norm = |r: Range<usize>| amps[r].iter().map(|a| a.norm_sqr()).sum::<f64>();
        let serial = ChunkExecutor::with_exact_threads(1).reduce_f64(amps.len(), norm);
        assert_eq!(ex.reduce_f64(amps.len(), norm).to_bits(), serial.to_bits());
    }

    #[test]
    fn genuine_worker_panic_surfaces_as_worker_lost() {
        let ex = ChunkExecutor::with_exact_threads(2);
        let mut state = ChunkedState::new_zero(3, 1);
        let mut work = state.carve(&[0..1, 1..2, 2..3, 3..4]);
        let err = ex
            .run_dispatch(
                &mut pieces(&mut work, &[2, 4]),
                "test_dispatch",
                "worker.test",
                |piece| piece.len(),
                &|_, piece| {
                    if piece[0].chunk == 2 {
                        panic!("injected genuine panic");
                    }
                },
            )
            .expect_err("a real panic must not be swallowed");
        match err {
            SimError::WorkerLost { dispatch } => assert_eq!(dispatch, "test_dispatch"),
            other => panic!("expected WorkerLost, got {other}"),
        }
    }

    /// Workers the executor's pool spawned (0 without a pool).
    fn workers(ex: &ChunkExecutor) -> usize {
        ex.pool.get().map_or(0, |p| p.workers.len())
    }

    #[test]
    fn no_worker_is_spawned_at_one_thread_or_under_the_floor() {
        let run = actions_of(&[(Gate::H, vec![1]), (Gate::T, vec![2])]);
        let every_path = |ex: &ChunkExecutor, n: usize| {
            let mut flat = StateVector::new_zero(n);
            flat.run(&Benchmark::Qft.generate(n));
            let mut state = ChunkedState::from_flat(&flat, 4);
            let chunks = 0..state.num_chunks();
            ex.try_apply_group_runs(&mut state, &run, chunks, &[], None, None)
                .unwrap();
            ex.apply_flat_run(flat.amps_mut(), &run);
            let amps = flat.amps();
            ex.reduce_f64(amps.len(), |r| amps[r].iter().map(|a| a.norm_sqr()).sum());
        };
        let serial = ChunkExecutor::with_exact_threads(1);
        every_path(&serial, 15);
        assert!(serial.pool.get().is_none(), "one thread, no pool");
        let ex = ChunkExecutor::with_exact_threads(4);
        every_path(&ex, 10);
        assert!(ex.pool.get().is_none(), "2^10 amplitudes, no pool");
        // The first fan-out spawns `threads − 1` workers; later ones reuse
        // them.
        every_path(&ex, 15);
        assert_eq!(workers(&ex), 3);
        every_path(&ex, 15);
        assert_eq!(workers(&ex), 3);
    }

    #[test]
    fn the_pool_serves_the_dispatch_after_a_genuine_panic() {
        let ex = ChunkExecutor::with_exact_threads(2);
        let mut pieces = [0usize, 1];
        let err = ex
            .run_dispatch(
                &mut pieces,
                "test_dispatch",
                "worker.test",
                |_| 1,
                &|t, _| {
                    assert_ne!(t, 1, "injected genuine panic");
                },
            )
            .expect_err("a real panic must not be swallowed");
        assert!(matches!(err, SimError::WorkerLost { .. }));

        let n = 15;
        let mut flat = StateVector::new_zero(n);
        flat.run(&Benchmark::Rqc.generate(n));
        let run = actions_of(&[(Gate::H, vec![2]), (Gate::Cx, vec![0, 5])]);
        let dispatch = |ex: &ChunkExecutor| {
            let mut state = ChunkedState::from_flat(&flat, 8);
            let chunks = 0..state.num_chunks();
            ex.try_apply_group_runs(&mut state, &run, chunks, &[], None, None)
                .unwrap();
            state.to_flat()
        };
        let after_panic = dispatch(&ex);
        assert!(bits_equal(
            &after_panic,
            &dispatch(&ChunkExecutor::with_exact_threads(2))
        ));
        // Piece 1 still goes to the worker, not the calling thread.
        let mut threads = [None, None];
        ex.run_dispatch(
            &mut threads,
            "test_dispatch",
            "worker.test",
            |_| 1,
            &|_, id| {
                *id = Some(std::thread::current().id());
            },
        )
        .unwrap();
        assert_eq!(threads[0], Some(std::thread::current().id()));
        assert!(threads[1].is_some_and(|id| id != std::thread::current().id()));
        assert_eq!(workers(&ex), 1);
    }

    #[test]
    fn dropping_the_last_clone_joins_every_worker() {
        use std::cell::RefCell;
        use std::sync::atomic::AtomicUsize;
        /// Counts a worker's exit: a thread-local's destructor runs after
        /// the worker returned, and a join waits for it.
        struct OnExit(Arc<AtomicUsize>);
        impl Drop for OnExit {
            fn drop(&mut self) {
                // Not needed for the count to hold after a join; it only
                // keeps a worker that was not joined from counting itself
                // off before the assertion reads the count.
                std::thread::sleep(std::time::Duration::from_millis(20));
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local!(static ON_EXIT: RefCell<Option<OnExit>> = const { RefCell::new(None) });
        let exited = Arc::new(AtomicUsize::new(0));
        let ex = ChunkExecutor::with_exact_threads(3);
        let mut pieces = [(); 3];
        let mark_exit = |t: usize, _: &mut ()| {
            if t > 0 {
                ON_EXIT.with(|e| *e.borrow_mut() = Some(OnExit(Arc::clone(&exited))));
            }
        };
        ex.run_dispatch(
            &mut pieces,
            "test_dispatch",
            "worker.test",
            |_| 1,
            &mark_exit,
        )
        .unwrap();
        let shared = Arc::downgrade(&ex.pool.get().expect("a fan-out ran").shared);
        // The pool and its two workers.
        assert_eq!(shared.strong_count(), 3);
        let clone = ex.clone();
        drop(ex);
        assert_eq!(shared.strong_count(), 3, "a clone keeps the workers");
        clone
            .run_dispatch(
                &mut pieces,
                "test_dispatch",
                "worker.test",
                |_| 1,
                &|_, _| {},
            )
            .unwrap();
        assert_eq!(workers(&clone), 2, "and shares them");
        drop(clone);
        assert_eq!(exited.load(Ordering::SeqCst), 2, "every worker was joined");
        assert_eq!(shared.strong_count(), 0);
    }

    #[test]
    fn a_panic_in_piece_zero_waits_for_the_other_pieces() {
        use std::sync::{mpsc, Barrier};
        /// Tells piece 1 that piece 0 is unwinding.
        struct Unwinding(mpsc::Sender<()>);
        impl Drop for Unwinding {
            fn drop(&mut self) {
                let _ = self.0.send(());
            }
        }
        let (tx, rx) = mpsc::channel();
        let rx = Mutex::new(rx);
        let started = Barrier::new(2);
        let caller = std::thread::current().id();
        let piece_one_done = AtomicBool::new(false);
        let ex = ChunkExecutor::with_exact_threads(2);
        let mut pieces = [0usize, 1];
        let err = ex
            .run_dispatch(
                &mut pieces,
                "test_dispatch",
                "worker.test",
                |_| 1,
                &|t, _| {
                    started.wait();
                    if t == 0 {
                        assert_eq!(std::thread::current().id(), caller);
                        let _signal = Unwinding(tx.clone());
                        panic!("piece 0 panics");
                    }
                    rx.lock().unwrap().recv().expect("piece 0 unwinds");
                    piece_one_done.store(true, Ordering::SeqCst);
                },
            )
            .expect_err("piece 0 panicked");
        assert!(matches!(
            err,
            SimError::WorkerLost {
                dispatch: "test_dispatch"
            }
        ));
        assert!(
            piece_one_done.load(Ordering::SeqCst),
            "the dispatch ended while piece 1 still ran"
        );
    }
}
