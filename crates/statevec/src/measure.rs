//! Measurement: probabilities, seeded collapse, and sampling.
//!
//! The paper's scope is measurement at the end of circuits (§II-B); this
//! module provides basis-state sampling and per-qubit marginals over a
//! final [`StateVector`], plus the chunked kernels the engine uses for
//! mid-circuit measurement and seeded shot sampling:
//!
//! * [`prob_one_chunked`] / [`collapse_chunked`] / [`reset_chunked`] —
//!   deterministic collapse on the engine's [`ChunkedState`], and
//! * [`seeded_counts_chunked`] — end-of-circuit shot counts keyed by
//!   [`qgpu_math::rng::unit_draw`].
//!
//! # Partition invariance
//!
//! Every chunked kernel here accumulates **sequentially in global index
//! order**. A sparse (all-zero) chunk contributes exact `+0.0` terms,
//! and since the accumulator starts at `+0.0` and each term is
//! non-negative, skipping those terms is a bitwise no-op. The marginal
//! probability — and therefore every collapse outcome and every sampled
//! shot — is bit-identical at any `chunk_bits`, thread count, or device
//! count.

use rand::Rng;

use qgpu_math::rng::{unit_draw, SALT_SAMPLE};
use qgpu_math::Complex64;

use crate::chunked::ChunkedState;
use crate::executor::ChunkExecutor;
use crate::state::StateVector;

/// Probability that measuring `qubit` yields 1.
///
/// Computed with the fixed-order tree reduction of
/// [`prob_one_parallel`] at one thread, so serial and parallel callers
/// agree bitwise.
///
/// # Panics
///
/// Panics if `qubit` is out of range.
///
/// # Examples
///
/// ```
/// use qgpu_statevec::{StateVector, measure};
/// use qgpu_circuit::{Gate, Operation};
///
/// let mut s = StateVector::new_zero(2);
/// s.apply(&Operation::new(Gate::H, vec![0]));
/// let p = measure::prob_one(&s, 0);
/// assert!((p - 0.5).abs() < 1e-12);
/// ```
pub fn prob_one(state: &StateVector, qubit: usize) -> f64 {
    prob_one_parallel(state, qubit, 1)
}

/// Multi-threaded [`prob_one`].
///
/// The reduction never accumulates in thread-completion order: partial
/// sums are cut at fixed block boundaries and combined with a
/// deterministic pairwise tree (see [`qgpu_math::reduce`]), so the
/// result is bitwise identical at every thread count.
///
/// # Panics
///
/// Panics if `qubit` is out of range or `threads == 0`.
pub fn prob_one_parallel(state: &StateVector, qubit: usize, threads: usize) -> f64 {
    assert!(qubit < state.num_qubits());
    let bit = 1usize << qubit;
    let amps = state.amps();
    ChunkExecutor::new(threads).reduce_f64(amps.len(), |r| {
        let mut acc = 0.0;
        for i in r {
            if i & bit != 0 {
                acc += amps[i].norm_sqr();
            }
        }
        acc
    })
}

/// Samples one basis-state outcome from the measurement distribution.
///
/// # Examples
///
/// ```
/// use qgpu_statevec::{StateVector, measure};
/// use rand::SeedableRng;
///
/// let s = StateVector::new_zero(3);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// assert_eq!(measure::sample(&s, &mut rng), 0); // |000> always measures 0
/// ```
pub fn sample<R: Rng + ?Sized>(state: &StateVector, rng: &mut R) -> usize {
    let r: f64 = rng.gen();
    let mut acc = 0.0;
    for (i, a) in state.amps().iter().enumerate() {
        acc += a.norm_sqr();
        if r < acc {
            return i;
        }
    }
    state.len() - 1
}

/// Draws `shots` samples and returns `(basis_state, count)` pairs sorted
/// by descending count.
pub fn sample_counts<R: Rng + ?Sized>(
    state: &StateVector,
    shots: usize,
    rng: &mut R,
) -> Vec<(usize, usize)> {
    let mut counts: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    for _ in 0..shots {
        *counts.entry(sample(state, rng)).or_insert(0) += 1;
    }
    let mut v: Vec<(usize, usize)> = counts.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v
}

/// Half-runs shorter than this many amplitudes — a qubit below 2 — stay
/// on a per-index loop: on a dense 21-qubit state the half-run loop
/// collapsed and reset 1.2–2.0× slower at qubit 0, 1.0–1.3× at qubit 1.
const SHORT_RUN: usize = 4;

/// The pairs of half-runs of `amps` that `qubit` (below its length)
/// tells apart: the amplitudes with the bit clear, then those with it
/// set, in index order.
fn half_runs(
    amps: &mut [Complex64],
    qubit: usize,
) -> impl Iterator<Item = (&mut [Complex64], &mut [Complex64])> {
    let half = 1usize << qubit;
    amps.chunks_exact_mut(2 * half)
        .map(move |pair| pair.split_at_mut(half))
}

/// Probability that measuring `qubit` yields 1, on a chunked state.
///
/// Accumulated sequentially in global index order (see the module docs),
/// so the result is bit-identical at every `chunk_bits` and independent
/// of which chunks happen to be sparse. Chunks and half-runs the bit
/// rules out are skipped, not tested amplitude by amplitude;
/// [`crate::reference::prob_one_per_index`] is the per-index oracle.
///
/// # Panics
///
/// Panics if `qubit` is out of range.
pub fn prob_one_chunked(state: &ChunkedState, qubit: usize) -> f64 {
    assert!(qubit < state.num_qubits());
    let chunk_bits = state.chunk_bits() as usize;
    let half = 1usize << qubit;
    let mut acc = 0.0f64;
    for c in 0..state.num_chunks() {
        if qubit >= chunk_bits && c >> (qubit - chunk_bits) & 1 == 0 {
            continue;
        }
        let Some(amps) = state.chunk(c) else { continue };
        if qubit >= chunk_bits {
            for a in amps {
                acc += a.norm_sqr();
            }
        } else if half < SHORT_RUN {
            for (off, a) in amps.iter().enumerate() {
                if off & half != 0 {
                    acc += a.norm_sqr();
                }
            }
        } else {
            for pair in amps.chunks_exact(2 * half) {
                for a in &pair[half..] {
                    acc += a.norm_sqr();
                }
            }
        }
    }
    acc
}

/// Collapses `qubit` to `outcome`, renormalizing by `p_outcome`.
///
/// Amplitudes on the non-matching half are zeroed; matching amplitudes
/// are scaled elementwise by `1/√p_outcome` — the same multiply in the
/// same position for every layout, so collapse is partition-invariant.
/// Chunks left all-zero are demoted back to sparse so pruning keeps its
/// wins after the collapse. A chunk the bit rules out is cleared whole,
/// and kept chunks and half-runs are scaled without a per-amplitude
/// test; [`crate::reference::collapse_per_index`] is the per-index
/// oracle.
///
/// # Panics
///
/// Panics if `qubit` is out of range; `p_outcome` must be positive
/// (a drawn outcome always has nonzero probability).
pub fn collapse_chunked(state: &mut ChunkedState, qubit: usize, outcome: bool, p_outcome: f64) {
    assert!(qubit < state.num_qubits());
    debug_assert!(p_outcome > 0.0, "drawn outcome must have p > 0");
    let scale = 1.0 / p_outcome.sqrt();
    let scale_all = |amps: &mut [Complex64]| amps.iter_mut().for_each(|a| *a = *a * scale);
    let chunk_bits = state.chunk_bits() as usize;
    let half = 1usize << qubit;
    for c in 0..state.num_chunks() {
        if qubit >= chunk_bits && (c >> (qubit - chunk_bits) & 1 == 1) != outcome {
            if !state.is_zero_chunk(c) {
                state.clear_chunk(c);
            }
            continue;
        }
        let Some(amps) = state.chunk_mut(c) else {
            continue;
        };
        if qubit >= chunk_bits {
            scale_all(amps);
        } else if half < SHORT_RUN {
            for (off, a) in amps.iter_mut().enumerate() {
                if (off & half != 0) == outcome {
                    *a = *a * scale;
                } else {
                    *a = Complex64::ZERO;
                }
            }
        } else {
            for (zeros, ones) in half_runs(amps, qubit) {
                let (keep, drop) = if outcome {
                    (ones, zeros)
                } else {
                    (zeros, ones)
                };
                drop.fill(Complex64::ZERO);
                scale_all(keep);
            }
        }
        state.demote_if_zero(c);
    }
}

/// Resets `qubit` to |0⟩ given the measured `outcome`: collapse, then —
/// for outcome 1 — *move* each surviving amplitude to the partner index
/// with the qubit's bit cleared (a half-run at a time, or a whole chunk).
///
/// The move is a pure relocation (no matrix arithmetic), so it cannot
/// introduce signed-zero or rounding divergence between layouts.
/// [`crate::reference::reset_per_index`] is the per-index oracle.
///
/// # Panics
///
/// Panics if `qubit` is out of range; `p_outcome` must be positive.
pub fn reset_chunked(state: &mut ChunkedState, qubit: usize, outcome: bool, p_outcome: f64) {
    collapse_chunked(state, qubit, outcome, p_outcome);
    if !outcome {
        return;
    }
    let chunk_bits = state.chunk_bits() as usize;
    if qubit < chunk_bits {
        // The pair lives inside each chunk: move offset (o|bit) → o.
        let half = 1usize << qubit;
        for c in 0..state.num_chunks() {
            let Some(amps) = state.chunk_mut(c) else {
                continue;
            };
            if half < SHORT_RUN {
                for off in (0..amps.len()).filter(|off| off & half != 0) {
                    amps[off & !half] = amps[off];
                    amps[off] = Complex64::ZERO;
                }
                continue;
            }
            for (zeros, ones) in half_runs(amps, qubit) {
                zeros.copy_from_slice(ones);
                ones.fill(Complex64::ZERO);
            }
        }
    } else {
        // The pair spans chunks: move chunk (c|bit) → chunk (c & !bit).
        let bit = 1usize << (qubit - chunk_bits);
        for c in 0..state.num_chunks() {
            if c & bit != 0 && !state.is_zero_chunk(c) {
                state.move_chunk(c, c & !bit);
            }
        }
    }
}

/// Seeded end-of-circuit shot counts over a chunked state.
///
/// Shot `s` draws `unit_draw(seed, SALT_SAMPLE, s, trajectory)`; the
/// draws are sorted ascending and resolved in a single sequential CDF
/// pass in global index order, so `shots` samples cost one pass over the
/// state regardless of `shots`. Returns `(basis_state, count)` pairs
/// sorted by descending count, ties by ascending state.
///
/// Bit-reproducible: the draws are pure functions of the key and the
/// CDF accumulation is the partition-invariant sequential sum of the
/// module docs.
pub fn seeded_counts_chunked(
    state: &ChunkedState,
    shots: u64,
    seed: u64,
    trajectory: u64,
) -> Vec<(usize, u64)> {
    let mut draws: Vec<f64> = (0..shots)
        .map(|s| unit_draw(seed, SALT_SAMPLE, s, trajectory))
        .collect();
    draws.sort_by(f64::total_cmp);

    let mut counts: std::collections::BTreeMap<usize, u64> = std::collections::BTreeMap::new();
    let mut next = 0usize; // index into draws
    let mut acc = 0.0f64;
    let mut last_nonzero = 0usize;
    'pass: for c in 0..state.num_chunks() {
        let Some(amps) = state.chunk(c) else { continue };
        let base = c << state.chunk_bits();
        for (off, a) in amps.iter().enumerate() {
            let p = a.norm_sqr();
            if p == 0.0 {
                continue;
            }
            let idx = base | off;
            last_nonzero = idx;
            acc += p;
            let start = next;
            while next < draws.len() && draws[next] < acc {
                next += 1;
            }
            if next > start {
                *counts.entry(idx).or_insert(0) += (next - start) as u64;
            }
            if next == draws.len() {
                break 'pass;
            }
        }
    }
    // Draws past the accumulated norm (the norm is ≈1, not exactly 1)
    // land on the last populated state.
    if next < draws.len() {
        *counts.entry(last_nonzero).or_insert(0) += (draws.len() - next) as u64;
    }

    let mut v: Vec<(usize, u64)> = counts.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgpu_circuit::Circuit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bell() -> StateVector {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut s = StateVector::new_zero(2);
        s.run(&c);
        s
    }

    #[test]
    fn prob_one_is_bitwise_identical_across_thread_counts() {
        // Pins the fixed-order tree reduction: the marginal must not
        // depend on how many threads computed it, down to the last bit.
        let c = qgpu_circuit::generators::Benchmark::Qaoa.generate(15);
        let mut s = StateVector::new_zero(15);
        s.run(&c);
        for qubit in [0, 7, 14] {
            let serial = prob_one_parallel(&s, qubit, 1);
            assert_eq!(serial.to_bits(), prob_one(&s, qubit).to_bits());
            for threads in [2, 3, 4, 8] {
                let par = prob_one_parallel(&s, qubit, threads);
                assert_eq!(
                    serial.to_bits(),
                    par.to_bits(),
                    "qubit {qubit}, threads {threads}"
                );
            }
        }
    }

    #[test]
    fn prob_one_matches_naive_sum() {
        let c = qgpu_circuit::generators::Benchmark::Rqc.generate(12);
        let mut s = StateVector::new_zero(12);
        s.run(&c);
        for qubit in 0..12 {
            let naive: f64 = s
                .amps()
                .iter()
                .enumerate()
                .filter(|(i, _)| i & (1 << qubit) != 0)
                .map(|(_, a)| a.norm_sqr())
                .sum();
            assert!((prob_one(&s, qubit) - naive).abs() < 1e-12, "qubit {qubit}");
        }
    }

    #[test]
    fn bell_marginals_are_half() {
        let s = bell();
        assert!((prob_one(&s, 0) - 0.5).abs() < 1e-12);
        assert!((prob_one(&s, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bell_samples_are_correlated() {
        let s = bell();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let outcome = sample(&s, &mut rng);
            assert!(outcome == 0 || outcome == 3, "bell never measures 01/10");
        }
    }

    #[test]
    fn sample_counts_sum_to_shots() {
        let s = bell();
        let mut rng = StdRng::seed_from_u64(3);
        let counts = sample_counts(&s, 500, &mut rng);
        assert_eq!(counts.iter().map(|(_, c)| c).sum::<usize>(), 500);
        // Roughly balanced between |00> and |11>.
        assert_eq!(counts.len(), 2);
        assert!(counts[0].1 > 150 && counts[0].1 < 350);
    }

    #[test]
    fn most_likely_of_basis_state() {
        let mut s = StateVector::new_zero(3);
        let mut c = Circuit::new(3);
        c.x(1);
        s.run(&c);
        assert_eq!(s.probabilities(), [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn deterministic_state_always_samples_same() {
        let s = StateVector::new_zero(4);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            assert_eq!(sample(&s, &mut rng), 0);
        }
    }

    fn chunked_from(b: qgpu_circuit::generators::Benchmark, n: usize, bits: u32) -> ChunkedState {
        let mut s = StateVector::new_zero(n);
        s.run(&b.generate(n));
        ChunkedState::from_flat(&s, bits)
    }

    #[test]
    fn chunked_prob_matches_flat_at_every_partition() {
        use qgpu_circuit::generators::Benchmark;
        let mut flat = StateVector::new_zero(10);
        flat.run(&Benchmark::Rqc.generate(10));
        for bits in [2u32, 5, 8] {
            let cs = ChunkedState::from_flat(&flat, bits);
            for qubit in [0, 4, 9] {
                let p = prob_one_chunked(&cs, qubit);
                assert!(
                    (p - prob_one(&flat, qubit)).abs() < 1e-12,
                    "bits {bits}, qubit {qubit}"
                );
            }
        }
        // Partition invariance is bitwise, not just approximate.
        let a = prob_one_chunked(&ChunkedState::from_flat(&flat, 2), 6);
        let b = prob_one_chunked(&ChunkedState::from_flat(&flat, 7), 6);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn collapse_renormalizes_and_zeroes_the_other_half() {
        use qgpu_circuit::generators::Benchmark;
        for bits in [2u32, 4] {
            let mut cs = chunked_from(Benchmark::Qft, 8, bits);
            for qubit in [1usize, 6] {
                let p1 = prob_one_chunked(&cs, qubit);
                collapse_chunked(&mut cs, qubit, true, p1);
                let after = prob_one_chunked(&cs, qubit);
                assert!((after - 1.0).abs() < 1e-10, "bits {bits} qubit {qubit}");
                let norm: f64 = cs.to_flat().amps().iter().map(|a| a.norm_sqr()).sum();
                assert!((norm - 1.0).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn collapse_is_bitwise_partition_invariant() {
        use qgpu_circuit::generators::Benchmark;
        let mut lo = chunked_from(Benchmark::Iqp, 9, 3);
        let mut hi = chunked_from(Benchmark::Iqp, 9, 7);
        for &(qubit, outcome) in &[(2usize, true), (8, false)] {
            let p_lo = prob_one_chunked(&lo, qubit);
            let p_hi = prob_one_chunked(&hi, qubit);
            assert_eq!(p_lo.to_bits(), p_hi.to_bits());
            let p = if outcome { p_lo } else { 1.0 - p_lo };
            collapse_chunked(&mut lo, qubit, outcome, p);
            collapse_chunked(&mut hi, qubit, outcome, p);
        }
        let (a, b) = (lo.to_flat(), hi.to_flat());
        for (x, y) in a.amps().iter().zip(b.amps()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    #[test]
    fn reset_moves_population_to_zero_branch() {
        use qgpu_circuit::generators::Benchmark;
        // Cover both layouts: qubit inside the chunk and in the chunk index.
        for (bits, qubit) in [(3u32, 1usize), (3, 7)] {
            let mut cs = chunked_from(Benchmark::Rqc, 8, bits);
            let p1 = prob_one_chunked(&cs, qubit);
            reset_chunked(&mut cs, qubit, true, p1);
            assert!(prob_one_chunked(&cs, qubit).abs() < 1e-12);
            let norm: f64 = cs.to_flat().amps().iter().map(|a| a.norm_sqr()).sum();
            assert!((norm - 1.0).abs() < 1e-10, "bits {bits} qubit {qubit}");
        }
    }

    #[test]
    fn reset_on_outcome_zero_only_collapses() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut s = StateVector::new_zero(2);
        s.run(&c);
        let mut cs = ChunkedState::from_flat(&s, 1);
        let p1 = prob_one_chunked(&cs, 0);
        reset_chunked(&mut cs, 0, false, 1.0 - p1);
        let flat = cs.to_flat();
        assert!((flat.amp(0).norm_sqr() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn seeded_counts_sum_to_shots_and_replay() {
        use qgpu_circuit::generators::Benchmark;
        let cs = chunked_from(Benchmark::Qft, 8, 4);
        let counts = seeded_counts_chunked(&cs, 500, 42, 0);
        assert_eq!(counts.iter().map(|&(_, n)| n).sum::<u64>(), 500);
        assert_eq!(counts, seeded_counts_chunked(&cs, 500, 42, 0));
        assert_ne!(counts, seeded_counts_chunked(&cs, 500, 43, 0));
    }

    #[test]
    fn seeded_counts_are_partition_invariant() {
        use qgpu_circuit::generators::Benchmark;
        let lo = chunked_from(Benchmark::Iqp, 9, 2);
        let hi = chunked_from(Benchmark::Iqp, 9, 9);
        assert_eq!(
            seeded_counts_chunked(&lo, 256, 7, 3),
            seeded_counts_chunked(&hi, 256, 7, 3)
        );
    }

    #[test]
    fn seeded_counts_respect_support() {
        // Bell state: every shot must land on |00> or |11>.
        let s = bell();
        let cs = ChunkedState::from_flat(&s, 1);
        let counts = seeded_counts_chunked(&cs, 400, 9, 0);
        assert!(counts.iter().all(|&(idx, _)| idx == 0 || idx == 3));
        assert_eq!(counts.iter().map(|&(_, n)| n).sum::<u64>(), 400);
        // Roughly balanced.
        assert!(counts[0].1 > 120 && counts[0].1 < 280);
    }
}
