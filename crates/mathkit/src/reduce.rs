//! Fixed-order reductions for bit-exact determinism.
//!
//! Floating-point addition is not associative, so a sum's bit pattern
//! depends on the order partial results are combined. Completion-order
//! accumulation (whichever thread finishes first adds first) makes norms
//! and measurement probabilities vary run-to-run and with the thread
//! count. This module pins the order instead:
//!
//! 1. the input is cut into fixed-size blocks of [`REDUCE_BLOCK`]
//!    elements — block boundaries depend only on the input length, never
//!    on how many threads computed them;
//! 2. each block is summed left-to-right;
//! 3. the per-block partials are combined with a deterministic pairwise
//!    tree ([`pairwise_sum`]), splitting at the midpoint at every level.
//!
//! Any number of threads may compute step 2 in parallel (blocks are
//! independent), and step 3 is a cheap serial pass — so the result is
//! bitwise identical at every thread count, and as a bonus the pairwise
//! tree has O(√n·ε)-style error growth instead of the serial O(n·ε).

use crate::complex::Complex64;

/// Number of elements per reduction block. A block of f64 norms is 32 KiB
/// of amplitude reads — L1/L2 resident — and the partial-sum vector for a
/// 2^30-amplitude state stays under 2 MiB.
pub const REDUCE_BLOCK: usize = 4096;

/// Sums `values` with a deterministic pairwise tree: split at the
/// midpoint, sum each half recursively, add the two halves.
///
/// The association depends only on `values.len()`, so any two callers
/// that produce the same slice get the bitwise-same sum.
///
/// # Examples
///
/// ```
/// use qgpu_math::reduce::pairwise_sum;
///
/// let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
/// assert_eq!(pairwise_sum(&xs), 4950.0);
/// assert_eq!(pairwise_sum(&[]), 0.0);
/// ```
pub fn pairwise_sum(values: &[f64]) -> f64 {
    // Small base case: a short left-to-right run, still length-determined.
    if values.len() <= 4 {
        let mut acc = 0.0;
        for &v in values {
            acc += v;
        }
        return acc;
    }
    let mid = values.len() / 2;
    pairwise_sum(&values[..mid]) + pairwise_sum(&values[mid..])
}

/// Number of [`REDUCE_BLOCK`]-sized blocks covering `len` elements.
pub fn num_blocks(len: usize) -> usize {
    len.div_ceil(REDUCE_BLOCK)
}

/// The element range of block `block` for an input of `len` elements.
pub fn block_range(block: usize, len: usize) -> core::ops::Range<usize> {
    let start = block * REDUCE_BLOCK;
    start..len.min(start + REDUCE_BLOCK)
}

/// Neumaier-compensated sum of a block of values, left-to-right.
///
/// The improved Kahan scheme: the running compensation absorbs the
/// rounding error of every addition regardless of which operand is
/// larger, so the block partial is accurate to ~1 ulp of the true sum
/// even for ill-conditioned inputs. Order is strictly left-to-right, so
/// the result depends only on the slice contents.
fn neumaier_sum(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0f64;
    let mut comp = 0.0f64;
    for v in values {
        let t = sum + v;
        comp += if sum.abs() >= v.abs() {
            (sum - t) + v
        } else {
            (v - t) + sum
        };
        sum = t;
    }
    sum + comp
}

/// Squared 2-norm of `amps` (`Σ |aᵢ|²`) with compensated blockwise
/// summation: each [`REDUCE_BLOCK`] block is Neumaier-summed, and the
/// block partials combine through the same deterministic pairwise tree
/// as every other reduction in the engine.
///
/// Deterministic in the strong sense the integrity checks need: the
/// result depends only on the amplitudes, never on thread count or
/// evaluation order, and the compensation keeps the error near 1 ulp so
/// invariant tolerances can be tight without false positives.
///
/// # Examples
///
/// ```
/// use qgpu_math::complex::Complex64;
/// use qgpu_math::reduce::norm_sqr_compensated;
///
/// let amps = vec![Complex64::new(0.5, 0.0); 4];
/// assert_eq!(norm_sqr_compensated(&amps), 1.0);
/// assert_eq!(norm_sqr_compensated(&[]), 0.0);
/// ```
pub fn norm_sqr_compensated(amps: &[Complex64]) -> f64 {
    let partials: Vec<f64> = (0..num_blocks(amps.len()))
        .map(|b| {
            neumaier_sum(
                amps[block_range(b, amps.len())]
                    .iter()
                    .map(|a| a.norm_sqr()),
            )
        })
        .collect();
    pairwise_sum(&partials)
}

/// One-pass `(squared 2-norm, max per-amplitude |aᵢ|²)` of `amps`.
///
/// The norm uses the same compensated blockwise scheme as
/// [`norm_sqr_compensated`] (bitwise-identical result); the peak rides
/// along for free and backs the magnitude-preservation check on
/// diagonal kernels.
pub fn norm_and_peak(amps: &[Complex64]) -> (f64, f64) {
    let mut peak = 0.0f64;
    let partials: Vec<f64> = (0..num_blocks(amps.len()))
        .map(|b| {
            neumaier_sum(amps[block_range(b, amps.len())].iter().map(|a| {
                let n = a.norm_sqr();
                if n > peak {
                    peak = n;
                }
                n
            }))
        })
        .collect();
    (pairwise_sum(&partials), peak)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_singleton() {
        assert_eq!(pairwise_sum(&[]), 0.0);
        assert_eq!(pairwise_sum(&[2.5]), 2.5);
    }

    #[test]
    fn matches_exact_sum_on_integers() {
        // Integer-valued f64s sum exactly in any order.
        for n in [1usize, 2, 3, 5, 17, 100, 4097] {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert_eq!(pairwise_sum(&xs), (n * (n - 1) / 2) as f64, "n={n}");
        }
    }

    #[test]
    fn tree_shape_is_length_determined() {
        // Two slices with equal contents must reduce to the same bits.
        let xs: Vec<f64> = (0..1000).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let ys = xs.clone();
        assert_eq!(pairwise_sum(&xs).to_bits(), pairwise_sum(&ys).to_bits());
    }

    #[test]
    fn pairwise_beats_serial_on_ill_conditioned_sum() {
        // 1 followed by many tiny values: serial accumulation loses them
        // one by one; pairwise keeps them grouped.
        let mut xs = vec![1.0f64];
        xs.extend(std::iter::repeat_n(1e-16, 1 << 16));
        let serial: f64 = xs.iter().sum();
        let pairwise = pairwise_sum(&xs);
        let exact = 1.0 + 1e-16 * (1 << 16) as f64;
        assert!((pairwise - exact).abs() <= (serial - exact).abs());
        assert!((pairwise - exact).abs() < 1e-12);
    }

    #[test]
    fn compensated_norm_is_exact_on_representable_inputs() {
        // 4 × 0.25 sums exactly; so does a big block of equal powers of 2.
        let amps = vec![Complex64::new(0.5, 0.0); 4];
        assert_eq!(norm_sqr_compensated(&amps), 1.0);
        let n = 1usize << 14;
        let a = (1.0 / n as f64).sqrt();
        let amps: Vec<Complex64> = (0..n).map(|_| Complex64::new(a, 0.0)).collect();
        assert!((norm_sqr_compensated(&amps) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn compensated_norm_beats_serial_on_ill_conditioned_input() {
        // One dominant amplitude plus a sea of tiny ones: the naive
        // serial sum drops the tail; the compensated sum keeps it.
        let mut amps = vec![Complex64::new(1.0, 0.0)];
        amps.extend(std::iter::repeat_n(Complex64::new(1e-9, 0.0), 1 << 15));
        let exact = 1.0 + 1e-18 * (1 << 15) as f64;
        let serial: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        let comp = norm_sqr_compensated(&amps);
        assert!((comp - exact).abs() <= (serial - exact).abs());
        // Within a couple of ulps of 1.0 — the best any representable
        // result can do.
        assert!((comp - exact).abs() < 4.0 * f64::EPSILON);
    }

    #[test]
    fn compensated_norm_is_bitwise_reproducible() {
        let amps: Vec<Complex64> = (0..10_000)
            .map(|i| Complex64::new(1.0 / (i as f64 + 1.0), -(i as f64).sin()))
            .collect();
        let again = amps.clone();
        assert_eq!(
            norm_sqr_compensated(&amps).to_bits(),
            norm_sqr_compensated(&again).to_bits()
        );
    }

    #[test]
    fn norm_and_peak_matches_norm_and_finds_the_max() {
        let amps: Vec<Complex64> = (0..5000)
            .map(|i| Complex64::new((i as f64).cos() / 100.0, (i as f64).sin() / 90.0))
            .collect();
        let (norm, peak) = norm_and_peak(&amps);
        assert_eq!(norm.to_bits(), norm_sqr_compensated(&amps).to_bits());
        let expect_peak = amps.iter().map(|a| a.norm_sqr()).fold(0.0f64, f64::max);
        assert_eq!(peak, expect_peak);
        assert_eq!(norm_and_peak(&[]), (0.0, 0.0));
    }

    #[test]
    fn block_ranges_tile_the_input() {
        for len in [
            0usize,
            1,
            REDUCE_BLOCK - 1,
            REDUCE_BLOCK,
            REDUCE_BLOCK + 1,
            3 * REDUCE_BLOCK + 7,
        ] {
            let mut covered = 0;
            for b in 0..num_blocks(len) {
                let r = block_range(b, len);
                assert_eq!(r.start, covered);
                assert!(!r.is_empty());
                covered = r.end;
            }
            assert_eq!(covered, len);
        }
    }
}
