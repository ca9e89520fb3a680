//! Small statistics helpers used by the experiment harness.
//!
//! The repro binaries summarize per-circuit measurements (execution times,
//! compression ratios, residual distributions) with these types rather than
//! pulling in a full statistics crate.

use serde::{Deserialize, Serialize};

/// Online accumulator for mean / min / max / variance (Welford's method).
///
/// # Examples
///
/// ```
/// use qgpu_math::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 if fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Smallest sample (+inf if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (-inf if empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = OnlineStats::new();
        s.extend(iter);
        s
    }
}

/// Geometric mean of a sequence of positive values.
///
/// Speedup figures in the paper are averaged geometrically across circuits.
/// Returns 0 for an empty input.
///
/// # Examples
///
/// ```
/// use qgpu_math::stats::geometric_mean;
/// let g = geometric_mean([1.0, 4.0]);
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geometric_mean<I: IntoIterator<Item = f64>>(values: I) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0u64;
    for v in values {
        debug_assert!(v > 0.0, "geometric mean of non-positive value {v}");
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// A fixed-bin histogram over a closed range, used for residual
/// distribution analysis (Figure 10 of the paper).
///
/// # Examples
///
/// ```
/// use qgpu_math::stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5);
/// h.push(1.0);
/// h.push(9.5);
/// assert_eq!(h.counts()[0], 1);
/// assert_eq!(h.counts()[4], 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds a sample, counting out-of-range values in under/overflow.
    pub fn push(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let frac = (x - self.lo) / (self.hi - self.lo);
            let bin = ((frac * self.counts.len() as f64) as usize).min(self.counts.len() - 1);
            self.counts[bin] += 1;
        }
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Samples below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the range's upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples recorded, including out-of-range ones.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_constant_sequence() {
        let s: OnlineStats = std::iter::repeat_n(3.5, 10).collect();
        assert_eq!(s.mean(), 3.5);
        assert!(s.variance() < 1e-12);
        assert_eq!(s.count(), 10);
    }

    #[test]
    fn variance_matches_direct_formula() {
        let xs = [1.0, 2.0, 4.0, 8.0];
        let s: OnlineStats = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / 4.0;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / 4.0;
        assert!((s.variance() - var).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn geometric_mean_of_speedups() {
        // 2x and 8x average to 4x geometrically.
        assert!((geometric_mean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geometric_mean(std::iter::empty()), 0.0);
    }

    #[test]
    fn histogram_bins_and_flows() {
        let mut h = Histogram::new(-1.0, 1.0, 4);
        for x in [-2.0, -0.9, -0.1, 0.1, 0.9, 1.0, 5.0] {
            h.push(x);
        }
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.counts(), &[1, 1, 1, 1]);
        assert_eq!(h.total(), 7);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }
}
