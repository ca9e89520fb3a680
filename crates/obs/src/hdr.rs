//! HDR-style log-linear histogram for latency percentiles.
//!
//! One bucket per power of two is fine for order-of-magnitude shapes and
//! useless for p99 of a latency distribution (a 2x-wide bucket means up
//! to 100% rank error at the tail). This histogram subdivides every
//! octave into 2^[`PRECISION`] linear sub-buckets, which bounds the *relative* error
//! of any reported quantile by `1/2^PRECISION` regardless of the value's
//! magnitude — the same scheme as Gil Tene's HdrHistogram, sized here
//! for `u64` nanosecond samples.
//!
//! Histograms are plain count arrays, so [`HdrHistogram::merge`] is an
//! element-wise add: associative and commutative, which is what lets
//! per-thread and per-device recorders combine into one fleet view
//! without coordination (property-tested in `tests/hdr_props.rs`).

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^PRECISION` linear buckets, bounding relative quantile error at
/// `1 / 2^PRECISION` (~3.1%).
pub const PRECISION: u32 = 5;

const SUB: usize = 1 << PRECISION; // sub-buckets per octave
const OCTAVES: usize = 64 - PRECISION as usize; // 6..=63 exponent groups + low range
const NUM_BUCKETS: usize = (OCTAVES + 1) * SUB; // 1920 for PRECISION = 5

/// A mergeable log-linear histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HdrHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HdrHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl HdrHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        HdrHistogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for a value. Values below `2^PRECISION` get exact
    /// single-value buckets; above that, `SUB` linear buckets per octave.
    fn index(value: u64) -> usize {
        if value < SUB as u64 {
            return value as usize;
        }
        let e = 63 - value.leading_zeros();
        let sub = ((value >> (e - PRECISION)) as usize) - SUB;
        (e - PRECISION + 1) as usize * SUB + sub
    }

    /// Lowest value mapping to bucket `idx`.
    fn bucket_lo(idx: usize) -> u64 {
        if idx < SUB {
            return idx as u64;
        }
        let group = idx / SUB;
        let sub = (idx % SUB) as u64;
        let e = group as u32 + PRECISION - 1;
        (1u64 << e) + (sub << (e - PRECISION))
    }

    /// Width of bucket `idx` (1 for the exact low range).
    fn bucket_width(idx: usize) -> u64 {
        if idx < SUB {
            1
        } else {
            1u64 << (idx / SUB - 1)
        }
    }

    /// Representative value reported for bucket `idx`: the exact value
    /// in the low range, the bucket midpoint above it.
    fn representative(idx: usize) -> u64 {
        Self::bucket_lo(idx) + Self::bucket_width(idx) / 2
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[Self::index(value)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Element-wise merge of another histogram into this one.
    /// Associative and commutative, so any merge tree over per-thread /
    /// per-device shards yields identical totals.
    pub fn merge(&mut self, other: &HdrHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` (0..=100): the representative of the bucket
    /// holding the `ceil(q/100 * count)`-th smallest sample. Relative
    /// error is bounded by the bucket width, i.e. `value / 2^PRECISION`
    /// (exact below `2^PRECISION`).
    pub fn percentile(&self, q: f64) -> u64 {
        self.percentiles([q])[0]
    }

    /// [`HdrHistogram::percentile`] at several ascending quantiles in one
    /// walk over the occupied buckets (a snapshot asks for four per
    /// series, and a walk from bucket 0 each would cost more than a
    /// small run's whole telemetry budget).
    fn percentiles<const N: usize>(&self, qs: [f64; N]) -> [u64; N] {
        let mut out = [0u64; N];
        if self.count == 0 {
            return out;
        }
        let ranks = qs.map(|q| {
            let rank = ((q / 100.0) * self.count as f64).ceil().max(1.0) as u64;
            rank.min(self.count)
        });
        let (mut cum, mut next) = (0u64, 0);
        for idx in Self::index(self.min)..=Self::index(self.max) {
            cum += self.counts[idx];
            while next < N && cum >= ranks[next] {
                // Clamp to the observed range so a single-sample bucket
                // never reports a midpoint outside [min, max].
                out[next] = Self::representative(idx).clamp(self.min, self.max);
                next += 1;
            }
        }
        out
    }

    /// Fixed percentile summary for snapshots and JSON.
    pub fn snapshot(&self) -> HdrSnapshot {
        let [p50, p90, p99, p999] = self.percentiles([50.0, 90.0, 99.0, 99.9]);
        HdrSnapshot {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            p50,
            p90,
            p99,
            p999,
        }
    }
}

/// Frozen summary of an [`HdrHistogram`]: counts plus the standard
/// latency quantiles, cheap to clone into run results and JSON.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HdrSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_range_is_exact() {
        let mut h = HdrHistogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        // Exact single-value buckets: every quantile lands on a real value.
        assert_eq!(h.percentile(50.0), 15);
        assert_eq!(h.percentile(100.0), 31);
    }

    #[test]
    fn index_and_bounds_are_consistent() {
        for v in [0, 1, 31, 32, 33, 63, 64, 100, 1 << 20, u64::MAX] {
            let idx = HdrHistogram::index(v);
            assert!(idx < NUM_BUCKETS, "index {idx} out of range for {v}");
            let lo = HdrHistogram::bucket_lo(idx);
            let w = HdrHistogram::bucket_width(idx);
            assert!(lo <= v, "lo {lo} > v {v}");
            assert!(v - lo < w, "v {v} beyond bucket [{lo}, {lo}+{w})");
        }
        // Buckets tile the space: each bucket's end is the next one's start.
        for idx in 0..NUM_BUCKETS - 1 {
            assert_eq!(
                HdrHistogram::bucket_lo(idx) + HdrHistogram::bucket_width(idx),
                HdrHistogram::bucket_lo(idx + 1)
            );
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = HdrHistogram::new();
        for v in [1_000u64, 10_000, 100_000, 1_000_000, 55_555_555] {
            h = HdrHistogram::new();
            h.record(v);
            let got = h.percentile(50.0);
            let err = got.abs_diff(v);
            assert!(
                err <= v / (1 << PRECISION) + 1,
                "value {v}: got {got}, err {err}"
            );
        }
        let _ = h;
    }

    #[test]
    fn merge_matches_combined_recording() {
        let mut a = HdrHistogram::new();
        let mut b = HdrHistogram::new();
        let mut both = HdrHistogram::new();
        for i in 0..1000u64 {
            let v = i * i % 7919;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = HdrHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn snapshot_quantiles_are_ordered() {
        let mut h = HdrHistogram::new();
        for i in 1..=10_000u64 {
            h.record(i * 37);
        }
        let s = h.snapshot();
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.p999);
        assert!(s.p999 <= s.max);
        assert!(s.min <= s.p50);
    }
}
