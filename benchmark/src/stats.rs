//! Order statistics, the state fingerprint and the failure tally.

use qgpu_math::Complex64;

/// Latency charged to a job that failed, was rejected, timed out or gave
/// a wrong result: an hour, so it misses every latency limit and drags
/// the percentiles with it instead of dropping out of the sample.
pub const FAILED_LATENCY_S: f64 = 3600.0;
/// Failure reasons a tally keeps for the printout.
const MAX_REASONS: usize = 8;

/// The value at quantile `q` (0..=1) of a sorted sample, with linear
/// interpolation between neighbours.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Nearest-rank percentile (`q` in percent): the smallest sample with at
/// least `q` % of the sample at or below it. With fewer than 100 samples
/// the 99th percentile is the largest one.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((q / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn sorted(samples: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = samples.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples.iter().copied()), 0.5)
}

/// `n=… min … q1 … median … q3 … max …` for the printout beside a median.
pub fn spread_line(samples: &[f64]) -> String {
    let s = sorted(samples.iter().copied());
    format!(
        "n={} min {:.6} q1 {:.6} median {:.6} q3 {:.6} max {:.6}",
        s.len(),
        s[0],
        quantile(&s, 0.25),
        quantile(&s, 0.5),
        quantile(&s, 0.75),
        s[s.len() - 1]
    )
}

/// FNV-1a over the amplitude bit patterns: equal exactly when two states
/// are bit-identical, and printable so two commits can be diffed.
pub fn fingerprint(amps: &[Complex64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for a in amps {
        for bits in [a.re.to_bits(), a.im.to_bits()] {
            for byte in bits.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Every job attempted, with the latency a user saw. A failed job keeps
/// its place in the sample at [`FAILED_LATENCY_S`].
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub latencies_s: Vec<f64>,
    /// Why the first few failures failed, for the printout.
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self, latency_s: f64) {
        self.attempted += 1;
        self.latencies_s.push(latency_s);
    }

    pub fn fail(&mut self, reason: String) {
        self.attempted += 1;
        self.failed += 1;
        self.latencies_s.push(FAILED_LATENCY_S);
        if self.reasons.len() < MAX_REASONS {
            self.reasons.push(reason);
        }
    }

    pub fn correct(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Adds another tally's counts and reasons; its latencies stay its own.
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = MAX_REASONS.saturating_sub(self.reasons.len());
        self.reasons
            .extend(other.reasons.iter().take(room).cloned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_percentiles_take_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 50.0), 2.0);
        assert_eq!(percentile(&s, 99.0), 4.0);
    }

    #[test]
    fn fingerprint_sees_one_flipped_bit() {
        let a = vec![Complex64::new(0.5, -0.25); 8];
        let mut b = a.clone();
        b[3].im = f64::from_bits(b[3].im.to_bits() ^ 1);
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
    }

    #[test]
    fn a_failed_job_stays_in_the_sample_beyond_every_limit() {
        let mut t = Tally::default();
        for _ in 0..98 {
            t.ok(0.01);
        }
        t.fail("rejected".into());
        t.fail("wrong state".into());
        assert_eq!((t.attempted, t.failed, t.correct()), (100, 2, 98));
        let s = sorted(t.latencies_s.iter().copied());
        assert_eq!(percentile(&s, 99.0), FAILED_LATENCY_S);
        assert_eq!(percentile(&s, 50.0), 0.01);
    }
}
