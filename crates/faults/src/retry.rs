//! Bounded retry with exponential backoff.

use serde::{Deserialize, Serialize};

use qgpu_math::rng::unit_draw;

use crate::SimError;

/// Salt for the jitter draw — its own decision stream, independent of
/// every fault-injection site ("jitter" in ASCII).
const SALT_RETRY_JITTER: u64 = 0x6a69_7474_6572_0000;

/// Retry policy for integrity failures: up to `max_retries` re-attempts,
/// waiting `BASE_BACKOFF_S · MULTIPLIER^attempt` (capped at
/// `MAX_BACKOFF_S`) before each.
///
/// Backoff is expressed in *modeled* seconds: the engine charges each
/// wait to the device timeline, so injected faults visibly cost modeled
/// time and show up in the trace — a retry storm is diagnosable from the
/// same Perfetto view as any other stall.
///
/// # Examples
///
/// ```
/// use qgpu_faults::RetryPolicy;
///
/// let p = RetryPolicy::default();
/// assert_eq!(p.backoff_s(1), 2.0 * p.backoff_s(0));
/// assert!(p.backoff_s(30) <= RetryPolicy::MAX_BACKOFF_S);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Re-attempts after the first failure before giving up.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    /// 4 retries: four doublings of the backoff outlast any plausible
    /// transient.
    fn default() -> Self {
        RetryPolicy { max_retries: 4 }
    }
}

impl RetryPolicy {
    // The backoff curve starts at 50 µs, doubles and caps at 10 ms —
    // sized to a PCIe re-transfer (~1 ms for a 2 MB chunk at 12 GB/s):
    // the first backoff is cheap against the transfer it guards.

    /// Wait before the first retry, in modeled seconds.
    pub const BASE_BACKOFF_S: f64 = 50e-6;
    /// Multiplier applied per further attempt.
    pub const MULTIPLIER: f64 = 2.0;
    /// Ceiling on any single wait, in modeled seconds.
    pub const MAX_BACKOFF_S: f64 = 10e-3;

    /// The wait before retry `attempt` (0-based), in modeled seconds.
    ///
    /// Safe at any attempt count: the geometric growth is evaluated in
    /// `f64` for the full exponent (no truncated-exponent wraparound),
    /// and an overflowed (non-finite) product clamps to
    /// [`RetryPolicy::MAX_BACKOFF_S`] instead of propagating `inf`/`NaN`
    /// into the timeline.
    pub fn backoff_s(&self, attempt: u32) -> f64 {
        let raw = Self::BASE_BACKOFF_S * Self::MULTIPLIER.powf(f64::from(attempt));
        if raw.is_finite() {
            raw.min(Self::MAX_BACKOFF_S)
        } else {
            Self::MAX_BACKOFF_S
        }
    }

    /// The wait before retry `attempt` with deterministic, seeded
    /// jitter: the nominal [`RetryPolicy::backoff_s`] scaled by a
    /// pure-splitmix64 draw of `(seed, attempt)` into `[0.75, 1.25)`.
    ///
    /// Ungittered exponential backoff resynchronizes: when one glitch
    /// trips N devices at once, every retry wave lands at the same
    /// modeled instant and hammers the shared link again. A ±25% spread
    /// keyed by the caller's seed breaks the phase lock while keeping
    /// replay bit-exact — the same `(seed, attempt)` always waits the
    /// same time. Callers decorrelate concurrent sites by folding a
    /// site index (device, transfer occurrence) into `seed`.
    ///
    /// ```
    /// use qgpu_faults::RetryPolicy;
    ///
    /// let p = RetryPolicy::default();
    /// let j = p.jittered_backoff_s(7, 0);
    /// assert_eq!(j, p.jittered_backoff_s(7, 0)); // replayable
    /// assert!(j >= 0.75 * p.backoff_s(0) && j < 1.25 * p.backoff_s(0));
    /// ```
    pub fn jittered_backoff_s(&self, seed: u64, attempt: u32) -> f64 {
        let u = unit_draw(seed, SALT_RETRY_JITTER, u64::from(attempt), 0);
        (self.backoff_s(attempt) * (0.75 + 0.5 * u)).min(Self::MAX_BACKOFF_S)
    }

    /// Drives `op` under this policy: the closure receives the 0-based
    /// attempt number; *recoverable* failures (see
    /// [`SimError::is_recoverable`]) are retried up to `max_retries`
    /// times. On exhaustion — or on the first non-recoverable failure —
    /// the **last underlying error** is returned verbatim, never a
    /// generic retry-failure wrapper, so callers keep the variant and
    /// its payload for diagnosis.
    pub fn run<T>(&self, mut op: impl FnMut(u32) -> Result<T, SimError>) -> Result<T, SimError> {
        let mut attempt = 0u32;
        loop {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_recoverable() && attempt < self.max_retries => attempt += 1,
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_then_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_s(0), RetryPolicy::BASE_BACKOFF_S);
        for attempt in 1..8 {
            assert_eq!(p.backoff_s(attempt), 2.0 * p.backoff_s(attempt - 1));
        }
        assert_eq!(p.backoff_s(7), 6.4e-3);
        // 50 µs · 2^8 = 12.8 ms: the first wait over the cap.
        assert_eq!(p.backoff_s(8), RetryPolicy::MAX_BACKOFF_S, "cap holds");
        assert_eq!(
            p.backoff_s(63),
            RetryPolicy::MAX_BACKOFF_S,
            "huge attempts stay finite"
        );
    }

    #[test]
    fn backoff_cannot_overflow_at_extreme_attempt_counts() {
        // Regression: the geometric term must clamp to the cap instead
        // of overflowing to inf (or wrapping through a truncated
        // exponent) at high attempt counts.
        // 2^1024 and beyond overflow to inf; the wait must not.
        let p = RetryPolicy {
            max_retries: u32::MAX,
        };
        for attempt in [64, 1_000, 1_024, 1_000_000, u32::MAX] {
            let b = p.backoff_s(attempt);
            assert!(b.is_finite(), "attempt {attempt} must stay finite");
            assert_eq!(
                b,
                RetryPolicy::MAX_BACKOFF_S,
                "attempt {attempt} clamps to the cap"
            );
            let j = p.jittered_backoff_s(3, attempt);
            assert!(j.is_finite() && j <= RetryPolicy::MAX_BACKOFF_S);
        }
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_decorrelated() {
        let p = RetryPolicy::default();
        for seed in [0u64, 7, 0xDEAD_BEEF] {
            for attempt in 0..8 {
                let a = p.jittered_backoff_s(seed, attempt);
                let b = p.jittered_backoff_s(seed, attempt);
                assert_eq!(a.to_bits(), b.to_bits(), "replay must be bit-exact");
                let nominal = p.backoff_s(attempt);
                assert!(
                    a >= 0.75 * nominal && a <= 1.25 * nominal,
                    "{a} vs {nominal}"
                );
                assert!(
                    a <= RetryPolicy::MAX_BACKOFF_S,
                    "jitter must respect the cap"
                );
            }
        }
        // Two sites (different seeds) must not wait in lockstep.
        let waves_a: Vec<u64> = (0..16)
            .map(|a| p.jittered_backoff_s(1, a).to_bits())
            .collect();
        let waves_b: Vec<u64> = (0..16)
            .map(|a| p.jittered_backoff_s(2, a).to_bits())
            .collect();
        assert_ne!(waves_a, waves_b, "seeds must decorrelate retry waves");
        // And successive attempts of one site are not a constant scale
        // of the nominal curve (the jitter actually varies).
        let f0 = p.jittered_backoff_s(5, 0) / p.backoff_s(0);
        assert!(
            (1..8).any(|a| (p.jittered_backoff_s(5, a) / p.backoff_s(a) - f0).abs() > 1e-3),
            "jitter factor must vary across attempts"
        );
    }

    #[test]
    fn exhaustion_returns_the_last_underlying_error() {
        // Regression: exhausting the retry budget must surface the final
        // attempt's actual error, not a generic failure.
        let p = RetryPolicy { max_retries: 2 };
        let result: Result<(), _> = p.run(|attempt| {
            Err(match attempt {
                0 => SimError::WorkerLost { dispatch: "first" },
                1 => SimError::WorkerLost { dispatch: "second" },
                _ => SimError::ChunkCorrupt {
                    chunk: 42,
                    attempts: attempt + 1,
                },
            })
        });
        match result {
            Err(SimError::ChunkCorrupt {
                chunk: 42,
                attempts: 3,
            }) => {}
            other => panic!("expected the final ChunkCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn run_retries_recoverable_then_succeeds() {
        let p = RetryPolicy::default();
        let got = p
            .run(|attempt| {
                if attempt < 2 {
                    Err(SimError::WorkerLost { dispatch: "w" })
                } else {
                    Ok(attempt)
                }
            })
            .unwrap();
        assert_eq!(got, 2);
    }

    #[test]
    fn run_does_not_retry_unrecoverable_errors() {
        let p = RetryPolicy::default();
        let mut calls = 0;
        let result: Result<(), _> = p.run(|_| {
            calls += 1;
            Err(SimError::Fatal {
                gate: 7,
                reason: "injected".into(),
            })
        });
        assert_eq!(calls, 1, "a fatal error must not consume retries");
        assert!(matches!(result, Err(SimError::Fatal { gate: 7, .. })));
    }
}
