//! Cooperative cancellation for in-flight runs.
//!
//! A [`CancelToken`] is a cheap, cloneable handle shared between a
//! caller (or a serving layer) and the pipeline. The pipeline
//! polls it at every gate boundary, and inside a streaming gate between
//! its functional and timeline phases and between tiles of tasks — the
//! points where stopping is clean: no chunk is mid-transfer, the
//! functional state (about to be dropped) is consistent, and partial
//! stage timings can still be flushed. Tripping is
//! one-shot: the *first* reason wins, so a deadline that fires while a
//! user cancellation is in flight reports exactly one terminal cause.
//!
//! A token may carry a wall-clock deadline
//! ([`CancelToken::with_deadline`]): the poll that finds it passed trips
//! the token itself, so no other thread has to watch the clock. A token
//! without one never reads the clock.
//!
//! For deterministic tests the token can also be armed to trip at a
//! specific op index ([`CancelToken::cancelled_at`]) — the cooperative
//! analogue of `FaultConfig::fail_at_gate`.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::SimError;

const LIVE: u8 = 0;
const CANCELLED: u8 = 1;
const DEADLINE: u8 = 2;
const EVICTED: u8 = 3;

/// Why a token tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// The caller asked for the run to stop.
    Cancelled,
    /// The run's wall-clock deadline passed.
    Deadline,
    /// The run's device was lost under it; the job should be re-run
    /// elsewhere (this reason maps to a *recoverable* error).
    Evicted,
}

struct Inner {
    reason: AtomicU8,
    /// Gate-boundary index at which the token trips itself
    /// (`u64::MAX` = never); used for deterministic mid-run
    /// cancellation in tests.
    trip_at_op: AtomicU64,
    /// Wall-clock instant at which a poll trips the token with
    /// `Deadline` (`None` = never).
    deadline: Option<Instant>,
}

/// A shared, one-shot cancellation token polled at gate boundaries.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A live token that never trips on its own.
    pub fn new() -> Self {
        CancelToken::with_deadline(None)
    }

    /// A live token that trips itself with `Deadline` at the first poll
    /// at or after `deadline` (`None`: never).
    pub fn with_deadline(deadline: Option<Instant>) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                reason: AtomicU8::new(LIVE),
                trip_at_op: AtomicU64::new(u64::MAX),
                deadline,
            }),
        }
    }

    /// A live token with this one's deadline, for the next attempt of
    /// the same run.
    pub fn renewed(&self) -> Self {
        CancelToken::with_deadline(self.inner.deadline)
    }

    /// Whether the token's deadline has passed: the one place a token
    /// reads the clock (`false`, without reading it, when it has none).
    pub fn deadline_passed(&self) -> bool {
        self.inner.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// A token that cancels itself at gate boundary `op` — deterministic
    /// mid-run cancellation for tests and chaos harnesses.
    pub fn cancelled_at(op: u64) -> Self {
        let t = CancelToken::new();
        t.inner.trip_at_op.store(op, Ordering::Relaxed);
        t
    }

    fn trip(&self, reason: u8) -> bool {
        self.inner
            .reason
            .compare_exchange(LIVE, reason, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Requests cancellation. Returns `true` if this call tripped the
    /// token (false if it was already tripped for any reason).
    pub fn cancel(&self) -> bool {
        self.trip(CANCELLED)
    }

    /// Marks the run as evicted (device lost under it).
    pub fn evict(&self) -> bool {
        self.trip(EVICTED)
    }

    /// The trip reason, if any.
    pub fn reason(&self) -> Option<CancelReason> {
        match self.inner.reason.load(Ordering::Acquire) {
            CANCELLED => Some(CancelReason::Cancelled),
            DEADLINE => Some(CancelReason::Deadline),
            EVICTED => Some(CancelReason::Evicted),
            _ => None,
        }
    }

    /// The pipeline's poll inside op `op` (at its boundary, or between
    /// a streaming gate's phases and tiles): returns the error to abort
    /// with, or `None` to keep running. A token armed via
    /// [`CancelToken::cancelled_at`] trips itself here once `op`
    /// reaches its threshold, and one with a deadline once the deadline
    /// has passed.
    pub fn poll_abort(&self, op: usize) -> Option<SimError> {
        if op as u64 >= self.inner.trip_at_op.load(Ordering::Relaxed) {
            self.trip(CANCELLED);
        }
        if self.deadline_passed() {
            self.trip(DEADLINE);
        }
        match self.reason()? {
            CancelReason::Cancelled => Some(SimError::JobAborted { op }),
            CancelReason::Deadline => Some(SimError::DeadlineExceeded { op }),
            CancelReason::Evicted => Some(SimError::WorkerLost {
                dispatch: "device-evicted",
            }),
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("reason", &self.reason())
            .finish()
    }
}

/// Tokens compare by identity: two handles are equal iff they control
/// the same run. (Keeps `SimConfig`'s derived `PartialEq` meaningful.)
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A passed deadline aborts the first poll, and a later cancel
    /// cannot rewrite the reason.
    #[test]
    fn first_reason_wins() {
        let t = CancelToken::with_deadline(Some(Instant::now()));
        assert_eq!(t.reason(), None, "only a poll reads the clock");
        assert!(matches!(
            t.poll_abort(0),
            Some(SimError::DeadlineExceeded { op: 0 })
        ));
        assert!(!t.cancel(), "second trip is a no-op");
        assert_eq!(t.reason(), Some(CancelReason::Deadline));
    }

    #[test]
    fn a_cancel_before_the_deadline_poll_wins() {
        let t = CancelToken::with_deadline(Some(Instant::now()));
        assert!(t.cancel());
        assert!(matches!(
            t.poll_abort(5),
            Some(SimError::JobAborted { op: 5 })
        ));
        assert_eq!(t.reason(), Some(CancelReason::Cancelled));
    }

    #[test]
    fn future_deadline_keeps_running() {
        let later = Instant::now() + std::time::Duration::from_secs(3600);
        let t = CancelToken::with_deadline(Some(later));
        assert!(!t.deadline_passed());
        assert!(t.poll_abort(7).is_none());
        assert_eq!(t.reason(), None);
    }

    /// A renewed token is live again but keeps the deadline.
    #[test]
    fn renewed_token_keeps_the_deadline_and_drops_the_trip() {
        let t = CancelToken::with_deadline(Some(Instant::now()));
        t.evict();
        let u = t.renewed();
        assert_ne!(t, u);
        assert_eq!(u.reason(), None);
        assert!(u.deadline_passed());
        assert!(!CancelToken::new().renewed().deadline_passed());
    }

    #[test]
    fn clones_share_the_trip() {
        let t = CancelToken::new();
        let u = t.clone();
        assert_eq!(t, u);
        assert_ne!(t, CancelToken::new());
        u.cancel();
        assert!(matches!(
            t.poll_abort(0),
            Some(SimError::JobAborted { op: 0 })
        ));
    }

    #[test]
    fn armed_token_trips_at_its_op() {
        let t = CancelToken::cancelled_at(3);
        assert!(t.poll_abort(0).is_none());
        assert!(t.poll_abort(2).is_none());
        assert!(matches!(
            t.poll_abort(3),
            Some(SimError::JobAborted { op: 3 })
        ));
        assert_eq!(t.reason(), Some(CancelReason::Cancelled));
    }

    #[test]
    fn eviction_maps_to_a_recoverable_error() {
        let t = CancelToken::new();
        t.evict();
        let err = t.poll_abort(1).unwrap();
        assert!(err.is_recoverable());
    }
}
