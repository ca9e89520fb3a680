//! Cooperative cancellation for in-flight runs.
//!
//! A [`CancelToken`] is a cheap, cloneable handle shared between a
//! caller (or a serving layer's reaper) and the pipeline. The pipeline
//! polls it at every gate boundary, and inside a streaming gate between
//! its functional and timeline phases and between tiles of tasks — the
//! points where stopping is clean: no chunk is mid-transfer, the
//! functional state (about to be dropped) is consistent, and partial
//! stage timings can still be flushed. Tripping is
//! one-shot: the *first* reason wins, so a deadline that fires while a
//! user cancellation is in flight reports exactly one terminal cause.
//!
//! For deterministic tests the token can also be armed to trip at a
//! specific op index ([`CancelToken::cancelled_at`]) — the cooperative
//! analogue of `FaultConfig::fail_at_gate`.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

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
}

/// A shared, one-shot cancellation token polled at gate boundaries.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A live token that never trips on its own.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                reason: AtomicU8::new(LIVE),
                trip_at_op: AtomicU64::new(u64::MAX),
            }),
        }
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

    /// Marks the deadline as passed.
    pub fn expire(&self) -> bool {
        self.trip(DEADLINE)
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
    /// reaches its threshold.
    pub fn poll_abort(&self, op: usize) -> Option<SimError> {
        if op as u64 >= self.inner.trip_at_op.load(Ordering::Relaxed) {
            self.trip(CANCELLED);
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

    #[test]
    fn first_reason_wins() {
        let t = CancelToken::new();
        assert_eq!(t.reason(), None);
        assert!(t.expire());
        assert!(!t.cancel(), "second trip is a no-op");
        assert_eq!(t.reason(), Some(CancelReason::Deadline));
        assert!(matches!(
            t.poll_abort(5),
            Some(SimError::DeadlineExceeded { op: 5 })
        ));
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
