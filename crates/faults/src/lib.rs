//! Fault model for the Q-GPU pipeline.
//!
//! A 34-qubit run streams millions of chunks through transfer, prune and
//! GFC compress/decompress stages for hours; assuming a perfect machine
//! for that long is wishful thinking. This crate supplies the pieces the
//! rest of the workspace uses to *survive* an imperfect one:
//!
//! * [`SimError`] — the workspace-wide typed error hierarchy. Every path
//!   a fault can reach propagates one of these instead of panicking.
//! * [`crc32()`] — the CRC32 (IEEE 802.3) checksum that chunk transfers
//!   and checkpoint segments carry for integrity verification.
//! * [`FaultInjector`] — a deterministic, seeded injector with per-stage
//!   probabilities (transfer corruption, codec failure, mask corruption,
//!   worker death, link degradation, kernel bit flips) and deterministic
//!   hooks (a fatal op, a device loss, a pinned straggler). Decisions are pure functions of `(seed, site,
//!   index)`, so a run with a given seed injects *exactly* the same
//!   faults no matter the thread count or pipeline interleaving — which
//!   is what makes fault-injection tests reproducible.
//! * [`RetryPolicy`] — bounded retry with a fixed exponential backoff
//!   (plus deterministic seeded jitter), expressed in modeled seconds so
//!   the device timeline can charge retries visibly.
//! * [`invariant`] — ABFT invariant taxonomy, tolerance policy, and the
//!   [`IntegritySummary`] tally behind the silent-data-corruption
//!   defense: CRCs only guard *transfers*, so kernel-output corruption
//!   needs algebraic checks (norm/magnitude/zero-block preservation).
//! * [`CancelToken`] — a shared, one-shot cancellation token the
//!   pipeline polls at gate boundaries, so callers can stop a run
//!   cleanly mid-circuit; a token with a deadline trips itself at the
//!   first poll after it.
//!
//! # Examples
//!
//! ```
//! use qgpu_faults::{FaultConfig, FaultInjector, FaultSite, RetryPolicy};
//!
//! let inj = FaultInjector::new(FaultConfig {
//!     seed: 7,
//!     p_transfer_corrupt: 0.5,
//!     ..FaultConfig::default()
//! });
//! // Deterministic: the same (site, index) always decides the same way.
//! let a = inj.fires(FaultSite::TransferCorrupt, 42);
//! let b = inj.fires(FaultSite::TransferCorrupt, 42);
//! assert_eq!(a, b);
//!
//! let policy = RetryPolicy::default();
//! assert!(policy.backoff_s(2) > policy.backoff_s(1));
//! ```

pub mod cancel;
pub mod crc32;
pub mod error;
pub mod inject;
pub mod invariant;
pub mod retry;

pub use cancel::{CancelReason, CancelToken};
pub use crc32::{crc32, fast_checksum, Crc32};
pub use error::SimError;
pub use inject::{FaultConfig, FaultInjector, FaultSite, LINK_DEGRADE_FACTOR};
pub use invariant::{IntegritySummary, InvariantKind, Tolerance};
pub use retry::RetryPolicy;
