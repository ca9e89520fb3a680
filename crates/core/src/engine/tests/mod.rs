//! Engine test suite, split by concern:
//!
//! * [`core`] — cross-version invariants: identical states, fusion and
//!   thread-count bit-exactness, obs agreement, recipe ordering.
//! * [`baseline`] — the paper's §III-B baseline (static allocation,
//!   reactive exchange).
//! * [`streaming`] — the streaming versions' modeled behavior (overlap,
//!   pruning, compression, batching, multi-GPU scaling).
//! * [`resilience`] — fault injection, integrity checking, checkpoints.
//! * [`orchestration`] — multi-device loss, stealing, budgets.
//! * [`pipeline`] — the pipeline spec, explicit `--opts` subsets, and
//!   step attribution by bucket name.
//! * [`cancel`] — cooperative cancellation at gate boundaries.

mod baseline;
mod cancel;
mod core;
mod orchestration;
mod pipeline;
mod resilience;
mod streaming;

/// Bitwise state equality: the engine's strongest correctness contract.
pub(crate) fn assert_bitwise_eq(a: &qgpu_statevec::StateVector, b: &qgpu_statevec::StateVector) {
    assert_eq!(a.len(), b.len());
    for i in 0..a.len() {
        let (x, y) = (a.amp(i), b.amp(i));
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "amplitude {i} differs"
        );
    }
}
