//! The workspace-wide typed error hierarchy.

use std::fmt;
use std::io;

/// Everything that can go wrong in a simulation run.
///
/// The pipeline's contract is that any fault the injector can produce —
/// and the real-world failures it stands in for — surfaces as one of
/// these variants instead of a panic, so callers decide between retry,
/// degradation, checkpoint-resume, or reporting the failure upward.
#[derive(Debug)]
pub enum SimError {
    /// A chunk arrived with a CRC mismatch and exhausted its retries.
    ChunkCorrupt {
        /// The chunk index within the state partition.
        chunk: usize,
        /// Retry attempts performed before giving up.
        attempts: u32,
    },
    /// The GFC codec failed on a chunk and no fallback was possible.
    Codec {
        /// The chunk index, when known (`usize::MAX` for non-chunk data).
        chunk: usize,
        /// The codec's diagnosis.
        reason: String,
    },
    /// A piece of one of the executor's fan-outs panicked, on a pool
    /// worker or on the calling thread. (An *injected* worker death never
    /// surfaces: the fan-out re-runs the untouched piece.)
    WorkerLost {
        /// The fan-out the worker belonged to: `"try_apply_group_runs"`
        /// (a chunked update), `"apply_flat_run"` or `"reduce"`.
        dispatch: &'static str,
    },
    /// A pipeline stage exceeded its modeled deadline.
    StageTimeout {
        /// Stage label (e.g. `"h2d"`, `"compress"`).
        stage: &'static str,
        /// The index of the chunk being processed.
        chunk: usize,
    },
    /// The injector (or environment) declared a fatal, unrecoverable
    /// fault; the run should be resumed from its last checkpoint.
    Fatal {
        /// The program-op index the fault struck at.
        gate: usize,
        /// Description of the fault.
        reason: String,
    },
    /// A device was lost and no survivors remain to re-shard onto; the
    /// run cannot continue and should be resumed on a fresh fleet.
    AllDevicesLost {
        /// The last device to drop out.
        device: usize,
    },
    /// Checkpoint save/load failed.
    Checkpoint(String),
    /// Underlying file I/O failed.
    Io(io::Error),
    /// The run was cooperatively cancelled at a gate boundary (the
    /// caller tripped a [`crate::CancelToken`]).
    JobAborted {
        /// The program-op index the run stopped at.
        op: usize,
    },
    /// The run's wall-clock deadline passed; the token's own poll
    /// tripped it and the pipeline stopped at that poll point.
    DeadlineExceeded {
        /// The program-op index the run stopped at.
        op: usize,
    },
    /// An ABFT invariant check caught silent data corruption in kernel
    /// output and bounded re-execution could not restore it — the
    /// hardware is lying persistently. Recoverable at the job level: a
    /// re-run placed on a different device can succeed.
    InvariantViolation {
        /// The program-op index whose kernel output violated the invariant.
        gate: usize,
        /// The chunk index the violation was localized to.
        chunk: usize,
    },
}

impl SimError {
    /// Whether a retry with the same physics seed (and a fresh machine)
    /// can plausibly succeed: transient machine faults are recoverable,
    /// caller decisions (cancellation, deadline) and data-level failures
    /// are not. Job-level re-execution policies key off this.
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            SimError::ChunkCorrupt { .. }
                | SimError::WorkerLost { .. }
                | SimError::StageTimeout { .. }
                | SimError::AllDevicesLost { .. }
                | SimError::InvariantViolation { .. }
        )
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ChunkCorrupt { chunk, attempts } => write!(
                f,
                "chunk {chunk} failed integrity verification after {attempts} attempts"
            ),
            SimError::Codec { chunk, reason } if *chunk == usize::MAX => {
                write!(f, "codec failure: {reason}")
            }
            SimError::Codec { chunk, reason } => {
                write!(f, "codec failure on chunk {chunk}: {reason}")
            }
            SimError::WorkerLost { dispatch } => {
                write!(f, "worker thread lost during {dispatch}")
            }
            SimError::StageTimeout { stage, chunk } => {
                write!(f, "stage '{stage}' timed out on chunk {chunk}")
            }
            SimError::Fatal { gate, reason } => {
                write!(f, "fatal fault at gate {gate}: {reason}")
            }
            SimError::AllDevicesLost { device } => {
                write!(f, "device {device} lost with no survivors to re-shard onto")
            }
            SimError::Checkpoint(m) => write!(f, "checkpoint error: {m}"),
            SimError::Io(e) => write!(f, "i/o error: {e}"),
            SimError::JobAborted { op } => {
                write!(f, "job cancelled at gate boundary {op}")
            }
            SimError::DeadlineExceeded { op } => {
                write!(f, "deadline exceeded; run stopped at gate boundary {op}")
            }
            SimError::InvariantViolation { gate, chunk } => write!(
                f,
                "invariant violation at gate {gate} chunk {chunk} persisted through re-execution"
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SimError {
    fn from(e: io::Error) -> Self {
        SimError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::ChunkCorrupt {
            chunk: 12,
            attempts: 4,
        };
        assert!(e.to_string().contains("chunk 12"));
        assert!(e.to_string().contains("4 attempts"));
        let e = SimError::Codec {
            chunk: usize::MAX,
            reason: "payload truncated".into(),
        };
        assert!(!e.to_string().contains("chunk"), "{e}");
        let e = SimError::WorkerLost {
            dispatch: "try_apply_group_runs",
        };
        assert!(e.to_string().contains("try_apply_group_runs"));
    }

    #[test]
    fn recoverability_separates_machine_faults_from_decisions() {
        assert!(SimError::WorkerLost { dispatch: "x" }.is_recoverable());
        assert!(SimError::ChunkCorrupt {
            chunk: 0,
            attempts: 5
        }
        .is_recoverable());
        assert!(SimError::AllDevicesLost { device: 1 }.is_recoverable());
        assert!(
            SimError::InvariantViolation { gate: 4, chunk: 2 }.is_recoverable(),
            "a different device can re-run the job successfully"
        );
        assert!(!SimError::JobAborted { op: 3 }.is_recoverable());
        assert!(!SimError::DeadlineExceeded { op: 3 }.is_recoverable());
        assert!(!SimError::Fatal {
            gate: 0,
            reason: "x".into()
        }
        .is_recoverable());
    }

    #[test]
    fn abort_variants_display_the_op() {
        assert!(SimError::JobAborted { op: 17 }.to_string().contains("17"));
        assert!(SimError::DeadlineExceeded { op: 9 }
            .to_string()
            .contains("deadline"));
        let e = SimError::InvariantViolation { gate: 11, chunk: 5 };
        assert!(e.to_string().contains("gate 11"));
        assert!(e.to_string().contains("chunk 5"));
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let e: SimError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(matches!(e, SimError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
