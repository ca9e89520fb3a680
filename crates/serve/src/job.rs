//! Job specifications, lifecycle states, and the caller's handle.
//!
//! A job's status walks a small state machine (DESIGN.md §12):
//!
//! ```text
//! submit ──► Queued ──► Running{attempt} ──► Completed
//!    │          │            │  ▲               Failed
//!    ▼          │            ▼  │ retry         Cancelled
//! Rejected      └──────► Cancelled / DeadlineExceeded
//! ```
//!
//! Every job reaches exactly one *terminal* state — `Completed`,
//! `Failed`, `Rejected`, `Cancelled`, or `DeadlineExceeded` — and the
//! transition into it happens exactly once (first writer wins, under
//! the record's mutex), no matter how canceller, shutdown, and worker
//! race.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use qgpu::{RunResult, SimConfig};
use qgpu_circuit::Circuit;
use qgpu_faults::CancelToken;
use std::sync::Arc;

/// Server-assigned job identifier, unique per server instance.
pub type JobId = u64;

/// Scheduling priority. Higher priority makes a job *cheaper* in the
/// fair scheduler's virtual time, so its tenant is served sooner and
/// more often — it never reorders a tenant's own FIFO (which is what
/// keeps the scheduler starvation-proof by construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Background work.
    Low,
    /// The default.
    #[default]
    Normal,
    /// Latency-sensitive work.
    High,
}

impl Priority {
    /// The priority's weight multiplier in the fair scheduler.
    pub fn weight(self) -> f64 {
        match self {
            Priority::Low => 0.5,
            Priority::Normal => 1.0,
            Priority::High => 2.0,
        }
    }
}

/// Everything a caller submits: the circuit, how to run it, and the
/// serving contract (tenant, deadline, priority).
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The circuit to simulate.
    pub circuit: Circuit,
    /// End-of-circuit measurement shots (overrides `config.shots`).
    pub shots: u64,
    /// Engine configuration. One engine pass serves all shots — the
    /// plan/reorder/prune work is amortized across the whole batch.
    pub config: SimConfig,
    /// Tenant the job is billed to (per-tenant queue + quota weight).
    pub tenant: String,
    /// Wall-clock budget from submission; `None` uses the server
    /// default (which may also be `None` — no deadline).
    pub deadline: Option<Duration>,
    /// Scheduling priority.
    pub priority: Priority,
}

impl JobSpec {
    /// A spec with the default serving contract: tenant `"default"`,
    /// normal priority, server-default deadline.
    pub fn new(circuit: Circuit, config: SimConfig) -> Self {
        let shots = config.shots;
        JobSpec {
            circuit,
            shots,
            config,
            tenant: "default".to_string(),
            deadline: None,
            priority: Priority::Normal,
        }
    }

    /// Sets the tenant.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// Sets the shot count.
    pub fn with_shots(mut self, shots: u64) -> Self {
        self.shots = shots;
        self
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

/// Why admission control refused a job. Load shedding is always
/// explicit — a refused job gets a reason, never a silent drop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant's bounded queue is full (backpressure).
    QueueFull {
        /// The tenant whose queue overflowed.
        tenant: String,
    },
    /// Admitting the job would exceed the memory budget and the
    /// pressure governor had no degradation rung left to offer.
    MemoryPressure,
    /// The server is shutting down and accepts no new work.
    ShuttingDown,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { tenant } => {
                write!(f, "tenant '{tenant}' queue is full")
            }
            RejectReason::MemoryPressure => f.write_str("memory admission control refused"),
            RejectReason::ShuttingDown => f.write_str("server is shutting down"),
        }
    }
}

/// A job's lifecycle state.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// Admitted, waiting in its tenant's queue.
    Queued,
    /// Executing on a device slot.
    Running {
        /// The fleet slot the attempt runs on.
        device: usize,
        /// 0-based attempt number (> 0 after a retry).
        attempt: u32,
    },
    /// Finished; the result is available. Terminal.
    Completed,
    /// Every attempt failed; the *last* underlying error is carried
    /// verbatim. Terminal.
    Failed {
        /// Display rendering of the final [`qgpu::SimError`].
        error: String,
    },
    /// Admission control refused the job. Terminal.
    Rejected {
        /// Why.
        reason: RejectReason,
    },
    /// The caller cancelled it (queued or mid-run). Terminal.
    Cancelled,
    /// The wall-clock deadline passed before completion. Terminal.
    DeadlineExceeded,
}

impl JobStatus {
    /// Whether this state is final — the chaos harness's core
    /// assertion is that every job reaches one of these.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running { .. })
    }

    /// Short label for metrics and summaries.
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running { .. } => "running",
            JobStatus::Completed => "completed",
            JobStatus::Failed { .. } => "failed",
            JobStatus::Rejected { .. } => "rejected",
            JobStatus::Cancelled => "cancelled",
            JobStatus::DeadlineExceeded => "deadline_exceeded",
        }
    }
}

struct JobState {
    status: JobStatus,
    result: Option<Arc<RunResult>>,
    attempts: u32,
}

/// The server-side record of one job, shared between the caller's
/// [`JobHandle`], the server's queue, and the worker running it.
pub(crate) struct JobRecord {
    pub(crate) id: JobId,
    pub(crate) tenant: String,
    pub(crate) submitted: Instant,
    /// The caller asked for cancellation (sticky across retries).
    pub(crate) cancel_requested: AtomicBool,
    /// The *current attempt's* engine token, carrying the job's
    /// deadline; renewed on retry so a cancel or evict trip always
    /// reaches the run in flight.
    pub(crate) token: Mutex<CancelToken>,
    state: Mutex<JobState>,
    cv: Condvar,
}

impl JobRecord {
    pub(crate) fn new(id: JobId, tenant: String, deadline_at: Option<Instant>) -> Self {
        JobRecord {
            id,
            tenant,
            submitted: Instant::now(),
            cancel_requested: AtomicBool::new(false),
            token: Mutex::new(CancelToken::with_deadline(deadline_at)),
            state: Mutex::new(JobState {
                status: JobStatus::Queued,
                result: None,
                attempts: 0,
            }),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn status(&self) -> JobStatus {
        self.state.lock().unwrap().status.clone()
    }

    pub(crate) fn attempts(&self) -> u32 {
        self.state.lock().unwrap().attempts
    }

    /// Marks an attempt as running (non-terminal transition).
    pub(crate) fn set_running(&self, device: usize, attempt: u32) -> bool {
        let mut st = self.state.lock().unwrap();
        if st.status.is_terminal() {
            return false;
        }
        st.status = JobStatus::Running { device, attempt };
        st.attempts = attempt + 1;
        drop(st);
        self.cv.notify_all();
        true
    }

    /// Transitions into a terminal state; the first writer wins. Every
    /// waiter is woken. Returns whether this call performed the
    /// transition.
    pub(crate) fn finish(&self, status: JobStatus, result: Option<RunResult>) -> bool {
        debug_assert!(status.is_terminal());
        let mut st = self.state.lock().unwrap();
        if st.status.is_terminal() {
            return false;
        }
        st.status = status;
        st.result = result.map(Arc::new);
        drop(st);
        self.cv.notify_all();
        true
    }

    pub(crate) fn result(&self) -> Option<Arc<RunResult>> {
        self.state.lock().unwrap().result.clone()
    }

    /// The device this job is currently running on, if any.
    pub(crate) fn running_device(&self) -> Option<usize> {
        match self.state.lock().unwrap().status {
            JobStatus::Running { device, .. } => Some(device),
            _ => None,
        }
    }

    /// The terminal state a cancel request or a passed deadline has
    /// already decided for a job that is not running, if any.
    pub(crate) fn stopped(&self) -> Option<JobStatus> {
        if self.cancel_requested.load(Ordering::Acquire) {
            Some(JobStatus::Cancelled)
        } else if self.token.lock().unwrap().deadline_passed() {
            Some(JobStatus::DeadlineExceeded)
        } else {
            None
        }
    }

    /// Installs a fresh token, carrying the job's deadline, for the next
    /// attempt and returns it.
    pub(crate) fn arm_token(&self) -> CancelToken {
        let mut token = self.token.lock().unwrap();
        *token = token.renewed();
        token.clone()
    }

    /// Applies `f` to the current attempt's token.
    pub(crate) fn with_token(&self, f: impl FnOnce(&CancelToken)) {
        f(&self.token.lock().unwrap());
    }

    /// Blocks until the job is terminal, or `timeout` elapses.
    pub(crate) fn wait_timeout(&self, timeout: Duration) -> Option<JobStatus> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock().unwrap();
        while !st.status.is_terminal() {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self.cv.wait_timeout(st, deadline - now).unwrap();
            st = guard;
        }
        Some(st.status.clone())
    }
}

/// The caller's handle to a submitted job: poll status, wait, fetch
/// the result, or cancel.
#[derive(Clone)]
pub struct JobHandle {
    pub(crate) rec: Arc<JobRecord>,
}

impl JobHandle {
    /// The server-assigned job id.
    pub fn id(&self) -> JobId {
        self.rec.id
    }

    /// The tenant the job was billed to.
    pub fn tenant(&self) -> &str {
        &self.rec.tenant
    }

    /// The job's current lifecycle state.
    pub fn status(&self) -> JobStatus {
        self.rec.status()
    }

    /// How many attempts have started (1 for a clean first run).
    pub fn attempts(&self) -> u32 {
        self.rec.attempts()
    }

    /// Blocks until the job reaches a terminal state, or `timeout`
    /// elapses (`None` = timed out, the job is still in flight).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobStatus> {
        self.rec.wait_timeout(timeout)
    }

    /// The completed run's result, once `status()` is
    /// [`JobStatus::Completed`].
    pub fn result(&self) -> Option<Arc<RunResult>> {
        self.rec.result()
    }

    /// Requests cancellation: trips the in-flight attempt's token (the
    /// engine stops at its next poll: a gate boundary, or a tile of a
    /// gate's tasks) and marks the request
    /// sticky so a pending retry cannot resurrect the job. A queued job
    /// is discarded when it reaches the head of the fair queue.
    pub fn cancel(&self) {
        self.rec.cancel_requested.store(true, Ordering::Release);
        self.rec.with_token(|t| {
            t.cancel();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_transition_is_exactly_once() {
        let rec = JobRecord::new(1, "t".into(), None);
        assert!(!rec.status().is_terminal());
        assert!(rec.finish(JobStatus::Cancelled, None));
        assert!(
            !rec.finish(JobStatus::Completed, None),
            "second terminal write must lose"
        );
        assert_eq!(rec.status(), JobStatus::Cancelled);
    }

    #[test]
    fn wait_timeout_observes_finish() {
        let rec = Arc::new(JobRecord::new(2, "t".into(), None));
        let waiter = {
            let rec = Arc::clone(&rec);
            std::thread::spawn(move || rec.wait_timeout(Duration::from_secs(5)))
        };
        rec.finish(JobStatus::Completed, None);
        assert_eq!(waiter.join().unwrap(), Some(JobStatus::Completed));
    }

    #[test]
    fn priority_weights_are_ordered() {
        assert!(Priority::High.weight() > Priority::Normal.weight());
        assert!(Priority::Normal.weight() > Priority::Low.weight());
    }
}
