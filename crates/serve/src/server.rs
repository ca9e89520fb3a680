//! The job server: admission control, fair scheduling, worker pool,
//! deadlines, retries, and graceful shutdown.
//!
//! The server runs exactly `workers` plain `std::thread`s over a shared
//! `Inner`, and each runs one loop: lock the state, wait on `wake`
//! until the [`FairScheduler`] has work, take its pick (finalizing jobs
//! whose cancellation or deadline fired while queued), place it on the
//! least-loaded surviving device, unlock, and run it. A job leaves the
//! fair queue only when a worker is free to start it. The worker runs
//! the engine with a per-attempt [`CancelToken`] that carries the job's
//! deadline (the engine's own poll trips it, at a gate boundary or
//! between tiles of tasks), converts worker panics into
//! [`SimError::WorkerLost`], and drives `RetryPolicy`-bounded
//! re-execution with a fresh fault seed per attempt (same physics seed
//! — replay is bit-exact).
//!
//! The server tracks a job only until its terminal transition (the
//! caller's [`JobHandle`] keeps the record and result alive after that),
//! so its memory is O(queued + running).
//!
//! Admission control consults the shared [`PressureGovernor`]: a job
//! that would exceed the memory budget is shed (`Rejected`, never a
//! silent drop) until sustained pressure unlocks a standing degradation
//! rung — smaller chunks, then forced compression — after which
//! over-budget jobs are admitted in degraded-but-bit-exact form.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qgpu::config::OptFlags;
use qgpu::{RunResult, SimError, Simulator};
use qgpu_faults::{CancelReason, RetryPolicy};
use qgpu_sched::devicegroup::{PressureAction, PressureGovernor};
use qgpu_sched::health::HealthSnapshot;
use qgpu_sched::{DeviceHealthBoard, HealthState, HealthTransition};

use crate::job::{JobHandle, JobId, JobRecord, JobSpec, JobStatus, RejectReason};
use crate::metrics::ServeMetrics;
use crate::sched::FairScheduler;

/// Seeded serve-level fault injection for the chaos harness. Worker
/// deaths are *real* panics unwound out of the engine call and caught
/// at the worker boundary — the recovery path under test is the same
/// one a genuine bug would take.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosConfig {
    /// Seed for the per-(job, attempt) panic draw.
    pub seed: u64,
    /// Probability that a given (job, attempt) pair dies mid-run.
    pub p_worker_panic: f64,
    /// Deterministic variant: every job's first N attempts die. Useful
    /// for exact retry-count assertions.
    pub fail_first_attempts: u32,
}

impl ChaosConfig {
    /// Pure decision: does this (job, attempt) die? Same seed ⇒ same
    /// deaths, independent of worker interleaving.
    fn panics(&self, job: JobId, attempt: u32) -> bool {
        if attempt < self.fail_first_attempts {
            return true;
        }
        if self.p_worker_panic <= 0.0 {
            return false;
        }
        let draw = splitmix64(
            self.seed
                ^ job.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ u64::from(attempt).wrapping_mul(0xD134_2543_DE82_EF95),
        );
        ((draw >> 11) as f64 / (1u64 << 53) as f64) < self.p_worker_panic
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Fleet device slots jobs are dealt across.
    pub devices: usize,
    /// Bound on each tenant's queue; admission sheds beyond it.
    pub max_queue_per_tenant: usize,
    /// Memory admission budget over the committed state bytes of
    /// queued + running jobs (`None` = unlimited).
    pub mem_budget_bytes: Option<u64>,
    /// Job-level re-execution policy for recoverable failures.
    pub retry: RetryPolicy,
    /// Deadline applied to jobs that do not bring their own.
    pub default_deadline: Option<Duration>,
    /// Serve-level fault injection.
    pub chaos: ChaosConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            devices: 1,
            max_queue_per_tenant: 64,
            mem_budget_bytes: None,
            retry: RetryPolicy::default(),
            default_deadline: None,
            chaos: ChaosConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Sets the worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the fleet device-slot count.
    pub fn with_devices(mut self, devices: usize) -> Self {
        self.devices = devices.max(1);
        self
    }

    /// Sets the per-tenant queue bound.
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.max_queue_per_tenant = cap.max(1);
        self
    }

    /// Sets the memory admission budget.
    pub fn with_mem_budget(mut self, bytes: u64) -> Self {
        self.mem_budget_bytes = Some(bytes);
        self
    }

    /// Sets the job-level retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the default deadline.
    pub fn with_default_deadline(mut self, deadline: Duration) -> Self {
        self.default_deadline = Some(deadline);
        self
    }

    /// Sets the chaos configuration.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = chaos;
        self
    }
}

/// How [`Server::shutdown`] treats in-flight work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Stop admissions, run every queued and in-flight job to a
    /// natural terminal state, then exit.
    Drain,
    /// Stop admissions and cancel everything still queued or running
    /// (each lands in `Cancelled`, never a silent drop).
    Abort,
}

struct PendingJob {
    rec: Arc<JobRecord>,
    spec: JobSpec,
    /// Bytes charged against the admission budget, released at
    /// terminal transition.
    charged: u64,
}

struct DeviceSlot {
    alive: bool,
    running: usize,
}

struct ServeState {
    sched: FairScheduler<PendingJob>,
    /// Admitted jobs that have not reached a terminal state.
    jobs: std::collections::HashMap<JobId, Arc<JobRecord>>,
    devices: Vec<DeviceSlot>,
    /// Per-device fault scoreboard: jobs whose results carried repaired
    /// invariant violations (or that needed recoverable retries) raise
    /// a device's score; quarantined devices are skipped by
    /// [`pick_device`] except for periodic probe placements.
    board: DeviceHealthBoard,
    governor: Option<PressureGovernor>,
    committed_bytes: u64,
    /// Admitted-but-not-terminal jobs per tenant. This (not the raw
    /// scheduler depth) backs the queue bound, so running jobs still
    /// count.
    active: std::collections::HashMap<String, usize>,
    /// Standing degradation rungs unlocked by sustained pressure.
    degrade_shrink: bool,
    degrade_compress: bool,
    next_id: JobId,
    /// No new admissions; workers exit once the queue is empty. Set and
    /// read under the lock, so a worker about to wait cannot miss the
    /// wake-up that follows it.
    closed: bool,
}

struct Inner {
    cfg: ServeConfig,
    metrics: ServeMetrics,
    state: Mutex<ServeState>,
    wake: Condvar,
    /// Workers discard queued work and stop retrying. Set under the
    /// state lock (like `closed`); read without it by retrying workers.
    abort: AtomicBool,
}

/// A running job server. Dropping it without calling
/// [`Server::shutdown`] performs an abort shutdown (nothing hangs,
/// every job still reaches a terminal state).
pub struct Server {
    inner: Arc<Inner>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts the worker pool.
    pub fn new(cfg: ServeConfig) -> Self {
        let cfg = ServeConfig {
            workers: cfg.workers.max(1),
            devices: cfg.devices.max(1),
            max_queue_per_tenant: cfg.max_queue_per_tenant.max(1),
            ..cfg
        };
        let metrics = ServeMetrics::new(qgpu_obs::DEFAULT_FLIGHT_EVENTS);
        let governor = cfg.mem_budget_bytes.map(PressureGovernor::new);
        let devices = (0..cfg.devices)
            .map(|_| DeviceSlot {
                alive: true,
                running: 0,
            })
            .collect();
        let inner = Arc::new(Inner {
            cfg: cfg.clone(),
            metrics,
            state: Mutex::new(ServeState {
                sched: FairScheduler::new(),
                jobs: std::collections::HashMap::new(),
                devices,
                board: DeviceHealthBoard::new(cfg.devices),
                governor,
                committed_bytes: 0,
                active: std::collections::HashMap::new(),
                degrade_shrink: false,
                degrade_compress: false,
                next_id: 0,
                closed: false,
            }),
            wake: Condvar::new(),
            abort: AtomicBool::new(false),
        });

        let threads = (0..cfg.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Server { inner, threads }
    }

    /// The server's metrics hub (registry, flight ring).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.inner.metrics
    }

    /// How many jobs the server itself still tracks: those admitted and
    /// not yet terminal.
    pub fn tracked_jobs(&self) -> usize {
        self.inner.state.lock().unwrap().jobs.len()
    }

    /// Health-board snapshot for a fleet device slot (EMA score, state,
    /// and event tallies). Load harnesses and tests use this to assert
    /// quarantine decisions.
    pub fn device_health(&self, device: usize) -> HealthSnapshot {
        self.inner.state.lock().unwrap().board.snapshot(device)
    }

    /// Sets a tenant's quota weight in the fair scheduler.
    pub fn set_tenant_quota(&self, tenant: &str, weight: f64) {
        self.inner
            .state
            .lock()
            .unwrap()
            .sched
            .set_weight(tenant, weight);
    }

    /// Submits a job through admission control. Refusals are explicit:
    /// the error names why, and the same decision lands in metrics and
    /// the flight ring.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, RejectReason> {
        let inner = &self.inner;
        let mut spec = spec;
        let mut st = inner.state.lock().unwrap();
        // Checked under the lock a worker holds when it finds the queue
        // empty and exits, so every admitted job has a worker left.
        if st.closed {
            inner.metrics.rejected(&spec.tenant, "shutting_down", false);
            return Err(RejectReason::ShuttingDown);
        }

        // Backpressure: bounded per-tenant queues (admitted and not yet
        // terminal — queued or running).
        if st.active.get(&spec.tenant).copied().unwrap_or(0) >= inner.cfg.max_queue_per_tenant {
            inner.metrics.rejected(&spec.tenant, "queue_full", true);
            return Err(RejectReason::QueueFull {
                tenant: spec.tenant.clone(),
            });
        }

        // Memory admission control under the pressure governor.
        let mut charged = 16u64 << spec.circuit.num_qubits().min(58);
        if let Some(budget) = inner.cfg.mem_budget_bytes {
            if st.committed_bytes + charged <= budget {
                if let Some(g) = st.governor.as_mut() {
                    g.on_relief();
                }
            }
            while st.committed_bytes + charged > budget {
                let qubits = spec.circuit.num_qubits() as u32;
                let flags = spec
                    .config
                    .opts
                    .unwrap_or_else(|| spec.config.version.opt_flags());
                let can_shrink = spec.config.chunk_count_log2 + 1 < qubits;
                let can_compress = !flags.compression;
                let action = if st.degrade_shrink && can_shrink {
                    Some(PressureAction::ShrinkChunks)
                } else if st.degrade_compress && can_compress {
                    Some(PressureAction::ForceCompress)
                } else {
                    st.governor
                        .as_mut()
                        .expect("budget implies governor")
                        .on_pressure(can_shrink, can_compress)
                };
                match action {
                    Some(PressureAction::ShrinkChunks) if can_shrink => {
                        // Finer chunks shrink the in-flight window
                        // footprint; results stay bit-identical at any
                        // chunk size.
                        st.degrade_shrink = true;
                        spec.config.chunk_count_log2 += 1;
                        charged = charged / 4 * 3;
                        inner.metrics.degraded(&spec.tenant, "shrink_chunks");
                    }
                    Some(PressureAction::ForceCompress) if can_compress => {
                        st.degrade_compress = true;
                        spec.config.opts = Some(OptFlags {
                            compression: true,
                            ..flags
                        });
                        charged /= 2;
                        inner.metrics.degraded(&spec.tenant, "force_compress");
                    }
                    _ => {
                        inner
                            .metrics
                            .rejected(&spec.tenant, "memory_pressure", true);
                        return Err(RejectReason::MemoryPressure);
                    }
                }
            }
        }

        st.committed_bytes += charged;
        *st.active.entry(spec.tenant.clone()).or_insert(0) += 1;
        st.next_id += 1;
        let id = st.next_id;
        let deadline_at = spec
            .deadline
            .or(inner.cfg.default_deadline)
            .map(|d| Instant::now() + d);
        let rec = Arc::new(JobRecord::new(id, spec.tenant.clone(), deadline_at));
        st.jobs.insert(id, Arc::clone(&rec));
        let cost = spec.circuit.len().max(1) as f64;
        let prio = spec.priority.weight();
        let tenant = spec.tenant.clone();
        let depth = st.sched.enqueue(
            &tenant,
            prio,
            cost,
            PendingJob {
                rec: Arc::clone(&rec),
                spec,
                charged,
            },
        );
        drop(st);
        inner.metrics.admitted(&tenant);
        inner.metrics.queue_depth(&tenant, depth);
        inner.wake.notify_one();
        Ok(JobHandle { rec })
    }

    /// Kills a fleet device: running jobs on it are evicted (their
    /// attempt aborts with a *recoverable* error, so the retry policy
    /// re-places them on a surviving device).
    pub fn kill_device(&self, device: usize) {
        let evicted = {
            let mut st = self.inner.state.lock().unwrap();
            if device >= st.devices.len() || !st.devices[device].alive {
                return;
            }
            st.devices[device].alive = false;
            let mut evicted = 0usize;
            for job in st.jobs.values() {
                if job.running_device() == Some(device) {
                    job.with_token(|t| {
                        t.evict();
                    });
                    evicted += 1;
                }
            }
            evicted
        };
        self.inner.metrics.device_lost(device, evicted);
    }

    /// Stops admissions without shutting down: subsequent submits are
    /// refused with [`RejectReason::ShuttingDown`] while queued and
    /// in-flight work keeps running.
    pub fn close(&self) {
        self.inner.state.lock().unwrap().closed = true;
        self.inner.wake.notify_all();
    }

    /// Gracefully shuts down: stops admissions, then drains or aborts
    /// in-flight work, joins every thread, and records the decision.
    /// Returns once every job is terminal.
    pub fn shutdown(mut self, mode: ShutdownMode) {
        self.stop(mode);
    }

    fn stop(&mut self, mode: ShutdownMode) {
        if self.threads.is_empty() {
            return;
        }
        {
            // Both flags change under the lock a worker holds until it
            // waits, so the notification below reaches every worker.
            let mut st = self.inner.state.lock().unwrap();
            st.closed = true;
            if mode == ShutdownMode::Abort {
                self.inner.abort.store(true, Ordering::Release);
                for j in st.jobs.values() {
                    j.cancel_requested.store(true, Ordering::Release);
                    j.with_token(|t| {
                        t.cancel();
                    });
                }
            }
        }
        self.inner.wake.notify_all();
        // Workers exit once the queue is empty (drain) or on the abort
        // flag, after cancelling whatever is still queued.
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.inner.metrics.shutdown(match mode {
            ShutdownMode::Drain => "drain",
            ShutdownMode::Abort => "abort",
        });
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop(ShutdownMode::Abort);
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A fresh *machine* for a retry: perturbs the fault seed as a pure
/// function of (seed, attempt), while the physics seed stays fixed —
/// so the replay is bit-exact and the original transient cannot
/// deterministically recur.
fn reseed(seed: u64, attempt: u32) -> u64 {
    splitmix64(seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Least-loaded alive device that the health board will accept.
/// Quarantined devices only surface when their probe window opens; if
/// the board refuses every alive device (all quarantined, probes
/// closed), placement falls back to the least-loaded alive device so
/// quarantine can never strand a job — the forced placement doubles as
/// a probe. Callers can tell a probe landed by checking the picked
/// device's state.
fn pick_device(st: &mut ServeState) -> Option<usize> {
    let preferred = st
        .devices
        .iter()
        .enumerate()
        .filter(|(_, d)| d.alive)
        .map(|(i, d)| (i, d.running))
        .collect::<Vec<_>>()
        .into_iter()
        .filter(|&(i, _)| st.board.schedulable(i))
        .min_by_key(|&(_, running)| running)
        .map(|(i, _)| i);
    preferred.or_else(|| {
        st.devices
            .iter()
            .enumerate()
            .filter(|(_, d)| d.alive)
            .min_by_key(|(_, d)| d.running)
            .map(|(i, _)| i)
    })
}

/// Translates a health-board transition into `serve.*` metrics and
/// flight events (no-op for [`HealthTransition::None`]).
fn emit_health_transition(inner: &Inner, st: &ServeState, device: usize, tr: HealthTransition) {
    let (name, state) = match tr {
        HealthTransition::None => return,
        HealthTransition::Demoted => ("demoted", HealthState::Probation),
        HealthTransition::Recovering => ("recovering", HealthState::Probation),
        HealthTransition::Quarantined => ("quarantined", HealthState::Quarantined),
        HealthTransition::Reinstated => ("reinstated", HealthState::Healthy),
    };
    inner
        .metrics
        .health_transition(device, name, state.label(), st.board.healthy_count());
}

/// The server's half of a terminal transition: stops tracking the job
/// (its handle keeps the record) and releases its admission charge and
/// its tenant's queue-bound slot.
fn release_job(st: &mut ServeState, rec: &JobRecord, charged: u64) {
    st.jobs.remove(&rec.id);
    st.committed_bytes = st.committed_bytes.saturating_sub(charged);
    if let Some(n) = st.active.get_mut(&rec.tenant) {
        *n = n.saturating_sub(1);
    }
}

/// Terminal transition for a job that never ran (discarded while
/// queued): release its charge and record the decision.
fn finalize_queued(inner: &Inner, st: &mut ServeState, p: PendingJob, status: JobStatus) {
    release_job(st, &p.rec, p.charged);
    let label = status.label();
    if p.rec.finish(status, None) {
        inner.metrics.terminal(&p.rec.tenant, label);
    }
}

fn worker_loop(inner: &Inner) {
    while let Some((job, device)) = next_job(inner) {
        run_job(inner, job, device);
    }
}

/// Waits for the fair queue's pick and places it on a device. Jobs whose
/// cancellation or deadline fired while queued are finalized on the
/// way. `None` once the server is closed and the queue is empty, or on
/// abort, where the first worker to see the flag cancels every queued
/// job.
fn next_job(inner: &Inner) -> Option<(PendingJob, usize)> {
    let mut st = inner.state.lock().unwrap();
    loop {
        if inner.abort.load(Ordering::Acquire) {
            while let Some(p) = st.sched.dequeue() {
                finalize_queued(inner, &mut st, p, JobStatus::Cancelled);
            }
            return None;
        }
        while let Some(p) = st.sched.dequeue() {
            inner
                .metrics
                .queue_depth(&p.rec.tenant, st.sched.depth(&p.rec.tenant));
            if let Some(status) = p.rec.stopped() {
                finalize_queued(inner, &mut st, p, status);
                continue;
            }
            let Some(d) = pick_device(&mut st) else {
                let error = SimError::AllDevicesLost { device: 0 }.to_string();
                finalize_queued(inner, &mut st, p, JobStatus::Failed { error });
                continue;
            };
            if st.board.state(d) == HealthState::Quarantined {
                inner.metrics.probe(d);
            }
            st.devices[d].running += 1;
            return Some((p, d));
        }
        if st.closed {
            return None;
        }
        st = inner.wake.wait(st).unwrap();
    }
}

#[allow(clippy::cognitive_complexity)]
fn run_job(inner: &Inner, p: PendingJob, mut device: usize) {
    let rec = &p.rec;
    let mut attempt: u32 = 0;
    let mut first_run = true;
    let outcome: (JobStatus, Option<RunResult>) = loop {
        if let Some(status) = rec.stopped() {
            break (status, None);
        }
        let token = rec.arm_token();
        // Re-check after installing the fresh token: a cancel that
        // tripped the *previous* token in the gap must not be lost
        // across the retry boundary. (The deadline travels in the token.)
        if rec.cancel_requested.load(Ordering::Acquire) {
            break (JobStatus::Cancelled, None);
        }
        rec.set_running(device, attempt);
        if first_run {
            first_run = false;
            inner
                .metrics
                .queue_wait_ms(&rec.tenant, rec.submitted.elapsed().as_millis() as u64);
        }

        let mut cfg = p.spec.config.clone();
        cfg.shots = p.spec.shots;
        cfg.cancel = Some(token.clone());
        if attempt > 0 {
            cfg.faults.seed = reseed(cfg.faults.seed, attempt);
        }
        let chaos_panic = inner.cfg.chaos.panics(rec.id, attempt);
        let run = catch_unwind(AssertUnwindSafe(|| {
            if chaos_panic {
                panic!("chaos: injected worker death");
            }
            Simulator::new(cfg).try_run(&p.spec.circuit)
        }));
        let err = match run {
            Ok(Ok(result)) => break (JobStatus::Completed, Some(result)),
            Ok(Err(e)) => e,
            Err(_) => {
                inner.metrics.worker_panic(rec.id, attempt);
                SimError::WorkerLost {
                    dispatch: "serve-worker",
                }
            }
        };
        // A cancel or a deadline ends the job whether the engine saw it
        // (the token tripped) or failed first; only machine faults retry.
        match token.reason() {
            Some(CancelReason::Cancelled) => break (JobStatus::Cancelled, None),
            Some(CancelReason::Deadline) => break (JobStatus::DeadlineExceeded, None),
            _ => {}
        }
        if let Some(status) = rec.stopped() {
            break (status, None);
        }
        let retry_ok = err.is_recoverable()
            && attempt < inner.cfg.retry.max_retries
            && !inner.abort.load(Ordering::Acquire);
        if !retry_ok {
            break (
                JobStatus::Failed {
                    error: err.to_string(),
                },
                None,
            );
        }
        inner
            .metrics
            .retried(&rec.tenant, rec.id, attempt, &err.to_string());
        attempt += 1;
        // Re-place on the least-loaded surviving device. The retry is
        // attributed to the device the failed attempt ran on — enough
        // of them tip it into probation/quarantine.
        let mut st = inner.state.lock().unwrap();
        let tr = st.board.record_retry(device);
        emit_health_transition(inner, &st, device, tr);
        match pick_device(&mut st) {
            Some(nd) if nd != device => {
                st.devices[device].running -= 1;
                st.devices[nd].running += 1;
                device = nd;
            }
            Some(_) => {}
            None => {
                drop(st);
                break (
                    JobStatus::Failed {
                        error: SimError::AllDevicesLost { device }.to_string(),
                    },
                    None,
                );
            }
        }
    };

    let (status, result) = outcome;
    {
        let mut st = inner.state.lock().unwrap();
        st.devices[device].running -= 1;
        release_job(&mut st, rec, p.charged);
        // Feed the health board: repaired invariant violations inside a
        // completed result still indict the device that produced them
        // (the answer is bit-exact, the silicon is suspect); a clean
        // completion decays the score back toward reinstatement.
        if matches!(status, JobStatus::Completed) {
            let violations = result
                .as_ref()
                .and_then(|r| r.integrity)
                .map_or(0, |s| s.violations);
            if violations > 0 {
                inner.metrics.integrity_violations(device, violations);
                for _ in 0..violations {
                    let tr = st.board.record_violation(device);
                    emit_health_transition(inner, &st, device, tr);
                }
            } else {
                let tr = st.board.record_success(device);
                emit_health_transition(inner, &st, device, tr);
            }
        }
    }
    let label = status.label();
    if rec.finish(status, result) {
        inner.metrics.terminal(&rec.tenant, label);
        if label == "completed" {
            inner
                .metrics
                .latency_ms(&rec.tenant, rec.submitted.elapsed().as_millis() as u64);
        }
    }
}
