//! The `serve_mix` workload: a seeded list of small jobs pushed through
//! `qgpu_serve::Server` by closed-loop clients, each of which submits a
//! job, waits for its reply and only then submits the next.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use qgpu::Version;
use qgpu_circuit::generators::Benchmark;
use qgpu_math::rng::unit_draw;
use qgpu_serve::{JobHandle, JobSpec, JobStatus, ServeConfig, Server, ShutdownMode};

use crate::stats::Tally;
use crate::trace::Tracer;
use crate::workloads::{prepare, verify, Case, EngineSpec};

pub const SHOTS: u64 = 64;
/// Jobs per second of `--seconds`: the job count is fixed by the run
/// length, not by how fast they finish, because the server keeps every
/// job's record (so peak memory follows the count) and because a p99 over
/// a count that moves with speed would not compare across commits.
pub const JOBS_PER_SECOND: usize = 200;
pub const WORKERS: usize = 2;
pub const CLIENTS: usize = 2;
/// A job that is not terminal after this long counts as failed.
pub const JOB_TIMEOUT: Duration = Duration::from_secs(60);
const SALT_ORDER: u64 = 0x6a6f_626f_7264_6572; // "joborder"
const SALT_TENANT: u64 = 0x0074_656e_616e_7421; // "tenant!"

const CIRCUITS: [Benchmark; 4] = [
    Benchmark::Qft,
    Benchmark::Iqp,
    Benchmark::Bv,
    Benchmark::Rqc,
];
const VERSIONS: [Version; 2] = [Version::Baseline, Version::QGpu];

/// Qubit sizes of the job classes; `--smoke` shifts them down.
pub fn class_qubits(smoke: bool) -> [usize; 3] {
    if smoke {
        [6, 8, 10]
    } else {
        [10, 12, 14]
    }
}

/// The 48 templates: 4 circuits × 3 sizes × 2 versions × 2 circuit
/// instances. The instances are pinned: the cost of a `bv`, `iqp` or `rqc`
/// circuit varies several-fold with its instance, so a list whose
/// templates changed with the seed would not be the same load twice.
pub fn template_specs(smoke: bool) -> Vec<EngineSpec> {
    let mut specs = Vec::new();
    for bench in CIRCUITS {
        for qubits in class_qubits(smoke) {
            for version in VERSIONS {
                for instance in 0..2u64 {
                    specs.push(EngineSpec {
                        bench,
                        qubits,
                        version,
                        threads: 1,
                        devices: 1,
                        noisy: false,
                        shots: SHOTS,
                        circuit_seed: 1 + instance,
                    });
                }
            }
        }
    }
    specs
}

pub fn prepare_templates(smoke: bool, tracer: &mut Tracer) -> Vec<Case> {
    template_specs(smoke)
        .into_iter()
        .map(|spec| prepare(spec, crate::workloads::STOCH_SEED, tracer))
        .collect()
}

/// One job of the list: which template, which tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    pub template: usize,
    /// Tenant `b` (quota weight 2) sends two jobs for each of tenant `a`'s
    /// (weight 1).
    pub tenant_b: bool,
}

/// The job list: every template the same number of times (so every seed
/// is the same total work), in an order and with tenants the seed draws.
pub fn job_list(seed: u64, jobs: usize, templates: usize) -> Vec<Job> {
    let mut list: Vec<Job> = (0..jobs)
        .map(|j| Job {
            template: j % templates,
            tenant_b: unit_draw(seed, SALT_TENANT, j as u64, 0) < 2.0 / 3.0,
        })
        .collect();
    // Fisher–Yates with keyed draws.
    for i in (1..list.len()).rev() {
        let j = (unit_draw(seed, SALT_ORDER, i as u64, 0) * (i + 1) as f64) as usize;
        list.swap(i, j);
    }
    list
}

/// What one client saw of one job.
pub struct JobSample {
    pub job: Job,
    pub client: u32,
    pub submit_at: Instant,
    pub submitted_at: Instant,
    pub done_at: Instant,
    /// `None` when admission refused the job.
    pub handle: Option<JobHandle>,
    pub status: Result<(), String>,
}

impl JobSample {
    pub fn latency_s(&self) -> f64 {
        (self.done_at - self.submit_at).as_secs_f64()
    }
    pub fn submit_s(&self) -> f64 {
        (self.submitted_at - self.submit_at).as_secs_f64()
    }
}

pub struct LoopOutcome {
    pub tally: Tally,
    /// Closed-loop wall: first submit to last reply.
    pub wall_s: f64,
    pub samples: Vec<JobSample>,
    pub completed: u64,
    pub rejected: u64,
    pub retried: u64,
}

/// Pushes `jobs` through a fresh server with `clients` closed-loop
/// clients, then, outside the timed loop, checks every reply against its
/// template.
pub fn closed_loop(
    cases: &[Case],
    jobs: &[Job],
    workers: usize,
    clients: usize,
    queue_cap: Option<usize>,
) -> LoopOutcome {
    let mut cfg = ServeConfig::default().with_workers(workers);
    if let Some(cap) = queue_cap {
        cfg = cfg.with_queue_cap(cap);
    }
    let server = Server::new(cfg);
    server.set_tenant_quota("a", 1.0);
    server.set_tenant_quota("b", 2.0);

    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut samples: Vec<JobSample> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..clients as u32)
            .map(|client| {
                let (server, next) = (&server, &next);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&job) = jobs.get(j) else { break };
                        mine.push(one_job(server, &cases[job.template], job, client));
                    }
                    mine
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    server.shutdown(ShutdownMode::Drain);

    samples.sort_by_key(|s| s.submit_at);
    let mut out = LoopOutcome {
        tally: Tally::default(),
        wall_s,
        samples: Vec::new(),
        completed: 0,
        rejected: 0,
        retried: 0,
    };
    for mut s in samples {
        match &s.handle {
            None => out.rejected += 1,
            Some(h) => {
                out.retried += u64::from(h.attempts().saturating_sub(1));
                if s.status.is_ok() {
                    out.completed += 1;
                    let result = h.result().expect("a completed job has a result");
                    s.status = verify(&cases[s.job.template], &result);
                }
            }
        }
        match &s.status {
            Ok(()) => out.tally.ok(s.latency_s()),
            Err(e) => out.tally.fail(e.clone()),
        }
        out.samples.push(s);
    }
    out
}

fn one_job(server: &Server, case: &Case, job: Job, client: u32) -> JobSample {
    let spec = JobSpec::new(case.circuit.clone(), case.sim.config().clone())
        .with_tenant(if job.tenant_b { "b" } else { "a" });
    let submit_at = Instant::now();
    let submitted = server.submit(spec);
    let submitted_at = Instant::now();
    let (handle, status) = match submitted {
        Err(reason) => (None, Err(format!("rejected: {reason}"))),
        Ok(h) => {
            let status = match h.wait_timeout(JOB_TIMEOUT) {
                Some(JobStatus::Completed) => Ok(()),
                Some(other) => Err(format!("job ended {}", other.label())),
                None => {
                    h.cancel();
                    Err(format!("not terminal after {} s", JOB_TIMEOUT.as_secs()))
                }
            };
            (Some(h), status)
        }
    };
    JobSample {
        job,
        client,
        submit_at,
        submitted_at,
        done_at: Instant::now(),
        handle,
        status,
    }
}

/// The same job list run one after another through `Simulator::try_run`,
/// no server: total host seconds. What serving is an overhead over.
pub fn direct(cases: &[Case], jobs: &[Job], tally: &mut Tally) -> f64 {
    let start = Instant::now();
    let mut checked = 0.0;
    for job in jobs {
        let case = &cases[job.template];
        let t = Instant::now();
        let run = case.sim.try_run(&case.circuit);
        let wall = t.elapsed().as_secs_f64();
        let t = Instant::now();
        match run
            .map_err(|e| e.to_string())
            .and_then(|r| verify(case, &r))
        {
            Ok(()) => tally.ok(wall),
            Err(e) => tally.fail(e),
        }
        checked += t.elapsed().as_secs_f64();
    }
    start.elapsed().as_secs_f64() - checked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Vec<Case>, Vec<Job>) {
        let mut t = Tracer::new("test", false);
        let cases: Vec<Case> = template_specs(true)
            .into_iter()
            .filter(|s| s.qubits == 6)
            .map(|s| prepare(s, 5, &mut t))
            .collect();
        let jobs = job_list(5, 40, cases.len());
        (cases, jobs)
    }

    #[test]
    fn the_job_list_is_a_function_of_the_seed() {
        assert_eq!(job_list(9, 50, 48), job_list(9, 50, 48));
        assert_ne!(job_list(9, 50, 48), job_list(10, 50, 48));
        let mut counts = [0usize; 48];
        for j in job_list(9, 480, 48) {
            counts[j.template] += 1;
        }
        assert_eq!(counts, [10; 48], "every seed is the same total work");
        assert_eq!(template_specs(false).len(), 48);
    }

    #[test]
    fn every_job_completes_and_matches_its_template() {
        let (cases, jobs) = tiny();
        let out = closed_loop(&cases, &jobs, 2, 2, None);
        assert_eq!(
            (out.tally.attempted, out.tally.failed),
            (40, 0),
            "{:?}",
            out.tally.reasons
        );
        assert_eq!((out.completed, out.rejected), (40, 0));
    }

    /// The server clamps a queue cap of 0 to 1 admitted job per tenant,
    /// so with two clients the second job of a tenant that already has
    /// one in flight is refused. A refused job must stay in the sample,
    /// as a failure beyond every latency limit.
    #[test]
    fn a_job_refused_by_a_queue_cap_of_zero_lands_in_failed() {
        let (cases, jobs) = tiny();
        let one_tenant: Vec<Job> = jobs
            .iter()
            .map(|j| Job {
                tenant_b: true,
                ..*j
            })
            .collect();
        let out = closed_loop(&cases, &one_tenant, 1, 2, Some(0));
        assert_eq!(out.tally.attempted, 40);
        assert!(out.rejected > 0, "two clients on one tenant must collide");
        assert_eq!(out.tally.failed, out.rejected);
        assert_eq!(out.completed + out.rejected, 40);
        let slow = out
            .tally
            .latencies_s
            .iter()
            .filter(|&&l| l == crate::stats::FAILED_LATENCY_S);
        assert_eq!(slow.count() as u64, out.rejected);
        assert!(out.tally.reasons[0].starts_with("rejected"));
    }
}
