//! # qgpu-serve — fault-hardened multi-tenant job serving
//!
//! A concurrent job server over the Q-GPU engine. Callers submit
//! [`JobSpec`]s — circuit, shot count, [`qgpu::SimConfig`], tenant,
//! deadline, priority — and get back a [`JobHandle`] for status
//! polling, result retrieval, and cancellation. The server provides:
//!
//! * **Bounded per-tenant queues** with explicit load shedding: a
//!   refused job carries a [`RejectReason`], never a silent drop.
//! * **Memory admission control** backed by the engine's
//!   `PressureGovernor`: under sustained pressure, jobs are admitted in
//!   degraded-but-bit-exact form (finer chunks, forced compression)
//!   before any shedding — degradation changes *footprint*, never
//!   *results* (the engine's bit-identity invariant).
//! * **Wall-clock deadlines** carried in each run's cancellation token:
//!   the engine's own poll stops an in-flight run cooperatively at the
//!   first gate boundary (or tile of tasks) after its deadline.
//! * **Retry with bit-exact replay**: recoverable engine faults
//!   (`WorkerLost`, `ChunkCorrupt`, `StageTimeout`, device loss)
//!   re-execute under the job's `RetryPolicy` with a fresh *machine*
//!   fault seed and the *same* physics seed — a completed retry is
//!   bit-identical to a fault-free run.
//! * **Starvation-proof weighted fair scheduling** ([`FairScheduler`]):
//!   tenant quota × job priority shapes service order; within a tenant,
//!   order stays FIFO.
//! * **Graceful shutdown** ([`ShutdownMode::Drain`] /
//!   [`ShutdownMode::Abort`]) that leaves every job in a terminal
//!   state.
//! * **Full observability**: every serving decision lands in `serve.*`
//!   registry metrics and the flight-event ring ([`ServeMetrics`]).
//! * **Fleet health quarantine**: a [`qgpu_sched::DeviceHealthBoard`]
//!   scores each device slot on the invariant violations, CRC retries,
//!   and recoverable failures its jobs report; quarantined slots are
//!   skipped by placement (except periodic probes) until clean
//!   completions earn reinstatement.
//!
//! The `qgpu-load` binary (in this crate) is the chaos/load harness:
//! it drives hundreds of concurrent jobs through seeded faults and
//! asserts that all jobs reach terminal states and that completed jobs
//! are bit-identical to fault-free references.
//!
//! ```no_run
//! use qgpu::{SimConfig, Version};
//! use qgpu_circuit::generators::quantum_fourier_transform;
//! use qgpu_serve::{JobSpec, ServeConfig, Server, ShutdownMode};
//!
//! let server = Server::new(ServeConfig::default().with_workers(2));
//! let cfg = SimConfig::scaled_paper(10).with_version(Version::QGpu);
//! let spec = JobSpec::new(quantum_fourier_transform(10), cfg)
//!     .with_tenant("acme")
//!     .with_shots(256);
//! let handle = server.submit(spec).expect("admitted");
//! let status = handle.wait_timeout(std::time::Duration::from_secs(30));
//! println!("job {} -> {:?}", handle.id(), status);
//! server.shutdown(ShutdownMode::Drain);
//! ```

mod job;
mod metrics;
mod sched;
mod server;

pub use job::{JobHandle, JobId, JobSpec, JobStatus, Priority, RejectReason};
pub use metrics::ServeMetrics;
pub use sched::FairScheduler;
pub use server::{ChaosConfig, ServeConfig, Server, ShutdownMode};

pub use qgpu_sched::health::HealthSnapshot;
pub use qgpu_sched::HealthState;
