//! Unified tracing & metrics for the Q-GPU reproduction.
//!
//! The paper reads its entire evaluation off `nvprof` traces; the
//! reproduction models that with `qgpu_device::Timeline`. This crate adds
//! the *other* half of the instrument panel — what the host engines
//! actually do, in wall-clock time — and the glue that puts both in one
//! picture:
//!
//! * [`Recorder`] — a lightweight span and metric sink. Every
//!   operation takes `Option<&Recorder>`; passing `None` compiles to a
//!   no-op (no clock reads, no locks), so instrumented hot paths cost
//!   nothing when observability is off.
//! * [`export::ChromeTrace`] — a Chrome trace-event / Perfetto JSON
//!   exporter that emits **two process tracks**: the modeled device
//!   timeline (one thread per [`qgpu_device::Engine`]) and the measured
//!   wall-clock spans (one thread per worker), so a single trace file
//!   shows model and reality side by side. Open with
//!   <https://ui.perfetto.dev> or `chrome://tracing`.
//! * [`drift::DriftReport`] — aligns modeled per-phase totals against
//!   measured wall-clock totals and flags phases where the device model
//!   mispredicts the phase *share* by more than a configurable
//!   tolerance.
//! * [`registry::Registry`] — the one metric store: typed, optionally
//!   labeled series (counters, gauges and [`hdr::HdrHistogram`]
//!   percentile histograms), frozen into a
//!   [`registry::RegistrySnapshot`], which also derives the flat
//!   per-name counter view and the `--metrics-out` document.
//! * [`flightrec::FlightRecorder`] — a bounded ring of structured
//!   events (retries, fallbacks, device loss, downshifts, collapse
//!   outcomes) dumped to JSON for post-mortems when a fault path fires.
//! * [`meta::RunMeta`] — the self-describing metadata block (git SHA,
//!   seed, config hash, host) stamped onto every telemetry artifact.
//!
//! No JSON dependency exists in this workspace (the vendored `serde` is a
//! marker-trait stub), so [`json`] provides the minimal writer/parser the
//! exporters need.
//!
//! # Examples
//!
//! ```
//! use qgpu_obs::{Recorder, Stage, Track};
//!
//! let rec = Recorder::new();
//! {
//!     let _g = rec.span(Track::Main, Stage::Update, "update.local");
//!     // ... the instrumented work ...
//! }
//! rec.add("chunks.processed", 3);
//! rec.observe("chunk.bytes", 4096);
//! let spans = rec.spans();
//! assert_eq!(spans.len(), 1);
//! assert_eq!(spans[0].stage, Stage::Update);
//! assert_eq!(rec.registry().snapshot().counter_total("chunks.processed"), 3);
//! ```

pub mod drift;
pub mod export;
pub mod flightrec;
pub mod hdr;
pub mod json;
pub mod meta;
pub mod registry;
pub mod span;

pub use drift::DriftReport;
pub use export::ChromeTrace;
pub use flightrec::{FlightEvent, FlightRecorder, DEFAULT_FLIGHT_EVENTS, FLIGHT_SCHEMA};
pub use hdr::{HdrHistogram, HdrSnapshot};
pub use json::Json;
pub use meta::RunMeta;
pub use registry::{MetricEntry, Registry, RegistrySnapshot};
pub use span::{span_opt, Recorder, SpanGuard, Stage, Track, WallSpan};
