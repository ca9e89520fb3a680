//! Scheduling machinery for Q-GPU: pruning, reordering, planning,
//! residency.
//!
//! * [`involvement::InvolvementTracker`] — the qubit-involvement bitmask
//!   and the zero-chunk test of the paper's Algorithm 1, including dynamic
//!   chunk sizing;
//! * [`reorder`] — the dependency-aware gate reordering passes: *greedy*
//!   (Algorithm 2) and *forward-looking* (Algorithm 3);
//! * [`plan::GatePlan`] — which chunks a gate touches and how they group
//!   across the chunk boundary (the paper's Case 1 / Case 2);
//! * [`residency`] — where chunks live: the baseline's static split, and
//!   round-robin assignment for multi-GPU streaming (paper §V-E);
//! * [`devicegroup`] — resilient multi-device orchestration: device
//!   loss re-sharding, straggler work-stealing, and the memory-pressure
//!   degradation ladder;
//! * [`health::DeviceHealthBoard`] — the per-device EMA fault
//!   scoreboard (violations, CRC failures, retries) with quarantine,
//!   probation probes, and reinstatement, consumed by both the engine
//!   and the serving scheduler.
//!
//! # Examples
//!
//! ```
//! use qgpu_circuit::generators::Benchmark;
//! use qgpu_sched::reorder::ReorderStrategy;
//!
//! let c = Benchmark::Gs.generate(8);
//! let reordered = ReorderStrategy::ForwardLooking.reorder(&c);
//! assert_eq!(reordered.len(), c.len()); // a permutation, same gates
//! ```

pub mod devicegroup;
pub mod health;
pub mod involvement;
pub mod plan;
pub mod reorder;
pub mod residency;

pub use devicegroup::{DeviceGroup, OrchestratorConfig, PressureAction, PressureGovernor};
pub use health::{DeviceHealthBoard, HealthState, HealthTransition};
pub use involvement::InvolvementTracker;
pub use plan::{GatePlan, Tasks};
pub use reorder::ReorderStrategy;
