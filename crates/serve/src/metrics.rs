//! Serving-decision telemetry: `serve.*` registry metrics and flight
//! events from every admission, shed, retry, cancel, deadline, and
//! shutdown decision.
//!
//! Each decision is counted once, with its labels (the per-tenant
//! breakdown); the flat view of a `--metrics-out` document sums a name
//! over its label sets, so `jq '.counters["serve.shed"]'` works without
//! unpacking them (the same shape `qgpu-sim --metrics-out` emits).

use std::sync::Arc;

use qgpu_obs::Recorder;

/// The server's shared recorder: the metric registry (counters, gauges,
/// per-tenant latency histograms) and the flight-event ring.
#[derive(Clone)]
pub struct ServeMetrics {
    rec: Arc<Recorder>,
}

impl ServeMetrics {
    /// A metrics hub whose flight ring keeps `flight_events` events.
    pub fn new(flight_events: usize) -> Self {
        ServeMetrics {
            rec: Arc::new(Recorder::new().with_flight(flight_events).without_spans()),
        }
    }

    /// The underlying recorder (flight ring + registry).
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.rec
    }

    fn count(&self, name: &'static str, labels: &[(&'static str, &str)]) {
        self.rec.registry().add(name, labels, 1);
    }

    /// A job passed admission control.
    pub fn admitted(&self, tenant: &str) {
        self.count("serve.admitted", &[("tenant", tenant)]);
    }

    /// A job was refused; `reason` is the [`crate::RejectReason`] label.
    /// Queue-full and memory-pressure rejections also count as sheds.
    pub fn rejected(&self, tenant: &str, reason: &str, shed: bool) {
        self.count("serve.rejected", &[("tenant", tenant), ("reason", reason)]);
        if shed {
            self.count("serve.shed", &[("tenant", tenant)]);
            self.rec
                .flight("shed", || format!("tenant '{tenant}' load-shed: {reason}"));
        }
    }

    /// Admission degraded a job's config instead of shedding it.
    pub fn degraded(&self, tenant: &str, action: &str) {
        self.count("serve.degraded", &[("tenant", tenant), ("action", action)]);
        self.rec.flight("downshift", || {
            format!("admission degraded tenant '{tenant}' job: {action}")
        });
    }

    /// A recoverable failure triggered a re-execution.
    pub fn retried(&self, tenant: &str, job: u64, attempt: u32, err: &str) {
        self.count("serve.retries", &[("tenant", tenant)]);
        self.rec.flight("retry", || {
            format!("job {job} attempt {attempt} retrying after: {err}")
        });
    }

    /// A serve-level worker thread died mid-job.
    pub fn worker_panic(&self, job: u64, attempt: u32) {
        self.count("serve.worker_panics", &[]);
        self.rec.flight("worker_restart", || {
            format!("worker died running job {job} attempt {attempt}")
        });
    }

    /// A fleet device was killed; `evicted` jobs were re-queued.
    pub fn device_lost(&self, device: usize, evicted: usize) {
        self.count("serve.devices_lost", &[]);
        self.rec.flight("device_loss", || {
            format!("device {device} lost; {evicted} running job(s) evicted")
        });
    }

    /// A job reached a terminal state; `label` is
    /// [`crate::JobStatus::label`].
    pub fn terminal(&self, tenant: &str, label: &'static str) {
        match label {
            "completed" => self.count("serve.completed", &[("tenant", tenant)]),
            "failed" => self.count("serve.failed", &[("tenant", tenant)]),
            "cancelled" => self.count("serve.cancelled", &[("tenant", tenant)]),
            "deadline_exceeded" => {
                self.count("serve.deadline_exceeded", &[("tenant", tenant)]);
                self.rec
                    .flight("deadline", || format!("tenant '{tenant}' job deadlined"));
            }
            _ => self.count("serve.terminal_other", &[("tenant", tenant)]),
        }
    }

    /// Tenant queue depth after an enqueue/dequeue.
    pub fn queue_depth(&self, tenant: &str, depth: usize) {
        self.rec
            .registry()
            .set_gauge("serve.queue_depth", &[("tenant", tenant)], depth as f64);
    }

    /// End-to-end latency of a completed job (submit → terminal).
    pub fn latency_ms(&self, tenant: &str, ms: u64) {
        self.rec
            .registry()
            .observe("serve.latency_ms", &[("tenant", tenant)], ms);
    }

    /// Queue wait of a job's first attempt (submit → first run).
    pub fn queue_wait_ms(&self, tenant: &str, ms: u64) {
        self.rec
            .registry()
            .observe("serve.queue_wait_ms", &[("tenant", tenant)], ms);
    }

    /// A completed job reported ABFT invariant violations that were
    /// detected and repaired on `device`.
    pub fn integrity_violations(&self, device: usize, count: u64) {
        let dev = device.to_string();
        self.rec
            .registry()
            .add("serve.integrity_violations", &[("device", &dev)], count);
    }

    /// A health-board transition for a fleet device; `state` is
    /// [`qgpu_sched::HealthState::label`]. Quarantines and
    /// reinstatements are fault-class flight events; the gauge tracks
    /// how many devices remain schedulable without probing.
    pub fn health_transition(
        &self,
        device: usize,
        transition: &'static str,
        state: &'static str,
        healthy: usize,
    ) {
        self.count(
            "serve.health_transitions",
            &[("transition", transition), ("state", state)],
        );
        match transition {
            "quarantined" => {
                self.rec.add("serve.quarantines", 1);
                self.rec.flight("quarantine", || {
                    format!("fleet device {device} quarantined; {healthy} device(s) still healthy")
                });
            }
            "reinstated" => {
                self.rec.add("serve.reinstatements", 1);
                self.rec.flight("quarantine", || {
                    format!("fleet device {device} reinstated; {healthy} device(s) healthy")
                });
            }
            _ => {}
        }
        self.rec
            .registry()
            .set_gauge("serve.fleet_healthy", &[], healthy as f64);
    }

    /// A placement probe was routed to a quarantined device.
    pub fn probe(&self, device: usize) {
        self.count("serve.probes", &[("device", &device.to_string())]);
    }

    /// Shutdown decision and what the server did up to it, read back
    /// from the terminal counters.
    pub fn shutdown(&self, mode: &'static str) {
        self.rec.add("serve.shutdowns", 1);
        self.rec.flight("shutdown", || {
            let snap = self.rec.registry().snapshot();
            let drained = snap.counter_total("serve.completed");
            let aborted = snap.counter_total("serve.cancelled");
            format!("{mode} shutdown: {drained} job(s) drained, {aborted} aborted")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_land_flat_and_labeled() {
        let m = ServeMetrics::new(64);
        m.admitted("acme");
        m.admitted("acme");
        m.rejected("acme", "queue_full", true);
        m.admitted("zenith");
        let snap = m.recorder().registry().snapshot();
        assert_eq!(snap.counter_total("serve.admitted"), 3);
        assert_eq!(snap.counter_total("serve.shed"), 1);
        assert_eq!(snap.counter("serve.admitted{tenant=acme}"), Some(2));
        assert_eq!(snap.counter("serve.admitted"), None, "counted once");
        assert!(
            m.recorder().flight_triggered(),
            "a shed is a fault-class flight event"
        );
    }
}
