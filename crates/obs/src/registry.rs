//! The metrics store: typed, labeled series.
//!
//! Every metric a run or a server records lives here, once: a *name*
//! plus an ordered list of *labels* (`stage`, `version`, `device`,
//! `tenant`, ...; none for a plain count). [`crate::span::Recorder`]
//! carries one registry and its `add`/`observe` calls write unlabeled
//! series into it.
//!
//! Three metric kinds, mirroring the usual time-series vocabulary:
//!
//! * **counters** — monotone `u64` sums ([`Registry::add`]);
//! * **gauges** — last-write-wins `f64` levels ([`Registry::set_gauge`]);
//! * **histograms** — percentile-accurate [`HdrHistogram`]s
//!   ([`Registry::observe`]).
//!
//! A [`RegistrySnapshot`] freezes everything into plain sorted data for
//! run results and JSON. The flat per-name view (`.counters["serve.shed"]`
//! in a `--metrics-out` document) is *derived* from it:
//! [`RegistrySnapshot::counter_total`] sums a name over its label sets.

use std::fmt::Write as _;

use parking_lot::Mutex;

use crate::hdr::{HdrHistogram, HdrSnapshot};
use crate::json::Json;
use crate::meta::RunMeta;

/// Metric identity: a static name plus ordered `(key, value)` labels.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Key {
    name: &'static str,
    labels: Vec<(&'static str, String)>,
}

impl Key {
    fn matches(&self, name: &str, labels: &[(&'static str, &str)]) -> bool {
        self.name == name
            && self.labels.len() == labels.len()
            && self
                .labels
                .iter()
                .zip(labels)
                .all(|((ak, av), (bk, bv))| ak == bk && av == bv)
    }

    fn owned(name: &'static str, labels: &[(&'static str, &str)]) -> Key {
        Key {
            name,
            labels: labels.iter().map(|&(k, v)| (k, v.to_string())).collect(),
        }
    }

    /// Prometheus-flavoured rendering: `name{k=v,k=v}` (bare name when
    /// unlabeled). Used as the stable sort key in snapshots.
    fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.to_string();
        }
        let mut s = String::from(self.name);
        s.push('{');
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{k}={v}");
        }
        s.push('}');
        s
    }
}

#[derive(Default)]
struct Inner {
    counters: Vec<(Key, u64)>,
    gauges: Vec<(Key, f64)>,
    hists: Vec<(Key, HdrHistogram)>,
}

/// Thread-safe labeled metrics store. Lookup is a linear scan with a
/// no-allocation key compare — metric cardinality is tens of series, and
/// the hot engine path batches its observations per gate, so a lock +
/// scan is far below measurement noise (see the `obs_overhead` bench).
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter `name{labels}`, creating it at zero first.
    pub fn add(&self, name: &'static str, labels: &[(&'static str, &str)], n: u64) {
        *slot(&mut self.inner.lock().counters, name, labels, || 0) += n;
    }

    /// Sets the gauge `name{labels}` to `v` (last write wins).
    pub fn set_gauge(&self, name: &'static str, labels: &[(&'static str, &str)], v: f64) {
        *slot(&mut self.inner.lock().gauges, name, labels, || 0.0) = v;
    }

    /// Records one sample into the HDR histogram `name{labels}`.
    pub fn observe(&self, name: &'static str, labels: &[(&'static str, &str)], value: u64) {
        self.observe_n(name, labels, value, 1);
    }

    /// Records `n` identical samples into the histogram `name{labels}` —
    /// the bulk form for per-gate aggregates ("`k` chunks of
    /// `chunk_bytes` each"), one touch per gate instead of one per chunk.
    pub fn observe_n(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        value: u64,
        n: u64,
    ) {
        slot(
            &mut self.inner.lock().hists,
            name,
            labels,
            HdrHistogram::new,
        )
        .record_n(value, n);
    }

    /// Records every value into the histogram `name{labels}` under one
    /// lock — for per-chunk series, where a lock per value would
    /// dominate. No values, no series.
    pub fn observe_all(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        values: impl IntoIterator<Item = u64>,
    ) {
        let mut values = values.into_iter().peekable();
        if values.peek().is_none() {
            return;
        }
        let mut inner = self.inner.lock();
        let h = slot(&mut inner.hists, name, labels, HdrHistogram::new);
        values.for_each(|v| h.record(v));
    }

    /// Freezes the registry into plain sorted data.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.inner.lock();
        RegistrySnapshot {
            counters: freeze(&inner.counters, |v| *v),
            gauges: freeze(&inner.gauges, |v| *v),
            histograms: freeze(&inner.hists, HdrHistogram::snapshot),
        }
    }
}

/// The series `name{labels}` of one kind, created by `new` on first touch.
fn slot<'a, T>(
    series: &'a mut Vec<(Key, T)>,
    name: &'static str,
    labels: &[(&'static str, &str)],
    new: impl FnOnce() -> T,
) -> &'a mut T {
    let i = series
        .iter()
        .position(|(k, _)| k.matches(name, labels))
        .unwrap_or_else(|| {
            series.push((Key::owned(name, labels), new()));
            series.len() - 1
        });
    &mut series[i].1
}

/// One kind's series as snapshot entries, sorted by rendered key.
fn freeze<T, U>(series: &[(Key, T)], value: impl Fn(&T) -> U) -> Vec<MetricEntry<U>> {
    let mut out: Vec<MetricEntry<U>> = series
        .iter()
        .map(|(k, v)| MetricEntry {
            rendered: k.render(),
            name: k.name.to_string(),
            labels: k
                .labels
                .iter()
                .map(|(lk, lv)| (lk.to_string(), lv.clone()))
                .collect(),
            value: value(v),
        })
        .collect();
    out.sort_by(|a, b| a.rendered.cmp(&b.rendered));
    out
}

/// One frozen metric series: its name, labels, the Prometheus-style
/// rendered key, and the value.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricEntry<T> {
    /// `name{k=v,...}` rendering — the stable sort / JSON key.
    pub rendered: String,
    /// Bare metric name.
    pub name: String,
    /// Ordered `(key, value)` labels.
    pub labels: Vec<(String, String)>,
    /// The frozen value.
    pub value: T,
}

impl<T> MetricEntry<T> {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Frozen view of a [`Registry`], sorted by rendered key so every
/// serialization of the same state is byte-identical.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegistrySnapshot {
    /// Monotone counters.
    pub counters: Vec<MetricEntry<u64>>,
    /// Last-write-wins gauges.
    pub gauges: Vec<MetricEntry<f64>>,
    /// HDR histogram summaries.
    pub histograms: Vec<MetricEntry<HdrSnapshot>>,
}

impl RegistrySnapshot {
    /// Histogram entries with the given metric name.
    pub fn histograms_named<'a>(
        &'a self,
        name: &'a str,
    ) -> impl Iterator<Item = &'a MetricEntry<HdrSnapshot>> {
        self.histograms.iter().filter(move |e| e.name == name)
    }

    /// The counter `name` with exactly the given labels, if recorded.
    pub fn counter(&self, rendered: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|e| e.rendered == rendered)
            .map(|e| e.value)
    }

    /// The counter `name` summed over every label set it was recorded
    /// with (0 when it never was) — the flat per-name view.
    pub fn counter_total(&self, name: &str) -> u64 {
        let named = self.counters.iter().filter(|e| e.name == name);
        named.map(|e| e.value).sum()
    }

    /// The `--metrics-out` document, the one shape `qgpu-sim` and
    /// `qgpu-load` both write: provenance, the flat view
    /// (`{name: counter_total(name)}`), then the labeled registry.
    pub fn document(&self, meta: &RunMeta) -> Json {
        let mut totals = std::collections::BTreeMap::<&str, u64>::new();
        for e in &self.counters {
            *totals.entry(&e.name).or_default() += e.value;
        }
        let flat = totals
            .into_iter()
            .map(|(name, v)| (name.to_string(), Json::Num(v as f64)))
            .collect();
        Json::Obj(vec![
            ("meta".to_string(), meta.to_json()),
            ("counters".to_string(), Json::Obj(flat)),
            ("registry".to_string(), self.to_json()),
        ])
    }

    /// JSON rendering:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {key: {count,...,p999}}}`.
    pub fn to_json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|e| (e.rendered.clone(), Json::Num(e.value as f64)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|e| (e.rendered.clone(), Json::Num(e.value)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|e| {
                let h = &e.value;
                let fields = vec![
                    ("count".to_string(), Json::Num(h.count as f64)),
                    ("sum".to_string(), Json::Num(h.sum as f64)),
                    ("min".to_string(), Json::Num(h.min as f64)),
                    ("max".to_string(), Json::Num(h.max as f64)),
                    ("p50".to_string(), Json::Num(h.p50 as f64)),
                    ("p90".to_string(), Json::Num(h.p90 as f64)),
                    ("p99".to_string(), Json::Num(h.p99 as f64)),
                    ("p999".to_string(), Json::Num(h.p999 as f64)),
                ];
                (e.rendered.clone(), Json::Obj(fields))
            })
            .collect();
        Json::Obj(vec![
            ("counters".to_string(), Json::Obj(counters)),
            ("gauges".to_string(), Json::Obj(gauges)),
            ("histograms".to_string(), Json::Obj(histograms)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let r = Registry::new();
        r.add("tasks", &[("device", "0")], 3);
        r.add("tasks", &[("device", "1")], 5);
        r.add("tasks", &[("device", "0")], 4);
        let s = r.snapshot();
        assert_eq!(s.counter("tasks{device=0}"), Some(7));
        assert_eq!(s.counter("tasks{device=1}"), Some(5));
        assert_eq!(s.counter("tasks{device=2}"), None);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let r = Registry::new();
        r.set_gauge("window", &[], 4.0);
        r.set_gauge("window", &[], 2.0);
        let s = r.snapshot();
        assert_eq!(s.gauges.len(), 1);
        assert_eq!(s.gauges[0].value, 2.0);
    }

    #[test]
    fn histograms_track_labeled_distributions() {
        let r = Registry::new();
        for i in 1..=100u64 {
            r.observe("lat", &[("stage", "kernel")], i * 1000);
        }
        let s = r.snapshot();
        let e = s.histograms_named("lat").next().expect("recorded");
        assert_eq!(e.label("stage"), Some("kernel"));
        assert_eq!(e.value.count, 100);
        assert!(
            e.value.p50 >= 45_000 && e.value.p50 <= 55_000,
            "{}",
            e.value.p50
        );
        assert!(e.value.p99 >= 95_000, "{}", e.value.p99);
    }

    #[test]
    fn flat_view_sums_a_name_over_its_label_sets() {
        let r = Registry::new();
        r.add("serve.shed", &[("tenant", "a")], 2);
        r.add("serve.shed", &[("tenant", "b")], 3);
        r.add("serve.shedding", &[], 7);
        r.observe_all("ratio", &[], [10, 30]);
        r.observe_all("never", &[], []);
        let s = r.snapshot();
        assert_eq!(s.counter_total("serve.shed"), 5);
        assert_eq!(s.counter_total("serve.shedding"), 7);
        assert_eq!(s.counter_total("missing"), 0);
        let ratio = s.histograms_named("ratio").next().expect("recorded");
        assert_eq!((ratio.value.count, ratio.value.sum), (2, 40));
        assert!(s.histograms_named("never").next().is_none());

        let meta = RunMeta::collect("t", 1, "cfg", "0.0.0");
        let doc = Json::parse(&s.document(&meta).to_string()).expect("valid JSON");
        let flat = doc.get("counters").expect("flat view");
        assert_eq!(flat.get("serve.shed"), Some(&Json::Num(5.0)));
        assert_eq!(flat.get("serve.shedding"), Some(&Json::Num(7.0)));
        assert!(doc.get("meta").and_then(|m| m.get("config_hash")).is_some());
        let labeled = doc.get("registry").and_then(|r| r.get("counters"));
        assert_eq!(
            labeled.and_then(|c| c.get("serve.shed{tenant=a}")),
            Some(&Json::Num(2.0))
        );
    }

    #[test]
    fn snapshot_is_sorted_and_json_renders() {
        let r = Registry::new();
        r.add("z", &[], 1);
        r.add("a", &[], 1);
        let s = r.snapshot();
        assert_eq!(s.counters[0].rendered, "a");
        assert_eq!(s.counters[1].rendered, "z");
        let text = s.to_json().to_string();
        assert!(text.contains("\"counters\""));
        assert!(text.contains("\"histograms\""));
    }
}
