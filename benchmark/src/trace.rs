//! The harness's own spans, recorded around calls into each layer.
//!
//! Spans are kept in memory and written once, as a Chrome trace
//! (`chrome://tracing`, Perfetto), when the run ends. Each carries its
//! id, its parent's id and the workload's name; a layer's self time is
//! its span minus the part its children cover. With tracing off (the
//! end-to-end run) [`Tracer::span`] only calls the closure.

use std::collections::BTreeMap;
use std::time::Instant;

use qgpu_obs::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    /// Track the span is drawn on: 0 is the harness thread.
    pub track: u32,
}

pub struct Tracer {
    enabled: bool,
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(workload: &str, enabled: bool) -> Self {
        Tracer {
            enabled,
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the open one.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            id,
            parent,
            track: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize - 1].end_ns = self.now_ns();
        out
    }

    /// Adds a span timed elsewhere (a client thread), under the open one.
    /// Returns its id so children can name it as their parent.
    pub fn add(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        track: u32,
    ) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        let since = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: since(start),
            end_ns: since(end),
            id,
            parent: parent.unwrap_or_else(|| self.open.last().copied().unwrap_or(0)),
            track,
        });
        id
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Self time per span name in seconds: duration minus direct children.
    pub fn self_times(&self) -> BTreeMap<String, (u64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
        let mut by_name: BTreeMap<String, (u64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
            let e = by_name.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += own as f64 / 1e9;
        }
        by_name
    }

    /// The Chrome trace document: one complete (`X`) event per span.
    pub fn to_chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.clone())),
                    ("ph".into(), Json::Str("X".into())),
                    ("pid".into(), Json::Num(1.0)),
                    ("tid".into(), Json::Num(f64::from(s.track))),
                    ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                    (
                        "dur".into(),
                        Json::Num((s.end_ns - s.start_ns) as f64 / 1e3),
                    ),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("id".into(), Json::Num(f64::from(s.id))),
                            ("parent".into(), Json::Num(f64::from(s.parent))),
                            ("workload".into(), Json::Str(self.workload.clone())),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("displayTimeUnit".into(), Json::Str("ms".into())),
            ("traceEvents".into(), Json::Arr(events)),
        ])
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_name_their_parent_and_self_time_excludes_them() {
        let mut t = Tracer::new("w", true);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let doc = t.to_chrome_json();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        let parent_of_inner = events[1].get("args").and_then(|a| a.get("parent"));
        assert_eq!(parent_of_inner.and_then(Json::as_f64), Some(1.0));
        let own = t.self_times();
        assert!(own["inner"].1 >= 0.005);
        assert!(own["outer"].1 < own["inner"].1);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new("w", false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert_eq!(t.len(), 0);
    }
}
