//! In-memory spans around the harness's calls into each layer.
//!
//! A span is `{id, parent, workload, name, start_ns, end_ns, calls}`; the
//! parent is whichever span was open on this (single) harness thread when it
//! started, and `calls` is how many identical calls the span covers (kernels
//! of a microsecond are timed in bulk). Every per-layer timing the trace
//! reports is the per-call duration of the spans of one name, so the span
//! file alone reproduces them.

use crate::json::Value;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub workload: String,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Milliseconds per covered call.
    pub fn ms_per_call(&self) -> f64 {
        self.duration_ns() as f64 / 1e6 / f64::from(self.calls)
    }
}

/// Records spans in memory; written out once, when the run ends.
pub struct Recorder {
    epoch: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            workload: String::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Label spans opened from now on with `workload`.
    pub fn set_workload(&mut self, workload: &str) {
        self.workload = workload.to_string();
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`; spans opened by `f` through the
    /// recorder it receives become children.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        self.scope_calls(name, 1, f)
    }

    /// A span that covers `calls` identical calls made by `f`.
    pub fn scope_calls<R>(
        &mut self,
        name: &str,
        calls: u32,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        assert!(calls > 0);
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            workload: self.workload.clone(),
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            calls,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Span around a leaf call.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        self.scope(name, |_| f())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Milliseconds per call of every span of `workload` called `name`, in
    /// recording order.
    pub fn durations_ms(&self, workload: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.workload == workload && s.name == name)
            .map(Span::ms_per_call)
            .collect()
    }
}

/// Self time of every span: its duration minus its direct children's.
/// Indexed like `spans` (ids are positions).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

pub fn to_json(spans: &[Span]) -> Value {
    Value::Arr(
        spans
            .iter()
            .map(|s| {
                Value::obj([
                    ("id", Value::Num(f64::from(s.id))),
                    ("parent", s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p)))),
                    ("workload", Value::str(&s.workload)),
                    ("name", Value::str(&s.name)),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    ("calls", Value::Num(f64::from(s.calls))),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            workload: "w".into(),
            name: format!("s{id}"),
            start_ns,
            end_ns,
            calls: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // 0 [0,100] has children 1 [10,40] and 2 [50,90]; 2 has child 3 [60,70].
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 50, 90),
            span(3, Some(2), 60, 70),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 30, 10]);
    }

    #[test]
    fn recorder_nests_spans_and_labels_the_workload() {
        let mut rec = Recorder::new();
        rec.set_workload("periodic_run");
        let got = rec.scope("outer", |r| {
            r.time("leaf", || 7);
            r.scope("mid", |r| r.time("leaf", || 35))
        });
        assert_eq!(got, 35);
        let s = rec.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent, s[3].parent),
            (None, Some(0), Some(0), Some(2))
        );
        assert!(s.iter().all(|x| x.workload == "periodic_run" && x.end_ns >= x.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[3].end_ns <= s[0].end_ns);
        assert_eq!(rec.durations_ms("periodic_run", "leaf").len(), 2);
        assert!(rec.durations_ms("open_run", "leaf").is_empty());
        let own = self_times_ns(s);
        assert!(own[0] <= s[0].duration_ns());
        rec.scope_calls("bulk", 4, |_| ());
        let bulk = rec.spans().last().unwrap();
        assert_eq!(bulk.calls, 4);
        assert_eq!(bulk.ms_per_call() * 4.0, bulk.duration_ns() as f64 / 1e6);
    }
}
