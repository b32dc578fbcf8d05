//! The benchmark's own spans: one per call into a layer's public
//! functions, kept in memory and written out when the run ends.
//!
//! A span carries its name (`<layer>.<call>`), start, end, the span that
//! caused it and the id of the query it belongs to. A layer's *self time*
//! is its span's duration minus the part of that interval its children
//! cover (children may overlap: worker lanes run in parallel).

use mura_obs::json::Json;
use mura_obs::QueryTrace;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: Option<usize>,
    pub query: u64,
    /// Display lane in the Chrome trace (0 = the benchmark thread).
    pub lane: i64,
}

/// Per-name totals over a recording.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_us: u64,
    pub self_us: u64,
}

impl NameTotals {
    /// Mean self time per span, in microseconds.
    pub fn mean_self_us(&self) -> f64 {
        self.self_us as f64 / self.count.max(1) as f64
    }
}

/// Microseconds since the first span of the process.
fn now_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// In-memory span recorder of the benchmark thread.
#[derive(Default)]
pub struct Recorder {
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` nest
    /// under it. Returns `f`'s result and the span's index.
    pub fn scope<R>(
        &mut self,
        name: &str,
        query: u64,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> (R, usize) {
        let id = self.spans.len();
        let start_us = now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.stack.last().copied(),
            query,
            lane: 0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_us = now_us();
        (out, id)
    }

    /// Nests the program's own [`QueryTrace`] events under span `parent`
    /// (the `dist.execute` call that produced the trace). Event times are
    /// relative to the trace start, which is the call's start; worker-lane
    /// events keep their worker as the display lane.
    pub fn nest_trace(&mut self, parent: usize, trace: &QueryTrace) {
        let (base, limit, query) = {
            let p = &self.spans[parent];
            (p.start_us, p.end_us, p.query)
        };
        for e in trace.events.iter().filter(|e| e.dur_us > 0) {
            let start_us = (base + e.t_us).min(limit);
            self.spans.push(Span {
                name: format!("dist.{}", e.kind.name()),
                start_us,
                end_us: (start_us + e.dur_us).min(limit),
                parent: Some(parent),
                query,
                lane: i64::from(e.worker) + 1,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<String, NameTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_us, s.end_us));
            }
        }
        let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let dur = s.end_us - s.start_us;
            let t = out.entry(s.name.clone()).or_default();
            t.count += 1;
            t.total_us += dur;
            t.self_us += dur - covered(kids).min(dur);
        }
        out
    }

    /// Chrome-trace document (`traceEvents` of complete `X` events), with
    /// parent and query id under `args`.
    pub fn to_chrome_trace(&self) -> String {
        let num = |v: u64| Json::Num(v as f64);
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let args = Json::Obj(vec![
                    ("id".into(), num(i as u64)),
                    ("parent".into(), s.parent.map_or(Json::Null, |p| num(p as u64))),
                    ("query".into(), num(s.query)),
                ]);
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.clone())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), num(s.start_us)),
                    ("dur".into(), num(s.end_us - s.start_us)),
                    ("pid".into(), num(1)),
                    ("tid".into(), Json::Num(s.lane as f64)),
                    ("args".into(), args),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("displayTimeUnit".into(), Json::Str("ms".into())),
        ]);
        doc.to_string()
    }
}

/// Length of the union of `intervals` (sorted in place).
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children() {
        assert_eq!(covered(&mut [(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(covered(&mut []), 0);
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = Recorder::new();
        let (_, outer) = r.scope("a.outer", 7, |r| {
            r.scope("b.inner", 7, |_| std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let spans = r.spans();
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[1].query, 7);
        let t = r.totals();
        let (a, b) = (t["a.outer"], t["b.inner"]);
        assert_eq!(a.self_us, a.total_us - b.total_us);
        assert!(b.self_us >= 5_000 && b.self_us == b.total_us);
        let doc = Json::parse(&r.to_chrome_trace()).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 2);
    }
}
