//! Host-time spans recorded by the benchmark around each call it makes
//! into a layer of the program. Spans stay in memory and are written as
//! JSONL when the run ends; a disabled tracer records nothing and costs a
//! branch per call.

use std::collections::BTreeMap;
use std::time::Instant;

use ambit_repro::telemetry::json::escape;

/// One closed span. Ids are indices into the tracer's span list; `query`
/// is the closed-loop query the span belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub id: usize,
    pub parent: Option<usize>,
    pub query: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Name of the root span each query gets.
pub const QUERY: &str = "query";

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
    query: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            query: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open_span(&mut self, name: &'static str) {
        let id = self.spans.len();
        self.spans.push(SpanRecord {
            id,
            parent: self.open.last().copied(),
            query: self.query,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
    }

    fn close_span(&mut self) {
        let end = self.now_ns();
        if let Some(id) = self.open.pop() {
            self.spans[id].end_ns = end;
        }
    }

    /// Opens the root span of query `query`.
    pub fn begin_query(&mut self, query: u64) {
        if self.enabled {
            self.query = query;
            self.open_span(QUERY);
        }
    }

    /// Closes the root span opened by [`begin_query`](Self::begin_query).
    pub fn end_query(&mut self) {
        if self.enabled {
            self.close_span();
        }
    }

    /// Runs `f` inside a span named `name`, a child of the open query.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        self.open_span(name);
        let out = f();
        self.close_span();
        out
    }

    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children covers. Children may overlap one
/// another; overlapping time is subtracted once.
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per span name: (number of spans, summed self time in ns).
pub fn self_time_by_name(spans: &[SpanRecord]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += own;
    }
    out
}

/// The spans as JSON lines `{id, parent, query, name, start_ns, end_ns}`.
pub fn to_jsonl(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"query\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id,
            parent,
            s.query,
            escape(s.name),
            s.start_ns,
            s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ambit_repro::telemetry::json::Json;

    fn span(
        id: usize,
        parent: Option<usize>,
        name: &'static str,
        start: u64,
        end: u64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            query: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_overlapping_children() {
        let spans = [
            span(0, None, QUERY, 0, 100),
            // Two children overlapping on [20, 30): union [10, 40) = 30 ns.
            span(1, Some(0), "a", 10, 30),
            span(2, Some(0), "b", 20, 40),
            // A child poking past its parent counts only inside it.
            span(3, Some(0), "c", 90, 120),
            // A grandchild reduces its parent's self time, not the root's.
            span(4, Some(1), "d", 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 10, 20 - 6, 20, 30, 6]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name[QUERY], (1, 60));
        assert_eq!(by_name["a"], (1, 14));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        tr.begin_query(0);
        assert_eq!(tr.span("x", || 7), 7);
        tr.end_query();
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_nests_layer_spans_under_the_query() {
        let mut tr = Tracer::new(true);
        tr.begin_query(3);
        tr.span("x", || ());
        tr.end_query();
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent, s[0].query), (QUERY, None, 3));
        assert_eq!((s[1].name, s[1].parent, s[1].query), ("x", Some(0), 3));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let lines: Vec<Json> = to_jsonl(s)
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert_eq!(lines[1].get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[1].get("name").and_then(Json::as_str), Some("x"));
    }
}
