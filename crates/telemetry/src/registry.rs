//! The instrument registry: named, labelled metric families plus the
//! span/event trace rings, with Prometheus text and JSONL exporters.
//!
//! The trace keeps the most recent [`TRACE_CAPACITY`] spans and, apart
//! from them, the most recent [`TRACE_CAPACITY`] events, so a registry
//! attached to a long run holds bounded memory; every record pushed out
//! counts in `ambit_telemetry_dropped_total{kind="span"|"event"}`.
//!
//! Registration is idempotent — asking for the same `(name, labels)` pair
//! twice returns a handle to the same underlying series — so components can
//! resolve their instruments at construction time and share the registry
//! freely. Handles are cheap clones; after registration the hot path only
//! performs relaxed atomic operations and never takes the registry lock.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::json;
use crate::metrics::{Counter, Gauge, Histogram};
use crate::span::{AttrValue, Event, Span};

/// A label set: key/value pairs in insertion order.
pub type Labels = Vec<(String, String)>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Series {
    labels: Labels,
    instrument: Instrument,
}

#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    kind: Kind,
    series: Vec<Series>,
}

/// Spans, and separately events, a registry retains: the most recent
/// 16,384 of each.
pub const TRACE_CAPACITY: usize = 16_384;

/// The most recent [`TRACE_CAPACITY`] records of one kind, oldest first.
#[derive(Debug)]
struct Ring<T> {
    records: VecDeque<T>,
    /// Records pushed out of the ring.
    dropped: Counter,
}

impl<T> Default for Ring<T> {
    fn default() -> Self {
        Ring { records: VecDeque::new(), dropped: Counter::new() }
    }
}

impl<T: Clone> Ring<T> {
    fn push(&mut self, record: T) {
        if self.records.len() == TRACE_CAPACITY {
            self.records.pop_front();
            self.dropped.inc();
        }
        self.records.push_back(record);
    }

    fn to_vec(&self) -> Vec<T> {
        self.records.iter().cloned().collect()
    }
}

#[derive(Debug, Default)]
struct Inner {
    families: Mutex<Vec<Family>>,
    spans: Mutex<Ring<Span>>,
    events: Mutex<Ring<Event>>,
}

/// A frozen view of one histogram series, for tests and snapshot writers.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Configured upper bounds (`+Inf` excluded).
    pub bounds: Vec<f64>,
    /// Non-cumulative bucket counts; final entry is the `+Inf` bucket.
    pub counts: Vec<u64>,
    /// Sum of all observations.
    pub sum: f64,
    /// Total number of observations.
    pub count: u64,
}

/// A shared registry of metric families and trace records.
///
/// `Registry` is `Clone` (it is an `Arc` internally): hand clones to every
/// instrumented component and render from any of them.
///
/// # Examples
///
/// ```
/// let reg = ambit_telemetry::Registry::new();
/// let acts = reg.counter("ambit_acts_total", "ACT commands issued", &[("bank", "0")]);
/// acts.add(3);
/// let text = reg.render_prometheus();
/// assert!(text.contains("ambit_acts_total{bank=\"0\"} 3"));
/// ```
#[derive(Debug, Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// A registry holding only its own dropped-record counters.
    pub fn new() -> Self {
        let reg = Registry { inner: Arc::default() };
        let dropped = |kind| {
            let help = "Trace records pushed out of the registry's bounded rings";
            reg.counter("ambit_telemetry_dropped_total", help, &[("kind", kind)])
        };
        lock(&reg.inner.spans).dropped = dropped("span");
        lock(&reg.inner.events).dropped = dropped("event");
        reg
    }

    fn instrument(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: Kind,
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        assert!(!name.is_empty(), "metric name must not be empty");
        let labels: Labels = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut families = lock(&self.inner.families);
        if let Some(family) = families.iter_mut().find(|f| f.name == name) {
            assert!(
                family.kind == kind,
                "metric '{name}' already registered as a {}, requested as a {}",
                family.kind.as_str(),
                kind.as_str()
            );
            if let Some(series) = family.series.iter().find(|s| s.labels == labels) {
                return series.instrument.clone();
            }
            let instrument = make();
            family.series.push(Series {
                labels,
                instrument: instrument.clone(),
            });
            return instrument;
        }
        let instrument = make();
        families.push(Family {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            series: vec![Series {
                labels,
                instrument: instrument.clone(),
            }],
        });
        instrument
    }

    /// Registers (or fetches) a counter series.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different instrument
    /// kind, or if `name` is empty.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.instrument(name, help, labels, Kind::Counter, || {
            Instrument::Counter(Counter::new())
        }) {
            Instrument::Counter(c) => c,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Registers (or fetches) a gauge series.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different instrument
    /// kind, or if `name` is empty.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.instrument(name, help, labels, Kind::Gauge, || {
            Instrument::Gauge(Gauge::new())
        }) {
            Instrument::Gauge(g) => g,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Registers (or fetches) a histogram series with the given bucket
    /// bounds. When fetching an existing series, the stored bounds win.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different instrument
    /// kind, if `name` is empty, or if `bounds` are invalid (see
    /// [`Histogram::new`]).
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        match self.instrument(name, help, labels, Kind::Histogram, || {
            Instrument::Histogram(Histogram::new(bounds))
        }) {
            Instrument::Histogram(h) => h,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Records a completed span into the trace ring, pushing out the
    /// oldest span once the ring holds [`TRACE_CAPACITY`].
    pub fn record_span(&self, span: Span) {
        lock(&self.inner.spans).push(span);
    }

    /// Records a point-in-time event into the trace ring, pushing out the
    /// oldest event once the ring holds [`TRACE_CAPACITY`].
    pub fn record_event(&self, event: Event) {
        lock(&self.inner.events).push(event);
    }

    /// The retained spans (the most recent [`TRACE_CAPACITY`]), in
    /// recording order.
    pub fn spans(&self) -> Vec<Span> {
        lock(&self.inner.spans).to_vec()
    }

    /// The retained events (the most recent [`TRACE_CAPACITY`]), in
    /// recording order.
    pub fn events(&self) -> Vec<Event> {
        lock(&self.inner.events).to_vec()
    }

    /// Current value of a counter series, if registered.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.lookup(name, labels)? {
            Instrument::Counter(c) => Some(c.get()),
            _ => None,
        }
    }

    /// Sum of every series in a counter family (e.g. total ACTs across all
    /// per-bank series), if the family is registered.
    pub fn counter_family_total(&self, name: &str) -> Option<u64> {
        let families = lock(&self.inner.families);
        let family = families.iter().find(|f| f.name == name)?;
        if family.kind != Kind::Counter {
            return None;
        }
        Some(
            family
                .series
                .iter()
                .map(|s| match &s.instrument {
                    Instrument::Counter(c) => c.get(),
                    _ => 0,
                })
                .sum(),
        )
    }

    /// Current value of a gauge series, if registered.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.lookup(name, labels)? {
            Instrument::Gauge(g) => Some(g.get()),
            _ => None,
        }
    }

    /// A frozen view of a histogram series, if registered.
    pub fn histogram_snapshot(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<HistogramSnapshot> {
        match self.lookup(name, labels)? {
            Instrument::Histogram(h) => Some(HistogramSnapshot {
                bounds: h.bounds().to_vec(),
                counts: h.bucket_counts(),
                sum: h.sum(),
                count: h.count(),
            }),
            _ => None,
        }
    }

    fn lookup(&self, name: &str, labels: &[(&str, &str)]) -> Option<Instrument> {
        let families = lock(&self.inner.families);
        let family = families.iter().find(|f| f.name == name)?;
        family
            .series
            .iter()
            .find(|s| {
                s.labels.len() == labels.len()
                    && s.labels
                        .iter()
                        .zip(labels)
                        .all(|((k, v), (lk, lv))| k == lk && v == lv)
            })
            .map(|s| s.instrument.clone())
    }

    /// Renders every family in the Prometheus text exposition format.
    ///
    /// Families appear in registration order, series in registration order
    /// within a family, so output is deterministic for a deterministic run.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let families = lock(&self.inner.families);
        for family in families.iter() {
            out.push_str(&format!("# HELP {} {}\n", family.name, family.help));
            out.push_str(&format!(
                "# TYPE {} {}\n",
                family.name,
                family.kind.as_str()
            ));
            for series in &family.series {
                match &series.instrument {
                    Instrument::Counter(c) => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            family.name,
                            label_block(&series.labels, None),
                            c.get()
                        ));
                    }
                    Instrument::Gauge(g) => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            family.name,
                            label_block(&series.labels, None),
                            fmt_f64(g.get())
                        ));
                    }
                    Instrument::Histogram(h) => {
                        let cumulative = h.cumulative_counts();
                        for (i, bound) in h.bounds().iter().enumerate() {
                            out.push_str(&format!(
                                "{}_bucket{} {}\n",
                                family.name,
                                label_block(&series.labels, Some(&fmt_f64(*bound))),
                                cumulative[i]
                            ));
                        }
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            family.name,
                            label_block(&series.labels, Some("+Inf")),
                            cumulative[cumulative.len() - 1]
                        ));
                        out.push_str(&format!(
                            "{}_sum{} {}\n",
                            family.name,
                            label_block(&series.labels, None),
                            fmt_f64(h.sum())
                        ));
                        out.push_str(&format!(
                            "{}_count{} {}\n",
                            family.name,
                            label_block(&series.labels, None),
                            h.count()
                        ));
                    }
                }
            }
        }
        out
    }

    /// Exports the retained spans and events as JSON Lines, one record per
    /// line, spans first (recording order), then events.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for span in self.spans() {
            out.push_str(&format!(
                "{{\"type\":\"span\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"attrs\":{}}}\n",
                json::escape(&span.name),
                span.start_ns,
                span.end_ns,
                attrs_json(&span.attrs)
            ));
        }
        for event in self.events() {
            out.push_str(&format!(
                "{{\"type\":\"event\",\"name\":\"{}\",\"at_ns\":{},\"attrs\":{}}}\n",
                json::escape(&event.name),
                event.at_ns,
                attrs_json(&event.attrs)
            ));
        }
        out
    }
}

fn attrs_json(attrs: &[(String, AttrValue)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":", json::escape(k)));
        match v {
            AttrValue::Str(s) => out.push_str(&format!("\"{}\"", json::escape(s))),
            AttrValue::Int(n) => out.push_str(&n.to_string()),
            AttrValue::Float(f) => out.push_str(&json::number(*f)),
            AttrValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
    out.push('}');
    out
}

/// Formats `{k="v",...}` (empty string when there are no labels), with an
/// optional trailing `le` label for histogram buckets.
/// Locks one of the registry's mutexes, recovering from poisoning. Every
/// update under these locks is a single `push`, and the only panics that
/// can fire while one is held (registration's kind and bucket-bound checks)
/// fire before any update, so the data is whole whichever thread panicked:
/// a crashed instrumented thread must not take the scrape down.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn label_block(labels: &Labels, le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", prom_escape(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Escapes a Prometheus label value (backslash, double-quote, newline).
fn prom_escape(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Formats an `f64` for exposition using Rust's shortest round-trip form
/// (Prometheus accepts integral values with or without a fraction).
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let reg = Registry::new();
        let a = reg.counter("c_total", "help", &[("bank", "1")]);
        let b = reg.counter("c_total", "help", &[("bank", "1")]);
        a.inc();
        b.inc();
        assert_eq!(reg.counter_value("c_total", &[("bank", "1")]), Some(2));
    }

    #[test]
    fn family_total_sums_series() {
        let reg = Registry::new();
        reg.counter("acts_total", "h", &[("bank", "0")]).add(3);
        reg.counter("acts_total", "h", &[("bank", "1")]).add(4);
        assert_eq!(reg.counter_family_total("acts_total"), Some(7));
        assert_eq!(reg.counter_family_total("missing"), None);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("m", "h", &[]);
        reg.gauge("m", "h", &[]);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let reg = Registry::new();
        reg.counter("ops_total", "operations", &[("op", "and")]).add(2);
        reg.gauge("degraded", "degraded flag", &[]).set(1.0);
        let h = reg.histogram("lat_ns", "latency", &[], &[50.0, 100.0]);
        h.observe(49.0);
        h.observe(250.0);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE ops_total counter"));
        assert!(text.contains("ops_total{op=\"and\"} 2"));
        assert!(text.contains("degraded 1"));
        assert!(text.contains("lat_ns_bucket{le=\"50\"} 1"));
        assert!(text.contains("lat_ns_bucket{le=\"100\"} 1"));
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_ns_sum 299"));
        assert!(text.contains("lat_ns_count 2"));
    }

    #[test]
    fn histogram_snapshot_reads_back() {
        let reg = Registry::new();
        let h = reg.histogram("e", "h", &[], &[1.0]);
        h.observe(0.5);
        h.observe(2.0);
        let snap = reg.histogram_snapshot("e", &[]).unwrap();
        assert_eq!(snap.counts, vec![1, 1]);
        assert_eq!(snap.count, 2);
        assert!((snap.sum - 2.5).abs() < 1e-12);
    }

    #[test]
    fn jsonl_round_trips() {
        use crate::json::Json;
        let reg = Registry::new();
        reg.record_span(Span::new("op", 0, 49).attr("kind", "and").attr("aaps", 4u64));
        reg.record_event(Event::new("inject", 10).attr("stuck", true));
        let jsonl = reg.export_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        let span = Json::parse(lines[0]).unwrap();
        assert_eq!(span.get("type").unwrap().as_str(), Some("span"));
        assert_eq!(span.get("end_ns").unwrap().as_u64(), Some(49));
        assert_eq!(
            span.get("attrs").unwrap().get("aaps").unwrap().as_u64(),
            Some(4)
        );
        let event = Json::parse(lines[1]).unwrap();
        assert_eq!(event.get("attrs").unwrap().get("stuck"), Some(&Json::Bool(true)));
    }

    #[test]
    fn rings_keep_the_most_recent_records_and_count_the_rest() {
        let reg = Registry::new();
        let dropped = |kind| reg.counter_value("ambit_telemetry_dropped_total", &[("kind", kind)]);
        assert_eq!((dropped("span"), dropped("event")), (Some(0), Some(0)));
        for i in 0..TRACE_CAPACITY as u64 + 5 {
            reg.record_span(Span::new("op", i, i + 1));
        }
        reg.record_event(Event::new("inject", 0));
        let spans = reg.spans();
        assert_eq!(spans.len(), TRACE_CAPACITY);
        assert_eq!(spans[0].start_ns, 5, "the five oldest were dropped");
        assert_eq!((dropped("span"), dropped("event")), (Some(5), Some(0)));
        assert_eq!(reg.events().len(), 1);
        let text = reg.render_prometheus();
        assert!(text.contains("ambit_telemetry_dropped_total{kind=\"span\"} 5"), "{text}");
    }

    #[test]
    fn poisoned_locks_recover_and_scrape() {
        let reg = Registry::new();
        reg.counter("jobs_total", "Jobs", &[]).inc();
        reg.record_span(Span::new("before", 0, 1));
        // A kind mismatch panics inside registration with the family lock
        // held; a second thread panics holding the span lock.
        let shared = reg.clone();
        let mismatch = std::thread::spawn(move || {
            shared.gauge("jobs_total", "Jobs", &[]);
        });
        assert!(mismatch.join().is_err());
        let shared = reg.clone();
        let crashed = std::thread::spawn(move || {
            let _spans = shared.inner.spans.lock();
            panic!("instrumented thread crashed");
        });
        assert!(crashed.join().is_err());
        assert!(reg.inner.families.is_poisoned());
        assert!(reg.inner.spans.is_poisoned());

        reg.counter("jobs_total", "Jobs", &[]).inc();
        reg.record_span(Span::new("after", 1, 2));
        assert!(reg.render_prometheus().contains("jobs_total 2"));
        assert_eq!(reg.counter_value("jobs_total", &[]), Some(2));
        assert_eq!(reg.spans().len(), 2);
        assert_eq!(reg.export_jsonl().lines().count(), 2);
    }
}
