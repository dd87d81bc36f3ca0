//! Metric definitions and the per-layer breakdown of a traced run.

use ambit_repro::telemetry::Registry;

use crate::stats::Better;
use crate::trace::{self_time_by_name, SpanRecord, QUERY};
use crate::workloads::{Probe, SynthSummary};

/// An end-to-end metric: what a user of the simulator sees per workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may worsen before a
    /// comparison calls it a regression.
    pub bound: f64,
    /// Printed on the summary line and listed in `BENCHMARK.json`, whose
    /// consumers reject a metric that is 0, that never varies, or whose
    /// spread over seeds exceeds its bound. The simulated metrics repeat
    /// exactly and `failed_frac` must be 0, so the run gates them itself;
    /// `host_p90_ms` spread up to 0.22 over seeds on a shared 2-core host.
    pub summary: bool,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    summary: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        summary,
    }
}

/// Simulated DRAM nanoseconds, kept apart from host time by its unit.
pub const SIM_NS: &str = "sim_ns";

// Host timings drift 10-15 % between runs on a shared host, so their
// bounds are the widest a consumer of BENCHMARK.json accepts.
pub const END_TO_END: [MetricDef; 8] = [
    def("host_qps", "query/s", Better::Higher, 0.25, true),
    def("host_p50_ms", "ms", Better::Lower, 0.25, true),
    def("host_p90_ms", "ms", Better::Lower, 0.25, false),
    def("sim_query_ns", SIM_NS, Better::Lower, 0.0, false),
    def("sim_query_nj", "nJ", Better::Lower, 0.0, false),
    def("failed_frac", "ratio", Better::Lower, 0.0, false),
    def("setup_s", "s", Better::Lower, 0.25, true),
    def("peak_rss_mb", "MB", Better::Lower, 0.10, true),
];

/// Per-layer metrics of the traced run, in report order. Counts and busy
/// times are per query unless the name says otherwise.
pub const PER_LAYER: [(&str, &str, Better); 43] = [
    ("driver.bitwise.calls", "count", Better::Lower),
    ("driver.bitwise.busy_ms", "ms", Better::Lower),
    ("driver.execute_batch.busy_ms", "ms", Better::Lower),
    ("driver.popcount.busy_ms", "ms", Better::Lower),
    ("driver.plan_cache.hit_ratio", "ratio", Better::Higher),
    ("driver.us_per_chunk_op", "us", Better::Lower),
    ("batch.build.busy_ms", "ms", Better::Lower),
    ("batch.ops", "count", Better::Lower),
    ("batch.waves", "count", Better::Lower),
    ("batch.us_per_op", "us", Better::Lower),
    ("batch.bank_busy_frac", "ratio", Better::Higher),
    ("synth.compile_ms", "ms", Better::Lower),
    ("synth.aaps", "count", Better::Lower),
    ("synth.steps", "count", Better::Lower),
    ("synth.scratch_rows", "count", Better::Lower),
    ("timer.aaps", "count", Better::Lower),
    ("timer.aps", "count", Better::Lower),
    ("timer.activates", "count", Better::Lower),
    ("timer.precharges", "count", Better::Lower),
    ("timer.host_ns_per_aap", "ns", Better::Lower),
    ("subarray.charge_share.word", "count", Better::Higher),
    ("subarray.charge_share.scalar", "count", Better::Lower),
    ("subarray.word_ratio", "ratio", Better::Higher),
    ("subarray.tra", "count", Better::Lower),
    ("pool.jobs", "count", Better::Lower),
    ("pool.inline_jobs", "count", Better::Lower),
    ("pool.warm_dispatches", "count", Better::Higher),
    ("pool.cold_spawns", "count", Better::Lower),
    ("pool.queue_wait_us_p50", "us", Better::Lower),
    ("resilient.bitwise.busy_ms", "ms", Better::Lower),
    ("resilient.read.busy_ms", "ms", Better::Lower),
    ("resilient.faults_detected", "count", Better::Lower),
    ("resilient.retries", "count", Better::Lower),
    ("resilient.scrubs", "count", Better::Lower),
    ("resilient.remaps", "count", Better::Lower),
    ("resilient.cpu_fallbacks", "count", Better::Lower),
    ("resilient.corrected_bits", "count", Better::Lower),
    ("resilient.retry_ratio", "ratio", Better::Lower),
    ("resilient.added_latency_ns", SIM_NS, Better::Lower),
    ("sim_query_ns", SIM_NS, Better::Lower),
    ("sim_query_nj", "nJ", Better::Lower),
    ("trace.overhead_frac", "ratio", Better::Lower),
    ("trace.layer_coverage", "ratio", Better::Higher),
];

/// Everything a traced window leaves behind.
pub struct TracedWindow<'a> {
    pub spans: &'a [SpanRecord],
    pub before: Probe,
    pub after: Probe,
    pub registry: &'a Registry,
    pub queries: u64,
    pub synth: Option<SynthSummary>,
    pub sim_query_ns: f64,
    pub sim_query_nj: f64,
    pub untraced_qps: f64,
    pub traced_qps: f64,
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of a fixed-bucket histogram, read as the upper bound of the
/// bucket holding the middle observation (0 with no observations).
fn histogram_p50(registry: &Registry, name: &str) -> f64 {
    let Some(h) = registry.histogram_snapshot(name, &[]) else {
        return 0.0;
    };
    let mut seen = 0;
    for (i, &c) in h.counts.iter().enumerate() {
        seen += c;
        if c > 0 && 2 * seen >= h.count {
            return h.bounds.get(i).or(h.bounds.last()).copied().unwrap_or(0.0);
        }
    }
    0.0
}

/// The per-layer metrics of one traced window, in [`PER_LAYER`] order.
pub fn per_layer(w: &TracedWindow) -> Vec<(&'static str, &'static str, f64)> {
    // `values` is positional: its length is checked, its order is not.
    let by_name = self_time_by_name(w.spans);
    let self_ns = |name: &str| by_name.get(name).map_or(0, |&(_, ns)| ns) as f64;
    let calls = |name: &str| by_name.get(name).map_or(0, |&(n, _)| n) as f64;
    let q = w.queries as f64;
    let per_q = |v: f64| ratio(v, q);
    let busy_ms = |name: &str| per_q(self_ns(name) / 1e6);
    let d = |f: fn(&Probe) -> u64| (f(&w.after) - f(&w.before)) as f64;

    let query_ns: f64 = w
        .spans
        .iter()
        .filter(|s| s.name == QUERY)
        .map(|s| s.duration_ns() as f64)
        .sum();
    let hits = d(|p| p.plan_hits);
    let misses = d(|p| p.plan_misses);
    let chunk_ops = d(|p| p.tally.chunk_ops);
    let batch_ops = d(|p| p.tally.batch_ops);
    let aaps = d(|p| p.timer.aaps);
    let word = d(|p| p.subarray.word_parallel_charge_shares);
    let scalar = d(|p| p.subarray.scalar_charge_shares);
    let retries = d(|p| p.recovery.retries);
    let synth = w.synth;

    let values: [f64; PER_LAYER.len()] = [
        per_q(calls("driver.bitwise")),
        busy_ms("driver.bitwise"),
        busy_ms("driver.execute_batch"),
        busy_ms("driver.popcount"),
        ratio(hits, hits + misses),
        ratio(
            (self_ns("driver.bitwise") + self_ns("driver.execute_batch")) / 1e3,
            chunk_ops,
        ),
        busy_ms("batch.build"),
        per_q(batch_ops),
        per_q(d(|p| p.tally.batch_waves)),
        ratio(self_ns("driver.execute_batch") / 1e3, batch_ops),
        ratio(d(|p| p.tally.bank_busy_ps), d(|p| p.tally.bank_span_ps)),
        synth.map_or(0.0, |s| s.compile_ns as f64 / 1e6),
        synth.map_or(0.0, |s| s.aaps as f64),
        synth.map_or(0.0, |s| s.steps as f64),
        synth.map_or(0.0, |s| s.scratch_rows as f64),
        per_q(aaps),
        per_q(d(|p| p.timer.aps)),
        per_q(d(|p| p.timer.activates)),
        per_q(d(|p| p.timer.precharges)),
        ratio(query_ns, aaps),
        per_q(word),
        per_q(scalar),
        ratio(word, word + scalar),
        per_q(d(|p| p.subarray.triple_row_activations)),
        per_q(d(|p| p.pool.jobs_executed)),
        per_q(d(|p| p.pool.inline_jobs)),
        per_q(d(|p| p.pool.warm_dispatches)),
        per_q(d(|p| p.pool.cold_spawns)),
        histogram_p50(w.registry, "ambit_pool_queue_wait_us"),
        busy_ms("resilient.bitwise"),
        busy_ms("resilient.read"),
        per_q(d(|p| p.recovery.faults_detected)),
        per_q(retries),
        per_q(d(|p| p.recovery.scrubs)),
        per_q(d(|p| p.recovery.remaps)),
        per_q(d(|p| p.recovery.cpu_fallbacks)),
        per_q(d(|p| p.recovery.corrected_bits)),
        ratio(retries, d(|p| p.recovery.ops)),
        per_q(d(|p| p.recovery.added_latency_ps) / 1e3),
        w.sim_query_ns,
        w.sim_query_nj,
        1.0 - ratio(w.traced_qps, w.untraced_qps),
        1.0 - ratio(self_ns(QUERY), query_ns),
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), v)| (name, unit, v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ambit_repro::telemetry::json::Json;

    /// BENCHMARK.json at the repository root lists exactly the metrics
    /// this program reports: the summary end-to-end metrics with
    /// their units, directions and bounds, and every per-layer metric.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let e2e: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end list")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Json::as_f64).expect("bound"),
                )
            })
            .collect();
        let want: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .filter(|d| d.summary)
            .map(|d| {
                (
                    d.name.into(),
                    d.unit.into(),
                    d.better.as_str().into(),
                    d.bound,
                )
            })
            .collect();
        assert_eq!(e2e, want);
        let layers: Vec<(String, String, String)> = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer list")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect();
        let want: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n.into(), u.into(), b.as_str().into()))
            .collect();
        assert_eq!(layers, want);
    }

    #[test]
    fn histogram_median_reads_the_bucket_bound() {
        let reg = Registry::new();
        assert_eq!(histogram_p50(&reg, "h"), 0.0);
        let h = reg.histogram("h", "test", &[], &[1.0, 10.0, 100.0]);
        for v in [0.5, 5.0, 7.0, 50.0, 500.0] {
            h.observe(v);
        }
        assert_eq!(histogram_p50(&reg, "h"), 10.0);
        for _ in 0..10 {
            h.observe(1000.0);
        }
        // The middle observation lies past the last bound.
        assert_eq!(histogram_p50(&reg, "h"), 100.0);
    }
}
