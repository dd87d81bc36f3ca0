//! One run's result as a JSON line: what `--out` appends and `--compare`
//! reads, plus the summary line every run prints last.

use ambit_repro::telemetry::json::{escape, number, Json};

use crate::metrics::END_TO_END;

/// The host a run measured on, so results from different PRs compare.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    pub available_parallelism: u64,
    pub pool_target_workers: u64,
    pub cpu_model: String,
}

impl Host {
    pub fn detect(pool_target_workers: usize) -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            available_parallelism: std::thread::available_parallelism()
                .map_or(1, |n| n.get() as u64),
            pool_target_workers: pool_target_workers as u64,
            cpu_model,
        }
    }
}

/// One end-to-end metric as measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// Samples behind the value (queries, set-ups, or 1).
    pub samples: u64,
}

/// One per-layer metric of a traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerValue {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub host: Host,
    pub metrics: Vec<Measured>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<LayerValue>,
}

fn value_json(name: &str, unit: &str, value: f64) -> String {
    format!(
        "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
        escape(name),
        number(value),
        escape(unit)
    )
}

impl RunRecord {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The full record on one line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\":\"{}\",\"unit\":\"{}\",\"value\":{},\"samples\":{}}}",
                    escape(&m.name),
                    escape(&m.unit),
                    number(m.value),
                    m.samples
                )
            })
            .collect();
        let layers: Vec<String> = self
            .per_layer
            .iter()
            .map(|l| {
                format!(
                    "{{\"name\":\"{}\",\"unit\":\"{}\",\"value\":{}}}",
                    escape(&l.name),
                    escape(&l.unit),
                    number(l.value)
                )
            })
            .collect();
        format!(
            "{{\"schema\":1,\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"traced\":{},\
             \"correct\":{},\"attempted\":{},\"failed\":{},\
             \"host\":{{\"available_parallelism\":{},\"pool_target_workers\":{},\"cpu_model\":\"{}\"}},\
             \"metrics\":[{}],\"per_layer\":[{}]}}",
            escape(&self.workload),
            self.seed,
            number(self.seconds),
            self.traced,
            self.correct,
            self.attempted,
            self.failed,
            self.host.available_parallelism,
            self.host.pool_target_workers,
            escape(&self.host.cpu_model),
            metrics.join(","),
            layers.join(",")
        )
    }

    /// Parses a line written by [`to_json`](Self::to_json).
    pub fn from_json(line: &str) -> Result<RunRecord, String> {
        let doc = Json::parse(line).map_err(|e| e.to_string())?;
        let field = |j: &Json, k: &str| j.get(k).cloned().ok_or(format!("missing field '{k}'"));
        let str_of = |j: &Json, k: &str| {
            field(j, k)?
                .as_str()
                .map(str::to_string)
                .ok_or(format!("'{k}' is not a string"))
        };
        let u64_of =
            |j: &Json, k: &str| field(j, k)?.as_u64().ok_or(format!("'{k}' is not a count"));
        let f64_of = |j: &Json, k: &str| {
            field(j, k)?
                .as_f64()
                .ok_or(format!("'{k}' is not a number"))
        };
        let bool_of = |j: &Json, k: &str| match field(j, k)? {
            Json::Bool(b) => Ok(b),
            _ => Err(format!("'{k}' is not a boolean")),
        };
        let list = |k: &str| {
            field(&doc, k)?
                .as_arr()
                .map(<[Json]>::to_vec)
                .ok_or(format!("'{k}' is not a list"))
        };
        let host = field(&doc, "host")?;
        Ok(RunRecord {
            workload: str_of(&doc, "workload")?,
            seed: u64_of(&doc, "seed")?,
            seconds: f64_of(&doc, "seconds")?,
            traced: bool_of(&doc, "traced")?,
            correct: bool_of(&doc, "correct")?,
            attempted: u64_of(&doc, "attempted")?,
            failed: u64_of(&doc, "failed")?,
            host: Host {
                available_parallelism: u64_of(&host, "available_parallelism")?,
                pool_target_workers: u64_of(&host, "pool_target_workers")?,
                cpu_model: str_of(&host, "cpu_model")?,
            },
            metrics: list("metrics")?
                .iter()
                .map(|m| {
                    Ok(Measured {
                        name: str_of(m, "name")?,
                        unit: str_of(m, "unit")?,
                        value: f64_of(m, "value")?,
                        samples: u64_of(m, "samples")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            per_layer: list("per_layer")?
                .iter()
                .map(|m| {
                    Ok(LayerValue {
                        name: str_of(m, "name")?,
                        unit: str_of(m, "unit")?,
                        value: f64_of(m, "value")?,
                    })
                })
                .collect::<Result<_, String>>()?,
        })
    }

    /// The line a run prints last: `correct`, `attempted`, `failed`, and
    /// the summary end-to-end metrics of an untraced run or the per-layer
    /// metrics of a traced one.
    pub fn summary_line(&self) -> String {
        let values: Vec<String> = if self.traced {
            self.per_layer
                .iter()
                .map(|l| value_json(&l.name, &l.unit, l.value))
                .collect()
        } else {
            END_TO_END
                .iter()
                .filter(|d| d.summary)
                .filter_map(|d| self.metric(d.name).map(|v| value_json(d.name, d.unit, v)))
                .collect()
        };
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            values.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(traced: bool) -> RunRecord {
        RunRecord {
            workload: "bitmap_query".into(),
            seed: 7,
            seconds: 10.0,
            traced,
            correct: true,
            attempted: 431,
            failed: 0,
            host: Host {
                available_parallelism: 2,
                pool_target_workers: 2,
                cpu_model: "Example \"CPU\" @ 2.0GHz".into(),
            },
            metrics: END_TO_END
                .iter()
                .enumerate()
                .map(|(i, d)| Measured {
                    name: d.name.into(),
                    unit: d.unit.into(),
                    value: 0.1 + i as f64 / 3.0,
                    samples: 431,
                })
                .collect(),
            per_layer: if traced {
                vec![LayerValue {
                    name: "timer.aaps".into(),
                    unit: "count".into(),
                    value: 17_408.0,
                }]
            } else {
                Vec::new()
            },
        }
    }

    #[test]
    fn record_round_trips_through_the_telemetry_json_parser() {
        for traced in [false, true] {
            let r = record(traced);
            assert_eq!(RunRecord::from_json(&r.to_json()), Ok(r));
        }
        assert!(RunRecord::from_json("{\"schema\":1}").is_err());
    }

    #[test]
    fn summary_line_carries_host_metrics_or_layers() {
        let untraced = Json::parse(&record(false).summary_line()).unwrap();
        let metrics = untraced.get("metrics").and_then(Json::as_obj).unwrap();
        let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
        assert_eq!(names, ["host_p50_ms", "host_qps", "peak_rss_mb", "setup_s"]);
        assert_eq!(
            metrics["host_qps"].get("unit").and_then(Json::as_str),
            Some("query/s")
        );
        assert_eq!(untraced.get("attempted").and_then(Json::as_u64), Some(431));
        let traced = Json::parse(&record(true).summary_line()).unwrap();
        let metrics = traced.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(
            metrics["timer.aaps"].get("value").and_then(Json::as_f64),
            Some(17_408.0)
        );
    }
}
