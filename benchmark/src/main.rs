//! End-to-end benchmark of the Ambit reproduction.
//!
//! Runs one of four seeded closed-loop workloads (one client thread, the
//! executor pool at its default size) through the public API, checks every
//! answer against a CPU reference, and prints the end-to-end metrics; a
//! traced run prints the per-layer breakdown instead. See README.md.
//!
//! ```text
//! benchmark --seed <u64> [--workload <name>|all] [--seconds <s>] [--trace 0|1]
//!           [--out <runs.jsonl>] [--spans <dir>]
//! benchmark --compare <base.jsonl> <new.jsonl> [<more.jsonl> ...]
//! ```

mod metrics;
mod record;
mod stats;
mod trace;
mod workloads;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use ambit_repro::telemetry::json::{escape, number, Json};
use ambit_repro::telemetry::Registry;

use metrics::{TracedWindow, END_TO_END};
use record::{Host, LayerValue, Measured, RunRecord};
use trace::Tracer;
use workloads::{generate, setup, Kind, Outcome, Size, Workload};

/// Cold set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Queries every window runs at least, however short the time; the
/// simulated metrics average the first this many, so they do not depend on
/// how fast the host is.
const MIN_QUERIES: usize = 16;
/// Consecutive slices of a window whose median throughput is `host_qps`.
const SUBWINDOWS: usize = 6;

#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    /// `None` runs every workload, each in its own process.
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    /// Directory for the traced run's span files.
    spans: Option<PathBuf>,
}

#[derive(Debug, Clone, PartialEq)]
enum Mode {
    Run(RunArgs),
    Compare(Vec<PathBuf>),
}

const USAGE: &str = "usage: benchmark --seed <u64> [--workload <name>|all] [--seconds <s>] \
[--trace 0|1] [--out <runs.jsonl>] [--spans <dir>]\n       \
benchmark --compare <base.jsonl> <new.jsonl> [<more.jsonl> ...]\n\
workloads: bitmap_query, bitmap_batch, synth_arith, resilient_query";

fn parse_args(args: &[String]) -> Result<Mode, String> {
    if args.first().map(String::as_str) == Some("--compare") {
        let files: Vec<PathBuf> = args[1..].iter().map(PathBuf::from).collect();
        if files.len() < 2 {
            return Err("--compare needs a base file and at least one more".into());
        }
        return Ok(Mode::Compare(files));
    }
    let mut run = RunArgs {
        workload: None,
        seed: 0,
        seconds: 20.0,
        trace: false,
        out: None,
        spans: None,
    };
    let mut seed = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                run.workload = match name.as_str() {
                    "all" => None,
                    _ => Some(Kind::parse(name).ok_or(format!("unknown workload '{name}'"))?),
                };
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                run.seconds = s;
            }
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--out" => run.out = Some(PathBuf::from(value()?)),
            "--spans" => run.spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    run.seed = seed.ok_or("--seed is required")?;
    Ok(Mode::Run(run))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse_args(&args) {
        Ok(Mode::Run(run)) => match run.workload {
            Some(kind) => run_workload(kind, &run),
            None => run_all(&run),
        },
        Ok(Mode::Compare(files)) => compare(&files),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What one closed-loop window measured.
#[derive(Debug, Default)]
struct WindowResult {
    /// Host time of each query, seconds (the timed span only).
    latencies_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Simulated time and energy of the first [`MIN_QUERIES`] queries.
    sim: Vec<(u64, f64)>,
}

impl WindowResult {
    /// Queries per host second, as the median over [`SUBWINDOWS`]
    /// consecutive slices of the window: a burst of contention from
    /// outside the process slows one slice, not the reading.
    fn qps(&self) -> f64 {
        stats::median_rate(&self.latencies_s, SUBWINDOWS)
    }
}

/// Runs closed-loop queries for `seconds` (and at least [`MIN_QUERIES`]),
/// checking each answer outside its timed span.
fn window(
    w: &mut dyn Workload,
    seconds: f64,
    tr: &mut Tracer,
    next_query: &mut u64,
) -> Result<WindowResult, String> {
    let mut res = WindowResult::default();
    let started = Instant::now();
    while res.latencies_s.len() < MIN_QUERIES || started.elapsed().as_secs_f64() < seconds {
        tr.begin_query(*next_query);
        let t0 = Instant::now();
        let out = w.query(tr);
        let dt = t0.elapsed().as_secs_f64();
        tr.end_query();
        *next_query += 1;
        res.attempted += 1;
        res.latencies_s.push(dt);
        let ok = match &out {
            Ok(o) => w.check(o).map_err(|e| format!("check: {e}"))?,
            Err(e) => {
                eprintln!("query {} failed: {e}", *next_query - 1);
                false
            }
        };
        if !ok {
            res.failed += 1;
        }
        if let (Ok(o), true) = (&out, res.sim.len() < MIN_QUERIES) {
            res.sim.push((o.sim_ps, o.energy_nj));
        }
    }
    Ok(res)
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn spans_path(args: &RunArgs, kind: Kind) -> PathBuf {
    let dir = args
        .spans
        .clone()
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("out"));
    dir.join(format!("spans-{}-{}.jsonl", kind.name(), args.seed))
}

/// One workload in this process: generate, set up, measure, report.
fn run_workload(kind: Kind, args: &RunArgs) -> Result<bool, String> {
    let record = measure(kind, &kind.full_size(), args)?;
    print_record(&record);
    if let Some(out) = &args.out {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .map_err(|e| format!("{}: {e}", out.display()))?;
        writeln!(f, "{}", record.to_json()).map_err(|e| format!("{}: {e}", out.display()))?;
    }
    println!("{}", record.summary_line());
    Ok(record.correct)
}

fn measure(kind: Kind, size: &Size, args: &RunArgs) -> Result<RunRecord, String> {
    let err = |e: ambit_repro::core::AmbitError| format!("{}: {e}", kind.name());
    let inputs = generate(kind, size, args.seed);

    // Cold set-ups: device construction, load, compile, campaign planning,
    // and one plan-cache-filling query each. The previous device is
    // dropped first, so peak memory holds one.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut cold: Vec<Outcome> = Vec::with_capacity(SETUPS);
    let mut cold_ok = true;
    let mut kept: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let t0 = Instant::now();
        let mut w = setup(kind, size, &inputs).map_err(err)?;
        let out = w.query(&mut Tracer::new(false)).map_err(err)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        cold_ok &= w.check(&out).map_err(err)?;
        cold.push(out);
        kept = Some(w);
    }
    let mut w = kept.expect("at least one set-up");
    // Identical set-ups from one seed must simulate identically.
    let repeatable = cold.iter().all(|o| {
        (o.sim_ps, o.energy_nj.to_bits()) == (cold[0].sim_ps, cold[0].energy_nj.to_bits())
    });
    if !repeatable {
        eprintln!(
            "{}: cold queries of identical set-ups simulated differently",
            kind.name()
        );
    }
    if !cold_ok {
        eprintln!(
            "{}: a cold query disagreed with the CPU reference",
            kind.name()
        );
    }

    let mut next_query = 0;
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = window(
        &mut *w,
        untraced_s,
        &mut Tracer::new(false),
        &mut next_query,
    )?;
    let sim_n = untraced.sim.len().max(1) as f64;
    let sim_query_ns = untraced.sim.iter().map(|s| s.0 as f64).sum::<f64>() / 1e3 / sim_n;
    let sim_query_nj = untraced.sim.iter().map(|s| s.1).sum::<f64>() / sim_n;

    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed;
    let mut per_layer = Vec::new();
    if args.trace {
        let registry = Registry::new();
        w.attach(registry.clone());
        let before = w.probe();
        let mut tr = Tracer::new(true);
        let traced = window(&mut *w, args.seconds / 2.0, &mut tr, &mut next_query)?;
        let after = w.probe();
        attempted += traced.attempted;
        failed += traced.failed;
        per_layer = metrics::per_layer(&TracedWindow {
            spans: tr.spans(),
            before,
            after,
            registry: &registry,
            queries: traced.attempted,
            synth: w.synth(),
            sim_query_ns,
            sim_query_nj,
            untraced_qps: untraced.qps(),
            traced_qps: traced.qps(),
        })
        .into_iter()
        .map(|(name, unit, value)| LayerValue {
            name: name.into(),
            unit: unit.into(),
            value,
        })
        .collect();
        let path = spans_path(args, kind);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(&path, trace::to_jsonl(tr.spans()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "{}: {} spans written to {}",
            kind.name(),
            tr.spans().len(),
            path.display()
        );
    }

    let mut lat_ms: Vec<f64> = untraced.latencies_s.iter().map(|s| s * 1e3).collect();
    lat_ms.sort_by(f64::total_cmp);
    let n = lat_ms.len() as u64;
    if stats::tail_percentile(lat_ms.len()) < Some(90.0) {
        eprintln!(
            "{}: {n} queries leave fewer than 10 beyond p90; run longer for a trustworthy host_p90_ms",
            kind.name()
        );
    }
    let values = [
        (untraced.qps(), n),
        (stats::percentile(&lat_ms, 50.0), n),
        (stats::percentile(&lat_ms, 90.0), n),
        (sim_query_ns, untraced.sim.len() as u64),
        (sim_query_nj, untraced.sim.len() as u64),
        (failed as f64 / attempted as f64, attempted),
        (stats::median(&setup_s), SETUPS as u64),
        (peak_rss_mb(), 1),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(d, (value, samples))| Measured {
            name: d.name.into(),
            unit: d.unit.into(),
            value,
            samples,
        })
        .collect();
    Ok(RunRecord {
        workload: kind.name().into(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        correct: failed == 0 && cold_ok && repeatable,
        attempted,
        failed,
        host: Host::detect(w.memory().pool_stats().target_workers),
        metrics,
        per_layer,
    })
}

fn print_record(r: &RunRecord) {
    println!(
        "{} seed={} seconds={} traced={} host: {} cores, {} pool workers, {}",
        r.workload,
        r.seed,
        r.seconds,
        r.traced,
        r.host.available_parallelism,
        r.host.pool_target_workers,
        r.host.cpu_model
    );
    for (m, d) in r.metrics.iter().zip(&END_TO_END) {
        println!(
            "  {:<14} {:>16.6} {:<8} {} is better, n={}",
            m.name,
            m.value,
            m.unit,
            d.better.as_str(),
            m.samples
        );
    }
    for l in &r.per_layer {
        println!("  {:<30} {:>16.6} {}", l.name, l.value, l.unit);
    }
    println!(
        "  correct={} attempted={} failed={}",
        r.correct, r.attempted, r.failed
    );
}

/// Every workload, each in a child process of this binary so each gets
/// its own `peak_rss_mb`.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut values = Vec::new();
    for kind in Kind::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", kind.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        if let Some(out) = &args.out {
            cmd.arg("--out").arg(out);
        }
        if let Some(dir) = &args.spans {
            cmd.arg("--spans").arg(dir);
        }
        let output = cmd
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        let summary =
            Json::parse(last).map_err(|e| format!("{}: bad summary line: {e}", kind.name()))?;
        all_correct &= output.status.success() && summary.get("correct") == Some(&Json::Bool(true));
        attempted += summary.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += summary.get("failed").and_then(Json::as_u64).unwrap_or(0);
        for (name, v) in summary
            .get("metrics")
            .and_then(Json::as_obj)
            .into_iter()
            .flatten()
        {
            let value = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
            values.push(format!(
                "\"{}.{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                kind.name(),
                escape(name),
                number(value),
                escape(unit)
            ));
        }
    }
    println!(
        "{{\"correct\":{all_correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        values.join(",")
    );
    Ok(all_correct)
}

/// Prints one row per workload × end-to-end metric for each later file
/// against the first: medians, quartiles, change of the median and
/// verdict.
fn compare(files: &[PathBuf]) -> Result<bool, String> {
    let sides: Vec<Vec<RunRecord>> = files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            text.lines()
                .filter(|l| !l.trim().is_empty())
                .map(|l| RunRecord::from_json(l).map_err(|e| format!("{}: {e}", f.display())))
                .collect()
        })
        .collect::<Result<_, String>>()?;
    let (base, rest) = sides.split_first().expect("at least two files");
    let values = |runs: &[RunRecord], workload: &str, metric: &str| -> Vec<f64> {
        runs.iter()
            .filter(|r| r.workload == workload)
            .filter_map(|r| r.metric(metric))
            .collect()
    };
    let fmt = |v: &[f64]| {
        let (q1, q3) = stats::quartiles(v);
        format!(
            "{:.4} [{:.4}, {:.4}] n={}",
            stats::median(v),
            q1,
            q3,
            v.len()
        )
    };
    for (file, side) in files[1..].iter().zip(rest) {
        println!("{} vs {}", files[0].display(), file.display());
        println!(
            "{:<16} {:<13} {:<8} {:<44} {:<44} {:>9}  verdict",
            "workload", "metric", "unit", "base median [q1, q3]", "new median [q1, q3]", "change"
        );
        for kind in Kind::ALL {
            for d in &END_TO_END {
                let (b, n) = (
                    values(base, kind.name(), d.name),
                    values(side, kind.name(), d.name),
                );
                if b.is_empty() || n.is_empty() {
                    continue;
                }
                let change = stats::change(stats::median(&b), stats::median(&n));
                println!(
                    "{:<16} {:<13} {:<8} {:<44} {:<44} {:>+8.2}%  {}",
                    kind.name(),
                    d.name,
                    d.unit,
                    fmt(&b),
                    fmt(&n),
                    change * 100.0,
                    stats::verdict(&b, &n, d.better, d.bound).as_str()
                );
            }
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ambit_repro::dram::DramGeometry;
    use metrics::PER_LAYER;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let mode = parse_args(&strings(&[
            "--workload",
            "synth_arith",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            mode,
            Mode::Run(RunArgs {
                workload: Some(Kind::SynthArith),
                seed: 42,
                seconds: 10.0,
                trace: true,
                out: None,
                spans: None,
            })
        );
        assert!(parse_args(&strings(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(
            parse_args(&strings(&["--workload", "all"])).is_err(),
            "seed is required"
        );
        assert!(parse_args(&strings(&["--seed", "1", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--compare", "a.jsonl"])).is_err());
    }

    /// Geometry and sizes small enough for a debug-build test.
    fn tiny(kind: Kind) -> Size {
        let geometry = DramGeometry {
            channels: if kind == Kind::BitmapBatch { 2 } else { 1 },
            ranks: 1,
            banks: 2,
            subarrays_per_bank: 2,
            rows_per_subarray: 128,
            row_bytes: 64,
        };
        match kind {
            Kind::SynthArith => Size {
                geometry,
                items: 1000,
                depth: 8,
            },
            // 1000 users over 512-bit rows: two chunks, the last padded.
            _ => Size {
                geometry,
                items: 1000,
                depth: 2,
            },
        }
    }

    #[test]
    fn every_workload_is_correct_and_repeatable_at_tiny_size() {
        for kind in Kind::ALL {
            let args = RunArgs {
                workload: Some(kind),
                seed: 5,
                seconds: 0.01,
                trace: false,
                out: None,
                spans: None,
            };
            let a = measure(kind, &tiny(kind), &args).unwrap();
            let b = measure(kind, &tiny(kind), &args).unwrap();
            assert!(a.correct, "{}: {a:?}", kind.name());
            assert_eq!(a.metric("failed_frac"), Some(0.0), "{}", kind.name());
            assert!(a.attempted >= MIN_QUERIES as u64);
            for m in ["sim_query_ns", "sim_query_nj"] {
                let v = a.metric(m).unwrap();
                assert!(v > 0.0, "{}: {m} = {v}", kind.name());
                assert_eq!(
                    a.metric(m),
                    b.metric(m),
                    "{}: {m} repeats for a seed",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn traced_run_reports_every_layer_metric() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        for kind in Kind::ALL {
            let args = RunArgs {
                workload: Some(kind),
                seed: 9,
                seconds: 0.01,
                trace: true,
                out: None,
                spans: Some(dir.clone()),
            };
            let r = measure(kind, &tiny(kind), &args).unwrap();
            assert!(r.correct, "{}", kind.name());
            let names: Vec<&str> = r.per_layer.iter().map(|l| l.name.as_str()).collect();
            let want: Vec<&str> = PER_LAYER.iter().map(|l| l.0).collect();
            assert_eq!(names, want);
            assert!(r.per_layer.iter().all(|l| l.value.is_finite()));
            let layer = |n: &str| r.per_layer.iter().find(|l| l.name == n).unwrap().value;
            assert!(layer("timer.aaps") > 0.0, "{}", kind.name());
            let coverage = layer("trace.layer_coverage");
            assert!(
                (0.0..=1.0).contains(&coverage),
                "{}: {coverage}",
                kind.name()
            );
            let spans = std::fs::read_to_string(spans_path(&args, kind)).unwrap();
            assert!(spans.lines().count() >= 2 * MIN_QUERIES);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
