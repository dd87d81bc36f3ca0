//! Scoped-thread fan-out for the batch engine's functional pass.
//!
//! Every `execute_batch` hands its per-bank functional work to
//! [`Fanout::run`]: the calling thread and up to `target_workers − 1`
//! threads spawned with [`std::thread::Builder::spawn_scoped`] drain one
//! shared job list. A one-thread budget or a single job spawns nothing and
//! runs the jobs inline on the caller. Jobs may borrow from the caller's
//! stack because `std::thread::scope` joins every thread before `run`
//! returns; nothing outlives a call, so the struct holds only the thread
//! budget and activity counters. A failed spawn leaves the remaining jobs
//! to the threads already running (at worst the caller runs them all
//! inline), and a panicking job is caught and surfaced as
//! [`AmbitError::ExecutorPanicked`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};
use std::thread;
use std::time::Instant;

use ambit_telemetry::{Counter, Histogram, Registry};

use crate::error::{AmbitError, Result};

/// One unit of fan-out work; it may borrow from the submitting frame.
pub(crate) type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

/// Activity counters of the batch fan-out since the memory was created (or
/// since the last [`set_pool_threads`](crate::AmbitMemory::set_pool_threads)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Thread budget: the most threads, the caller included, one fan-out
    /// uses.
    pub target_workers: usize,
    /// Jobs run by fan-outs that spawned at least one thread, counted on
    /// whichever thread (spawned or caller) ran them.
    pub jobs_executed: u64,
    /// Jobs run serially on the calling thread: single-job fan-outs,
    /// single-worker budgets, and fan-outs whose every spawn failed.
    pub inline_jobs: u64,
    /// Scoped threads spawned. Every fan-out spawns afresh.
    pub cold_spawns: u64,
    /// Always 0: no thread outlives its fan-out, so none is reused.
    pub warm_dispatches: u64,
    /// Jobs that panicked (caught and surfaced as typed errors).
    pub worker_panics: u64,
}

#[derive(Debug)]
struct FanoutTelemetry {
    jobs: Counter,
    inline_jobs: Counter,
    cold_spawns: Counter,
    worker_panics: Counter,
    queue_wait_us: Histogram,
}

/// Thread budget and counters for the batch functional pass.
#[derive(Debug)]
pub(crate) struct Fanout {
    stats: PoolStats,
    telemetry: Option<FanoutTelemetry>,
}

impl Fanout {
    /// A fan-out that uses at most `target` threads (at least 1).
    pub(crate) fn new(target: usize) -> Self {
        Fanout {
            stats: PoolStats {
                target_workers: target.max(1),
                ..PoolStats::default()
            },
            telemetry: None,
        }
    }

    /// A fan-out sized for this host: the `AMBIT_POOL_THREADS` environment
    /// variable if it parses (clamped to ≥ 1), otherwise
    /// [`std::thread::available_parallelism`].
    pub(crate) fn with_default_size() -> Self {
        let env = std::env::var("AMBIT_POOL_THREADS").ok();
        let target = env
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()));
        Fanout::new(target)
    }

    /// Activity counters so far.
    pub(crate) fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Registers the `ambit_pool_*` instruments on `registry` and mirrors
    /// the activity so far onto them, so attach order does not hide
    /// history.
    pub(crate) fn set_telemetry(&mut self, registry: &Registry) {
        let counter = |name, help, value| {
            let c = registry.counter(name, help, &[]);
            c.add(value);
            c
        };
        let s = self.stats;
        self.telemetry = Some(FanoutTelemetry {
            jobs: counter(
                "ambit_pool_jobs_total",
                "Batch fan-out jobs run by fan-outs that spawned at least one thread",
                s.jobs_executed,
            ),
            inline_jobs: counter(
                "ambit_pool_inline_jobs_total",
                "Batch fan-out jobs run serially on the submitting thread",
                s.inline_jobs,
            ),
            cold_spawns: counter(
                "ambit_pool_cold_spawns_total",
                "Scoped threads spawned by batch fan-outs",
                s.cold_spawns,
            ),
            worker_panics: counter(
                "ambit_pool_worker_panics_total",
                "Batch fan-out jobs that panicked (caught and surfaced as typed errors)",
                s.worker_panics,
            ),
            queue_wait_us: registry.histogram(
                "ambit_pool_queue_wait_us",
                "Wall-clock microseconds from the start of a fan-out until a thread took the job",
                &[],
                &[1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0],
            ),
        });
    }

    /// Runs every job exactly once and returns when all have finished.
    ///
    /// # Errors
    ///
    /// Returns [`AmbitError::ExecutorPanicked`] with the first caught panic
    /// message once all jobs are done. The fan-out holds no state a panic
    /// can damage, so later calls work as usual.
    pub(crate) fn run(&mut self, jobs: Vec<Job<'_>>) -> Result<()> {
        let ran = jobs.len() as u64;
        let wait = self.telemetry.as_ref().map(|t| &t.queue_wait_us);
        let (spawned, panics) = fan_out(self.stats.target_workers, jobs, wait);
        let (spawned, panicked) = (spawned as u64, panics.len() as u64);
        let s = &mut self.stats;
        if spawned == 0 {
            s.inline_jobs += ran;
        } else {
            s.jobs_executed += ran;
        }
        s.cold_spawns += spawned;
        s.worker_panics += panicked;
        if let Some(tel) = &self.telemetry {
            let ran_on = if spawned == 0 {
                &tel.inline_jobs
            } else {
                &tel.jobs
            };
            ran_on.add(ran);
            tel.cold_spawns.add(spawned);
            tel.worker_panics.add(panicked);
        }
        match panics.into_iter().next() {
            Some(message) => Err(AmbitError::ExecutorPanicked { message }),
            None => Ok(()),
        }
    }
}

/// Runs `jobs` on at most `workers` threads: up to `workers − 1` scoped
/// threads plus the caller drain one shared list, so every job runs once
/// and the caller never idles. Spawning stops at the first failure and the
/// threads already running take the rest. Returns the number of threads
/// spawned and the caught panic messages.
fn fan_out(workers: usize, jobs: Vec<Job<'_>>, wait: Option<&Histogram>) -> (usize, Vec<String>) {
    let threads = workers.min(jobs.len());
    let queue = Mutex::new(jobs.into_iter());
    let panics = Mutex::new(Vec::new());
    let start = Instant::now();
    let drain = || loop {
        // Jobs run outside the lock and panics are caught, so the lock
        // cannot be poisoned; recovering keeps the path free of `expect`.
        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
        let Some(job) = next else { return };
        if let Some(h) = wait {
            h.observe(start.elapsed().as_secs_f64() * 1e6);
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
            let mut panics = panics.lock().unwrap_or_else(PoisonError::into_inner);
            panics.push(panic_message(payload));
        }
    };
    let spawned = thread::scope(|s| {
        let spawned = (1..threads)
            .take_while(|i| {
                let builder = thread::Builder::new().name(format!("ambit-fanout-{i}"));
                builder.spawn_scoped(s, drain).is_ok()
            })
            .count();
        drain();
        spawned
    });
    (
        spawned,
        panics.into_inner().unwrap_or_else(PoisonError::into_inner),
    )
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked with a non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn counting_jobs(hits: &[AtomicUsize]) -> Vec<Job<'_>> {
        hits.iter()
            .map(|h| {
                Box::new(move || {
                    h.fetch_add(1, Ordering::Relaxed);
                }) as Job<'_>
            })
            .collect()
    }

    #[test]
    fn more_jobs_than_workers_each_run_exactly_once() {
        let mut fanout = Fanout::new(3);
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        fanout.run(counting_jobs(&hits)).unwrap();
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        let stats = fanout.stats();
        assert_eq!(stats.jobs_executed + stats.inline_jobs, 64);
        assert!(
            stats.cold_spawns <= 2,
            "caller plus at most 2 spawned: {stats:?}"
        );
    }

    #[test]
    fn jobs_borrow_mutably_from_the_caller() {
        let mut fanout = Fanout::new(4);
        let mut outputs = vec![0usize; 8];
        let jobs: Vec<Job<'_>> = outputs
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| Box::new(move || *slot = i * i) as Job<'_>)
            .collect();
        fanout.run(jobs).unwrap();
        assert_eq!(outputs, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn single_job_spawns_no_thread() {
        let mut fanout = Fanout::new(4);
        let hits = [AtomicUsize::new(0)];
        fanout.run(counting_jobs(&hits)).unwrap();
        assert_eq!(hits[0].load(Ordering::Relaxed), 1);
        let stats = fanout.stats();
        assert_eq!(
            (stats.inline_jobs, stats.jobs_executed, stats.cold_spawns),
            (1, 0, 0)
        );
    }

    #[test]
    fn single_worker_budget_runs_inline() {
        let mut fanout = Fanout::new(1);
        let hits: Vec<AtomicUsize> = (0..5).map(|_| AtomicUsize::new(0)).collect();
        fanout.run(counting_jobs(&hits)).unwrap();
        let stats = fanout.stats();
        assert_eq!((stats.inline_jobs, stats.cold_spawns), (5, 0));
    }

    #[test]
    fn panicking_job_yields_typed_error_and_others_still_run() {
        let mut fanout = Fanout::new(2);
        let ran = AtomicUsize::new(0);
        let jobs: Vec<Job<'_>> = vec![
            Box::new(|| panic!("boom in job")),
            Box::new(|| {
                ran.fetch_add(1, Ordering::Relaxed);
            }),
        ];
        match fanout.run(jobs).unwrap_err() {
            AmbitError::ExecutorPanicked { message } => {
                assert!(message.contains("boom in job"), "{message}")
            }
            other => panic!("expected ExecutorPanicked, got {other}"),
        }
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        assert_eq!(fanout.stats().worker_panics, 1);
    }

    #[test]
    fn telemetry_counters_mirror_stats() {
        let registry = Registry::new();
        let mut fanout = Fanout::new(2);
        // Activity before attach is backfilled at attach time.
        fanout.run(vec![Box::new(|| {})]).unwrap();
        fanout.set_telemetry(&registry);
        let hits: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        fanout.run(counting_jobs(&hits)).unwrap();
        let stats = fanout.stats();
        let value = |name| registry.counter_value(name, &[]);
        assert_eq!(value("ambit_pool_jobs_total"), Some(stats.jobs_executed));
        assert_eq!(
            value("ambit_pool_inline_jobs_total"),
            Some(stats.inline_jobs)
        );
        assert_eq!(
            value("ambit_pool_cold_spawns_total"),
            Some(stats.cold_spawns)
        );
        let wait = registry
            .histogram_snapshot("ambit_pool_queue_wait_us", &[])
            .unwrap();
        assert_eq!(wait.count, 3, "one wait sample per job run after attach");
    }
}
