//! Lock-free-ish metric primitives: counters, gauges, and fixed-bucket
//! histograms.
//!
//! Handles are cheap `Arc` clones, so a component can cache its instruments
//! once and update them from a hot loop (the DRAM command path) with
//! relaxed atomic operations only. Floating-point accumulation uses a
//! compare-and-swap loop on the `f64` bit pattern, which keeps the crate
//! free of external dependencies.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Adds `v` to an `f64` stored as its bit pattern in an [`AtomicU64`].
fn add_f64(bits: &AtomicU64, v: f64) {
    let mut current = bits.load(Ordering::Relaxed);
    loop {
        let next = f64::from_bits(current) + v;
        match bits.compare_exchange_weak(
            current,
            next.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(seen) => current = seen,
        }
    }
}

/// A monotonically increasing counter.
///
/// # Examples
///
/// ```
/// let c = ambit_telemetry::Counter::new();
/// c.inc();
/// c.add(41);
/// assert_eq!(c.get(), 42);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh zero counter (standalone; use
    /// [`Registry::counter`](crate::Registry::counter) to also expose it).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }
}

impl Gauge {
    /// A fresh zero gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `v` (may be negative).
    pub fn add(&self, v: f64) {
        add_f64(&self.bits, v);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram with Prometheus `le` (less-or-equal) bucket
/// semantics: an observation lands in the first bucket whose upper bound is
/// `>=` the value, or the implicit `+Inf` overflow bucket.
///
/// # Examples
///
/// ```
/// let h = ambit_telemetry::Histogram::new(&[1.0, 2.0, 4.0]);
/// h.observe(0.5);
/// h.observe(3.0);
/// h.observe(100.0);
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.bucket_counts(), vec![1, 0, 1, 1]); // le=1, le=2, le=4, +Inf
/// assert!((h.sum() - 103.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

#[derive(Debug)]
struct HistogramCore {
    bounds: Vec<f64>,
    /// One slot per bound plus the `+Inf` overflow bucket.
    counts: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    total: AtomicU64,
}

impl Histogram {
    /// Creates a histogram with the given upper bucket bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty, non-finite, or not strictly increasing
    /// (programmer error at instrument-construction time).
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "bucket bounds must be finite (+Inf is implicit)"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds must be strictly increasing"
        );
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            core: Arc::new(HistogramCore {
                bounds: bounds.to_vec(),
                counts,
                sum_bits: AtomicU64::new(0f64.to_bits()),
                total: AtomicU64::new(0),
            }),
        }
    }

    /// `count` buckets of equal `width` starting at `start`:
    /// `start, start+width, …`.
    pub fn linear(start: f64, width: f64, count: usize) -> Self {
        let bounds: Vec<f64> = (0..count).map(|i| start + width * i as f64).collect();
        Histogram::new(&bounds)
    }

    /// `count` geometrically spaced buckets: `start, start·factor, …`.
    pub fn exponential(start: f64, factor: f64, count: usize) -> Self {
        let mut bound = start;
        let mut bounds = Vec::with_capacity(count);
        for _ in 0..count {
            bounds.push(bound);
            bound *= factor;
        }
        Histogram::new(&bounds)
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self.core.bounds.partition_point(|&b| v > b);
        self.core.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.core.total.fetch_add(1, Ordering::Relaxed);
        add_f64(&self.core.sum_bits, v);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.core.total.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.core.sum_bits.load(Ordering::Relaxed))
    }

    /// The configured upper bounds (the implicit `+Inf` bucket excluded).
    pub fn bounds(&self) -> &[f64] {
        &self.core.bounds
    }

    /// Per-bucket (non-cumulative) counts; the final entry is the `+Inf`
    /// overflow bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.core
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Cumulative counts in Prometheus exposition order (`le` buckets then
    /// `+Inf`).
    pub fn cumulative_counts(&self) -> Vec<u64> {
        let mut acc = 0;
        self.bucket_counts()
            .into_iter()
            .map(|c| {
                acc += c;
                acc
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        let c2 = c.clone();
        c.inc();
        c2.add(9);
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn gauge_sets_and_adds() {
        let g = Gauge::new();
        g.set(1.5);
        g.add(-0.5);
        assert!((g.get() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_le_semantics() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.observe(1.0); // on the bound: le=1 bucket
        h.observe(1.5);
        h.observe(7.0);
        assert_eq!(h.bucket_counts(), vec![1, 1, 1]);
        assert_eq!(h.cumulative_counts(), vec![1, 2, 3]);
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 9.5).abs() < 1e-12);
    }

    #[test]
    fn bucket_helpers() {
        assert_eq!(Histogram::linear(1.0, 1.0, 3).bounds(), &[1.0, 2.0, 3.0]);
        assert_eq!(
            Histogram::exponential(1.0, 2.0, 4).bounds(),
            &[1.0, 2.0, 4.0, 8.0]
        );
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_rejected() {
        Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn shared_handles_see_each_other() {
        let h = Histogram::new(&[10.0]);
        let h2 = h.clone();
        h.observe(1.0);
        h2.observe(100.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.bucket_counts(), vec![1, 1]);
    }
}
