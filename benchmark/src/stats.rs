//! Order statistics shared by the run and compare modes: percentiles of
//! per-query latencies, quartiles across runs, and the compare verdict.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// Whether `a` reads strictly better than `b`.
    fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Higher => a > b,
            Better::Lower => a < b,
        }
    }
}

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // Integer per-mille arithmetic, so p = 99.9 with n = 10 000 gives
    // exactly 9 990 rather than a rounding error's 9 991.
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile `p` of ascending `sorted` samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The highest of the usual reporting percentiles that still leaves at
/// least ten of `n` samples strictly beyond it, if any does.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= 10)
}

/// Median (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median over `slices` consecutive, near-equal slices of `durations` of
/// each slice's rate (items ÷ summed duration).
///
/// # Panics
///
/// Panics on an empty slice or `slices == 0`.
pub fn median_rate(durations: &[f64], slices: usize) -> f64 {
    assert!(slices > 0, "at least one slice");
    let size = durations.len().div_ceil(slices);
    let rates: Vec<f64> = durations
        .chunks(size)
        .map(|c| c.len() as f64 / c.iter().sum::<f64>())
        .collect();
    median(&rates)
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// spreads read the same here and in external tooling. A single value is
/// its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median (0 for a zero median).
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Outcome of comparing one metric between a base side and a new side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Signed change of `new` against `base`, as a share of `base`.
pub fn change(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        if new == base {
            0.0
        } else {
            f64::INFINITY.copysign(new - base)
        }
    } else {
        (new - base) / base.abs()
    }
}

/// [`change`], positive when the metric got worse.
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    match better {
        Better::Lower => change(base, new),
        Better::Higher => -change(base, new),
    }
}

/// Compares the runs of one metric on two sides.
///
/// * `unresolved` when either side's quartile spread exceeds `bound`,
///   unless every new run reads better (or every one worse) than every
///   base run;
/// * `worse` when the median worsened by more than `bound`;
/// * `better` when the new side wins at least nine tenths of the runs
///   paired in order and the medians differ by more than the base side's
///   interquartile range;
/// * `within bound` otherwise.
///
/// # Panics
///
/// Panics if either side is empty.
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let (mb, mn) = (median(base), median(new));
    let all_better = new
        .iter()
        .all(|&n| base.iter().all(|&b| better.beats(n, b)));
    let all_worse = new
        .iter()
        .all(|&n| base.iter().all(|&b| better.beats(b, n)));
    let spread = relative_spread(base).max(relative_spread(new));
    if spread > bound && !all_better && !all_worse {
        return Verdict::Unresolved;
    }
    if worsening(mb, mn, better) > bound {
        return Verdict::Worse;
    }
    let pairs = base.len().min(new.len());
    let wins = base
        .iter()
        .zip(new)
        .filter(|(&b, &n)| better.beats(n, b))
        .count();
    let (q1, q3) = quartiles(base);
    if better.beats(mn, mb) && wins * 10 >= pairs * 9 && (mn - mb).abs() > q3 - q1 {
        return Verdict::Better;
    }
    Verdict::WithinBound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(10), None);
        // 19 samples: the median (rank 10) has 9 beyond it; still too few.
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn median_rate_ignores_a_slow_slice() {
        // Six slices of 10 ms queries, one slowed to 50 ms by a burst.
        let mut d = vec![0.010; 60];
        d[20..30].fill(0.050);
        assert!((median_rate(&d, 6) - 100.0).abs() < 1e-9);
        // The plain rate would read 60 / 1.0 s.
        assert!((d.len() as f64 / d.iter().sum::<f64>() - 60.0).abs() < 1e-9);
        // Fewer samples than slices: one sample per slice.
        assert_eq!(median_rate(&[0.5, 0.25], 6), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn verdicts() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Same distribution: within bound.
        let same = [100.2, 99.8, 100.1, 100.4, 99.6];
        assert_eq!(
            verdict(&base, &same, Better::Higher, 0.10),
            Verdict::WithinBound
        );
        // Throughput fell by 20 %: worse.
        let slow = [80.0, 81.0, 79.0, 80.5, 79.5];
        assert_eq!(verdict(&base, &slow, Better::Higher, 0.10), Verdict::Worse);
        // Latency rose 20 % with a lower-is-better direction: better for
        // throughput is worse for latency.
        assert_eq!(verdict(&slow, &base, Better::Lower, 0.10), Verdict::Worse);
        // Throughput rose 5 % on every pair, beyond the base spread.
        let fast = [105.0, 106.0, 104.0, 105.5, 104.5];
        assert_eq!(verdict(&base, &fast, Better::Higher, 0.10), Verdict::Better);
        // A noisy new side whose spread exceeds the bound: unresolved.
        let noisy = [60.0, 140.0, 100.0, 70.0, 130.0];
        assert_eq!(
            verdict(&base, &noisy, Better::Higher, 0.10),
            Verdict::Unresolved
        );
        // ...unless every new run beats every base run.
        let noisy_fast = [200.0, 400.0, 300.0, 220.0, 380.0];
        assert_eq!(
            verdict(&base, &noisy_fast, Better::Higher, 0.10),
            Verdict::Better
        );
        // Zero-bound deterministic metrics: any change decides.
        assert_eq!(
            verdict(&[5.0; 3], &[5.0; 3], Better::Lower, 0.0),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&[5.0; 3], &[6.0; 3], Better::Lower, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&[5.0; 3], &[4.0; 3], Better::Lower, 0.0),
            Verdict::Better
        );
    }
}
