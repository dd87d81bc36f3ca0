//! Transient TRA fault flips, drawn as geometric gaps between flips from
//! the subarray's xorshift64\* stream.
//!
//! Each bitline of a fault-armed TRA flips independently with probability
//! `p = threshold / 2^64`. Instead of one draw per bitline, the stream
//! draws the *gap* `G ~ Geometric(p)` to the next flip (`P(G = k) = q^k p`,
//! `q = 1 − p`). A subarray keeps its pending gap from one armed TRA to the
//! next. A bitline with no pending gap first draws one; a bitline whose gap
//! is 0 flips and draws the next gap; any other counts the gap down. The
//! bit-serial reference takes these steps bitline by bitline
//! ([`FaultGaps::flips_next`]), the word kernel a whole gap at a time
//! ([`FaultGaps::inject`]): same draws, same flips, same state. A threshold
//! change or a reseed drops the pending gap, which memorylessness makes
//! exact.
//!
//! **Drawing a gap.** With `r_j = q^(2^j)`, `P(G = k) = p · Π_j r_j^(k_j)` and
//! `Π_j (1 + r_j) = 1/p`, so the binary digits of `G` are independent and
//! digit `j` is 1 with odds `r_j / (1 + r_j)`. A gap takes one draw per
//! digit, from digit 0 up, and sets digit `j` when the draw falls below
//! `t_j = ⌊2^64 · r_j / (1 + r_j)⌋`; the table ends before its first zero,
//! about `log2(44 / −ln q)` digits (19 at 0.01 %, 7 at 26 %, none when `p`
//! rounds to 1). Digits past 63 do not fit a `u64`: when all 64 thresholds
//! are nonzero (`p` below about 2^-57), a 65th draw below
//! `⌊2^64 · q^(2^64)⌋` saturates the gap at `u64::MAX`. The table uses
//! IEEE `+ − × ÷` only, so every platform builds the same one:
//! `c_0 = p`, `c_{j+1} = c_j (2 − c_j)`, `r_j = 1 − c_j` (exact to about
//! 2^-53, so digits rarer than that also end the table).

use crate::bitrow::BitRow;

/// The xorshift64\* output multiplier (Vigna).
const MULTIPLIER: u64 = 0x2545_f491_4f6c_dd1d;

/// 2^64, the scale of a draw and of a threshold.
const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;

/// One xorshift64\* draw: the stream shared by tie-breaking and fault
/// injection.
pub(crate) fn next_u64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(MULTIPLIER)
}

/// The per-digit thresholds of a gap at `threshold` (see the module docs):
/// empty when every gap is 0 (`p` rounds to 1) and when `threshold` is 0.
fn digit_thresholds(threshold: u64) -> Vec<u64> {
    let mut digits = Vec::new();
    if threshold == 0 {
        return digits;
    }
    let mut c = threshold as f64 / TWO_POW_64;
    for j in 0..=64 {
        let r = 1.0 - c;
        // Digit 64 stands for every digit past 63: the gap is at least
        // 2^64 with probability q^(2^64) = r_64.
        let odds = if j < 64 { r / (1.0 + r) } else { r };
        let t = (odds * TWO_POW_64) as u64;
        if t == 0 {
            break;
        }
        digits.push(t);
        c *= 2.0 - c;
    }
    digits
}

/// A subarray's transient TRA fault state: the threshold, its gap digit
/// table, and the pending gap.
#[derive(Debug, Clone, Default)]
pub(crate) struct FaultGaps {
    /// Per-bitline flip probability, in units of 2^-64; 0 disarms.
    threshold: u64,
    /// [`digit_thresholds`] of `threshold`.
    digits: Vec<u64>,
    /// Armed bitlines left before the next flip; `None` until the next
    /// armed bitline draws one.
    pending: Option<u64>,
}

impl FaultGaps {
    /// The per-bitline flip probability, in units of 2^-64.
    pub(crate) fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Sets the threshold; a change rebuilds the digit table and drops the
    /// pending gap.
    pub(crate) fn set_threshold(&mut self, threshold: u64) {
        if threshold != self.threshold {
            self.threshold = threshold;
            self.digits = digit_thresholds(threshold);
            self.pending = None;
        }
    }

    /// Drops the pending gap: the next armed bitline draws a fresh one.
    pub(crate) fn drop_pending(&mut self) {
        self.pending = None;
    }

    #[cfg(test)]
    pub(crate) fn pending(&self) -> Option<u64> {
        self.pending
    }

    fn draw_gap(&self, state: &mut u64) -> u64 {
        let mut gap = 0;
        for (j, &t) in self.digits.iter().enumerate() {
            if next_u64(state) < t {
                // Digit 64 saturates the gap (`checked_shl` fails there).
                gap |= 1u64.checked_shl(j as u32).unwrap_or(u64::MAX);
            }
        }
        gap
    }

    /// One armed bitline of the bit-serial path: whether it flips. Takes
    /// no draw while disarmed.
    pub(crate) fn flips_next(&mut self, state: &mut u64) -> bool {
        if self.threshold == 0 {
            return false;
        }
        let gap = self.pending.unwrap_or_else(|| self.draw_gap(state));
        if gap == 0 {
            self.pending = Some(self.draw_gap(state));
            true
        } else {
            self.pending = Some(gap - 1);
            false
        }
    }

    /// Flips the bitlines of `row` that [`flips_next`](Self::flips_next)
    /// would flip walking it bitline by bitline, taking the same draws,
    /// one gap at a time. Takes no draw while disarmed.
    pub(crate) fn inject(&mut self, state: &mut u64, row: &mut BitRow) {
        let mut left = row.len() as u64;
        if self.threshold == 0 || left == 0 {
            return;
        }
        let words = row.words_mut();
        let mut at = 0;
        let mut gap = self.pending.unwrap_or_else(|| self.draw_gap(state));
        while gap < left {
            at += gap as usize;
            words[at / 64] ^= 1 << (at % 64);
            at += 1;
            left -= gap + 1;
            gap = self.draw_gap(state);
        }
        self.pending = Some(gap - left);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default seed of a subarray's stream.
    const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

    fn armed(threshold: u64) -> FaultGaps {
        let mut gaps = FaultGaps::default();
        gaps.set_threshold(threshold);
        gaps
    }

    /// Flip masks of `rows` consecutive armed TRAs of `len` bitlines at
    /// rate `p`, drawn by the word kernel from one stream.
    fn flip_rows(p: f64, len: usize, rows: usize, seed: u64) -> Vec<BitRow> {
        let (mut gaps, mut state) = (armed((p * TWO_POW_64) as u64), seed);
        let mut row = || {
            let mut row = BitRow::zeros(len);
            gaps.inject(&mut state, &mut row);
            row
        };
        (0..rows).map(|_| row()).collect()
    }

    fn assert_within_5_sigma(got: f64, want: f64, sigma: f64, what: &str) {
        assert!((got - want).abs() <= 5.0 * sigma, "{what}: {got}, want {want} ± 5 × {sigma}");
    }

    #[test]
    fn flip_counts_have_the_binomial_mean_and_variance() {
        let (len, rows) = (4096, 2000);
        for (p, seed) in [(1e-3, 1), (0.01, 2), (0.26, 3)] {
            let counts: Vec<f64> =
                flip_rows(p, len, rows, seed).iter().map(|r| r.count_ones() as f64).collect();
            let n = rows as f64;
            let mean = counts.iter().sum::<f64>() / n;
            let var = counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / (n - 1.0);
            let want = len as f64 * p * (1.0 - p);
            assert_within_5_sigma(mean, len as f64 * p, (want / n).sqrt(), &format!("mean at {p}"));
            // A near-normal sample variance has standard error σ² · √(2 / (n − 1)).
            let sigma = want * (2.0 / (n - 1.0)).sqrt();
            assert_within_5_sigma(var, want, sigma, &format!("variance at {p}"));
        }
    }

    #[test]
    fn consecutive_tras_coincide_at_p_squared_and_p_cubed() {
        // The gap carried from one TRA to the next must not correlate their
        // flips: same-bitline flips in 2 (3) consecutive TRAs have odds p² (p³).
        let (len, rows, p) = (4096, 3000, 0.05);
        let f = flip_rows(p, len, rows, 7);
        let pairs: usize = f.windows(2).map(|w| w[0].and(&w[1]).count_ones()).sum();
        let triples: usize = f.windows(3).map(|w| w[0].and(&w[1]).and(&w[2]).count_ones()).sum();
        for (got, k) in [(pairs, 2), (triples, 3)] {
            let want = (len * (rows + 1 - k)) as f64 * p.powi(k as i32);
            // Windows overlap, so take twice the Poisson variance.
            assert_within_5_sigma(got as f64, want, (2.0 * want).sqrt(), &format!("p^{k}"));
        }
    }

    #[test]
    fn flip_positions_are_uniform_over_the_row() {
        // Chi-square over 16 slices of the row, and the first and last
        // bitline on their own: a gap miscounted at the row edge moves
        // flips into or out of them.
        let (len, rows, p) = (1024, 4000, 0.02);
        let f = flip_rows(p, len, rows, 11);
        let mut slices = [0usize; 16];
        f.iter().flat_map(BitRow::iter_ones).for_each(|bit| slices[bit * 16 / len] += 1);
        let want = (rows * len / 16) as f64 * p;
        let chi2: f64 = slices.iter().map(|&s| (s as f64 - want).powi(2) / want).sum();
        // 15 degrees of freedom: P(χ² > 40) is about 5 · 10^-4.
        assert!(chi2 < 40.0, "chi-square {chi2} over {slices:?}");
        for bit in [0, len - 1] {
            let got = f.iter().filter(|r| r.get(bit)).count() as f64;
            let sigma = (rows as f64 * p * (1.0 - p)).sqrt();
            assert_within_5_sigma(got, rows as f64 * p, sigma, &format!("bitline {bit}"));
        }
    }

    #[test]
    fn the_smallest_and_largest_thresholds() {
        // 0 takes no draw and flips nothing; u64::MAX rounds p to 1, so
        // every gap is 0 without a draw.
        for (threshold, flips) in [(0, 0), (u64::MAX, 130)] {
            let (mut gaps, mut state, mut row) = (armed(threshold), SEED, BitRow::zeros(130));
            gaps.inject(&mut state, &mut row);
            assert_eq!(row.count_ones(), flips);
            assert_eq!(gaps.flips_next(&mut state), flips > 0);
            assert_eq!(state, SEED, "threshold {threshold:#x} leaves the stream untouched");
        }
    }

    #[test]
    fn digit_tables_end_where_the_rate_says() {
        // About log2(44 / −ln q) digits: 19 at 0.01 %, 7 at 26 %; the
        // smallest threshold needs every digit and the saturating one.
        let len = |p: f64| digit_thresholds((p * TWO_POW_64) as u64).len();
        assert_eq!((len(1e-4), len(0.26), digit_thresholds(1).len()), (19, 7, 65));
        for digits in [1, 1 << 20, u64::MAX / 4].map(digit_thresholds) {
            assert!(digits[..digits.len().min(64)].windows(2).all(|w| w[0] >= w[1]));
        }
    }
}
