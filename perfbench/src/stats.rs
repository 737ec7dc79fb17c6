//! Order statistics, the tail-percentile rule and the metric arithmetic.
//!
//! Kept free of simulator types so the rules the benchmark reports by are
//! unit-tested on their own.

/// The percentiles a tail may be reported at, highest last.
pub const TAIL_GRID: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 98.0, 99.0];

/// Items that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The sum over items of each item's median across runs: `runs[r][i]`
/// is item `i`'s measurement in run `r`.
///
/// # Panics
///
/// Panics if `runs` is empty or the runs differ in length.
pub fn composed_median(runs: &[&[f64]]) -> f64 {
    assert!(!runs.is_empty(), "composed median of no runs");
    let items = runs[0].len();
    assert!(runs.iter().all(|r| r.len() == items), "every run measures the same items");
    (0..items).map(|i| median(&runs.iter().map(|r| r[i]).collect::<Vec<_>>())).sum()
}

/// Nearest-rank percentile `p` (0–100] of `values`: the smallest value
/// with at least `p`% of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a `p` outside `(0, 100]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` in a sample of `n`.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// The highest [`TAIL_GRID`] percentile that leaves at least
/// [`TAIL_BEYOND`] of `n` items strictly above its nearest rank, or `None`
/// when even the median leaves fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_GRID.iter().rev().copied().find(|&p| n - nearest_rank(n, p) >= TAIL_BEYOND)
}

/// Geometric mean of positive values (`1` for an empty input).
pub fn geo_mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values.into_iter().fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        1.0
    } else {
        (sum / n as f64).exp()
    }
}

/// `num / den`, or `0` when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Relative change of `measured` over `reference`, in percent.
pub fn overhead_pct(measured: f64, reference: f64) -> f64 {
    ratio(measured - reference, reference) * 100.0
}

/// Million `events` per `seconds`.
pub fn per_second_millions(events: u64, seconds: f64) -> f64 {
    ratio(events as f64, seconds) / 1e6
}

/// A 64-bit FNV-1a hash, fed incrementally — the determinism digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes `bytes` into the hash.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mixes a `u64` into the hash.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mixes a value's `Debug` rendering into the hash.
    pub fn debug(&mut self, v: &impl std::fmt::Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn composed_median_sums_per_item_medians() {
        // Item 0 has a slow outlier in run 2; item 1 in run 0.
        let runs: [&[f64]; 3] = [&[1.0, 9.0], &[1.0, 2.0], &[5.0, 2.0]];
        assert_eq!(composed_median(&runs), 3.0);
        assert_eq!(composed_median(&[&[4.0, 5.0]]), 9.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 90.0), 3.0);
    }

    #[test]
    fn tail_keeps_ten_items_beyond() {
        // 1000 items: p99 has rank 990, exactly ten beyond.
        assert_eq!(tail_percentile(1000), Some(99.0));
        // 999 items: p99 has rank 990, nine beyond; p98 (rank 980) is next.
        assert_eq!(tail_percentile(999), Some(98.0));
        assert_eq!(tail_percentile(400), Some(95.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        for n in 20..3000 {
            let p = tail_percentile(n).unwrap();
            assert!(n - nearest_rank(n, p) >= TAIL_BEYOND, "n={n} p={p}");
            if let Some(&higher) = TAIL_GRID.iter().find(|&&q| q > p) {
                assert!(n - nearest_rank(n, higher) < TAIL_BEYOND, "n={n}: p{higher} also fits");
            }
        }
    }

    #[test]
    fn metric_arithmetic() {
        assert!((geo_mean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geo_mean(std::iter::empty()), 1.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert!((overhead_pct(1.5, 1.0) - 50.0).abs() < 1e-12);
        assert!((per_second_millions(3_000_000, 2.0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let mut a = Fnv::default();
        a.u64(1);
        a.u64(2);
        let mut b = Fnv::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a, b);
        let mut empty = Fnv::default();
        empty.bytes(b"");
        assert_eq!(empty.0, 0xcbf2_9ce4_8422_2325, "FNV-1a offset basis");
        let mut x = Fnv::default();
        x.bytes(b"a");
        assert_eq!(x.0, 0xaf63_dc4c_8601_ec8c, "published FNV-1a 64 of \"a\"");
    }
}
