//! Order statistics for repeated measurements: median, MAD, nearest-rank
//! percentiles, and the quartile spread the acceptance gate uses.

/// A sorted copy of `values` (NaNs are a caller bug and sort last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// Median; the mean of the two middle values for even counts, 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let deviations: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&deviations)
}

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `p` of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // The epsilon keeps 0.9 * 100 = 90.00000000000001 at rank 90.
    let rank = (p * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentiles a latency sample may be asked for, ascending, as
/// `(percentile, one sample in how many lies beyond it)`.
const TAILS: [(f64, usize); 4] = [(0.5, 2), (0.9, 10), (0.99, 100), (0.999, 1_000)];

/// The highest of p50/p90/p99/p99.9 that still has at least ten samples
/// beyond it in a sample of `n` — a tail read off fewer points is noise.
pub fn highest_supported_percentile(n: usize) -> f64 {
    TAILS
        .into_iter()
        .rev()
        .find(|&(_, one_in)| n / one_in >= 10)
        .map_or(0.5, |(p, _)| p)
}

/// `percentile(p)` when the sample supports it, otherwise the highest
/// supported percentile; the second value is the percentile actually read.
pub fn tail(sorted: &[f64], p: f64) -> (f64, f64) {
    let used = p.min(highest_supported_percentile(sorted.len()));
    (percentile(sorted, used), used)
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (the "exclusive" method) — the spread the benchmark gate computes.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let m = median(&v);
    if m == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / m.abs()
    }
}

/// What one metric reports: the median over the repetitions plus enough
/// of the distribution to judge whether two medians can be told apart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub mad: f64,
    pub n: usize,
    /// Quartile spread of the samples (0 for fewer than two).
    pub spread: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let v = sorted(values);
        Summary {
            median: median(&v),
            min: v.first().copied().unwrap_or(0.0),
            max: v.last().copied().unwrap_or(0.0),
            mad: mad(&v),
            n: v.len(),
            spread: quartile_spread(&v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // deviations from 3: 2, 1, 0, 1, 6 -> median 1
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 9.0]), 1.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(5), 0.5);
        assert_eq!(highest_supported_percentile(20), 0.5);
        assert_eq!(highest_supported_percentile(99), 0.5);
        assert_eq!(highest_supported_percentile(100), 0.9);
        assert_eq!(highest_supported_percentile(999), 0.9);
        assert_eq!(highest_supported_percentile(1_000), 0.99);
        assert_eq!(highest_supported_percentile(10_000), 0.999);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // 200 samples support p90 (20 beyond) but not p99 (2 beyond).
        assert_eq!(tail(&v, 0.99), (180.0, 0.9));
        assert_eq!(tail(&v, 0.5), (100.0, 0.5));
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11, 13], n=4) == [10.25, 11.5, 12.75]
        let spread = quartile_spread(&[10.0, 12.0, 11.0, 13.0]);
        assert!((spread - 2.5 / 11.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[4.2]), 0.0);
    }

    #[test]
    fn summary_carries_the_distribution() {
        let s = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (3.0, 1.0, 5.0, 3));
        assert_eq!(s.mad, 2.0);
        let one = Summary::of(&[0.892]);
        assert_eq!((one.median, one.n, one.spread), (0.892, 1, 0.0));
    }
}
