//! Fixed-size log-bucketed latency histograms.
//!
//! Long-running [`Deployment`](crate::deploy::Deployment)s used to keep
//! every per-packet latency as a raw `u64` sample to compute p50/p99 —
//! unbounded memory on an always-on serving loop. A [`LatencyHistogram`]
//! folds samples into a **fixed** set of logarithmic buckets instead
//! (HDR-histogram style: power-of-two major buckets, each split into
//! `2^5 = 32` linear sub-buckets), bounding memory at
//! [`LatencyHistogram::BUCKETS`] counters per tenant forever while keeping
//! quantiles within one bucket width (≤ 1/32 ≈ 3.1% relative error) of
//! the raw-sample values.

/// Sub-bucket resolution bits: each power-of-two range splits into
/// `2^SUB_BITS` linear sub-buckets.
const SUB_BITS: u32 = 5;

/// Sub-buckets per major (power-of-two) bucket.
const SUBS: u64 = 1 << SUB_BITS;

/// A bounded-memory histogram of nanosecond latencies.
///
/// # Example
///
/// ```
/// use homunculus_runtime::histogram::LatencyHistogram;
///
/// let mut hist = LatencyHistogram::new();
/// for ns in [120, 130, 140, 900, 4_000] {
///     hist.record(ns);
/// }
/// assert_eq!(hist.count(), 5);
/// // The raw p50 is 140; the histogram answers within one bucket width
/// // (4 ns from 128 to 256: 32 buckets per power of two).
/// assert!(hist.quantile(0.5).abs_diff(140) <= 4);
/// ```
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64]>,
    total: u64,
    sum: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// Number of buckets — the histogram's whole memory footprint, fixed
    /// for the lifetime of the deployment: 32 exact buckets for values
    /// below 32 ns, then 32 sub-buckets per power of two up to `u64::MAX`.
    pub const BUCKETS: usize = ((64 - SUB_BITS as u64 + 1) * SUBS) as usize;

    /// An empty histogram (allocates its fixed bucket array once).
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0u64; Self::BUCKETS].into_boxed_slice(),
            total: 0,
            sum: 0,
        }
    }

    /// The bucket a value lands in.
    fn bucket_index(ns: u64) -> usize {
        if ns < SUBS {
            return ns as usize;
        }
        let msb = 63 - u64::from(ns.leading_zeros());
        let shift = msb - u64::from(SUB_BITS);
        let sub = (ns >> shift) & (SUBS - 1);
        ((msb - u64::from(SUB_BITS) + 1) * SUBS + sub) as usize
    }

    /// `(lower bound, width)` of bucket `index`. Every sample in a bucket
    /// is within `width` of its representative value, which bounds the
    /// quantile error.
    fn bounds(index: usize) -> (u64, u64) {
        let index = index as u64;
        if index < SUBS {
            return (index, 1);
        }
        let exponent = index / SUBS; // >= 1
        let sub = index % SUBS;
        let width = 1u64 << (exponent - 1);
        ((SUBS + sub) * width, width)
    }

    /// Representative value reported for a bucket: its midpoint (the
    /// lower bound itself for exact, width-1 buckets).
    fn representative(index: usize) -> u64 {
        let (lower, width) = Self::bounds(index);
        lower + width / 2
    }

    /// Folds one sample in. O(1), no allocation.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket_index(ns)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact mean of the recorded samples (0.0 when empty) — the sum is
    /// tracked outside the buckets, so the mean carries no bucketing
    /// error.
    pub fn mean_ns(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]` (0 when empty): the
    /// representative value of the bucket holding the rank-`q` sample —
    /// within one bucket width of the value a raw sorted-sample
    /// percentile would report (same rank convention:
    /// `round(q * (count - 1))`).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((self.total - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen > rank {
                return Self::representative(index);
            }
        }
        // Unreachable with a consistent total; fall back to the largest
        // non-empty bucket.
        Self::representative(self.counts.iter().rposition(|&c| c > 0).unwrap_or(0))
    }

    /// Resets the histogram to empty without reallocating.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.sum = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference percentile over raw samples (the pre-histogram
    /// implementation the compaction replaced).
    fn raw_percentile(sorted: &[u64], q: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let index = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        sorted[index.min(sorted.len() - 1)]
    }

    #[test]
    fn buckets_are_contiguous_and_ordered() {
        // Every value maps to a bucket, indices never decrease, and the
        // representative stays inside the bucket's bounds.
        let mut last = 0usize;
        for ns in (0..4096u64).chain((1..40).map(|e| (1u64 << e) + 3)) {
            let index = LatencyHistogram::bucket_index(ns);
            assert!(index >= last || ns < 4096, "index regressed at {ns}");
            assert!(index < LatencyHistogram::BUCKETS);
            let (lower, width) = LatencyHistogram::bounds(index);
            assert!(ns >= lower && ns < lower + width, "bounds wrong at {ns}");
            let rep = LatencyHistogram::representative(index);
            assert!(rep >= lower && rep < lower + width, "rep outside at {ns}");
            if ns >= 4096 {
                last = index;
            }
        }
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX) + 1, {
            LatencyHistogram::BUCKETS
        });
    }

    #[test]
    fn small_values_are_exact() {
        let mut hist = LatencyHistogram::new();
        for ns in 0..32 {
            hist.record(ns);
        }
        assert_eq!(hist.quantile(0.0), 0);
        assert_eq!(hist.quantile(1.0), 31);
        assert_eq!(hist.mean_ns(), 15.5);
    }

    #[test]
    fn quantiles_stay_within_one_bucket_width_of_raw_samples() {
        // The satellite's acceptance bound: p50/p99 from the compacted
        // histogram stay within one bucket width of the raw-sample
        // percentiles, across several latency-shaped distributions.
        let distributions: Vec<Vec<u64>> = vec![
            // Tight cluster (classify latencies of a tiny model).
            (0..5_000).map(|i| 180 + (i * 7) % 60).collect(),
            // Long-tailed: mostly fast with slow outliers.
            (0..5_000)
                .map(|i| {
                    if i % 100 == 0 {
                        50_000 + i
                    } else {
                        300 + i % 40
                    }
                })
                .collect(),
            // Wide geometric spread.
            (0..5_000).map(|i| 1u64 << (i % 20)).collect(),
            // Degenerate: constant.
            vec![777; 1_000],
        ];
        for (d, samples) in distributions.into_iter().enumerate() {
            let mut hist = LatencyHistogram::new();
            for &ns in &samples {
                hist.record(ns);
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in [0.5, 0.99] {
                let raw = raw_percentile(&sorted, q);
                let compact = hist.quantile(q);
                let (_, width) = LatencyHistogram::bounds(LatencyHistogram::bucket_index(raw));
                assert!(
                    compact.abs_diff(raw) <= width,
                    "distribution {d}, q{q}: histogram {compact} vs raw {raw} \
                     (bucket width {width})"
                );
            }
            // Mean is exact, not bucketed.
            let raw_mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
            assert!((hist.mean_ns() - raw_mean).abs() < 1e-9, "distribution {d}");
        }
    }

    #[test]
    fn clear_resets_without_reallocating() {
        let mut hist = LatencyHistogram::new();
        hist.record(123);
        hist.record(1 << 40);
        assert_eq!(hist.count(), 2);
        hist.clear();
        assert!(hist.is_empty());
        assert_eq!(hist.quantile(0.5), 0);
        assert_eq!(hist.mean_ns(), 0.0);
    }

    #[test]
    fn memory_footprint_is_fixed() {
        // One million samples, same footprint as one.
        let mut hist = LatencyHistogram::new();
        for i in 0..1_000_000u64 {
            hist.record(i * 37 % 1_000_000);
        }
        assert_eq!(hist.counts.len(), LatencyHistogram::BUCKETS);
        assert_eq!(hist.count(), 1_000_000);
    }
}
