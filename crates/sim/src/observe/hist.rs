//! Fixed-bucket log-linear latency histograms.
//!
//! [`LatencyHistogram`] covers the full `u64` nanosecond range with 1920
//! buckets: values below 32 ns get exact buckets, and every power-of-two
//! range above is split into 32 linear sub-buckets, bounding the relative
//! quantile error at ~3 % — the HdrHistogram construction, sized for
//! simulation latencies. Recording is two shifts and an increment, merging
//! is element-wise addition (histograms from parallel shards combine
//! exactly), and the memory footprint is a flat 15 KiB per histogram.

use serde::{Deserialize, Serialize};

/// Linear sub-buckets per power-of-two range (32 ⇒ ≤ ~3 % relative error).
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count: 32 exact buckets + 59 ranges × 32 sub-buckets
/// (msb 5 through 63 each contribute one 32-bucket range).
const BUCKETS: usize = ((64 - SUB_BITS + 1) * SUB as u32) as usize;

/// Bucket index of a nanosecond value.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let sub = (v >> (msb - SUB_BITS)) & (SUB - 1);
        (((msb - SUB_BITS + 1) as u64 * SUB) + sub) as usize
    }
}

/// Inclusive lower bound of a bucket (its reported representative value).
#[inline]
fn bucket_floor(index: usize) -> u64 {
    let i = index as u64;
    if i < SUB {
        i
    } else {
        let block = i / SUB - 1;
        let sub = i % SUB;
        let msb = block + u64::from(SUB_BITS);
        (1u64 << msb) + (sub << (msb - u64::from(SUB_BITS)))
    }
}

/// A mergeable log-linear latency histogram over `u64` nanoseconds.
///
/// ```
/// use aftl_sim::observe::hist::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for v in [10, 20, 30, 40, 1_000_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.min_ns(), 10);
/// assert_eq!(h.p50_ns(), 30);
/// assert!(h.p99_ns() >= 970_000, "p99 lands in the 1 ms bucket");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Record one latency sample.
    #[inline]
    pub fn record(&mut self, latency_ns: u64) {
        self.counts[bucket_of(latency_ns)] += 1;
        self.count += 1;
        self.sum_ns += u128::from(latency_ns);
        self.min_ns = self.min_ns.min(latency_ns);
        self.max_ns = self.max_ns.max(latency_ns);
    }

    /// Total samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact minimum sample, or 0 when empty.
    pub fn min_ns(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.min_ns
        }
    }

    /// Exact maximum sample, or 0 when empty.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Exact arithmetic mean, or 0 when empty.
    pub fn mean_ns(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// The value at quantile `q ∈ [0, 1]` (bucket lower bound, so within
    /// one bucket width — ≤ ~3 % — below the exact sample). 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.is_empty() {
            return 0;
        }
        // Rank of the target sample, 1-based, clamped to the population.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The extreme buckets are exact thanks to min/max tracking.
                return bucket_floor(i).clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median latency.
    pub fn p50_ns(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile latency.
    pub fn p95_ns(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile latency.
    pub fn p99_ns(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile latency.
    pub fn p999_ns(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Fold `other` into `self`. Exact: the merged histogram equals one
    /// built from the union of both sample streams.
    ///
    /// ```
    /// use aftl_sim::observe::hist::LatencyHistogram;
    ///
    /// let mut a = LatencyHistogram::new();
    /// let mut b = LatencyHistogram::new();
    /// a.record(100);
    /// b.record(900);
    /// a.merge(&b);
    /// assert_eq!(a.count(), 2);
    /// assert_eq!(a.min_ns(), 100);
    /// assert_eq!(a.max_ns(), 900);
    /// ```
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Drop all samples.
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.count = 0;
        self.sum_ns = 0;
        self.min_ns = u64::MAX;
        self.max_ns = 0;
    }

    /// Condense into the serializable summary run manifests carry.
    ///
    /// ```
    /// use aftl_sim::observe::hist::LatencyHistogram;
    ///
    /// let mut h = LatencyHistogram::new();
    /// (1..=100).for_each(|v| h.record(v * 1000));
    /// let s = h.summary();
    /// assert_eq!(s.count, 100);
    /// assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns);
    /// assert_eq!(s.max_ns, 100_000);
    /// ```
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            min_ns: self.min_ns(),
            max_ns: self.max_ns(),
            mean_ns: self.mean_ns(),
            p50_ns: self.p50_ns(),
            p95_ns: self.p95_ns(),
            p99_ns: self.p99_ns(),
            p999_ns: self.p999_ns(),
        }
    }
}

/// Serializable condensation of a [`LatencyHistogram`] for run manifests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Exact minimum (0 when empty).
    pub min_ns: u64,
    /// Exact maximum (0 when empty).
    pub max_ns: u64,
    /// Exact arithmetic mean (0 when empty).
    pub mean_ns: f64,
    /// Median (bucket-resolved, ≤ ~3 % below the exact sample).
    pub p50_ns: u64,
    /// 95th percentile.
    pub p95_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_contiguous_and_monotone() {
        // Every bucket's floor maps back to its own index, floors strictly
        // increase, and consecutive values never skip a bucket.
        let mut prev_floor = 0;
        for i in 0..BUCKETS {
            let f = bucket_floor(i);
            assert_eq!(bucket_of(f), i, "floor of bucket {i} maps back");
            if i > 0 {
                assert!(f > prev_floor, "floors monotone at {i}");
            }
            prev_floor = f;
        }
        // Boundary spot checks: the first log-linear range starts at 32.
        assert_eq!(bucket_of(31), 31);
        assert_eq!(bucket_of(32), 32);
        assert_eq!(bucket_of(63), 63);
        assert_eq!(bucket_of(64), 64);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn relative_error_bounded() {
        for v in [100u64, 999, 12_345, 1 << 20, 987_654_321, u64::MAX / 3] {
            let f = bucket_floor(bucket_of(v));
            assert!(f <= v);
            let err = (v - f) as f64 / v as f64;
            assert!(err <= 1.0 / SUB as f64, "error {err} at {v}");
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.p50_ns(), 0);
        assert_eq!(h.p999_ns(), 0);
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_ns, 0);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut h = LatencyHistogram::new();
        h.record(77_000);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!((75_000..=77_000).contains(&v), "q{q} = {v}");
        }
        // min/max clamping makes the single sample exact.
        assert_eq!(h.quantile(0.5), h.min_ns().max(h.quantile(0.5)));
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let mut h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 1_000); // 1 µs .. 10 ms
        }
        let p50 = h.p50_ns();
        let p99 = h.p99_ns();
        assert!((4_700_000..=5_000_000).contains(&p50), "p50 {p50}");
        assert!((9_500_000..=9_900_000).contains(&p99), "p99 {p99}");
        assert!(h.p999_ns() >= p99);
        assert_eq!(h.max_ns(), 10_000_000);
    }

    #[test]
    fn merge_equals_union() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut u = LatencyHistogram::new();
        for v in 0..1000u64 {
            let x = v * v % 100_000;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            u.record(x);
        }
        a.merge(&b);
        assert_eq!(a, u, "merge is exactly the union of the streams");
    }

    #[test]
    fn reset_empties() {
        let mut h = LatencyHistogram::new();
        h.record(5);
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h, LatencyHistogram::new());
    }
}
