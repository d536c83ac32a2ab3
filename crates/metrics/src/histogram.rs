//! Log-linear latency histogram.
//!
//! Latency distributions in the paper span five orders of magnitude (tens of
//! microseconds for point selects up to hundreds of seconds for blocked
//! writes), so a linear histogram is useless and storing raw samples is too
//! expensive at tens of thousands of requests per second. We use the classic
//! HdrHistogram bucketing scheme: values are grouped by their order of
//! magnitude (octave) and each octave is split into a fixed number of linear
//! sub-buckets, which bounds the relative quantile error by
//! `1 / SUB_BUCKETS`.

use serde::{Deserialize, Serialize};

/// Number of linear sub-buckets per power of two.
///
/// 64 sub-buckets bound the relative error of any reported quantile to
/// about 1.6%, which is far below the differences the paper's figures rely
/// on (2x–100x).
const SUB_BUCKETS: usize = 64;
const SUB_BUCKET_BITS: u32 = 6; // log2(SUB_BUCKETS)

/// Number of octaves covered: values up to `2^(OCTAVES + SUB_BUCKET_BITS)`
/// nanoseconds (~2.3 hours) are recorded exactly; larger values clamp.
const OCTAVES: usize = 43;

const BUCKET_COUNT: usize = SUB_BUCKETS * (OCTAVES + 1);

/// A log-linear histogram of `u64` values (nanoseconds by convention).
///
/// # Examples
///
/// ```
/// use atropos_metrics::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for v in 1..=1000u64 {
///     h.record(v * 1000); // 1µs .. 1ms
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.percentile(50.0);
/// assert!((450_000..=550_000).contains(&p50), "p50 was {p50}");
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKET_COUNT],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Maps a value to its bucket index.
    fn index_of(value: u64) -> usize {
        let v = value.max(1);
        // Values below SUB_BUCKETS fall in the first, purely linear, region.
        if v < SUB_BUCKETS as u64 {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let octave = (msb - SUB_BUCKET_BITS + 1).min(OCTAVES as u32);
        let sub = (v >> octave) as usize; // in [SUB_BUCKETS/2, SUB_BUCKETS)
        ((octave as usize) * SUB_BUCKETS + sub).min(BUCKET_COUNT - 1)
    }

    /// Returns a representative value (upper bound) for a bucket index.
    fn value_of(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let octave = (index / SUB_BUCKETS) as u32;
        let sub = (index % SUB_BUCKETS) as u64;
        // Upper edge of the bucket: ((sub + 1) << octave) - 1.
        ((sub + 1) << octave) - 1
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::index_of(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean of recorded values, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Returns the value at the given percentile (0–100).
    ///
    /// The result is the upper edge of the bucket containing the requested
    /// rank, clamped to the recorded maximum so `percentile(100.0) == max()`.
    pub fn percentile(&self, pct: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let pct = pct.clamp(0.0, 100.0);
        if pct >= 100.0 {
            return self.max;
        }
        let rank = ((pct / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value_of(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Shorthand for the 50th percentile.
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// Shorthand for the 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Shorthand for the 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.percentile(99.9)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Removes all observations. Costs the span of buckets between the
    /// smallest and largest value recorded, not the whole table.
    pub fn clear(&mut self) {
        if self.count > 0 {
            self.counts[Self::index_of(self.min)..=Self::index_of(self.max)].fill(0);
        }
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// True if no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .field("max", &self.max())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn single_value_is_exact_at_all_percentiles() {
        let mut h = LatencyHistogram::new();
        h.record(1_234_567);
        for pct in [0.0, 1.0, 50.0, 99.0, 100.0] {
            let v = h.percentile(pct);
            let err = (v as f64 - 1_234_567.0).abs() / 1_234_567.0;
            assert!(err < 0.02, "pct {pct}: {v}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        assert_eq!(h.count(), SUB_BUCKETS as u64);
        assert_eq!(h.max(), SUB_BUCKETS as u64 - 1);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn percentiles_of_uniform_range_have_bounded_error() {
        let mut h = LatencyHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for pct in [10.0, 50.0, 90.0, 99.0, 99.9] {
            let expected = pct / 100.0 * 100_000.0;
            let got = h.percentile(pct) as f64;
            let err = (got - expected).abs() / expected;
            assert!(err < 0.03, "pct {pct}: expected {expected}, got {got}");
        }
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for v in [1u64, 5, 100, 10_000, 1_000_000, 123_456_789] {
            a.record(v);
            all.record(v);
        }
        for v in [2u64, 50, 777, 999_999_999] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.sum(), all.sum());
        assert_eq!(a.p50(), all.p50());
        assert_eq!(a.p99(), all.p99());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn clear_resets_everything() {
        let mut h = LatencyHistogram::new();
        h.record(123);
        h.record(456_789);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.p99(), 0);
        assert_eq!(h.max(), 0);
        // No bucket survives: a reused histogram reads like a new one.
        h.record(50_000);
        let mut fresh = LatencyHistogram::new();
        fresh.record(50_000);
        assert_eq!(h.counts, fresh.counts);
    }

    #[test]
    fn huge_values_clamp_instead_of_panicking() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX / 2);
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile(100.0), u64::MAX);
        assert!(h.percentile(1.0) >= u64::MAX / 2);
    }

    #[test]
    fn percentile_is_monotonic_in_pct() {
        let mut h = LatencyHistogram::new();
        let mut x = 17u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(x % 10_000_000 + 1);
        }
        let mut last = 0;
        for p in 0..=100 {
            let v = h.percentile(p as f64);
            assert!(v >= last, "p{p}: {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn bucket_roundtrip_error_is_bounded() {
        for shift in 0..40u32 {
            let v = (1u64 << shift) + (1u64 << shift) / 3;
            let idx = LatencyHistogram::index_of(v);
            let back = LatencyHistogram::value_of(idx);
            let err = (back as f64 - v as f64).abs() / v as f64;
            assert!(err < 0.04, "v={v} back={back} err={err}");
        }
    }
}
