//! Order statistics: exact percentiles over small sample sets, a log-linear
//! histogram for the multi-million-sample ones, and the rule that picks the
//! highest percentile a sample can support.

use std::sync::atomic::{AtomicU64, Ordering};

/// Percentiles the benchmark reports, lowest first.
const LADDER: [f64; 7] = [50.0, 80.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: f64 = 10.0;

/// Whether `pct` has at least ten samples beyond it in a sample of `n` (the
/// median always counts). The epsilon absorbs `100.0 - 99.9` not being 0.1.
pub fn supported(n: usize, pct: f64) -> bool {
    pct <= 50.0 || n as f64 * (100.0 - pct) / 100.0 + 1e-6 >= MIN_BEYOND
}

/// The highest percentile of [`LADDER`] that a sample of `n` supports.
pub fn highest_supported(n: usize) -> f64 {
    let supported = LADDER.iter().rev().find(|p| supported(n, **p));
    *supported.expect("the median is always supported")
}

/// Nearest-rank percentile of an ascending slice; 0 for an empty one.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Sorts `values` and returns them (NaNs are a bug in the caller).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    values
}

/// Median as the mean of the two middle samples (steadier than nearest rank
/// over the handful of segments a run has).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const OCTAVES: usize = 40;

/// Log-linear histogram of nanosecond durations: linear below 128 ns, then 64
/// buckets per octave (≤1.6 % wide), interpolated within the bucket on read. Relaxed atomics so
/// producers on several threads share one instance without a lock.
pub struct Hist {
    counts: Vec<AtomicU64>,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: (0..OCTAVES * SUB).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl Hist {
    fn index_of(ns: u64) -> usize {
        let v = ns.max(1);
        if v < SUB as u64 {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let octave = (msb - SUB_BITS + 1) as usize;
        let sub = (v >> octave) as usize - SUB / 2;
        (SUB + (octave - 1) * SUB / 2 + sub).min(OCTAVES * SUB - 1)
    }

    /// `[lo, hi)` of bucket `i`.
    fn bounds(i: usize) -> (f64, f64) {
        if i < SUB {
            return (i as f64, i as f64 + 1.0);
        }
        let octave = (i - SUB) / (SUB / 2) + 1;
        let sub = (i - SUB) % (SUB / 2) + SUB / 2;
        let lo = (sub as u64) << octave;
        (lo as f64, (lo + (1u64 << octave)) as f64)
    }

    pub fn record(&self, ns: u64) {
        self.counts[Self::index_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Percentile in nanoseconds, interpolated inside the bucket that holds
    /// the rank; 0 when empty.
    pub fn percentile(&self, pct: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = (pct / 100.0 * total as f64).max(1.0);
        let mut seen = 0.0;
        for (i, c) in self.counts.iter().enumerate() {
            let c = c.load(Ordering::Relaxed) as f64;
            if c > 0.0 && seen + c >= rank {
                let (lo, hi) = Self::bounds(i);
                return lo + (hi - lo) * ((rank - seen) / c);
            }
            seen += c;
        }
        unreachable!("rank {rank} lies within total {total}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_wants_ten_samples_beyond() {
        // 66 culprit episodes: p80 leaves 13 beyond, p90 only 6.
        assert_eq!(highest_supported(66), 80.0);
        // 7 500 victims: p99 leaves 75 beyond, p99.9 only 7.
        assert_eq!(highest_supported(7_500), 99.0);
        assert_eq!(highest_supported(10_000), 99.9);
        assert_eq!(highest_supported(100_000), 99.99);
        assert_eq!(highest_supported(49), 50.0);
        assert_eq!(highest_supported(50), 80.0);
        assert!(supported(1_000, 99.0));
        assert!(!supported(999, 99.0));
        assert!(supported(3, 50.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn hist_buckets_tile_the_range_and_interpolate() {
        // Every value falls inside the bounds of the bucket it indexes.
        for v in [1u64, 5, 127, 128, 129, 255, 256, 1_000, 123_456, 1 << 30] {
            let (lo, hi) = Hist::bounds(Hist::index_of(v));
            assert!(lo <= v as f64 && (v as f64) < hi, "{v}: [{lo}, {hi})");
            assert!(v < 128 || (hi - lo) / lo <= 1.0 / 64.0 + 1e-9);
        }
        let h = Hist::default();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        assert_eq!(h.count(), 10_000);
        let p50 = h.percentile(50.0);
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.02, "p50 {p50}");
        let p99 = h.percentile(99.0);
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.02, "p99 {p99}");
    }
}
