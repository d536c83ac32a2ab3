//! Property-based tests for the measurement utilities.

use atropos_metrics::{LatencyHistogram, WindowedSeries};
use proptest::prelude::*;

/// The unbounded series the ring replaced, kept as its reference: every
/// window from the origin on, gaps back-filled one window at a time.
struct VecSeries {
    origin: u64,
    window_ns: u64,
    windows: Vec<(u64, u64, u64, LatencyHistogram)>,
}

impl VecSeries {
    fn window_at(&mut self, now: u64) -> &mut (u64, u64, u64, LatencyHistogram) {
        let idx = (now.saturating_sub(self.origin) / self.window_ns) as usize;
        while self.windows.len() <= idx {
            let start = self.origin + self.windows.len() as u64 * self.window_ns;
            self.windows.push((start, 0, 0, LatencyHistogram::new()));
        }
        &mut self.windows[idx]
    }

    fn recent_closed(&self, now: u64, n: usize) -> &[(u64, u64, u64, LatencyHistogram)] {
        let current = (now.saturating_sub(self.origin) / self.window_ns) as usize;
        let end = current.min(self.windows.len());
        &self.windows[end.saturating_sub(n)..end]
    }
}

/// One series operation: `(kind, advance, lag, latency)`. The clock
/// advances by `advance` and the operation lands `lag` behind it, so times
/// go backwards, before the origin, and jump gaps longer than the ring.
fn ops() -> impl Strategy<Value = Vec<(u8, u64, u64, u64)>> {
    const W: u64 = 1_000;
    let advance = prop_oneof![0u64..2 * W, 0u64..2 * W, 0u64..12 * W];
    prop::collection::vec((0u8..3, advance, 0u64..3 * W, 1u64..10_000_000), 1..80)
}

proptest! {
    /// The ring answers every read its detector makes exactly as the
    /// unbounded series did: any `n <= capacity - 2` closed windows, read
    /// at a `now` at most one window behind the newest record.
    #[test]
    fn ring_reads_equal_the_unbounded_series(
        capacity in 3usize..9,
        origin in 0u64..4_000,
        ops in ops(),
    ) {
        const W: u64 = 1_000;
        let mut ring = WindowedSeries::new(origin, W, capacity);
        let mut reference = VecSeries { origin, window_ns: W, windows: Vec::new() };
        let mut clock = 0u64;
        for (kind, advance, lag, latency) in ops {
            clock += advance;
            let t = clock.saturating_sub(lag);
            match kind {
                0 => {
                    ring.record_completion(t, latency);
                    let w = reference.window_at(t);
                    w.1 += 1;
                    w.3.record(latency);
                }
                1 => {
                    ring.record_drop(t);
                    reference.window_at(t).2 += 1;
                }
                _ => {
                    ring.touch(t);
                    reference.window_at(t);
                }
            }
            prop_assert!(ring.windows().len() <= capacity);
            let newest = reference.windows.len() as u64 - 1;
            for ahead in 0..4u64 {
                let now = origin + (newest + ahead).saturating_sub(1) * W + lag % W;
                for n in 0..=capacity - 2 {
                    let want = reference.recent_closed(now, n);
                    let got: Vec<_> = ring.recent_closed(now, n).collect();
                    prop_assert_eq!(got.len(), want.len(), "now {} n {}", now, n);
                    for (g, (start, completed, dropped, h)) in got.iter().zip(want) {
                        prop_assert_eq!(
                            (g.start, g.completed, g.dropped),
                            (*start, *completed, *dropped)
                        );
                        let l = &g.latency;
                        prop_assert_eq!(
                            (l.count(), l.sum(), l.min(), l.max(), l.p50(), l.p99()),
                            (h.count(), h.sum(), h.min(), h.max(), h.p50(), h.p99())
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    /// Quantiles of the log-linear histogram stay within the bucketing
    /// scheme's relative error bound of the exact empirical quantile.
    #[test]
    fn percentile_error_is_bounded(mut values in prop::collection::vec(1u64..1_000_000_000_000, 1..400)) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for pct in [1.0, 25.0, 50.0, 90.0, 99.0] {
            let rank = ((pct / 100.0) * values.len() as f64).ceil().max(1.0) as usize;
            let exact = values[rank - 1] as f64;
            let got = h.percentile(pct) as f64;
            // One sub-bucket of slack in each direction (~1.6%), plus the
            // clamp to [min, max].
            prop_assert!(got >= exact * 0.96 - 1.0, "p{pct}: got {got}, exact {exact}");
            prop_assert!(got <= exact * 1.04 + 1.0, "p{pct}: got {got}, exact {exact}");
        }
    }

    /// Merging histograms equals recording all samples in one.
    #[test]
    fn merge_is_union(a in prop::collection::vec(1u64..1_000_000_000, 0..200),
                      b in prop::collection::vec(1u64..1_000_000_000, 0..200)) {
        let mut ha = LatencyHistogram::new();
        let mut hb = LatencyHistogram::new();
        let mut hu = LatencyHistogram::new();
        for &v in &a { ha.record(v); hu.record(v); }
        for &v in &b { hb.record(v); hu.record(v); }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hu.count());
        prop_assert_eq!(ha.sum(), hu.sum());
        prop_assert_eq!(ha.min(), hu.min());
        prop_assert_eq!(ha.max(), hu.max());
        for pct in [50.0, 99.0] {
            prop_assert_eq!(ha.percentile(pct), hu.percentile(pct));
        }
    }

    /// Percentile is monotone in the requested quantile.
    #[test]
    fn percentile_monotone(values in prop::collection::vec(1u64..1_000_000_000, 1..300)) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut last = 0;
        for p in (0..=100).step_by(5) {
            let v = h.percentile(p as f64);
            prop_assert!(v >= last);
            last = v;
        }
        prop_assert!(h.percentile(100.0) == h.max());
    }

    /// Mean × count equals the sum exactly.
    #[test]
    fn mean_consistent(values in prop::collection::vec(1u64..1_000_000, 1..200)) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let mean = h.mean();
        let expect = values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64;
        prop_assert!((mean - expect).abs() < 1e-6 * expect.max(1.0));
    }
}
