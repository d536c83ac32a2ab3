//! Windowed time series of throughput and latency.
//!
//! The overload detector (§3.3) and every figure in the evaluation reason
//! about performance per time window: "latency exceeds the SLO while
//! throughput remains flat". [`WindowedSeries`] buckets completion events
//! into fixed-size windows and exposes per-window throughput and latency
//! quantiles.

use std::collections::VecDeque;

use crate::histogram::LatencyHistogram;

/// Statistics for one time window.
#[derive(Debug, Clone)]
pub struct WindowStat {
    /// Window start time (ns).
    pub start: u64,
    /// Completed requests in this window.
    pub completed: u64,
    /// Dropped requests in this window.
    pub dropped: u64,
    /// Latency distribution of requests completed in this window.
    pub latency: LatencyHistogram,
}

impl WindowStat {
    fn new(start: u64) -> Self {
        Self {
            start,
            completed: 0,
            dropped: 0,
            latency: LatencyHistogram::new(),
        }
    }

    /// Empties the window and moves it to `start`, keeping its buffers.
    fn reset(&mut self, start: u64) {
        self.start = start;
        self.completed = 0;
        self.dropped = 0;
        self.latency.clear();
    }

    /// Throughput of this window in requests per second.
    pub fn throughput_qps(&self, window_ns: u64) -> f64 {
        self.completed as f64 * 1e9 / window_ns as f64
    }
}

/// The newest `capacity` fixed-width windows of a series starting at a
/// given origin.
///
/// Windows are materialized lazily and contiguously: recording an event at
/// a time several windows ahead materializes the gap as empty windows, so
/// indices always map linearly to time. Only the newest `capacity` of them
/// are kept; the slot that falls off the old end is cleared and reused, so
/// once the ring is full nothing is allocated, and a gap longer than the
/// ring recycles each slot once instead of walking the gap. A record for a
/// window that already fell off the old end is dropped.
///
/// # Examples
///
/// ```
/// use atropos_metrics::WindowedSeries;
///
/// let mut s = WindowedSeries::new(0, 1_000_000_000, 2); // 1s windows from t=0
/// s.record_completion(500_000_000, 2_000_000); // t=0.5s, latency 2ms
/// s.record_completion(1_500_000_000, 3_000_000); // t=1.5s
/// s.record_completion(2_500_000_000, 4_000_000); // t=2.5s: t=0 falls off
/// let starts: Vec<u64> = s.windows().map(|w| w.start).collect();
/// assert_eq!(starts, [1_000_000_000, 2_000_000_000]);
/// ```
#[derive(Debug, Clone)]
pub struct WindowedSeries {
    origin: u64,
    window_ns: u64,
    capacity: usize,
    /// Index of the window after the newest materialized one (0 while
    /// nothing is).
    end: u64,
    /// Windows `end - len .. end`, oldest first.
    windows: VecDeque<WindowStat>,
}

impl WindowedSeries {
    /// Creates a ring of at most `capacity` `window_ns`-wide windows
    /// starting at `origin`.
    ///
    /// # Panics
    ///
    /// Panics if `window_ns` or `capacity` is zero.
    pub fn new(origin: u64, window_ns: u64, capacity: usize) -> Self {
        assert!(window_ns > 0, "window width must be positive");
        assert!(capacity > 0, "window capacity must be positive");
        Self {
            origin,
            window_ns,
            capacity,
            end: 0,
            windows: VecDeque::with_capacity(capacity),
        }
    }

    fn index(&self, now: u64) -> u64 {
        now.saturating_sub(self.origin) / self.window_ns
    }

    /// Index of the oldest window held.
    fn first(&self) -> u64 {
        self.end - self.windows.len() as u64
    }

    fn window_at(&mut self, now: u64) -> Option<&mut WindowStat> {
        let idx = self.index(now);
        if idx >= self.end {
            // Of the windows `end..=idx`, only the newest `capacity` survive.
            let from = self.end.max((idx + 1).saturating_sub(self.capacity as u64));
            for i in from..=idx {
                let start = self.origin + i * self.window_ns;
                if self.windows.len() == self.capacity {
                    let mut w = self.windows.pop_front().expect("capacity is positive");
                    w.reset(start);
                    self.windows.push_back(w);
                } else {
                    self.windows.push_back(WindowStat::new(start));
                }
            }
            self.end = idx + 1;
        }
        let offset = idx.checked_sub(self.first())?;
        self.windows.get_mut(offset as usize)
    }

    /// Records a request completion at time `now` with the given latency.
    pub fn record_completion(&mut self, now: u64, latency_ns: u64) {
        if let Some(w) = self.window_at(now) {
            w.completed += 1;
            w.latency.record(latency_ns);
        }
    }

    /// Records a request drop at time `now`.
    pub fn record_drop(&mut self, now: u64) {
        if let Some(w) = self.window_at(now) {
            w.dropped += 1;
        }
    }

    /// Materializes (empty) windows up to the one containing `now` without
    /// recording anything. Readers that interpret "no window" as "no data"
    /// must call this so a silent period (a stall) is visible as empty
    /// windows rather than missing ones.
    pub fn touch(&mut self, now: u64) {
        let _ = self.window_at(now);
    }

    /// The windows held, oldest first.
    pub fn windows(&self) -> impl ExactSizeIterator<Item = &WindowStat> + DoubleEndedIterator {
        self.windows.iter()
    }

    /// The newest `n` *closed* windows held as of time `now`, oldest first
    /// (excludes the window containing `now`, which is still
    /// accumulating). They are the ones an unbounded series would return
    /// as long as `n` closed windows and everything recorded since fit in
    /// the ring.
    pub fn recent_closed(
        &self,
        now: u64,
        n: usize,
    ) -> impl ExactSizeIterator<Item = &WindowStat> + DoubleEndedIterator {
        let first = self.first();
        let stop = self.index(now).min(self.end).max(first);
        let start = stop.saturating_sub(n as u64).max(first);
        self.windows
            .range((start - first) as usize..(stop - first) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    fn starts(s: &WindowedSeries) -> Vec<u64> {
        s.windows().map(|w| w.start / SEC).collect()
    }

    #[test]
    fn windows_fill_contiguously() {
        let mut s = WindowedSeries::new(0, SEC, 8);
        s.record_completion(100, 10);
        s.record_completion(5 * SEC + 1, 10);
        assert_eq!(starts(&s), [0, 1, 2, 3, 4, 5]);
        let completed: Vec<u64> = s.windows().map(|w| w.completed).collect();
        assert_eq!(completed, [1, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn ring_keeps_the_newest_windows() {
        let mut s = WindowedSeries::new(0, SEC, 3);
        for t in 0..5u64 {
            s.record_completion(t * SEC + 10, 7);
        }
        assert_eq!(starts(&s), [2, 3, 4]);
        // A recycled slot starts empty.
        assert!(s
            .windows()
            .all(|w| w.completed == 1 && w.latency.count() == 1));
        // A record for a window that fell off the old end is dropped.
        s.record_completion(SEC, 7);
        s.record_drop(SEC);
        assert_eq!(starts(&s), [2, 3, 4]);
        assert!(s.windows().all(|w| w.completed == 1 && w.dropped == 0));
    }

    #[test]
    fn gap_longer_than_the_ring_replaces_every_window() {
        let mut s = WindowedSeries::new(0, SEC, 3);
        s.record_completion(10, 7);
        s.record_completion(SEC + 10, 7);
        s.touch(1_000 * SEC + 10);
        assert_eq!(starts(&s), [998, 999, 1_000]);
        assert!(s
            .windows()
            .all(|w| w.completed == 0 && w.latency.is_empty()));
    }

    #[test]
    fn origin_offsets_window_mapping() {
        let mut s = WindowedSeries::new(10 * SEC, SEC, 4);
        s.record_completion(10 * SEC + 500, 1);
        assert_eq!(starts(&s), [10]);
        // A time before the origin saturates into window 0 rather than
        // panicking.
        s.record_completion(SEC, 1);
        assert_eq!(s.windows().next().unwrap().completed, 2);
    }

    #[test]
    fn throughput_accounts_for_window_width() {
        let mut s = WindowedSeries::new(0, SEC / 2, 1);
        for i in 0..100 {
            s.record_completion(i * 1000, 5);
        }
        let w = s.windows().next().unwrap();
        assert!((w.throughput_qps(SEC / 2) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn recent_closed_excludes_current_window() {
        let mut s = WindowedSeries::new(0, SEC, 8);
        for t in 0..5u64 {
            s.record_completion(t * SEC + 10, 7);
        }
        // now = 4.5s: window 4 is current; closed windows are 0..=3.
        let recent: Vec<u64> = s
            .recent_closed(4 * SEC + SEC / 2, 2)
            .map(|w| w.start / SEC)
            .collect();
        assert_eq!(recent, [2, 3]);
        // A reader lagging one window behind the newest record.
        let lagging: Vec<u64> = s
            .recent_closed(3 * SEC + SEC / 2, 2)
            .map(|w| w.start / SEC)
            .collect();
        assert_eq!(lagging, [1, 2]);
    }

    #[test]
    fn recent_closed_handles_short_history() {
        let mut s = WindowedSeries::new(0, SEC, 8);
        s.record_completion(10, 1);
        assert_eq!(s.recent_closed(10, 5).len(), 0); // only current window
        assert_eq!(s.recent_closed(SEC + 1, 5).len(), 1);
        // A reader behind everything the ring holds sees nothing.
        s.touch(20 * SEC);
        assert_eq!(s.recent_closed(SEC, 5).len(), 0);
    }

    #[test]
    #[should_panic(expected = "window width")]
    fn zero_window_is_rejected() {
        let _ = WindowedSeries::new(0, 0, 1);
    }

    #[test]
    #[should_panic(expected = "window capacity")]
    fn zero_capacity_is_rejected() {
        let _ = WindowedSeries::new(0, SEC, 0);
    }
}
