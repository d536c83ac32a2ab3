//! Overload detection (§3.3).
//!
//! Atropos layers its detection on the state-of-the-art signal from
//! Breakwater: it continuously monitors end-to-end throughput and latency,
//! and flags a *candidate* overload when the latency quantile exceeds the
//! SLO while throughput stays flat (more demand is not producing more
//! completions — something inside is saturated). The estimator then
//! verifies whether a specific application resource is the bottleneck; if
//! so the event is classified as a *resource overload* and triggers a
//! cancellation decision, otherwise it is *regular* overload and is
//! delegated to whatever admission-control mechanism is in place.

use atropos_metrics::WindowedSeries;

use crate::config::DetectorConfig;
use crate::ids::ResourceId;
use crate::record::{DecisionEvent, RecorderHandle};

/// The latency quantile the SLO applies to: p99, as in the paper.
pub const LATENCY_QUANTILE: f64 = 99.0;

/// Throughput counts as "flat" while its relative window-over-window rise
/// stays at or below this fraction; a latency violation on rising
/// throughput is read as ramp-up, not saturation.
pub const THROUGHPUT_FLAT_EPSILON: f64 = 0.05;

/// A candidate is also raised when the latest window's completions fall
/// this fraction below the recent-history mean while work is in flight (a
/// partial convoy's victims complete only after release, so the latency
/// signal alone is too slow).
pub const THROUGHPUT_DROP_FRAC: f64 = 0.25;

/// Result of one detector evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum OverloadSignal {
    /// Performance within SLO (or not enough data yet).
    Ok,
    /// Latency violates the SLO while throughput is flat: a potential
    /// resource overload, pending estimator verification.
    Candidate {
        /// Observed latency at [`LATENCY_QUANTILE`] (ns).
        latency_ns: u64,
        /// Observed throughput in the latest closed window (qps).
        throughput_qps: f64,
    },
}

/// Estimator verdict on a candidate overload.
#[derive(Debug, Clone, PartialEq)]
pub enum OverloadClass {
    /// One or more application resources are bottlenecked; listed most
    /// contended first.
    Resource(Vec<ResourceId>),
    /// No specific resource is bottlenecked: regular (demand) overload,
    /// handled by the fallback mechanism.
    Regular,
}

/// The periodic end-to-end performance monitor.
#[derive(Debug)]
pub struct Detector {
    cfg: DetectorConfig,
    series: WindowedSeries,
    evaluations: u64,
    candidates: u64,
}

impl Detector {
    /// Creates a detector with windows starting at `origin`.
    ///
    /// It keeps `history + 2` windows: the `history` closed ones it reads,
    /// the one being filled, and one more because a producer can record a
    /// completion in the next window after the ticker read its `now`.
    pub fn new(cfg: DetectorConfig, origin: u64) -> Self {
        let series = WindowedSeries::new(origin, cfg.window_ns, cfg.history + 2);
        Self {
            cfg,
            series,
            evaluations: 0,
            candidates: 0,
        }
    }

    /// Records a completed work unit.
    pub fn record_completion(&mut self, now: u64, latency_ns: u64) {
        self.series.record_completion(now, latency_ns);
    }

    /// Records a dropped work unit.
    pub fn record_drop(&mut self, now: u64) {
        self.series.record_drop(now);
    }

    /// Evaluates the overload condition at time `now`.
    ///
    /// `in_flight` is the number of work units currently executing; it
    /// distinguishes a *stall* (no completions while work is pending —
    /// the extreme form of overload) from an idle system.
    pub fn evaluate(&mut self, now: u64, in_flight: u64) -> OverloadSignal {
        self.evaluations += 1;
        // Materialize empty windows: during a stall nothing is recorded,
        // and the silent period must read as empty windows, not stale ones.
        self.series.touch(now);
        let mut recent = self.series.recent_closed(now, 2);
        let (Some(last), Some(prev)) = (recent.next_back(), recent.next_back()) else {
            return OverloadSignal::Ok;
        };
        if last.completed == 0 {
            if in_flight > 0 {
                self.candidates += 1;
                return OverloadSignal::Candidate {
                    latency_ns: u64::MAX,
                    throughput_qps: 0.0,
                };
            }
            return OverloadSignal::Ok;
        }
        let latency = last.latency.percentile(LATENCY_QUANTILE);
        let tput_prev = prev.throughput_qps(self.cfg.window_ns);
        let tput_last = last.throughput_qps(self.cfg.window_ns);
        // A throughput collapse with work still in flight is a candidate
        // even when the (surviving) completions look fast: a partial
        // convoy blocks its victims, and their inflated latencies only
        // surface *after* the culprit releases — too late to act on.
        let hist = self.series.recent_closed(now, self.cfg.history);
        let hist_len = hist.len();
        let hist_mean = if hist_len == 0 {
            0.0
        } else {
            hist.map(|w| w.completed).sum::<u64>() as f64 / hist_len as f64
        };
        let collapsed = in_flight > 0
            && hist_mean > 0.0
            && (last.completed as f64) < hist_mean * (1.0 - THROUGHPUT_DROP_FRAC);
        if collapsed {
            self.candidates += 1;
            return OverloadSignal::Candidate {
                latency_ns: latency,
                throughput_qps: tput_last,
            };
        }
        if latency <= self.cfg.slo_latency_ns {
            return OverloadSignal::Ok;
        }
        let rising =
            tput_prev > 0.0 && (tput_last - tput_prev) / tput_prev > THROUGHPUT_FLAT_EPSILON;
        if rising {
            // Throughput still climbing: the latency bump may be transient
            // ramp-up, not saturation.
            return OverloadSignal::Ok;
        }
        self.candidates += 1;
        OverloadSignal::Candidate {
            latency_ns: latency,
            throughput_qps: tput_last,
        }
    }

    /// [`Detector::evaluate`] plus decision-trace emission: a candidate
    /// verdict additionally emits an `OverloadDetected` event carrying the
    /// observed latency and throughput. Behavior is otherwise identical.
    pub fn evaluate_recorded(
        &mut self,
        now: u64,
        in_flight: u64,
        rec: &RecorderHandle<'_>,
    ) -> OverloadSignal {
        let signal = self.evaluate(now, in_flight);
        if let OverloadSignal::Candidate {
            latency_ns,
            throughput_qps,
        } = signal
        {
            rec.emit(|tick| DecisionEvent::OverloadDetected {
                tick,
                latency_ns,
                throughput_qps,
            });
        }
        signal
    }

    /// `(evaluations, candidate overloads)` counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.evaluations, self.candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;
    const WIN: u64 = 100 * MS;

    fn cfg(slo_ms: u64) -> DetectorConfig {
        DetectorConfig {
            window_ns: WIN,
            history: 8,
            slo_latency_ns: slo_ms * MS,
            min_contention: 0.1,
        }
    }

    fn fill_window(d: &mut Detector, w: u64, n: u64, latency: u64) {
        for i in 0..n {
            d.record_completion(w * WIN + i * (WIN / (n + 1)), latency);
        }
    }

    #[test]
    fn no_data_is_ok() {
        let mut d = Detector::new(cfg(10), 0);
        assert_eq!(d.evaluate(WIN * 3, 0), OverloadSignal::Ok);
    }

    #[test]
    fn healthy_latency_is_ok() {
        let mut d = Detector::new(cfg(10), 0);
        fill_window(&mut d, 0, 100, 2 * MS);
        fill_window(&mut d, 1, 100, 2 * MS);
        assert_eq!(d.evaluate(2 * WIN + 1, 5), OverloadSignal::Ok);
    }

    #[test]
    fn slo_violation_with_flat_throughput_is_candidate() {
        let mut d = Detector::new(cfg(10), 0);
        fill_window(&mut d, 0, 100, 2 * MS);
        fill_window(&mut d, 1, 100, 50 * MS); // latency blows past SLO
        match d.evaluate(2 * WIN + 1, 5) {
            OverloadSignal::Candidate { latency_ns, .. } => {
                assert!(latency_ns > 10 * MS);
            }
            other => panic!("expected candidate, got {other:?}"),
        }
        assert_eq!(d.counters().1, 1);
    }

    #[test]
    fn slo_violation_with_rising_throughput_is_ok() {
        let mut d = Detector::new(cfg(10), 0);
        fill_window(&mut d, 0, 50, 2 * MS);
        fill_window(&mut d, 1, 100, 50 * MS); // latency high but tput doubled
        assert_eq!(d.evaluate(2 * WIN + 1, 5), OverloadSignal::Ok);
    }

    #[test]
    fn slo_violation_with_falling_throughput_is_candidate() {
        let mut d = Detector::new(cfg(10), 0);
        fill_window(&mut d, 0, 100, 2 * MS);
        fill_window(&mut d, 1, 40, 50 * MS);
        assert!(matches!(
            d.evaluate(2 * WIN + 1, 5),
            OverloadSignal::Candidate { .. }
        ));
    }

    #[test]
    fn stall_after_traffic_is_candidate() {
        let mut d = Detector::new(cfg(10), 0);
        fill_window(&mut d, 0, 100, 2 * MS);
        // Window 1 empty: create it by recording a drop.
        d.record_drop(WIN + 1);
        match d.evaluate(2 * WIN + 1, 5) {
            OverloadSignal::Candidate { throughput_qps, .. } => {
                assert_eq!(throughput_qps, 0.0);
            }
            other => panic!("expected stall candidate, got {other:?}"),
        }
    }

    #[test]
    fn idle_system_is_ok() {
        let mut d = Detector::new(cfg(10), 0);
        d.record_drop(1); // windows exist but no completions at all
        d.record_drop(WIN + 1);
        assert_eq!(d.evaluate(2 * WIN + 1, 0), OverloadSignal::Ok);
    }

    #[test]
    fn persistent_stall_stays_a_candidate() {
        // A convoy can stall the server for many windows; the detector
        // must keep flagging it as long as work is in flight, even after
        // all recent windows are empty.
        let mut d = Detector::new(cfg(10), 0);
        fill_window(&mut d, 0, 100, 2 * MS);
        for w in 1..20u64 {
            d.record_drop(w * WIN + 1); // keep windows materialized, empty
            assert!(
                matches!(
                    d.evaluate((w + 1) * WIN + 1, 50),
                    OverloadSignal::Candidate { .. }
                ),
                "window {w} lost the stall"
            );
        }
        // Work drains: in-flight reaches zero, detector goes quiet.
        assert_eq!(d.evaluate(21 * WIN + 1, 0), OverloadSignal::Ok);
    }

    #[test]
    fn throughput_collapse_is_candidate_even_with_fast_latencies() {
        // A partial convoy blocks a subset of traffic; survivors stay
        // fast, so the latency signal is silent — the collapse signal
        // must fire.
        let mut d = Detector::new(cfg(10), 0);
        for w in 0..4 {
            fill_window(&mut d, w, 100, 2 * MS);
        }
        fill_window(&mut d, 4, 40, 2 * MS); // 60% drop, latency healthy
        assert!(matches!(
            d.evaluate(5 * WIN + 1, 50),
            OverloadSignal::Candidate { .. }
        ));
    }

    #[test]
    fn small_dips_do_not_trigger_collapse() {
        let mut d = Detector::new(cfg(10), 0);
        for w in 0..4 {
            fill_window(&mut d, w, 100, 2 * MS);
        }
        fill_window(&mut d, 4, 85, 2 * MS); // 15% dip < 25% threshold
        assert_eq!(d.evaluate(5 * WIN + 1, 50), OverloadSignal::Ok);
    }

    #[test]
    fn collapse_requires_in_flight_work() {
        // Demand simply went away: not an overload.
        let mut d = Detector::new(cfg(10), 0);
        for w in 0..4 {
            fill_window(&mut d, w, 100, 2 * MS);
        }
        fill_window(&mut d, 4, 10, 2 * MS);
        assert_eq!(d.evaluate(5 * WIN + 1, 0), OverloadSignal::Ok);
    }

    #[test]
    fn collapse_test_sees_full_history_past_a_record_one_window_ahead() {
        // A producer's completion lands in window 10 after the ticker read
        // `now` in window 9: the ring must still hold windows 1..=8, the
        // `history` closed windows the collapse test averages. Window 1's
        // burst is what makes window 8's dip a collapse; a ring one window
        // shorter loses it and reads the dip as healthy.
        let mut d = Detector::new(cfg(10), 0);
        fill_window(&mut d, 0, 100, 2 * MS);
        fill_window(&mut d, 1, 1_000, 2 * MS);
        for w in 2..8 {
            fill_window(&mut d, w, 100, 2 * MS);
        }
        fill_window(&mut d, 8, 80, 2 * MS);
        d.record_completion(10 * WIN + 1, 2 * MS);
        assert!(matches!(
            d.evaluate(9 * WIN + 1, 50),
            OverloadSignal::Candidate { .. }
        ));
    }

    #[test]
    fn ring_holds_history_plus_two_windows() {
        let mut d = Detector::new(cfg(10), 0);
        for w in 0..100 {
            fill_window(&mut d, w, 3, 2 * MS);
            d.evaluate(w * WIN + 1, 1);
            assert!(d.series.windows().len() <= d.cfg.history + 2);
        }
        assert_eq!(d.series.windows().len(), d.cfg.history + 2);
    }

    #[test]
    fn evaluation_counter_increments() {
        let mut d = Detector::new(cfg(10), 0);
        d.evaluate(WIN, 0);
        d.evaluate(2 * WIN, 0);
        assert_eq!(d.counters().0, 2);
    }
}
