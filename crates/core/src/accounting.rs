//! Per-task, per-resource usage accounting (§3.2).
//!
//! The runtime manager attributes every traced event to a `(task,
//! resource)` pair. Estimation happens per detection window, so each stat
//! keeps both cumulative totals (for end-of-run reporting) and window-local
//! accumulators that are closed at every [`UsageStats::roll_window`] call.
//! Open wait/hold intervals are *renewed* at window boundaries: the elapsed
//! part is charged to the closing window and the interval restarts, which
//! keeps window accounting exact without retroactive clipping.
//!
//! Event semantics per resource type (one uniform protocol, §3.2):
//!
//! | type   | `slow_by`                | `get`              | `free`       |
//! |--------|--------------------------|--------------------|--------------|
//! | Lock   | began waiting            | acquired (wait ends, hold starts) | released |
//! | Queue  | entered queue            | dequeued, runs     | finished     |
//! | Memory | caused `amount` evictions (stall starts) | acquired `amount` pages (stall ends) | released pages |
//! | System | began waiting (CPU/IO)   | got the device     | yielded it   |

use serde::{Deserialize, Serialize};

/// Usage counters for one `(task, resource)` pair.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct UsageStats {
    /// Cumulative units acquired (pages, lock acquisitions, queue slots).
    pub acquired: u64,
    /// Cumulative units freed.
    pub freed: u64,
    /// Cumulative `slow_by` events.
    pub slow_events: u64,
    /// Cumulative `slow_by` amount (e.g. pages evicted).
    pub slow_amount: u64,
    /// Cumulative closed waiting time (ns).
    pub total_wait_ns: u64,
    /// Cumulative closed holding/usage time (ns).
    pub total_hold_ns: u64,
    /// Units currently held.
    pub held: u64,
    /// Open wait interval start, if the task is currently waiting.
    wait_since: Option<u64>,
    /// Open hold interval start, if the task currently holds units.
    hold_since: Option<u64>,
    // Window-local accumulators, reset by `roll_window`.
    w_acquired: u64,
    w_freed: u64,
    w_slow_events: u64,
    w_slow_amount: u64,
    w_wait_ns: u64,
    w_hold_ns: u64,
    /// The most recently closed window, read by the estimator.
    last_window: WindowUsage,
}

/// Closed-window usage figures for one `(task, resource)` pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowUsage {
    /// Units acquired in the window.
    pub acquired: u64,
    /// Units freed in the window.
    pub freed: u64,
    /// `slow_by` events in the window.
    pub slow_events: u64,
    /// `slow_by` amount in the window.
    pub slow_amount: u64,
    /// Waiting time accrued in the window (ns).
    pub wait_ns: u64,
    /// Holding/usage time accrued in the window (ns).
    pub hold_ns: u64,
    /// Units held at the end of the window.
    pub held_at_end: u64,
}

impl UsageStats {
    /// Records a `get_resource` event.
    pub fn on_get(&mut self, now: u64, amount: u64) {
        if let Some(since) = self.wait_since.take() {
            let d = now.saturating_sub(since);
            self.total_wait_ns += d;
            self.w_wait_ns += d;
        }
        self.acquired += amount;
        self.w_acquired += amount;
        if self.held == 0 && amount > 0 {
            self.hold_since = Some(now);
        }
        self.held += amount;
    }

    /// Records a `free_resource` event.
    pub fn on_free(&mut self, now: u64, amount: u64) {
        self.freed += amount;
        self.w_freed += amount;
        self.held = self.held.saturating_sub(amount);
        if self.held == 0 {
            if let Some(since) = self.hold_since.take() {
                let d = now.saturating_sub(since);
                self.total_hold_ns += d;
                self.w_hold_ns += d;
            }
        }
    }

    /// Records a `slow_by_resource` event.
    pub fn on_slow(&mut self, now: u64, amount: u64) {
        self.slow_events += 1;
        self.w_slow_events += 1;
        self.slow_amount += amount;
        self.w_slow_amount += amount;
        if self.wait_since.is_none() {
            self.wait_since = Some(now);
        }
    }

    /// Closes the current window at time `now`: open intervals are charged
    /// up to `now` and renewed, window accumulators are published to
    /// [`UsageStats::window`] and reset.
    pub fn roll_window(&mut self, now: u64) {
        if let Some(since) = self.wait_since {
            let d = now.saturating_sub(since);
            self.total_wait_ns += d;
            self.w_wait_ns += d;
            self.wait_since = Some(now);
        }
        if let Some(since) = self.hold_since {
            let d = now.saturating_sub(since);
            self.total_hold_ns += d;
            self.w_hold_ns += d;
            self.hold_since = Some(now);
        }
        self.last_window = WindowUsage {
            acquired: self.w_acquired,
            freed: self.w_freed,
            slow_events: self.w_slow_events,
            slow_amount: self.w_slow_amount,
            wait_ns: self.w_wait_ns,
            hold_ns: self.w_hold_ns,
            held_at_end: self.held,
        };
        self.w_acquired = 0;
        self.w_freed = 0;
        self.w_slow_events = 0;
        self.w_slow_amount = 0;
        self.w_wait_ns = 0;
        self.w_hold_ns = 0;
    }

    /// The most recently closed window.
    pub fn window(&self) -> WindowUsage {
        self.last_window
    }

    /// True if the window just published is the one every later roll
    /// publishes again, event-free, except for `hold_ns`: no open wait,
    /// no acquire, free, slow-by or wait in the window, and any hold
    /// either still open or absent from it. With `counted` (a MEMORY
    /// resource, whose gain is the unit count) an open hold is allowed —
    /// its only per-window change is `hold_ns = Δ`, which the policy
    /// index adds in closed form; where the gain is hold *time*
    /// (LOCK/QUEUE/SYSTEM) a holder is never steady. Meaningful right
    /// after [`UsageStats::roll_window`], when the accumulators are zero.
    pub(crate) fn window_steady(&self, counted: bool) -> bool {
        let w = &self.last_window;
        self.wait_since.is_none()
            && w.acquired == 0
            && w.freed == 0
            && w.slow_events == 0
            && w.slow_amount == 0
            && w.wait_ns == 0
            && if self.hold_since.is_some() {
                counted
            } else {
                w.hold_ns == 0
            }
    }

    /// Brings an open hold of a *parked* task (see
    /// [`TaskTable`](crate::task::TaskTable)) to the state eager rolling
    /// would have left: every roll it sat out charged the elapsed time and
    /// renewed the interval, the last one — at `last_roll`, `last_delta`
    /// after the one before — publishing `hold_ns = last_delta`.
    pub(crate) fn catch_up_hold(&mut self, last_roll: u64, last_delta: u64) {
        if let Some(since) = self.hold_since {
            self.total_hold_ns += last_roll.saturating_sub(since);
            self.hold_since = Some(last_roll);
            self.last_window.hold_ns = last_delta;
        }
    }

    /// True if the task is currently waiting on this resource.
    pub fn is_waiting(&self) -> bool {
        self.wait_since.is_some()
    }

    /// Total wait including any open interval up to `now`.
    pub fn wait_ns_upto(&self, now: u64) -> u64 {
        self.total_wait_ns + self.wait_since.map_or(0, |s| now.saturating_sub(s))
    }

    /// Total hold including any open interval up to `now`.
    pub fn hold_ns_upto(&self, now: u64) -> u64 {
        self.total_hold_ns + self.hold_since.map_or(0, |s| now.saturating_sub(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_free_tracks_held_units() {
        let mut s = UsageStats::default();
        s.on_get(10, 5);
        s.on_get(20, 3);
        assert_eq!(s.held, 8);
        s.on_free(30, 6);
        assert_eq!(s.held, 2);
        s.on_free(40, 2);
        assert_eq!(s.held, 0);
        assert_eq!(s.acquired, 8);
        assert_eq!(s.freed, 8);
    }

    #[test]
    fn over_free_saturates() {
        let mut s = UsageStats::default();
        s.on_get(0, 1);
        s.on_free(5, 10);
        assert_eq!(s.held, 0);
    }

    #[test]
    fn wait_interval_closes_on_get() {
        let mut s = UsageStats::default();
        s.on_slow(100, 1);
        assert!(s.is_waiting());
        s.on_get(350, 1);
        assert!(!s.is_waiting());
        assert_eq!(s.total_wait_ns, 250);
    }

    #[test]
    fn nested_slow_events_do_not_restart_wait() {
        let mut s = UsageStats::default();
        s.on_slow(100, 1);
        s.on_slow(200, 1);
        s.on_get(300, 1);
        assert_eq!(s.total_wait_ns, 200);
        assert_eq!(s.slow_events, 2);
        assert_eq!(s.slow_amount, 2);
    }

    #[test]
    fn hold_interval_spans_first_get_to_last_free() {
        let mut s = UsageStats::default();
        s.on_get(100, 2);
        s.on_get(200, 1);
        s.on_free(300, 1);
        assert_eq!(s.total_hold_ns, 0); // still holding 2
        s.on_free(500, 2);
        assert_eq!(s.total_hold_ns, 400);
    }

    #[test]
    fn zero_amount_get_does_not_open_hold() {
        let mut s = UsageStats::default();
        s.on_get(100, 0);
        assert_eq!(s.held, 0);
        s.on_free(200, 0);
        assert_eq!(s.total_hold_ns, 0);
    }

    #[test]
    fn roll_window_publishes_and_resets() {
        let mut s = UsageStats::default();
        s.on_get(10, 4);
        s.on_slow(20, 2);
        s.on_get(50, 1);
        s.roll_window(100);
        let w = s.window();
        assert_eq!(w.acquired, 5);
        assert_eq!(w.slow_events, 1);
        assert_eq!(w.slow_amount, 2);
        assert_eq!(w.wait_ns, 30);
        assert_eq!(w.held_at_end, 5);
        // Second window is empty except the still-open hold.
        s.roll_window(200);
        let w2 = s.window();
        assert_eq!(w2.acquired, 0);
        assert_eq!(w2.hold_ns, 100); // renewed hold interval
        assert_eq!(w2.held_at_end, 5);
    }

    #[test]
    fn open_wait_is_renewed_across_windows() {
        let mut s = UsageStats::default();
        s.on_slow(50, 1);
        s.roll_window(100);
        assert_eq!(s.window().wait_ns, 50);
        s.roll_window(250);
        assert_eq!(s.window().wait_ns, 150);
        s.on_get(300, 1);
        s.roll_window(400);
        // Wait 250→300 charged to this window, then hold 300→400.
        assert_eq!(s.window().wait_ns, 50);
        assert_eq!(s.window().hold_ns, 100);
        // Cumulative wait is the full 50→300 interval.
        assert_eq!(s.total_wait_ns, 250);
    }

    #[test]
    fn window_sums_match_cumulative_totals() {
        let mut s = UsageStats::default();
        let mut win_wait = 0;
        let mut win_hold = 0;
        s.on_slow(10, 1);
        s.roll_window(100);
        win_wait += s.window().wait_ns;
        win_hold += s.window().hold_ns;
        s.on_get(150, 1);
        s.roll_window(200);
        win_wait += s.window().wait_ns;
        win_hold += s.window().hold_ns;
        s.on_free(260, 1);
        s.roll_window(300);
        win_wait += s.window().wait_ns;
        win_hold += s.window().hold_ns;
        assert_eq!(win_wait, s.total_wait_ns);
        assert_eq!(win_hold, s.total_hold_ns);
        assert_eq!(s.total_wait_ns, 140);
        assert_eq!(s.total_hold_ns, 110);
    }

    #[test]
    fn upto_helpers_include_open_intervals() {
        let mut s = UsageStats::default();
        s.on_slow(100, 1);
        assert_eq!(s.wait_ns_upto(400), 300);
        s.on_get(400, 1);
        assert_eq!(s.wait_ns_upto(500), 300);
        assert_eq!(s.hold_ns_upto(700), 300);
    }

    #[test]
    fn steady_windows_need_closed_waits_and_only_counted_holds() {
        let mut s = UsageStats::default();
        assert!(s.window_steady(false));
        s.on_get(10, 1);
        s.roll_window(100);
        assert!(!s.window_steady(true)); // acquired in the window
        s.roll_window(200);
        assert!(s.window_steady(true)); // only the open hold is left
        assert!(!s.window_steady(false)); // ... whose time is the gain
        s.on_free(210, 1);
        s.roll_window(300);
        assert!(!s.window_steady(true)); // freed, and a closed hold
        s.roll_window(400);
        assert!(s.window_steady(true) && s.window_steady(false));
        s.on_slow(410, 1);
        s.roll_window(500);
        s.roll_window(600);
        assert!(!s.window_steady(true)); // open wait interval
    }

    #[test]
    fn catch_up_equals_the_rolls_it_replaces() {
        let mut eager = UsageStats::default();
        eager.on_get(10, 3);
        eager.roll_window(100);
        eager.roll_window(200);
        let mut parked = eager.clone();
        for now in [350, 350, 420] {
            eager.roll_window(now);
        }
        parked.catch_up_hold(420, 70);
        assert_eq!(parked.total_hold_ns, eager.total_hold_ns);
        assert_eq!(parked.window(), eager.window());
        assert_eq!(parked.hold_ns_upto(500), eager.hold_ns_upto(500));
    }

    #[test]
    fn time_going_backwards_saturates() {
        // A sampled timestamp can lag the true clock; intervals must not
        // underflow.
        let mut s = UsageStats::default();
        s.on_slow(1000, 1);
        s.on_get(900, 1); // stamped earlier than the wait start
        assert_eq!(s.total_wait_ns, 0);
    }
}
