//! A background supervisor thread driving [`AtroposRuntime::tick`].
//!
//! In the simulator the experiment harness calls `tick()` itself at
//! window boundaries of virtual time. In a *real* process (the paper's
//! MySQL/Apache integrations, this repo's `atropos-live` harness) nothing
//! owns the clock: the runtime must be ticked from a dedicated thread at a
//! wall-clock cadence while application threads concurrently emit tracing
//! events. [`Ticker`] packages that supervisor-thread pattern — spawn,
//! tick at a period, observe outcomes, stop and join — so every live
//! integration does not reimplement it (and so the shutdown ordering,
//! which is easy to get wrong, lives in one tested place).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::runtime::{AtroposRuntime, TickOutcome};

/// Handle to a running supervisor thread. Dropping the handle stops the
/// thread and joins it.
pub struct Ticker {
    stop: Arc<AtomicBool>,
    /// Ticks completed so far, readable while the ticker runs. What the
    /// ticks found is counted by the runtime (`RuntimeStats`).
    ticks: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Ticker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticker")
            .field("ticks", &self.ticks())
            .field("running", &self.handle.is_some())
            .finish()
    }
}

impl Ticker {
    /// Spawns a thread that calls `rt.tick()` every `period` until
    /// [`Ticker::stop`] (or drop). The first tick fires after one period.
    ///
    /// `on_outcome` is invoked on the supervisor thread after every tick;
    /// pass `|_| {}` when only the tick count is needed.
    pub fn spawn(
        rt: Arc<AtroposRuntime>,
        period: Duration,
        on_outcome: impl Fn(&TickOutcome) + Send + 'static,
    ) -> Self {
        Self::spawn_fn(move || rt.tick(), period, on_outcome)
    }

    /// Like [`Ticker::spawn`], but drives an arbitrary tick closure
    /// instead of a concrete runtime handle. This is how a harness ticks
    /// *through* a middleware stack (an `Arc<dyn RuntimePort>` in the
    /// substrate crate's vocabulary): middleware that buffers or delays
    /// events only sees the periodic driver if the supervisor calls its
    /// `tick`, not the inner runtime's.
    pub fn spawn_fn(
        tick: impl Fn() -> TickOutcome + Send + 'static,
        period: Duration,
        on_outcome: impl Fn(&TickOutcome) + Send + 'static,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let ticks = Arc::new(AtomicU64::new(0));
        let thread_stop = stop.clone();
        let thread_ticks = ticks.clone();
        let handle = std::thread::Builder::new()
            .name("atropos-ticker".into())
            .spawn(move || {
                while !thread_stop.load(Ordering::Acquire) {
                    std::thread::sleep(period);
                    let outcome = tick();
                    thread_ticks.fetch_add(1, Ordering::Relaxed);
                    on_outcome(&outcome);
                }
            })
            .expect("spawn atropos-ticker thread");
        Self {
            stop,
            ticks,
            handle: Some(handle),
        }
    }

    /// Ticks completed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Signals the thread to stop and joins it. Idempotent; also invoked
    /// on drop.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Ticker {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AtroposConfig;
    use atropos_sim::SystemClock;

    fn runtime() -> Arc<AtroposRuntime> {
        Arc::new(AtroposRuntime::new(
            AtroposConfig::default(),
            Arc::new(SystemClock::new()),
        ))
    }

    #[test]
    fn ticker_ticks_and_stops() {
        let rt = runtime();
        let mut ticker = Ticker::spawn(rt.clone(), Duration::from_millis(1), |_| {});
        while ticker.ticks() < 3 {
            std::thread::sleep(Duration::from_millis(1));
        }
        ticker.stop();
        let after = rt.stats().ticks;
        assert!(after >= 3);
        std::thread::sleep(Duration::from_millis(10));
        // No further ticks after stop.
        assert_eq!(rt.stats().ticks, after);
        ticker.stop(); // idempotent
    }

    /// Regression: `stop()` must *join* the supervisor thread, not merely
    /// signal it. If stop returned before the join, the runtime could be
    /// dropped while a final `tick()` still runs on the supervisor — the
    /// Arc keeps that from being a use-after-free, but a tick would be
    /// observable after `stop()` returned, which live harnesses rely on
    /// never happening (they read final counters right after stopping).
    #[test]
    fn stop_joins_thread_before_runtime_drop() {
        let rt = runtime();
        let mut ticker = Ticker::spawn(rt.clone(), Duration::from_millis(1), |_| {});
        while ticker.ticks() < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        ticker.stop();
        // The supervisor thread held the only other clone of the runtime
        // handle; a joined stop() means that clone is gone, so dropping
        // `rt` here cannot race a concurrent tick.
        assert_eq!(
            Arc::strong_count(&rt),
            1,
            "ticker thread still holds the runtime after stop()"
        );
        let after = rt.stats().ticks;
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(rt.stats().ticks, after, "tick observed after stop()");
        // Ticker outlives the runtime handle without re-spawning anything.
        drop(rt);
        drop(ticker);
    }

    #[test]
    fn ticker_invokes_outcome_callback() {
        let rt = runtime();
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = seen.clone();
        let ticker = Ticker::spawn(rt, Duration::from_millis(1), move |_| {
            seen2.fetch_add(1, Ordering::Relaxed);
        });
        while ticker.ticks() < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(ticker); // drop stops and joins
        assert!(seen.load(Ordering::Relaxed) >= 2);
    }
}
