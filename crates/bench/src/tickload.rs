//! Tick-cost workloads: what one `tick()` costs as the population grows
//! while the work per window stays put.
//!
//! Shared by the `tick_phases` records (`benches/policy.rs`) and the
//! tick-scaling budget guard (`tests/tick_scaling.rs`) so both measure
//! the same thing: a runtime on a virtual clock with
//!
//! - `residents` tasks that each pin one MEMORY unit and do nothing else
//!   (they park after their second window),
//! - `touched` long-lived tasks that take and release a LOCK once per
//!   window — healthy latencies, every tick idle — or, *overloaded*, sit
//!   in an open unit waiting on a lock a hog never releases: no
//!   completions with work in flight, so every tick is a candidate that
//!   refreshes, selects and asks for the hog again,
//! - optionally `churn` create→free pairs per window, tasks that never
//!   live to see a tick.
//!
//! Only `tick()` is timed; the emit side of a window runs first, untimed.

use std::sync::Arc;
use std::time::Instant;

use atropos::phase::TickPhases;
use atropos::{AtroposConfig, AtroposRuntime, ResourceId, ResourceType, TaskId, TickOutcome};
use atropos_sim::{SimTime, VirtualClock};

/// One scripted population; see the module docs.
pub struct TickLoad {
    clock: Arc<VirtualClock>,
    rt: AtroposRuntime,
    lock: ResourceId,
    touched: Vec<TaskId>,
    overloaded: bool,
    churn: usize,
    window_ns: u64,
    windows: u64,
}

impl TickLoad {
    /// Builds the population and runs warm-up windows until the residents
    /// are parked and the detector has its history.
    pub fn new(residents: usize, touched: usize, overloaded: bool) -> Self {
        let clock = Arc::new(VirtualClock::new());
        let cfg = AtroposConfig::default();
        let window_ns = cfg.detector.window_ns;
        let rt = AtroposRuntime::new(cfg, clock.clone());
        rt.set_cancel_action(|_| {});
        let lock = rt.register_resource("table_lock", ResourceType::Lock);
        let pool = rt.register_resource("buffer_pool", ResourceType::Memory);
        for i in 0..residents {
            let t = rt.create_cancel(Some((1 << 32) + i as u64));
            rt.get_resource(t, pool, 1);
        }
        let touched: Vec<TaskId> = (0..touched)
            .map(|i| rt.create_cancel(Some(i as u64)))
            .collect();
        if overloaded {
            let hog = rt.create_cancel(Some(1 << 40));
            rt.unit_started(hog);
            rt.report_progress(hog, 1, 100);
            rt.get_resource(hog, lock, 1);
            for &t in &touched {
                rt.unit_started(t);
                rt.slow_by_resource(t, lock, 1);
            }
        }
        let mut load = TickLoad {
            clock,
            rt,
            lock,
            touched,
            overloaded,
            churn: 0,
            window_ns,
            windows: 0,
        };
        for _ in 0..4 {
            load.window();
        }
        load
    }

    /// Adds `pairs` create→free pairs to every window's emit side.
    pub fn with_churn(mut self, pairs: usize) -> Self {
        self.churn = pairs;
        self
    }

    /// One window: emit, advance the clock to the boundary, `tick()`.
    /// Returns the tick's wall time (ns).
    pub fn window(&mut self) -> u64 {
        let start = self.windows * self.window_ns;
        if !self.overloaded {
            let step = self.window_ns / (self.touched.len() as u64 + 1);
            for (i, &t) in self.touched.iter().enumerate() {
                let t0 = start + i as u64 * step;
                self.clock.advance_to(SimTime::from_nanos(t0));
                self.rt.unit_started(t);
                self.rt.get_resource(t, self.lock, 1);
                self.clock.advance_to(SimTime::from_nanos(t0 + step / 2));
                self.rt.free_resource(t, self.lock, 1);
                self.rt.unit_finished(t);
            }
        }
        for _ in 0..self.churn {
            let t = self.rt.create_cancel(None);
            self.rt.free_cancel(t);
        }
        self.windows += 1;
        self.clock
            .advance_to(SimTime::from_nanos(self.windows * self.window_ns));
        let t0 = Instant::now();
        let outcome = self.rt.tick();
        let ns = t0.elapsed().as_nanos() as u64;
        // The first two windows give the detector nothing to compare.
        assert!(
            self.windows <= 2 || (outcome != TickOutcome::Idle) == self.overloaded,
            "window {}: {outcome:?} on an {} load",
            self.windows,
            if self.overloaded {
                "overloaded"
            } else {
                "idle"
            },
        );
        ns
    }

    /// Mean tick wall time over `windows` windows (ns).
    pub fn mean_tick_ns(&mut self, windows: u32) -> f64 {
        let total: u64 = (0..windows).map(|_| self.window()).sum();
        total as f64 / f64::from(windows)
    }

    /// The phase timer's reading over `windows` windows.
    pub fn phases_over(&mut self, windows: u32) -> TickPhases {
        let before = self.rt.tick_phases();
        for _ in 0..windows {
            self.window();
        }
        self.rt.tick_phases().since(&before)
    }
}
