//! Seeded, scripted overload scenarios driven through the fault injector.
//!
//! The scenarios mirror the live harness's culprits, one per
//! [`ScenarioFamily`]: a **lock hog** convoy (a long task
//! holds the table lock while victims queue behind it), a **buffer
//! scan** (a sweep accumulates buffer-pool pages while victims stall on
//! evictions), and a **ticket queue** hog (one task drains a bounded
//! ticket pool dry while arrivals starve). Each runs 12 detection
//! windows on a virtual clock with every protocol event routed through a
//! [`FaultInjector`] and every invariant checked after every tick.
//!
//! The script reacts to cancellations like a real application: a canceled
//! hog releases its resources and finishes at the start of the next
//! window, and blocked victims then drain. Under an armed fault plan the
//! run may fail to recover (cancellations swallowed, blame starved of
//! events) — that is fine; what must *never* happen, and what
//! [`run_scenario`] reports, is an invariant violation.

use std::sync::Arc;

use atropos::{AtroposConfig, AtroposRuntime, ResourceType, TaskId};
use atropos_sim::{Clock, SimRng, SimTime, VirtualClock};
use atropos_substrate::{DrainEveryEmit, RuntimePort, ScenarioFamily};
use parking_lot::Mutex;

use crate::checker::{check_episode_coverage, InvariantChecker, Violation};
use crate::injector::{FaultInjector, InjectionLog};
use crate::plan::FaultPlan;

const MS: u64 = 1_000_000;
/// Detection window length (also the tick period before skew).
pub const WINDOW_NS: u64 = 100 * MS;
/// Number of windows each scenario runs.
pub const WINDOWS: u64 = 12;
/// Window at which the culprit arrives.
pub const HOG_START_WINDOW: u64 = 2;
/// Task key of the culprit; victim keys count up from 100 and stay below.
pub const HOG_KEY: u64 = 9_000;

/// What one scenario run observed.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// Keys actually delivered to the application's initiator, in order.
    pub canceled_keys: Vec<u64>,
    /// Keys the runtime *issued* (before fail/delay faults), in order.
    pub issued_keys: Vec<u64>,
    /// Whether the hog's cancellation was delivered.
    pub hog_canceled: bool,
    /// Whether any victim's cancellation was delivered.
    pub victim_canceled: bool,
    /// Ticks executed.
    pub ticks: u64,
    /// Detector candidate count at the end of the run.
    pub candidates: u64,
    /// First invariant violation, if any (the run stops there).
    pub violation: Option<Violation>,
    /// Full runtime snapshot at the end of the run.
    pub final_snapshot: atropos::DebugSnapshot,
    /// Decision episodes folded from the flight recorder (checked against
    /// the injector's cancel log by invariant I8).
    pub episodes: Vec<atropos_obs::DecisionEpisode>,
    /// Observer metrics snapshot at the end of the run.
    pub metrics: atropos_obs::MetricsSnapshot,
    /// What the injector actually did (fault-fire counts).
    pub injection: InjectionLog,
}

struct Victim {
    task: TaskId,
    key: u64,
    amount: u64,
}

/// Runs one scripted scenario under `plan` and checks every invariant
/// after every tick. `load_scale` multiplies the arrival rate (used by
/// the detector-monotonicity check); 1 is the base load.
pub fn run_scenario(kind: ScenarioFamily, plan: &FaultPlan, load_scale: u64) -> ScenarioOutcome {
    run_scenario_with_ingest(kind, plan, load_scale, false)
}

/// [`run_scenario`] with the ingest reference selectable: with
/// `drain_every_emit` a [`DrainEveryEmit`] layer sits between the
/// injector and the runtime, so every delivered event is applied before
/// the next call returns. The script, clock, seeds and fault plan are
/// otherwise identical, so any observable difference between the two is
/// an ingest bug — the differential in `tests/ingest_reference.rs` runs
/// the corpus both ways and demands bit-identical outcomes.
pub fn run_scenario_with_ingest(
    kind: ScenarioFamily,
    plan: &FaultPlan,
    load_scale: u64,
    drain_every_emit: bool,
) -> ScenarioOutcome {
    let load = load_scale.max(1);
    let clock = Arc::new(VirtualClock::new());
    let mut cfg = AtroposConfig::default();
    cfg.detector.window_ns = WINDOW_NS;
    cfg.detector.slo_latency_ns = 10 * MS;
    cfg.cancel_min_interval_ns = 0;
    let rt = Arc::new(AtroposRuntime::new(cfg, clock.clone() as Arc<dyn Clock>));
    let obs = atropos_obs::Observer::install(&rt, 32 * 1024);
    let port: Arc<dyn RuntimePort> = if drain_every_emit {
        Arc::new(DrainEveryEmit(rt.clone()))
    } else {
        rt.clone()
    };
    let inj = FaultInjector::over(port, plan);
    let delivered: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let d = delivered.clone();
        let reg = obs.clone();
        inj.install_initiator(move |key| {
            reg.registry().observe_cancel_delivered();
            d.lock().push(key);
        });
    }
    let res = match kind {
        ScenarioFamily::LockHog => rt.register_resource("table_lock", ResourceType::Lock),
        ScenarioFamily::BufferScan => rt.register_resource("buffer_pool", ResourceType::Memory),
        ScenarioFamily::TicketQueue => rt.register_resource("tickets", ResourceType::Queue),
    };
    let mut rng = SimRng::new(plan.seed ^ 0x5CE2_A210);
    let mut checker = InvariantChecker::new();

    let mut blocked: Vec<Victim> = Vec::new();
    let mut hog: Option<TaskId> = None;
    let mut hog_held = 0u64;
    let mut hog_done = false;
    let mut next_key = 100u64;
    let mut canceled_keys: Vec<u64> = Vec::new();
    let mut victim_canceled = false;
    let mut violation = None;
    let at = |ns: u64| SimTime::from_nanos(ns);

    for w in 0..WINDOWS {
        let start = w * WINDOW_NS;

        // React to cancellations delivered during the previous tick.
        let newly: Vec<u64> = std::mem::take(&mut *delivered.lock());
        for key in newly {
            canceled_keys.push(key);
            if key == HOG_KEY {
                if let Some(h) = hog.take() {
                    clock.advance_to(at(start + MS));
                    if hog_held > 0 {
                        inj.free_resource(h, res, hog_held);
                        hog_held = 0;
                    }
                    inj.unit_finished(h);
                    inj.free_cancel(h);
                    hog_done = true;
                }
            } else if let Some(pos) = blocked.iter().position(|v| v.key == key) {
                let v = blocked.remove(pos);
                victim_canceled = true;
                clock.advance_to(at(start + MS));
                inj.unit_finished(v.task);
                inj.free_cancel(v.task);
            }
        }

        // The culprit arrives.
        if w == HOG_START_WINDOW && !hog_done {
            clock.advance_to(at(start + 2 * MS));
            let h = inj.create_cancel(Some(HOG_KEY));
            inj.unit_started(h);
            inj.report_progress(h, 5, 100);
            match kind {
                ScenarioFamily::LockHog => {
                    inj.get_resource(h, res, 1);
                    hog_held = 1;
                }
                ScenarioFamily::TicketQueue => {
                    // The hog takes the whole (two-ticket) pool.
                    inj.get_resource(h, res, 2);
                    hog_held = 2;
                }
                ScenarioFamily::BufferScan => {}
            }
            hog = Some(h);
        }
        // The scan sweeps more of the pool every window it survives.
        if let Some(h) = hog {
            if kind == ScenarioFamily::BufferScan {
                clock.advance_to(at(start + 3 * MS));
                inj.get_resource(h, res, 60);
                hog_held += 60;
                inj.report_progress(h, (5 + w).min(99), 100);
            }
        }
        let hog_active = hog.is_some();

        // With the culprit gone, the convoy drains early in the window.
        if !hog_active && !blocked.is_empty() {
            let n = blocked.len() as u64;
            for (i, v) in blocked.drain(..).enumerate() {
                clock.advance_to(at(start + 4 * MS + (i as u64) * (12 * MS) / n));
                inj.get_resource(v.task, res, v.amount);
                inj.free_resource(v.task, res, v.amount);
                inj.unit_finished(v.task);
                inj.free_cancel(v.task);
            }
        }

        // Arrivals: complete in ~3 ms when healthy, join the convoy when
        // the culprit holds the resource.
        let arrivals = 10 * load;
        for i in 0..arrivals {
            let t0 = start + 20 * MS + i * (70 * MS) / arrivals;
            clock.advance_to(at(t0));
            let key = next_key;
            next_key += 1;
            let t = inj.create_cancel(Some(key));
            inj.unit_started(t);
            let amount = match kind {
                ScenarioFamily::LockHog | ScenarioFamily::TicketQueue => 1,
                ScenarioFamily::BufferScan => 2 + rng.below(4),
            };
            inj.slow_by_resource(t, res, amount);
            if hog_active {
                blocked.push(Victim {
                    task: t,
                    key,
                    amount,
                });
            } else {
                clock.advance_to(at(t0 + MS));
                inj.get_resource(t, res, amount);
                clock.advance_to(at(t0 + 3 * MS));
                inj.free_resource(t, res, amount);
                inj.unit_finished(t);
                inj.free_cancel(t);
            }
        }

        // Under the convoy, the two oldest victims give up at the window
        // edge: the few completions the detector sees are far over SLO.
        if hog_active {
            for j in 0..2usize.min(blocked.len()) {
                let v = blocked.remove(0);
                clock.advance_to(at(start + 95 * MS + j as u64 * MS));
                inj.unit_finished(v.task);
                inj.free_cancel(v.task);
            }
        }

        // Tick, possibly late, then check every invariant.
        let skew = inj.tick_skew_ns();
        clock.advance_to(at((w + 1) * WINDOW_NS + skew));
        inj.tick();
        if let Err(v) = checker.after_tick(&rt, &inj.truth()) {
            violation = Some(v);
            break;
        }
    }

    canceled_keys.extend(std::mem::take(&mut *delivered.lock()));
    let snap = rt.debug_snapshot();
    let truth = inj.truth();
    let names = atropos_obs::ResourceNames::from_snapshot(&snap);
    let episodes = obs.drain_episodes(&names);
    // I8 runs end-of-run: the flight recorder must explain every issued
    // cancellation, even under fail/delay faults. An earlier violation
    // (which stops the script mid-run) takes precedence.
    if violation.is_none() {
        if let Err(v) = check_episode_coverage(&truth, &episodes) {
            violation = Some(v);
        }
    }
    ScenarioOutcome {
        hog_canceled: canceled_keys.contains(&HOG_KEY),
        victim_canceled: victim_canceled || canceled_keys.iter().any(|k| *k != HOG_KEY),
        issued_keys: truth.cancel_log.iter().map(|o| o.key).collect(),
        canceled_keys,
        ticks: snap.stats.ticks,
        candidates: snap.detector.candidates,
        violation,
        final_snapshot: snap,
        episodes,
        metrics: obs.metrics(),
        injection: truth.log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_lock_hog_cancels_the_hog_and_only_the_hog() {
        let out = run_scenario(ScenarioFamily::LockHog, &FaultPlan::quiet(1), 1);
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(out.hog_canceled, "hog survived: {out:?}");
        assert!(!out.victim_canceled, "victim canceled: {out:?}");
        assert_eq!(out.canceled_keys.first(), Some(&HOG_KEY));
        assert!(out.candidates >= 1);
        assert_eq!(out.ticks, WINDOWS);
    }

    #[test]
    fn quiet_buffer_scan_cancels_the_scan_and_only_the_scan() {
        let out = run_scenario(ScenarioFamily::BufferScan, &FaultPlan::quiet(1), 1);
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(out.hog_canceled, "scan survived: {out:?}");
        assert!(!out.victim_canceled, "victim canceled: {out:?}");
    }

    #[test]
    fn quiet_ticket_queue_cancels_the_hog_and_only_the_hog() {
        let out = run_scenario(ScenarioFamily::TicketQueue, &FaultPlan::quiet(1), 1);
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(out.hog_canceled, "hog survived: {out:?}");
        assert!(!out.victim_canceled, "victim canceled: {out:?}");
        assert_eq!(out.canceled_keys.first(), Some(&HOG_KEY));
    }

    #[test]
    fn scenario_is_deterministic() {
        let plan = FaultPlan::sample(1234);
        let a = run_scenario(ScenarioFamily::LockHog, &plan, 1);
        let b = run_scenario(ScenarioFamily::LockHog, &plan, 1);
        assert_eq!(a.canceled_keys, b.canceled_keys);
        assert_eq!(a.issued_keys, b.issued_keys);
        assert_eq!(a.candidates, b.candidates);
    }
}
