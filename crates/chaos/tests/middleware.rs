//! Injector-as-middleware parity: the [`FaultInjector`]'s `RuntimePort`
//! implementation must be indistinguishable from its inherent API.
//!
//! The refactor that made the injector composable middleware
//! ([`FaultInjector::over`] + `impl RuntimePort for FaultInjector`) must
//! not open a second code path around the fault machinery: a substrate
//! emitting through `Arc<dyn RuntimePort>` has to hit exactly the same
//! drop/dup/delay/reorder/fail-cancel decisions, in the same RNG-stream
//! order, as a harness calling the inherent methods. These tests pin that
//! down three ways:
//!
//! 1. one scripted protocol run, written twice (inherent vs trait
//!    dispatch), compared on the delivered-cancel ledger, the full ground
//!    truth, and the per-tick I1–I7 invariant outcomes;
//! 2. the injector stacked *over* another middleware layer
//!    ([`ProbePort`]), proving the documented app → injector → recorder →
//!    runtime order composes and that the probe sees post-fault traffic;
//! 3. a live end-to-end run where a `FailCancel` fault injected via
//!    [`run_with`] survives into the harness report as `cancels_failed`
//!    and an un-canceled culprit.

use std::sync::Arc;

use atropos::{AtroposConfig, AtroposRuntime, ResourceType, TaskKey};
use atropos_chaos::{Fault, FaultInjector, FaultPlan, InvariantChecker, Truth};
use atropos_live::{live_atropos_config, run_on, ControlMode, LiveConfig, ThreadServer};
use atropos_sim::{Clock, SimTime, VirtualClock};
use atropos_substrate::{CancelInitiator, ProbePort, RuntimePort};
use parking_lot::Mutex;

/// Initiator that records every delivered cancel key, in order.
#[derive(Default)]
struct Collect(Mutex<Vec<u64>>);

impl CancelInitiator for Collect {
    fn cancel(&self, key: TaskKey) {
        self.0.lock().push(key.0);
    }
}

/// Order-independent digest of the injector's ground truth (the per-map
/// iterates in hash order, so entries are sorted before comparing).
fn truth_digest(truth: &Truth) -> String {
    let mut per: Vec<String> = truth
        .per
        .iter()
        .map(|(k, v)| format!("{k:?}={v:?}"))
        .collect();
    per.sort();
    let mut finished: Vec<u64> = truth.finished_keys.iter().copied().collect();
    finished.sort_unstable();
    format!(
        "per={per:?} finished={finished:?} cancels={:?} log={:?}",
        truth.cancel_log, truth.log
    )
}

/// Everything one scripted run produced, for whole-run equality.
type RunTrace = (Vec<u64>, Vec<Option<String>>, String);

fn fresh_runtime() -> (Arc<VirtualClock>, Arc<AtroposRuntime>) {
    let clock = Arc::new(VirtualClock::new());
    let rt = Arc::new(AtroposRuntime::new(
        AtroposConfig::default(),
        clock.clone() as Arc<dyn Clock>,
    ));
    (clock, rt)
}

// The two drivers below run the SAME script and must stay line-for-line
// parallel: 60 tasks over one lock, every third get un-freed, a manual
// cancel every 7th task while its key is live, a tick (plus invariant
// check) every 10th iteration. Only the call syntax differs.

fn run_inherent(seed: u64) -> RunTrace {
    let plan = FaultPlan::sample(seed);
    let (clock, rt) = fresh_runtime();
    let inj = FaultInjector::new(rt.clone(), &plan);
    let delivered = Arc::new(Mutex::new(Vec::new()));
    let sink = delivered.clone();
    inj.install_initiator(move |k| sink.lock().push(k));
    let rid = rt.register_resource("r", ResourceType::Lock);
    let mut checker = InvariantChecker::new();
    let mut invariants = Vec::new();
    for i in 0..60u64 {
        let key = 100 + i;
        let t = inj.create_cancel(Some(key));
        inj.unit_started(t);
        inj.get_resource(t, rid, 1 + i % 3);
        inj.slow_by_resource(t, rid, 1 + i % 2);
        if i % 4 != 0 {
            inj.free_resource(t, rid, 1 + i % 3);
        }
        if i % 7 == 3 {
            rt.cancel_key(TaskKey(key));
        }
        inj.unit_finished(t);
        if i % 5 != 4 {
            inj.free_cancel(t);
        }
        clock.advance_to(SimTime::from_millis(50 * (i + 1)));
        if i % 10 == 9 {
            inj.tick();
            let res = checker.after_tick(&rt, &inj.truth());
            invariants.push(res.err().map(|v| v.to_string()));
        }
    }
    let trace = delivered.lock().clone();
    (trace, invariants, truth_digest(&inj.truth()))
}

fn run_trait(seed: u64) -> RunTrace {
    let plan = FaultPlan::sample(seed);
    let (clock, rt) = fresh_runtime();
    let inj = Arc::new(FaultInjector::over(
        rt.clone() as Arc<dyn RuntimePort>,
        &plan,
    ));
    let port: Arc<dyn RuntimePort> = inj.clone();
    let delivered = Arc::new(Collect::default());
    port.install_initiator(delivered.clone());
    let rid = port.register_resource("r", ResourceType::Lock);
    let mut checker = InvariantChecker::new();
    let mut invariants = Vec::new();
    for i in 0..60u64 {
        let key = 100 + i;
        let t = port.create_cancel(Some(key));
        port.unit_started(t);
        port.get(t, rid, 1 + i % 3);
        port.slow_by(t, rid, 1 + i % 2);
        if i % 4 != 0 {
            port.free(t, rid, 1 + i % 3);
        }
        if i % 7 == 3 {
            rt.cancel_key(TaskKey(key));
        }
        let _ = port.unit_finished(t);
        if i % 5 != 4 {
            port.free_cancel(t);
        }
        clock.advance_to(SimTime::from_millis(50 * (i + 1)));
        if i % 10 == 9 {
            port.tick();
            let res = checker.after_tick(&rt, &inj.truth());
            invariants.push(res.err().map(|v| v.to_string()));
        }
    }
    let trace = delivered.0.lock().clone();
    (trace, invariants, truth_digest(&inj.truth()))
}

#[test]
fn trait_dispatch_matches_inherent_api_bit_for_bit() {
    for seed in [3u64, 77, 4242] {
        let inherent = run_inherent(seed);
        let ported = run_trait(seed);
        assert_eq!(
            inherent, ported,
            "middleware dispatch diverged from the inherent API under seed {seed}"
        );
    }
}

/// A sampled plan actually fires faults under this script (otherwise the
/// parity above is vacuous pass-through equality).
#[test]
fn parity_script_exercises_the_fault_machinery() {
    let fired = [3u64, 77, 4242].iter().any(|&seed| {
        let plan = FaultPlan::sample(seed);
        let (clock, rt) = fresh_runtime();
        let inj = FaultInjector::new(rt, &plan);
        inj.install_initiator(|_| {});
        let rid = inj.runtime().register_resource("r", ResourceType::Lock);
        for i in 0..60u64 {
            let t = inj.create_cancel(Some(100 + i));
            inj.unit_started(t);
            inj.get_resource(t, rid, 1 + i % 3);
            inj.free_resource(t, rid, 1 + i % 3);
            inj.free_cancel(t);
            clock.advance_to(SimTime::from_millis(50 * (i + 1)));
            if i % 10 == 9 {
                inj.tick();
            }
        }
        inj.injection_log().any()
    });
    assert!(
        fired,
        "no sampled seed fired a single fault — script too tame"
    );
}

#[test]
fn injector_stacks_over_other_middleware() {
    let (clock, rt) = fresh_runtime();
    let probe = Arc::new(ProbePort::new(rt.clone()));
    let plan = FaultPlan {
        seed: 5,
        faults: vec![Fault::DropFree {
            probability: 1.0,
            budget: 1,
        }],
    };
    // Documented stacking order: app → injector → probe ("recorder") →
    // runtime. The probe must see only what the injector lets through.
    let inj = FaultInjector::over(probe.clone() as Arc<dyn RuntimePort>, &plan);
    let rid = inj.register_resource("r", ResourceType::Memory);
    let t = FaultInjector::create_cancel(&inj, Some(1));
    inj.unit_started(t);
    inj.get(t, rid, 4);
    inj.free(t, rid, 4); // dropped (budget 1)
    inj.free(t, rid, 2); // budget exhausted: delivered
    clock.advance_to(SimTime::from_millis(100));
    RuntimePort::tick(&inj);
    let counts = probe.counts();
    assert_eq!(counts.gets, 1);
    assert_eq!(
        counts.frees, 1,
        "the dropped free must never reach the next layer"
    );
    assert_eq!(counts.ticks, 1);
    let snap = rt.debug_snapshot();
    let u = &snap.task_by_key(TaskKey(1)).expect("task live").usage[rid.index()];
    assert_eq!(
        (u.acquired, u.freed, u.held),
        (4, 2, 2),
        "runtime view must reflect the post-fault stream"
    );
    assert_eq!(inj.injection_log().frees_dropped, 1);
}

/// Live end-to-end: a `FailCancel` plan stacked over the wall-clock
/// harness via [`run_with`] swallows every issued cancellation, so the
/// culprit runs un-canceled and the loss surfaces in the report as
/// `cancels_failed` — the fault ledger and the harness observability
/// agree on what was lost.
#[test]
fn live_fail_cancel_fault_surfaces_in_cancels_failed() {
    let plan = FaultPlan {
        seed: 11,
        faults: vec![Fault::FailCancel { budget: 1_000_000 }],
    };
    let stash: Arc<Mutex<Option<Arc<FaultInjector>>>> = Arc::new(Mutex::new(None));
    let keep = stash.clone();
    let (report, _rt) = run_on::<ThreadServer>(
        LiveConfig::default(),
        ControlMode::Atropos(live_atropos_config()),
        move |port| {
            let inj = Arc::new(FaultInjector::over(port, &plan));
            *keep.lock() = Some(inj.clone());
            inj
        },
    );
    let inj = stash.lock().take().expect("wrap hook ran");
    let log = inj.injection_log();
    assert!(
        log.cancels_failed >= 1,
        "no cancellation reached the injector to swallow: {log:?}"
    );
    assert_eq!(
        report.cancellations_delivered, 0,
        "FailCancel must starve the token registry"
    );
    assert_eq!(
        report.culprits_canceled, 0,
        "a swallowed cancellation must not unwind the culprit"
    );
    assert!(
        report.metrics.cancels_failed >= 1,
        "issued-but-undelivered cancels missing from the metrics snapshot: {:?}",
        report.metrics
    );
    assert!(report.ticks > 0, "supervisor never ticked");
}
