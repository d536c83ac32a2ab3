//! The chaos invariant suite: every runtime-wide invariant holds across
//! hundreds of seeded, shrinkable fault plans per scenario.
//!
//! Any failure here prints the seed and a minimized fault plan (via
//! [`atropos_chaos::FailureReport`]) that reproduces it, replayable with
//! the `chaos` binary.

use atropos_chaos::{
    check_detector_monotonicity, run_checked, run_scenario, Fault, FaultPlan, InvariantChecker,
    HOG_KEY,
};
use atropos_substrate::ScenarioFamily;
use proptest::prelude::*;

/// 128 sampled plans per scenario (> the 100 the acceptance bar asks
/// for), each fully invariant-checked after every tick.
fn soak(kind: ScenarioFamily) {
    for seed in 0..128u64 {
        if let Err(report) = run_checked(kind, &FaultPlan::sample(seed), 1) {
            panic!("{report}");
        }
    }
}

#[test]
fn invariants_hold_across_128_fault_plans_lock_hog() {
    soak(ScenarioFamily::LockHog);
}

#[test]
fn invariants_hold_across_128_fault_plans_buffer_scan() {
    soak(ScenarioFamily::BufferScan);
}

proptest! {
    /// Property form over the full seed space: any sampled plan keeps
    /// every invariant, in both scenarios.
    #[test]
    fn invariants_hold_for_sampled_plans(seed in any::<u64>()) {
        for kind in ScenarioFamily::ALL {
            if let Err(report) = run_checked(kind, &FaultPlan::sample(seed), 1) {
                panic!("{report}");
            }
        }
    }

    /// Heavier load never hides an overload: same script, same seed,
    /// double arrivals — the detector must flag at least as many
    /// candidates (cancellation suppressed so both runs stay overloaded
    /// the whole time).
    #[test]
    fn detector_is_monotone_under_added_load(seed in 0u64..1024) {
        let plan = FaultPlan {
            seed,
            faults: vec![Fault::FailCancel { budget: u64::MAX }],
        };
        let base = run_scenario(ScenarioFamily::LockHog, &plan, 1);
        let loaded = run_scenario(ScenarioFamily::LockHog, &plan, 2);
        prop_assert!(base.violation.is_none(), "base: {:?}", base.violation);
        prop_assert!(loaded.violation.is_none(), "loaded: {:?}", loaded.violation);
        if let Err(v) =
            check_detector_monotonicity(&base.final_snapshot, &loaded.final_snapshot)
        {
            panic!("seed {seed}: {v}");
        }
    }
}

#[test]
fn swallowed_cancellations_leave_the_convoy_standing_but_invariants_hold() {
    let plan = FaultPlan {
        seed: 7,
        faults: vec![Fault::FailCancel { budget: u64::MAX }],
    };
    let out = run_checked(ScenarioFamily::LockHog, &plan, 1).unwrap_or_else(|r| panic!("{r}"));
    assert!(
        !out.hog_canceled,
        "initiator failure must suppress delivery"
    );
    assert!(
        out.issued_keys.contains(&HOG_KEY),
        "runtime still issues the cancellation: {:?}",
        out.issued_keys
    );
    assert!(
        out.candidates >= 5,
        "unresolved convoy must keep flagging candidates, got {}",
        out.candidates
    );
}

#[test]
fn delayed_cancellation_arrives_late_but_still_lands_on_the_hog() {
    let plan = FaultPlan {
        seed: 7,
        faults: vec![Fault::DelayCancel { ticks: 2 }],
    };
    let out = run_checked(ScenarioFamily::LockHog, &plan, 1).unwrap_or_else(|r| panic!("{r}"));
    assert!(out.hog_canceled, "delayed cancel never delivered: {out:?}");
    assert!(!out.victim_canceled, "victim canceled: {out:?}");
}

#[test]
fn checker_catches_a_lying_transport() {
    // Meta-test: the invariants must be falsifiable. Bypass the injector
    // for one event — the runtime now "knows" more than was delivered —
    // and I1 must fire.
    use atropos::{AtroposConfig, AtroposRuntime, ResourceType};
    use atropos_chaos::FaultInjector;
    use atropos_sim::{Clock, SimTime, VirtualClock};
    use std::sync::Arc;

    let clock = Arc::new(VirtualClock::new());
    let rt = Arc::new(AtroposRuntime::new(
        AtroposConfig::default(),
        clock.clone() as Arc<dyn Clock>,
    ));
    let inj = FaultInjector::new(rt.clone(), &FaultPlan::quiet(1));
    let rid = rt.register_resource("r", ResourceType::Memory);
    let t = inj.create_cancel(Some(10));
    inj.unit_started(t);
    inj.get_resource(t, rid, 3);
    rt.get_resource(t, rid, 2); // smuggled past the injector
    clock.advance_to(SimTime::from_millis(100));
    inj.tick();
    let mut checker = InvariantChecker::new();
    let err = checker
        .after_tick(&rt, &inj.truth())
        .expect_err("checker must notice the smuggled event");
    assert_eq!(err.invariant, "I1", "{err}");
}

#[test]
fn flight_recorder_accounts_for_swallowed_cancellations() {
    // With the initiator swallowing every cancellation, the observer's
    // issued-minus-delivered gap must equal the injector's own ledger of
    // swallowed cancels — the metrics registry detects the lossy
    // transport without being told about it.
    let plan = FaultPlan {
        seed: 7,
        faults: vec![Fault::FailCancel { budget: u64::MAX }],
    };
    let out = run_checked(ScenarioFamily::LockHog, &plan, 1).unwrap_or_else(|r| panic!("{r}"));
    assert!(out.injection.cancels_failed >= 1, "fault never fired");
    assert_eq!(
        out.metrics.cancels_failed, out.injection.cancels_failed,
        "observer cancels_failed disagrees with the injector ledger: {:?}",
        out.metrics
    );
    assert!(out.metrics.consistency_errors().is_empty());
}

#[test]
fn flight_recorder_counts_delayed_cancellations_until_delivered() {
    // Delayed cancellations eventually land, so the observer's failure
    // gap only covers those still in flight at run end: it is bounded
    // below by the injector's swallowed count (0 here) and above by the
    // delayed count.
    let plan = FaultPlan {
        seed: 7,
        faults: vec![Fault::DelayCancel { ticks: 2 }],
    };
    let out = run_checked(ScenarioFamily::LockHog, &plan, 1).unwrap_or_else(|r| panic!("{r}"));
    assert!(out.injection.cancels_delayed >= 1, "fault never fired");
    assert_eq!(out.injection.cancels_failed, 0);
    assert!(
        out.metrics.cancels_failed <= out.injection.cancels_delayed,
        "gap {} exceeds delayed count {}",
        out.metrics.cancels_failed,
        out.injection.cancels_delayed
    );
}

#[test]
fn episode_coverage_is_falsifiable() {
    // Meta-test for I8, mirroring `checker_catches_a_lying_transport`:
    // a run that issued cancellations but recorded no episodes must be
    // flagged, and the violation must name I8.
    use atropos_chaos::check_episode_coverage;

    let out = run_checked(ScenarioFamily::LockHog, &FaultPlan::quiet(1), 1)
        .unwrap_or_else(|r| panic!("{r}"));
    assert!(!out.issued_keys.is_empty(), "quiet run issued no cancels");
    // The real run passes I8 (run_checked already enforced it); an empty
    // episode log must fail it.
    let plan = FaultPlan::quiet(1);
    let truth_run = atropos_chaos::run_scenario(ScenarioFamily::LockHog, &plan, 1);
    assert!(truth_run.violation.is_none());
    let err = check_episode_coverage(&truth_from(&truth_run), &[]);
    let err = err.expect_err("empty episode log must violate I8");
    assert_eq!(err.invariant, "I8", "{err}");
}

/// Rebuilds a minimal `Truth` carrying just the cancel log of a finished
/// run (the checker only reads `cancel_log` for I8).
fn truth_from(out: &atropos_chaos::ScenarioOutcome) -> atropos_chaos::Truth {
    let mut truth = atropos_chaos::Truth::default();
    for (i, key) in out.issued_keys.iter().enumerate() {
        truth.cancel_log.push(atropos_chaos::CancelObservation {
            key: *key,
            tick: i as u64,
            was_finished: false,
        });
    }
    truth
}

#[test]
fn failure_reports_carry_seed_and_minimized_plan() {
    // Drive the real minimization path with a predicate-style harness:
    // sample a big plan, minimize against "still contains a DelayCancel",
    // and confirm the rendered report style (seed + JSON plan) holds.
    let plan = FaultPlan {
        seed: 99,
        faults: vec![
            Fault::DropFree {
                probability: 0.3,
                budget: 6,
            },
            Fault::DelayCancel { ticks: 3 },
            Fault::SkewTick {
                max_skew_ns: 16_000_000,
            },
        ],
    };
    let min = plan.clone().minimize(|p| {
        p.faults
            .iter()
            .any(|f| matches!(f, Fault::DelayCancel { .. }))
    });
    assert_eq!(min.faults.len(), 1);
    let rendered = min.to_string();
    assert!(rendered.contains("\"seed\":99"), "{rendered}");
    assert!(rendered.contains("delay_cancel"), "{rendered}");
}
