//! Sim ↔ thread ↔ async differential: the same overload, three execution
//! substrates.
//!
//! The simulator (`atropos-app` on a virtual clock), the thread harness
//! (`atropos-live` on real threads with cooperative cancel tokens), and
//! the async harness (`atropos-async` on a hand-rolled executor with
//! future-drop cancellation) all reproduce the three scenario families of
//! [`ScenarioFamily`]: a lock-hog convoy, a buffer-pool scan, and a
//! ticket-queue hog. Each family is pinned by a shared
//! [`ScenarioDescriptor`] — one sim seed plus the live geometry — so
//! every side provably runs the same story. This module replays each
//! through the substrates and compares the *decision trace* — who was
//! blamed, who was canceled, in what order.
//!
//! The async leg additionally runs with the chaos [`FaultInjector`]
//! composed over its port (armed with a quiet plan, i.e. pure
//! pass-through): the middleware stack that was written against the
//! thread substrate must compose over the async substrate *unchanged* —
//! that compositionality is part of the portability claim under test.
//!
//! ## What must agree, and the timing tolerance
//!
//! Exact tick-for-tick agreement is impossible: the simulator runs 10 ms
//! detector windows on a virtual clock, the live harness 50 ms windows on
//! the wall clock with scheduler noise. The contract is therefore scoped
//! to the **decision episode** — the span from disturbance onset to the
//! first cancellation that lands on the culprit:
//!
//! 1. **Culprit identity is exact.** Within the episode, every canceled
//!    task belongs to the culprit — the culprit workload classes in the
//!    sim, keys `>= CULPRIT_KEY_BASE` in the live harness. A victim
//!    canceled *before* the culprit is misblame and fails the test.
//! 2. **Timing agrees within [`DECISION_TOLERANCE_NS`]** (2 s, ~a few
//!    dozen detector windows in either domain): each substrate issues its
//!    first cancellation within that budget of its own disturbance start,
//!    measured on its own clock. The budget is wide because it absorbs
//!    wall-clock scheduling noise; healthy runs decide within a few
//!    windows.
//!
//! After the episode resolves, the two substrates intentionally diverge:
//! the live run is a single culprit pulse and simply drains, while the
//! sim's sustained workload re-injects the culprit every few seconds and
//! may shed load during the thrash-recovery gap between instances
//! (latency is still over SLO while the cache refills, so the policy
//! keeps relieving the still-overloaded resource). That post-resolution
//! shedding is load regulation, not decision disagreement; what it must
//! never do — target a completed task — is invariant **I5**'s job
//! ([`crate::checker`]).

use std::sync::Arc;

use atropos_app::ids::ClassId;
use atropos_live::{
    live_atropos_config, run, ControlMode, LiveConfig, LiveReport, CULPRIT_KEY_BASE,
};
use atropos_scenarios::chaos::{run_variant, variant_for};
use atropos_scenarios::RunConfig;
use atropos_substrate::{ScenarioDescriptor, ScenarioFamily};
use atropos_workload::family_descriptor;

use crate::injector::FaultInjector;
use crate::plan::FaultPlan;

/// Both substrates must issue their first cancellation within this much
/// of the disturbance, on their own clock (virtual for the sim, wall for
/// the live harness).
pub const DECISION_TOLERANCE_NS: u64 = 2_000_000_000;

/// A substrate-neutral decision trace for one decision episode.
#[derive(Debug)]
pub struct DecisionTrace {
    /// Which substrate produced it (for error messages).
    pub substrate: &'static str,
    /// Cancellations that hit the culprit (whole run).
    pub culprit_cancels: u64,
    /// Victims canceled *within the decision episode* — before the first
    /// cancellation reached the culprit (must stay 0).
    pub victim_cancels: u64,
    /// Whether the first cancellation targeted the culprit.
    pub first_is_culprit: bool,
    /// Delay from disturbance start to the first cancellation (own
    /// clock), if any cancellation happened.
    pub first_cancel_delay_ns: Option<u64>,
}

/// Runs a scenario family through the simulator at its descriptor's
/// pinned seed.
pub fn sim_trace_for(family: ScenarioFamily) -> DecisionTrace {
    sim_trace(family, family_descriptor(family).sim_seed)
}

/// Runs a family's chaos variant through the simulator and extracts its
/// decision trace from the server's cancellation log. The run uses the
/// quick configuration (7 s of virtual time): the differential compares
/// decision identity, not figure-grade latency curves. The victim count
/// is scoped to the decision episode (see the module docs): records
/// after the first culprit cancellation are post-resolution load
/// regulation in the sustained sim workload, not part of the decision
/// under comparison.
pub fn sim_trace(family: ScenarioFamily, seed: u64) -> DecisionTrace {
    let variant = variant_for(family);
    let rc = RunConfig::quick(seed);
    let run = run_variant(&variant, &rc);
    let disturb_ns = rc.case_params().disturb_at.as_nanos();
    let log = &run.metrics.cancel_log;
    let is_culprit = |class: ClassId| variant.is_culprit_class(class);
    let culprit_cancels = log.iter().filter(|r| is_culprit(r.class)).count() as u64;
    let victim_cancels = log.iter().take_while(|r| !is_culprit(r.class)).count() as u64;
    DecisionTrace {
        substrate: "sim",
        culprit_cancels,
        victim_cancels,
        first_is_culprit: log.first().map(|r| is_culprit(r.class)).unwrap_or(false),
        first_cancel_delay_ns: log
            .first()
            .map(|r| r.at.as_nanos().saturating_sub(disturb_ns)),
    }
}

/// Runs a scenario family through the thread harness at its descriptor's
/// pinned geometry.
pub fn live_trace_for(family: ScenarioFamily) -> DecisionTrace {
    live_trace(&family_descriptor(family))
}

/// Extracts a wall-clock substrate's decision trace from its report's
/// issued-cancellation key log: culprit keys are `>= CULPRIT_KEY_BASE` by
/// construction of the shared workload, so classification is exact.
///
/// The delivered-count cross-check guards the classification, scoped by
/// `victims_deliverable`. In the thread substrate victims never register
/// cancel tokens, so every delivered cancellation must correspond to a
/// culprit key. In the async substrate *every* task registers an abort
/// handle — cancellation is future drop, there is no opt-in token — so
/// after the decision episode resolves, sustained over-SLO latency (e.g.
/// cache refill behind a buffer scan) can legitimately shed a victim,
/// exactly like the sim's post-resolution load regulation. There the
/// bound is the full issued log, and misblame detection falls to the
/// episode-scoped `victim_cancels` / `first_is_culprit` fields.
fn trace_from_report(
    substrate: &'static str,
    report: &LiveReport,
    victims_deliverable: bool,
) -> DecisionTrace {
    let keys = &report.canceled_keys;
    let is_culprit = |k: u64| k >= CULPRIT_KEY_BASE;
    let culprit_cancels = keys.iter().filter(|&&k| is_culprit(k)).count() as u64;
    let deliverable = if victims_deliverable {
        keys.len() as u64
    } else {
        culprit_cancels
    };
    assert!(
        report.cancellations_delivered <= deliverable,
        "{substrate}: delivered {} cancellations but only {} were deliverable",
        report.cancellations_delivered,
        deliverable
    );
    DecisionTrace {
        substrate,
        culprit_cancels,
        victim_cancels: keys.iter().take_while(|&&k| !is_culprit(k)).count() as u64,
        first_is_culprit: keys.first().map(|&k| is_culprit(k)).unwrap_or(false),
        first_cancel_delay_ns: report.time_to_cancel.map(|d| d.as_nanos() as u64),
    }
}

/// Runs the thread-substrate analog of a chaos variant and extracts its
/// decision trace.
pub fn live_trace(descriptor: &ScenarioDescriptor) -> DecisionTrace {
    let report = run(
        LiveConfig::from_scenario(descriptor),
        ControlMode::Atropos(live_atropos_config()),
    );
    trace_from_report("live", &report, false)
}

/// Runs a scenario family through the async harness at its descriptor's
/// pinned geometry.
pub fn async_trace_for(family: ScenarioFamily) -> DecisionTrace {
    async_trace(&family_descriptor(family))
}

/// Runs the async-substrate analog and extracts its decision trace. The
/// run goes through [`FaultInjector`] middleware armed with a quiet plan
/// (pure pass-through), proving the chaos stack composes over the async
/// port unchanged: tracing, the supervisor tick, and the abort-initiator
/// installation all cross the middleware.
pub fn async_trace(descriptor: &ScenarioDescriptor) -> DecisionTrace {
    let plan = FaultPlan::quiet(descriptor.sim_seed);
    let (report, _rt) = atropos_live::run_on::<atropos_async::AsyncServer>(
        LiveConfig::from_scenario(descriptor),
        ControlMode::Atropos(live_atropos_config()),
        move |port| Arc::new(FaultInjector::over(port, &plan)),
    );
    trace_from_report("async", &report, true)
}

/// Asserts one substrate's trace is a correct decision, returning a
/// description of the first disagreement with the contract.
fn check_trace(t: &DecisionTrace) -> Result<(), String> {
    if t.culprit_cancels == 0 {
        return Err(format!("{}: culprit was never canceled", t.substrate));
    }
    if !t.first_is_culprit {
        return Err(format!(
            "{}: first cancellation did not target the culprit",
            t.substrate
        ));
    }
    if t.victim_cancels > 0 {
        return Err(format!(
            "{}: {} victim(s) canceled before the culprit",
            t.substrate, t.victim_cancels
        ));
    }
    match t.first_cancel_delay_ns {
        None => Err(format!("{}: no cancellation recorded", t.substrate)),
        Some(d) if d > DECISION_TOLERANCE_NS => Err(format!(
            "{}: first cancellation {d} ns after disturbance exceeds tolerance {} ns",
            t.substrate, DECISION_TOLERANCE_NS
        )),
        Some(_) => Ok(()),
    }
}

/// The three-way judgment: sim, thread, and async substrates each
/// satisfy the decision contract, which means all three agree on culprit
/// identity modulo the documented timing tolerance — across a virtual
/// clock, parked threads with cooperative tokens, and dropped futures.
pub fn compare3(
    sim: &DecisionTrace,
    live: &DecisionTrace,
    asynchronous: &DecisionTrace,
) -> Result<(), String> {
    check_trace(sim)?;
    check_trace(live)?;
    check_trace(asynchronous)?;
    Ok(())
}
