//! The async substrate under *armed* fault plans (ROADMAP item 3
//! follow-on).
//!
//! PR 7 proved the chaos stack composes over the async port with a quiet
//! plan; this module actually hurts it: a full wall-clock async serving
//! session runs behind a [`FaultInjector`] whose plan drops, duplicates,
//! delays and reorders the protocol, fails and delays cancellations, and
//! skews ticks — the same seeded plans the scripted scenarios soak under.
//!
//! What can honestly be validated differs from the scripted leg. There
//! the checker owns the virtual clock and asserts I1–I8 after every tick;
//! here real threads race the tick, so a mid-run snapshot is inherently
//! torn (the app updates the injector's ground truth and the runtime in
//! two steps). The contract is therefore checked against the *quiesced*
//! end state, where it is exact again:
//!
//! - I1–I4 accounting against ground truth, I5 cancel liveness over the
//!   full cancel log, I6 detector sanity, and the wait/hold half of I7 —
//!   via [`InvariantChecker::final_check`];
//! - I8 episode coverage over the drained flight-recorder episodes;
//! - and a drain guarantee with real teeth under dropped frees and
//!   swallowed cancels: every task scope closes ([`AsyncLegOutcome::leaked_tasks`]
//!   must be 0), i.e. no fault pattern can wedge a future's task record
//!   in the runtime.

use std::sync::Arc;
use std::time::Duration;

use atropos_live::{live_atropos_config, ControlMode, LiveConfig, LiveReport};
use atropos_substrate::ScenarioFamily;
use parking_lot::Mutex;

use crate::checker::{check_episode_coverage, InvariantChecker, Violation};
use crate::injector::{FaultInjector, InjectionLog};
use crate::plan::FaultPlan;

/// Everything one async fault run produces.
#[derive(Debug)]
pub struct AsyncLegOutcome {
    /// The harness report (latencies, cancels, episodes, metrics).
    pub report: LiveReport,
    /// What the injector actually did to the protocol.
    pub injection: InjectionLog,
    /// Task records still live after the executor shut down; any value
    /// but 0 means a fault pattern wedged a task scope open.
    pub leaked_tasks: usize,
    /// First invariant violated against the quiesced end state, if any.
    pub violation: Option<Violation>,
}

/// Runs one async serving session for `family` behind `plan`, then
/// validates the quiesced invariants. The geometry is the family's pinned
/// descriptor compressed in time (same shape, shorter run) so a 128-plan
/// soak stays affordable.
pub fn run_async_scenario(family: ScenarioFamily, plan: &FaultPlan) -> AsyncLegOutcome {
    let mut cfg = LiveConfig::from_scenario(&atropos_workload::family_descriptor(family));
    cfg.run_for = Duration::from_millis(450);
    cfg.culprit_after = Duration::from_millis(120);
    cfg.culprit_hold = Duration::from_millis(250);
    cfg.tick_period = Duration::from_millis(25);

    let slot: Arc<Mutex<Option<Arc<FaultInjector>>>> = Arc::new(Mutex::new(None));
    let fill = slot.clone();
    let plan = plan.clone();
    let (report, rt) = atropos_live::run_on::<atropos_async::AsyncServer>(
        cfg,
        ControlMode::Atropos(live_atropos_config()),
        move |port| {
            let inj = Arc::new(FaultInjector::over(port, &plan));
            *fill.lock() = Some(inj.clone());
            inj
        },
    );
    let inj = slot.lock().take().expect("wrap hook always runs");
    let truth = inj.truth();
    let injection = inj.injection_log();
    let leaked_tasks = rt.debug_snapshot().tasks.len();

    let mut checker = InvariantChecker::new();
    let mut violation = checker.final_check(&rt, &truth).err();
    if violation.is_none() {
        violation = check_episode_coverage(&truth, &report.episodes).err();
    }
    AsyncLegOutcome {
        report,
        injection,
        leaked_tasks,
        violation,
    }
}
