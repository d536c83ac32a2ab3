#![warn(missing_docs)]

//! Deterministic fault injection and invariant checking for Atropos.
//!
//! The rest of the workspace tests Atropos on *well-behaved* transports:
//! every traced event arrives, in order, exactly once, and every
//! cancellation is delivered. This crate is the adversarial counterpart
//! — the reliability layer the paper's instrumentation quietly assumes,
//! made explicit and then broken on purpose:
//!
//! - [`plan`]: [`FaultPlan`] — a seeded, replayable, *shrinkable*
//!   description of which faults to arm (dropped/duplicated frees,
//!   delayed/reordered ingest batches, failed/late cancellations, skewed
//!   ticks),
//! - [`injector`]: [`FaultInjector`] — a faulty transport wrapping the
//!   Figure 6 protocol of [`atropos::AtroposRuntime`], keeping ground
//!   truth of what was emitted vs delivered,
//! - [`checker`]: [`InvariantChecker`] — runtime-wide invariants (I1–I7)
//!   verified after every tick, each stated relative to the injected loss
//!   budget so a quiet plan demands exact equality, plus the end-of-run
//!   I8 (every issued cancellation is explained by a recorded decision
//!   episode from the `atropos-obs` flight recorder),
//! - [`script`]: the one 12-window convoy story on a virtual clock,
//!   played over a [`script::Topology`] of [`script::ScriptNode`]s,
//! - [`scenario`]: the one-node topology: lock-hog, buffer-scan and
//!   ticket-queue convoys driven through the injector, and the same
//!   lock-hog convoy behind an RPC edge looped back onto its own node,
//! - [`differential`]: the same culprits replayed through the
//!   `atropos-app` simulator, the `atropos-live` thread harness and the
//!   `atropos-async` executor, asserting all three substrates reach the
//!   same decision.
//!
//! Any failing run reports its seed plus a minimized fault plan (greedy
//! delta-debugging — the vendored proptest shim does not shrink), which
//! the `chaos` soak binary can replay.

pub mod async_leg;
pub mod checker;
pub mod differential;
pub mod injector;
pub mod plan;
pub mod scenario;
pub mod script;

use std::fmt;

use atropos_substrate::ScenarioFamily;

pub use async_leg::{run_async_scenario, AsyncLegOutcome};
pub use checker::{
    check_detector_monotonicity, check_edge_blame, check_episode_coverage, EdgeCancelObservation,
    InvariantChecker, Violation,
};
pub use injector::{CancelObservation, FaultInjector, InjectionLog, Truth};
pub use plan::{Fault, FaultPlan};
pub use scenario::{run_on_node, run_scenario, run_scenario_with_ingest, ScenarioOutcome};
pub use script::{script_config, HOG_KEY};

/// A reproducible scenario failure: the violated invariant plus the
/// minimized plan that still reproduces it.
#[derive(Debug)]
pub struct FailureReport {
    /// Scenario that failed.
    pub scenario: ScenarioFamily,
    /// The plan as originally sampled.
    pub original: FaultPlan,
    /// The smallest plan (greedy delta-debugging) still failing.
    pub minimized: FaultPlan,
    /// The violation the minimized plan reproduces.
    pub violation: Violation,
}

impl fmt::Display for FailureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scenario {} failed under seed {}: {}\n  minimized plan: {}\n  original plan:  {}\n  replay: cargo run -p atropos-chaos --bin chaos -- --scenario {} --seed {}",
            self.scenario.name(),
            self.original.seed,
            self.violation,
            self.minimized,
            self.original,
            self.scenario.name(),
            self.original.seed,
        )
    }
}

/// Runs `plan` through `scenario`; on an invariant violation, minimizes
/// the plan and returns a [`FailureReport`] carrying seed, minimized
/// plan, and the violation.
pub fn run_checked(
    scenario: ScenarioFamily,
    plan: &FaultPlan,
    load_scale: u64,
) -> Result<ScenarioOutcome, Box<FailureReport>> {
    let out = run_scenario(scenario, plan, load_scale);
    match out.violation {
        None => Ok(out),
        Some(_) => {
            let minimized = plan
                .clone()
                .minimize(|cand| run_scenario(scenario, cand, load_scale).violation.is_some());
            let violation = run_scenario(scenario, &minimized, load_scale)
                .violation
                .expect("minimized plan still fails by construction");
            Err(Box::new(FailureReport {
                scenario,
                original: plan.clone(),
                minimized,
                violation,
            }))
        }
    }
}
