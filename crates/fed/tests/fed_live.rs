//! End-to-end two-tier live test: real threads, real clock, real RPC
//! edge — the headline federation property.
//!
//! A backend culprit convoys the backend shard lock. With Atropos
//! federated control the backend's detector blames the *remote root*,
//! the cancel crosses the edge upstream, and the frontend cancels
//! exactly that root: victim tail latency recovers, zero innocents are
//! canceled. Under the DAGOR-style per-node admission baseline the
//! culprit (highest business priority) is always admitted, so the
//! baseline can only shed innocent victims while the convoy persists.
//!
//! Timing assertions are deliberately coarse (≥2x, not percentages):
//! the test runs on shared CI machines.

use std::time::Duration;

use atropos_fed::{run_fed_live, FedLiveConfig, FedMode};

fn cfg() -> FedLiveConfig {
    FedLiveConfig::default()
}

#[test]
fn atropos_cancels_the_remote_root_and_recovers_victim_tail() {
    let base = run_fed_live(cfg(), FedMode::NoControl);
    assert!(base.culprit_started, "culprit never reached the backend");
    assert!(
        !base.root_canceled,
        "NoControl must not cancel anything, canceled {:?}",
        base.frontend_canceled_roots
    );
    assert!(base.victim_count > 20, "too few victims to judge tails");

    let atropos = run_fed_live(cfg(), FedMode::Atropos);
    assert!(atropos.culprit_started);
    assert!(
        atropos.root_canceled,
        "culprit root never canceled end to end; edge stats {:?}",
        atropos.edge
    );
    assert_eq!(
        atropos.innocent_upstream_cancels, 0,
        "innocent roots canceled upstream: {:?}",
        atropos.frontend_canceled_roots
    );
    assert!(atropos.edge.upstream_cancels >= 1);
    assert_eq!(atropos.edge.frames_rejected, 0);
    assert!(atropos.victim_count > 20);
    assert!(
        atropos.time_to_cancel.unwrap() < Duration::from_secs(1),
        "cancel took {:?}",
        atropos.time_to_cancel
    );
    assert!(
        base.victim_p99_ns >= 2 * atropos.victim_p99_ns,
        "victim p99 did not recover >=2x: NoControl {} ns vs Atropos {} ns",
        base.victim_p99_ns,
        atropos.victim_p99_ns
    );
}

#[test]
fn dagor_baseline_sheds_victims_and_misses_the_culprit() {
    let dagor = run_fed_live(cfg(), FedMode::DagorAdmission);
    assert!(dagor.culprit_started, "culprit must be admitted by DAGOR");
    assert!(
        !dagor.root_canceled,
        "per-node admission has no cancel path to the root"
    );
    assert!(
        dagor.shed >= 1,
        "DAGOR shed no one — overload never pushed admission down"
    );
    assert_eq!(dagor.innocent_upstream_cancels, 0);
    // A refused request is settled as a drop and nothing else: the frontend
    // detector must not also see a ≈0 ns completion for every shed victim.
    // What completed is what was served — the victims and the one culprit.
    assert_eq!(
        dagor.frontend_completions,
        dagor.victim_count + 1,
        "shed victims ({}) leaked into the frontend completion series",
        dagor.shed
    );
}
