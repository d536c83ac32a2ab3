//! Federation test suite: quiet stories, chaos-armed soaks, the
//! corrupted-frame rejection path, and bit-exact determinism.
//!
//! Quiet runs must play the whole story: the backend's detector blames
//! the remote root, the cancel crosses the edge(s) upstream, the
//! frontend cancels exactly the culprit root and zero innocents. Armed
//! runs layer a seeded single-node fault plan on the culprit backend and
//! seeded edge faults on the culprit edge; the story may degrade, the
//! invariants (I1–I9) may not.

use std::collections::HashSet;

use atropos_chaos::check_edge_blame;
use atropos_fed::{run_fed_scenario, FedScenarioKind, ROOT_HOG_KEY};
use atropos_substrate::{EdgeIdentity, FedEdge, NodeId, FED_KEY_BASE};

const SOAK_PLANS: u64 = 128;

#[test]
fn quiet_story_plays_out_for_every_kind() {
    for kind in FedScenarioKind::ALL {
        let out = run_fed_scenario(kind, 11, false);
        assert!(
            out.violation.is_none(),
            "{}: {:?}",
            kind.name(),
            out.violation
        );
        assert!(
            out.root_canceled,
            "{}: culprit root never canceled end to end: {:?}",
            kind.name(),
            out.canceled_roots
        );
        assert_eq!(
            out.victim_roots_canceled,
            0,
            "{}: innocent upstream cancels",
            kind.name()
        );
        assert!(out.gave_up_victims > 0, "{}: no convoy formed", kind.name());
        assert!(
            out.drained_victims > 0,
            "{}: victims never drained after the cancel",
            kind.name()
        );
        // The cancel crossed the culprit edge with blame intact.
        let culprit = kind.fanout() - 1;
        assert!(out.edge_stats[culprit].upstream_cancels >= 1);
        assert_eq!(out.edge_stats[culprit].frames_rejected, 0);
        let obs = out
            .observations
            .iter()
            .find(|o| o.root_key == ROOT_HOG_KEY)
            .unwrap_or_else(|| panic!("{}: no observation for the hog root", kind.name()));
        assert_eq!(obs.origin_node, 0);
        assert!(obs.had_blame);
        // The blamed resource is the culprit backend's shard lock.
        let blamed = format!("n{}/shard_lock", culprit + 1);
        assert!(
            out.blamed_resources.contains(&blamed),
            "{}: blamed {:?}, wanted {blamed}",
            kind.name(),
            out.blamed_resources
        );
        // Episodes were recorded on both sides of the edge: the backend
        // explains the detection, the frontend explains the delivered
        // operator cancel.
        assert!(out.episodes.iter().any(|(n, _)| n.0 != 0));
        assert!(out
            .episodes
            .iter()
            .any(|(n, e)| n.0 == 0 && e.origin == "operator"));
    }
}

#[test]
fn fan_convoy_exercises_every_edge() {
    let out = run_fed_scenario(FedScenarioKind::FanConvoy, 5, false);
    assert!(out.violation.is_none(), "{:?}", out.violation);
    assert_eq!(out.edge_stats.len(), 3);
    for (b, st) in out.edge_stats.iter().enumerate() {
        assert!(
            st.frames_carried > 0,
            "backend {b} carried no identity frames"
        );
        assert_eq!(st.frames_rejected, 0, "backend {b} rejected frames");
    }
    // Only the convoyed (last) shard escalates to a cancel; the quick
    // shards see the same root come and go without blame.
    assert!(out.edge_stats[2].upstream_cancels >= 1);
    assert_eq!(out.edge_stats[0].upstream_cancels, 0);
    assert_eq!(out.edge_stats[1].upstream_cancels, 0);
    // The canceled backend key lives in the FED namespace and unmasks to
    // the frontend root.
    let key = out.backend_canceled_keys[2]
        .first()
        .copied()
        .expect("culprit backend canceled a proxy");
    assert!(key >= FED_KEY_BASE);
    assert_eq!(key & ((1u64 << 48) - 1), ROOT_HOG_KEY);
    assert_eq!((key >> 48) as u16 & 0xFF, 0, "origin node in the key");
}

#[test]
fn armed_soak_partition() {
    armed_soak(FedScenarioKind::Partition);
}

#[test]
fn armed_soak_delayed_cancel() {
    armed_soak(FedScenarioKind::DelayedCancel);
}

#[test]
fn armed_soak_fan_convoy() {
    armed_soak(FedScenarioKind::FanConvoy);
}

fn armed_soak(kind: FedScenarioKind) {
    let base: u64 = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    for i in 0..SOAK_PLANS {
        let seed = base + i;
        let out = run_fed_scenario(kind, seed, true);
        assert!(
            out.violation.is_none(),
            "{} seed {seed}: {:?}\nreplay: cargo run -p atropos-fed --bin fed_soak -- --kind {} --seed {seed} --plans 1",
            kind.name(),
            out.violation,
            kind.name(),
        );
    }
}

#[test]
fn corrupted_frame_is_rejected_loudly_and_trips_i9() {
    use atropos::AtroposRuntime;
    use atropos_sim::VirtualClock;
    use std::sync::Arc;

    let clock = Arc::new(VirtualClock::new());
    let rt = Arc::new(AtroposRuntime::new(
        atropos_chaos::script_config(),
        clock as Arc<dyn atropos_sim::Clock>,
    ));
    let edge = FedEdge::over(NodeId(1), rt);

    // A checksum-valid frame, then one with a flipped payload byte.
    let good = EdgeIdentity::local(NodeId(0), 77).hop(NodeId(1)).encode();
    let mut bad = good.clone();
    bad[6] ^= 0x40; // corrupt the root key, leave the checksum stale
    edge.bind_frame(bad);
    // The proxy still opens (local-only, no blame) — degraded, not dead.
    let _task = {
        use atropos_substrate::RuntimePort;
        edge.create_cancel(None)
    };
    let st = edge.stats();
    assert_eq!(st.frames_rejected, 1);
    assert_eq!(st.frames_carried, 0);
    assert!(edge.blame_for(FED_KEY_BASE | 77).is_none());

    // I9 fails closed on any rejected frame.
    let err = check_edge_blame(&HashSet::new(), &[], st.frames_rejected)
        .expect_err("rejected frames must trip I9");
    assert_eq!(err.invariant, "I9");
}

#[test]
fn same_seed_same_story() {
    for kind in FedScenarioKind::ALL {
        let a = run_fed_scenario(kind, 1234, true);
        let b = run_fed_scenario(kind, 1234, true);
        assert_eq!(a.canceled_roots, b.canceled_roots, "{}", kind.name());
        assert_eq!(
            a.backend_canceled_keys,
            b.backend_canceled_keys,
            "{}",
            kind.name()
        );
        assert_eq!(a.observations, b.observations, "{}", kind.name());
        assert_eq!(
            a.edge_stats.iter().map(|s| s.frames_carried).sum::<u64>(),
            b.edge_stats.iter().map(|s| s.frames_carried).sum::<u64>(),
            "{}",
            kind.name()
        );
        assert_eq!(
            format!("{:?}", a.violation),
            format!("{:?}", b.violation),
            "{}",
            kind.name()
        );
    }
}
