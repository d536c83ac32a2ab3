//! Property-based tests for the framework's accounting and policy
//! invariants.

use atropos::accounting::UsageStats;
use atropos::estimator::{EstimatorSnapshot, ResourceSnapshot, TaskGainSnapshot};
use atropos::policy::select_naive;
use atropos::{PolicyKind, ResourceId, ResourceType, TaskId, TaskKey};
use proptest::prelude::*;

/// Arbitrary event for the accounting state machine.
#[derive(Debug, Clone)]
enum Ev {
    Get(u64),
    Free(u64),
    Slow(u64),
    Roll,
}

fn ev_strategy() -> impl Strategy<Value = Ev> {
    prop_oneof![
        (1u64..100).prop_map(Ev::Get),
        (1u64..100).prop_map(Ev::Free),
        (1u64..10).prop_map(Ev::Slow),
        Just(Ev::Roll),
    ]
}

proptest! {
    /// Summed window figures always equal the cumulative totals after the
    /// final roll, for any event sequence with non-decreasing timestamps.
    #[test]
    fn window_sums_match_totals(evs in prop::collection::vec(ev_strategy(), 0..200),
                                gaps in prop::collection::vec(1u64..1_000, 0..200)) {
        let mut s = UsageStats::default();
        let mut now = 0u64;
        let (mut w_wait, mut w_hold, mut w_acq, mut w_freed, mut w_slow) = (0u64, 0, 0, 0, 0);
        for (i, ev) in evs.iter().enumerate() {
            now += gaps.get(i).copied().unwrap_or(1);
            match ev {
                Ev::Get(a) => s.on_get(now, *a),
                Ev::Free(a) => s.on_free(now, *a),
                Ev::Slow(a) => s.on_slow(now, *a),
                Ev::Roll => {
                    s.roll_window(now);
                    let w = s.window();
                    w_wait += w.wait_ns;
                    w_hold += w.hold_ns;
                    w_acq += w.acquired;
                    w_freed += w.freed;
                    w_slow += w.slow_amount;
                }
            }
        }
        now += 1;
        s.roll_window(now);
        let w = s.window();
        w_wait += w.wait_ns;
        w_hold += w.hold_ns;
        w_acq += w.acquired;
        w_freed += w.freed;
        w_slow += w.slow_amount;
        prop_assert_eq!(w_wait, s.total_wait_ns);
        prop_assert_eq!(w_hold, s.total_hold_ns);
        prop_assert_eq!(w_acq, s.acquired);
        prop_assert_eq!(w_freed, s.freed);
        prop_assert_eq!(w_slow, s.slow_amount);
        // Held units never exceed acquired and never underflow.
        prop_assert!(s.held <= s.acquired);
    }
}

fn snapshot_strategy() -> impl Strategy<Value = EstimatorSnapshot> {
    let n_res = 3usize;
    let task = (0u64..50, prop::collection::vec(0.0f64..5.0, n_res)).prop_map(move |(id, g)| {
        TaskGainSnapshot {
            task: TaskId(id),
            key: TaskKey(id),
            cancellable: true,
            gains: g.clone(),
            current: g,
            progress: None,
        }
    });
    (
        prop::collection::vec(0.0f64..1.0, n_res),
        prop::collection::vec(task, 0..30),
    )
        .prop_map(move |(weights, mut tasks)| {
            // De-duplicate task ids so determinism checks are meaningful.
            tasks.sort_by_key(|t| t.task);
            tasks.dedup_by_key(|t| t.task);
            let total: f64 = weights.iter().sum();
            let resources = weights
                .iter()
                .enumerate()
                .map(|(i, &w)| ResourceSnapshot {
                    id: ResourceId(i as u32),
                    rtype: ResourceType::Lock,
                    contention: w,
                    normalized: w,
                    weight: if total > 0.0 { w / total } else { 0.0 },
                    wait_ns: 0,
                    hold_ns: 0,
                    acquired: 0,
                    slow_amount: 0,
                })
                .collect();
            EstimatorSnapshot {
                resources,
                tasks,
                t_exec_ns: 1,
            }
        })
}

proptest! {
    /// The multi-objective policy's pick is never dominated by another
    /// candidate and never a non-cancellable or zero-gain task.
    #[test]
    fn selection_is_non_dominated(snap in snapshot_strategy()) {
        if let Some(sel) = select_naive(PolicyKind::MultiObjective, &snap) {
            let picked = snap.tasks.iter().find(|t| t.task == sel.task).unwrap();
            prop_assert!(picked.cancellable);
            prop_assert!(picked.gains.iter().any(|&g| g > 0.0));
            for other in &snap.tasks {
                if other.task == picked.task {
                    continue;
                }
                let dominates = other
                    .gains
                    .iter()
                    .zip(picked.gains.iter())
                    .all(|(o, p)| o >= p)
                    && other
                        .gains
                        .iter()
                        .zip(picked.gains.iter())
                        .any(|(o, p)| o > p);
                prop_assert!(!dominates, "picked task is dominated by {:?}", other.task);
            }
        }
    }

    /// Selection is deterministic: the same snapshot yields the same pick.
    #[test]
    fn selection_is_deterministic(snap in snapshot_strategy()) {
        let a = select_naive(PolicyKind::MultiObjective, &snap);
        let b = select_naive(PolicyKind::MultiObjective, &snap);
        prop_assert_eq!(a.map(|s| s.task), b.map(|s| s.task));
        let c = select_naive(PolicyKind::CurrentUsage, &snap);
        let d = select_naive(PolicyKind::CurrentUsage, &snap);
        prop_assert_eq!(c.map(|s| s.task), d.map(|s| s.task));
    }

    /// Scaling every task's gains on one resource by a positive constant
    /// never changes *dominance* relations; the winner remains in the
    /// non-dominated set computed after scaling.
    #[test]
    fn dominance_invariant_under_per_resource_scaling(
        snap in snapshot_strategy(),
        scale in 0.1f64..10.0,
    ) {
        let before = select_naive(PolicyKind::MultiObjective, &snap);
        let mut scaled = snap.clone();
        for t in &mut scaled.tasks {
            if let Some(g) = t.gains.get_mut(0) {
                *g *= scale;
            }
            if let Some(g) = t.current.get_mut(0) {
                *g *= scale;
            }
        }
        if let Some(sel) = select_naive(PolicyKind::MultiObjective, &scaled) {
            let picked = scaled.tasks.iter().find(|t| t.task == sel.task).unwrap();
            for other in &scaled.tasks {
                if other.task == picked.task {
                    continue;
                }
                let dominates = other.gains.iter().zip(&picked.gains).all(|(o, p)| o >= p)
                    && other.gains.iter().zip(&picked.gains).any(|(o, p)| o > p);
                prop_assert!(!dominates);
            }
        }
        // If there was nothing selectable before, scaling cannot create
        // gain out of nothing (scale > 0 preserves zero/non-zero).
        if before.is_none() {
            prop_assert!(select_naive(PolicyKind::MultiObjective, &scaled).is_none());
        }
    }
}
