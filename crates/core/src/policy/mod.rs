//! Cancellation policies (§3.5, ablated in §5.4).
//!
//! A policy selects the single task whose cancellation is expected to
//! yield the largest overall performance benefit. [`PolicyKind`] names the
//! three this crate evaluates:
//!
//! - `MultiObjective` — the paper's Algorithm 1: restrict to the
//!   non-dominated set, then scalarize with contention-level weights,
//! - `Heuristic` — §5.4 baseline 1: greatest gain on the single most
//!   contended resource,
//! - `CurrentUsage` — §5.4 baseline 2: Algorithm 1 over *current* usage
//!   instead of future-scaled gain.
//!
//! The tick decides, and explains its decision, from the incrementally
//! maintained [`PolicyIndex`]. The plain functions here are the reference
//! it is proven against: [`select_naive`], [`ranked_naive`] and
//! [`gain_terms`] are the literal transcription of Algorithm 1 over an
//! [`EstimatorSnapshot`] — materialize the candidate set, run the
//! all-pairs non-dominated filter, scalarize — O(n²) in the candidate
//! count and selected by no runtime configuration.

mod index;

pub use index::PolicyIndex;

use crate::config::PolicyKind;
use crate::estimator::{EstimatorSnapshot, ResourceSnapshot, TaskGainSnapshot};
use crate::ids::{TaskId, TaskKey};
use crate::record::{GainTerm, MAX_GAIN_TERMS};

/// A policy's pick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Selection {
    /// The task to cancel.
    pub task: TaskId,
    /// Its application key (what the initiator receives).
    pub key: TaskKey,
    /// The scalarized score that won.
    pub score: f64,
}

/// True if `b` dominates `a` under the given gain vectors: `b` is no worse
/// on every resource and strictly better on at least one.
pub(crate) fn dominates(b: &[f64], a: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strictly_better = false;
    for (x, y) in b.iter().zip(a.iter()) {
        if x < y {
            return false;
        }
        if x > y {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Per-resource `weight × gain` terms in resource-id order: the single
/// definition of Algorithm 1's objective terms, shared by the scalarized
/// score, the explainer breakdown, and the [`PolicyIndex`], so a future
/// weight-formula change cannot diverge between paths.
pub(crate) fn weighted_terms<'a>(
    resources: &'a [ResourceSnapshot],
    g: &'a [f64],
) -> impl Iterator<Item = GainTerm> + 'a {
    resources.iter().map(move |r| GainTerm {
        resource: r.id,
        weight: r.weight,
        gain: g.get(r.id.index()).copied().unwrap_or(0.0),
    })
}

/// Algorithm 1's scalarized score: `Σ_r weight_r × gain_r`, summed in
/// resource-id order. The reference and the [`PolicyIndex`] both sum in
/// this order, which pins the exact f64 rounding across the two.
pub(crate) fn weighted_score(resources: &[ResourceSnapshot], g: &[f64]) -> f64 {
    weighted_terms(resources, g).map(|t| t.contribution()).sum()
}

/// Candidate filter shared by all policies: cancellable tasks with a
/// positive gain on at least one resource.
fn candidates(
    snapshot: &EstimatorSnapshot,
    gains: impl Fn(&TaskGainSnapshot) -> &[f64] + Copy,
) -> Vec<&TaskGainSnapshot> {
    snapshot
        .tasks
        .iter()
        .filter(|t| t.cancellable && gains(t).iter().any(|&g| g > 0.0))
        .collect()
}

/// Algorithm 1 lines 2–10: the non-dominated (dominator) set.
fn non_dominated<'a>(
    cands: &[&'a TaskGainSnapshot],
    gains: impl Fn(&TaskGainSnapshot) -> &[f64] + Copy,
) -> Vec<&'a TaskGainSnapshot> {
    cands
        .iter()
        .filter(|a| !cands.iter().any(|b| dominates(gains(b), gains(a))))
        .copied()
        .collect()
}

/// The reference evaluation of `kind` over a materialized snapshot: what
/// [`PolicyIndex::select`] must return, bit for bit, on the same state.
pub fn select_naive(kind: PolicyKind, snapshot: &EstimatorSnapshot) -> Option<Selection> {
    match kind {
        PolicyKind::MultiObjective => scalarize(snapshot, |t| &t.gains),
        PolicyKind::CurrentUsage => scalarize(snapshot, |t| &t.current),
        PolicyKind::Heuristic => heuristic(snapshot),
    }
}

/// Algorithm 1 over the gain vectors `gains` picks: the non-dominated set
/// (lines 2–10), then contention-weighted scalarization (lines 12–20);
/// ties break toward the lowest task id.
fn scalarize(
    snapshot: &EstimatorSnapshot,
    gains: impl Fn(&TaskGainSnapshot) -> &[f64] + Copy,
) -> Option<Selection> {
    let mut best: Option<Selection> = None;
    for t in non_dominated(&candidates(snapshot, gains), gains) {
        let total = weighted_score(&snapshot.resources, gains(t));
        let better = match &best {
            None => true,
            Some(b) => total > b.score || (total == b.score && t.task < b.task),
        };
        if better {
            best = Some(Selection {
                task: t.task,
                key: t.key,
                score: total,
            });
        }
    }
    best.filter(|s| s.score > 0.0)
}

/// The §5.4 greedy baseline: `r* = argmax_r Contention(r)`, then
/// `t* = argmax_t Gain(t, r*)`. It converges to locally optimal decisions
/// when overload spans multiple resources (Figure 13).
fn heuristic(snapshot: &EstimatorSnapshot) -> Option<Selection> {
    let hottest = snapshot
        .resources
        .iter()
        .filter(|r| r.normalized > 0.0)
        .max_by(|a, b| {
            a.normalized
                .partial_cmp(&b.normalized)
                .expect("contention is finite")
        })?;
    let idx = hottest.id.index();
    let mut best: Option<Selection> = None;
    for t in candidates(snapshot, |t| &t.gains) {
        let g = t.gains.get(idx).copied().unwrap_or(0.0);
        let better = match &best {
            None => g > 0.0,
            Some(b) => g > b.score || (g == b.score && t.task < b.task),
        };
        if better {
            best = Some(Selection {
                task: t.task,
                key: t.key,
                score: g,
            });
        }
    }
    best
}

/// The full non-dominated candidate ranking under Algorithm 1's
/// scalarization, best first; ties break toward the lowest task id. The
/// reference for [`PolicyIndex::ranked`]: materialize candidates, run the
/// all-pairs non-dominated filter, score, sort.
pub fn ranked_naive(snapshot: &EstimatorSnapshot) -> Vec<Selection> {
    fn gains(t: &TaskGainSnapshot) -> &[f64] {
        &t.gains
    }
    let cands = candidates(snapshot, gains);
    let nd = non_dominated(&cands, gains);
    let mut out: Vec<Selection> = nd
        .iter()
        .map(|t| Selection {
            task: t.task,
            key: t.key,
            score: weighted_score(&snapshot.resources, gains(t)),
        })
        .filter(|s| s.score > 0.0)
        .collect();
    out.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.task.cmp(&b.task))
    });
    out
}

/// The per-resource score breakdown for `task`: up to
/// [`MAX_GAIN_TERMS`] `weight × gain` terms, highest contribution first
/// (terms with zero contribution are omitted). Unused slots are `None`.
///
/// The reference for [`PolicyIndex::gain_terms`], which resolves the task
/// through its task→slot map instead of this linear scan.
pub fn gain_terms(
    snapshot: &EstimatorSnapshot,
    task: TaskId,
) -> [Option<GainTerm>; MAX_GAIN_TERMS] {
    let Some(t) = snapshot.tasks.iter().find(|t| t.task == task) else {
        return [None; MAX_GAIN_TERMS];
    };
    gain_terms_for(&snapshot.resources, &t.gains)
}

/// [`gain_terms`] with the task's gain vector already resolved, so the
/// explanation cost is O(R) regardless of the task population.
pub fn gain_terms_for(
    resources: &[ResourceSnapshot],
    gains: &[f64],
) -> [Option<GainTerm>; MAX_GAIN_TERMS] {
    let mut out = [None; MAX_GAIN_TERMS];
    let mut terms: Vec<GainTerm> = weighted_terms(resources, gains)
        .filter(|term| term.contribution() > 0.0)
        .collect();
    terms.sort_by(|a, b| {
        b.contribution()
            .partial_cmp(&a.contribution())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.resource.0.cmp(&b.resource.0))
    });
    for (slot, term) in out.iter_mut().zip(terms) {
        *slot = Some(term);
    }
    out
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::ids::{ResourceId, ResourceType};

    /// The index materializes tasks in slot order, the batch `estimate`
    /// in task-map order; neither order affects decisions, so the two
    /// are compared canonicalized.
    pub fn canon(mut s: EstimatorSnapshot) -> EstimatorSnapshot {
        s.tasks.sort_by_key(|t| t.task);
        s
    }

    /// Builds a snapshot directly from weight and gain vectors.
    pub fn snapshot(weights: &[f64], tasks: &[(u64, &[f64])]) -> EstimatorSnapshot {
        let resources = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| crate::estimator::ResourceSnapshot {
                id: ResourceId(i as u32),
                rtype: ResourceType::Lock,
                contention: w,
                normalized: w,
                weight: w,
                wait_ns: 0,
                hold_ns: 0,
                acquired: 0,
                slow_amount: 0,
            })
            .collect();
        let tasks = tasks
            .iter()
            .map(|(id, g)| TaskGainSnapshot {
                task: TaskId(*id),
                key: TaskKey(*id),
                cancellable: true,
                gains: g.to_vec(),
                current: g.to_vec(),
                progress: None,
            })
            .collect();
        EstimatorSnapshot {
            resources,
            tasks,
            t_exec_ns: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::snapshot;
    use super::*;

    const MO: PolicyKind = PolicyKind::MultiObjective;

    fn pick(kind: PolicyKind, snap: &EstimatorSnapshot) -> Option<u64> {
        select_naive(kind, snap).map(|s| s.task.0)
    }

    #[test]
    fn dominates_requires_strict_improvement() {
        assert!(dominates(&[2.0, 1.0], &[1.0, 1.0]));
        assert!(!dominates(&[1.0, 1.0], &[1.0, 1.0]));
        assert!(!dominates(&[2.0, 0.5], &[1.0, 1.0]));
        assert!(dominates(&[5.0, 2.0], &[4.0, 1.0])); // paper's example
    }

    #[test]
    fn non_dominated_set_keeps_pareto_front() {
        let snap = snapshot(
            &[0.5, 0.5],
            &[
                (1, &[3.0, 0.0][..]),
                (2, &[2.0, 2.0][..]),
                (3, &[1.0, 1.0][..]), // dominated by task 2
                (4, &[0.0, 3.0][..]),
            ],
        );
        let cands = candidates(&snap, |t| &t.gains);
        let nd = non_dominated(&cands, |t| &t.gains);
        let ids: Vec<u64> = nd.iter().map(|t| t.task.0).collect();
        assert_eq!(ids, vec![1, 2, 4]);
    }

    #[test]
    fn multi_objective_matches_paper_example() {
        // §3.5: C_mem = 0.6, C_lock = 0.4; task A = (3, 1), task B = (2, 2);
        // A scores 2.2, B scores 2.0 → A wins.
        let snap = snapshot(&[0.6, 0.4], &[(1, &[3.0, 1.0][..]), (2, &[2.0, 2.0][..])]);
        let sel = select_naive(MO, &snap).unwrap();
        assert_eq!(sel.task, TaskId(1));
        assert!((sel.score - 2.2).abs() < 1e-9);
        // Weighting the other resource flips the choice.
        let lock_heavy = snapshot(&[0.2, 0.8], &[(1, &[3.0, 1.0][..]), (2, &[2.0, 2.0][..])]);
        assert_eq!(pick(MO, &lock_heavy), Some(2));
    }

    #[test]
    fn dominated_task_never_wins_even_with_odd_weights() {
        // Task 3 is dominated by task 2 and must not be selected under any
        // weighting: with weights (0, 1) it would otherwise tie-break in.
        let snap = snapshot(&[0.0, 1.0], &[(2, &[2.0, 2.0][..]), (3, &[1.0, 1.9][..])]);
        assert_eq!(pick(MO, &snap), Some(2));
        let snap = snapshot(&[0.0, 1.0], &[(2, &[2.0, 1.0][..]), (1, &[1.0, 1.0][..])]);
        assert_eq!(
            pick(MO, &snap),
            Some(2),
            "a dominated lower id loses the tie"
        );
    }

    #[test]
    fn heuristic_misses_the_global_optimum_by_design() {
        // Two nearly equally hot resources; task 2 has gain on both, task 1
        // only on the hottest. The heuristic takes task 1 because its
        // single-resource gain is larger; Algorithm 1 takes task 2.
        let snap = snapshot(&[0.51, 0.49], &[(1, &[3.0, 0.0][..]), (2, &[2.0, 2.0][..])]);
        assert_eq!(pick(PolicyKind::Heuristic, &snap), Some(1));
        assert_eq!(pick(MO, &snap), Some(2));
        // And it looks at nothing but the hottest resource.
        let snap = snapshot(&[0.3, 0.7], &[(1, &[9.0, 0.0][..]), (2, &[0.1, 1.0][..])]);
        assert_eq!(pick(PolicyKind::Heuristic, &snap), Some(2));
        let cold = snapshot(&[0.0, 0.0], &[(1, &[1.0, 1.0][..])]);
        assert_eq!(pick(PolicyKind::Heuristic, &cold), None);
        let nothing_on_the_hot_one = snapshot(&[0.0, 1.0], &[(1, &[5.0, 0.0][..])]);
        assert_eq!(pick(PolicyKind::Heuristic, &nothing_on_the_hot_one), None);
    }

    #[test]
    fn current_usage_reads_current_vectors_not_future_gains() {
        let mut snap = snapshot(&[1.0], &[(1, &[0.1][..]), (2, &[1.0][..])]);
        snap.tasks[0].current = vec![1.0];
        snap.tasks[1].current = vec![0.1];
        assert_eq!(pick(MO, &snap), Some(2));
        assert_eq!(pick(PolicyKind::CurrentUsage, &snap), Some(1));
    }

    #[test]
    fn ties_go_to_the_lowest_id() {
        let snap = snapshot(&[1.0], &[(7, &[1.0][..]), (3, &[1.0][..])]);
        for kind in [MO, PolicyKind::Heuristic, PolicyKind::CurrentUsage] {
            assert_eq!(pick(kind, &snap), Some(3), "{kind:?}");
        }
    }

    #[test]
    fn zero_score_yields_none() {
        let snap = snapshot(&[0.0, 1.0], &[(1, &[1.0, 0.0][..])]);
        assert_eq!(pick(MO, &snap), None);
        assert!(ranked_naive(&snap).is_empty());
        for kind in [MO, PolicyKind::CurrentUsage] {
            assert_eq!(pick(kind, &snapshot(&[1.0], &[])), None);
            assert_eq!(pick(kind, &snapshot(&[1.0], &[(1, &[0.0][..])])), None);
        }
    }

    #[test]
    fn non_cancellable_tasks_are_filtered() {
        let mut snap = snapshot(&[1.0], &[(1, &[5.0][..]), (2, &[1.0][..])]);
        snap.tasks[0].cancellable = false;
        for kind in [MO, PolicyKind::Heuristic, PolicyKind::CurrentUsage] {
            assert_eq!(pick(kind, &snap), Some(2), "{kind:?}");
        }
        snap.tasks[1].cancellable = false;
        assert_eq!(pick(MO, &snap), None);
    }

    #[test]
    fn ranked_orders_non_dominated_candidates_by_score() {
        // §3.5 example plus a dominated task that must not appear.
        let snap = snapshot(
            &[0.6, 0.4],
            &[
                (1, &[3.0, 1.0][..]), // 2.2
                (2, &[2.0, 2.0][..]), // 2.0
                (3, &[1.0, 1.0][..]), // dominated by 2
            ],
        );
        let r = ranked_naive(&snap);
        let ids: Vec<u64> = r.iter().map(|s| s.task.0).collect();
        assert_eq!(ids, vec![1, 2]);
        assert!(r[0].score > r[1].score);
        assert_eq!(select_naive(MO, &snap), Some(r[0]));
    }

    #[test]
    fn gain_terms_break_down_the_winning_score() {
        let snap = snapshot(&[0.6, 0.4], &[(1, &[3.0, 1.0][..])]);
        let terms = gain_terms(&snap, TaskId(1));
        let present: Vec<GainTerm> = terms.iter().flatten().copied().collect();
        assert_eq!(present.len(), 2);
        // Highest contribution first: 0.6*3.0 = 1.8, then 0.4*1.0 = 0.4.
        assert!((present[0].contribution() - 1.8).abs() < 1e-9);
        assert!((present[1].contribution() - 0.4).abs() < 1e-9);
        let total: f64 = present.iter().map(|t| t.contribution()).sum();
        let sel = select_naive(MO, &snap).unwrap();
        assert!((total - sel.score).abs() < 1e-9, "terms must sum to score");
    }

    #[test]
    fn gain_terms_for_unknown_task_are_empty() {
        let snap = snapshot(&[1.0], &[(1, &[1.0][..])]);
        assert!(gain_terms(&snap, TaskId(99)).iter().all(|t| t.is_none()));
    }
}
