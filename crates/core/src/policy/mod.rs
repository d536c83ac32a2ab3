//! Cancellation policies (§3.5, ablated in §5.4).
//!
//! Given an [`EstimatorSnapshot`], a policy selects the single task whose
//! cancellation is expected to yield the largest overall performance
//! benefit. Three policies are provided:
//!
//! - [`MultiObjectivePolicy`] — the paper's Algorithm 1: restrict to the
//!   non-dominated set, then scalarize with contention-level weights,
//! - [`HeuristicPolicy`] — §5.4 baseline 1: greatest gain on the single
//!   most contended resource,
//! - [`CurrentUsagePolicy`] — §5.4 baseline 2: multi-objective over
//!   *current* usage instead of future-scaled gain.
//!
//! The multi-objective policies carry two implementations each. The
//! literal transcription of Algorithm 1 — materialize the candidate set,
//! run the all-pairs non-dominated filter, scalarize — is O(n²) in the
//! candidate count and is kept as [`CancellationPolicy::select_naive`],
//! the differential oracle. The production path
//! ([`CancellationPolicy::select`]) uses the sort-based skyline in
//! [`skyline`], which returns the same `Selection` bit-for-bit (same
//! winner, same tie-breaks, same f64 score) in O(n·R) for the common
//! case. [`PolicyIndex`] goes one step further and evaluates the same
//! decision from incrementally maintained per-task terms, without
//! rebuilding the snapshot at all.

mod current_usage;
mod heuristic;
mod index;
mod multi_objective;
mod skyline;

pub use current_usage::CurrentUsagePolicy;
pub use heuristic::HeuristicPolicy;
pub use index::PolicyIndex;
pub use multi_objective::MultiObjectivePolicy;

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

/// A cancellation policy.
pub trait CancellationPolicy: Send + Sync {
    /// Selects the optimal task to cancel, or `None` if no cancellable
    /// task offers any gain.
    fn select(&self, snapshot: &EstimatorSnapshot) -> Option<Selection>;

    /// The reference (naive) evaluation of the same decision. Policies
    /// with an optimized `select` override this with the literal
    /// Algorithm-1 transcription; the two must agree bit-for-bit on every
    /// snapshot, which the proptest oracle-differential suite enforces.
    fn select_naive(&self, snapshot: &EstimatorSnapshot) -> Option<Selection> {
        self.select(snapshot)
    }

    /// Human-readable policy name for experiment output.
    fn name(&self) -> &'static str;
}

impl PolicyKind {
    /// Instantiates the configured policy.
    pub fn build(self) -> Box<dyn CancellationPolicy> {
        match self {
            PolicyKind::MultiObjective => Box::new(MultiObjectivePolicy),
            PolicyKind::Heuristic => Box::new(HeuristicPolicy),
            PolicyKind::CurrentUsage => Box::new(CurrentUsagePolicy),
        }
    }
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
/// resource-id order. Every scorer goes through this helper, which pins
/// the f64 evaluation order — and therefore the exact rounding — across
/// the naive path, the skyline path, and the [`PolicyIndex`].
pub(crate) fn weighted_score(resources: &[ResourceSnapshot], g: &[f64]) -> f64 {
    weighted_terms(resources, g).map(|t| t.contribution()).sum()
}

/// Candidate filter shared by all policies: cancellable tasks with a
/// positive gain on at least one resource.
pub(crate) fn candidates(
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
pub(crate) fn non_dominated<'a>(
    cands: &[&'a TaskGainSnapshot],
    gains: impl Fn(&TaskGainSnapshot) -> &[f64] + Copy,
) -> Vec<&'a TaskGainSnapshot> {
    cands
        .iter()
        .filter(|a| !cands.iter().any(|b| dominates(gains(b), gains(a))))
        .copied()
        .collect()
}

/// Algorithm 1 lines 12–20: contention-weighted scalarization; ties break
/// toward the lowest task id for determinism.
pub(crate) fn scalarize(
    snapshot: &EstimatorSnapshot,
    set: &[&TaskGainSnapshot],
    gains: impl Fn(&TaskGainSnapshot) -> &[f64] + Copy,
) -> Option<Selection> {
    let mut best: Option<Selection> = None;
    for t in set {
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

/// The full non-dominated candidate ranking under Algorithm 1's
/// scalarization, best first; ties break toward the lowest task id.
/// Used by the decision-trace layer to explain *why* the winner won —
/// the tick path only computes this when a recorder is attached.
///
/// Computed with the sort-based skyline; bit-identical to
/// [`ranked_naive`].
pub fn ranked(snapshot: &EstimatorSnapshot) -> Vec<Selection> {
    skyline::ranked_fast(snapshot, |t| &t.gains)
}

/// Reference implementation of [`ranked`]: materialize candidates, run
/// the all-pairs non-dominated filter, score, sort. O(n²) in the
/// candidate count; kept as the differential oracle for the skyline.
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
/// Resolves the task with a linear scan of the snapshot; callers holding
/// a [`PolicyIndex`] should use [`PolicyIndex::gain_terms`], which
/// resolves through the task→slot map instead.
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
    use super::*;

    #[test]
    fn dominates_requires_strict_improvement() {
        assert!(dominates(&[2.0, 1.0], &[1.0, 1.0]));
        assert!(!dominates(&[1.0, 1.0], &[1.0, 1.0]));
        assert!(!dominates(&[2.0, 0.5], &[1.0, 1.0]));
        assert!(dominates(&[5.0, 2.0], &[4.0, 1.0])); // paper's example
    }

    #[test]
    fn non_dominated_set_keeps_pareto_front() {
        let snap = testutil::snapshot(
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
    fn scalarize_matches_paper_example() {
        // §3.5: C_mem = 0.6, C_lock = 0.4; task A = (3, 1), task B = (2, 2);
        // A scores 2.2, B scores 2.0 → A wins.
        let snap = testutil::snapshot(&[0.6, 0.4], &[(1, &[3.0, 1.0][..]), (2, &[2.0, 2.0][..])]);
        let cands = candidates(&snap, |t| &t.gains);
        let sel = scalarize(&snap, &cands, |t| &t.gains).unwrap();
        assert_eq!(sel.task, TaskId(1));
        assert!((sel.score - 2.2).abs() < 1e-9);
    }

    #[test]
    fn scalarize_tie_breaks_deterministically() {
        let snap = testutil::snapshot(&[1.0], &[(7, &[1.0][..]), (3, &[1.0][..])]);
        let cands = candidates(&snap, |t| &t.gains);
        let sel = scalarize(&snap, &cands, |t| &t.gains).unwrap();
        assert_eq!(sel.task, TaskId(3));
    }

    #[test]
    fn zero_score_yields_none() {
        let snap = testutil::snapshot(&[0.0], &[(1, &[1.0][..])]);
        let cands = candidates(&snap, |t| &t.gains);
        assert!(scalarize(&snap, &cands, |t| &t.gains).is_none());
    }

    #[test]
    fn non_cancellable_tasks_are_filtered() {
        let mut snap = testutil::snapshot(&[1.0], &[(1, &[5.0][..]), (2, &[1.0][..])]);
        snap.tasks[0].cancellable = false;
        let cands = candidates(&snap, |t| &t.gains);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].task, TaskId(2));
    }

    #[test]
    fn ranked_orders_non_dominated_candidates_by_score() {
        // §3.5 example plus a dominated task that must not appear.
        let snap = testutil::snapshot(
            &[0.6, 0.4],
            &[
                (1, &[3.0, 1.0][..]), // 2.2
                (2, &[2.0, 2.0][..]), // 2.0
                (3, &[1.0, 1.0][..]), // dominated by 2
            ],
        );
        let r = ranked(&snap);
        let ids: Vec<u64> = r.iter().map(|s| s.task.0).collect();
        assert_eq!(ids, vec![1, 2]);
        assert!(r[0].score > r[1].score);
        // The top of the ranking must agree with the policy's pick.
        let sel = MultiObjectivePolicy.select(&snap).unwrap();
        assert_eq!(sel.task, r[0].task);
        assert_eq!(sel.score, r[0].score);
        // And the skyline ranking must agree with the naive oracle.
        assert_eq!(r, ranked_naive(&snap));
    }

    #[test]
    fn gain_terms_break_down_the_winning_score() {
        let snap = testutil::snapshot(&[0.6, 0.4], &[(1, &[3.0, 1.0][..])]);
        let terms = gain_terms(&snap, TaskId(1));
        let present: Vec<GainTerm> = terms.iter().flatten().copied().collect();
        assert_eq!(present.len(), 2);
        // Highest contribution first: 0.6*3.0 = 1.8, then 0.4*1.0 = 0.4.
        assert!((present[0].contribution() - 1.8).abs() < 1e-9);
        assert!((present[1].contribution() - 0.4).abs() < 1e-9);
        let total: f64 = present.iter().map(|t| t.contribution()).sum();
        let sel = MultiObjectivePolicy.select(&snap).unwrap();
        assert!((total - sel.score).abs() < 1e-9, "terms must sum to score");
    }

    #[test]
    fn gain_terms_for_unknown_task_are_empty() {
        let snap = testutil::snapshot(&[1.0], &[(1, &[1.0][..])]);
        assert!(gain_terms(&snap, TaskId(99)).iter().all(|t| t.is_none()));
    }

    #[test]
    fn policy_kind_builds_named_policies() {
        assert_eq!(PolicyKind::MultiObjective.build().name(), "multi-objective");
        assert_eq!(PolicyKind::Heuristic.build().name(), "heuristic");
        assert_eq!(PolicyKind::CurrentUsage.build().name(), "current-usage");
    }
}
