//! Task progress estimation (§3.4).
//!
//! Atropos scales resource gains by remaining work, using the GetNext
//! model: `Prog(i) = k / N`, where `k` is the number of work units already
//! processed (e.g. MySQL's `rows_examined`) and `N` the estimated total
//! (e.g. the optimizer's `estimatedRows`). Applications with quantifiable
//! progress report `(k, N)`; others fall back to [`DEFAULT_PROGRESS`].

use serde::{Deserialize, Serialize};

/// Floor applied to task progress when scaling gains by `(1 - p) / p`,
/// bounding the future-usage multiplier at 49.
pub const PROGRESS_FLOOR: f64 = 0.02;

/// Progress assumed for a task that never reports any: 0.5 makes the
/// multiplier 1, so its gain equals its current usage.
pub const DEFAULT_PROGRESS: f64 = 0.5;

/// Per-task progress state under the GetNext model.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ProgressTracker {
    done: u64,
    total: Option<u64>,
}

impl ProgressTracker {
    /// Reports progress: `done` units out of `total` expected.
    ///
    /// A `total` of zero is treated as "unknown" (no estimate yet).
    pub fn report(&mut self, done: u64, total: u64) {
        self.done = done;
        self.total = if total == 0 { None } else { Some(total) };
    }

    /// Progress in `(0, 1]`, or `None` if the task never reported.
    ///
    /// Progress is floored at `floor` so the future-usage multiplier
    /// `(1 - p) / p` stays bounded, and capped at 1.0 (a task can process
    /// more units than estimated).
    pub fn progress(&self, floor: f64) -> Option<f64> {
        let total = self.total?;
        let p = self.done as f64 / total as f64;
        Some(p.clamp(floor, 1.0))
    }

    /// The future-usage multiplier `(1 - p) / p` from §3.4, using
    /// `default_p` for tasks that never reported progress.
    ///
    /// A nearly finished task (p → 1) has multiplier → 0: cancelling it
    /// frees little *future* load. A task that just started (p → floor) has
    /// a large multiplier: it still has most of its demand ahead.
    pub fn future_multiplier(&self, floor: f64, default_p: f64) -> f64 {
        let p = self.progress(floor).unwrap_or(default_p.max(floor));
        (1.0 - p) / p
    }

    /// Raw reported counters `(done, total)` for introspection.
    pub fn raw(&self) -> (u64, Option<u64>) {
        (self.done, self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unreported_progress_is_none() {
        let p = ProgressTracker::default();
        assert_eq!(p.progress(0.01), None);
    }

    #[test]
    fn zero_total_means_unknown() {
        let mut p = ProgressTracker::default();
        p.report(10, 0);
        assert_eq!(p.progress(0.01), None);
    }

    #[test]
    fn progress_is_fractional() {
        let mut p = ProgressTracker::default();
        p.report(25, 100);
        assert!((p.progress(0.01).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn progress_is_floored_and_capped() {
        let mut p = ProgressTracker::default();
        p.report(0, 1000);
        assert_eq!(p.progress(0.02).unwrap(), 0.02);
        p.report(5000, 1000);
        assert_eq!(p.progress(0.02).unwrap(), 1.0);
    }

    #[test]
    fn future_multiplier_matches_paper_example() {
        // §3.4: a lock held 1 s at 40% progress → gain 1 × 0.6/0.4 = 1.5.
        let mut p = ProgressTracker::default();
        p.report(40, 100);
        assert!((p.future_multiplier(0.01, 0.5) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn future_multiplier_prefers_early_tasks() {
        // Query A at 90% vs query B at 10% (§3.4 discussion): B's future
        // demand dominates.
        let mut a = ProgressTracker::default();
        a.report(90, 100);
        let mut b = ProgressTracker::default();
        b.report(10, 100);
        assert!(b.future_multiplier(0.01, 0.5) > 8.0 * a.future_multiplier(0.01, 0.5));
    }

    #[test]
    fn unreported_progress_gives_neutral_multiplier() {
        let p = ProgressTracker::default();
        // DEFAULT_PROGRESS = 0.5 → multiplier 1.0: gain equals current usage.
        assert!((p.future_multiplier(PROGRESS_FLOOR, DEFAULT_PROGRESS) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn finished_task_has_zero_multiplier() {
        let mut p = ProgressTracker::default();
        p.report(100, 100);
        assert_eq!(p.future_multiplier(0.01, 0.5), 0.0);
    }
}
