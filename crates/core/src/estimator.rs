//! Resource-overload estimation (§3.4–§3.5).
//!
//! When the detector reports a candidate overload, the estimator turns the
//! runtime manager's per-task usage windows into two unit-less metrics:
//!
//! - **contention level** per resource — memory: eviction ratio
//!   `ΣEᵢ / ΣMᵢ`; synchronization: wait/use time ratio; queue: queue-wait /
//!   run time ratio — plus the *normalized* form `C_r = D_r / T_exec`
//!   (fraction of window execution time lost to resource `r`) used as the
//!   scalarization weight;
//! - **resource gain** per `(task, resource)` — the usage that cancelling
//!   the task would free, scaled to *future* demand by the GetNext progress
//!   multiplier `(1 − p) / p` (§3.4), so nearly-finished long tasks are not
//!   preferred over just-started hogs.
//!
//! The pass is factored into per-task term derivation
//! ([`derive_task_terms`]) and a global-sum reduction
//! ([`resource_snapshots_from_sums`]) so the incremental
//! [`PolicyIndex`](crate::policy::PolicyIndex) can maintain exactly the
//! same quantities task-by-task instead of rebuilding the snapshot; the
//! index and the batch [`estimate`] share these helpers, which is what
//! makes their outputs bit-identical.

use crate::accounting::WindowUsage;
use crate::config::AtroposConfig;
use crate::ids::{ResourceId, ResourceType, TaskId, TaskKey};
use crate::resource::ResourceRegistry;
use crate::task::TaskRecord;

/// Cap applied to raw contention ratios so a zero denominator cannot
/// produce an unusable infinity.
const CONTENTION_CAP: f64 = 1e6;

/// Cap applied to contention when used as a scalarization weight, so one
/// enormous wait/use ratio cannot fully mute every other resource.
const WEIGHT_CAP: f64 = 20.0;

/// Per-resource contention figures for one window.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceSnapshot {
    /// Resource id.
    pub id: ResourceId,
    /// Resource type.
    pub rtype: ResourceType,
    /// Raw contention level (eviction ratio or wait/use ratio).
    pub contention: f64,
    /// Normalized contention `C_r = D_r / T_exec` in the window.
    pub normalized: f64,
    /// Scalarization weight: `normalized` rescaled so weights sum to 1
    /// across resources with non-zero contention.
    pub weight: f64,
    /// Total waiting time attributed to this resource in the window (ns).
    pub wait_ns: u64,
    /// Total holding/usage time in the window (ns).
    pub hold_ns: u64,
    /// Units acquired in the window.
    pub acquired: u64,
    /// Slow-by amount in the window (e.g. evictions).
    pub slow_amount: u64,
}

/// Per-task gains for one window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskGainSnapshot {
    /// Task id.
    pub task: TaskId,
    /// Application key.
    pub key: TaskKey,
    /// Whether the policy may cancel this task.
    pub cancellable: bool,
    /// Future-scaled resource gain per resource, normalized to `[0, 1]` by
    /// the per-resource maximum (indexed by `ResourceId::index()`).
    pub gains: Vec<f64>,
    /// Current-usage gain per resource (the §5.4 ablation), normalized the
    /// same way.
    pub current: Vec<f64>,
    /// Reported progress, if any.
    pub progress: Option<f64>,
}

/// Output of one estimation pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EstimatorSnapshot {
    /// Per-resource contention, indexed by `ResourceId::index()`.
    pub resources: Vec<ResourceSnapshot>,
    /// Per-task gains (only tasks with any window activity).
    pub tasks: Vec<TaskGainSnapshot>,
    /// Total task execution time in the window (ns).
    pub t_exec_ns: u64,
}

impl EstimatorSnapshot {
    /// Resources whose raw contention exceeds `min_contention`, most
    /// contended first.
    pub fn bottlenecked(&self, min_contention: f64) -> Vec<ResourceId> {
        bottlenecked(&self.resources, min_contention)
    }
}

/// [`EstimatorSnapshot::bottlenecked`] over the per-resource figures
/// alone, which is all it reads: the tick answers it from the policy
/// index's O(R) snapshots without materializing any task.
pub(crate) fn bottlenecked(resources: &[ResourceSnapshot], min_contention: f64) -> Vec<ResourceId> {
    let mut hot: Vec<&ResourceSnapshot> = resources
        .iter()
        .filter(|r| r.contention >= min_contention)
        .collect();
    hot.sort_by(|a, b| {
        b.contention
            .partial_cmp(&a.contention)
            .expect("contention is finite")
    });
    hot.iter().map(|r| r.id).collect()
}

/// One task's contribution to the estimation pass: its published window
/// per resource (feeding the global contention sums) and its un-normalized
/// gain terms. This is the unit the [`PolicyIndex`](crate::policy::PolicyIndex)
/// caches per slot and the naive pass derives on the fly.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct TaskTerms {
    /// Application key.
    pub key: TaskKey,
    /// Whether the policy may cancel this task.
    pub cancellable: bool,
    /// Active execution time in the window (ns).
    pub window_active_ns: u64,
    /// Published window per resource, indexed by `ResourceId::index()`.
    pub windows: Vec<WindowUsage>,
    /// Un-normalized future-scaled gain per resource.
    pub raw_future: Vec<f64>,
    /// Un-normalized current-usage gain per resource.
    pub raw_current: Vec<f64>,
    /// Reported progress, if any.
    pub progress: Option<f64>,
    /// Whether the task had any window activity (inactive tasks are
    /// omitted from the snapshot's task list but still feed global sums).
    pub active: bool,
}

impl TaskTerms {
    /// The terms of a task with no activity at all: what a freshly
    /// allocated index slot holds before its first derivation.
    pub fn zero(n: usize) -> Self {
        TaskTerms {
            key: TaskKey(0),
            cancellable: false,
            window_active_ns: 0,
            windows: vec![WindowUsage::default(); n],
            raw_future: vec![0.0; n],
            raw_current: vec![0.0; n],
            progress: None,
            active: false,
        }
    }
}

/// Derives one task's [`TaskTerms`] from its most recently closed window
/// into `out`, reusing its buffers (the index re-derives every busy task
/// on every candidate tick). This is the only place gain terms are computed; the batch
/// [`estimate`] and the incremental index both call it, so the two
/// cannot diverge on per-task arithmetic.
pub(crate) fn derive_task_terms(
    t: &TaskRecord,
    resources: &ResourceRegistry,
    cfg: &AtroposConfig,
    out: &mut TaskTerms,
) {
    let n = resources.len();
    let mult = t
        .progress
        .future_multiplier(cfg.progress_floor, cfg.default_progress);
    let TaskTerms {
        windows,
        raw_future,
        raw_current,
        ..
    } = out;
    windows.clear();
    windows.extend(t.usage.iter().take(n).map(|u| u.window()));
    windows.resize(n, WindowUsage::default());
    raw_future.clear();
    raw_future.resize(n, 0.0);
    raw_current.clear();
    raw_current.resize(n, 0.0);
    let window_active = t.window_active_ns();
    let mut active = window_active > 0;
    // Time this task spent blocked on synchronization/queue/system
    // resources in the window. A task holds e.g. a worker slot or a
    // ticket *while blocked on a lock*, but it is not consuming those
    // resources' service ("expected future thread time", §3.4) — it is
    // a victim. Its attributed usage is discounted by the blocked
    // share so victims do not outscore the culprit that blocks them.
    // Memory stalls (evictions) are excluded: the evictor's stall is
    // its own productive resource consumption.
    let mut blocked_ns: u64 = 0;
    for (i, w) in windows.iter().enumerate() {
        let info = resources.get(ResourceId(i as u32)).expect("registered");
        if info.rtype != ResourceType::Memory {
            blocked_ns += w.wait_ns;
        }
    }
    let running_frac = if window_active == 0 {
        1.0
    } else {
        1.0 - (blocked_ns.min(window_active) as f64 / window_active as f64)
    };
    for (i, w) in windows.iter().enumerate() {
        let info = resources.get(ResourceId(i as u32)).expect("registered");
        // Current usage: what cancelling frees *right now*.
        let current = match info.rtype {
            ResourceType::Memory => w.held_at_end as f64,
            ResourceType::Lock | ResourceType::Queue | ResourceType::System => w.hold_ns as f64,
        } * running_frac;
        raw_current[i] = current;
        raw_future[i] = current * mult;
        if current > 0.0 || w.wait_ns > 0 || w.acquired > 0 {
            active = true;
        }
    }
    out.key = t.key;
    out.cancellable = t.cancellable;
    out.window_active_ns = window_active;
    out.progress = t.progress.progress(cfg.progress_floor);
    out.active = active;
}

/// Builds the per-resource contention snapshots from the global window
/// sums. Shared by [`estimate`] (which sums over tasks on the fly) and
/// the index (which maintains the sums incrementally).
pub(crate) fn resource_snapshots_from_sums(
    resources: &ResourceRegistry,
    wait: &[u64],
    hold: &[u64],
    acquired: &[u64],
    slow_amount: &[u64],
    t_exec: u64,
) -> Vec<ResourceSnapshot> {
    let n = resources.len();
    let mut snaps: Vec<ResourceSnapshot> = Vec::with_capacity(n);
    let t_exec_div = t_exec.max(1) as f64;
    for i in 0..n {
        let info = resources.get(ResourceId(i as u32)).expect("registered");
        let contention = match info.rtype {
            ResourceType::Memory => {
                if slow_amount[i] == 0 {
                    0.0
                } else {
                    (slow_amount[i] as f64 / acquired[i].max(1) as f64).min(CONTENTION_CAP)
                }
            }
            ResourceType::Lock | ResourceType::Queue | ResourceType::System => {
                if wait[i] == 0 {
                    0.0
                } else {
                    (wait[i] as f64 / hold[i].max(1) as f64).min(CONTENTION_CAP)
                }
            }
        };
        // Contention-induced delay D_r (§3.5): measured waiting time for
        // sync/queue resources; eviction stall time weighted by contention
        // for memory resources.
        let delay = match info.rtype {
            ResourceType::Memory => wait[i] as f64 * contention.min(1.0),
            _ => wait[i] as f64,
        };
        let normalized = (delay / t_exec_div).min(CONTENTION_CAP);
        snaps.push(ResourceSnapshot {
            id: ResourceId(i as u32),
            rtype: info.rtype,
            contention,
            normalized,
            weight: 0.0,
            wait_ns: wait[i],
            hold_ns: hold[i],
            acquired: acquired[i],
            slow_amount: slow_amount[i],
        });
    }
    // Scalarization weights come from the *capped raw* contention levels
    // (the paper's §3.5 example weights — 0.6 for a 60% eviction ratio,
    // 0.4 for a 40% wait ratio — are the per-resource contention ratios).
    // Weighting by victim-wait volume instead would let a resource with
    // many queued victims (a worker queue behind a stalled heap) drown
    // out the resource the culprit actually monopolizes.
    let total_w: f64 = snaps.iter().map(|r| r.contention.min(WEIGHT_CAP)).sum();
    if total_w > 0.0 {
        for r in &mut snaps {
            r.weight = r.contention.min(WEIGHT_CAP) / total_w;
        }
    }
    snaps
}

/// Normalizes one raw gain by the per-resource maximum: the exact
/// division the index and the batch pass must share, since
/// `raw_a < raw_b` does not imply `raw_a/max < raw_b/max` after rounding.
#[inline]
pub(crate) fn normalize_gain(g: f64, max: f64) -> f64 {
    if max > 0.0 {
        g / max
    } else {
        0.0
    }
}

/// Writes cached [`TaskTerms`] into the published [`TaskGainSnapshot`]
/// `out` (reusing its buffers), normalizing per-resource by the supplied
/// maxima.
pub(crate) fn gain_snapshot(
    task: TaskId,
    terms: &TaskTerms,
    max_future: &[f64],
    max_current: &[f64],
    out: &mut TaskGainSnapshot,
) {
    out.task = task;
    out.key = terms.key;
    out.cancellable = terms.cancellable;
    out.progress = terms.progress;
    out.gains.clear();
    out.gains.extend(
        terms
            .raw_future
            .iter()
            .zip(max_future)
            .map(|(&g, &m)| normalize_gain(g, m)),
    );
    out.current.clear();
    out.current.extend(
        terms
            .raw_current
            .iter()
            .zip(max_current)
            .map(|(&g, &m)| normalize_gain(g, m)),
    );
}

/// Computes contention levels and resource gains from the most recently
/// closed window of every task.
pub fn estimate<'a>(
    tasks: impl Iterator<Item = &'a TaskRecord>,
    resources: &ResourceRegistry,
    cfg: &AtroposConfig,
) -> EstimatorSnapshot {
    let n = resources.len();
    let mut wait = vec![0u64; n];
    let mut hold = vec![0u64; n];
    let mut acquired = vec![0u64; n];
    let mut slow_amount = vec![0u64; n];
    let mut t_exec: u64 = 0;
    let mut raw_tasks: Vec<(TaskId, TaskTerms)> = Vec::new();

    for t in tasks {
        let mut terms = TaskTerms::zero(n);
        derive_task_terms(t, resources, cfg, &mut terms);
        t_exec += terms.window_active_ns;
        for i in 0..n {
            let w = &terms.windows[i];
            wait[i] += w.wait_ns;
            hold[i] += w.hold_ns;
            acquired[i] += w.acquired;
            slow_amount[i] += w.slow_amount;
        }
        if terms.active {
            raw_tasks.push((t.id, terms));
        }
    }

    let snaps =
        resource_snapshots_from_sums(resources, &wait, &hold, &acquired, &slow_amount, t_exec);

    // Normalize gains per resource so units (pages vs ns) are comparable
    // across resources during scalarization.
    let mut max_future = vec![0.0f64; n];
    let mut max_current = vec![0.0f64; n];
    for (_, rt) in &raw_tasks {
        for i in 0..n {
            max_future[i] = max_future[i].max(rt.raw_future[i]);
            max_current[i] = max_current[i].max(rt.raw_current[i]);
        }
    }
    let tasks_out = raw_tasks
        .iter()
        .map(|(id, rt)| {
            let mut out = TaskGainSnapshot::default();
            gain_snapshot(*id, rt, &max_future, &max_current, &mut out);
            out
        })
        .collect();

    EstimatorSnapshot {
        resources: snaps,
        tasks: tasks_out,
        t_exec_ns: t_exec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TaskId;

    fn registry() -> ResourceRegistry {
        let mut r = ResourceRegistry::new();
        r.register("pool", ResourceType::Memory); // id 0
        r.register("lock", ResourceType::Lock); // id 1
        r.register("queue", ResourceType::Queue); // id 2
        r
    }

    fn cfg() -> AtroposConfig {
        AtroposConfig::default()
    }

    fn task(id: u64, n: usize) -> TaskRecord {
        TaskRecord::new(TaskId(id), TaskKey(id), n)
    }

    #[test]
    fn memory_contention_is_eviction_ratio() {
        let reg = registry();
        let mut t = task(1, 3);
        // 100 pages acquired, 20 evictions.
        t.usage[0].on_get(10, 100);
        for k in 0..20 {
            t.usage[0].on_slow(20 + k, 1);
            t.usage[0].on_get(21 + k, 0);
        }
        t.on_unit_start(0);
        t.roll_window(1000);
        let tasks = [t];
        let s = estimate(tasks.iter(), &reg, &cfg());
        assert!((s.resources[0].contention - 0.2).abs() < 1e-9);
    }

    #[test]
    fn lock_contention_is_wait_over_hold() {
        let reg = registry();
        let mut holder = task(1, 3);
        holder.usage[1].on_get(0, 1); // holds the lock the whole window
        let mut waiter = task(2, 3);
        waiter.usage[1].on_slow(0, 1); // waits the whole window
        holder.on_unit_start(0);
        waiter.on_unit_start(0);
        holder.roll_window(1000);
        waiter.roll_window(1000);
        let tasks = [holder, waiter];
        let s = estimate(tasks.iter(), &reg, &cfg());
        assert!((s.resources[1].contention - 1.0).abs() < 1e-9);
        assert_eq!(s.resources[1].wait_ns, 1000);
        assert_eq!(s.resources[1].hold_ns, 1000);
    }

    #[test]
    fn idle_resources_have_zero_contention() {
        let reg = registry();
        let mut t = task(1, 3);
        t.on_unit_start(0);
        t.roll_window(1000);
        let tasks = [t];
        let s = estimate(tasks.iter(), &reg, &cfg());
        for r in &s.resources {
            assert_eq!(r.contention, 0.0);
            assert_eq!(r.weight, 0.0);
        }
        assert!(s.bottlenecked(0.01).is_empty());
    }

    #[test]
    fn weights_sum_to_one_over_contended_resources() {
        let reg = registry();
        let mut a = task(1, 3);
        a.usage[0].on_get(0, 10);
        a.usage[0].on_slow(10, 5);
        a.usage[0].on_get(20, 0);
        a.usage[1].on_get(0, 1);
        let mut b = task(2, 3);
        b.usage[1].on_slow(0, 1);
        a.on_unit_start(0);
        b.on_unit_start(0);
        a.roll_window(1000);
        b.roll_window(1000);
        let tasks = [a, b];
        let s = estimate(tasks.iter(), &reg, &cfg());
        let total: f64 = s.resources.iter().map(|r| r.weight).sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn future_gain_prefers_early_task_over_finished_one() {
        let reg = registry();
        // Query A: 90% done, holds 300 pages. Query B: 10% done, 200 pages.
        let mut a = task(1, 3);
        a.usage[0].on_get(0, 300);
        a.progress.report(90, 100);
        let mut b = task(2, 3);
        b.usage[0].on_get(0, 200);
        b.progress.report(10, 100);
        a.roll_window(1000);
        b.roll_window(1000);
        let tasks = [a, b];
        let s = estimate(tasks.iter(), &reg, &cfg());
        let ga = s.tasks.iter().find(|t| t.task == TaskId(1)).unwrap();
        let gb = s.tasks.iter().find(|t| t.task == TaskId(2)).unwrap();
        // Future-scaled: B dominates. Current usage: A dominates.
        assert!(gb.gains[0] > ga.gains[0]);
        assert!(ga.current[0] > gb.current[0]);
        assert_eq!(gb.gains[0], 1.0); // normalized per-resource max
    }

    #[test]
    fn bottlenecked_sorts_by_normalized_contention() {
        let reg = registry();
        let mut a = task(1, 3);
        // Lock: waits dominate.
        a.usage[1].on_slow(0, 1);
        // Queue: small wait.
        a.usage[2].on_slow(900, 1);
        a.on_unit_start(0);
        a.roll_window(1000);
        let tasks = [a];
        let s = estimate(tasks.iter(), &reg, &cfg());
        let hot = s.bottlenecked(0.0001);
        assert_eq!(hot.first(), Some(&ResourceId(1)));
        assert!(hot.contains(&ResourceId(2)));
    }

    #[test]
    fn tasks_with_no_activity_are_omitted() {
        let reg = registry();
        let idle = task(1, 3);
        let tasks = [idle];
        let s = estimate(tasks.iter(), &reg, &cfg());
        assert!(s.tasks.is_empty());
    }

    #[test]
    fn blocked_victims_have_discounted_gains() {
        // Two tasks hold the queue slot for the full window; one is
        // blocked on the lock the whole time (a victim), the other runs.
        let reg = registry();
        let mut culprit = task(1, 3);
        culprit.usage[2].on_get(0, 1); // holds the queue slot, running
        culprit.usage[1].on_get(0, 1); // and the lock
        let mut victim = task(2, 3);
        victim.usage[2].on_get(0, 1); // holds a queue slot…
        victim.usage[1].on_slow(0, 1); // …but is blocked on the lock
        culprit.on_unit_start(0);
        victim.on_unit_start(0);
        culprit.roll_window(1000);
        victim.roll_window(1000);
        let tasks = [culprit, victim];
        let s = estimate(tasks.iter(), &reg, &cfg());
        let g_culprit = s.tasks.iter().find(|t| t.task == TaskId(1)).unwrap();
        let g_victim = s.tasks.iter().find(|t| t.task == TaskId(2)).unwrap();
        assert!(
            g_culprit.gains[2] > 0.9,
            "culprit queue gain {:?}",
            g_culprit.gains
        );
        assert_eq!(g_victim.gains[2], 0.0, "victim gains {:?}", g_victim.gains);
    }

    #[test]
    fn eviction_stalls_do_not_discount_the_evictor() {
        // Memory stalls are the evictor's own productive work (§6.2 of
        // DESIGN.md): a dump mid-eviction keeps its full gains.
        let reg = registry();
        let mut dump = task(1, 3);
        dump.usage[0].on_get(0, 500);
        dump.usage[0].on_slow(10, 100); // evicting for the whole window
        dump.on_unit_start(0);
        dump.roll_window(1000);
        let tasks = [dump];
        let s = estimate(tasks.iter(), &reg, &cfg());
        let g = &s.tasks[0];
        assert!(g.gains[0] > 0.9, "evictor memory gain {:?}", g.gains);
    }

    #[test]
    fn weights_are_capped_raw_contention_shares() {
        let reg = registry();
        // Lock: extreme wait/use ratio (caps at 20); memory: ratio 1.
        let mut holder = task(1, 3);
        holder.usage[1].on_get(999, 1);
        holder.usage[1].on_free(1000, 1); // held 1 ns
        holder.usage[0].on_get(0, 100);
        for k in 0..100u64 {
            holder.usage[0].on_slow(k, 1);
            holder.usage[0].on_get(k, 0);
        }
        let mut waiter = task(2, 3);
        waiter.usage[1].on_slow(0, 1); // waits the whole window
        holder.on_unit_start(0);
        waiter.on_unit_start(0);
        holder.roll_window(1000);
        waiter.roll_window(1000);
        let tasks = [holder, waiter];
        let s = estimate(tasks.iter(), &reg, &cfg());
        // Lock raw contention is enormous but its weight share is capped
        // at 20/(20 + 1): the memory resource keeps a voice.
        assert!(s.resources[1].contention > 100.0);
        assert!(
            s.resources[0].weight > 0.04,
            "memory weight {}",
            s.resources[0].weight
        );
        let total: f64 = s.resources.iter().map(|r| r.weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn t_exec_sums_active_time() {
        let reg = registry();
        let mut a = task(1, 3);
        a.on_unit_start(0);
        let mut b = task(2, 3);
        b.on_unit_start(500);
        a.roll_window(1000);
        b.roll_window(1000);
        let tasks = [a, b];
        let s = estimate(tasks.iter(), &reg, &cfg());
        assert_eq!(s.t_exec_ns, 1500);
    }

    #[test]
    fn estimate_is_a_pure_function_of_the_rolled_state() {
        // Factored helpers must reproduce the batch pass exactly.
        let reg = registry();
        let mut a = task(1, 3);
        a.usage[0].on_get(0, 300);
        a.usage[1].on_get(0, 1);
        a.progress.report(30, 100);
        let mut b = task(2, 3);
        b.usage[1].on_slow(0, 1);
        a.on_unit_start(0);
        b.on_unit_start(0);
        a.roll_window(1000);
        b.roll_window(1000);
        let tasks = [a, b];
        let s1 = estimate(tasks.iter(), &reg, &cfg());
        let s2 = estimate(tasks.iter(), &reg, &cfg());
        assert_eq!(s1, s2);
    }
}
