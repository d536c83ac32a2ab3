//! Incremental, indexed evaluation of Algorithm 1.
//!
//! The batch [`estimate`](crate::estimator::estimate) rebuilds an
//! [`EstimatorSnapshot`] from every task: O(n·R) derivation work even
//! when almost nothing changed since the last decision. `PolicyIndex` caches each task's
//! derived [`TaskTerms`] in a slot and maintains, incrementally:
//!
//! - the **global window sums** (wait/hold/acquired/slow-amount per
//!   resource, plus `T_exec`) by subtracting a slot's old window and
//!   adding the new one, so the per-resource contention snapshot is a
//!   pure O(R) function of the sums;
//! - **postings lists** — per resource, the set of slots with a positive
//!   raw gain (future or current) on it — so selection scans only tasks
//!   that can matter to a contended resource, not the population;
//! - **per-resource gain maxima** (for gain normalization) with lazy
//!   invalidation: a max is recomputed from the resource's postings list
//!   only when its argmax slot shrank or was removed.
//!
//! The refresh protocol leans on task-side quiescence: `decide` rolls
//! every task's window each tick, and a task whose roll published an
//! all-zero window with nothing open reports
//! [`window_quiescent`](crate::task::TaskRecord::window_quiescent). Such
//! a task's derived terms cannot have changed, so `refresh` re-derives a
//! slot only when the task is non-quiescent, the slot has not yet cached
//! the all-zero fixpoint (`settled`), or out-of-band state changed
//! (progress reports and cancellability flips are marked dirty; task
//! removal and resource registration have their own hooks). The common
//! steady-state cost per tick is O(busy tasks · R), not O(n·R).
//!
//! Selection reuses the skyline arguments (see
//! [`skyline`](super::skyline)): candidates are the union of postings
//! lists over positive-weight resources — any task scoring > 0 has a
//! positive raw gain on a positive-weight resource, so no winner is ever
//! pruned — scored with the shared [`weighted_score`] term order and
//! normalized with the shared division, which keeps results bit-identical
//! to the naive oracle.

use std::collections::{HashMap, HashSet};

use super::{dominates, Selection};
use crate::config::{AtroposConfig, PolicyKind};
use crate::estimator::{
    derive_task_terms, gain_snapshot, normalize_gain, resource_snapshots_from_sums,
    EstimatorSnapshot, ResourceSnapshot, TaskGainSnapshot, TaskTerms,
};
use crate::ids::{TaskId, TaskKey};
use crate::record::{GainTerm, MAX_GAIN_TERMS};
use crate::resource::ResourceRegistry;
use crate::task::TaskRecord;

/// One task's cached state.
#[derive(Debug)]
struct Slot {
    task: TaskId,
    terms: TaskTerms,
    /// True when `terms` is the all-zero fixpoint of a quiescent task:
    /// together with [`TaskRecord::window_quiescent`] this licenses
    /// skipping the slot at refresh. A quiescent task whose cache still
    /// holds its last non-zero window needs exactly one more derivation
    /// to settle.
    settled: bool,
}

/// Running maximum over one resource's raw gains, with lazy invalidation.
///
/// Invariant: when `valid`, `(val, slot)` is the exact maximum and its
/// argmax; when invalid, `val` is an upper bound (the argmax slot shrank
/// or left). Invalid entries are recomputed from the postings list at the
/// end of every refresh, so reads between refreshes are exact.
#[derive(Debug, Clone, Copy)]
struct MaxTrack {
    val: f64,
    slot: u32,
    valid: bool,
}

impl Default for MaxTrack {
    fn default() -> Self {
        MaxTrack {
            val: 0.0,
            slot: u32::MAX,
            valid: true,
        }
    }
}

impl MaxTrack {
    fn update(&mut self, slot: u32, v: f64) {
        if v >= self.val {
            // At least every other slot's value (≤ the old max/upper
            // bound), so exact again.
            self.val = v;
            self.slot = slot;
            self.valid = true;
        } else if slot == self.slot {
            // The argmax shrank: `val` degrades to an upper bound.
            self.valid = false;
        }
    }

    fn note_removed(&mut self, slot: u32) {
        if slot == self.slot {
            self.valid = false;
        }
    }
}

/// Incrementally maintained policy-evaluation state; see the module docs.
#[derive(Debug, Default)]
pub struct PolicyIndex {
    /// Registered resource count this index was built for.
    n: usize,
    slots: Vec<Option<Slot>>,
    free: Vec<u32>,
    by_task: HashMap<TaskId, u32>,
    /// Per resource: slots with a positive raw gain (future or current).
    postings: Vec<HashSet<u32>>,
    max_future: Vec<MaxTrack>,
    max_current: Vec<MaxTrack>,
    // Global window sums across all slots (including inactive tasks,
    // which can still publish e.g. a freed-this-window hold interval).
    wait: Vec<u64>,
    hold: Vec<u64>,
    acquired: Vec<u64>,
    slow: Vec<u64>,
    t_exec: u64,
    /// Cached per-resource contention snapshot, rebuilt (O(R)) at the end
    /// of every refresh.
    resources: Vec<ResourceSnapshot>,
    /// Tasks whose non-window state (progress, cancellability) changed
    /// since the last refresh.
    dirty: HashSet<TaskId>,
    /// Force a full rebuild at the next refresh (initial state, or the
    /// resource set changed under us).
    stale: bool,
    /// Buffers the next derivation writes into; see `update_task`.
    spare: TaskTerms,
}

impl PolicyIndex {
    /// An empty index; the first [`PolicyIndex::refresh`] performs a full
    /// build.
    pub fn new() -> Self {
        PolicyIndex {
            stale: true,
            ..Default::default()
        }
    }

    /// Marks one task's out-of-band state (progress, cancellability) as
    /// changed, forcing re-derivation at the next refresh.
    pub fn mark_dirty(&mut self, task: TaskId) {
        self.dirty.insert(task);
    }

    /// Removes a task's slot, unwinding its contribution to the global
    /// sums and postings. No-op for unknown tasks.
    pub fn remove_task(&mut self, task: TaskId) {
        self.dirty.remove(&task);
        let Some(slot) = self.by_task.remove(&task) else {
            return;
        };
        let old = self.slots[slot as usize].take().expect("live slot");
        self.free.push(slot);
        self.t_exec -= old.terms.window_active_ns;
        for i in 0..self.n {
            let w = &old.terms.windows[i];
            self.wait[i] -= w.wait_ns;
            self.hold[i] -= w.hold_ns;
            self.acquired[i] -= w.acquired;
            self.slow[i] -= w.slow_amount;
            if old.terms.raw_future[i] > 0.0 || old.terms.raw_current[i] > 0.0 {
                self.postings[i].remove(&slot);
            }
            self.max_future[i].note_removed(slot);
            self.max_current[i].note_removed(slot);
        }
    }

    /// Marks the whole index stale (e.g. a resource was registered, which
    /// changes every per-task vector length); the next refresh rebuilds.
    pub fn invalidate_all(&mut self) {
        self.stale = true;
    }

    /// Brings the index up to date with the task registry. Must be called
    /// after the tick's window rolls and before
    /// [`select`](PolicyIndex::select) /
    /// [`materialize`](PolicyIndex::materialize) /
    /// [`gain_terms`](PolicyIndex::gain_terms); those read cached state
    /// and are only exact immediately after a refresh.
    pub fn refresh(
        &mut self,
        tasks: &HashMap<TaskId, TaskRecord>,
        resources: &ResourceRegistry,
        cfg: &AtroposConfig,
    ) {
        if self.stale || resources.len() != self.n {
            self.rebuild(tasks, resources, cfg);
            return;
        }
        for (id, t) in tasks {
            let slot = self.by_task.get(id).copied();
            let needs = match slot {
                None => true,
                Some(s) => {
                    !t.window_quiescent()
                        || !self.slots[s as usize].as_ref().expect("live slot").settled
                        || self.dirty.contains(id)
                }
            };
            if needs {
                self.update_task(*id, slot, t, resources, cfg);
            }
        }
        self.dirty.clear();
        debug_assert_eq!(
            self.by_task.len(),
            tasks.len(),
            "slot for a removed task survived (missing remove_task hook?)"
        );
        self.fix_max_tracks();
        self.resources = resource_snapshots_from_sums(
            resources,
            &self.wait,
            &self.hold,
            &self.acquired,
            &self.slow,
            self.t_exec,
        );
    }

    fn rebuild(
        &mut self,
        tasks: &HashMap<TaskId, TaskRecord>,
        resources: &ResourceRegistry,
        cfg: &AtroposConfig,
    ) {
        self.n = resources.len();
        self.slots.clear();
        self.free.clear();
        self.by_task.clear();
        self.dirty.clear();
        self.postings = vec![HashSet::new(); self.n];
        self.max_future = vec![MaxTrack::default(); self.n];
        self.max_current = vec![MaxTrack::default(); self.n];
        self.wait = vec![0; self.n];
        self.hold = vec![0; self.n];
        self.acquired = vec![0; self.n];
        self.slow = vec![0; self.n];
        self.t_exec = 0;
        for (id, t) in tasks {
            self.update_task(*id, None, t, resources, cfg);
        }
        self.stale = false;
        self.fix_max_tracks();
        self.resources = resource_snapshots_from_sums(
            resources,
            &self.wait,
            &self.hold,
            &self.acquired,
            &self.slow,
            self.t_exec,
        );
    }

    fn alloc_slot(&mut self, id: TaskId) -> usize {
        let slot = match self.free.pop() {
            Some(s) => {
                debug_assert!(self.slots[s as usize].is_none());
                self.slots[s as usize] = Some(Slot {
                    task: id,
                    terms: TaskTerms::zero(self.n),
                    settled: true,
                });
                s as usize
            }
            None => {
                self.slots.push(Some(Slot {
                    task: id,
                    terms: TaskTerms::zero(self.n),
                    settled: true,
                }));
                self.slots.len() - 1
            }
        };
        self.by_task.insert(id, slot as u32);
        slot
    }

    /// Re-derives one task's terms and folds the delta into the global
    /// sums, postings lists and max tracks. `slot` is the task's existing
    /// slot, `None` for a task the index has not seen.
    fn update_task(
        &mut self,
        id: TaskId,
        slot: Option<u32>,
        t: &TaskRecord,
        resources: &ResourceRegistry,
        cfg: &AtroposConfig,
    ) {
        // Derive into the spare buffers, then swap them with the slot's:
        // `spare` holds the old terms for the delta fold below and is
        // overwritten by the next derivation, so a refresh allocates only
        // for tasks it has not seen before.
        derive_task_terms(t, resources, cfg, &mut self.spare);
        let slot = match slot {
            Some(s) => s as usize,
            None => self.alloc_slot(id),
        };
        let su = slot as u32;
        let slot_ref = self.slots[slot].as_mut().expect("live slot");
        std::mem::swap(&mut slot_ref.terms, &mut self.spare);
        slot_ref.settled = slot_ref.terms.is_zero();
        let (old, new) = (&self.spare, &slot_ref.terms);
        self.t_exec = self.t_exec - old.window_active_ns + new.window_active_ns;
        for i in 0..self.n {
            let ow = &old.windows[i];
            let nw = &new.windows[i];
            self.wait[i] = self.wait[i] - ow.wait_ns + nw.wait_ns;
            self.hold[i] = self.hold[i] - ow.hold_ns + nw.hold_ns;
            self.acquired[i] = self.acquired[i] - ow.acquired + nw.acquired;
            self.slow[i] = self.slow[i] - ow.slow_amount + nw.slow_amount;
            let was = old.raw_future[i] > 0.0 || old.raw_current[i] > 0.0;
            let is = new.raw_future[i] > 0.0 || new.raw_current[i] > 0.0;
            if was && !is {
                self.postings[i].remove(&su);
            } else if is && !was {
                self.postings[i].insert(su);
            }
            self.max_future[i].update(su, new.raw_future[i]);
            self.max_current[i].update(su, new.raw_current[i]);
        }
    }

    /// Recomputes invalidated maxima from the postings lists (every slot
    /// with a positive raw gain is posted, so the postings max is the
    /// global max; absent entries contribute the 0.0 floor, matching the
    /// batch estimator's `max(0.0, ...)` fold).
    fn fix_max_tracks(&mut self) {
        for i in 0..self.n {
            if !self.max_future[i].valid {
                let mut best = MaxTrack::default();
                for &s in &self.postings[i] {
                    let v = self.slots[s as usize]
                        .as_ref()
                        .expect("posted slot")
                        .terms
                        .raw_future[i];
                    if v > best.val {
                        best.val = v;
                        best.slot = s;
                    }
                }
                self.max_future[i] = best;
            }
            if !self.max_current[i].valid {
                let mut best = MaxTrack::default();
                for &s in &self.postings[i] {
                    let v = self.slots[s as usize]
                        .as_ref()
                        .expect("posted slot")
                        .terms
                        .raw_current[i];
                    if v > best.val {
                        best.val = v;
                        best.slot = s;
                    }
                }
                self.max_current[i] = best;
            }
        }
    }

    /// Evaluates the configured policy from the index. Bit-identical to
    /// building an [`EstimatorSnapshot`] and running the corresponding
    /// [`CancellationPolicy::select_naive`](super::CancellationPolicy::select_naive).
    pub fn select(&self, kind: PolicyKind) -> Option<Selection> {
        match kind {
            PolicyKind::MultiObjective => self.select_scalarized(true),
            PolicyKind::CurrentUsage => self.select_scalarized(false),
            PolicyKind::Heuristic => self.select_heuristic(),
        }
    }

    fn raw<'a>(&self, slot: &'a Slot, future: bool) -> &'a [f64] {
        if future {
            &slot.terms.raw_future
        } else {
            &slot.terms.raw_current
        }
    }

    fn max_val(&self, i: usize, future: bool) -> f64 {
        if future {
            self.max_future[i].val
        } else {
            self.max_current[i].val
        }
    }

    /// The shared scalarized score, computed straight from cached raw
    /// terms: same per-resource order, same `weight × (raw / max)`
    /// arithmetic as [`weighted_score`](super::weighted_score) over a
    /// materialized snapshot.
    fn score_slot(&self, slot: &Slot, future: bool) -> f64 {
        let raw = self.raw(slot, future);
        let mut score = 0.0;
        for r in &self.resources {
            let i = r.id.index();
            score += r.weight * normalize_gain(raw[i], self.max_val(i, future));
        }
        score
    }

    fn normalized(&self, slot: &Slot, future: bool) -> Vec<f64> {
        let raw = self.raw(slot, future);
        (0..self.n)
            .map(|i| normalize_gain(raw[i], self.max_val(i, future)))
            .collect()
    }

    /// Algorithm 1 via the postings lists: candidates are the union over
    /// positive-weight resources (a task scoring > 0 must have a positive
    /// raw gain on a positive-weight resource, and zero-score tasks can
    /// neither win nor dominate a positive-score task), then the skyline
    /// max-score tie-group dominance check.
    fn select_scalarized(&self, future: bool) -> Option<Selection> {
        let mut seen: HashSet<u32> = HashSet::new();
        let mut max = f64::NEG_INFINITY;
        let mut group: Vec<u32> = Vec::new();
        for r in &self.resources {
            if r.weight <= 0.0 {
                continue;
            }
            for &s in &self.postings[r.id.index()] {
                if !seen.insert(s) {
                    continue;
                }
                let slot = self.slots[s as usize].as_ref().expect("posted slot");
                if !slot.terms.cancellable {
                    continue;
                }
                let score = self.score_slot(slot, future);
                if score > max {
                    max = score;
                    group.clear();
                    group.push(s);
                } else if score == max {
                    group.push(s);
                }
            }
        }
        if max <= 0.0 {
            return None;
        }
        group.sort_by_key(|&s| self.slots[s as usize].as_ref().expect("live slot").task);
        let gains: Vec<Vec<f64>> = group
            .iter()
            .map(|&s| self.normalized(self.slots[s as usize].as_ref().expect("live slot"), future))
            .collect();
        let pos = (0..group.len())
            .find(|&gi| !(0..group.len()).any(|gj| gj != gi && dominates(&gains[gj], &gains[gi])))
            // A finite group always has a dominance-maximal element.
            .unwrap_or(0);
        let slot = self.slots[group[pos] as usize].as_ref().expect("live slot");
        Some(Selection {
            task: slot.task,
            key: slot.terms.key,
            score: max,
        })
    }

    /// The §5.4 greedy baseline via the hottest resource's postings list.
    fn select_heuristic(&self) -> Option<Selection> {
        let hottest = self
            .resources
            .iter()
            .filter(|r| r.normalized > 0.0)
            .max_by(|a, b| {
                a.normalized
                    .partial_cmp(&b.normalized)
                    .expect("contention is finite")
            })?;
        let idx = hottest.id.index();
        let maxf = self.max_future[idx].val;
        let mut best: Option<(TaskId, TaskKey, f64)> = None;
        for &s in &self.postings[idx] {
            let slot = self.slots[s as usize].as_ref().expect("posted slot");
            if !slot.terms.cancellable {
                continue;
            }
            let g = normalize_gain(slot.terms.raw_future[idx], maxf);
            let better = match &best {
                None => g > 0.0,
                Some(b) => g > b.2 || (g == b.2 && slot.task < b.0),
            };
            if better {
                best = Some((slot.task, slot.terms.key, g));
            }
        }
        best.map(|(task, key, score)| Selection { task, key, score })
    }

    /// The per-resource score breakdown for `task`, resolved through the
    /// task→slot map in O(R) — no scan of the task population. Matches
    /// [`gain_terms`](super::gain_terms) over a materialized snapshot.
    pub fn gain_terms(&self, task: TaskId) -> [Option<GainTerm>; MAX_GAIN_TERMS] {
        let Some(&s) = self.by_task.get(&task) else {
            return [None; MAX_GAIN_TERMS];
        };
        let slot = self.slots[s as usize].as_ref().expect("live slot");
        if !slot.terms.active {
            // Inactive tasks are omitted from snapshots; the snapshot
            // explainer would find nothing either.
            return [None; MAX_GAIN_TERMS];
        }
        let gains = self.normalized(slot, true);
        super::gain_terms_for(&self.resources, &gains)
    }

    /// Materializes the full [`EstimatorSnapshot`] (tasks in slot order)
    /// for observers — the recorder, `last_estimate`, the chaos checker —
    /// into `out`, overwriting whatever it held and reusing its buffers.
    /// O(active tasks · R).
    pub fn materialize(&self, out: &mut EstimatorSnapshot) {
        let max_future: Vec<f64> = self.max_future.iter().map(|m| m.val).collect();
        let max_current: Vec<f64> = self.max_current.iter().map(|m| m.val).collect();
        out.resources.clone_from(&self.resources);
        out.t_exec_ns = self.t_exec;
        let mut len = 0;
        for slot in self.slots.iter().flatten().filter(|s| s.terms.active) {
            if len == out.tasks.len() {
                out.tasks.push(TaskGainSnapshot::default());
            }
            gain_snapshot(
                slot.task,
                &slot.terms,
                &max_future,
                &max_current,
                &mut out.tasks[len],
            );
            len += 1;
        }
        out.tasks.truncate(len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::estimate;
    use crate::ids::ResourceType;
    use crate::policy::testutil::canon;
    use proptest::prelude::*;

    const KINDS: [PolicyKind; 3] = [
        PolicyKind::MultiObjective,
        PolicyKind::Heuristic,
        PolicyKind::CurrentUsage,
    ];

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

    /// Asserts the index agrees with a fresh batch estimate and that all
    /// three policies' selections are bit-identical to the naive oracle.
    fn assert_matches_naive(
        index: &PolicyIndex,
        tasks: &HashMap<TaskId, TaskRecord>,
        reg: &ResourceRegistry,
        cfg: &AtroposConfig,
    ) {
        let fresh = estimate(tasks.values(), reg, cfg);
        let mut materialized = EstimatorSnapshot::default();
        index.materialize(&mut materialized);
        assert_eq!(canon(materialized), canon(fresh.clone()));
        for kind in KINDS {
            let naive = kind.build().select_naive(&fresh);
            assert_eq!(index.select(kind), naive, "kind {kind:?}");
            if let Some(sel) = naive {
                assert_eq!(
                    index.gain_terms(sel.task),
                    crate::policy::gain_terms(&fresh, sel.task),
                    "gain terms for {:?}",
                    sel.task
                );
            }
        }
    }

    #[test]
    fn fresh_index_matches_batch_estimate() {
        let reg = registry();
        let cfg = cfg();
        let mut tasks: HashMap<TaskId, TaskRecord> = HashMap::new();
        for id in 1..=4u64 {
            let mut t = TaskRecord::new(TaskId(id), TaskKey(id), 0, reg.len());
            t.usage[0].on_get(0, 100 * id);
            t.usage[1].on_slow(0, 1);
            t.on_unit_start(0);
            t.roll_window(1000);
            tasks.insert(TaskId(id), t);
        }
        let mut index = PolicyIndex::new();
        index.refresh(&tasks, &reg, &cfg);
        assert_matches_naive(&index, &tasks, &reg, &cfg);

        // The tick hands `materialize` the previous window's snapshot to
        // overwrite: a stale, larger one must leave nothing behind.
        let mut reused = EstimatorSnapshot::default();
        index.materialize(&mut reused);
        assert_eq!(reused.tasks.len(), 4);
        for id in [1, 2] {
            tasks.remove(&TaskId(id));
            index.remove_task(TaskId(id));
        }
        for t in tasks.values_mut() {
            t.roll_window(2000);
        }
        index.refresh(&tasks, &reg, &cfg);
        index.materialize(&mut reused);
        assert_eq!(canon(reused), canon(estimate(tasks.values(), &reg, &cfg)));
    }

    #[test]
    fn incremental_refresh_tracks_mutation_add_and_remove() {
        let reg = registry();
        let cfg = cfg();
        let mut tasks: HashMap<TaskId, TaskRecord> = HashMap::new();
        for id in 1..=3u64 {
            let mut t = TaskRecord::new(TaskId(id), TaskKey(id), 0, reg.len());
            t.usage[1].on_get(0, 1);
            t.usage[1].on_free(10 * id, 1);
            t.roll_window(1000);
            tasks.insert(TaskId(id), t);
        }
        let mut index = PolicyIndex::new();
        index.refresh(&tasks, &reg, &cfg);
        assert_matches_naive(&index, &tasks, &reg, &cfg);

        // Window 2: task 2 gets busy again, task 4 appears, task 3 leaves.
        for t in tasks.values_mut() {
            if t.id == TaskId(2) {
                t.usage[0].on_get(1500, 50);
                t.note_usage_mutation();
            }
        }
        let mut t4 = TaskRecord::new(TaskId(4), TaskKey(4), 1500, reg.len());
        t4.usage[2].on_slow(1500, 1);
        tasks.insert(TaskId(4), t4);
        tasks.remove(&TaskId(3));
        index.remove_task(TaskId(3));
        for t in tasks.values_mut() {
            t.roll_window(2000);
        }
        index.refresh(&tasks, &reg, &cfg);
        assert_matches_naive(&index, &tasks, &reg, &cfg);

        // Window 3: everyone goes idle; cached windows must settle to the
        // all-zero fixpoint, not linger at their last non-zero values.
        for t in tasks.values_mut() {
            if t.id == TaskId(4) {
                t.usage[2].on_get(2500, 1);
                t.usage[2].on_free(2600, 1);
                t.note_usage_mutation();
            }
        }
        for t in tasks.values_mut() {
            t.roll_window(3000);
        }
        index.refresh(&tasks, &reg, &cfg);
        assert_matches_naive(&index, &tasks, &reg, &cfg);
        for t in tasks.values_mut() {
            t.roll_window(4000);
        }
        index.refresh(&tasks, &reg, &cfg);
        assert_matches_naive(&index, &tasks, &reg, &cfg);
    }

    #[test]
    fn dirty_marks_pick_up_out_of_band_changes() {
        let reg = registry();
        let cfg = cfg();
        let mut tasks: HashMap<TaskId, TaskRecord> = HashMap::new();
        for id in 1..=2u64 {
            let mut t = TaskRecord::new(TaskId(id), TaskKey(id), 0, reg.len());
            t.usage[0].on_get(0, 100);
            t.roll_window(1000);
            t.roll_window(2000); // quiescent + settled... except held pages
            tasks.insert(TaskId(id), t);
        }
        let mut index = PolicyIndex::new();
        index.refresh(&tasks, &reg, &cfg);
        assert_matches_naive(&index, &tasks, &reg, &cfg);

        // Progress report and cancellability flip do not touch windows;
        // without dirty marks the cache would go stale.
        tasks.get_mut(&TaskId(1)).unwrap().progress.report(10, 100);
        index.mark_dirty(TaskId(1));
        tasks.get_mut(&TaskId(2)).unwrap().cancellable = false;
        index.mark_dirty(TaskId(2));
        for t in tasks.values_mut() {
            t.roll_window(3000);
        }
        index.refresh(&tasks, &reg, &cfg);
        assert_matches_naive(&index, &tasks, &reg, &cfg);
    }

    #[test]
    fn resource_registration_invalidates_the_index() {
        let mut reg = registry();
        let cfg = cfg();
        let mut tasks: HashMap<TaskId, TaskRecord> = HashMap::new();
        let mut t = TaskRecord::new(TaskId(1), TaskKey(1), 0, reg.len());
        t.usage[1].on_get(0, 1);
        t.roll_window(1000);
        tasks.insert(TaskId(1), t);
        let mut index = PolicyIndex::new();
        index.refresh(&tasks, &reg, &cfg);
        assert_matches_naive(&index, &tasks, &reg, &cfg);

        let rid = reg.register("disk", ResourceType::System);
        for t in tasks.values_mut() {
            t.ensure_resources(reg.len());
        }
        index.invalidate_all();
        tasks.get_mut(&TaskId(1)).unwrap().usage[rid.index()].on_slow(1500, 1);
        tasks.get_mut(&TaskId(1)).unwrap().note_usage_mutation();
        for t in tasks.values_mut() {
            t.roll_window(2000);
        }
        index.refresh(&tasks, &reg, &cfg);
        assert_matches_naive(&index, &tasks, &reg, &cfg);
    }

    /// One step of the random delta stream the incremental-vs-rebuild
    /// property drives, mirroring the runtime's hook points exactly.
    #[derive(Debug, Clone)]
    enum Op {
        Create(u64),
        Remove(u64),
        Get(u64, usize, u64),
        Free(u64, usize, u64),
        Slow(u64, usize, u64),
        UnitStart(u64),
        UnitFinish(u64),
        Progress(u64, u64),
        SetCancellable(u64, bool),
        RegisterResource,
        /// Roll all windows and refresh (a tick boundary) — the only
        /// point where index state is compared against a fresh build.
        Tick,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let id = 0u64..8;
        let res = 0usize..4;
        prop_oneof![
            (0u64..8).prop_map(Op::Create),
            (0u64..8).prop_map(Op::Remove),
            (id.clone(), res.clone(), 1u64..100).prop_map(|(t, r, a)| Op::Get(t, r, a)),
            (0u64..8, res.clone(), 1u64..100).prop_map(|(t, r, a)| Op::Free(t, r, a)),
            (0u64..8, res, 1u64..20).prop_map(|(t, r, a)| Op::Slow(t, r, a)),
            (0u64..8).prop_map(Op::UnitStart),
            (0u64..8).prop_map(Op::UnitFinish),
            (0u64..8, 0u64..120).prop_map(|(t, p)| Op::Progress(t, p)),
            (0u64..8, any::<bool>()).prop_map(|(t, c)| Op::SetCancellable(t, c)),
            Just(Op::RegisterResource),
            Just(Op::Tick),
            Just(Op::Tick),
            Just(Op::Tick),
        ]
    }

    proptest! {
        /// Incremental-vs-rebuild property: after any delta stream, the
        /// index's materialized snapshot equals a fresh batch estimate
        /// and every policy's indexed selection is bit-identical to the
        /// naive oracle on that fresh snapshot.
        #[test]
        fn delta_stream_matches_fresh_build(
            ops in prop::collection::vec(op_strategy(), 0..120),
        ) {
            let mut reg = ResourceRegistry::new();
            reg.register("pool", ResourceType::Memory);
            reg.register("lock", ResourceType::Lock);
            let cfg = cfg();
            let mut tasks: HashMap<TaskId, TaskRecord> = HashMap::new();
            let mut index = PolicyIndex::new();
            let mut now = 0u64;
            for op in ops {
                now += 7;
                match op {
                    Op::Create(id) => {
                        let id = TaskId(id);
                        tasks
                            .entry(id)
                            .or_insert_with(|| TaskRecord::new(id, TaskKey(id.0), now, reg.len()));
                    }
                    Op::Remove(id) => {
                        if tasks.remove(&TaskId(id)).is_some() {
                            index.remove_task(TaskId(id));
                        }
                    }
                    Op::Get(id, r, a) => {
                        if let Some(t) = tasks.get_mut(&TaskId(id)) {
                            if r < t.usage.len() {
                                t.usage[r].on_get(now, a);
                                t.note_usage_mutation();
                            }
                        }
                    }
                    Op::Free(id, r, a) => {
                        if let Some(t) = tasks.get_mut(&TaskId(id)) {
                            if r < t.usage.len() {
                                t.usage[r].on_free(now, a);
                                t.note_usage_mutation();
                            }
                        }
                    }
                    Op::Slow(id, r, a) => {
                        if let Some(t) = tasks.get_mut(&TaskId(id)) {
                            if r < t.usage.len() {
                                t.usage[r].on_slow(now, a);
                                t.note_usage_mutation();
                            }
                        }
                    }
                    Op::UnitStart(id) => {
                        if let Some(t) = tasks.get_mut(&TaskId(id)) {
                            t.on_unit_start(now);
                        }
                    }
                    Op::UnitFinish(id) => {
                        if let Some(t) = tasks.get_mut(&TaskId(id)) {
                            t.on_unit_finish(now);
                        }
                    }
                    Op::Progress(id, p) => {
                        if let Some(t) = tasks.get_mut(&TaskId(id)) {
                            t.progress.report(p, 100);
                            index.mark_dirty(TaskId(id));
                        }
                    }
                    Op::SetCancellable(id, c) => {
                        if let Some(t) = tasks.get_mut(&TaskId(id)) {
                            t.cancellable = c;
                            index.mark_dirty(TaskId(id));
                        }
                    }
                    Op::RegisterResource => {
                        if reg.len() < 4 {
                            reg.register("extra", ResourceType::Queue);
                            for t in tasks.values_mut() {
                                t.ensure_resources(reg.len());
                            }
                            index.invalidate_all();
                        }
                    }
                    Op::Tick => {
                        for t in tasks.values_mut() {
                            t.roll_window(now);
                        }
                        index.refresh(&tasks, &reg, &cfg);
                        assert_matches_naive(&index, &tasks, &reg, &cfg);
                    }
                }
            }
            // Final tick so every stream ends with a comparison.
            now += 7;
            for t in tasks.values_mut() {
                t.roll_window(now);
            }
            index.refresh(&tasks, &reg, &cfg);
            assert_matches_naive(&index, &tasks, &reg, &cfg);
        }
    }
}
