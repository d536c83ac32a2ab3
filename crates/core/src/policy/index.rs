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
//! Which slots are re-derived is not the index's decision: the
//! [`TaskTable`](crate::task::TaskTable) owns the one membership notion,
//! its visit set, and drives the index through
//! [`update_task`](PolicyIndex::update_task) (a visited task's window
//! moved), [`park`](PolicyIndex::park) / [`unpark`](PolicyIndex::unpark)
//! (a task left / rejoined the visit set),
//! [`remove_task`](PolicyIndex::remove_task) and
//! [`reset`](PolicyIndex::reset). A parked task's terms are constant but
//! for `hold_ns` on the MEMORY units it pins, which grows by the tick's
//! `Δ` for every parked holder alike; the index keeps **parked-holder
//! counts** per resource and [`settle`](PolicyIndex::settle) adds
//! `Δ × holders` to the hold sum in closed form. Per-tick cost is
//! O(visited · R), not O(n·R).
//!
//! Selection never runs the all-pairs dominance filter of the reference
//! ([`select_naive`](super::select_naive)). Candidates are the union of
//! postings lists over positive-weight resources: any task scoring > 0
//! has a positive raw gain on a positive-weight resource, and gains and
//! weights are non-negative, so if `b` dominates `a` then
//! `score(b) ≥ score(a)` — a zero-score task can neither win nor dominate
//! a positive-score one, and pruning it changes nothing. Two observations
//! then make the filter unnecessary:
//!
//! 1. **The winner is the lowest-id maximum-score candidate that is not
//!    dominated by another maximum-score candidate.** Any dominator of a
//!    max-score candidate is itself max-score, so dominance checks outside
//!    the max-score tie group can never evict a member of it, and the
//!    scalarization maximum over the non-dominated set equals the maximum
//!    over all candidates (a dominance chain in a finite set ends at a
//!    non-dominated element). [`select`](PolicyIndex::select) is one
//!    scoring pass plus a dominance check inside that (normally tiny)
//!    group.
//! 2. **For the full ranking, dominance checks are needed only against
//!    higher-or-equal-score front members.** Walking candidates in score
//!    order (descending, ids ascending within a tie), a candidate is in
//!    the front iff no accepted member of an earlier score group and no
//!    member of its own score group dominates it: a dominator chain is
//!    transitive and ends at a front member scoring at least as high.
//!    [`ranked`](PolicyIndex::ranked) is one sort plus that walk.
//!
//! Scores use the shared [`weighted_score`](super::weighted_score) term
//! order and the shared normalizing division, so results are
//! bit-identical to the reference.

use super::{dominates, Selection};
use crate::config::PolicyKind;
use crate::estimator::{
    derive_task_terms, gain_snapshot, normalize_gain, resource_snapshots_from_sums,
    EstimatorSnapshot, ResourceSnapshot, TaskGainSnapshot, TaskTerms,
};
use crate::ids::{IdMap, IdSet, TaskId, TaskKey};
use crate::record::{GainTerm, MAX_GAIN_TERMS};
use crate::resource::ResourceRegistry;
use crate::task::TaskRecord;

/// One task's cached state.
#[derive(Debug)]
struct Slot {
    task: TaskId,
    terms: TaskTerms,
}

/// Running maximum over one resource's raw gains, with lazy invalidation.
///
/// Invariant: when `valid`, `(val, slot)` is the exact maximum and its
/// argmax; when invalid, `val` is an upper bound (the argmax slot shrank
/// or left). Invalid entries are recomputed from the postings list by
/// `fix_max_tracks` before anything reads a maximum.
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
    by_task: IdMap<TaskId, u32>,
    /// Per resource: slots with a positive raw gain (future or current).
    postings: Vec<IdSet<u32>>,
    max_future: Vec<MaxTrack>,
    max_current: Vec<MaxTrack>,
    // Global window sums across all slots (including inactive tasks,
    // which can still publish e.g. a freed-this-window hold interval).
    // `hold` leaves out what parked slots hold: see `parked_holders`.
    wait: Vec<u64>,
    hold: Vec<u64>,
    acquired: Vec<u64>,
    slow: Vec<u64>,
    t_exec: u64,
    /// Per resource: parked slots with units of it held. Each publishes
    /// `hold_ns = Δ` in every window it sits out, so their share of the
    /// hold sum is `Δ × holders`, added by `settle`; their cached
    /// `hold_ns` is kept at zero.
    parked_holders: Vec<u64>,
    /// Cached per-resource contention snapshot, rebuilt (O(R)) by
    /// `settle`.
    resources: Vec<ResourceSnapshot>,
    /// Buffers the next derivation writes into; see `update_task`.
    spare: TaskTerms,
}

impl PolicyIndex {
    /// An empty index over no resources.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every slot and sizes the index for `n` resources (a resource
    /// was registered, which changes every per-task vector length).
    pub fn reset(&mut self, n: usize) {
        *self = PolicyIndex {
            n,
            postings: vec![IdSet::default(); n],
            max_future: vec![MaxTrack::default(); n],
            max_current: vec![MaxTrack::default(); n],
            wait: vec![0; n],
            hold: vec![0; n],
            acquired: vec![0; n],
            slow: vec![0; n],
            parked_holders: vec![0; n],
            ..Default::default()
        };
    }

    /// Removes a visited task's slot, unwinding its contribution to the
    /// global sums and postings. No-op for tasks the index has not seen.
    pub(crate) fn remove_task(&mut self, task: TaskId) {
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

    /// `task` left the visit set right after
    /// [`update_task`](PolicyIndex::update_task): from the next window on
    /// its holds are summed in closed form.
    pub(crate) fn park(&mut self, task: TaskId) {
        let slot = self.by_task[&task] as usize;
        let terms = &mut self.slots[slot].as_mut().expect("live slot").terms;
        for (i, w) in terms.windows.iter_mut().enumerate() {
            if w.held_at_end > 0 {
                self.hold[i] -= w.hold_ns;
                w.hold_ns = 0;
                self.parked_holders[i] += 1;
            }
        }
    }

    /// `task` rejoined the visit set (or is about to be removed): undoes
    /// [`park`](PolicyIndex::park). Its slot stays at the parked terms
    /// until the next [`update_task`](PolicyIndex::update_task).
    pub(crate) fn unpark(&mut self, task: TaskId) {
        let slot = self.by_task[&task] as usize;
        let terms = &self.slots[slot].as_ref().expect("live slot").terms;
        for (i, w) in terms.windows.iter().enumerate() {
            if w.held_at_end > 0 {
                self.parked_holders[i] -= 1;
            }
        }
    }

    /// Makes the index exact for the window that just closed, `delta` ns
    /// after the one before, given that every visited task went through
    /// [`update_task`](PolicyIndex::update_task) since: recomputes
    /// invalidated maxima and rebuilds the per-resource snapshots from the
    /// sums plus the parked holders' `delta × holders`. Must precede
    /// [`select`](PolicyIndex::select) /
    /// [`gain_terms`](PolicyIndex::gain_terms) /
    /// [`resources`](PolicyIndex::resources).
    pub(crate) fn settle(&mut self, resources: &ResourceRegistry, delta: u64) {
        debug_assert_eq!(resources.len(), self.n, "registered without reset");
        self.fix_max_tracks();
        let hold: Vec<u64> = (0..self.n)
            .map(|i| self.hold[i] + delta * self.parked_holders[i])
            .collect();
        self.resources = resource_snapshots_from_sums(
            resources,
            &self.wait,
            &hold,
            &self.acquired,
            &self.slow,
            self.t_exec,
        );
    }

    /// The per-resource contention figures of the window the index last
    /// settled on (a candidate tick's refresh), indexed by
    /// `ResourceId::index()`.
    pub fn resources(&self) -> &[ResourceSnapshot] {
        &self.resources
    }

    fn alloc_slot(&mut self, id: TaskId) -> usize {
        let slot = match self.free.pop() {
            Some(s) => {
                debug_assert!(self.slots[s as usize].is_none());
                self.slots[s as usize] = Some(Slot {
                    task: id,
                    terms: TaskTerms::zero(self.n),
                });
                s as usize
            }
            None => {
                self.slots.push(Some(Slot {
                    task: id,
                    terms: TaskTerms::zero(self.n),
                }));
                self.slots.len() - 1
            }
        };
        self.by_task.insert(id, slot as u32);
        slot
    }

    /// Re-derives one visited task's terms from the window it just
    /// published and folds the delta into the global sums, postings lists
    /// and max tracks, allocating a slot for a task the index has not
    /// seen.
    pub(crate) fn update_task(&mut self, t: &TaskRecord, resources: &ResourceRegistry) {
        debug_assert_eq!(resources.len(), self.n, "registered without reset");
        // Derive into the spare buffers, then swap them with the slot's:
        // `spare` holds the old terms for the delta fold below and is
        // overwritten by the next derivation, so an update allocates only
        // for tasks it has not seen before.
        derive_task_terms(t, resources, &mut self.spare);
        let slot = match self.by_task.get(&t.id) {
            Some(&s) => s as usize,
            None => self.alloc_slot(t.id),
        };
        let su = slot as u32;
        let slot_ref = self.slots[slot].as_mut().expect("live slot");
        std::mem::swap(&mut slot_ref.terms, &mut self.spare);
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
    /// building an [`EstimatorSnapshot`] and running
    /// [`select_naive`](super::select_naive) over it.
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

    /// Calls `f` once per candidate of the scalarized policies with its
    /// positive score: every cancellable slot in the union of the
    /// positive-weight resources' postings (observation 1 of the module
    /// docs: no other task can score > 0).
    fn for_each_candidate<'a>(&'a self, future: bool, mut f: impl FnMut(&'a Slot, f64)) {
        let mut seen: IdSet<u32> = IdSet::default();
        for r in self.resources.iter().filter(|r| r.weight > 0.0) {
            for &s in &self.postings[r.id.index()] {
                if !seen.insert(s) {
                    continue;
                }
                let slot = self.slots[s as usize].as_ref().expect("posted slot");
                if slot.terms.cancellable {
                    let score = self.score_slot(slot, future);
                    if score > 0.0 {
                        f(slot, score);
                    }
                }
            }
        }
    }

    /// Algorithm 1 via the postings lists: the max-score tie group, then
    /// its lowest-id member no other member dominates.
    fn select_scalarized(&self, future: bool) -> Option<Selection> {
        let mut max = 0.0;
        let mut group: Vec<&Slot> = Vec::new();
        self.for_each_candidate(future, |slot, score| {
            if score > max {
                max = score;
                group.clear();
            }
            if score == max {
                group.push(slot);
            }
        });
        group.sort_by_key(|slot| slot.task);
        let gains: Vec<Vec<f64>> = group.iter().map(|s| self.normalized(s, future)).collect();
        let pos = (0..group.len()).find(|&gi| {
            !(0..group.len()).any(|gj| gj != gi && dominates(&gains[gj], &gains[gi]))
        })?;
        Some(Selection {
            task: group[pos].task,
            key: group[pos].terms.key,
            score: max,
        })
    }

    /// The full non-dominated ranking of the multi-objective policy, best
    /// first, ties toward the lowest task id: the decision trace's
    /// explanation of why the winner won, so its head is
    /// [`select`](PolicyIndex::select)`(MultiObjective)`. Candidates are
    /// sorted by (score desc, task id asc) and walked group by group
    /// (observation 2 of the module docs); each costs a dominance check
    /// against the front so far. Bit-identical to
    /// [`ranked_naive`](super::ranked_naive) over the materialized snapshot.
    pub fn ranked(&self) -> Vec<Selection> {
        let mut cands: Vec<(&Slot, f64)> = Vec::new();
        self.for_each_candidate(true, |slot, score| cands.push((slot, score)));
        // Scores are finite and ids unique: a total order.
        cands.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.task.cmp(&b.0.task))
        });
        let gains: Vec<Vec<f64>> = cands.iter().map(|c| self.normalized(c.0, true)).collect();
        let mut front: Vec<usize> = Vec::new();
        let mut out = Vec::new();
        let mut start = 0;
        while start < cands.len() {
            let score = cands[start].1;
            let end = start + cands[start..].iter().take_while(|c| c.1 == score).count();
            // An equal-score group is one unit: whether a member is
            // accepted must not depend on the order inside the group.
            let prior = front.len();
            for i in start..end {
                let dominated = front[..prior]
                    .iter()
                    .copied()
                    .chain(start..end)
                    .any(|j| j != i && dominates(&gains[j], &gains[i]));
                if !dominated {
                    front.push(i);
                    out.push(Selection {
                        task: cands[i].0.task,
                        key: cands[i].0.terms.key,
                        score,
                    });
                }
            }
            start = end;
        }
        out
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
    /// for `last_estimate()` into `out`, overwriting whatever it held and
    /// reusing its buffers. O(active tasks · R), parked ones included:
    /// `tick()` never calls this. Equal to a fresh [`estimate`](crate::estimator::estimate)
    /// when read right after the index settles; later, the
    /// slots that parking updated since show their newer window.
    pub fn materialize(&mut self, out: &mut EstimatorSnapshot) {
        self.fix_max_tracks();
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
    use std::collections::HashMap;

    use super::*;
    use crate::estimator::estimate;
    use crate::ids::ResourceType;
    use crate::policy::testutil::canon;
    use crate::policy::{gain_terms, ranked_naive, select_naive, weighted_score};
    use crate::task::TaskTable;
    use proptest::prelude::*;

    const KINDS: [PolicyKind; 3] = [
        PolicyKind::MultiObjective,
        PolicyKind::Heuristic,
        PolicyKind::CurrentUsage,
    ];

    /// The production pair — a [`TaskTable`] whose visit set drives a
    /// [`PolicyIndex`] — run in lockstep with the eager reference: a plain
    /// map of records that every tick rolls one and all, read by the batch
    /// `estimate` + `select_naive`. Every mutation goes to both.
    struct Lockstep {
        reg: ResourceRegistry,
        eager: HashMap<TaskId, TaskRecord>,
        tasks: TaskTable,
        index: PolicyIndex,
    }

    impl Lockstep {
        /// pool (MEMORY, id 0), lock (LOCK, id 1), then `extra` QUEUEs.
        fn new(extra: usize) -> Self {
            let mut reg = ResourceRegistry::new();
            reg.register("pool", ResourceType::Memory);
            reg.register("lock", ResourceType::Lock);
            for _ in 0..extra {
                reg.register("queue", ResourceType::Queue);
            }
            let mut index = PolicyIndex::new();
            index.reset(reg.len());
            Lockstep {
                reg,
                eager: HashMap::new(),
                tasks: TaskTable::new(0),
                index,
            }
        }

        fn create(&mut self, id: u64) {
            let id = TaskId(id);
            if !self.eager.contains_key(&id) {
                let rec = || TaskRecord::new(id, TaskKey(id.0), self.reg.len());
                self.eager.insert(id, rec());
                self.tasks.insert(rec());
            }
        }

        fn remove(&mut self, id: u64) {
            let was = self.eager.remove(&TaskId(id)).is_some();
            let removed = self.tasks.remove(TaskId(id), &mut self.index);
            assert_eq!(removed.is_some(), was);
        }

        /// Applies `f` to the task on both sides. The touch is a catch-up
        /// point: whatever the record sat out while parked, it must read
        /// exactly like its eagerly rolled twin before `f` runs.
        fn apply(&mut self, id: u64, f: impl Fn(&mut TaskRecord)) {
            let Some(e) = self.eager.get_mut(&TaskId(id)) else {
                return;
            };
            let t = self.tasks.touch(TaskId(id), &mut self.index).unwrap();
            assert_same_accounting(t, e);
            f(t);
            f(e);
        }

        fn register(&mut self) {
            self.reg.register("extra", ResourceType::Queue);
            for t in self.eager.values_mut() {
                t.ensure_resources(self.reg.len());
            }
            self.tasks.grow_resources(self.reg.len(), &mut self.index);
        }

        fn parked(&self) -> usize {
            self.tasks.len() - self.tasks.visited()
        }

        /// A tick that decides nothing: windows roll, steady tasks park.
        fn idle_tick(&mut self, now: u64) {
            for t in self.eager.values_mut() {
                t.roll_window(now);
            }
            self.tasks.roll(now);
            self.tasks.refresh(&mut self.index, &self.reg, false);
        }

        /// A candidate tick: the settled index must agree with a fresh
        /// batch estimate of the eager records — per-resource sums
        /// (`hold_ns` with its closed-form share) and per-task gains —
        /// and all three policies' selections, the ranking and the gain
        /// terms must be bit-identical to the reference on that estimate,
        /// which is returned.
        fn tick(&mut self, now: u64) -> EstimatorSnapshot {
            for t in self.eager.values_mut() {
                t.roll_window(now);
            }
            self.tasks.roll(now);
            self.tasks.refresh(&mut self.index, &self.reg, true);
            let fresh = estimate(self.eager.values(), &self.reg);
            assert_eq!(self.index.resources(), &fresh.resources[..]);
            let mut materialized = EstimatorSnapshot::default();
            self.index.materialize(&mut materialized);
            assert_eq!(canon(materialized), canon(fresh.clone()));
            let ranked = self.index.ranked();
            assert_eq!(ranked, ranked_naive(&fresh));
            assert_eq!(
                self.index.select(PolicyKind::MultiObjective),
                ranked.first().copied()
            );
            for kind in KINDS {
                let naive = select_naive(kind, &fresh);
                assert_eq!(self.index.select(kind), naive, "kind {kind:?}");
                if let Some(sel) = naive {
                    assert_eq!(
                        self.index.gain_terms(sel.task),
                        gain_terms(&fresh, sel.task),
                        "gain terms for {:?}",
                        sel.task
                    );
                }
            }
            fresh
        }

        /// The multi-objective pick and ranking, as task ids.
        fn decision(&self) -> (Option<u64>, Vec<u64>) {
            let pick = self.index.select(PolicyKind::MultiObjective);
            let ranked = self.index.ranked().iter().map(|s| s.task.0).collect();
            (pick.map(|s| s.task.0), ranked)
        }

        /// The other catch-up point: with every parked record caught up,
        /// each task reads like its eager twin.
        fn assert_records_caught_up(&mut self) {
            self.tasks.catch_up_parked();
            assert_eq!(self.tasks.len(), self.eager.len());
            for t in self.tasks.iter() {
                assert_same_accounting(t, &self.eager[&t.id]);
            }
        }
    }

    /// Full-state equality of two records' accounting (`UsageStats`'
    /// `Debug` prints every field, open intervals and accumulators
    /// included).
    fn assert_same_accounting(a: &TaskRecord, b: &TaskRecord) {
        assert_eq!(format!("{:?}", a.usage), format!("{:?}", b.usage));
        assert_eq!(a.total_active_ns, b.total_active_ns);
        assert_eq!(a.window_active_ns(), b.window_active_ns());
    }

    #[test]
    fn fresh_index_matches_batch_estimate() {
        let mut ls = Lockstep::new(1);
        for id in 1..=4u64 {
            ls.create(id);
            ls.apply(id, |t| {
                t.usage[0].on_get(0, 100 * t.id.0);
                t.usage[1].on_slow(0, 1);
                t.on_unit_start(0);
            });
        }
        ls.tick(1000);

        // The tick hands `materialize` the previous window's snapshot to
        // overwrite: a stale, larger one must leave nothing behind.
        let mut reused = EstimatorSnapshot::default();
        ls.index.materialize(&mut reused);
        assert_eq!(reused.tasks.len(), 4);
        ls.remove(1);
        ls.remove(2);
        ls.tick(2000);
        ls.index.materialize(&mut reused);
        assert_eq!(canon(reused), canon(estimate(ls.eager.values(), &ls.reg)));
    }

    #[test]
    fn updates_track_mutation_add_and_remove() {
        let mut ls = Lockstep::new(1);
        for id in 1..=3u64 {
            ls.create(id);
            ls.apply(id, |t| {
                t.usage[1].on_get(0, 1);
                t.usage[1].on_free(10 * t.id.0, 1);
            });
        }
        ls.tick(1000);

        // Window 2: task 2 gets busy again, task 4 appears, task 3 leaves.
        ls.apply(2, |t| t.usage[0].on_get(1500, 50));
        ls.create(4);
        ls.apply(4, |t| t.usage[2].on_slow(1500, 1));
        ls.remove(3);
        ls.tick(2000);

        // Window 3: everyone goes idle; cached windows must settle to the
        // steady terms, not linger at their last non-zero values.
        ls.apply(4, |t| {
            t.usage[2].on_get(2500, 1);
            t.usage[2].on_free(2600, 1);
        });
        ls.tick(3000);
        ls.tick(4000);
        assert_eq!(ls.parked(), 3);
        ls.tick(5000);
        ls.assert_records_caught_up();
    }

    #[test]
    fn touches_pick_up_out_of_band_changes() {
        let mut ls = Lockstep::new(1);
        for id in 1..=2u64 {
            ls.create(id);
            ls.apply(id, |t| t.usage[0].on_get(0, 100));
        }
        ls.tick(1000);
        ls.tick(2000);
        assert_eq!(ls.parked(), 2);

        // Progress report and cancellability flip do not touch windows;
        // without the touch the parked terms would go stale.
        ls.apply(1, |t| t.progress.report(10, 100));
        ls.apply(2, |t| t.cancellable = false);
        assert_eq!(ls.parked(), 0);
        ls.tick(3000);
        assert_eq!(ls.parked(), 2, "nothing else moved: parked again");
        ls.tick(3500);
    }

    #[test]
    fn resource_registration_starts_the_index_over() {
        let mut ls = Lockstep::new(0);
        ls.create(1);
        ls.apply(1, |t| t.usage[0].on_get(0, 1));
        ls.tick(1000);
        ls.tick(2000);
        assert_eq!(ls.parked(), 1);

        ls.register();
        assert_eq!(ls.parked(), 0, "every task is visited after a registration");
        ls.apply(1, |t| t.usage[2].on_slow(2500, 1));
        ls.tick(3000);
        ls.assert_records_caught_up();
    }

    /// The closed form's hard case: the parked holders' share of the hold
    /// sum is `Δ × holders` with a different Δ every window, while
    /// holders come (park), go (touch, retire) and a LOCK holder that
    /// looks just as idle stays visited.
    #[test]
    fn parked_memory_holders_sum_in_closed_form_over_jittered_windows() {
        let mut ls = Lockstep::new(0);
        for id in 1..=6u64 {
            ls.create(id);
            ls.apply(id, |t| t.usage[0].on_get(5, t.id.0));
        }
        ls.create(7);
        ls.apply(7, |t| t.usage[1].on_get(5, 1));
        ls.tick(100);
        ls.tick(250);
        assert_eq!(ls.parked(), 6, "the LOCK holder must stay visited");
        let mut now = 250;
        for (step, delta) in [70, 0, 1300, 1, 450, 90].into_iter().enumerate() {
            now += delta;
            match step {
                1 => ls.apply(2, |t| t.usage[0].on_get(now - 1, 3)), // touch: unpark
                2 => ls.remove(3),                                   // retire while parked
                4 => ls.apply(4, |t| t.usage[0].on_free(now - 1, 4)), // stops holding
                _ => {}
            }
            ls.tick(now);
            let pool = &ls.index.resources()[0];
            assert_eq!(
                pool.hold_ns,
                ls.eager
                    .values()
                    .map(|t| t.usage[0].window().hold_ns)
                    .sum::<u64>()
            );
        }
        ls.idle_tick(now + 40);
        ls.idle_tick(now + 95);
        assert_eq!(ls.parked(), 5);
        ls.assert_records_caught_up();
    }

    /// Pool (MEMORY) contention from one eviction and a LOCK nobody waits
    /// on: the lock's weight is zero, so a task's lock hold adds nothing
    /// to its score but still counts for dominance. `pages` and `lock_from`
    /// (hold start, of a 1000 ns window) per task id.
    fn pool_and_idle_lock(tasks: &[(u64, u64, Option<u64>)]) -> Lockstep {
        let mut ls = Lockstep::new(0);
        for &(id, pages, lock_from) in tasks {
            ls.create(id);
            ls.apply(id, |t| {
                t.usage[0].on_get(0, pages);
                if let Some(from) = lock_from {
                    t.usage[1].on_get(from, 1);
                }
            });
        }
        ls.create(EVICTOR);
        evict(&mut ls, 0);
        ls.tick(1000);
        ls
    }

    const EVICTOR: u64 = 99;

    /// One eviction in the window starting at `at`, by a task that ends
    /// it holding nothing.
    fn evict(ls: &mut Lockstep, at: u64) {
        ls.apply(EVICTOR, |t| {
            t.usage[0].on_get(at, 1);
            t.usage[0].on_slow(at + 10, 1);
            t.usage[0].on_get(at + 20, 0);
            t.usage[0].on_free(at + 30, 1);
        });
    }

    #[test]
    fn max_score_tie_group_still_checks_dominance() {
        // Tasks 1 and 2 tie on score, but 2 also holds the idle lock and
        // so dominates 1: the bare argmax (lowest id) would pick task 1.
        let ls = pool_and_idle_lock(&[(1, 1, None), (2, 1, Some(0))]);
        assert_eq!(ls.decision(), (Some(2), vec![2]));
    }

    #[test]
    fn same_score_group_members_can_evict_each_other_in_ranking() {
        // 1 and 2 tie on score and 2 dominates 1; 3 scores lower but holds
        // the lock longest, so nothing dominates it.
        let ls = pool_and_idle_lock(&[(1, 2, None), (2, 2, Some(500)), (3, 1, Some(0))]);
        assert_eq!(ls.decision(), (Some(2), vec![2, 3]));
    }

    #[test]
    fn zero_score_and_non_cancellable_tasks_neither_win_nor_dominate() {
        // A gain on the zero-weight lock alone scores zero: no candidate.
        let ls = pool_and_idle_lock(&[(1, 0, Some(0))]);
        assert_eq!(ls.decision(), (None, vec![]));
        // Task 9 dominates task 1 but may not be cancelled, so it is no
        // candidate and must not evict task 1 from the front.
        let mut ls = pool_and_idle_lock(&[(1, 1, None), (9, 2, None)]);
        ls.apply(9, |t| t.cancellable = false);
        evict(&mut ls, 1000);
        ls.tick(2000);
        assert_eq!(ls.decision(), (Some(1), vec![1]));
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
        /// Time passes: tick periods are whatever accumulated.
        Advance(u64),
        /// A candidate tick — the point where index state is compared
        /// against a fresh build.
        Tick,
        /// A tick that decides nothing: windows roll, steady tasks park.
        IdleTick,
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
            (0u64..500).prop_map(Op::Advance),
            Just(Op::Tick),
            Just(Op::Tick),
            Just(Op::Tick),
            Just(Op::IdleTick),
            Just(Op::IdleTick),
            Just(Op::IdleTick),
        ]
    }

    /// The tie-heavy mix: a pool (MEMORY) under eviction pressure where
    /// every task pins 1, 2 or 4 pages — a re-pin releases what it held
    /// and stalls on an eviction before it acquires — plus holds of a lock
    /// nobody waits on (zero weight, so a hold changes dominance but not
    /// the score) and no progress reports (every task keeps the default
    /// multiplier). Equal scores, and dominance inside them, are common.
    fn lattice_step_strategy() -> impl Strategy<Value = Vec<Op>> {
        let id = || 0u64..4;
        let repin = || {
            (id(), 0u32..3).prop_map(|(t, e)| {
                vec![Op::Free(t, 0, 4), Op::Slow(t, 0, 1), Op::Get(t, 0, 1 << e)]
            })
        };
        prop_oneof![
            id().prop_map(|t| vec![Op::Create(t)]),
            id().prop_map(|t| vec![Op::Create(t)]),
            id().prop_map(|t| vec![Op::Remove(t)]),
            repin(),
            repin(),
            repin(),
            repin(),
            id().prop_map(|t| vec![Op::Free(t, 0, 4)]),
            id().prop_map(|t| vec![Op::Get(t, 1, 1)]),
            id().prop_map(|t| vec![Op::Free(t, 1, 1)]),
            (id(), 0u32..4).prop_map(|(t, c)| vec![Op::SetCancellable(t, c > 0)]),
            Just(vec![Op::Tick]),
            Just(vec![Op::Tick]),
            Just(vec![Op::IdleTick]),
        ]
    }

    /// A delta stream: the general mix or the tie-heavy one.
    fn stream_strategy(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Op>> {
        prop_oneof![
            prop::collection::vec(op_strategy(), len.clone()),
            prop::collection::vec(lattice_step_strategy(), len).prop_map(|s| s.concat()),
        ]
    }

    /// Applies one op at `now` (advanced by 7 ns first); a candidate tick
    /// returns the fresh estimate it was checked against.
    fn step(ls: &mut Lockstep, clock: &mut u64, op: Op) -> Option<EstimatorSnapshot> {
        *clock += 7;
        let now = *clock;
        let usage = |r: usize, f: fn(&mut crate::accounting::UsageStats, u64, u64), a: u64| {
            move |t: &mut TaskRecord| {
                if r < t.usage.len() {
                    f(&mut t.usage[r], now, a);
                }
            }
        };
        match op {
            Op::Create(id) => ls.create(id),
            Op::Remove(id) => ls.remove(id),
            Op::Get(id, r, a) => ls.apply(id, usage(r, |u, now, a| u.on_get(now, a), a)),
            Op::Free(id, r, a) => ls.apply(id, usage(r, |u, now, a| u.on_free(now, a), a)),
            Op::Slow(id, r, a) => ls.apply(id, usage(r, |u, now, a| u.on_slow(now, a), a)),
            Op::UnitStart(id) => ls.apply(id, |t| t.on_unit_start(now)),
            Op::UnitFinish(id) => ls.apply(id, |t| {
                t.on_unit_finish(now);
            }),
            Op::Progress(id, p) => ls.apply(id, |t| t.progress.report(p, 100)),
            Op::SetCancellable(id, c) => ls.apply(id, |t| t.cancellable = c),
            Op::RegisterResource => {
                if ls.reg.len() < 4 {
                    ls.register();
                }
            }
            Op::Advance(ns) => *clock += ns,
            Op::Tick => return Some(ls.tick(now)),
            Op::IdleTick => ls.idle_tick(now),
        }
        None
    }

    proptest! {
        /// Incremental-vs-rebuild property: after any delta stream — ticks
        /// at jittered periods, tasks parking between them and being
        /// touched, retired or re-registered while parked — the index's
        /// materialized snapshot equals a fresh batch estimate of the
        /// eagerly rolled records, every policy's indexed selection and
        /// the ranking are bit-identical to the reference on that fresh
        /// snapshot, and every record, once caught up, equals its eager
        /// twin.
        #[test]
        fn delta_stream_matches_fresh_build(ops in stream_strategy(0..300)) {
            let mut ls = Lockstep::new(0);
            let mut now = 0u64;
            for op in ops {
                step(&mut ls, &mut now, op);
            }
            // Final tick so every stream ends with a comparison.
            ls.tick(now + 7);
            ls.assert_records_caught_up();
        }
    }

    /// Whether Algorithm 1's winner on `s` is decided by dominance: the
    /// max-score tie group has two or more members and its lowest id is
    /// dominated by another one, so the bare argmax would be wrong.
    fn dominance_decides(s: &EstimatorSnapshot) -> bool {
        let scored: Vec<(f64, &TaskGainSnapshot)> = s
            .tasks
            .iter()
            .filter(|t| t.cancellable)
            .map(|t| (weighted_score(&s.resources, &t.gains), t))
            .collect();
        let max = scored.iter().map(|c| c.0).fold(0.0, f64::max);
        let mut group: Vec<&TaskGainSnapshot> = scored
            .iter()
            .filter(|c| max > 0.0 && c.0 == max)
            .map(|c| c.1)
            .collect();
        group.sort_by_key(|t| t.task);
        group.len() >= 2
            && group[1..]
                .iter()
                .any(|b| dominates(&b.gains, &group[0].gains))
    }

    /// The equivalence property catches a selection that skips the
    /// dominance check only if its streams reach ticks where dominance
    /// picks the winner among equal scores; the tie-heavy mix must.
    #[test]
    fn delta_streams_reach_ticks_where_dominance_decides() {
        let mut rng = proptest::TestRng::deterministic("index_ties");
        let strategy = stream_strategy(160..161);
        let (mut ticks, mut decided) = (0, 0);
        for _ in 0..128 {
            let mut ls = Lockstep::new(0);
            let mut now = 0u64;
            for op in strategy.sample(&mut rng) {
                if let Some(fresh) = step(&mut ls, &mut now, op) {
                    ticks += 1;
                    decided += usize::from(dominance_decides(&fresh));
                }
            }
        }
        assert!(decided >= 20, "{decided} of {ticks} candidate ticks");
    }

    /// The property is only as strong as the streams it samples: they
    /// must leave tasks parked across ticks, touch and retire parked
    /// tasks, and register a resource while some are parked.
    #[test]
    fn delta_streams_reach_the_parked_states() {
        let mut rng = proptest::TestRng::deterministic("index_coverage");
        let strategy = prop::collection::vec(op_strategy(), 160..161);
        let (mut parked_ticks, mut unparks, mut parked_removes, mut parked_registers) =
            (0, 0, 0, 0);
        for _ in 0..64 {
            let mut ls = Lockstep::new(0);
            let mut now = 0u64;
            for op in strategy.sample(&mut rng) {
                now += 7;
                let (tasks, parked) = (ls.tasks.len(), ls.parked());
                match op {
                    Op::Create(id) => ls.create(id),
                    Op::Remove(id) => ls.remove(id),
                    Op::Get(id, r, a) if r < ls.reg.len() => {
                        ls.apply(id, |t| t.usage[r].on_get(now, a))
                    }
                    Op::Free(id, r, a) if r < ls.reg.len() => {
                        ls.apply(id, |t| t.usage[r].on_free(now, a))
                    }
                    Op::RegisterResource if ls.reg.len() < 4 => {
                        ls.register();
                        parked_registers += usize::from(parked > 0);
                        continue;
                    }
                    Op::Advance(ns) => now += ns,
                    Op::Tick | Op::IdleTick => {
                        ls.idle_tick(now);
                        parked_ticks += usize::from(ls.parked() > 0);
                        continue;
                    }
                    _ => {}
                }
                if ls.tasks.len() < tasks {
                    parked_removes += parked - ls.parked();
                } else {
                    unparks += parked - ls.parked();
                }
            }
        }
        assert!(
            parked_ticks >= 200 && unparks >= 100 && parked_removes >= 20 && parked_registers >= 5,
            "{parked_ticks} parked ticks, {unparks} unparks, {parked_removes} parked removes, \
             {parked_registers} parked registers"
        );
    }
}
