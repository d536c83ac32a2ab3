//! Cancellable tasks (§3.1) and the task registry.
//!
//! A *cancellable task* is the unit of work Atropos may cancel: a user
//! connection, a single request, or a background job (purge, vacuum, WAL
//! writer) — the developer chooses the aggregation when calling
//! `create_cancel`. The registry ([`TaskTable`]) attributes resource usage,
//! progress, and execution activity to each task, and keeps the **visit
//! set**: the tasks a tick has to look at.

use crate::accounting::UsageStats;
use crate::config::AtroposConfig;
use crate::ids::{IdMap, ResourceType, TaskId, TaskKey};
use crate::policy::PolicyIndex;
use crate::progress::ProgressTracker;
use crate::resource::ResourceRegistry;

/// Lifecycle state of a cancellable task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Registered and (potentially) executing work.
    Running,
    /// The cancel initiator was invoked; awaiting the application's
    /// acknowledgement (usually `free_cancel` during rollback).
    CancelRequested,
}

/// Per-task record maintained by the runtime manager.
#[derive(Debug)]
pub struct TaskRecord {
    /// Framework-assigned id.
    pub id: TaskId,
    /// Application-visible key (passed to the cancel initiator).
    pub key: TaskKey,
    /// Lifecycle state.
    pub state: TaskState,
    /// Whether the policy may select this task (paper §3.5: only tasks
    /// registered as cancellable are considered; re-executed tasks are
    /// marked non-cancellable for fairness, §4).
    pub cancellable: bool,
    /// Background tasks have no SLO; their canceled work is re-executed
    /// after a maximum wait instead of being dropped.
    pub background: bool,
    /// Per-resource usage, indexed by `ResourceId::index()`.
    pub usage: Vec<UsageStats>,
    /// GetNext progress state.
    pub progress: ProgressTracker,
    /// Completed work units (requests) attributed to this task.
    pub units_completed: u64,
    /// Cumulative active (executing) time, ns.
    pub total_active_ns: u64,
    /// Child tasks spawned on behalf of this task (the distributed
    /// extension of §4: a root request fanning out to sub-tasks).
    /// Canceling the root propagates to all descendants.
    pub children: Vec<TaskId>,
    unit_since: Option<u64>,
    w_active_ns: u64,
    last_window_active_ns: u64,
    /// Position in the owning [`TaskTable`]'s visit set, [`PARKED`] when
    /// the task is not in it.
    visit: u32,
}

/// [`TaskRecord::visit`] of a task outside the visit set.
const PARKED: u32 = u32::MAX;

impl TaskRecord {
    /// Creates a record with usage slots for `n_resources` resources.
    pub fn new(id: TaskId, key: TaskKey, n_resources: usize) -> Self {
        Self {
            id,
            key,
            state: TaskState::Running,
            cancellable: true,
            background: false,
            usage: (0..n_resources).map(|_| UsageStats::default()).collect(),
            progress: ProgressTracker::default(),
            units_completed: 0,
            total_active_ns: 0,
            children: Vec::new(),
            unit_since: None,
            w_active_ns: 0,
            last_window_active_ns: 0,
            visit: PARKED,
        }
    }

    /// Ensures the usage vector covers `n_resources` (resources may be
    /// registered after some tasks exist).
    pub fn ensure_resources(&mut self, n_resources: usize) {
        while self.usage.len() < n_resources {
            self.usage.push(UsageStats::default());
        }
    }

    /// Marks the start of a work unit (e.g. one query on this connection).
    ///
    /// Starting a unit while one is open restarts the measurement (the
    /// previous unit is charged up to `now` and abandoned without counting
    /// as a completion).
    pub fn on_unit_start(&mut self, now: u64) {
        if let Some(since) = self.unit_since {
            let d = now.saturating_sub(since);
            self.total_active_ns += d;
            self.w_active_ns += d;
        }
        self.unit_since = Some(now);
    }

    /// Marks the end of the open work unit; returns its latency if a unit
    /// was open.
    pub fn on_unit_finish(&mut self, now: u64) -> Option<u64> {
        let since = self.unit_since.take()?;
        let d = now.saturating_sub(since);
        self.total_active_ns += d;
        self.w_active_ns += d;
        self.units_completed += 1;
        Some(d)
    }

    /// True if a work unit is currently executing.
    pub fn is_active(&self) -> bool {
        self.unit_since.is_some()
    }

    /// Closes the window at `now`: charges and renews the open unit,
    /// publishes window-local active time, and rolls every usage stat.
    pub fn roll_window(&mut self, now: u64) {
        if let Some(since) = self.unit_since {
            let d = now.saturating_sub(since);
            self.total_active_ns += d;
            self.w_active_ns += d;
            self.unit_since = Some(now);
        }
        self.last_window_active_ns = self.w_active_ns;
        self.w_active_ns = 0;
        for u in &mut self.usage {
            u.roll_window(now);
        }
    }

    /// Active execution time in the most recently closed window.
    pub fn window_active_ns(&self) -> u64 {
        self.last_window_active_ns
    }

    /// True if, left alone, every later roll publishes the window the last
    /// one did, but for the hold time on pinned MEMORY units: no open
    /// unit, no active time, and every usage
    /// [steady](UsageStats::window_steady). Such a task's policy terms are
    /// constant, so it can leave the visit set.
    fn steady(&self, resources: &ResourceRegistry) -> bool {
        self.unit_since.is_none()
            && self.last_window_active_ns == 0
            && self
                .usage
                .iter()
                .zip(resources.iter())
                .all(|(u, r)| u.window_steady(r.rtype == ResourceType::Memory))
    }

    /// Charges the rolls this task sat out while parked; see
    /// [`UsageStats::catch_up_hold`].
    fn catch_up(&mut self, last_roll: u64, last_delta: u64) {
        for u in &mut self.usage {
            u.catch_up_hold(last_roll, last_delta);
        }
    }

    /// Puts this parked task back at the end of `visit`, caught up.
    fn rejoin(&mut self, visit: &mut Vec<TaskId>, last_roll: u64, last_delta: u64) {
        self.catch_up(last_roll, last_delta);
        self.visit = visit.len() as u32;
        visit.push(self.id);
    }
}

/// The task registry and its **visit set**.
///
/// A task is in the visit set iff something touched it since the last
/// roll — a trace event, a unit start/finish, a progress report, a
/// cancellability flip, its creation — or it carries something whose
/// per-window contribution is not constant: an open unit, an open wait,
/// a held LOCK/QUEUE/SYSTEM unit (their gain is hold *time*), or a last
/// window that still shows activity. Every other task is *parked*: a tick
/// neither rolls nor re-derives it. Its terms in the [`PolicyIndex`] are
/// constant; the one figure that still moves, `hold_ns` on the MEMORY
/// units it pins, grows by the same `Δ = now − last roll` for every
/// parked holder, so the index adds `Δ × holders` in closed form and the
/// record's own `total_hold_ns` is caught up when the task is next
/// touched or introspected.
///
/// Membership is intrusive (the record knows its position), so joining is
/// a flag test plus a push, and parking or retiring a swap-remove: a
/// task created and retired between two ticks costs neither anything.
#[derive(Debug)]
pub struct TaskTable {
    map: IdMap<TaskId, TaskRecord>,
    visit: Vec<TaskId>,
    /// When the last [`TaskTable::roll`] closed its window, and how long
    /// after the roll before: what a parked holder is caught up with.
    last_roll_ns: u64,
    last_delta_ns: u64,
}

impl TaskTable {
    /// An empty table whose first window opens at `origin_ns`.
    pub fn new(origin_ns: u64) -> Self {
        TaskTable {
            map: IdMap::default(),
            visit: Vec::new(),
            last_roll_ns: origin_ns,
            last_delta_ns: 0,
        }
    }

    /// Registered tasks, visited and parked.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no task is registered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Tasks the next tick will look at.
    pub fn visited(&self) -> usize {
        self.visit.len()
    }

    /// When the last roll closed its window (ns).
    pub fn last_roll_ns(&self) -> u64 {
        self.last_roll_ns
    }

    /// Read access to one record. A parked task's open holds read as of
    /// the roll that parked it until [`TaskTable::catch_up_parked`].
    pub fn get(&self, id: TaskId) -> Option<&TaskRecord> {
        self.map.get(&id)
    }

    /// Every record, in no particular order: O(registered), for
    /// introspection and the reference estimator only.
    pub fn iter(&self) -> impl Iterator<Item = &TaskRecord> {
        self.map.values()
    }

    /// Registers a task; it starts in the visit set.
    #[inline]
    pub fn insert(&mut self, rec: TaskRecord) {
        let visit = self.visit.len() as u32;
        self.visit.push(rec.id);
        self.map.insert(rec.id, TaskRecord { visit, ..rec });
    }

    /// Mutable access to a record about to change, putting it (back) in
    /// the visit set: a parked task is first caught up with the rolls it
    /// sat out, and `index` stops counting it as a parked holder.
    #[inline]
    pub fn touch(&mut self, id: TaskId, index: &mut PolicyIndex) -> Option<&mut TaskRecord> {
        let t = self.map.get_mut(&id)?;
        if t.visit == PARKED {
            t.rejoin(&mut self.visit, self.last_roll_ns, self.last_delta_ns);
            index.unpark(id);
        }
        Some(t)
    }

    /// Retires a task, unwinding whatever `index` cached for it, and
    /// returns its key.
    #[inline]
    pub fn remove(&mut self, id: TaskId, index: &mut PolicyIndex) -> Option<TaskKey> {
        let rec = self.map.remove(&id)?;
        if rec.visit == PARKED {
            index.unpark(id);
        } else {
            self.leave(rec.visit as usize);
        }
        index.remove_task(id);
        Some(rec.key)
    }

    /// Swap-removes position `pos` of the visit set.
    fn leave(&mut self, pos: usize) {
        self.visit.swap_remove(pos);
        if let Some(moved) = self.visit.get(pos) {
            self.map
                .get_mut(moved)
                .expect("visit set names a live task")
                .visit = pos as u32;
        }
    }

    /// A resource was registered: every usage vector grows to `n` slots
    /// and every cached term vector changes length, so `index` starts
    /// over and every task is visited by the next tick. O(registered).
    pub fn grow_resources(&mut self, n: usize, index: &mut PolicyIndex) {
        for t in self.map.values_mut() {
            t.ensure_resources(n);
            if t.visit == PARKED {
                t.rejoin(&mut self.visit, self.last_roll_ns, self.last_delta_ns);
            }
        }
        index.reset(n);
    }

    /// Catches every parked task up with the rolls it sat out, so the
    /// records read exactly as if every tick had rolled them all.
    /// O(registered): for `debug_snapshot` and the reference estimator.
    pub fn catch_up_parked(&mut self) {
        for t in self.map.values_mut().filter(|t| t.visit == PARKED) {
            t.catch_up(self.last_roll_ns, self.last_delta_ns);
        }
    }

    /// Closes the window at `now` on the visit set and returns how many
    /// tasks have a unit in flight (an open unit keeps a task visited, so
    /// the count is exact). `now` must not precede the last roll.
    pub fn roll(&mut self, now: u64) -> u64 {
        let mut in_flight = 0;
        for id in &self.visit {
            let t = self.map.get_mut(id).expect("visit set names a live task");
            t.roll_window(now);
            in_flight += u64::from(t.is_active());
        }
        self.last_delta_ns = now.saturating_sub(self.last_roll_ns);
        self.last_roll_ns = now;
        in_flight
    }

    /// After a roll: parks every visited task that has become
    /// [steady](TaskRecord::steady), bringing its terms in `index` up to
    /// date first; with `decide` (a candidate tick is about to read the
    /// index) brings every visited task's terms up to date and
    /// [settles](PolicyIndex::settle) the index. Tasks that stay visited
    /// on an idle tick are left stale: nothing reads them before the next
    /// candidate tick re-derives them.
    pub fn refresh(
        &mut self,
        index: &mut PolicyIndex,
        resources: &ResourceRegistry,
        cfg: &AtroposConfig,
        decide: bool,
    ) {
        let mut pos = 0;
        while let Some(&id) = self.visit.get(pos) {
            let t = self.map.get_mut(&id).expect("visit set names a live task");
            let park = t.steady(resources);
            if decide || park {
                index.update_task(t, resources, cfg);
            }
            if park {
                // The closed form charges every parked holder Δ from this
                // very window on, so what it published must already be Δ.
                debug_assert!(t
                    .usage
                    .iter()
                    .all(|u| { u.held == 0 || u.window().hold_ns == self.last_delta_ns }));
                t.visit = PARKED;
                index.park(id);
                self.leave(pos);
            } else {
                pos += 1;
            }
        }
        if decide {
            index.settle(resources, self.last_delta_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> TaskRecord {
        TaskRecord::new(TaskId(1), TaskKey(42), 2)
    }

    #[test]
    fn new_task_is_running_and_cancellable() {
        let t = rec();
        assert_eq!(t.state, TaskState::Running);
        assert!(t.cancellable);
        assert!(!t.background);
        assert_eq!(t.usage.len(), 2);
    }

    #[test]
    fn unit_latency_is_measured() {
        let mut t = rec();
        t.on_unit_start(100);
        assert!(t.is_active());
        assert_eq!(t.on_unit_finish(350), Some(250));
        assert!(!t.is_active());
        assert_eq!(t.units_completed, 1);
        assert_eq!(t.total_active_ns, 250);
    }

    #[test]
    fn finish_without_start_is_none() {
        let mut t = rec();
        assert_eq!(t.on_unit_finish(10), None);
        assert_eq!(t.units_completed, 0);
    }

    #[test]
    fn restarting_a_unit_charges_but_does_not_complete() {
        let mut t = rec();
        t.on_unit_start(0);
        t.on_unit_start(100); // restart
        assert_eq!(t.total_active_ns, 100);
        assert_eq!(t.units_completed, 0);
        assert_eq!(t.on_unit_finish(150), Some(50));
    }

    #[test]
    fn active_time_renews_across_windows() {
        let mut t = rec();
        t.on_unit_start(0);
        t.roll_window(100);
        assert_eq!(t.window_active_ns(), 100);
        t.roll_window(250);
        assert_eq!(t.window_active_ns(), 150);
        t.on_unit_finish(300);
        t.roll_window(400);
        assert_eq!(t.window_active_ns(), 50);
        assert_eq!(t.total_active_ns, 300);
    }

    #[test]
    fn ensure_resources_grows_only() {
        let mut t = rec();
        t.ensure_resources(5);
        assert_eq!(t.usage.len(), 5);
        t.ensure_resources(3);
        assert_eq!(t.usage.len(), 5);
    }

    #[test]
    fn roll_window_rolls_usage_too() {
        let mut t = rec();
        t.usage[0].on_get(10, 3);
        t.roll_window(50);
        assert_eq!(t.usage[0].window().acquired, 3);
    }

    fn table() -> (TaskTable, PolicyIndex, ResourceRegistry, AtroposConfig) {
        let mut reg = ResourceRegistry::new();
        reg.register("pool", ResourceType::Memory); // id 0
        reg.register("lock", ResourceType::Lock); // id 1
        let mut index = PolicyIndex::new();
        index.reset(reg.len());
        (TaskTable::new(0), index, reg, AtroposConfig::default())
    }

    #[test]
    fn memory_holder_parks_after_two_rolls_and_is_caught_up_when_touched() {
        let (mut tasks, mut index, reg, cfg) = table();
        tasks.insert(rec());
        tasks.touch(TaskId(1), &mut index).unwrap().usage[0].on_get(10, 3);
        tasks.roll(100);
        tasks.refresh(&mut index, &reg, &cfg, false);
        assert_eq!(tasks.visited(), 1, "the acquire is still in the window");
        tasks.roll(200);
        tasks.refresh(&mut index, &reg, &cfg, false);
        assert_eq!(tasks.visited(), 0, "only the pinned pages are left");
        // Parked through three rolls of different lengths.
        for now in [350, 350, 420] {
            assert_eq!(tasks.roll(now), 0);
            tasks.refresh(&mut index, &reg, &cfg, false);
        }
        assert_eq!(tasks.get(TaskId(1)).unwrap().usage[0].total_hold_ns, 190);
        let t = tasks.touch(TaskId(1), &mut index).unwrap();
        assert_eq!(t.usage[0].total_hold_ns, 410);
        assert_eq!(t.usage[0].window().hold_ns, 70);
        assert_eq!(tasks.visited(), 1);
    }

    #[test]
    fn lock_holders_open_waits_and_open_units_stay_visited() {
        let (mut tasks, mut index, reg, cfg) = table();
        for id in 1..=3 {
            tasks.insert(TaskRecord::new(TaskId(id), TaskKey(id), 2));
        }
        tasks.touch(TaskId(1), &mut index).unwrap().usage[1].on_get(10, 1);
        tasks.touch(TaskId(2), &mut index).unwrap().usage[1].on_slow(10, 1);
        tasks
            .touch(TaskId(3), &mut index)
            .unwrap()
            .on_unit_start(10);
        for now in [100, 200, 300] {
            assert_eq!(tasks.roll(now), 1);
            tasks.refresh(&mut index, &reg, &cfg, false);
            assert_eq!(tasks.visited(), 3);
        }
    }

    #[test]
    fn retiring_keeps_positions_consistent_visited_or_parked() {
        let (mut tasks, mut index, reg, cfg) = table();
        for id in 1..=4 {
            tasks.insert(TaskRecord::new(TaskId(id), TaskKey(id), 2));
            tasks
                .touch(TaskId(id), &mut index)
                .unwrap()
                .on_unit_start(0);
        }
        // Retire from the middle: the last task takes the hole.
        assert!(tasks.remove(TaskId(2), &mut index).is_some());
        assert_eq!(tasks.roll(100), 3);
        tasks
            .touch(TaskId(4), &mut index)
            .unwrap()
            .on_unit_finish(150);
        tasks.roll(200);
        tasks.refresh(&mut index, &reg, &cfg, false);
        tasks.roll(300);
        tasks.refresh(&mut index, &reg, &cfg, false);
        assert_eq!(tasks.visited(), 2, "task 4 parked");
        assert!(tasks.remove(TaskId(4), &mut index).is_some()); // parked
        assert!(tasks.remove(TaskId(1), &mut index).is_some()); // visited
        assert_eq!((tasks.len(), tasks.visited()), (1, 1));
        assert_eq!(tasks.roll(400), 1);
        assert!(tasks.remove(TaskId(9), &mut index).is_none());
    }
}
