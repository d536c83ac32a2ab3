//! Ingest: the tracing hot path (Figure 6b) and the performance signal.
//!
//! Everything here feeds accounting state *into* the runtime — resource
//! registration, get/free/slow_by trace events (buffered in the lock-free
//! rings, replayed at drain points), GetNext progress, and the unit
//! lifecycle that drives the detector. Nothing in this module makes
//! decisions; that is `decide.rs`.

use super::{AtroposRuntime, Inner};
use crate::ids::{ResourceId, ResourceType, TaskId};
use crate::lockfree::LockFreeIngest;
use crate::trace::{EventKind, PushOutcome};

impl Inner {
    /// Applies one stamped tracing call to the accounting state.
    fn apply_stamped(
        &mut self,
        task: TaskId,
        rid: ResourceId,
        amount: u64,
        kind: EventKind,
        stamp: u64,
    ) {
        if self.resources.get(rid).is_none() {
            self.stats.ignored_events += 1;
            return;
        }
        let Some(t) = self.touch(task) else {
            self.stats.ignored_events += 1;
            return;
        };
        let u = &mut t.usage[rid.index()];
        match kind {
            EventKind::Get => u.on_get(stamp, amount),
            EventKind::Free => u.on_free(stamp, amount),
            EventKind::SlowBy => u.on_slow(stamp, amount),
        }
        self.stats.trace_events += 1;
    }

    /// Replays every buffered tracing call and folds overflow-shed
    /// records into the ignored count.
    ///
    /// The drain is epoch-based: advance the epoch, snapshot every
    /// queue's claim cursor, and harvest exactly the records claimed
    /// before the boundary. Producers appending mid-drain land in the
    /// next epoch, so one drain is bounded work; a claimed-but-unpublished
    /// cell stops its queue's harvest early (the drainer never spins on a
    /// preempted producer) and those records also carry over.
    /// Single-threaded, the boundary always covers everything.
    ///
    /// Queues are replayed one after another with no global merge or
    /// sort. That is still equivalent to emit-order replay: a task maps
    /// to one queue for its whole life, so each task's events apply in
    /// emit order; the accounting state is task-local and the stats
    /// counters commute; the resource registry and task map cannot change
    /// mid-drain (both are mutated only under the `inner` lock we hold);
    /// and [`crate::trace::BatchStamper`] assigns every record the same
    /// stamp a sequential emit-order replay would (closed form over the
    /// time-monotone emission sequence).
    pub(super) fn drain_ingest(&mut self, ingest: &LockFreeIngest) {
        self.stats.ignored_events += ingest.take_overflow_dropped();
        let boundary = ingest.begin_epoch();
        let mut stamper = self.ts.begin_batch();
        let mut scratch = std::mem::take(&mut self.scratch);
        for i in 0..ingest.queue_count() {
            ingest.harvest(i, &boundary, &mut scratch);
            for rec in scratch.drain(..) {
                let stamp = stamper.stamp(rec.now);
                self.apply_stamped(rec.task, rec.rid, rec.amount, rec.kind, stamp);
            }
        }
        self.scratch = scratch;
        self.ts.commit_batch(stamper);
    }
}

impl AtroposRuntime {
    // ---- integration API (Figure 6a): resource registration ----

    /// Registers an application resource for tracking.
    pub fn register_resource(&self, name: impl Into<String>, rtype: ResourceType) -> ResourceId {
        // Drain first: events emitted before this call must resolve
        // against the registry as it was when they were emitted.
        let mut inner = self.lock_drained();
        let inner = &mut *inner;
        // The index is about to start over: an estimate still owed from
        // it has to be built now.
        inner.materialize_estimate();
        let id = inner.resources.register(name, rtype);
        inner
            .tasks
            .grow_resources(inner.resources.len(), &mut inner.policy_index);
        id
    }

    // ---- tracing API (Figure 6b) ----

    fn trace(&self, task: TaskId, rid: ResourceId, amount: u64, kind: EventKind) {
        let now = self.clock.now_ns();
        // The hot path is a shard-local bounded append: a lock-free ring
        // claim + publish.
        if let PushOutcome::Full(rec) = self.ingest.push(task, rid, amount, kind, now) {
            // The ring filled mid-window. Flush every ring if the
            // runtime state is free (it always is under the
            // single-threaded simulator, keeping replay lossless there);
            // if another thread holds it — e.g. a concurrent tick, which
            // is itself draining — shed the record rather than block the
            // request path.
            match self.inner.try_lock() {
                Some(mut inner) => {
                    inner.stats.mid_window_flushes += 1;
                    inner.drain_ingest(&self.ingest);
                    self.ingest.force_push(rec);
                }
                None => self.ingest.force_push(rec),
            }
        }
    }

    /// Records that `task` acquired `amount` units of resource `rid`
    /// (`getResource`).
    pub fn get_resource(&self, task: TaskId, rid: ResourceId, amount: u64) {
        self.trace(task, rid, amount, EventKind::Get);
    }

    /// Records that `task` released `amount` units (`freeResource`).
    pub fn free_resource(&self, task: TaskId, rid: ResourceId, amount: u64) {
        self.trace(task, rid, amount, EventKind::Free);
    }

    /// Records that `task` is delayed by the resource (`slowByResource`):
    /// it began waiting for a lock/queue slot or caused `amount` evictions.
    pub fn slow_by_resource(&self, task: TaskId, rid: ResourceId, amount: u64) {
        self.trace(task, rid, amount, EventKind::SlowBy);
    }

    /// Reports GetNext progress for a task: `done` of `total` work units.
    pub fn report_progress(&self, task: TaskId, done: u64, total: u64) {
        // Progress feeds the future-gain multiplier: the touch gets the
        // cached terms re-derived though no usage window moved.
        if let Some(t) = self.inner.lock().touch(task) {
            t.progress.report(done, total);
        }
    }

    // ---- performance signal ----

    /// Marks the start of a work unit (one request) on this task.
    pub fn unit_started(&self, task: TaskId) {
        let now = self.clock.now_ns();
        if let Some(t) = self.inner.lock().touch(task) {
            t.on_unit_start(now);
        }
    }

    /// Marks the completion of the open work unit; feeds the detector.
    /// Returns the measured latency if a unit was open.
    pub fn unit_finished(&self, task: TaskId) -> Option<u64> {
        let now = self.clock.now_ns();
        let mut inner = self.inner.lock();
        let latency = inner.touch(task)?.on_unit_finish(now)?;
        inner.detector.record_completion(now, latency);
        inner.stats.completions += 1;
        Some(latency)
    }

    /// Records an externally dropped request so the detector's series stays
    /// complete.
    pub fn record_drop(&self) {
        let now = self.clock.now_ns();
        self.inner.lock().detector.record_drop(now);
    }
}

/// The sequential reference the buffered path is proven against (see the
/// `runtime` tests): every event takes the state lock, is stamped by the
/// sequential [`TimestampPolicy::stamp`](crate::trace::TimestampPolicy::stamp)
/// recurrence and applied before the call returns. It touches neither the
/// rings nor the batch stamper, so it shares no batching state with
/// the production `trace`.
#[cfg(test)]
impl AtroposRuntime {
    pub(super) fn trace_sequential(
        &self,
        task: TaskId,
        rid: ResourceId,
        amount: u64,
        kind: EventKind,
    ) {
        let now = self.clock.now_ns();
        let mut inner = self.inner.lock();
        let stamp = inner.ts.stamp(now);
        inner.apply_stamped(task, rid, amount, kind, stamp);
    }
}
