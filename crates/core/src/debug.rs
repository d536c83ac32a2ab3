//! Runtime introspection for invariant checkers.
//!
//! [`AtroposRuntime::debug_snapshot`] exposes a consistent point-in-time
//! view of the runtime's internal state — per-task resource accounting,
//! detector counters, and cancel-manager bookkeeping — that the chaos
//! harness (`atropos-chaos`) asserts invariants over after every tick:
//! resource-unit conservation, no negative holds, cancel decisions only
//! targeting live tasks, blame bounded by observed waiting time.
//!
//! The snapshot is deliberately a plain-data copy: taking one drains any
//! buffered trace events first (so counts are exact at the call point) and
//! never hands out references into the locked state, so a checker can hold
//! it across further runtime calls.
//!
//! [`AtroposRuntime::debug_snapshot`]: crate::runtime::AtroposRuntime::debug_snapshot

use crate::cancel::CancelStats;
use crate::ids::{ResourceId, ResourceType, TaskId, TaskKey};
use crate::runtime::RuntimeStats;

/// A consistent copy of the runtime's internals at one instant.
#[derive(Debug, Clone)]
pub struct DebugSnapshot {
    /// Clock reading when the snapshot was taken (ns).
    pub now_ns: u64,
    /// Registered resources, ordered by [`ResourceId`].
    pub resources: Vec<ResourceDebug>,
    /// Live (registered) tasks, ordered by [`TaskId`].
    pub tasks: Vec<TaskDebug>,
    /// Detector counters.
    pub detector: DetectorDebug,
    /// Cancel-manager bookkeeping.
    pub cancel: CancelDebug,
    /// Aggregate runtime counters (exact: buffered events are drained
    /// before the snapshot is built).
    pub stats: RuntimeStats,
}

impl DebugSnapshot {
    /// The live task registered under `key`, if any.
    pub fn task_by_key(&self, key: TaskKey) -> Option<&TaskDebug> {
        self.tasks.iter().find(|t| t.key == key)
    }
}

/// One registered resource.
#[derive(Debug, Clone)]
pub struct ResourceDebug {
    /// Dense identifier.
    pub id: ResourceId,
    /// Registered name.
    pub name: String,
    /// Contention model.
    pub rtype: ResourceType,
}

/// One live task and its accounting state.
#[derive(Debug, Clone)]
pub struct TaskDebug {
    /// Framework-assigned id.
    pub id: TaskId,
    /// Application-visible key.
    pub key: TaskKey,
    /// True once the cancel initiator was invoked for this task.
    pub cancel_requested: bool,
    /// Whether the policy may select this task.
    pub cancellable: bool,
    /// Background (no-SLO) task.
    pub background: bool,
    /// Reported GetNext progress fraction, if any.
    pub progress: Option<f64>,
    /// Cumulative per-resource usage, indexed by [`ResourceId::index`].
    pub usage: Vec<UsageDebug>,
}

/// Cumulative usage counters for one `(task, resource)` pair.
#[derive(Debug, Clone, Copy, Default)]
pub struct UsageDebug {
    /// Units acquired over the task's lifetime.
    pub acquired: u64,
    /// Units freed over the task's lifetime.
    pub freed: u64,
    /// Units currently held.
    pub held: u64,
    /// `slow_by` events observed.
    pub slow_events: u64,
    /// Cumulative `slow_by` amount.
    pub slow_amount: u64,
    /// Cumulative closed waiting time (ns).
    pub total_wait_ns: u64,
    /// Cumulative closed holding time (ns).
    pub total_hold_ns: u64,
}

/// Detector counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct DetectorDebug {
    /// `evaluate` calls (one per tick).
    pub evaluations: u64,
    /// Evaluations that reported a candidate overload.
    pub candidates: u64,
}

/// Cancel-manager bookkeeping.
#[derive(Debug, Clone)]
pub struct CancelDebug {
    /// Every key canceled so far with the runtime-clock time the
    /// initiator was invoked, in issue order (propagated child keys carry
    /// time 0).
    pub canceled_keys: Vec<(TaskKey, u64)>,
    /// Canceled tasks parked awaiting re-execution.
    pub pending_reexec: usize,
    /// The serialized re-execution currently in flight, if any.
    pub outstanding_reexec: Option<TaskKey>,
    /// Cancellation counters.
    pub stats: CancelStats,
}
