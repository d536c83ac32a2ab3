//! Actuate: the cancellation boundary (Figure 6a minus resource
//! registration).
//!
//! Task scope management (`create_cancel`/`free_cancel`), the initiator /
//! re-execution / drop / regular-overload callbacks an application wires
//! up, task attributes (background, cancellable, child links), recorder
//! attachment, and the operator kill path. These are the runtime's
//! *outputs*: everything that turns a decision into an application-visible
//! signal.

use std::sync::Arc;

use super::AtroposRuntime;
use crate::cancel::CancelDecision;
use crate::ids::{TaskId, TaskKey};
use crate::record::{CancelOrigin, Recorder, RecorderHandle};
use crate::task::{TaskRecord, TaskState};

impl AtroposRuntime {
    /// Marks the beginning of a cancellable task's scope (`createCancel`).
    ///
    /// `key` identifies the task to the *application* (e.g. a thread id);
    /// if `None`, a unique key is generated. A task whose key was canceled
    /// before is registered non-cancellable (re-execution fairness, §4).
    pub fn create_cancel(&self, key: Option<u64>) -> TaskId {
        let mut inner = self.inner.lock();
        let key = match key {
            Some(k) => TaskKey(k),
            None => {
                let k = inner.next_auto_key;
                inner.next_auto_key += 1;
                TaskKey(k)
            }
        };
        let id = TaskId(inner.next_task);
        inner.next_task += 1;
        let n = inner.resources.len();
        let mut rec = TaskRecord::new(id, key, n);
        if inner.cancel.was_canceled(key) {
            rec.cancellable = false;
        }
        inner.tasks.insert(rec);
        id
    }

    /// Ends a cancellable task's scope (`freeCancel`). Unknown ids are
    /// ignored.
    pub fn free_cancel(&self, task: TaskId) {
        // Drain first so the task's buffered events land in its usage
        // accounting (not in `ignored_events`) before the record goes.
        let mut inner = self.lock_drained();
        let inner = &mut *inner;
        if let Some(key) = inner.tasks.remove(task, &mut inner.policy_index) {
            let sink = inner.recorder.clone();
            let handle = RecorderHandle::new(sink.as_deref(), inner.stats.ticks);
            // The clock is read only for a `CancelCompleted` event.
            let now = || self.clock.now_ns();
            inner.cancel.note_finished_recorded(now, key, &handle);
        }
    }

    /// Registers the application's cancellation initiator
    /// (`setCancelAction`). The callback receives the task's key.
    pub fn set_cancel_action(&self, f: impl Fn(TaskKey) + Send + Sync + 'static) {
        self.inner.lock().cancel.set_cancel_action(Box::new(f));
    }

    /// Registers the coarse thread-level cancellation fallback (§3.6).
    ///
    /// Used only when no application initiator is registered and
    /// [`crate::config::AtroposConfig::allow_thread_level_cancel`] is set
    /// — e.g. the paper's Apache integration, whose PHP scripts have no
    /// built-in cancellation and are aborted with `pthread_cancel` after
    /// the developers established that it is safe (§5.2).
    pub fn set_thread_cancel_action(&self, f: impl Fn(TaskKey) + Send + Sync + 'static) {
        self.inner
            .lock()
            .cancel
            .set_thread_cancel_action(Box::new(f));
    }

    /// Registers the re-execution callback (§4 fairness).
    pub fn set_reexec_action(&self, f: impl Fn(TaskKey) + Send + Sync + 'static) {
        self.inner.lock().cancel.set_reexec_action(Box::new(f));
    }

    /// Registers the callback invoked when a canceled task is dropped for
    /// missing its SLO deadline.
    pub fn set_drop_action(&self, f: impl Fn(TaskKey) + Send + Sync + 'static) {
        self.inner.lock().cancel.set_drop_action(Box::new(f));
    }

    /// Registers the fallback invoked on *regular* (non-resource) overload,
    /// e.g. an admission-control mechanism.
    pub fn set_regular_overload_action(&self, f: impl Fn() + Send + Sync + 'static) {
        self.inner.lock().regular_overload_hook = Some(Box::new(f));
    }

    /// Attaches a decision-trace [`Recorder`]. The recorder is invoked
    /// from inside the tick/cancel paths (under the runtime lock) and must
    /// be non-blocking; see the trait docs. With no recorder attached —
    /// the default — all emission sites are disabled at zero cost.
    pub fn set_recorder(&self, rec: Arc<dyn Recorder>) {
        self.inner.lock().recorder = Some(rec);
    }

    /// Detaches the decision-trace recorder, if any.
    pub fn clear_recorder(&self) {
        self.inner.lock().recorder = None;
    }

    /// Links `child` as a sub-task of `parent` (the distributed extension
    /// sketched in §4: a root request fanning work out to child tasks,
    /// possibly on other nodes). Canceling the parent propagates the
    /// cancellation signal to every descendant's key.
    ///
    /// Cycles are ignored at traversal time, so a buggy linkage cannot
    /// hang cancellation.
    pub fn link_child(&self, parent: TaskId, child: TaskId) {
        let mut inner = self.inner.lock();
        if parent != child && inner.tasks.get(child).is_some() {
            if let Some(p) = inner.touch(parent) {
                if !p.children.contains(&child) {
                    p.children.push(child);
                }
            }
        }
    }

    /// Marks a task as a background task (no SLO; force-re-executed after
    /// the configured maximum wait instead of being dropped).
    pub fn mark_background(&self, task: TaskId) {
        if let Some(t) = self.inner.lock().touch(task) {
            t.background = true;
        }
    }

    /// Overrides whether the policy may cancel this task.
    pub fn set_cancellable(&self, task: TaskId, cancellable: bool) {
        // Cancellability is cached in the task's policy-index terms: the
        // touch gets them re-derived.
        if let Some(t) = self.inner.lock().touch(task) {
            t.cancellable = cancellable;
        }
    }

    /// Requests cancellation of the task registered under `key`,
    /// bypassing detection and policy but not the safeguards (rate
    /// limiting, cancel-once fairness, re-execution bookkeeping).
    ///
    /// This is the operator entry point (MySQL's manual `KILL` analog):
    /// a human or an external controller decides *what* to cancel, but
    /// the cancellation still flows through the registered initiator so
    /// the application observes one uniform signal path.
    pub fn cancel_key(&self, key: TaskKey) -> CancelDecision {
        let now = self.clock.now_ns();
        let mut inner = self.inner.lock();
        let task = inner
            .tasks
            .iter()
            .find(|t| t.key == key)
            .map(|t| (t.id, t.background));
        let background = task.is_some_and(|(_, b)| b);
        let sink = inner.recorder.clone();
        let handle = RecorderHandle::new(sink.as_deref(), inner.stats.ticks);
        let d = inner.cancel.request_cancel_recorded(
            now,
            key,
            background,
            CancelOrigin::Operator,
            &handle,
        );
        if d == CancelDecision::Issued {
            // Only now was the initiator invoked: a rate-limited or
            // already-canceled request leaves the task `Running`.
            if let Some(t) = task.and_then(|(id, _)| inner.touch(id)) {
                t.state = TaskState::CancelRequested;
            }
        }
        d
    }
}
