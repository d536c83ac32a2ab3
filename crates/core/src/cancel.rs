//! Cancellation execution, fairness, and re-execution (§3.6, §4).
//!
//! Atropos never terminates work itself: it invokes the *cancellation
//! initiator* the application registered (MySQL's `sql_kill` in the
//! paper's Figure 7), which performs application-specific cleanup at safe
//! checkpoints. Around that callback this module implements the paper's
//! safeguards:
//!
//! - a minimum interval between consecutive cancellations (the
//!   aggressiveness/recovery trade-off discussed in §5.3),
//! - cancel-at-most-once per task: re-executed tasks are marked
//!   non-cancellable so overloads target a *different* hog next time,
//! - re-execution after sustained resource availability; if resources
//!   never free up and the canceled task's SLO deadline passes, it is
//!   dropped,
//! - background tasks (no SLO) are force-re-executed after a maximum wait.

use std::collections::{HashMap, HashSet};

use crate::config::AtroposConfig;
use crate::ids::TaskKey;
use crate::record::{BackoffReason, CancelOrigin, DecisionEvent, RecorderHandle};

/// Consecutive overload-free windows after which a canceled task is
/// re-executed ("sustained resource availability", §4): 1 s of 10 ms
/// windows.
pub const REEXEC_QUIET_WINDOWS: u32 = 100;

/// Deadline after cancellation by which a foreground task must be
/// re-executed, or it is dropped for missing its SLO (ns).
pub const REEXEC_DEADLINE_NS: u64 = 800_000_000;

/// Maximum wait of a canceled *background* task, after which its
/// re-execution is forced regardless of load (ns).
pub const BACKGROUND_MAX_WAIT_NS: u64 = 10_000_000_000;

/// Callback invoked with a task's application key.
pub type KeyCallback = Box<dyn Fn(TaskKey) + Send + Sync>;

/// Outcome of a cancellation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelDecision {
    /// The initiator was invoked.
    Issued,
    /// Suppressed: too soon after the previous cancellation.
    RateLimited,
    /// Suppressed: this task was already canceled once (fairness, §4).
    AlreadyCanceled,
    /// Suppressed: neither `set_cancel_action` nor
    /// `set_thread_cancel_action` registered an initiator.
    NoInitiator,
}

#[derive(Debug, Clone)]
struct PendingReexec {
    key: TaskKey,
    canceled_at: u64,
    deadline: u64,
    background: bool,
}

/// Counters exposed for experiments and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CancelStats {
    /// Cancellations issued (initiator invoked).
    pub issued: u64,
    /// Requests suppressed by the rate limiter.
    pub rate_limited: u64,
    /// Requests suppressed by cancel-once fairness.
    pub already_canceled: u64,
    /// Cancellations propagated to child tasks (distributed extension).
    pub propagated: u64,
    /// Re-executions triggered.
    pub reexecuted: u64,
    /// Canceled tasks dropped for missing their SLO deadline.
    pub dropped: u64,
}

/// Manages initiator callbacks, rate limiting and re-execution.
pub struct CancelManager {
    on_cancel: Option<KeyCallback>,
    on_thread_cancel: Option<KeyCallback>,
    on_reexec: Option<KeyCallback>,
    on_drop: Option<KeyCallback>,
    last_cancel_at: Option<u64>,
    min_interval_ns: u64,
    quiet_windows: u32,
    pending: Vec<PendingReexec>,
    /// The re-executed task currently in flight, if any. Re-executions are
    /// serialized: reviving several canceled hogs at once can deterministically
    /// recreate the very interaction that caused the overload (e.g. the c1
    /// scan + backup convoy), and re-executed tasks are non-cancellable, so
    /// the recreated overload would be unfixable. One at a time bounds the
    /// blast radius to a single non-cancellable task.
    outstanding_reexec: Option<TaskKey>,
    /// Keys canceled at least once; survives re-registration so a
    /// re-executed task is recognized and marked non-cancellable.
    canceled_keys: HashMap<TaskKey, u64>,
    /// Canceled keys whose task has since reached `free_cancel`, so a
    /// `CancelCompleted` event is emitted at most once per key.
    completed_keys: HashSet<TaskKey>,
    stats: CancelStats,
}

impl std::fmt::Debug for CancelManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelManager")
            .field("pending", &self.pending.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl CancelManager {
    /// Creates a manager from the runtime configuration.
    pub fn new(cfg: &AtroposConfig) -> Self {
        Self {
            on_cancel: None,
            on_thread_cancel: None,
            on_reexec: None,
            on_drop: None,
            last_cancel_at: None,
            min_interval_ns: cfg.cancel_min_interval_ns,
            quiet_windows: 0,
            pending: Vec::new(),
            outstanding_reexec: None,
            canceled_keys: HashMap::new(),
            completed_keys: HashSet::new(),
            stats: CancelStats::default(),
        }
    }

    /// Registers the application's cancellation initiator.
    pub fn set_cancel_action(&mut self, f: KeyCallback) {
        self.on_cancel = Some(f);
    }

    /// Registers the coarse thread-level cancellation fallback (§3.6, the
    /// `pthread_cancel` analog). Registering it is the opt-in; it is used
    /// only when no application initiator exists, because it is
    /// potentially unsafe: it terminates at the thread, not the task,
    /// level.
    pub fn set_thread_cancel_action(&mut self, f: KeyCallback) {
        self.on_thread_cancel = Some(f);
    }

    /// Registers the re-execution callback (invoked when a canceled task
    /// should be retried).
    pub fn set_reexec_action(&mut self, f: KeyCallback) {
        self.on_reexec = Some(f);
    }

    /// Registers the drop callback (invoked when a canceled task misses
    /// its SLO deadline and is abandoned).
    pub fn set_drop_action(&mut self, f: KeyCallback) {
        self.on_drop = Some(f);
    }

    /// True if `key` has ever been canceled (used to mark re-registered
    /// tasks non-cancellable).
    pub fn was_canceled(&self, key: TaskKey) -> bool {
        self.canceled_keys.contains_key(&key)
    }

    /// Attempts to cancel the task with application key `key`.
    pub fn request_cancel(&mut self, now: u64, key: TaskKey, background: bool) -> CancelDecision {
        if self.canceled_keys.contains_key(&key) {
            self.stats.already_canceled += 1;
            return CancelDecision::AlreadyCanceled;
        }
        if let Some(last) = self.last_cancel_at {
            if now.saturating_sub(last) < self.min_interval_ns {
                self.stats.rate_limited += 1;
                return CancelDecision::RateLimited;
            }
        }
        let Some(cb) = self.on_cancel.as_ref().or(self.on_thread_cancel.as_ref()) else {
            return CancelDecision::NoInitiator;
        };
        cb(key);
        self.last_cancel_at = Some(now);
        self.canceled_keys.insert(key, now);
        self.pending.push(PendingReexec {
            key,
            canceled_at: now,
            deadline: now.saturating_add(REEXEC_DEADLINE_NS),
            background,
        });
        self.stats.issued += 1;
        self.quiet_windows = 0;
        CancelDecision::Issued
    }

    /// [`CancelManager::request_cancel`] plus decision-trace emission:
    /// `CancelIssued` on issue, `Backoff` with the matching reason on any
    /// suppression. Behavior is otherwise identical.
    pub fn request_cancel_recorded(
        &mut self,
        now: u64,
        key: TaskKey,
        background: bool,
        origin: CancelOrigin,
        rec: &RecorderHandle<'_>,
    ) -> CancelDecision {
        let decision = self.request_cancel(now, key, background);
        match decision {
            CancelDecision::Issued => rec.emit(|tick| DecisionEvent::CancelIssued {
                tick,
                key,
                now_ns: now,
                origin,
            }),
            CancelDecision::RateLimited => rec.emit(|tick| DecisionEvent::Backoff {
                tick,
                key,
                reason: BackoffReason::RateLimited,
            }),
            CancelDecision::AlreadyCanceled => rec.emit(|tick| DecisionEvent::Backoff {
                tick,
                key,
                reason: BackoffReason::AlreadyCanceled,
            }),
            CancelDecision::NoInitiator => rec.emit(|tick| DecisionEvent::Backoff {
                tick,
                key,
                reason: BackoffReason::NoInitiator,
            }),
        }
        decision
    }

    /// Propagates a root cancellation to descendant task keys: each is
    /// signaled through the initiator (bypassing the rate limiter — the
    /// children are part of the same logical cancellation) and marked
    /// canceled so a re-registered child is non-cancellable. Children are
    /// not parked: their re-execution rides with the root's.
    pub fn propagate(&mut self, keys: &[TaskKey]) {
        let Some(cb) = self.on_cancel.as_ref().or(self.on_thread_cancel.as_ref()) else {
            return;
        };
        for &key in keys {
            if self.canceled_keys.contains_key(&key) {
                continue;
            }
            cb(key);
            self.canceled_keys.insert(key, 0);
            self.stats.propagated += 1;
        }
    }

    /// Notifies the manager that a detection window closed.
    ///
    /// `overloaded` is true if this window produced a candidate overload.
    /// After [`REEXEC_QUIET_WINDOWS`] consecutive calm windows, pending tasks
    /// are re-executed. Tasks whose SLO deadline passed are dropped;
    /// background tasks past their maximum wait are force-re-executed.
    pub fn on_window(&mut self, now: u64, overloaded: bool) {
        if overloaded {
            self.quiet_windows = 0;
        } else {
            self.quiet_windows = self.quiet_windows.saturating_add(1);
        }
        if self.pending.is_empty() {
            return;
        }
        let calm = self.quiet_windows >= REEXEC_QUIET_WINDOWS;
        // Drop foreground tasks whose SLO deadline passed while waiting.
        let mut keep = Vec::with_capacity(self.pending.len());
        let mut to_drop: Vec<TaskKey> = Vec::new();
        for p in self.pending.drain(..) {
            if !p.background && !calm && now >= p.deadline {
                to_drop.push(p.key);
            } else {
                keep.push(p);
            }
        }
        self.pending = keep;
        for key in to_drop {
            self.stats.dropped += 1;
            if let Some(cb) = &self.on_drop {
                cb(key);
            }
        }
        // Re-executions are serialized (see `outstanding_reexec`): revive
        // the oldest eligible pending task once the previous revival has
        // finished. A background task past its maximum wait overrides the
        // calm requirement, not the serialization.
        if self.outstanding_reexec.is_some() {
            return;
        }
        let eligible = self.pending.iter().position(|p| {
            if p.background {
                calm || now.saturating_sub(p.canceled_at) >= BACKGROUND_MAX_WAIT_NS
            } else {
                calm
            }
        });
        if let Some(idx) = eligible {
            let p = self.pending.remove(idx);
            self.stats.reexecuted += 1;
            self.outstanding_reexec = Some(p.key);
            if let Some(cb) = &self.on_reexec {
                cb(p.key);
            }
        }
    }

    /// Notifies the manager that the task with `key` reached a terminal
    /// state; clears re-execution serialization if it was the revived one.
    pub fn note_finished(&mut self, key: TaskKey) {
        if self.outstanding_reexec == Some(key) {
            self.outstanding_reexec = None;
        }
    }

    /// [`CancelManager::note_finished`] plus decision-trace emission: if
    /// `key` was canceled and this is the first time it reaches a terminal
    /// state, a `CancelCompleted` event carries the issue-to-completion
    /// latency. Keys canceled by propagation carry issue time 0 and are
    /// reported with zero latency rather than a bogus span. `now` is
    /// called only to build that event: a request that was never canceled,
    /// or has no recorder to report to, does not read the clock.
    pub fn note_finished_recorded(
        &mut self,
        now: impl FnOnce() -> u64,
        key: TaskKey,
        rec: &RecorderHandle<'_>,
    ) {
        self.note_finished(key);
        if let Some(&issued_at) = self.canceled_keys.get(&key) {
            if self.completed_keys.insert(key) {
                rec.emit(|tick| DecisionEvent::CancelCompleted {
                    tick,
                    key,
                    time_to_cancel_ns: if issued_at == 0 {
                        0
                    } else {
                        now().saturating_sub(issued_at)
                    },
                });
            }
        }
    }

    /// Number of canceled tasks awaiting re-execution.
    pub fn pending_reexec(&self) -> usize {
        self.pending.len()
    }

    /// Every key canceled so far, paired with the time the initiator was
    /// invoked, ordered by issue time (keys canceled by propagation carry
    /// time 0 and sort first). Exposed for invariant checkers.
    pub fn canceled_keys(&self) -> Vec<(TaskKey, u64)> {
        let mut v: Vec<(TaskKey, u64)> =
            self.canceled_keys.iter().map(|(k, at)| (*k, *at)).collect();
        v.sort_by_key(|&(k, at)| (at, k.0));
        v
    }

    /// The serialized re-execution currently in flight, if any. Exposed
    /// for invariant checkers.
    pub fn outstanding_reexec(&self) -> Option<TaskKey> {
        self.outstanding_reexec
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CancelStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Window width of the virtual timeline: 1 ms, so the
    /// [`REEXEC_QUIET_WINDOWS`] calm windows of a re-execution fit inside
    /// [`REEXEC_DEADLINE_NS`].
    const WIN: u64 = 1_000_000;
    const QUIET: u64 = REEXEC_QUIET_WINDOWS as u64;

    fn manager() -> CancelManager {
        CancelManager::new(&AtroposConfig {
            cancel_min_interval_ns: 1000,
            ..Default::default()
        })
    }

    fn counter_cb(counter: &Arc<AtomicU64>) -> KeyCallback {
        let c = counter.clone();
        Box::new(move |_| {
            c.fetch_add(1, Ordering::SeqCst);
        })
    }

    fn hits(counter: &Arc<AtomicU64>) -> u64 {
        counter.load(Ordering::SeqCst)
    }

    /// Closes `n` windows, one every [`WIN`] after `*now`, all calm or all
    /// overloaded, and leaves `*now` at the last one.
    fn windows(m: &mut CancelManager, now: &mut u64, n: u64, overloaded: bool) {
        for _ in 0..n {
            *now += WIN;
            m.on_window(*now, overloaded);
        }
    }

    #[test]
    fn cancel_invokes_initiator() {
        let mut m = manager();
        let app = Arc::new(AtomicU64::new(0));
        m.set_cancel_action(counter_cb(&app));
        assert_eq!(
            m.request_cancel(0, TaskKey(1), false),
            CancelDecision::Issued
        );
        assert_eq!(hits(&app), 1);
        assert_eq!(m.stats().issued, 1);
    }

    #[test]
    fn missing_initiator_is_reported() {
        let mut m = manager();
        assert_eq!(
            m.request_cancel(0, TaskKey(1), false),
            CancelDecision::NoInitiator
        );
        assert_eq!(m.stats().issued, 0);
    }

    #[test]
    fn thread_level_fallback_requires_opt_in() {
        // Nothing registered: no initiator, nothing recorded.
        let mut m = manager();
        assert_eq!(
            m.request_cancel(0, TaskKey(1), false),
            CancelDecision::NoInitiator
        );
        assert!(!m.was_canceled(TaskKey(1)));
        assert_eq!(m.pending_reexec(), 0);
        // Registering the thread-level action is the opt-in: it fires.
        let thread = Arc::new(AtomicU64::new(0));
        let mut m = manager();
        m.set_thread_cancel_action(counter_cb(&thread));
        assert_eq!(
            m.request_cancel(0, TaskKey(1), false),
            CancelDecision::Issued
        );
        assert_eq!(hits(&thread), 1);
        assert!(m.was_canceled(TaskKey(1)));
        assert_eq!(m.pending_reexec(), 1);
        // An application initiator wins over the fallback.
        let (app, thread) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let mut m = manager();
        m.set_cancel_action(counter_cb(&app));
        m.set_thread_cancel_action(counter_cb(&thread));
        assert_eq!(
            m.request_cancel(0, TaskKey(1), false),
            CancelDecision::Issued
        );
        assert_eq!((hits(&app), hits(&thread)), (1, 0));
    }

    #[test]
    fn propagate_uses_the_same_initiators() {
        let children = [TaskKey(2), TaskKey(3)];
        // Nothing registered: no child is signaled or marked.
        let mut m = manager();
        m.propagate(&children);
        assert_eq!(m.stats().propagated, 0);
        assert!(!m.was_canceled(TaskKey(2)));
        // The thread-level action alone: each child is signaled once,
        // marked canceled and not parked for re-execution.
        let thread = Arc::new(AtomicU64::new(0));
        let mut m = manager();
        m.set_thread_cancel_action(counter_cb(&thread));
        m.propagate(&children);
        m.propagate(&children);
        assert_eq!(hits(&thread), 2);
        assert_eq!(m.stats().propagated, 2);
        assert!(m.was_canceled(TaskKey(2)) && m.was_canceled(TaskKey(3)));
        assert_eq!(m.pending_reexec(), 0);
        // An application initiator wins over the fallback.
        let (app, thread) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let mut m = manager();
        m.set_cancel_action(counter_cb(&app));
        m.set_thread_cancel_action(counter_cb(&thread));
        m.propagate(&children);
        assert_eq!((hits(&app), hits(&thread)), (2, 0));
    }

    #[test]
    fn rate_limiter_enforces_min_interval() {
        let mut m = manager();
        m.set_cancel_action(Box::new(|_| {}));
        assert_eq!(
            m.request_cancel(0, TaskKey(1), false),
            CancelDecision::Issued
        );
        assert_eq!(
            m.request_cancel(500, TaskKey(2), false),
            CancelDecision::RateLimited
        );
        assert_eq!(
            m.request_cancel(1000, TaskKey(2), false),
            CancelDecision::Issued
        );
        assert_eq!(m.stats().rate_limited, 1);
    }

    #[test]
    fn cancel_once_per_key() {
        let mut m = manager();
        m.set_cancel_action(Box::new(|_| {}));
        m.request_cancel(0, TaskKey(1), false);
        assert_eq!(
            m.request_cancel(5000, TaskKey(1), false),
            CancelDecision::AlreadyCanceled
        );
        assert!(m.was_canceled(TaskKey(1)));
        assert!(!m.was_canceled(TaskKey(2)));
    }

    #[test]
    fn reexec_after_sustained_quiet() {
        let mut m = manager();
        m.set_cancel_action(Box::new(|_| {}));
        let reexecs = Arc::new(AtomicU64::new(0));
        m.set_reexec_action(counter_cb(&reexecs));
        let mut now = 0;
        m.request_cancel(now, TaskKey(1), false);
        assert_eq!(m.pending_reexec(), 1);
        windows(&mut m, &mut now, QUIET - 1, false);
        assert_eq!(hits(&reexecs), 0, "one calm window short");
        windows(&mut m, &mut now, 1, false);
        assert_eq!(hits(&reexecs), 1);
        assert_eq!(m.pending_reexec(), 0);
        assert_eq!(m.stats().reexecuted, 1);
        assert_eq!(m.stats().dropped, 0);
        assert!(now < REEXEC_DEADLINE_NS);
    }

    #[test]
    fn overloaded_windows_reset_quiet_count() {
        let mut m = manager();
        m.set_cancel_action(Box::new(|_| {}));
        let reexecs = Arc::new(AtomicU64::new(0));
        m.set_reexec_action(counter_cb(&reexecs));
        let mut now = 0;
        m.request_cancel(now, TaskKey(1), false);
        windows(&mut m, &mut now, QUIET - 1, false);
        windows(&mut m, &mut now, 1, true); // overload resets
        windows(&mut m, &mut now, QUIET - 1, false);
        assert_eq!(hits(&reexecs), 0);
        windows(&mut m, &mut now, 1, false);
        assert_eq!(hits(&reexecs), 1);
    }

    #[test]
    fn deadline_miss_drops_task() {
        let mut m = manager();
        m.set_cancel_action(Box::new(|_| {}));
        let drops = Arc::new(AtomicU64::new(0));
        m.set_drop_action(counter_cb(&drops));
        let mut now = 0;
        m.request_cancel(now, TaskKey(1), false);
        // Stay overloaded up to the window before the deadline.
        windows(&mut m, &mut now, REEXEC_DEADLINE_NS / WIN - 1, true);
        assert_eq!(hits(&drops), 0);
        assert_eq!(m.pending_reexec(), 1);
        windows(&mut m, &mut now, 1, true);
        assert_eq!(now, REEXEC_DEADLINE_NS);
        assert_eq!(hits(&drops), 1);
        assert_eq!(m.stats().dropped, 1);
        assert_eq!(m.pending_reexec(), 0);
    }

    #[test]
    fn background_tasks_never_drop_and_force_reexec() {
        let mut m = manager();
        m.set_cancel_action(Box::new(|_| {}));
        let reexecs = Arc::new(AtomicU64::new(0));
        let drops = Arc::new(AtomicU64::new(0));
        m.set_reexec_action(counter_cb(&reexecs));
        m.set_drop_action(counter_cb(&drops));
        let mut now = 0;
        m.request_cancel(now, TaskKey(9), true);
        // Permanent overload: the deadline passes, then the maximum wait.
        windows(&mut m, &mut now, BACKGROUND_MAX_WAIT_NS / WIN - 1, true);
        assert!(now > REEXEC_DEADLINE_NS);
        assert_eq!(hits(&drops), 0);
        assert_eq!(hits(&reexecs), 0);
        assert_eq!(m.pending_reexec(), 1);
        windows(&mut m, &mut now, 1, true);
        assert_eq!(now, BACKGROUND_MAX_WAIT_NS);
        assert_eq!(hits(&reexecs), 1);
        assert_eq!(hits(&drops), 0);
    }

    #[test]
    fn reexecutions_are_serialized() {
        let mut m = manager();
        m.set_cancel_action(Box::new(|_| {}));
        let reexecs = Arc::new(AtomicU64::new(0));
        m.set_reexec_action(counter_cb(&reexecs));
        m.request_cancel(0, TaskKey(1), false);
        let mut now = 2_000;
        m.request_cancel(now, TaskKey(2), false);
        windows(&mut m, &mut now, QUIET, false);
        // Calm: only the first pending task is revived.
        assert_eq!(hits(&reexecs), 1);
        assert_eq!(m.pending_reexec(), 1);
        windows(&mut m, &mut now, 1, false);
        assert_eq!(hits(&reexecs), 1, "still outstanding");
        // The revived task finishes: the next one goes.
        m.note_finished(TaskKey(1));
        windows(&mut m, &mut now, 1, false);
        assert_eq!(hits(&reexecs), 2);
        assert_eq!(m.pending_reexec(), 0);
    }

    #[test]
    fn note_finished_for_unrelated_key_is_noop() {
        let mut m = manager();
        m.set_cancel_action(Box::new(|_| {}));
        let reexecs = Arc::new(AtomicU64::new(0));
        m.set_reexec_action(counter_cb(&reexecs));
        let mut now = 0;
        m.request_cancel(now, TaskKey(1), false);
        windows(&mut m, &mut now, QUIET, false);
        assert_eq!(hits(&reexecs), 1);
        m.note_finished(TaskKey(42)); // not the outstanding one
        m.request_cancel(now, TaskKey(2), false);
        windows(&mut m, &mut now, QUIET, false);
        // Task 1 never finished, so task 2 stays pending.
        assert_eq!(hits(&reexecs), 1);
        assert_eq!(m.pending_reexec(), 1);
    }

    #[test]
    fn issuing_cancel_resets_quiet_streak() {
        let mut m = manager();
        m.set_cancel_action(Box::new(|_| {}));
        let reexecs = Arc::new(AtomicU64::new(0));
        m.set_reexec_action(counter_cb(&reexecs));
        let mut now = 0;
        windows(&mut m, &mut now, QUIET, false); // a full quiet streak
        m.request_cancel(now + 1, TaskKey(1), false); // resets it
        windows(&mut m, &mut now, QUIET - 1, false);
        assert_eq!(hits(&reexecs), 0);
        windows(&mut m, &mut now, 1, false);
        assert_eq!(hits(&reexecs), 1);
    }
}
