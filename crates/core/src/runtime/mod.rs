//! The Atropos runtime manager (§3.2, Figure 5).
//!
//! [`AtroposRuntime`] is the object applications integrate against. It owns
//! the task and resource registries, the trace accounting, the overload
//! detector, the estimator, the cancellation policy, and the cancel
//! manager, and exposes the paper's Figure 6 API in idiomatic Rust. All
//! methods are thread-safe; the runtime serves real multi-threaded
//! programs and the single-threaded simulator alike.
//!
//! The implementation is split along the port seam:
//!
//! - [`ingest`](self) (`ingest.rs`) — the tracing hot path: resource
//!   registration, get/free/slow_by, the performance signal, and the
//!   epoch-drained replay that folds buffered events into accounting;
//! - `decide.rs` — the periodic driver: one `tick` running detection →
//!   estimation → policy → cancellation;
//! - `actuate.rs` — the cancellation boundary: task scoping, initiator /
//!   re-execution / drop callbacks, and the operator `cancel_key` path.
//!
//! This file keeps the shared state (`Inner`), construction, and
//! introspection. The split is layout only: every method kept its exact
//! body, and the golden episode suite pins the behavior bit-for-bit.

mod actuate;
mod decide;
mod ingest;

use std::sync::Arc;

use atropos_sim::Clock;
use parking_lot::Mutex;

use crate::cancel::{CancelDecision, CancelManager, CancelStats};
use crate::config::AtroposConfig;
use crate::detect::Detector;
use crate::estimator::EstimatorSnapshot;
use crate::ids::{ResourceId, TaskId, TaskKey};
use crate::lockfree::LockFreeIngest;
use crate::phase::TickPhases;
use crate::policy::PolicyIndex;
use crate::record::Recorder;
use crate::resource::ResourceRegistry;
use crate::task::{TaskRecord, TaskState, TaskTable};
use crate::trace::{TimestampMode, TimestampPolicy, TraceRecord, SAMPLE_INTERVAL_NS};

/// Auto-generated keys live in the top half of the key space so they never
/// collide with developer-provided keys (which are expected to be small
/// identifiers such as thread or connection ids).
const AUTO_KEY_BASE: u64 = 1 << 63;

/// Result of one [`AtroposRuntime::tick`].
#[derive(Debug, Clone, PartialEq)]
pub enum TickOutcome {
    /// No overload candidate this window.
    Idle,
    /// Candidate confirmed as resource overload.
    ResourceOverload {
        /// Bottlenecked resources, most contended first.
        resources: Vec<ResourceId>,
        /// Key of the task whose cancellation was issued, if any.
        canceled: Option<TaskKey>,
        /// The decision taken for the selected task (if one was selected).
        decision: Option<CancelDecision>,
    },
    /// Candidate without a bottlenecked application resource: regular
    /// (demand) overload, delegated to the fallback handler.
    RegularOverload,
}

/// Aggregate runtime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Tracing API calls processed.
    pub trace_events: u64,
    /// Tracing API calls that referenced an unknown task/resource and were
    /// ignored (e.g. events racing with `free_cancel`), plus records shed
    /// when an ingest ring overflowed with the runtime state busy.
    pub ignored_events: u64,
    /// Drains triggered by a full ingest ring between ticks.
    pub mid_window_flushes: u64,
    /// `tick` invocations.
    pub ticks: u64,
    /// Candidate overloads reported by the detector.
    pub candidates: u64,
    /// Candidates confirmed as resource overload.
    pub resource_overloads: u64,
    /// Candidates classified as regular overload.
    pub regular_overloads: u64,
    /// Work units completed.
    pub completions: u64,
    /// Confirmed resource overloads by the hottest resource's type,
    /// indexed Lock/Memory/Queue/System (diagnostic: which kind of
    /// resource kept bottlenecking).
    pub overloads_by_type: [u64; 4],
    /// Cancellation counters.
    pub cancel: CancelStats,
}

struct Inner {
    cfg: AtroposConfig,
    resources: ResourceRegistry,
    /// The task registry and its visit set: every path that mutates a
    /// task goes through [`TaskTable::touch`], so a tick looks only at
    /// tasks something happened to.
    tasks: TaskTable,
    next_task: u64,
    next_auto_key: u64,
    detector: Detector,
    /// Incrementally maintained policy state, driven by `tasks`.
    policy_index: PolicyIndex,
    cancel: CancelManager,
    ts: TimestampPolicy,
    /// The snapshot buffer `last_estimate()` hands out; `None` until it is
    /// first read after an overloaded tick.
    last_estimate: Option<EstimatorSnapshot>,
    /// True when an overloaded tick ran since `last_estimate` was last
    /// materialized: the tick decides from the index alone and leaves
    /// the snapshot to its first reader.
    estimate_stale: bool,
    /// Wall-clock cost of each tick phase; see [`crate::phase`].
    phases: TickPhases,
    regular_overload_hook: Option<Box<dyn Fn() + Send + Sync>>,
    /// Optional decision-trace sink; `None` (the default) keeps every
    /// emission site a single branch with no event construction.
    recorder: Option<Arc<dyn Recorder>>,
    stats: RuntimeStats,
    /// Reusable drain buffer, refilled queue by queue so replay never
    /// allocates on the steady state.
    scratch: Vec<TraceRecord>,
}

impl Inner {
    /// The one way to a mutable task record: [`TaskTable::touch`], so
    /// whatever changes puts the task in the visit set.
    fn touch(&mut self, id: TaskId) -> Option<&mut TaskRecord> {
        self.tasks.touch(id, &mut self.policy_index)
    }

    /// Builds the snapshot `last_estimate()` owes its caller, if the
    /// latest overloaded tick left that for later.
    fn materialize_estimate(&mut self) {
        if std::mem::take(&mut self.estimate_stale) {
            self.policy_index
                .materialize(self.last_estimate.get_or_insert_with(Default::default));
        }
    }
}

/// The Atropos runtime. See the [crate-level docs](crate) for an overview
/// and a usage example.
pub struct AtroposRuntime {
    clock: Arc<dyn Clock>,
    /// The rings tracing calls append to without touching `inner`.
    ingest: LockFreeIngest,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for AtroposRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("AtroposRuntime")
            .field("tasks", &inner.tasks.len())
            .field("resources", &inner.resources.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

impl AtroposRuntime {
    /// Creates a runtime.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation; use [`AtroposRuntime::try_new`]
    /// for a fallible constructor.
    pub fn new(cfg: AtroposConfig, clock: Arc<dyn Clock>) -> Self {
        Self::try_new(cfg, clock).expect("invalid AtroposConfig")
    }

    /// Creates a runtime, returning a description of any configuration
    /// error.
    pub fn try_new(cfg: AtroposConfig, clock: Arc<dyn Clock>) -> Result<Self, String> {
        cfg.validate()?;
        let origin = clock.now_ns();
        let ingest = LockFreeIngest::new(cfg.ingest_stripes, cfg.ingest_stripe_capacity);
        let inner = Inner {
            detector: Detector::new(cfg.detector.clone(), origin),
            policy_index: PolicyIndex::new(),
            cancel: CancelManager::new(&cfg),
            ts: TimestampPolicy::new(SAMPLE_INTERVAL_NS),
            resources: ResourceRegistry::new(),
            tasks: TaskTable::new(origin),
            next_task: 1,
            next_auto_key: AUTO_KEY_BASE,
            last_estimate: None,
            estimate_stale: false,
            phases: TickPhases::default(),
            regular_overload_hook: None,
            recorder: None,
            stats: RuntimeStats::default(),
            scratch: Vec::new(),
            cfg,
        };
        Ok(Self {
            clock,
            ingest,
            inner: Mutex::new(inner),
        })
    }

    /// Locks the runtime state with every buffered tracing call replayed.
    ///
    /// Every method that reads or mutates state the trace events feed
    /// (task usage, the resource registry, event counters) must go through
    /// this, so buffered ingestion observes exactly the state per-event
    /// application would have produced at each drain point.
    fn lock_drained(&self) -> parking_lot::MutexGuard<'_, Inner> {
        let mut inner = self.inner.lock();
        inner.drain_ingest(&self.ingest);
        inner
    }

    /// The clock this runtime reads timestamps from.
    pub fn clock(&self) -> Arc<dyn Clock> {
        self.clock.clone()
    }

    // ---- introspection ----

    /// Current timestamp mode (sampled under normal load, precise under
    /// potential overload).
    pub fn timestamp_mode(&self) -> TimestampMode {
        self.inner.lock().ts.mode()
    }

    /// The estimator snapshot of the most recent overloaded tick, `None`
    /// before the first one.
    ///
    /// The tick decides and explains from the policy index and never
    /// builds the full snapshot: it is materialized here, on first read —
    /// O(tasks with any gain) — from what the index holds at that point
    /// (or by `register_resource`, just before the index starts over).
    /// Read before the next tick (the only way the chaos checker and the
    /// runtime tests read it) it equals the reference
    /// [`estimate`](crate::estimator::estimate) of the window the tick
    /// decided on; read later, tasks that parked in between show the
    /// window they parked with.
    pub fn last_estimate(&self) -> Option<EstimatorSnapshot> {
        let mut inner = self.inner.lock();
        inner.materialize_estimate();
        inner.last_estimate.clone()
    }

    /// Wall-clock cost of each `tick()` phase since the runtime was
    /// built: always on, see [`crate::phase`].
    pub fn tick_phases(&self) -> TickPhases {
        self.inner.lock().phases.clone()
    }

    /// Aggregate counters. Drains any buffered trace events first so the
    /// event counts are exact at the time of the call.
    pub fn stats(&self) -> RuntimeStats {
        let inner = self.lock_drained();
        let mut s = inner.stats;
        s.cancel = inner.cancel.stats();
        s
    }

    /// Aggregate counters *without* draining buffered trace events: a
    /// cheap snapshot for monitoring threads that must not perturb the
    /// buffered ingest (forcing a drain from a poller steals the batch
    /// replay from the tick path and skews `mid_window_flushes`). Event
    /// counts may lag [`AtroposRuntime::stats`] by up to one drain.
    pub fn stats_relaxed(&self) -> RuntimeStats {
        let inner = self.inner.lock();
        let mut s = inner.stats;
        s.cancel = inner.cancel.stats();
        s
    }

    /// Completed drain epochs: each drain point advances exactly one
    /// epoch and harvests exactly the records claimed before its boundary.
    pub fn ingest_epochs(&self) -> u64 {
        self.ingest.epochs()
    }

    /// Number of trace events currently buffered and not yet replayed.
    pub fn ingest_pending(&self) -> usize {
        self.ingest.pending()
    }

    /// Forces the timestamp mode, overriding the detector-driven switch
    /// until the next `tick`. Intended for benchmarks and overhead
    /// experiments that need to pin the sampled or precise path; normal
    /// integrations never call this. Buffered events emitted before this
    /// call are drained first so they keep the mode they were emitted
    /// under.
    pub fn set_timestamp_mode(&self, mode: TimestampMode) {
        self.lock_drained().ts.set_mode(mode);
    }

    /// Number of live (registered) tasks.
    pub fn task_count(&self) -> usize {
        self.inner.lock().tasks.len()
    }

    /// A consistent plain-data copy of the runtime's internal state for
    /// invariant checkers (see [`crate::debug`]). Buffered trace events
    /// are drained first, so accounting counters are exact at the call
    /// point — the same state a tick at this instant would observe.
    /// O(registered tasks).
    pub fn debug_snapshot(&self) -> crate::debug::DebugSnapshot {
        use crate::debug::*;
        let now_ns = self.clock.now_ns();
        let mut inner = self.lock_drained();
        // Parked tasks' open holds are charged lazily; introspection is
        // one of the catch-up points.
        inner.tasks.catch_up_parked();
        let (evaluations, candidates) = inner.detector.counters();
        let mut tasks: Vec<TaskDebug> = inner
            .tasks
            .iter()
            .map(|t| TaskDebug {
                id: t.id,
                key: t.key,
                cancel_requested: t.state == TaskState::CancelRequested,
                cancellable: t.cancellable,
                background: t.background,
                progress: t.progress.progress(0.0),
                usage: t
                    .usage
                    .iter()
                    .map(|u| UsageDebug {
                        acquired: u.acquired,
                        freed: u.freed,
                        held: u.held,
                        slow_events: u.slow_events,
                        slow_amount: u.slow_amount,
                        total_wait_ns: u.total_wait_ns,
                        total_hold_ns: u.total_hold_ns,
                    })
                    .collect(),
            })
            .collect();
        tasks.sort_by_key(|t| t.id);
        let mut stats = inner.stats;
        stats.cancel = inner.cancel.stats();
        DebugSnapshot {
            now_ns,
            resources: inner
                .resources
                .iter()
                .map(|r| ResourceDebug {
                    id: r.id,
                    name: r.name.clone(),
                    rtype: r.rtype,
                })
                .collect(),
            tasks,
            detector: DetectorDebug {
                evaluations,
                candidates,
            },
            cancel: CancelDebug {
                canceled_keys: inner.cancel.canceled_keys(),
                pending_reexec: inner.cancel.pending_reexec(),
                outstanding_reexec: inner.cancel.outstanding_reexec(),
                stats: inner.cancel.stats(),
            },
            stats,
        }
    }

    /// The configuration the runtime was built with.
    pub fn config(&self) -> AtroposConfig {
        self.inner.lock().cfg.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ResourceType;
    use crate::trace::EventKind;
    use atropos_sim::{SimTime, VirtualClock};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    const MS: u64 = 1_000_000;

    fn setup(slo_ms: u64) -> (Arc<VirtualClock>, AtroposRuntime) {
        let clock = Arc::new(VirtualClock::new());
        let mut cfg = AtroposConfig::default();
        cfg.detector.slo_latency_ns = slo_ms * MS;
        cfg.detector.window_ns = 100 * MS;
        cfg.cancel_min_interval_ns = 0;
        let rt = AtroposRuntime::new(cfg, clock.clone());
        (clock, rt)
    }

    #[test]
    fn auto_keys_do_not_collide_with_explicit_keys() {
        let (_c, rt) = setup(10);
        let _a = rt.create_cancel(Some(7));
        let _b = rt.create_cancel(None);
        assert_eq!(rt.task_count(), 2);
    }

    #[test]
    fn free_cancel_removes_task() {
        let (_c, rt) = setup(10);
        let t = rt.create_cancel(None);
        rt.free_cancel(t);
        assert_eq!(rt.task_count(), 0);
        rt.free_cancel(t); // idempotent
    }

    #[test]
    fn events_on_freed_tasks_are_ignored() {
        let (_c, rt) = setup(10);
        let pool = rt.register_resource("pool", ResourceType::Memory);
        let t = rt.create_cancel(None);
        rt.free_cancel(t);
        rt.get_resource(t, pool, 10);
        assert_eq!(rt.stats().ignored_events, 1);
        assert_eq!(rt.stats().trace_events, 0);
    }

    #[test]
    fn resources_registered_late_are_visible_to_existing_tasks() {
        let (_c, rt) = setup(10);
        let t = rt.create_cancel(None);
        let lock = rt.register_resource("lock", ResourceType::Lock);
        rt.get_resource(t, lock, 1);
        assert_eq!(rt.stats().trace_events, 1);
    }

    #[test]
    fn unit_lifecycle_feeds_detector() {
        let (clock, rt) = setup(10);
        let t = rt.create_cancel(None);
        rt.unit_started(t);
        clock.advance_to(SimTime::from_millis(5));
        assert_eq!(rt.unit_finished(t), Some(5 * MS));
        assert_eq!(rt.stats().completions, 1);
    }

    /// Drives a full overload scenario: many light tasks blocked on a lock
    /// held by one hog; the hog must be the task canceled.
    #[test]
    fn end_to_end_lock_hog_is_canceled() {
        let (clock, rt) = setup(10);
        let lock = rt.register_resource("table_lock", ResourceType::Lock);
        let canceled = Arc::new(AtomicU64::new(0));
        let canceled2 = canceled.clone();
        rt.set_cancel_action(move |key| {
            canceled2.store(key.0, Ordering::SeqCst);
        });

        let hog = rt.create_cancel(Some(99));
        rt.unit_started(hog);
        rt.report_progress(hog, 10, 100); // early in its work
        rt.get_resource(hog, lock, 1); // holds the lock from t=0

        let mut victims = Vec::new();
        for i in 0..10 {
            let v = rt.create_cancel(Some(i));
            rt.unit_started(v);
            rt.slow_by_resource(v, lock, 1); // all wait on the lock
            victims.push(v);
        }

        // Window 0: healthy completions to establish a throughput base.
        for step in 1..=20u64 {
            clock.advance_to(SimTime::from_nanos(step * 5 * MS / 2));
            let t = rt.create_cancel(None);
            rt.unit_started(t);
            rt.unit_finished(t);
            rt.free_cancel(t);
        }
        clock.advance_to(SimTime::from_millis(100));
        assert_eq!(rt.tick(), TickOutcome::Idle);

        // Window 1: only slow completions (latency >> SLO), lock still held.
        for step in 1..=10u64 {
            clock.advance_to(SimTime::from_nanos(100 * MS + step * 9 * MS));
            let t = rt.create_cancel(None);
            rt.unit_started(t);
            // Make each completion slow by back-dating the start: simulate
            // via a second task started in window 0 — simpler: finish a
            // victim that started at t=0.
            rt.unit_finished(t);
            rt.free_cancel(t);
        }
        // Finish two victims with huge latency so p99 violates the SLO.
        clock.advance_to(SimTime::from_millis(195));
        rt.unit_finished(victims[0]);
        rt.unit_finished(victims[1]);
        clock.advance_to(SimTime::from_millis(200));
        let outcome = rt.tick();
        match outcome {
            TickOutcome::ResourceOverload {
                resources,
                canceled: Some(key),
                ..
            } => {
                assert_eq!(resources, vec![lock]);
                assert_eq!(key, TaskKey(99));
                assert_eq!(canceled.load(Ordering::SeqCst), 99);
            }
            other => panic!("expected hog cancellation, got {other:?}"),
        }
        assert_eq!(rt.stats().cancel.issued, 1);
        assert_eq!(rt.timestamp_mode(), TimestampMode::Precise);
    }

    #[test]
    fn regular_overload_invokes_fallback() {
        let (clock, rt) = setup(10);
        rt.register_resource("lock", ResourceType::Lock);
        let fallback_hits = Arc::new(AtomicU64::new(0));
        let fh = fallback_hits.clone();
        rt.set_regular_overload_action(move || {
            fh.fetch_add(1, Ordering::SeqCst);
        });
        // Slow completions with NO resource waits: latency violates the
        // SLO but no application resource is bottlenecked.
        let t = rt.create_cancel(None);
        for w in 0..2u64 {
            for step in 0..5u64 {
                clock.advance_to(SimTime::from_nanos(w * 100 * MS + step * 16 * MS));
                rt.unit_started(t);
                clock.advance_to(SimTime::from_nanos(w * 100 * MS + step * 16 * MS + 15 * MS));
                rt.unit_finished(t);
            }
        }
        clock.advance_to(SimTime::from_millis(100));
        rt.tick();
        clock.advance_to(SimTime::from_millis(200));
        let outcome = rt.tick();
        assert_eq!(outcome, TickOutcome::RegularOverload);
        assert_eq!(fallback_hits.load(Ordering::SeqCst), 1);
        assert_eq!(rt.stats().regular_overloads, 1);
    }

    #[test]
    fn reexecuted_key_registers_non_cancellable() {
        let (_c, rt) = setup(10);
        rt.set_cancel_action(|_| {});
        // Force a cancellation directly through the manager by simulating
        // an issued cancel for key 5.
        {
            let mut inner = rt.inner.lock();
            inner.cancel.request_cancel(0, TaskKey(5), false);
        }
        let t = rt.create_cancel(Some(5));
        let inner = rt.inner.lock();
        assert!(!inner.tasks.get(t).unwrap().cancellable);
    }

    #[test]
    fn timestamp_mode_returns_to_sampled_when_calm() {
        let (clock, rt) = setup(1000);
        // Healthy traffic for two windows.
        let t = rt.create_cancel(None);
        for w in 0..2u64 {
            for step in 1..=5u64 {
                clock.advance_to(SimTime::from_nanos(w * 100 * MS + step * 19 * MS));
                rt.unit_started(t);
                rt.unit_finished(t);
            }
        }
        clock.advance_to(SimTime::from_millis(250));
        assert_eq!(rt.tick(), TickOutcome::Idle);
        assert_eq!(rt.timestamp_mode(), TimestampMode::Sampled);
    }

    /// The distributed extension: canceling a root task propagates to all
    /// linked descendants' keys via the same initiator.
    #[test]
    fn cancellation_propagates_to_descendants() {
        let (clock, rt) = setup(10);
        let lock = rt.register_resource("lock", ResourceType::Lock);
        let canceled_keys = Arc::new(parking_lot::Mutex::new(Vec::new()));
        {
            let keys = canceled_keys.clone();
            rt.set_cancel_action(move |key| keys.lock().push(key.0));
        }
        let root = rt.create_cancel(Some(100));
        let child = rt.create_cancel(Some(101));
        let grandchild = rt.create_cancel(Some(102));
        rt.link_child(root, child);
        rt.link_child(child, grandchild);
        rt.link_child(grandchild, root); // cycle: must be harmless
        rt.unit_started(root);
        rt.report_progress(root, 5, 100);
        rt.get_resource(root, lock, 1);
        let mut victims = Vec::new();
        for i in 0..10 {
            let v = rt.create_cancel(Some(i));
            rt.unit_started(v);
            rt.slow_by_resource(v, lock, 1);
            victims.push(v);
        }
        // Healthy window then stall window (as in the hog test).
        for step in 1..=20u64 {
            clock.advance_to(SimTime::from_nanos(step * 5 * MS / 2));
            let t = rt.create_cancel(None);
            rt.unit_started(t);
            rt.unit_finished(t);
            rt.free_cancel(t);
        }
        clock.advance_to(SimTime::from_millis(100));
        rt.tick();
        clock.advance_to(SimTime::from_millis(195));
        rt.unit_finished(victims[0]);
        rt.unit_finished(victims[1]);
        clock.advance_to(SimTime::from_millis(200));
        let outcome = rt.tick();
        assert!(matches!(
            outcome,
            TickOutcome::ResourceOverload {
                canceled: Some(_),
                ..
            }
        ));
        let keys = canceled_keys.lock().clone();
        assert!(keys.contains(&100), "root not canceled: {keys:?}");
        assert!(keys.contains(&101), "child not canceled: {keys:?}");
        assert!(keys.contains(&102), "grandchild not canceled: {keys:?}");
        assert_eq!(rt.stats().cancel.issued, 1);
        assert_eq!(rt.stats().cancel.propagated, 2);
    }

    #[test]
    fn link_child_ignores_unknown_and_self_links() {
        let (_c, rt) = setup(10);
        let a = rt.create_cancel(Some(1));
        rt.link_child(a, a); // self
        rt.link_child(a, TaskId(999)); // unknown child
        let inner = rt.inner.lock();
        assert!(inner.tasks.get(a).unwrap().children.is_empty());
    }

    #[test]
    fn try_new_rejects_invalid_config() {
        let clock = Arc::new(VirtualClock::new());
        let mut cfg = AtroposConfig::default();
        cfg.detector.window_ns = 0;
        assert!(AtroposRuntime::try_new(cfg, clock).is_err());
    }

    /// How a test hands tracing calls to the runtime. Neither alternative
    /// to `Deferred` shares batching state with it: `DrainEveryEmit` is the
    /// production path at batch size one, `Sequential` bypasses the rings
    /// and the batch stamper entirely.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Feed {
        /// The production path: events sit in the rings until a drain point.
        Deferred,
        /// Every event is applied before the next call returns: a drain
        /// (via `stats`) after every tracing call.
        DrainEveryEmit,
        /// The sequential reference, [`AtroposRuntime::trace_sequential`].
        Sequential,
    }

    impl Feed {
        fn trace(
            self,
            rt: &AtroposRuntime,
            task: TaskId,
            rid: ResourceId,
            amount: u64,
            kind: EventKind,
        ) {
            if self == Feed::Sequential {
                return rt.trace_sequential(task, rid, amount, kind);
            }
            match kind {
                EventKind::Get => rt.get_resource(task, rid, amount),
                EventKind::Free => rt.free_resource(task, rid, amount),
                EventKind::SlowBy => rt.slow_by_resource(task, rid, amount),
            }
            if self == Feed::DrainEveryEmit {
                rt.stats();
            }
        }
    }

    /// The policy reference, checked against the state a non-idle tick
    /// just decided on: a fresh batch `estimate` over every task — the
    /// parked ones caught up to what eager rolling would have left —
    /// equals what `last_estimate()` materializes from the index,
    /// `select_naive` and `ranked_naive` over it equal the index's
    /// selection and ranking, and the tick's outcome is the one the
    /// reference alone would have produced.
    fn assert_tick_matches_policy_reference(rt: &AtroposRuntime, outcome: &TickOutcome) {
        use crate::config::PolicyKind;
        use crate::policy::{gain_terms, ranked_naive, select_naive, testutil::canon};
        let estimate = rt.last_estimate().map(canon);
        let mut inner = rt.inner.lock();
        inner.tasks.catch_up_parked();
        let fresh = crate::estimator::estimate(inner.tasks.iter(), &inner.resources);
        assert_eq!(estimate, Some(canon(fresh.clone())));
        let naive = select_naive(inner.cfg.policy, &fresh);
        assert_eq!(inner.policy_index.select(inner.cfg.policy), naive);
        let ranked = inner.policy_index.ranked();
        assert_eq!(ranked, ranked_naive(&fresh));
        assert_eq!(
            inner.policy_index.select(PolicyKind::MultiObjective),
            ranked.first().copied()
        );
        let hot = fresh.bottlenecked(inner.cfg.detector.min_contention);
        match outcome {
            TickOutcome::Idle => panic!("idle ticks do not settle the index"),
            TickOutcome::RegularOverload => assert!(hot.is_empty()),
            TickOutcome::ResourceOverload {
                resources,
                canceled,
                decision,
            } => {
                assert_eq!(resources, &hot);
                assert_eq!(decision.is_some(), naive.is_some());
                if let Some(key) = canceled {
                    assert_eq!(Some(*key), naive.map(|s| s.key));
                }
                if let Some(s) = naive {
                    assert_eq!(
                        inner.policy_index.gain_terms(s.task),
                        gain_terms(&fresh, s.task)
                    );
                }
            }
        }
    }

    /// One tick, with every non-idle outcome checked against the policy
    /// reference before anything else touches the state it decided on.
    fn checked_tick(rt: &AtroposRuntime) -> TickOutcome {
        let outcome = rt.tick();
        if outcome != TickOutcome::Idle {
            assert_tick_matches_policy_reference(rt, &outcome);
        }
        outcome
    }

    /// Drives a deterministic mixed workload — a lock hog, waiting
    /// victims, healthy churn, events on freed tasks and unregistered
    /// resources, an overload window with a cancellation — and returns
    /// every observable: per-tick outcomes and final stats. Every
    /// non-idle tick is checked against the policy reference.
    fn drive_scripted(mut cfg: AtroposConfig, feed: Feed) -> (Vec<TickOutcome>, RuntimeStats) {
        use EventKind::{Free, Get, SlowBy};
        cfg.detector.slo_latency_ns = 10 * MS;
        cfg.detector.window_ns = 100 * MS;
        cfg.cancel_min_interval_ns = 0;
        let clock = Arc::new(VirtualClock::new());
        let rt = AtroposRuntime::new(cfg, clock.clone());
        rt.set_cancel_action(|_| {});
        let lock = rt.register_resource("lock", ResourceType::Lock);
        let pool = rt.register_resource("pool", ResourceType::Memory);

        let hog = rt.create_cancel(Some(99));
        rt.unit_started(hog);
        rt.report_progress(hog, 10, 100);
        feed.trace(&rt, hog, lock, 1, Get);

        let mut victims = Vec::new();
        for i in 0..10 {
            let v = rt.create_cancel(Some(i));
            rt.unit_started(v);
            feed.trace(&rt, v, lock, 1, SlowBy);
            victims.push(v);
        }

        // A task freed with events still buffered, then posthumous events.
        let ghost = rt.create_cancel(Some(55));
        feed.trace(&rt, ghost, pool, 7, Get);
        rt.free_cancel(ghost);
        feed.trace(&rt, ghost, pool, 7, Get); // ignored: task gone
        feed.trace(&rt, hog, ResourceId(9), 1, Get); // ignored: unknown resource

        let mut outcomes = Vec::new();
        let mut tick = || outcomes.push(checked_tick(&rt));
        // Window 0: healthy completions with steady pool traffic.
        for step in 1..=20u64 {
            clock.advance_to(SimTime::from_nanos(step * 5 * MS / 2));
            let t = rt.create_cancel(None);
            rt.unit_started(t);
            feed.trace(&rt, t, pool, step % 5 + 1, Get);
            feed.trace(&rt, t, pool, step % 5 + 1, Free);
            rt.unit_finished(t);
            rt.free_cancel(t);
        }
        clock.advance_to(SimTime::from_millis(100));
        tick();

        // Window 1: a stall — two victims finish far over the SLO.
        for step in 1..=10u64 {
            clock.advance_to(SimTime::from_nanos(100 * MS + step * 9 * MS));
            let t = rt.create_cancel(None);
            rt.unit_started(t);
            feed.trace(&rt, t, lock, 1, SlowBy);
            rt.unit_finished(t);
            rt.free_cancel(t);
        }
        clock.advance_to(SimTime::from_millis(195));
        rt.unit_finished(victims[0]);
        rt.unit_finished(victims[1]);
        clock.advance_to(SimTime::from_millis(200));
        tick();
        clock.advance_to(SimTime::from_millis(300));
        tick();

        (outcomes, rt.stats())
    }

    fn tiny_rings() -> AtroposConfig {
        AtroposConfig {
            ingest_stripes: 1,
            ingest_stripe_capacity: 8,
            ..AtroposConfig::default()
        }
    }

    /// The ingest path's correctness contract on the scripted workload:
    /// deferred batch replay is observationally identical to applying
    /// every event before the next call returns — same tick outcomes,
    /// same event accounting, same cancellations — whether "immediately"
    /// means the production path drained after every emit or the
    /// sequential reference.
    #[test]
    fn deferred_ingest_matches_per_event_application() {
        let sequential = drive_scripted(AtroposConfig::default(), Feed::Sequential);
        for feed in [Feed::DrainEveryEmit, Feed::Deferred] {
            let got = drive_scripted(AtroposConfig::default(), feed);
            assert_eq!(sequential.0, got.0, "{feed:?}: tick outcomes diverged");
            assert_eq!(sequential.1, got.1, "{feed:?}: stats diverged");
        }
        assert!(sequential.1.trace_events > 0);
        assert_eq!(sequential.1.ignored_events, 2);
        assert_eq!(sequential.1.cancel.issued, 1);
    }

    /// With rings far smaller than the event volume, mid-window flushes
    /// kick in; single-threaded they are lossless, so everything except
    /// the flush counter still matches per-event application exactly.
    #[test]
    fn tiny_rings_flush_mid_window_without_divergence() {
        let sequential = drive_scripted(tiny_rings(), Feed::Sequential);
        let deferred = drive_scripted(tiny_rings(), Feed::Deferred);
        assert_eq!(sequential.0, deferred.0, "tick outcomes diverged");
        assert!(deferred.1.mid_window_flushes > 0);
        assert_eq!(sequential.1.mid_window_flushes, 0);
        let mut normalized = deferred.1;
        normalized.mid_window_flushes = 0;
        assert_eq!(
            sequential.1, normalized,
            "stats diverged beyond flush count"
        );
    }

    /// The flush threshold is the configured logical capacity, not the
    /// rounded ring length: `ingest_stripe_capacity` pushes fit, the next
    /// one flushes, and a single-threaded flush loses nothing.
    #[test]
    fn rings_flush_at_exactly_the_configured_capacity() {
        let cfg = AtroposConfig {
            ingest_stripe_capacity: 9, // ring rounds up to 16 cells
            ..tiny_rings()
        };
        let rt = AtroposRuntime::new(cfg, Arc::new(VirtualClock::new()));
        let pool = rt.register_resource("pool", ResourceType::Memory);
        let t = rt.create_cancel(None);
        for _ in 0..9 {
            rt.get_resource(t, pool, 1);
        }
        assert_eq!(rt.ingest_pending(), 9);
        assert_eq!(rt.stats_relaxed().mid_window_flushes, 0);
        rt.get_resource(t, pool, 1);
        assert_eq!(rt.ingest_pending(), 1, "the flush replayed the full ring");
        let s = rt.stats();
        assert_eq!(s.mid_window_flushes, 1);
        assert_eq!(s.trace_events, 10);
        assert_eq!(s.ignored_events, 0);
    }

    /// Every drain point advances exactly one epoch.
    #[test]
    fn drain_points_advance_epochs() {
        let (_c, rt) = setup(10);
        assert_eq!(rt.ingest_epochs(), 0);
        let pool = rt.register_resource("pool", ResourceType::Memory); // drain 1
        let t = rt.create_cancel(None);
        rt.get_resource(t, pool, 1);
        let epochs_before = rt.ingest_epochs();
        rt.stats(); // drains
        assert_eq!(rt.ingest_epochs(), epochs_before + 1);
        rt.tick(); // drains again
        assert_eq!(rt.ingest_epochs(), epochs_before + 2);
        rt.stats_relaxed(); // must NOT drain
        assert_eq!(rt.ingest_epochs(), epochs_before + 2);
    }

    /// The index's correctness contract at runtime level: for every
    /// policy kind, each non-idle tick of the scripted workload decided
    /// exactly what the policy reference (`estimate` + `select_naive` +
    /// `gain_terms`) decides on the same task state — asserted inside
    /// `drive_scripted` after every such tick.
    #[test]
    fn index_matches_policy_reference_on_every_candidate_tick() {
        use crate::config::PolicyKind;
        for kind in [
            PolicyKind::MultiObjective,
            PolicyKind::Heuristic,
            PolicyKind::CurrentUsage,
        ] {
            let (outcomes, stats) =
                drive_scripted(AtroposConfig::default().with_policy(kind), Feed::Deferred);
            assert!(stats.candidates > 0, "workload raised no candidate");
            assert!(
                outcomes
                    .iter()
                    .any(|o| matches!(o, TickOutcome::ResourceOverload { .. })),
                "{kind:?}: no resource overload to check"
            );
        }
    }

    /// One step of the random op sequence the ingest lemma is proven on.
    /// Tasks live in eight slots; a slot keeps its last `TaskId` after
    /// `FreeCancel`, so later events on it are posthumous.
    #[derive(Debug, Clone)]
    enum Op {
        Create(usize),
        FreeCancel(usize),
        Trace(usize, u32, u64, EventKind),
        Progress(usize, u64),
        UnitStart(usize),
        UnitFinish(usize),
        Advance(u64),
        Tick,
        /// A stretch with nothing but ticks, each after its own advance
        /// (jittered periods, zero included): where steady tasks park, so
        /// whatever comes next finds them parked.
        Quiet(Vec<u64>),
        Stats,
        Register,
        ForceMode(TimestampMode),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let slot = 0usize..8;
        // Resource ids 0..2 are registered up front, 2 and 3 only once
        // `Register` ran (events on them before that are ignored).
        let trace = |kind| {
            (0usize..8, 0u32..4, 1u64..50).prop_map(move |(s, r, a)| Op::Trace(s, r, a, kind))
        };
        prop_oneof![
            slot.clone().prop_map(Op::Create),
            slot.clone().prop_map(Op::Create),
            slot.clone().prop_map(Op::FreeCancel),
            trace(EventKind::Get),
            trace(EventKind::Get),
            trace(EventKind::Free),
            trace(EventKind::Free),
            trace(EventKind::SlowBy),
            trace(EventKind::SlowBy),
            (slot.clone(), 0u64..120).prop_map(|(s, p)| Op::Progress(s, p)),
            slot.clone().prop_map(Op::UnitStart),
            slot.clone().prop_map(Op::UnitStart),
            slot.prop_map(Op::UnitFinish),
            (0u64..3 * MS).prop_map(Op::Advance),
            (0u64..3 * MS).prop_map(Op::Advance),
            Just(Op::Tick),
            prop::collection::vec(0u64..3 * MS, 2..5).prop_map(Op::Quiet),
            Just(Op::Stats),
            Just(Op::Register),
            any::<bool>().prop_map(|p| Op::ForceMode(if p {
                TimestampMode::Precise
            } else {
                TimestampMode::Sampled
            })),
        ]
    }

    /// Everything one run of an op sequence lets the application observe.
    #[derive(Debug, PartialEq)]
    struct Observed {
        /// Per tick: the outcome, the timestamp mode it left behind, and
        /// — for a non-idle one — the estimate it decided on.
        ticks: Vec<(TickOutcome, TimestampMode, Option<EstimatorSnapshot>)>,
        stats: RuntimeStats,
        /// Per-task accounting of the final snapshot.
        tasks: String,
    }

    /// How often a run met the visit set's edge cases; not part of
    /// [`Observed`], since the eager reference never parks anything.
    #[derive(Debug, Default)]
    struct VisitCoverage {
        /// Σ over ticks of tasks left parked.
        parked_task_ticks: usize,
        /// Parked tasks touched back into the visit set.
        unparks: usize,
        /// Tasks retired while parked.
        parked_retires: usize,
        /// Registrations that found tasks parked.
        parked_registers: usize,
    }

    /// Puts every task in the visit set, so the next tick rolls and
    /// re-derives all of them: the eager reference. Every task is back
    /// before the roll after the one that parked it, so catch-up never has
    /// a missed roll to charge and the closed form never has a holder.
    fn visit_all(rt: &AtroposRuntime) {
        let mut inner = rt.inner.lock();
        let ids: Vec<TaskId> = inner.tasks.iter().map(|t| t.id).collect();
        for id in ids {
            inner.touch(id);
        }
    }

    fn run_ops(ops: &[Op], cfg: AtroposConfig, feed: Feed, eager: bool) -> Observed {
        run_ops_covered(ops, cfg, feed, eager).0
    }

    fn run_ops_covered(
        ops: &[Op],
        cfg: AtroposConfig,
        feed: Feed,
        eager: bool,
    ) -> (Observed, VisitCoverage) {
        let clock = Arc::new(VirtualClock::new());
        let rt = AtroposRuntime::new(cfg, clock.clone());
        rt.set_cancel_action(|_| {});
        rt.register_resource("lock", ResourceType::Lock);
        rt.register_resource("pool", ResourceType::Memory);
        let mut slots: [Option<TaskId>; 8] = [None; 8];
        let mut live = [false; 8];
        let mut ticks = Vec::new();
        let mut seen = VisitCoverage::default();
        let census = || {
            let inner = rt.inner.lock();
            (inner.tasks.len(), inner.tasks.len() - inner.tasks.visited())
        };
        let tick = |ticks: &mut Vec<_>, seen: &mut VisitCoverage| {
            if eager {
                visit_all(&rt);
            }
            let outcome = checked_tick(&rt);
            let estimate = (outcome != TickOutcome::Idle)
                .then(|| rt.last_estimate().map(crate::policy::testutil::canon))
                .flatten();
            ticks.push((outcome, rt.timestamp_mode(), estimate));
            seen.parked_task_ticks += census().1;
        };
        for op in ops {
            let (tasks_before, parked_before) = census();
            match op {
                &Op::Create(s) => {
                    if !live[s] {
                        slots[s] = Some(rt.create_cancel(Some(s as u64)));
                        live[s] = true;
                    }
                }
                &Op::FreeCancel(s) => {
                    if let Some(t) = slots[s] {
                        rt.free_cancel(t);
                        live[s] = false;
                    }
                }
                &Op::Trace(s, r, amount, kind) => {
                    if let Some(t) = slots[s] {
                        feed.trace(&rt, t, ResourceId(r), amount, kind);
                    }
                }
                &Op::Progress(s, done) => {
                    if let Some(t) = slots[s] {
                        rt.report_progress(t, done, 100);
                    }
                }
                &Op::UnitStart(s) => {
                    if let Some(t) = slots[s] {
                        rt.unit_started(t);
                    }
                }
                &Op::UnitFinish(s) => {
                    if let Some(t) = slots[s] {
                        rt.unit_finished(t);
                    }
                }
                &Op::Advance(ns) => clock.advance_to(SimTime::from_nanos(clock.now_ns() + ns)),
                Op::Tick => tick(&mut ticks, &mut seen),
                Op::Quiet(periods) => {
                    for ns in periods {
                        clock.advance_to(SimTime::from_nanos(clock.now_ns() + ns));
                        tick(&mut ticks, &mut seen);
                    }
                }
                Op::Stats => {
                    rt.stats();
                }
                Op::Register => {
                    if rt.inner.lock().resources.len() < 4 {
                        rt.register_resource("late", ResourceType::Queue);
                        seen.parked_registers += usize::from(parked_before > 0);
                    }
                }
                &Op::ForceMode(mode) => rt.set_timestamp_mode(mode),
            }
            if !matches!(op, Op::Tick | Op::Quiet(_) | Op::Register) {
                let (tasks, parked) = census();
                if tasks < tasks_before {
                    seen.parked_retires += parked_before - parked;
                } else {
                    seen.unparks += parked_before - parked;
                }
            }
        }
        let observed = Observed {
            ticks,
            stats: rt.stats(),
            tasks: format!("{:?}", rt.debug_snapshot().tasks),
        };
        (observed, seen)
    }

    fn lemma_config(tiny: bool) -> AtroposConfig {
        let mut cfg = if tiny {
            tiny_rings()
        } else {
            AtroposConfig::default()
        };
        cfg.detector.window_ns = 10 * MS;
        cfg.detector.slo_latency_ns = MS;
        cfg.detector.min_contention = 0.05;
        cfg.cancel_min_interval_ns = 0;
        cfg
    }

    proptest! {
        /// The ingest lemma: on any single-threaded op sequence —
        /// create/free, get/free/slow_by on live, freed and unregistered
        /// ids, progress, unit lifecycle, late registration, forced and
        /// detector-driven timestamp-mode switches, ticks at arbitrary
        /// times — the sequential reference, the production path drained
        /// after every emit, and the production path drained only at its
        /// drain points are observationally identical: tick outcomes,
        /// timestamp modes, `RuntimeStats` and per-task accounting. Only
        /// `mid_window_flushes` may differ, and only under deferred
        /// replay (per-event application never fills a ring).
        ///
        /// The visit-set lemma rides on the same sequences: the reference
        /// is *eager* — every task visited, hence rolled and re-derived,
        /// at every tick — so the three production runs, which park
        /// steady tasks, sum parked holds in closed form and catch
        /// records up on touch, must reproduce its estimates
        /// (`ResourceSnapshot::hold_ns` included) and its per-task
        /// `total_hold_ns` across jittered tick periods, park → touch →
        /// re-park cycles, retirement and registration while parked.
        #[test]
        fn deferred_replay_equals_sequential_application(
            ops in prop::collection::vec(op_strategy(), 0..1500),
            tiny in any::<bool>(),
        ) {
            let eager = run_ops(&ops, lemma_config(tiny), Feed::Sequential, true);
            prop_assert_eq!(eager.stats.mid_window_flushes, 0);
            let sequential = run_ops(&ops, lemma_config(tiny), Feed::Sequential, false);
            prop_assert_eq!(&eager, &sequential);
            let every_emit = run_ops(&ops, lemma_config(tiny), Feed::DrainEveryEmit, false);
            prop_assert_eq!(&eager, &every_emit);
            let mut deferred = run_ops(&ops, lemma_config(tiny), Feed::Deferred, false);
            deferred.stats.mid_window_flushes = 0;
            prop_assert_eq!(&eager, &deferred);
        }
    }

    /// The lemma is only as strong as the sequences it samples: the same
    /// strategy must reach candidate ticks, cancellations, detector-driven
    /// mode switches, ignored events and (with tiny rings) mid-window
    /// flushes — and, for the visit set, parked tasks that are touched
    /// again, retired, or found parked by a registration.
    #[test]
    fn lemma_op_sequences_reach_the_interesting_states() {
        let mut rng = proptest::TestRng::deterministic("lemma_coverage");
        let strategy = prop::collection::vec(op_strategy(), 1000..1500);
        let (mut overloads, mut issued, mut precise, mut ignored, mut flushes) = (0, 0, 0, 0, 0);
        let mut visits = VisitCoverage::default();
        for case in 0..16 {
            let ops = strategy.sample(&mut rng);
            let (seen, visit) =
                run_ops_covered(&ops, lemma_config(case % 2 == 0), Feed::Deferred, false);
            overloads += seen.stats.resource_overloads;
            issued += seen.stats.cancel.issued;
            precise += seen
                .ticks
                .iter()
                .filter(|(_, mode, _)| *mode == TimestampMode::Precise)
                .count();
            ignored += seen.stats.ignored_events;
            flushes += seen.stats.mid_window_flushes;
            visits.parked_task_ticks += visit.parked_task_ticks;
            visits.unparks += visit.unparks;
            visits.parked_retires += visit.parked_retires;
            visits.parked_registers += visit.parked_registers;
        }
        assert!(overloads >= 16, "only {overloads} resource overloads");
        assert!(issued >= 16, "only {issued} cancellations");
        assert!(precise >= 16, "only {precise} precise-mode ticks");
        assert!(
            ignored > 0 && flushes > 0,
            "{ignored} ignored, {flushes} flushes"
        );
        assert!(
            visits.parked_task_ticks >= 1000
                && visits.unparks >= 100
                && visits.parked_retires >= 16
                && visits.parked_registers >= 4,
            "{visits:?}"
        );
    }

    /// A parked task's hold is charged lazily; introspection is one of the
    /// catch-up points. 64 residents pin a page and park, ticks of
    /// different lengths pass (one of zero length), and the snapshot still
    /// shows every hold running since the acquire.
    #[test]
    fn parked_holds_are_caught_up_by_debug_snapshot() {
        let (clock, rt) = setup(10);
        let pool = rt.register_resource("pool", ResourceType::Memory);
        let lock = rt.register_resource("lock", ResourceType::Lock);
        let residents: Vec<TaskId> = (0..64).map(|k| rt.create_cancel(Some(k))).collect();
        for &t in &residents {
            rt.get_resource(t, pool, 1);
        }
        let holder = rt.create_cancel(Some(99));
        rt.get_resource(holder, lock, 1);
        for at in [100, 200, 250, 250, 410] {
            clock.advance_to(SimTime::from_millis(at));
            assert_eq!(rt.tick(), TickOutcome::Idle);
        }
        {
            let inner = rt.inner.lock();
            // The LOCK holder's gain is hold time: it looks as idle as the
            // residents but must stay visited.
            assert_eq!(inner.tasks.visited(), 1);
            assert_eq!(inner.tasks.len(), 65);
        }
        let snap = rt.debug_snapshot();
        for t in &snap.tasks {
            let u = &t.usage[if t.key == TaskKey(99) { lock } else { pool }.index()];
            assert_eq!((u.held, u.total_hold_ns), (1, 410 * MS), "{:?}", t.key);
        }
        // Retiring a parked resident and touching another changes nothing
        // for the rest.
        rt.free_cancel(residents[0]);
        rt.report_progress(residents[1], 1, 2);
        clock.advance_to(SimTime::from_millis(500));
        rt.tick();
        let snap = rt.debug_snapshot();
        assert_eq!(snap.tasks.len(), 64);
        for t in &snap.tasks {
            let hold = t.usage.iter().map(|u| u.total_hold_ns).sum::<u64>();
            assert_eq!(hold, 500 * MS, "{:?}", t.key);
        }
    }

    #[test]
    fn ingest_pending_drains_on_stats() {
        let (_c, rt) = setup(10);
        let pool = rt.register_resource("pool", ResourceType::Memory);
        let t = rt.create_cancel(None);
        rt.get_resource(t, pool, 1);
        rt.get_resource(t, pool, 2);
        assert_eq!(rt.ingest_pending(), 2);
        let s = rt.stats();
        assert_eq!(s.trace_events, 2);
        assert_eq!(rt.ingest_pending(), 0);
    }

    #[test]
    fn cancel_key_invokes_initiator_with_safeguards() {
        let (_c, rt) = setup(10);
        let canceled = Arc::new(AtomicU64::new(0));
        let c2 = canceled.clone();
        rt.set_cancel_action(move |key| {
            c2.store(key.0, Ordering::SeqCst);
        });
        let t = rt.create_cancel(Some(7));
        assert_eq!(rt.cancel_key(TaskKey(7)), CancelDecision::Issued);
        assert_eq!(canceled.load(Ordering::SeqCst), 7);
        // Fairness still applies: a key is canceled at most once.
        assert_eq!(rt.cancel_key(TaskKey(7)), CancelDecision::AlreadyCanceled);
        // The task record observed the request.
        assert_eq!(
            rt.inner.lock().tasks.get(t).unwrap().state,
            TaskState::CancelRequested
        );
        // An unknown key still flows to the initiator (the task may live
        // on another node or have just finished); fairness records it.
        assert_eq!(rt.cancel_key(TaskKey(8)), CancelDecision::Issued);
    }

    /// `CancelRequested` means the initiator was invoked. A request the
    /// cancel manager refuses — here the rate limiter — leaves the task,
    /// and `TaskDebug::cancel_requested`, untouched.
    #[test]
    fn refused_cancel_requests_leave_the_task_running() {
        let clock = Arc::new(VirtualClock::new());
        let cfg = AtroposConfig {
            cancel_min_interval_ns: 50 * MS,
            ..AtroposConfig::default()
        };
        let rt = AtroposRuntime::new(cfg, clock.clone());
        rt.set_cancel_action(|_| {});
        let _first = rt.create_cancel(Some(1));
        let _second = rt.create_cancel(Some(2));
        assert_eq!(rt.cancel_key(TaskKey(1)), CancelDecision::Issued);
        clock.advance_to(SimTime::from_millis(1));
        assert_eq!(rt.cancel_key(TaskKey(2)), CancelDecision::RateLimited);
        let requested = |key| {
            let snap = rt.debug_snapshot();
            snap.task_by_key(TaskKey(key)).unwrap().cancel_requested
        };
        assert!(requested(1));
        assert!(!requested(2), "the initiator was never invoked for key 2");
        clock.advance_to(SimTime::from_millis(60));
        assert_eq!(rt.cancel_key(TaskKey(2)), CancelDecision::Issued);
        assert!(requested(2));
    }

    #[test]
    fn stats_relaxed_does_not_drain() {
        let (_c, rt) = setup(10);
        let pool = rt.register_resource("pool", ResourceType::Memory);
        let t = rt.create_cancel(None);
        rt.get_resource(t, pool, 1);
        assert_eq!(rt.ingest_pending(), 1);
        let s = rt.stats_relaxed();
        assert_eq!(s.trace_events, 0, "relaxed snapshot must not replay");
        assert_eq!(rt.ingest_pending(), 1, "buffered event must survive");
        assert_eq!(rt.stats().trace_events, 1);
    }

    /// A [`VirtualClock`] that counts its reads.
    struct CountingClock {
        inner: VirtualClock,
        reads: AtomicU64,
    }

    impl Clock for CountingClock {
        fn now_ns(&self) -> u64 {
            self.reads.fetch_add(1, Ordering::Relaxed);
            self.inner.now_ns()
        }
    }

    /// The request path reads the clock only where the value is used: a
    /// trace event for its stamp, a unit boundary for its latency, and
    /// `free_cancel` only to report how long a cancelled task took to go.
    #[test]
    fn request_verbs_read_the_clock_only_where_the_value_is_used() {
        use crate::record::DecisionEvent;
        struct Sink(parking_lot::Mutex<Vec<DecisionEvent>>);
        impl Recorder for Sink {
            fn record(&self, event: DecisionEvent) {
                self.0.lock().push(event);
            }
        }
        let clock = Arc::new(CountingClock {
            inner: VirtualClock::new(),
            reads: AtomicU64::new(0),
        });
        let rt = AtroposRuntime::new(AtroposConfig::default(), clock.clone());
        let sink = Arc::new(Sink(parking_lot::Mutex::new(Vec::new())));
        rt.set_recorder(sink.clone());
        rt.set_cancel_action(|_| {});
        let pool = rt.register_resource("pool", ResourceType::Memory);
        let reads = |verb: &'static str, f: &dyn Fn()| {
            let before = clock.reads.load(Ordering::Relaxed);
            f();
            (verb, clock.reads.load(Ordering::Relaxed) - before)
        };
        let t = rt.create_cancel(Some(1));
        let got = vec![
            reads("create_cancel", &|| {
                rt.create_cancel(None);
            }),
            reads("unit_started", &|| rt.unit_started(t)),
            reads("get", &|| rt.get_resource(t, pool, 1)),
            reads("free", &|| rt.free_resource(t, pool, 1)),
            reads("slow_by", &|| rt.slow_by_resource(t, pool, 1)),
            reads("report_progress", &|| rt.report_progress(t, 1, 2)),
            reads("unit_finished", &|| {
                rt.unit_finished(t);
            }),
            reads("free_cancel, never cancelled", &|| rt.free_cancel(t)),
        ];
        let expected = [
            ("create_cancel", 0),
            ("unit_started", 1),
            ("get", 1),
            ("free", 1),
            ("slow_by", 1),
            ("report_progress", 0),
            ("unit_finished", 1),
            ("free_cancel, never cancelled", 0),
        ];
        assert_eq!(got, expected);

        let victim = rt.create_cancel(Some(7));
        // Issued at a non-zero time: issue time 0 marks a propagated key.
        clock.inner.advance_to(SimTime::from_millis(2));
        assert_eq!(rt.cancel_key(TaskKey(7)), CancelDecision::Issued);
        clock.inner.advance_to(SimTime::from_millis(5));
        assert_eq!(
            reads("free_cancel, cancelled", &|| rt.free_cancel(victim)).1,
            1
        );
        let completed: Vec<_> = sink
            .0
            .lock()
            .iter()
            .filter_map(|e| match e {
                DecisionEvent::CancelCompleted {
                    key,
                    time_to_cancel_ns,
                    ..
                } => Some((*key, *time_to_cancel_ns)),
                _ => None,
            })
            .collect();
        assert_eq!(completed, vec![(TaskKey(7), 3 * MS)]);
    }

    #[test]
    fn forced_timestamp_mode_sticks_until_tick() {
        let (_c, rt) = setup(10);
        rt.set_timestamp_mode(TimestampMode::Precise);
        assert_eq!(rt.timestamp_mode(), TimestampMode::Precise);
        rt.tick(); // a calm tick returns the detector-driven mode
        assert_eq!(rt.timestamp_mode(), TimestampMode::Sampled);
    }
}
