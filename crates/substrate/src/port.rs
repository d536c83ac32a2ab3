//! The runtime-facing port and the cancel-initiator boundary.
//!
//! [`RuntimePort`] is the Figure 6 API restated as an object-safe trait:
//! integration calls (task scoping, resource registration), tracing calls
//! (get/free/slow_by), the performance signal (progress, unit lifecycle),
//! and the periodic driver (`tick`). [`AtroposRuntime`] is the canonical
//! implementation; anything else implementing the trait is middleware
//! over an inner port (see [`ProbePort`] here and `FaultInjector` in the
//! chaos crate).
//!
//! Cancellation crosses the port in the *opposite* direction — the
//! runtime calls the application — so it gets its own trait:
//! [`CancelInitiator`] bundles the cancel leg with the re-execution and
//! drop legs of the Figure 7 contract. Installing an initiator through a
//! middleware stack lets each layer interpose on deliveries (the chaos
//! `FailCancel`/`DelayCancel` faults are exactly that).
//!
//! Registering an initiator is *observable*: with none installed the
//! cancel manager answers `CancelDecision::NoInitiator` and issues
//! nothing. Substrates that run with cancellation disabled must therefore
//! skip [`RuntimePort::install_initiator`] entirely rather than install a
//! no-op.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use atropos::{AtroposRuntime, ResourceId, ResourceType, TaskId, TaskKey, TickOutcome};
use atropos_sim::Clock;

/// The application side of cancellation (Figure 7): the runtime invokes
/// these with the task's *key*. Only `cancel` is mandatory; the
/// re-execution and drop legs default to no-ops for integrations that
/// park nothing.
///
/// **Delivery context:** the runtime may invoke an initiator while
/// holding runtime-internal locks (the canonical implementation delivers
/// from inside `tick`). An initiator must therefore only *signal* — raise
/// a flag, enqueue an abort — and never synchronously run unwinding that
/// re-enters the port (`free`, `free_cancel`, …) on the delivering
/// thread. Cooperative tokens satisfy this trivially; detach-style
/// initiators (the async substrate's abort handles) must defer the
/// actual teardown to their own execution context.
pub trait CancelInitiator: Send + Sync {
    /// Cancel the work registered under `key` at its next safe checkpoint.
    fn cancel(&self, key: TaskKey);

    /// A previously canceled task should be retried (§4 fairness).
    fn reexec(&self, _key: TaskKey) {}

    /// A parked task missed its SLO deadline and is abandoned.
    fn drop_parked(&self, _key: TaskKey) {}
}

/// Adapter turning a plain closure into a [`CancelInitiator`] with no-op
/// re-execution and drop legs.
pub struct CancelFn<F>(pub F);

impl<F: Fn(TaskKey) + Send + Sync> CancelInitiator for CancelFn<F> {
    fn cancel(&self, key: TaskKey) {
        (self.0)(key)
    }
}

/// The single runtime-facing surface every substrate speaks (Figure 6).
///
/// Object-safe so cross-cutting layers can wrap an `Arc<dyn RuntimePort>`
/// and be stacked: app → injector → probe/recorder → runtime.
pub trait RuntimePort: Send + Sync {
    // -- integration (Figure 6a) --

    /// Registers an application resource for tracking.
    fn register_resource(&self, name: &str, rtype: ResourceType) -> ResourceId;

    /// Marks the beginning of a cancellable task's scope (`createCancel`).
    fn create_cancel(&self, key: Option<u64>) -> TaskId;

    /// Ends a cancellable task's scope (`freeCancel`).
    fn free_cancel(&self, task: TaskId);

    /// Overrides whether the policy may cancel this task.
    fn set_cancellable(&self, task: TaskId, cancellable: bool);

    /// Marks a task as background (no SLO).
    fn mark_background(&self, task: TaskId);

    /// Installs the application's cancellation initiator (`setCancelAction`
    /// plus the re-execution and drop legs). See the module docs: this
    /// call is observable — skip it to run without cancellation.
    fn install_initiator(&self, initiator: Arc<dyn CancelInitiator>);

    // -- tracing (Figure 6b) --

    /// `task` acquired `amount` units of `rid` (`getResource`).
    fn get(&self, task: TaskId, rid: ResourceId, amount: u64);

    /// `task` released `amount` units (`freeResource`).
    fn free(&self, task: TaskId, rid: ResourceId, amount: u64);

    /// `task` is delayed by the resource (`slowByResource`).
    fn slow_by(&self, task: TaskId, rid: ResourceId, amount: u64);

    /// GetNext progress: `done` of `total` work units.
    fn progress(&self, task: TaskId, done: u64, total: u64);

    // -- performance signal --

    /// A work unit (one request) started on this task.
    fn unit_started(&self, task: TaskId);

    /// The open work unit completed; returns the measured latency.
    fn unit_finished(&self, task: TaskId) -> Option<u64>;

    /// An externally dropped request (keeps the detector's series whole).
    fn record_drop(&self);

    // -- the periodic driver --

    /// One detection → estimation → policy → cancellation cycle.
    fn tick(&self) -> TickOutcome;

    /// The clock timestamps are read from.
    fn clock(&self) -> Arc<dyn Clock>;
}

impl RuntimePort for AtroposRuntime {
    fn register_resource(&self, name: &str, rtype: ResourceType) -> ResourceId {
        AtroposRuntime::register_resource(self, name, rtype)
    }

    fn create_cancel(&self, key: Option<u64>) -> TaskId {
        AtroposRuntime::create_cancel(self, key)
    }

    fn free_cancel(&self, task: TaskId) {
        AtroposRuntime::free_cancel(self, task)
    }

    fn set_cancellable(&self, task: TaskId, cancellable: bool) {
        AtroposRuntime::set_cancellable(self, task, cancellable)
    }

    fn mark_background(&self, task: TaskId) {
        AtroposRuntime::mark_background(self, task)
    }

    fn install_initiator(&self, initiator: Arc<dyn CancelInitiator>) {
        let i = initiator.clone();
        self.set_cancel_action(move |key| i.cancel(key));
        let i = initiator.clone();
        self.set_reexec_action(move |key| i.reexec(key));
        self.set_drop_action(move |key| initiator.drop_parked(key));
    }

    fn get(&self, task: TaskId, rid: ResourceId, amount: u64) {
        self.get_resource(task, rid, amount)
    }

    fn free(&self, task: TaskId, rid: ResourceId, amount: u64) {
        self.free_resource(task, rid, amount)
    }

    fn slow_by(&self, task: TaskId, rid: ResourceId, amount: u64) {
        self.slow_by_resource(task, rid, amount)
    }

    fn progress(&self, task: TaskId, done: u64, total: u64) {
        self.report_progress(task, done, total)
    }

    fn unit_started(&self, task: TaskId) {
        AtroposRuntime::unit_started(self, task)
    }

    fn unit_finished(&self, task: TaskId) -> Option<u64> {
        AtroposRuntime::unit_finished(self, task)
    }

    fn record_drop(&self) {
        AtroposRuntime::record_drop(self)
    }

    fn tick(&self) -> TickOutcome {
        AtroposRuntime::tick(self)
    }

    fn clock(&self) -> Arc<dyn Clock> {
        AtroposRuntime::clock(self)
    }
}

/// Per-verb call counts observed by a [`ProbePort`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCounts {
    /// `get` calls.
    pub gets: u64,
    /// `free` calls.
    pub frees: u64,
    /// `slow_by` calls.
    pub slows: u64,
    /// `progress` calls.
    pub progress: u64,
    /// `unit_started` calls.
    pub units_started: u64,
    /// `unit_finished` calls.
    pub units_finished: u64,
    /// `tick` calls.
    pub ticks: u64,
}

/// The simplest useful middleware: forwards every call to the inner port
/// and counts the traffic with relaxed atomics. Doubles as the
/// "recorder" stage in the documented stacking order and as the overhead
/// yardstick for the port-dispatch benchmarks.
pub struct ProbePort {
    inner: Arc<dyn RuntimePort>,
    gets: AtomicU64,
    frees: AtomicU64,
    slows: AtomicU64,
    progress: AtomicU64,
    units_started: AtomicU64,
    units_finished: AtomicU64,
    ticks: AtomicU64,
}

impl ProbePort {
    /// Wraps `inner`, counting from zero.
    pub fn new(inner: Arc<dyn RuntimePort>) -> Self {
        Self {
            inner,
            gets: AtomicU64::new(0),
            frees: AtomicU64::new(0),
            slows: AtomicU64::new(0),
            progress: AtomicU64::new(0),
            units_started: AtomicU64::new(0),
            units_finished: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
        }
    }

    /// Snapshot of the counts so far.
    pub fn counts(&self) -> ProbeCounts {
        ProbeCounts {
            gets: self.gets.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
            slows: self.slows.load(Ordering::Relaxed),
            progress: self.progress.load(Ordering::Relaxed),
            units_started: self.units_started.load(Ordering::Relaxed),
            units_finished: self.units_finished.load(Ordering::Relaxed),
            ticks: self.ticks.load(Ordering::Relaxed),
        }
    }
}

impl RuntimePort for ProbePort {
    fn register_resource(&self, name: &str, rtype: ResourceType) -> ResourceId {
        self.inner.register_resource(name, rtype)
    }

    fn create_cancel(&self, key: Option<u64>) -> TaskId {
        self.inner.create_cancel(key)
    }

    fn free_cancel(&self, task: TaskId) {
        self.inner.free_cancel(task)
    }

    fn set_cancellable(&self, task: TaskId, cancellable: bool) {
        self.inner.set_cancellable(task, cancellable)
    }

    fn mark_background(&self, task: TaskId) {
        self.inner.mark_background(task)
    }

    fn install_initiator(&self, initiator: Arc<dyn CancelInitiator>) {
        self.inner.install_initiator(initiator)
    }

    fn get(&self, task: TaskId, rid: ResourceId, amount: u64) {
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.inner.get(task, rid, amount)
    }

    fn free(&self, task: TaskId, rid: ResourceId, amount: u64) {
        self.frees.fetch_add(1, Ordering::Relaxed);
        self.inner.free(task, rid, amount)
    }

    fn slow_by(&self, task: TaskId, rid: ResourceId, amount: u64) {
        self.slows.fetch_add(1, Ordering::Relaxed);
        self.inner.slow_by(task, rid, amount)
    }

    fn progress(&self, task: TaskId, done: u64, total: u64) {
        self.progress.fetch_add(1, Ordering::Relaxed);
        self.inner.progress(task, done, total)
    }

    fn unit_started(&self, task: TaskId) {
        self.units_started.fetch_add(1, Ordering::Relaxed);
        self.inner.unit_started(task)
    }

    fn unit_finished(&self, task: TaskId) -> Option<u64> {
        self.units_finished.fetch_add(1, Ordering::Relaxed);
        self.inner.unit_finished(task)
    }

    fn record_drop(&self) {
        self.inner.record_drop()
    }

    fn tick(&self) -> TickOutcome {
        self.ticks.fetch_add(1, Ordering::Relaxed);
        self.inner.tick()
    }

    fn clock(&self) -> Arc<dyn Clock> {
        self.inner.clock()
    }
}

/// The ingest reference as middleware: forwards every call and drains
/// the runtime's buffered trace events after each tracing call, so every
/// event is applied before the next call returns (per-event application,
/// the production path at batch size one). The ingest differentials run
/// a corpus once through this and once bare and demand identical
/// outcomes: deferred batch replay ≡ immediate application. Must sit
/// directly on the runtime — a layer below it that holds events back
/// would re-batch them.
///
/// The port has no drain verb, so the drain is `free_cancel` of
/// `TaskId(0)`: `free_cancel` is a drain point, unknown ids are ignored,
/// and the runtime issues ids from 1.
pub struct DrainEveryEmit(pub Arc<dyn RuntimePort>);

impl DrainEveryEmit {
    fn drain(&self) {
        self.0.free_cancel(TaskId(0));
    }
}

impl RuntimePort for DrainEveryEmit {
    fn register_resource(&self, name: &str, rtype: ResourceType) -> ResourceId {
        self.0.register_resource(name, rtype)
    }

    fn create_cancel(&self, key: Option<u64>) -> TaskId {
        self.0.create_cancel(key)
    }

    fn free_cancel(&self, task: TaskId) {
        self.0.free_cancel(task)
    }

    fn set_cancellable(&self, task: TaskId, cancellable: bool) {
        self.0.set_cancellable(task, cancellable)
    }

    fn mark_background(&self, task: TaskId) {
        self.0.mark_background(task)
    }

    fn install_initiator(&self, initiator: Arc<dyn CancelInitiator>) {
        self.0.install_initiator(initiator)
    }

    fn get(&self, task: TaskId, rid: ResourceId, amount: u64) {
        self.0.get(task, rid, amount);
        self.drain();
    }

    fn free(&self, task: TaskId, rid: ResourceId, amount: u64) {
        self.0.free(task, rid, amount);
        self.drain();
    }

    fn slow_by(&self, task: TaskId, rid: ResourceId, amount: u64) {
        self.0.slow_by(task, rid, amount);
        self.drain();
    }

    fn progress(&self, task: TaskId, done: u64, total: u64) {
        self.0.progress(task, done, total)
    }

    fn unit_started(&self, task: TaskId) {
        self.0.unit_started(task)
    }

    fn unit_finished(&self, task: TaskId) -> Option<u64> {
        self.0.unit_finished(task)
    }

    fn record_drop(&self) {
        self.0.record_drop()
    }

    fn tick(&self) -> TickOutcome {
        self.0.tick()
    }

    fn clock(&self) -> Arc<dyn Clock> {
        self.0.clock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atropos::AtroposConfig;
    use atropos_sim::VirtualClock;

    fn runtime() -> Arc<AtroposRuntime> {
        let cfg = AtroposConfig {
            cancel_min_interval_ns: 0,
            ..AtroposConfig::default()
        };
        Arc::new(AtroposRuntime::new(cfg, Arc::new(VirtualClock::new())))
    }

    #[test]
    fn runtime_speaks_the_port_verbatim() {
        let rt = runtime();
        let port: Arc<dyn RuntimePort> = rt.clone();
        let rid = port.register_resource("pool", ResourceType::Memory);
        let t = port.create_cancel(Some(7));
        port.unit_started(t);
        port.get(t, rid, 3);
        port.free(t, rid, 1);
        port.slow_by(t, rid, 2);
        port.progress(t, 10, 100);
        assert!(port.unit_finished(t).is_some());
        port.free_cancel(t);
        let stats = rt.stats();
        assert_eq!(stats.trace_events, 3);
        assert_eq!(stats.completions, 1);
    }

    #[test]
    fn installed_initiator_receives_cancel_deliveries() {
        let rt = runtime();
        let port: Arc<dyn RuntimePort> = rt.clone();
        let hits = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let h = hits.clone();
        port.install_initiator(Arc::new(CancelFn(move |key: TaskKey| h.lock().push(key.0))));
        let _t = port.create_cancel(Some(42));
        rt.cancel_key(TaskKey(42));
        assert_eq!(hits.lock().clone(), vec![42]);
    }

    #[test]
    fn probe_counts_what_passes_through() {
        let rt = runtime();
        let probe = Arc::new(ProbePort::new(rt.clone()));
        let port: Arc<dyn RuntimePort> = probe.clone();
        let rid = port.register_resource("lock", ResourceType::Lock);
        let t = port.create_cancel(None);
        port.unit_started(t);
        port.get(t, rid, 1);
        port.get(t, rid, 1);
        port.free(t, rid, 2);
        port.slow_by(t, rid, 1);
        port.progress(t, 1, 2);
        port.unit_finished(t);
        port.tick();
        let c = probe.counts();
        assert_eq!(
            c,
            ProbeCounts {
                gets: 2,
                frees: 1,
                slows: 1,
                progress: 1,
                units_started: 1,
                units_finished: 1,
                ticks: 1,
            }
        );
        // Counted and forwarded: the runtime saw the same traffic.
        assert_eq!(rt.stats().trace_events, 4);
    }

    #[test]
    fn drain_every_emit_leaves_nothing_buffered() {
        let rt = runtime();
        let port = DrainEveryEmit(rt.clone());
        let rid = port.register_resource("pool", ResourceType::Memory);
        let t = port.create_cancel(None);
        port.get(t, rid, 3);
        assert_eq!(rt.ingest_pending(), 0);
        port.slow_by(t, rid, 1);
        assert_eq!(rt.ingest_pending(), 0);
        port.free(t, rid, 3);
        assert_eq!(rt.ingest_pending(), 0);
        // The drain itself is invisible: same counts, the task survives.
        assert_eq!(rt.stats_relaxed().trace_events, 3);
        assert_eq!(rt.stats_relaxed().ignored_events, 0);
        assert_eq!(rt.task_count(), 1);
    }
}
