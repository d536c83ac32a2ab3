//! The benchmark's only window into the program: a [`RuntimePort`] placed
//! between a substrate and the runtime through the substrates' own
//! `with_port` / `new_with_middleware` seams, and a [`CancelInitiator`]
//! wrapped around the application's.
//!
//! Untraced, it stamps what the end-to-end numbers need — when each request
//! entered and left its cancellable scope, every tick, every cancel delivery —
//! and forwards everything else untouched. Traced, it also times every call,
//! attributes it to the request it served, and keeps a span for it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use atropos::{ResourceId, ResourceType, TaskId, TaskKey, TickOutcome};
use atropos_sim::Clock;
use atropos_substrate::{CancelInitiator, RuntimePort};

use crate::outcome::Outcome;
use crate::spans::{Span, SpanId, NO_PARENT};
use crate::stats::{self, Hist};

/// What the port saw of one request, filled in as its calls pass. Relaxed
/// atomics: every reader runs after the threads that wrote have been joined.
#[derive(Default)]
pub struct Slot {
    /// Entry of `create_cancel` (the handler picked the request up).
    pub create_ns: AtomicU64,
    /// Return of `free_cancel` (the request is fully retired); 0 = never.
    pub free_ns: AtomicU64,
    /// 1 once `unit_finished` was called: the request completed rather than
    /// being dropped.
    pub finished: AtomicU64,
    /// Time inside port calls attributed to this request, and their count.
    pub port_ns: AtomicU64,
    pub port_calls: AtomicU64,
    /// Units of LOCK/QUEUE resources acquired and released by this request.
    /// (MEMORY is left out: a page outlives the request that loaded it.)
    pub held_gets: AtomicU64,
    pub held_frees: AtomicU64,
}

/// Per-request slots for a workload whose request keys are known up front:
/// victims are keyed `0..victims`, culprits `culprit_base..`.
pub struct RequestTable {
    victims: usize,
    culprit_base: u64,
    slots: Vec<Slot>,
    by_task: Mutex<HashMap<u64, usize>>,
}

impl RequestTable {
    pub fn new(victims: usize, culprits: usize, culprit_base: u64) -> Self {
        Self {
            victims,
            culprit_base,
            slots: (0..victims + culprits).map(|_| Slot::default()).collect(),
            by_task: Mutex::default(),
        }
    }

    fn slot_of_key(&self, key: u64) -> Option<usize> {
        let culprits = (self.slots.len() - self.victims) as u64;
        match key.checked_sub(self.culprit_base) {
            Some(i) => (i < culprits).then(|| self.victims + i as usize),
            None => (key < self.victims as u64).then_some(key as usize),
        }
    }

    fn key_of_slot(&self, slot: usize) -> u64 {
        match slot.checked_sub(self.victims) {
            Some(i) => self.culprit_base + i as u64,
            None => slot as u64,
        }
    }

    fn slot_of_task(&self, task: TaskId) -> Option<usize> {
        self.by_task
            .lock()
            .expect("task map poisoned")
            .get(&task.0)
            .copied()
    }

    pub fn victim(&self, i: usize) -> &Slot {
        &self.slots[i]
    }

    pub fn culprit(&self, i: usize) -> &Slot {
        &self.slots[self.victims + i]
    }
}

#[derive(Default)]
struct CallClass {
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl CallClass {
    fn add(&self, ns: u64) {
        self.calls.fetch_add(1, Relaxed);
        self.busy_ns.fetch_add(ns, Relaxed);
    }

    fn totals(&self) -> (u64, u64) {
        (self.calls.load(Relaxed), self.busy_ns.load(Relaxed))
    }
}

/// One `tick()` as the port saw it.
#[derive(Debug, Clone, Copy)]
pub struct TickRec {
    pub start_ns: u64,
    pub end_ns: u64,
    /// Outcome was `RegularOverload` or `ResourceOverload`.
    pub overloaded: bool,
    /// Time spent inside the application's initiator during this tick.
    pub deliver_ns: u64,
}

impl TickRec {
    /// The runtime's own time in this tick: the initiator callback excluded.
    pub fn self_ns(&self) -> u64 {
        (self.end_ns - self.start_ns).saturating_sub(self.deliver_ns)
    }
}

/// One `cancel(key)` handed to the application.
#[derive(Debug, Clone, Copy)]
pub struct Delivery {
    pub key: u64,
    pub entry_ns: u64,
    pub exit_ns: u64,
}

struct DeliveryLog {
    wall: Arc<dyn Clock>,
    deliveries: Mutex<Vec<Delivery>>,
    /// Initiator time accumulated since the current tick began.
    in_tick_ns: AtomicU64,
}

struct TimedInitiator {
    inner: Arc<dyn CancelInitiator>,
    log: Arc<DeliveryLog>,
}

impl CancelInitiator for TimedInitiator {
    fn cancel(&self, key: TaskKey) {
        let entry_ns = self.log.wall.now_ns();
        self.inner.cancel(key);
        let exit_ns = self.log.wall.now_ns();
        self.log.in_tick_ns.fetch_add(exit_ns - entry_ns, Relaxed);
        self.log
            .deliveries
            .lock()
            .expect("delivery log poisoned")
            .push(Delivery {
                key: key.0,
                entry_ns,
                exit_ns,
            });
    }

    fn reexec(&self, key: TaskKey) {
        self.inner.reexec(key)
    }

    fn drop_parked(&self, key: TaskKey) {
        self.inner.drop_parked(key)
    }
}

pub struct BenchPort {
    inner: Arc<dyn RuntimePort>,
    /// Wall time source for every stamp. On the wall-clock substrates this is
    /// the runtime's own clock, so stamps compare with `Request::enqueued_ns`.
    wall: Arc<dyn Clock>,
    /// Time every call and attribute it (the traced run).
    trace: bool,
    requests: Option<RequestTable>,
    /// Whether resource `rid` is held and handed back by one request.
    held_kind: Mutex<Vec<bool>>,
    emit: CallClass,
    lifecycle: CallClass,
    lifecycle_ns: Hist,
    ticks: Mutex<Vec<TickRec>>,
    delivery: Arc<DeliveryLog>,
    /// One span per attributed call, parents filled in by the workload.
    call_spans: Mutex<Vec<Span>>,
    /// Requests that reached `free_cancel` with Σget ≠ Σfree.
    unbalanced: AtomicU64,
}

/// Everything the port gathered, taken once the run is quiet.
pub struct PortReport {
    /// `(calls, busy_ns)` of get/free/slow_by/progress/unit_*/record_drop.
    pub emit: (u64, u64),
    /// `(calls, busy_ns)` of create_cancel/free_cancel.
    pub lifecycle: (u64, u64),
    pub lifecycle_p99_ns: f64,
    pub ticks: Vec<TickRec>,
    pub deliveries: Vec<Delivery>,
    pub call_spans: Vec<Span>,
    pub unbalanced: u64,
}

/// The reports of several ports (one per case run, per segment) as one.
#[derive(Default)]
pub struct PortTotals {
    pub emit: (u64, u64),
    pub lifecycle: (u64, u64),
    /// One p99 per absorbed port; their median is reported.
    lifecycle_p99_ns: Vec<f64>,
    pub ticks: Vec<TickRec>,
    pub deliveries: Vec<Delivery>,
}

impl PortTotals {
    pub fn absorb(&mut self, r: PortReport) {
        self.emit = (self.emit.0 + r.emit.0, self.emit.1 + r.emit.1);
        self.lifecycle = (
            self.lifecycle.0 + r.lifecycle.0,
            self.lifecycle.1 + r.lifecycle.1,
        );
        self.lifecycle_p99_ns.push(r.lifecycle_p99_ns);
        self.ticks.extend(r.ticks);
        self.deliveries.extend(r.deliveries);
    }

    /// Time inside the port: emit + lifecycle + ticks.
    pub fn busy_ns(&self) -> u64 {
        let ticks: u64 = self.ticks.iter().map(|t| t.end_ns - t.start_ns).sum();
        self.emit.1 + self.lifecycle.1 + ticks
    }

    /// Median over the absorbed ports of each one's lifecycle-call p99.
    pub fn lifecycle_p99_us(&self) -> f64 {
        stats::median(&self.lifecycle_p99_ns) / 1e3
    }

    /// The `core.tick.*` metrics. `wall_ns` is the interval the ticks are a
    /// share of; `period_ns`, where a ticker paced them, what start-to-start
    /// intervals are late against.
    pub fn set_tick_metrics(&self, wall_ns: u64, period_ns: Option<u64>, out: &mut Outcome) {
        let ticks = &self.ticks;
        let busy: u64 = ticks.iter().map(|t| t.end_ns - t.start_ns).sum();
        let self_us = |overloaded: bool| -> Vec<f64> {
            let of_kind = ticks.iter().filter(|t| t.overloaded == overloaded);
            of_kind.map(|t| t.self_ns() as f64 / 1e3).collect()
        };
        let overloaded = self_us(true);
        out.set("core.tick.calls", ticks.len() as f64);
        out.set("core.tick.busy_ms", busy as f64 / 1e6);
        out.set(
            "core.tick.wall_share_pct",
            100.0 * busy as f64 / wall_ns.max(1) as f64,
        );
        out.set(
            "core.tick.candidate_share_pct",
            100.0 * overloaded.len() as f64 / ticks.len().max(1) as f64,
        );
        out.set_percentiles(
            "core.tick.idle_p50_us",
            ("core.tick.idle_p99_us", 99.0),
            self_us(false),
        );
        out.set_percentiles(
            "core.tick.overload_p50_us",
            ("core.tick.overload_p99_us", 99.0),
            overloaded,
        );
        if let Some(period_ns) = period_ns {
            let late = ticks
                .windows(2)
                .map(|w| (w[1].start_ns - w[0].start_ns).saturating_sub(period_ns) as f64 / 1e3);
            let late = stats::sorted(late.collect());
            out.set("core.tick.late_p99_us", stats::percentile(&late, 99.0));
        }
    }

    /// Appends a `core.tick` span per tick and a `core.cancel.deliver` child
    /// per delivery made inside it. `enclosing` lists, in time order, the
    /// `(id, end_ns)` of spans already in `spans` that ticks ran inside (a
    /// window, a case run); each tick's parent is the first that ends after it.
    pub fn push_tick_spans(&self, spans: &mut Vec<Span>, enclosing: &[(SpanId, u64)]) {
        let (mut next, mut around) = (0, 0);
        for t in &self.ticks {
            while enclosing
                .get(around)
                .is_some_and(|(_, end_ns)| *end_ns < t.end_ns)
            {
                around += 1;
            }
            let tick_id = spans.len() as SpanId;
            spans.push(Span {
                name: "core.tick",
                start_ns: t.start_ns,
                end_ns: t.end_ns,
                parent: enclosing.get(around).map_or(NO_PARENT, |(id, _)| *id),
                key: 0,
            });
            while let Some(d) = self.deliveries.get(next).filter(|d| d.entry_ns < t.end_ns) {
                next += 1;
                if d.entry_ns >= t.start_ns {
                    spans.push(Span {
                        name: "core.cancel.deliver",
                        start_ns: d.entry_ns,
                        end_ns: d.exit_ns,
                        parent: tick_id,
                        key: d.key,
                    });
                }
            }
        }
    }

    /// `core.emit.*`, `core.lifecycle.*` and `core.cancel.deliver_us`.
    pub fn set_call_metrics(&self, out: &mut Outcome) {
        let ((emit_calls, emit_ns), (life_calls, life_ns)) = (self.emit, self.lifecycle);
        out.set("core.emit.calls", emit_calls as f64);
        out.set("core.emit.busy_ms", emit_ns as f64 / 1e6);
        out.set(
            "core.emit.ns_per_call",
            emit_ns as f64 / emit_calls.max(1) as f64,
        );
        out.set("core.lifecycle.calls", life_calls as f64);
        out.set("core.lifecycle.busy_ms", life_ns as f64 / 1e6);
        out.set(
            "core.lifecycle.ns_per_call",
            life_ns as f64 / life_calls.max(1) as f64,
        );
        out.set("core.lifecycle.p99_us", self.lifecycle_p99_us());
        let deliver: Vec<f64> = self
            .deliveries
            .iter()
            .map(|d| (d.exit_ns - d.entry_ns) as f64 / 1e3)
            .collect();
        out.set("core.cancel.deliver_us", stats::median(&deliver));
    }
}

impl BenchPort {
    pub fn new(
        inner: Arc<dyn RuntimePort>,
        wall: Arc<dyn Clock>,
        trace: bool,
        requests: Option<RequestTable>,
    ) -> Self {
        Self {
            inner,
            trace,
            requests,
            held_kind: Mutex::default(),
            emit: CallClass::default(),
            lifecycle: CallClass::default(),
            lifecycle_ns: Hist::default(),
            ticks: Mutex::default(),
            delivery: Arc::new(DeliveryLog {
                wall: wall.clone(),
                deliveries: Mutex::default(),
                in_tick_ns: AtomicU64::new(0),
            }),
            wall,
            call_spans: Mutex::default(),
            unbalanced: AtomicU64::new(0),
        }
    }

    pub fn requests(&self) -> &RequestTable {
        self.requests.as_ref().expect("port built with a table")
    }

    pub fn report(&self) -> PortReport {
        PortReport {
            emit: self.emit.totals(),
            lifecycle: self.lifecycle.totals(),
            lifecycle_p99_ns: self.lifecycle_ns.percentile(99.0),
            ticks: self.ticks.lock().expect("tick log poisoned").clone(),
            deliveries: self
                .delivery
                .deliveries
                .lock()
                .expect("delivery log poisoned")
                .clone(),
            call_spans: std::mem::take(&mut *self.call_spans.lock().expect("span log poisoned")),
            unbalanced: self.unbalanced.load(Relaxed),
        }
    }

    /// Charges a traced call to the request that made it.
    fn attribute(&self, task: TaskId, name: &'static str, t0: u64, t1: u64) -> Option<&Slot> {
        let table = self.requests.as_ref()?;
        let slot = table.slot_of_task(task)?;
        self.charge(table, slot, name, t0, t1);
        Some(&table.slots[slot])
    }

    fn charge(&self, table: &RequestTable, slot: usize, name: &'static str, t0: u64, t1: u64) {
        table.slots[slot].port_ns.fetch_add(t1 - t0, Relaxed);
        table.slots[slot].port_calls.fetch_add(1, Relaxed);
        let span = Span {
            name,
            start_ns: t0,
            end_ns: t1,
            parent: NO_PARENT,
            key: table.key_of_slot(slot),
        };
        self.call_spans
            .lock()
            .expect("span log poisoned")
            .push(span);
    }

    /// An emit-path call: forwarded bare when untraced; traced, timed and
    /// charged to `task`'s request, whose slot comes back with the result.
    fn emit<R>(
        &self,
        name: &'static str,
        task: Option<TaskId>,
        call: impl FnOnce() -> R,
    ) -> (R, Option<&Slot>) {
        if !self.trace {
            return (call(), None);
        }
        let t0 = self.wall.now_ns();
        let out = call();
        let t1 = self.wall.now_ns();
        self.emit.add(t1 - t0);
        (
            out,
            task.and_then(|task| self.attribute(task, name, t0, t1)),
        )
    }

    fn is_held_kind(&self, rid: ResourceId) -> bool {
        let kinds = self.held_kind.lock().expect("resource kinds poisoned");
        kinds.get(rid.index()).copied().unwrap_or(false)
    }

    fn lifecycle_call(&self, t0: u64, t1: u64) {
        if self.trace {
            self.lifecycle.add(t1 - t0);
            self.lifecycle_ns.record(t1 - t0);
        }
    }
}

impl RuntimePort for BenchPort {
    fn register_resource(&self, name: &str, rtype: ResourceType) -> ResourceId {
        let rid = self.inner.register_resource(name, rtype);
        let mut kinds = self.held_kind.lock().expect("resource kinds poisoned");
        if kinds.len() <= rid.index() {
            kinds.resize(rid.index() + 1, false);
        }
        kinds[rid.index()] = matches!(rtype, ResourceType::Lock | ResourceType::Queue);
        rid
    }

    fn create_cancel(&self, key: Option<u64>) -> TaskId {
        let t0 = self.wall.now_ns();
        let task = self.inner.create_cancel(key);
        let t1 = self.wall.now_ns();
        self.lifecycle_call(t0, t1);
        if let (Some(table), Some(key)) = (&self.requests, key) {
            if let Some(slot) = table.slot_of_key(key) {
                table
                    .by_task
                    .lock()
                    .expect("task map poisoned")
                    .insert(task.0, slot);
                table.slots[slot].create_ns.store(t0, Relaxed);
                if self.trace {
                    self.charge(table, slot, "core.lifecycle.create_cancel", t0, t1);
                }
            }
        }
        task
    }

    fn free_cancel(&self, task: TaskId) {
        let t0 = self.wall.now_ns();
        self.inner.free_cancel(task);
        let t1 = self.wall.now_ns();
        self.lifecycle_call(t0, t1);
        let Some(table) = &self.requests else { return };
        let slot = table
            .by_task
            .lock()
            .expect("task map poisoned")
            .remove(&task.0);
        if let Some(slot) = slot {
            let s = &table.slots[slot];
            s.free_ns.store(t1, Relaxed);
            if self.trace {
                self.charge(table, slot, "core.lifecycle.free_cancel", t0, t1);
                if s.held_gets.load(Relaxed) != s.held_frees.load(Relaxed) {
                    self.unbalanced.fetch_add(1, Relaxed);
                }
            }
        }
    }

    fn set_cancellable(&self, task: TaskId, cancellable: bool) {
        self.inner.set_cancellable(task, cancellable)
    }

    fn mark_background(&self, task: TaskId) {
        self.inner.mark_background(task)
    }

    fn install_initiator(&self, initiator: Arc<dyn CancelInitiator>) {
        self.inner.install_initiator(Arc::new(TimedInitiator {
            inner: initiator,
            log: self.delivery.clone(),
        }))
    }

    fn get(&self, task: TaskId, rid: ResourceId, amount: u64) {
        let call = || self.inner.get(task, rid, amount);
        if let ((), Some(slot)) = self.emit("core.emit.get", Some(task), call) {
            if self.is_held_kind(rid) {
                slot.held_gets.fetch_add(amount, Relaxed);
            }
        }
    }

    fn free(&self, task: TaskId, rid: ResourceId, amount: u64) {
        let call = || self.inner.free(task, rid, amount);
        if let ((), Some(slot)) = self.emit("core.emit.free", Some(task), call) {
            if self.is_held_kind(rid) {
                slot.held_frees.fetch_add(amount, Relaxed);
            }
        }
    }

    fn slow_by(&self, task: TaskId, rid: ResourceId, amount: u64) {
        let call = || self.inner.slow_by(task, rid, amount);
        self.emit("core.emit.slow_by", Some(task), call).0
    }

    fn progress(&self, task: TaskId, done: u64, total: u64) {
        let call = || self.inner.progress(task, done, total);
        self.emit("core.emit.progress", Some(task), call).0
    }

    fn unit_started(&self, task: TaskId) {
        let call = || self.inner.unit_started(task);
        self.emit("core.emit.unit_started", Some(task), call).0
    }

    fn unit_finished(&self, task: TaskId) -> Option<u64> {
        let slot = self
            .requests
            .as_ref()
            .and_then(|t| Some(&t.slots[t.slot_of_task(task)?]));
        if let Some(slot) = slot {
            slot.finished.store(1, Relaxed);
        }
        let call = || self.inner.unit_finished(task);
        self.emit("core.emit.unit_finished", Some(task), call).0
    }

    fn record_drop(&self) {
        self.emit("core.emit.record_drop", None, || self.inner.record_drop())
            .0
    }

    fn tick(&self) -> TickOutcome {
        self.delivery.in_tick_ns.store(0, Relaxed);
        let start_ns = self.wall.now_ns();
        let outcome = self.inner.tick();
        let end_ns = self.wall.now_ns();
        self.ticks.lock().expect("tick log poisoned").push(TickRec {
            start_ns,
            end_ns,
            overloaded: outcome != TickOutcome::Idle,
            deliver_ns: self.delivery.in_tick_ns.load(Relaxed),
        });
        outcome
    }

    fn clock(&self) -> Arc<dyn Clock> {
        self.inner.clock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atropos::{AtroposConfig, AtroposRuntime};
    use atropos_sim::SystemClock;
    use atropos_substrate::CancelFn;

    fn traced_port(table: RequestTable) -> (Arc<AtroposRuntime>, BenchPort) {
        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        let rt = Arc::new(AtroposRuntime::new(AtroposConfig::default(), clock.clone()));
        let port = BenchPort::new(rt.clone(), clock, true, Some(table));
        (rt, port)
    }

    #[test]
    fn table_maps_victim_and_culprit_keys_to_disjoint_slots() {
        let t = RequestTable::new(3, 2, 1 << 40);
        assert_eq!(t.slot_of_key(0), Some(0));
        assert_eq!(t.slot_of_key(2), Some(2));
        assert_eq!(t.slot_of_key(3), None);
        assert_eq!(t.slot_of_key(1 << 40), Some(3));
        assert_eq!(t.slot_of_key((1 << 40) + 1), Some(4));
        assert_eq!(t.slot_of_key((1 << 40) + 2), None);
        for slot in 0..5 {
            assert_eq!(t.slot_of_key(t.key_of_slot(slot)), Some(slot));
        }
    }

    #[test]
    fn traced_port_attributes_calls_and_checks_get_free_balance() {
        let (rt, port) = traced_port(RequestTable::new(2, 0, 1 << 40));
        let lock = port.register_resource("l", ResourceType::Lock);
        let pool = port.register_resource("p", ResourceType::Memory);
        // Request 0 balances its lock; its resident page is not counted.
        let a = port.create_cancel(Some(0));
        port.unit_started(a);
        port.get(a, lock, 1);
        port.get(a, pool, 4);
        port.free(a, lock, 1);
        port.unit_finished(a);
        port.free_cancel(a);
        // Request 1 leaks the lock and is dropped rather than finished.
        let b = port.create_cancel(Some(1));
        port.get(b, lock, 1);
        port.record_drop();
        port.free_cancel(b);
        let r = port.report();
        assert_eq!(r.unbalanced, 1);
        assert_eq!(r.lifecycle.0, 4);
        assert_eq!(r.emit.0, 7);
        let t = port.requests();
        assert_eq!(t.victim(0).port_calls.load(Relaxed), 7);
        assert_eq!(t.victim(0).finished.load(Relaxed), 1);
        assert_eq!(t.victim(1).finished.load(Relaxed), 0);
        assert!(t.victim(1).free_ns.load(Relaxed) >= t.victim(1).create_ns.load(Relaxed));
        assert_eq!(r.call_spans.len(), 10, "record_drop belongs to no request");
        assert!(r.call_spans.iter().all(|s| s.key < 2));
        assert_eq!(rt.stats().trace_events, 4);
    }

    #[test]
    fn deliveries_are_stamped_and_nested_under_their_tick() {
        let (rt, port) = traced_port(RequestTable::new(1, 0, 1 << 40));
        port.install_initiator(Arc::new(CancelFn(|_key: TaskKey| {})));
        let _t = port.create_cancel(Some(0));
        port.tick();
        rt.cancel_key(TaskKey(0));
        let r = port.report();
        assert_eq!(r.ticks.len(), 1);
        assert!(!r.ticks[0].overloaded);
        assert_eq!(r.deliveries.len(), 1);
        assert_eq!(r.deliveries[0].key, 0);

        let totals = PortTotals {
            ticks: vec![
                TickRec {
                    start_ns: 10,
                    end_ns: 20,
                    overloaded: true,
                    deliver_ns: 2,
                },
                TickRec {
                    start_ns: 30,
                    end_ns: 40,
                    overloaded: false,
                    deliver_ns: 0,
                },
            ],
            deliveries: vec![
                Delivery {
                    key: 7,
                    entry_ns: 12,
                    exit_ns: 14,
                },
                Delivery {
                    key: 8,
                    entry_ns: 25,
                    exit_ns: 26,
                },
            ],
            ..PortTotals::default()
        };
        let mut spans = Vec::new();
        totals.push_tick_spans(&mut spans, &[]);
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [
                ("core.tick", NO_PARENT),
                ("core.cancel.deliver", 0),
                ("core.tick", NO_PARENT)
            ],
            "an operator cancel between ticks belongs to no tick"
        );
        // Under enclosing spans 5 (ends at 25) and 6 (ends at 50).
        let mut spans = Vec::new();
        totals.push_tick_spans(&mut spans, &[(5, 25), (6, 50)]);
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [5, 0, 6]);
        assert_eq!(totals.ticks[0].self_ns(), 8);
    }
}
