//! Integration of the Atropos runtime with the simulated server.
//!
//! This module plays the role of the instrumentation the paper adds to
//! each application (Table 3): it registers the server's resource groups
//! with the runtime, maps requests to cancellable tasks, forwards
//! get/free/slowBy events and GetNext progress, and executes the
//! runtime's cancel / re-execute / drop decisions through server actions
//! — the server's `cancel_request` is the analog of MySQL's `sql_kill`.
//!
//! All protocol traffic flows through the substrate port
//! ([`RuntimePort`]), never against `AtroposRuntime` directly, so
//! middleware (the chaos `FaultInjector`, a counting probe) can be
//! stacked between the simulated application and the runtime via
//! [`AtroposController::new_with_middleware`].

use std::collections::HashMap;
use std::sync::Arc;

use atropos::{AtroposConfig, AtroposRuntime, TaskId, TaskKey, TimestampMode};
use atropos_sim::{SimTime, VirtualClock};
use atropos_substrate::{CancelInitiator, RuntimePort};
use parking_lot::Mutex;

use crate::controller::{Action, AdmitDecision, Controller, ResourceEvent, ServerView, TraceKind};
use crate::ids::RequestId;
use crate::request::{Outcome, Request};
use crate::server::ResourceGroupDef;

/// Virtual-time cost per trace event in sampled-timestamp mode: the
/// cheap amortized timestamps of normal load, as measured in §5.5.
const SAMPLED_EVENT_OVERHEAD_NS: u64 = 25;

/// Virtual-time cost per trace event in precise-timestamp mode: a
/// per-event `rdtsc` plus estimator work under potential overload (§5.5).
const PRECISE_EVENT_OVERHEAD_NS: u64 = 450;

/// The controller's side of the cancellation contract: decisions arriving
/// from the runtime are buffered and drained into server [`Action`]s on
/// the next tick (the simulator applies actions at tick boundaries).
struct BufferedInitiator {
    cancel: Arc<Mutex<Vec<u64>>>,
    reexec: Arc<Mutex<Vec<u64>>>,
    drop: Arc<Mutex<Vec<u64>>>,
}

impl CancelInitiator for BufferedInitiator {
    fn cancel(&self, key: TaskKey) {
        self.cancel.lock().push(key.0);
    }

    fn reexec(&self, key: TaskKey) {
        self.reexec.lock().push(key.0);
    }

    fn drop_parked(&self, key: TaskKey) {
        self.drop.lock().push(key.0);
    }
}

/// The Atropos integration controller.
pub struct AtroposController {
    rt: Arc<AtroposRuntime>,
    /// The protocol surface every event goes through; either the runtime
    /// itself or a middleware stack over it.
    port: Arc<dyn RuntimePort>,
    resource_ids: Vec<atropos::ResourceId>,
    tasks: HashMap<RequestId, TaskId>,
    cancel_buf: Arc<Mutex<Vec<u64>>>,
    reexec_buf: Arc<Mutex<Vec<u64>>>,
    drop_buf: Arc<Mutex<Vec<u64>>>,
    /// Admission controller consulted for *regular* (demand) overload —
    /// the "other overload control mechanisms in place" the paper
    /// delegates to when no application resource is bottlenecked (§3.3).
    /// Typically a `Breakwater`.
    fallback: Option<Box<dyn Controller>>,
}

impl AtroposController {
    /// Builds the controller: creates the runtime on the server's clock
    /// and registers every traced resource group.
    ///
    /// `cancellation_enabled = false` keeps tracing and decision logic
    /// running but never invokes the initiator — the configuration used to
    /// isolate overhead in Figure 14.
    pub fn new(
        cfg: AtroposConfig,
        clock: Arc<VirtualClock>,
        groups: &[ResourceGroupDef],
        cancellation_enabled: bool,
    ) -> Self {
        Self::new_with_middleware(cfg, clock, groups, cancellation_enabled, |port| port)
    }

    /// [`AtroposController::new`] with a middleware stack between the
    /// controller and the runtime: `wrap` receives the runtime's port and
    /// returns the port the controller will speak (e.g. a chaos
    /// `FaultInjector` or a counting probe over it). Resource
    /// registration and initiator installation also flow through the
    /// returned port, so middleware observes the full protocol.
    pub fn new_with_middleware(
        cfg: AtroposConfig,
        clock: Arc<VirtualClock>,
        groups: &[ResourceGroupDef],
        cancellation_enabled: bool,
        wrap: impl FnOnce(Arc<dyn RuntimePort>) -> Arc<dyn RuntimePort>,
    ) -> Self {
        let rt = Arc::new(AtroposRuntime::new(cfg, clock));
        let port = wrap(rt.clone());
        let resource_ids = groups
            .iter()
            .map(|g| port.register_resource(&g.name, g.rtype))
            .collect();
        let cancel_buf = Arc::new(Mutex::new(Vec::new()));
        let reexec_buf = Arc::new(Mutex::new(Vec::new()));
        let drop_buf = Arc::new(Mutex::new(Vec::new()));
        // Installing an initiator is observable (a runtime without one
        // answers NoInitiator and issues nothing), so the Figure 14
        // "cancellation disabled" configuration must skip installation
        // entirely. The re-execution and drop legs ride with the
        // initiator: they can only ever fire for issued cancels.
        if cancellation_enabled {
            port.install_initiator(Arc::new(BufferedInitiator {
                cancel: cancel_buf.clone(),
                reexec: reexec_buf.clone(),
                drop: drop_buf.clone(),
            }));
        }
        Self {
            rt,
            port,
            resource_ids,
            tasks: HashMap::new(),
            cancel_buf,
            reexec_buf,
            drop_buf,
            fallback: None,
        }
    }

    /// Attaches the admission controller that handles regular (demand)
    /// overload. Atropos itself performs no admission control (§1); under
    /// pure demand overload the detector classifies the condition as
    /// *regular* and this controller's decisions apply.
    pub fn with_fallback(mut self, fallback: Box<dyn Controller>) -> Self {
        self.fallback = Some(fallback);
        self
    }

    /// A handle to the runtime, for inspecting stats after a run.
    pub fn runtime(&self) -> Arc<AtroposRuntime> {
        self.rt.clone()
    }

    fn ensure_task(&mut self, req: &Request) -> TaskId {
        if let Some(&t) = self.tasks.get(&req.id) {
            return t;
        }
        let t = self.port.create_cancel(Some(req.id.0));
        if !req.cancellable || req.retry {
            self.port.set_cancellable(t, false);
        }
        if req.background {
            self.port.mark_background(t);
        }
        self.port.unit_started(t);
        self.port.progress(t, req.work_done, req.work_total);
        self.tasks.insert(req.id, t);
        t
    }
}

impl Controller for AtroposController {
    fn name(&self) -> &'static str {
        "atropos"
    }

    fn on_arrival(&mut self, now: SimTime, req: &Request) -> AdmitDecision {
        // Atropos performs no admission control itself (§1); demand
        // overload is the fallback's business.
        if let Some(fb) = self.fallback.as_mut() {
            if fb.on_arrival(now, req) == AdmitDecision::Reject {
                return AdmitDecision::Reject;
            }
        }
        self.ensure_task(req);
        AdmitDecision::Admit
    }

    fn on_start(&mut self, _now: SimTime, req: &Request) {
        // Re-executed (revived) requests skip admission; register here.
        self.ensure_task(req);
    }

    fn on_finish(&mut self, now: SimTime, req: &Request, outcome: Outcome) {
        if let Some(fb) = self.fallback.as_mut() {
            fb.on_finish(now, req, outcome);
        }
        let Some(task) = self.tasks.remove(&req.id) else {
            return;
        };
        match outcome {
            Outcome::Completed => {
                self.port.unit_finished(task);
            }
            Outcome::Canceled => {}
            Outcome::Dropped => {
                if !req.background {
                    self.port.record_drop();
                }
            }
        }
        self.port.free_cancel(task);
    }

    fn on_resource_event(&mut self, _now: SimTime, ev: &ResourceEvent) {
        let Some(&task) = self.tasks.get(&ev.req) else {
            return;
        };
        let rid = self.resource_ids[ev.group];
        match ev.kind {
            TraceKind::Get => self.port.get(task, rid, ev.amount),
            TraceKind::Free => self.port.free(task, rid, ev.amount),
            TraceKind::Slow => self.port.slow_by(task, rid, ev.amount),
        }
    }

    fn on_progress(&mut self, _now: SimTime, req: &Request) {
        if let Some(&task) = self.tasks.get(&req.id) {
            self.port.progress(task, req.work_done, req.work_total);
        }
    }

    fn on_tick(&mut self, now: SimTime, view: &ServerView) -> Vec<Action> {
        let _ = self.port.tick();
        let mut actions = Vec::new();
        if let Some(fb) = self.fallback.as_mut() {
            actions.extend(fb.on_tick(now, view));
        }
        for key in self.cancel_buf.lock().drain(..) {
            actions.push(Action::Cancel(RequestId(key)));
        }
        for key in self.reexec_buf.lock().drain(..) {
            actions.push(Action::Reexec(RequestId(key)));
        }
        for key in self.drop_buf.lock().drain(..) {
            actions.push(Action::DropParked(RequestId(key)));
        }
        actions
    }

    fn per_event_overhead_ns(&self) -> u64 {
        match self.rt.timestamp_mode() {
            TimestampMode::Sampled => SAMPLED_EVENT_OVERHEAD_NS,
            TimestampMode::Precise => PRECISE_EVENT_OVERHEAD_NS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClassId, ClientId};
    use crate::op::Plan;
    use atropos_sim::Clock;
    use atropos_substrate::ProbePort;

    fn controller() -> AtroposController {
        let clock = Arc::new(VirtualClock::new());
        let groups = vec![ResourceGroupDef {
            name: "lock".into(),
            rtype: atropos::ResourceType::Lock,
            members: vec![],
        }];
        AtroposController::new(AtroposConfig::default(), clock, &groups, true)
    }

    fn request(id: u64) -> Request {
        Request::new(
            RequestId(id),
            ClassId(0),
            ClientId(0),
            Plan::new().compute(1000),
            SimTime::ZERO,
        )
    }

    #[test]
    fn arrival_creates_task_and_finish_frees_it() {
        let mut c = controller();
        let req = request(1);
        c.on_arrival(SimTime::ZERO, &req);
        assert_eq!(c.rt.task_count(), 1);
        c.on_finish(SimTime::from_millis(1), &req, Outcome::Completed);
        assert_eq!(c.rt.task_count(), 0);
        assert_eq!(c.rt.stats().completions, 1);
    }

    #[test]
    fn resource_events_reach_the_runtime() {
        let mut c = controller();
        let req = request(1);
        c.on_arrival(SimTime::ZERO, &req);
        c.on_resource_event(
            SimTime::ZERO,
            &ResourceEvent {
                group: 0,
                kind: TraceKind::Get,
                req: req.id,
                amount: 1,
            },
        );
        assert_eq!(c.rt.stats().trace_events, 1);
    }

    #[test]
    fn events_for_unknown_requests_are_skipped() {
        let mut c = controller();
        c.on_resource_event(
            SimTime::ZERO,
            &ResourceEvent {
                group: 0,
                kind: TraceKind::Get,
                req: RequestId(99),
                amount: 1,
            },
        );
        assert_eq!(c.rt.stats().trace_events, 0);
    }

    #[test]
    fn non_cancellable_and_background_flags_propagate() {
        let mut c = controller();
        let mut req = request(1);
        req.cancellable = false;
        req.background = true;
        c.on_arrival(SimTime::ZERO, &req);
        // The runtime's estimator will never offer this task to the
        // policy; verified indirectly via task flags in the runtime.
        assert_eq!(c.rt.task_count(), 1);
    }

    #[test]
    fn overhead_follows_timestamp_mode() {
        let c = controller();
        assert_eq!(c.rt.timestamp_mode(), TimestampMode::Sampled);
        assert_eq!(c.per_event_overhead_ns(), 25);
        c.rt.set_timestamp_mode(TimestampMode::Precise);
        assert_eq!(c.per_event_overhead_ns(), 450);
    }

    /// Drives a lock-hog overload purely through the controller hooks and
    /// asserts the runtime's cancel decision surfaces as a `Cancel` action
    /// naming the hog's request id.
    #[test]
    fn runtime_cancellations_surface_as_actions() {
        let clock = Arc::new(VirtualClock::new());
        let groups = vec![ResourceGroupDef {
            name: "lock".into(),
            rtype: atropos::ResourceType::Lock,
            members: vec![],
        }];
        let mut cfg = AtroposConfig::default().with_slo_ns(10_000_000);
        cfg.cancel_min_interval_ns = 0;
        let mut c = AtroposController::new(cfg, clock.clone(), &groups, true);
        let view = ServerView {
            now: SimTime::ZERO,
            requests: vec![],
            recent: Default::default(),
            client_p99: vec![],
            queues: vec![],
            workers_active: 0,
            workers_queued: 0,
        };
        const MS: u64 = 1_000_000;
        // The hog holds the lock from t = 0 with low progress.
        let mut hog = request(99);
        hog.work_done = 5;
        hog.work_total = 100;
        c.on_arrival(SimTime::ZERO, &hog);
        c.on_resource_event(
            SimTime::ZERO,
            &ResourceEvent {
                group: 0,
                kind: TraceKind::Get,
                req: hog.id,
                amount: 1,
            },
        );
        // Victims wait on the lock; healthy traffic fills window 0.
        for i in 0..10u64 {
            let v = request(i);
            c.on_arrival(SimTime::ZERO, &v);
            c.on_resource_event(
                SimTime::ZERO,
                &ResourceEvent {
                    group: 0,
                    kind: TraceKind::Slow,
                    req: v.id,
                    amount: 1,
                },
            );
        }
        for step in 1..=20u64 {
            clock.advance_to(atropos_sim::SimTime::from_nanos(step * 5 * MS / 2));
            let t = request(1000 + step);
            c.on_arrival(clock.now(), &t);
            c.on_finish(clock.now(), &t, Outcome::Completed);
        }
        // Completions stop at 50 ms while the hog and its victims stay in
        // flight: a stall the detector flags within a couple of windows.
        clock.advance_to(atropos_sim::SimTime::from_millis(100));
        let actions = c.on_tick(clock.now(), &view);
        assert!(
            actions.contains(&Action::Cancel(RequestId(99))),
            "expected cancel of the hog, got {actions:?}"
        );
    }

    /// The controller's view of the ingest contract: the same hog
    /// scenario produces the same action stream and the same event
    /// accounting whether trace events wait in the rings for the next
    /// drain point or are applied before the next call returns (a
    /// `DrainEveryEmit` layer under the controller).
    #[test]
    fn deferred_ingest_and_per_event_application_produce_identical_action_streams() {
        let drive = |drain_every_emit: bool| {
            let clock = Arc::new(VirtualClock::new());
            let groups = vec![ResourceGroupDef {
                name: "lock".into(),
                rtype: atropos::ResourceType::Lock,
                members: vec![],
            }];
            let mut cfg = AtroposConfig::default().with_slo_ns(10_000_000);
            cfg.cancel_min_interval_ns = 0;
            let mut c =
                AtroposController::new_with_middleware(cfg, clock.clone(), &groups, true, |port| {
                    if drain_every_emit {
                        Arc::new(atropos_substrate::DrainEveryEmit(port))
                    } else {
                        port
                    }
                });
            let view = ServerView {
                now: SimTime::ZERO,
                requests: vec![],
                recent: Default::default(),
                client_p99: vec![],
                queues: vec![],
                workers_active: 0,
                workers_queued: 0,
            };
            const MS: u64 = 1_000_000;
            let mut hog = request(99);
            hog.work_done = 5;
            hog.work_total = 100;
            c.on_arrival(SimTime::ZERO, &hog);
            c.on_resource_event(
                SimTime::ZERO,
                &ResourceEvent {
                    group: 0,
                    kind: TraceKind::Get,
                    req: hog.id,
                    amount: 1,
                },
            );
            for i in 0..10u64 {
                let v = request(i);
                c.on_arrival(SimTime::ZERO, &v);
                c.on_resource_event(
                    SimTime::ZERO,
                    &ResourceEvent {
                        group: 0,
                        kind: TraceKind::Slow,
                        req: v.id,
                        amount: 1,
                    },
                );
            }
            let mut all_actions = Vec::new();
            for step in 1..=20u64 {
                clock.advance_to(atropos_sim::SimTime::from_nanos(step * 5 * MS / 2));
                let t = request(1000 + step);
                c.on_arrival(clock.now(), &t);
                c.on_finish(clock.now(), &t, Outcome::Completed);
            }
            clock.advance_to(atropos_sim::SimTime::from_millis(100));
            all_actions.extend(c.on_tick(clock.now(), &view));
            clock.advance_to(atropos_sim::SimTime::from_millis(200));
            all_actions.extend(c.on_tick(clock.now(), &view));
            let stats = c.runtime().stats();
            (all_actions, stats.trace_events, stats.ignored_events)
        };
        let per_event = drive(true);
        assert_eq!(per_event, drive(false));
        assert!(per_event.0.contains(&Action::Cancel(RequestId(99))));
    }

    /// A middleware stack between the controller and the runtime sees the
    /// full protocol — registration, task scoping, tracing, ticks — and
    /// the controller behaves identically through it.
    #[test]
    fn middleware_observes_the_full_protocol() {
        let clock = Arc::new(VirtualClock::new());
        let groups = vec![ResourceGroupDef {
            name: "lock".into(),
            rtype: atropos::ResourceType::Lock,
            members: vec![],
        }];
        let probe = Arc::new(Mutex::new(None::<Arc<ProbePort>>));
        let p2 = probe.clone();
        let mut c = AtroposController::new_with_middleware(
            AtroposConfig::default(),
            clock,
            &groups,
            true,
            move |port| {
                let p = Arc::new(ProbePort::new(port));
                *p2.lock() = Some(p.clone());
                p
            },
        );
        let req = request(1);
        c.on_arrival(SimTime::ZERO, &req);
        c.on_resource_event(
            SimTime::ZERO,
            &ResourceEvent {
                group: 0,
                kind: TraceKind::Get,
                req: req.id,
                amount: 1,
            },
        );
        c.on_finish(SimTime::from_millis(1), &req, Outcome::Completed);
        let counts = probe.lock().as_ref().unwrap().counts();
        assert_eq!(counts.gets, 1);
        assert_eq!(counts.units_started, 1);
        assert_eq!(counts.units_finished, 1);
        // Forwarded through to the real runtime unchanged.
        assert_eq!(c.rt.stats().trace_events, 1);
        assert_eq!(c.rt.stats().completions, 1);
    }

    #[test]
    fn progress_reports_flow_to_the_runtime() {
        let mut c = controller();
        let mut req = request(1);
        req.work_total = 100;
        c.on_arrival(SimTime::ZERO, &req);
        req.work_done = 40;
        c.on_progress(SimTime::ZERO, &req);
        // No panic and the task still registered; progress value is
        // asserted through the estimator in runtime tests.
        assert_eq!(c.rt.task_count(), 1);
    }

    #[test]
    fn dropped_requests_record_into_the_detector_series() {
        let mut c = controller();
        let req = request(1);
        c.on_arrival(SimTime::ZERO, &req);
        c.on_finish(SimTime::ZERO, &req, Outcome::Dropped);
        assert_eq!(c.rt.task_count(), 0);
    }

    #[test]
    fn tick_with_no_load_produces_no_actions() {
        let mut c = controller();
        let view = ServerView {
            now: SimTime::ZERO,
            requests: vec![],
            recent: Default::default(),
            client_p99: vec![],
            queues: vec![],
            workers_active: 0,
            workers_queued: 0,
        };
        assert!(c.on_tick(SimTime::ZERO, &view).is_empty());
    }
}
