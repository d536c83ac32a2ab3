//! The convoy script: the one 12-window story every virtual-clock
//! fault-model run plays, whatever the topology.
//!
//! Each window the script lets the topology react to the cancellations
//! delivered at the last tick, opens the culprit at window
//! [`HOG_START_WINDOW`], drains the convoy 4 ms in once the culprit is
//! gone, sends `10 × load` arrivals from 20 ms on (convoyed while the
//! culprit holds its resource), lets the two oldest convoyed victims give
//! up from 95 ms, then ticks every node at the window end plus its skew and
//! checks I1–I7 per node. At the end it checks I8 per node.
//!
//! A [`Topology`] says what differs: how a request opens (a bare task, a
//! root plus one proxy per backend, a root plus a looped-back proxy), what
//! a delivered key releases, and which [`ScriptNode`]s tick. Every node is
//! the same stack: a runtime on [`script_config`], an `atropos-obs`
//! [`Observer`], a [`FaultInjector`] carrying the node's plan, and an
//! initiator that records the keys it is handed — through a [`FedEdge`]
//! when the node is a callee.

use std::sync::Arc;

use atropos::{AtroposConfig, AtroposRuntime, ResourceId, TaskId, TaskKey};
use atropos_obs::{DecisionEpisode, Observer, ResourceNames};
use atropos_sim::{SimTime, VirtualClock};
use atropos_substrate::{CancelFn, DrainEveryEmit, FedEdge, NodeId, RuntimePort};
use parking_lot::Mutex;

use crate::checker::{check_episode_coverage, InvariantChecker, Violation};
use crate::injector::FaultInjector;
use crate::plan::FaultPlan;

/// One millisecond of virtual time.
pub const MS: u64 = 1_000_000;
/// Detection window length (also the tick period before skew).
pub const WINDOW_NS: u64 = 100 * MS;
/// Number of windows each run lasts.
pub const WINDOWS: u64 = 12;
/// Window at which the culprit arrives.
pub const HOG_START_WINDOW: u64 = 2;
/// Key of the culprit (the root key on a federated frontend); victim keys
/// count up from 100 and stay below.
pub const HOG_KEY: u64 = 9_000;

/// The runtime configuration every scripted node runs: 100 ms detection
/// windows, a 10 ms SLO, no cancel back-off.
pub fn script_config() -> AtroposConfig {
    let mut cfg = AtroposConfig::default();
    cfg.detector.window_ns = WINDOW_NS;
    cfg.detector.slo_latency_ns = 10 * MS;
    cfg.cancel_min_interval_ns = 0;
    cfg
}

/// Advances the shared clock to `ns` (never backwards).
pub fn advance(clock: &VirtualClock, ns: u64) {
    clock.advance_to(SimTime::from_nanos(ns));
}

/// Ends `task`'s unit of work and its cancellable scope.
pub fn close(port: &dyn RuntimePort, task: TaskId) {
    port.unit_finished(task);
    port.free_cancel(task);
}

/// A request served while `res` is free: it takes `amount` 1 ms after
/// `t0`, releases it 2 ms later and closes.
pub fn serve(
    clock: &VirtualClock,
    port: &dyn RuntimePort,
    task: TaskId,
    res: ResourceId,
    amount: u64,
    t0: u64,
) {
    advance(clock, t0 + MS);
    port.get(task, res, amount);
    advance(clock, t0 + 3 * MS);
    port.free(task, res, amount);
    close(port, task);
}

/// One node of a scripted topology.
pub struct ScriptNode {
    /// The virtual clock the node's runtime reads (shared by a topology).
    pub clock: Arc<VirtualClock>,
    /// The node's runtime.
    pub rt: Arc<AtroposRuntime>,
    /// Flight recorder installed on the runtime.
    pub obs: Arc<Observer>,
    /// Faulty transport carrying this node's seeded plan.
    pub inj: Arc<FaultInjector>,
    /// The RPC edge terminating here (callee nodes only), stacked over
    /// the injector.
    pub edge: Option<Arc<FedEdge>>,
    /// The port the application emits through and the initiator is
    /// installed on: the edge when present, the injector otherwise.
    pub port: Arc<dyn RuntimePort>,
    delivered: Arc<Mutex<Vec<u64>>>,
}

impl ScriptNode {
    /// Builds a node on `clock` under `plan`. With `drain_every_emit` a
    /// [`DrainEveryEmit`] layer sits between the injector and the runtime
    /// (the ingest reference); with `edge` the node is a callee whose
    /// application speaks through a [`FedEdge`] over the injector, so
    /// delivered proxy keys also route upstream.
    pub fn new(
        clock: &Arc<VirtualClock>,
        plan: &FaultPlan,
        drain_every_emit: bool,
        edge: Option<NodeId>,
    ) -> Self {
        let clock = clock.clone();
        let rt = Arc::new(AtroposRuntime::new(script_config(), clock.clone()));
        let obs = Observer::install(&rt, 32 * 1024);
        let inner: Arc<dyn RuntimePort> = if drain_every_emit {
            Arc::new(DrainEveryEmit(rt.clone()))
        } else {
            rt.clone()
        };
        let inj = Arc::new(FaultInjector::over(inner, plan));
        let edge = edge.map(|id| FedEdge::over(id, inj.clone()));
        let port: Arc<dyn RuntimePort> = match &edge {
            Some(e) => e.clone(),
            None => inj.clone(),
        };
        let delivered: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let (d, reg) = (delivered.clone(), obs.clone());
        port.install_initiator(Arc::new(CancelFn(move |key: TaskKey| {
            reg.registry().observe_cancel_delivered();
            d.lock().push(key.0);
        })));
        Self {
            clock,
            rt,
            obs,
            inj,
            edge,
            port,
            delivered,
        }
    }

    /// Drains and returns the keys delivered since the last call.
    pub fn take_delivered(&self) -> Vec<u64> {
        std::mem::take(&mut *self.delivered.lock())
    }
}

/// What differs between the topologies the script runs. All times are
/// on the shared virtual clock; the script has advanced it to the
/// moment each hook describes.
pub trait Topology {
    /// A convoyed request: what draining it or giving it up closes.
    type Victim;

    /// The nodes, in tick-order tie-break and check order.
    fn nodes(&self) -> Vec<&ScriptNode>;

    /// Window `w` starts: act on the cancellations delivered at the last
    /// tick. A canceled culprit releases what it holds; a canceled victim
    /// leaves `blocked` and closes.
    fn react(&mut self, w: u64, blocked: &mut Vec<Self::Victim>);

    /// The culprit arrives, 2 ms into the window starting at `start`.
    fn open_hog(&mut self, start: u64);

    /// The culprit does window `w`'s work, if it is still there; returns
    /// whether it still holds its resource.
    fn hog_window(&mut self, w: u64) -> bool;

    /// Request `key` arrives at `t0`: convoyed, it is returned as a
    /// victim; otherwise it is served and closed.
    fn arrive(&mut self, key: u64, t0: u64, convoyed: bool) -> Option<Self::Victim>;

    /// The culprit is gone: `v` gets its resource and completes.
    fn drain(&mut self, v: Self::Victim);

    /// `v` gives up behind the convoy (an over-SLO completion).
    fn give_up(&mut self, v: Self::Victim);

    /// Window `w` ends, before the tick.
    fn end_window(&mut self, _w: u64) {}

    /// Checks beyond a node's own invariants after the tick of window `w`.
    fn after_tick(&mut self, _w: u64) -> Result<(), Violation> {
        Ok(())
    }

    /// After the last tick: collect what was delivered since.
    fn finish(&mut self);
}

/// Plays the story on `topo` with `10 × load` arrivals per window, on its
/// nodes' shared clock. Returns the first invariant violation, if any (a
/// per-tick one stops the run; I8 runs at the end), and the decision
/// episodes drained from each node's flight recorder, in
/// [`Topology::nodes`] order.
pub fn run_script<T: Topology>(
    topo: &mut T,
    load: u64,
) -> (Option<Violation>, Vec<Vec<DecisionEpisode>>) {
    let clock = topo.nodes()[0].clock.clone();
    let mut checkers: Vec<InvariantChecker> = Vec::new();
    checkers.resize_with(topo.nodes().len(), InvariantChecker::new);
    let mut blocked: Vec<T::Victim> = Vec::new();
    let mut next_key = 100u64;
    let mut violation = None;

    'windows: for w in 0..WINDOWS {
        let start = w * WINDOW_NS;
        topo.react(w, &mut blocked);

        if w == HOG_START_WINDOW {
            advance(&clock, start + 2 * MS);
            topo.open_hog(start);
        }
        let hog_active = topo.hog_window(w);

        // With the culprit gone, the convoy drains early in the window.
        if !hog_active && !blocked.is_empty() {
            let n = blocked.len() as u64;
            for (i, v) in blocked.drain(..).enumerate() {
                advance(&clock, start + 4 * MS + (i as u64) * (12 * MS) / n);
                topo.drain(v);
            }
        }

        // Arrivals: complete in ~3 ms when healthy, join the convoy while
        // the culprit holds the resource.
        let arrivals = 10 * load;
        for i in 0..arrivals {
            let t0 = start + 20 * MS + i * (70 * MS) / arrivals;
            advance(&clock, t0);
            blocked.extend(topo.arrive(next_key, t0, hog_active));
            next_key += 1;
        }

        // Under the convoy, the two oldest victims give up at the window
        // edge: the few completions the detector sees are far over SLO.
        if hog_active {
            for j in 0..2usize.min(blocked.len()) {
                let v = blocked.remove(0);
                advance(&clock, start + 95 * MS + j as u64 * MS);
                topo.give_up(v);
            }
        }
        topo.end_window(w);

        // Tick every node, possibly late (ascending skew keeps the shared
        // clock monotonic), then check every node's invariants.
        let nodes = topo.nodes();
        let mut order: Vec<usize> = (0..nodes.len()).collect();
        order.sort_by_key(|&n| nodes[n].inj.tick_skew_ns());
        for &n in &order {
            advance(&clock, (w + 1) * WINDOW_NS + nodes[n].inj.tick_skew_ns());
            nodes[n].inj.tick();
        }
        for (node, checker) in nodes.iter().zip(&mut checkers) {
            if let Err(v) = checker.after_tick(&node.rt, &node.inj.truth()) {
                violation = Some(v);
                break 'windows;
            }
        }
        if let Err(v) = topo.after_tick(w) {
            violation = Some(v);
            break;
        }
    }

    topo.finish();
    // I8 per node, end of run: the flight recorder must explain every
    // issued cancellation, even under fail/delay faults. An earlier
    // violation takes precedence.
    let episodes = topo
        .nodes()
        .iter()
        .map(|node| {
            let names = ResourceNames::from_snapshot(&node.rt.debug_snapshot());
            let eps = node.obs.drain_episodes(&names);
            if violation.is_none() {
                violation = check_episode_coverage(&node.inj.truth(), &eps).err();
            }
            eps
        })
        .collect();
    (violation, episodes)
}
