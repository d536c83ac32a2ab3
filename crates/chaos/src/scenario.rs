//! The convoy script on one node, one scenario per [`ScenarioFamily`].
//!
//! The families mirror the live harness's culprits: a **lock hog**
//! convoy (a long task holds the table lock while victims queue behind
//! it), a **buffer scan** (a sweep accumulates buffer-pool pages while
//! victims stall on evictions), and a **ticket queue** hog (one task
//! drains a bounded ticket pool dry while arrivals starve). Each plays
//! the [`crate::script`] story with every protocol event routed through
//! a [`FaultInjector`](crate::FaultInjector) and every invariant checked
//! after every tick.
//!
//! The node reacts to cancellations like a real application: a canceled
//! hog releases its resources and finishes at the start of the next
//! window, and blocked victims then drain. Under an armed fault plan the
//! run may fail to recover (cancellations swallowed, blame starved of
//! events) — that is fine; what must *never* happen, and what
//! [`run_scenario`] reports, is an invariant violation.
//!
//! [`run_on_node`] also runs the lock-hog convoy on a callee node whose
//! RPC edge loops back onto itself — the degenerate federation, where
//! every request is a root plus a proxy and the "cross-node" cancel is a
//! self-delivery.

use std::sync::Arc;

use atropos::{ResourceId, ResourceType, TaskId, TaskKey};
use atropos_sim::{SimRng, VirtualClock};
use atropos_substrate::{CancelFn, EdgeIdentity, ScenarioFamily, FED_KEY_BASE};
use parking_lot::Mutex;

use crate::checker::Violation;
use crate::injector::InjectionLog;
use crate::plan::FaultPlan;
use crate::script::{
    advance, close, run_script, serve, ScriptNode, Topology, HOG_KEY, MS, WINDOW_NS,
};

/// What one scenario run observed.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// Keys actually delivered to the application's initiator, in order.
    pub canceled_keys: Vec<u64>,
    /// Keys the runtime *issued* (before fail/delay faults), in order.
    pub issued_keys: Vec<u64>,
    /// Whether the hog's cancellation was delivered.
    pub hog_canceled: bool,
    /// Whether any victim's cancellation was delivered.
    pub victim_canceled: bool,
    /// The root key the first delivered cancellation resolves to: the key
    /// itself, or the root a looped-back proxy key is blamed on.
    pub culprit_root: Option<u64>,
    /// Ticks executed.
    pub ticks: u64,
    /// Detector candidate count at the end of the run.
    pub candidates: u64,
    /// First invariant violation, if any (the run stops there).
    pub violation: Option<Violation>,
    /// Full runtime snapshot at the end of the run.
    pub final_snapshot: atropos::DebugSnapshot,
    /// Decision episodes folded from the flight recorder (checked against
    /// the injector's cancel log by invariant I8).
    pub episodes: Vec<atropos_obs::DecisionEpisode>,
    /// Observer metrics snapshot at the end of the run.
    pub metrics: atropos_obs::MetricsSnapshot,
    /// What the injector actually did (fault-fire counts).
    pub injection: InjectionLog,
}

/// Runs one scripted scenario under `plan` and checks every invariant
/// after every tick. `load_scale` multiplies the arrival rate (used by
/// the detector-monotonicity check); 1 is the base load.
pub fn run_scenario(kind: ScenarioFamily, plan: &FaultPlan, load_scale: u64) -> ScenarioOutcome {
    run_scenario_with_ingest(kind, plan, load_scale, false)
}

/// [`run_scenario`] with the ingest reference selectable: with
/// `drain_every_emit` a [`DrainEveryEmit`](atropos_substrate::DrainEveryEmit)
/// layer sits between the injector and the runtime, so every delivered
/// event is applied before the next call returns. The script, clock,
/// seeds and fault plan are otherwise identical, so any observable
/// difference between the two is an ingest bug — the differential in
/// `tests/ingest_reference.rs` runs the corpus both ways and demands
/// bit-identical outcomes.
pub fn run_scenario_with_ingest(
    kind: ScenarioFamily,
    plan: &FaultPlan,
    load_scale: u64,
    drain_every_emit: bool,
) -> ScenarioOutcome {
    let node = ScriptNode::new(&Arc::new(VirtualClock::new()), plan, drain_every_emit, None);
    run_on_node(node, kind, plan.seed, load_scale)
}

/// A request on the one node: a bare task (`worker == root`), or a root
/// plus the proxy its looped-back edge opened, which does the work.
struct Request {
    key: u64,
    root: TaskId,
    worker: TaskId,
    amount: u64,
}

/// The one-node topology.
struct OneNode {
    node: ScriptNode,
    kind: ScenarioFamily,
    res: ResourceId,
    rng: SimRng,
    /// Root keys the looped-back edge sent upstream, delivered at the next
    /// window start.
    upstream: Arc<Mutex<Vec<u64>>>,
    hog: Option<(Request, u64)>,
    canceled_keys: Vec<u64>,
}

/// Runs `kind`'s convoy on `node`, with `seed` driving the script's own
/// draws and `load` scaling the arrivals. When the node carries an edge,
/// the edge loops back onto the node: every request is a root plus a
/// proxy opened through the edge, and the edge's upstream leg is buffered
/// and delivered to the node's runtime between script steps — the
/// asynchronous hop a real edge has, and no reentry into the runtime lock.
pub fn run_on_node(
    node: ScriptNode,
    kind: ScenarioFamily,
    seed: u64,
    load: u64,
) -> ScenarioOutcome {
    let upstream: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    if let Some(edge) = &node.edge {
        let u = upstream.clone();
        edge.install_upstream(Arc::new(CancelFn(move |key: TaskKey| u.lock().push(key.0))));
    }
    let (name, rtype) = match kind {
        ScenarioFamily::LockHog => ("table_lock", ResourceType::Lock),
        ScenarioFamily::BufferScan => ("buffer_pool", ResourceType::Memory),
        ScenarioFamily::TicketQueue => ("tickets", ResourceType::Queue),
    };
    let res = node.rt.register_resource(name, rtype);
    let mut topo = OneNode {
        node,
        kind,
        res,
        rng: SimRng::new(seed ^ 0x5CE2_A210),
        upstream,
        hog: None,
        canceled_keys: Vec::new(),
    };
    let (violation, episodes) = run_script(&mut topo, load.max(1));

    let roots: Vec<Option<u64>> = topo
        .canceled_keys
        .iter()
        .map(|&k| topo.root_of(k))
        .collect();
    let snap = topo.node.rt.debug_snapshot();
    let truth = topo.node.inj.truth();
    ScenarioOutcome {
        hog_canceled: topo.canceled_keys.contains(&HOG_KEY),
        victim_canceled: roots.iter().any(|r| *r != Some(HOG_KEY)),
        culprit_root: roots.into_iter().flatten().next(),
        issued_keys: truth.cancel_log.iter().map(|o| o.key).collect(),
        canceled_keys: topo.canceled_keys,
        ticks: snap.stats.ticks,
        candidates: snap.detector.candidates,
        violation,
        final_snapshot: snap,
        episodes: episodes.into_iter().next().unwrap_or_default(),
        metrics: topo.node.obs.metrics(),
        injection: truth.log,
    }
}

impl OneNode {
    /// The root key a delivered key cancels: the key itself, or the root
    /// a looped-back proxy key is blamed on.
    fn root_of(&self, key: u64) -> Option<u64> {
        match &self.node.edge {
            Some(edge) if key >= FED_KEY_BASE => edge.blame_for(key).map(|id| id.root_key),
            _ => Some(key),
        }
    }

    /// Opens request `key`: its root task, and its proxy when the node
    /// has a looped-back edge.
    fn open(&self, key: u64) -> Request {
        let port = &*self.node.port;
        let root = port.create_cancel(Some(key));
        port.unit_started(root);
        let worker = match &self.node.edge {
            Some(edge) => {
                let proxy = edge.open(&EdgeIdentity::local(edge.node(), key).hop(edge.node()));
                port.unit_started(proxy);
                proxy
            }
            None => root,
        };
        Request {
            key,
            root,
            worker,
            amount: 1,
        }
    }

    fn close(&self, r: &Request) {
        close(&*self.node.port, r.worker);
        if r.worker != r.root {
            close(&*self.node.port, r.root);
        }
    }
}

impl Topology for OneNode {
    type Victim = Request;

    fn nodes(&self) -> Vec<&ScriptNode> {
        vec![&self.node]
    }

    fn react(&mut self, w: u64, blocked: &mut Vec<Request>) {
        let start = w * WINDOW_NS;
        for root in std::mem::take(&mut *self.upstream.lock()) {
            let _ = self.node.rt.cancel_key(TaskKey(root));
        }
        for key in self.node.take_delivered() {
            self.canceled_keys.push(key);
            match self.root_of(key) {
                Some(HOG_KEY) => {
                    if let Some((hog, held)) = self.hog.take() {
                        advance(&self.node.clock, start + MS);
                        if held > 0 {
                            self.node.port.free(hog.worker, self.res, held);
                        }
                        self.close(&hog);
                    }
                }
                Some(root) => {
                    if let Some(pos) = blocked.iter().position(|v| v.key == root) {
                        let v = blocked.remove(pos);
                        advance(&self.node.clock, start + MS);
                        self.close(&v);
                    }
                }
                None => {}
            }
        }
    }

    fn open_hog(&mut self, _start: u64) {
        let hog = self.open(HOG_KEY);
        let port = &*self.node.port;
        port.progress(hog.worker, 5, 100);
        let held = match self.kind {
            ScenarioFamily::LockHog => 1,
            // The hog takes the whole (two-ticket) pool.
            ScenarioFamily::TicketQueue => 2,
            ScenarioFamily::BufferScan => 0,
        };
        if held > 0 {
            port.get(hog.worker, self.res, held);
        }
        self.hog = Some((hog, held));
    }

    /// The scan sweeps more of the pool every window it survives.
    fn hog_window(&mut self, w: u64) -> bool {
        if let Some((hog, held)) = &mut self.hog {
            if self.kind == ScenarioFamily::BufferScan {
                advance(&self.node.clock, w * WINDOW_NS + 3 * MS);
                self.node.port.get(hog.worker, self.res, 60);
                *held += 60;
                self.node.port.progress(hog.worker, (5 + w).min(99), 100);
            }
        }
        self.hog.is_some()
    }

    fn arrive(&mut self, key: u64, t0: u64, convoyed: bool) -> Option<Request> {
        let mut r = self.open(key);
        if self.kind == ScenarioFamily::BufferScan {
            r.amount = 2 + self.rng.below(4);
        }
        let port = &*self.node.port;
        port.slow_by(r.worker, self.res, r.amount);
        if convoyed {
            return Some(r);
        }
        serve(&self.node.clock, port, r.worker, self.res, r.amount, t0);
        if r.worker != r.root {
            close(port, r.root);
        }
        None
    }

    fn drain(&mut self, v: Request) {
        self.node.port.get(v.worker, self.res, v.amount);
        self.node.port.free(v.worker, self.res, v.amount);
        self.close(&v);
    }

    fn give_up(&mut self, v: Request) {
        self.close(&v);
    }

    fn finish(&mut self) {
        for root in std::mem::take(&mut *self.upstream.lock()) {
            let _ = self.node.rt.cancel_key(TaskKey(root));
        }
        self.canceled_keys.extend(self.node.take_delivered());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::WINDOWS;

    #[test]
    fn quiet_lock_hog_cancels_the_hog_and_only_the_hog() {
        let out = run_scenario(ScenarioFamily::LockHog, &FaultPlan::quiet(1), 1);
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(out.hog_canceled, "hog survived: {out:?}");
        assert!(!out.victim_canceled, "victim canceled: {out:?}");
        assert_eq!(out.canceled_keys.first(), Some(&HOG_KEY));
        assert!(out.candidates >= 1);
        assert_eq!(out.ticks, WINDOWS);
    }

    #[test]
    fn quiet_buffer_scan_cancels_the_scan_and_only_the_scan() {
        let out = run_scenario(ScenarioFamily::BufferScan, &FaultPlan::quiet(1), 1);
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(out.hog_canceled, "scan survived: {out:?}");
        assert!(!out.victim_canceled, "victim canceled: {out:?}");
    }

    #[test]
    fn quiet_ticket_queue_cancels_the_hog_and_only_the_hog() {
        let out = run_scenario(ScenarioFamily::TicketQueue, &FaultPlan::quiet(1), 1);
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(out.hog_canceled, "hog survived: {out:?}");
        assert!(!out.victim_canceled, "victim canceled: {out:?}");
        assert_eq!(out.canceled_keys.first(), Some(&HOG_KEY));
    }

    #[test]
    fn scenario_is_deterministic() {
        let plan = FaultPlan::sample(1234);
        let a = run_scenario(ScenarioFamily::LockHog, &plan, 1);
        let b = run_scenario(ScenarioFamily::LockHog, &plan, 1);
        assert_eq!(a.canceled_keys, b.canceled_keys);
        assert_eq!(a.issued_keys, b.issued_keys);
        assert_eq!(a.candidates, b.candidates);
    }
}
