//! Scripted cascading-overload scenarios across a federated topology.
//!
//! The topology is a frontend tier (`n0`) fanning out to one or more
//! backend tiers over [`FedEdge`](atropos_substrate::FedEdge)s, all on
//! one virtual clock, playing the chaos crate's convoy
//! [script](atropos_chaos::script). Every root request registers on the
//! frontend and opens identity-carrying proxy tasks on the backends; a
//! hog's proxy then convoys a backend shard while innocent victims fan in
//! behind it. The backend's detector blames the proxy, the blame table
//! resolves it to the *remote root*, and the cancellation propagates
//! upstream — through seeded edge faults ([`EdgeFaultPlan`]) — until the
//! frontend cancels the root end to end.
//!
//! Per tick, every node's I1–I8 are checked by the script and the
//! cross-edge blame-conservation invariant I9 is checked over the union
//! of edges; [`run_fed_scenario`] reports the first violation.
//! [`run_fed_degenerate`] collapses the topology to a single runtime (the
//! edge loops back onto its own node) for the fed-vs-single-runtime
//! differential.

use std::collections::HashSet;
use std::sync::Arc;

use atropos::{ResourceId, ResourceType, TaskId, TaskKey};
use atropos_chaos::script::{
    advance, close, run_script, serve, ScriptNode, Topology, HOG_KEY, MS, WINDOWS, WINDOW_NS,
};
use atropos_chaos::{
    check_edge_blame, run_on_node, EdgeCancelObservation, FaultPlan, ScenarioOutcome, Violation,
};
use atropos_obs::DecisionEpisode;
use atropos_sim::VirtualClock;
use atropos_substrate::{CancelFn, EdgeIdentity, EdgeStats, NodeId, ScenarioFamily, FED_KEY_BASE};

use crate::edge_chaos::{EdgeFaultPlan, EdgeFaultSink};

/// Window at which an uncanceled culprit completes naturally (bounds
/// armed runs where the cancellation was swallowed).
pub const HOG_NATURAL_END_WINDOW: u64 = 9;

/// Which federated overload cascade to run. The three kinds share one
/// service-graph script and differ in topology and in the seeded fault
/// plan armed on the upstream cancel leg of the culprit edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FedScenarioKind {
    /// Two tiers; the edge partitions after detection and heals, so the
    /// cross-node cancel arrives late but arrives.
    Partition,
    /// Two tiers; upstream cancels are delayed whole windows and
    /// reordered within a release batch.
    DelayedCancel,
    /// Four tiers (frontend + three backends); every root fans out to
    /// all backends and fans in, and the culprit convoys only the last
    /// shard — the slowest-shard convoy, with light edge jitter.
    FanConvoy,
}

impl FedScenarioKind {
    /// All kinds, in soak order.
    pub const ALL: [FedScenarioKind; 3] = [
        FedScenarioKind::Partition,
        FedScenarioKind::DelayedCancel,
        FedScenarioKind::FanConvoy,
    ];

    /// Stable name (CLI vocabulary).
    pub fn name(&self) -> &'static str {
        match self {
            FedScenarioKind::Partition => "partition",
            FedScenarioKind::DelayedCancel => "delayed_cancel",
            FedScenarioKind::FanConvoy => "fan_convoy",
        }
    }

    /// Backend count for this kind, resolved from the checked-in
    /// topology descriptor (`descriptors/fed/<kind>.toml`).
    pub fn fanout(&self) -> usize {
        atropos_workload::fed_topology(self.name()).fanout as usize
    }
}

/// What one federated scenario run observed.
#[derive(Debug)]
pub struct FedOutcome {
    /// The kind that ran.
    pub kind: FedScenarioKind,
    /// Base seed of the run.
    pub seed: u64,
    /// `(window, root_key)` deliveries at the frontend initiator, in
    /// order — the end-to-end cancellations.
    pub canceled_roots: Vec<(u64, u64)>,
    /// Whether the culprit root was canceled end to end.
    pub root_canceled: bool,
    /// Window the culprit root's cancellation reached the frontend.
    pub root_cancel_window: Option<u64>,
    /// Innocent roots canceled at the frontend (must be 0 in quiet runs).
    pub victim_roots_canceled: u64,
    /// FED-namespace keys canceled at backends, per backend, issue order.
    pub backend_canceled_keys: Vec<Vec<u64>>,
    /// The seeded edge faults armed on the culprit edge.
    pub edge_plan: EdgeFaultPlan,
    /// Per-backend edge counters.
    pub edge_stats: Vec<EdgeStats>,
    /// Every cross-node cancellation observed at an edge (I9 input).
    pub observations: Vec<EdgeCancelObservation>,
    /// Decision episodes spanning nodes: `(node, episode)`.
    pub episodes: Vec<(NodeId, DecisionEpisode)>,
    /// Node-qualified resources episodes assigned blame on (sorted,
    /// deduped) — e.g. `"n1/shard_lock"`.
    pub blamed_resources: Vec<String>,
    /// Victims that drained normally after the convoy cleared.
    pub drained_victims: u64,
    /// Victims that gave up while convoyed (over-SLO completions).
    pub gave_up_victims: u64,
    /// First invariant violation, if any (the run stops there).
    pub violation: Option<Violation>,
}

struct Blocked {
    root: u64,
    front_task: TaskId,
    proxy: TaskId,
    proxy_key: u64,
}

/// The culprit's proxy on the culprit backend (its proxies elsewhere
/// close as soon as they open): its task and its FED-namespace key.
struct HogProxy {
    task: TaskId,
    key: u64,
}

/// The federated topology: a frontend and its backends, the culprit
/// convoying the last backend's shard.
struct Cascade {
    front: ScriptNode,
    backends: Vec<ScriptNode>,
    sinks: Vec<Arc<EdgeFaultSink>>,
    shards: Vec<ResourceId>,
    culprit: usize,
    hog_root: Option<TaskId>,
    hog_proxy: Option<HogProxy>,
    witnessed: HashSet<u64>,
    observed_backend_keys: Vec<HashSet<u64>>,
    observations: Vec<EdgeCancelObservation>,
    canceled_roots: Vec<(u64, u64)>,
    victim_roots_canceled: u64,
    drained_victims: u64,
    gave_up_victims: u64,
}

/// Runs one federated scenario: quiet node plans when `armed` is false
/// (the story must then play out exactly), a seeded armed plan at the
/// culprit backend when true (the story may degrade; the invariants may
/// not). Everything — node plans, edge faults, the script — derives from
/// `seed`, so any failure replays bit-identically.
pub fn run_fed_scenario(kind: FedScenarioKind, seed: u64, armed: bool) -> FedOutcome {
    let fanout = kind.fanout();
    let culprit = fanout - 1; // backend index the hog convoys
    let clock = Arc::new(VirtualClock::new());
    let front = ScriptNode::new(&clock, &FaultPlan::quiet(seed), false, None);
    let backends: Vec<ScriptNode> = (0..fanout)
        .map(|b| {
            let plan = if armed && b == culprit {
                FaultPlan::sample(seed)
            } else {
                FaultPlan::quiet(seed ^ (b as u64 + 1))
            };
            ScriptNode::new(&clock, &plan, false, Some(NodeId(b as u16 + 1)))
        })
        .collect();

    let edge_plan = EdgeFaultPlan::for_kind(kind, seed);
    let sinks: Vec<Arc<EdgeFaultSink>> = backends
        .iter()
        .enumerate()
        .map(|(b, node)| {
            let front_rt = front.rt.clone();
            let plan = if b == culprit {
                edge_plan
            } else {
                EdgeFaultPlan::healthy()
            };
            let sink = EdgeFaultSink::new(
                plan,
                Arc::new(CancelFn(move |key: TaskKey| {
                    let _ = front_rt.cancel_key(key);
                })),
            );
            edge(node).install_upstream(sink.clone());
            sink
        })
        .collect();
    let shards = backends
        .iter()
        .map(|n| n.rt.register_resource("shard_lock", ResourceType::Lock))
        .collect();

    let mut topo = Cascade {
        front,
        backends,
        sinks,
        shards,
        culprit,
        hog_root: None,
        hog_proxy: None,
        witnessed: HashSet::new(),
        observed_backend_keys: vec![HashSet::new(); fanout],
        observations: Vec::new(),
        canceled_roots: Vec::new(),
        victim_roots_canceled: 0,
        drained_victims: 0,
        gave_up_victims: 0,
    };
    let (violation, node_episodes) = run_script(&mut topo, 1);

    let mut episodes: Vec<(NodeId, DecisionEpisode)> = Vec::new();
    let mut blamed: Vec<String> = Vec::new();
    for (n, eps) in node_episodes.into_iter().enumerate() {
        let id = NodeId(n as u16);
        for e in eps {
            if e.culprit_key.is_some() && !e.resource.is_empty() {
                blamed.push(format!("{id}/{}", e.resource));
            }
            episodes.push((id, e));
        }
    }
    blamed.sort();
    blamed.dedup();

    let root_cancel_window = topo
        .canceled_roots
        .iter()
        .find(|(_, k)| *k == HOG_KEY)
        .map(|(w, _)| *w);
    FedOutcome {
        kind,
        seed,
        root_canceled: root_cancel_window.is_some(),
        root_cancel_window,
        victim_roots_canceled: topo.victim_roots_canceled,
        backend_canceled_keys: topo
            .backends
            .iter()
            .map(|node| {
                node.rt
                    .debug_snapshot()
                    .cancel
                    .canceled_keys
                    .iter()
                    .filter(|(k, _)| k.0 >= FED_KEY_BASE)
                    .map(|(k, _)| k.0)
                    .collect()
            })
            .collect(),
        canceled_roots: topo.canceled_roots,
        edge_plan,
        edge_stats: topo
            .backends
            .iter()
            .map(|node| edge(node).stats())
            .collect(),
        observations: topo.observations,
        episodes,
        blamed_resources: blamed,
        drained_victims: topo.drained_victims,
        gave_up_victims: topo.gave_up_victims,
        violation,
    }
}

/// A backend node's edge.
fn edge(node: &ScriptNode) -> &Arc<atropos_substrate::FedEdge> {
    node.edge.as_ref().expect("backend nodes carry an edge")
}

impl Cascade {
    /// The culprit's proxy, if still open, releases its shard and closes.
    fn release_proxy(&mut self) {
        if let Some(p) = self.hog_proxy.take() {
            let port = &*self.backends[self.culprit].port;
            port.free(p.task, self.shards[self.culprit], 1);
            close(port, p.task);
        }
    }

    /// The culprit's proxy and root, if still open, release and close.
    fn release_hog(&mut self) {
        self.release_proxy();
        if let Some(root) = self.hog_root.take() {
            close(&*self.front.port, root);
        }
    }

    /// A convoyed victim's proxy and root close.
    fn close_victim(&self, v: &Blocked) {
        close(&*self.backends[self.culprit].port, v.proxy);
        close(&*self.front.port, v.front_task);
    }
}

impl Topology for Cascade {
    type Victim = Blocked;

    fn nodes(&self) -> Vec<&ScriptNode> {
        std::iter::once(&self.front).chain(&self.backends).collect()
    }

    fn react(&mut self, w: u64, blocked: &mut Vec<Blocked>) {
        let start = w * WINDOW_NS;
        // The edges advance first: partitions heal, delayed cancels land.
        for sink in &self.sinks {
            sink.advance_to(w);
        }

        // End-to-end cancellations delivered at the frontend.
        for key in self.front.take_delivered() {
            self.canceled_roots.push((w, key));
            advance(&self.front.clock, start + MS);
            if key == HOG_KEY {
                self.release_hog();
            } else if let Some(pos) = blocked.iter().position(|v| v.root == key) {
                let v = blocked.remove(pos);
                self.victim_roots_canceled += 1;
                self.close_victim(&v);
            }
        }

        // Callee-local deliveries (the edge's local leg).
        for b in 0..self.backends.len() {
            for pkey in self.backends[b].take_delivered() {
                advance(&self.front.clock, start + MS);
                if b != self.culprit {
                    continue;
                }
                if self.hog_proxy.as_ref().is_some_and(|p| p.key == pkey) {
                    self.release_proxy();
                } else if let Some(pos) = blocked.iter().position(|v| v.proxy_key == pkey) {
                    // A victim's proxy was shed locally: close it and the
                    // root (an innocent casualty, counted).
                    let v = blocked.remove(pos);
                    self.victim_roots_canceled += 1;
                    self.close_victim(&v);
                }
            }
        }
    }

    /// One root, one proxy per backend; only the culprit shard is hogged,
    /// the rest see a quick touch (fan-out).
    fn open_hog(&mut self, start: u64) {
        let root = self.front.port.create_cancel(Some(HOG_KEY));
        self.front.port.unit_started(root);
        self.witnessed.insert(HOG_KEY);
        self.hog_root = Some(root);
        let identity = EdgeIdentity::local(NodeId(0), HOG_KEY);
        for (b, node) in self.backends.iter().enumerate() {
            let edge = edge(node);
            let proxy = edge.open(&identity.hop(edge.node()));
            let port = &*node.port;
            port.unit_started(proxy);
            if b == self.culprit {
                port.progress(proxy, 5, 100);
                port.get(proxy, self.shards[b], 1);
                self.hog_proxy = Some(HogProxy {
                    task: proxy,
                    key: identity.remote_key(),
                });
            } else {
                advance(&self.front.clock, start + 3 * MS);
                port.get(proxy, self.shards[b], 1);
                port.free(proxy, self.shards[b], 1);
                close(port, proxy);
            }
        }
    }

    fn hog_window(&mut self, _w: u64) -> bool {
        self.hog_proxy.is_some()
    }

    /// Every root fans out to all backends and fans in; non-culprit
    /// shards always complete fast, the culprit shard convoys while
    /// hogged.
    fn arrive(&mut self, key: u64, t0: u64, convoyed: bool) -> Option<Blocked> {
        self.witnessed.insert(key);
        let front_task = self.front.port.create_cancel(Some(key));
        self.front.port.unit_started(front_task);
        let identity = EdgeIdentity::local(NodeId(0), key);
        let mut victim = None;
        for (b, node) in self.backends.iter().enumerate() {
            let edge = edge(node);
            let hopped = identity.hop(edge.node());
            let proxy = edge.open(&hopped);
            let port = &*node.port;
            port.unit_started(proxy);
            port.slow_by(proxy, self.shards[b], 1);
            if b == self.culprit && convoyed {
                victim = Some(Blocked {
                    root: key,
                    front_task,
                    proxy,
                    proxy_key: hopped.remote_key(),
                });
            } else {
                serve(&self.front.clock, port, proxy, self.shards[b], 1, t0);
            }
        }
        if victim.is_none() {
            advance(&self.front.clock, t0 + 4 * MS);
            close(&*self.front.port, front_task);
        }
        victim
    }

    /// The proxy completes on the shard, the root closes end to end.
    fn drain(&mut self, v: Blocked) {
        let port = &*self.backends[self.culprit].port;
        port.get(v.proxy, self.shards[self.culprit], 1);
        port.free(v.proxy, self.shards[self.culprit], 1);
        self.close_victim(&v);
        self.drained_victims += 1;
    }

    /// The backend detector sees an over-SLO completion — and so does the
    /// frontend.
    fn give_up(&mut self, v: Blocked) {
        self.close_victim(&v);
        self.gave_up_victims += 1;
    }

    /// A swallowed cancellation must not wedge the run: the hog completes
    /// naturally late in the run.
    fn end_window(&mut self, w: u64) {
        if w == HOG_NATURAL_END_WINDOW {
            advance(&self.front.clock, w * WINDOW_NS + 97 * MS);
            self.release_hog();
        }
    }

    /// I9 across edges: every FED-namespace cancellation a backend issued
    /// since the last tick must be blamed on a witnessed root.
    fn after_tick(&mut self, w: u64) -> Result<(), Violation> {
        for (b, node) in self.backends.iter().enumerate() {
            let edge = edge(node);
            let snap = node.rt.debug_snapshot();
            let mut fresh = Vec::new();
            for (key, _) in &snap.cancel.canceled_keys {
                if key.0 >= FED_KEY_BASE && self.observed_backend_keys[b].insert(key.0) {
                    let (root_key, origin_node, had_blame) = match edge.blame_for(key.0) {
                        Some(id) => (id.root_key, id.origin().0, true),
                        None => (
                            key.0 & ((1 << 48) - 1),
                            ((key.0 >> 48) & 0xFF) as u16,
                            false,
                        ),
                    };
                    fresh.push(EdgeCancelObservation {
                        root_key,
                        origin_node,
                        had_blame,
                        tick: w,
                    });
                }
            }
            let checked = check_edge_blame(&self.witnessed, &fresh, edge.stats().frames_rejected);
            self.observations.extend(fresh);
            checked?;
        }
        Ok(())
    }

    /// Late deliveries after the last tick still count for the outcome.
    fn finish(&mut self) {
        for sink in &self.sinks {
            sink.advance_to(WINDOWS);
        }
        for key in self.front.take_delivered() {
            self.canceled_roots.push((WINDOWS, key));
        }
    }
}

/// The degenerate one-node topology: the RPC edge loops back onto its
/// own runtime, so root tasks and their proxy tasks coexist in one node
/// and the "cross-node" cancel is a self-delivery. The culprit identity
/// this topology blames must coincide with what the plain single-runtime
/// chaos script blames for the same convoy — the federation machinery
/// collapses to the paper's single-node behavior. Victims are tie-heavy
/// (`load` identical arrivals per slot) so the policy has real ties to
/// break.
pub fn run_fed_degenerate(seed: u64, load: u64) -> ScenarioOutcome {
    let clock = Arc::new(VirtualClock::new());
    let node = ScriptNode::new(&clock, &FaultPlan::quiet(seed), false, Some(NodeId(0)));
    run_on_node(node, ScenarioFamily::LockHog, seed, load)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ROOT_HOG_KEY;

    #[test]
    fn quiet_partition_story_plays_out() {
        let out = run_fed_scenario(FedScenarioKind::Partition, 1, false);
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(
            out.root_canceled,
            "root never canceled: {:?}",
            out.canceled_roots
        );
        assert_eq!(out.victim_roots_canceled, 0);
        let (_, heal) = out.edge_plan.partition.expect("partition kind");
        assert!(
            out.root_cancel_window.unwrap() >= heal,
            "cancel {:?} arrived before the partition healed at {heal}",
            out.root_cancel_window
        );
    }

    #[test]
    fn degenerate_topology_blames_the_hog() {
        let out = run_fed_degenerate(3, 2);
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert_eq!(out.culprit_root, Some(ROOT_HOG_KEY));
        assert!(out.canceled_keys.contains(&ROOT_HOG_KEY));
    }
}
