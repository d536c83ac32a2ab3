//! Scripted cascading-overload scenarios across a federated topology.
//!
//! The topology is a frontend tier (`n0`) fanning out to one or more
//! backend tiers over [`FedEdge`](atropos_substrate::FedEdge)s, all on
//! one virtual clock. Every root request registers on the frontend and
//! opens identity-carrying proxy tasks on the backends; a hog's proxy
//! then convoys a backend shard while innocent victims fan in behind it.
//! The backend's detector blames the proxy, the blame table resolves it
//! to the *remote root*, and the cancellation propagates upstream —
//! through seeded edge faults ([`EdgeFaultPlan`]) — until the frontend
//! cancels the root end to end.
//!
//! Per tick, every node's I1–I8 are checked by its own
//! [`InvariantChecker`] and the cross-edge blame-conservation invariant
//! I9 is checked over the union of edges; [`run_fed_scenario`] reports
//! the first violation. [`run_fed_degenerate`] collapses the topology to
//! a single runtime (the edge loops back onto its own node) for the
//! fed-vs-single-runtime differential.

use std::collections::HashSet;
use std::sync::Arc;

use atropos::{ResourceType, TaskId, TaskKey};
use atropos_chaos::{
    check_edge_blame, check_episode_coverage, EdgeCancelObservation, FaultPlan, InvariantChecker,
    Violation,
};
use atropos_obs::DecisionEpisode;
use atropos_sim::{Clock, SimTime, VirtualClock};
use atropos_substrate::{CancelFn, EdgeIdentity, EdgeStats, NodeId, FED_KEY_BASE};
use parking_lot::Mutex;

use crate::edge_chaos::{EdgeFaultPlan, EdgeFaultSink};
use crate::node::FedNode;

const MS: u64 = 1_000_000;
/// Detection window length (also the tick period before skew).
pub const WINDOW_NS: u64 = 100 * MS;
/// Number of windows each scenario runs.
pub const WINDOWS: u64 = 12;
/// Window at which the culprit root arrives.
pub const HOG_START_WINDOW: u64 = 2;
/// Window at which an uncanceled culprit completes naturally (bounds
/// armed runs where the cancellation was swallowed).
pub const HOG_NATURAL_END_WINDOW: u64 = 9;
/// Root key of the culprit on the frontend; victim roots count up from
/// 100 and stay below.
pub const ROOT_HOG_KEY: u64 = 9_000;

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
    /// Root keys registered at the frontend (I9 witness set size).
    pub witnessed_roots: usize,
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

struct HogProxy {
    task: TaskId,
    key: u64,
    held: u64,
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
    let front = FedNode::frontend(clock.clone() as Arc<dyn Clock>, &FaultPlan::quiet(seed));
    let backends: Vec<FedNode> = (0..fanout)
        .map(|b| {
            let plan = if armed && b == culprit {
                FaultPlan::sample(seed)
            } else {
                FaultPlan::quiet(seed ^ (b as u64 + 1))
            };
            FedNode::backend(NodeId(b as u16 + 1), clock.clone() as Arc<dyn Clock>, &plan)
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
            node.edge
                .as_ref()
                .expect("backend nodes carry an edge")
                .install_upstream(sink.clone());
            sink
        })
        .collect();

    let shards: Vec<_> = backends
        .iter()
        .map(|n| n.rt.register_resource("shard_lock", ResourceType::Lock))
        .collect();

    let mut checkers: Vec<InvariantChecker> =
        (0..fanout + 1).map(|_| InvariantChecker::new()).collect();
    let mut witnessed: HashSet<u64> = HashSet::new();
    let mut observed_backend_keys: Vec<HashSet<u64>> = vec![HashSet::new(); fanout];
    let mut observations: Vec<EdgeCancelObservation> = Vec::new();
    let mut canceled_roots: Vec<(u64, u64)> = Vec::new();
    let mut victim_roots_canceled = 0u64;
    let mut drained_victims = 0u64;
    let mut gave_up_victims = 0u64;
    let mut blocked: Vec<Blocked> = Vec::new();
    let mut hog_proxies: Vec<Option<HogProxy>> = (0..fanout).map(|_| None).collect();
    let mut hog_root: Option<TaskId> = None;
    let mut hog_done = false;
    let mut next_key = 100u64;
    let mut violation: Option<Violation> = None;
    let at = |ns: u64| SimTime::from_nanos(ns);

    'windows: for w in 0..WINDOWS {
        let start = w * WINDOW_NS;
        clock.advance_to(at(start));

        // The edges advance first: partitions heal, delayed cancels land.
        for sink in &sinks {
            sink.advance_to(w);
        }

        // React to end-to-end cancellations delivered at the frontend.
        for key in front.take_delivered() {
            canceled_roots.push((w, key));
            clock.advance_to(at(start + MS));
            if key == ROOT_HOG_KEY {
                for (b, slot) in hog_proxies.iter_mut().enumerate() {
                    if let Some(p) = slot.take() {
                        let port = backends[b].port();
                        if p.held > 0 {
                            port.free(p.task, shards[b], p.held);
                        }
                        port.unit_finished(p.task);
                        port.free_cancel(p.task);
                    }
                }
                if let Some(root) = hog_root.take() {
                    front.inj.unit_finished(root);
                    front.inj.free_cancel(root);
                }
                hog_done = true;
            } else if let Some(pos) = blocked.iter().position(|v| v.root == key) {
                let v = blocked.remove(pos);
                victim_roots_canceled += 1;
                let port = backends[culprit].port();
                port.unit_finished(v.proxy);
                port.free_cancel(v.proxy);
                front.inj.unit_finished(v.front_task);
                front.inj.free_cancel(v.front_task);
            }
        }

        // React to callee-local deliveries (the edge's local leg).
        for (b, node) in backends.iter().enumerate() {
            for pkey in node.take_delivered() {
                clock.advance_to(at(start + MS));
                if hog_proxies[b].as_ref().is_some_and(|p| p.key == pkey) {
                    let p = hog_proxies[b].take().expect("checked above");
                    let port = node.port();
                    if p.held > 0 {
                        port.free(p.task, shards[b], p.held);
                    }
                    port.unit_finished(p.task);
                    port.free_cancel(p.task);
                } else if let Some(pos) = blocked
                    .iter()
                    .position(|v| b == culprit && v.proxy_key == pkey)
                {
                    // A victim's proxy was shed locally: close it and the
                    // root (an innocent casualty, counted).
                    let v = blocked.remove(pos);
                    victim_roots_canceled += 1;
                    let port = node.port();
                    port.unit_finished(v.proxy);
                    port.free_cancel(v.proxy);
                    front.inj.unit_finished(v.front_task);
                    front.inj.free_cancel(v.front_task);
                }
            }
        }

        // The culprit arrives: one root, one proxy per backend; only the
        // culprit shard is hogged, the rest see a quick touch (fan-out).
        if w == HOG_START_WINDOW && !hog_done {
            clock.advance_to(at(start + 2 * MS));
            let root = front.inj.create_cancel(Some(ROOT_HOG_KEY));
            front.inj.unit_started(root);
            witnessed.insert(ROOT_HOG_KEY);
            hog_root = Some(root);
            let identity = EdgeIdentity::local(NodeId(0), ROOT_HOG_KEY);
            for (b, node) in backends.iter().enumerate() {
                let edge = node.edge.as_ref().expect("backend edge");
                let proxy = edge.open(&identity.hop(node.id));
                let port = node.port();
                port.unit_started(proxy);
                if b == culprit {
                    port.progress(proxy, 5, 100);
                    port.get(proxy, shards[b], 1);
                    hog_proxies[b] = Some(HogProxy {
                        task: proxy,
                        key: identity.remote_key(),
                        held: 1,
                    });
                } else {
                    clock.advance_to(at(start + 3 * MS));
                    port.get(proxy, shards[b], 1);
                    port.free(proxy, shards[b], 1);
                    port.unit_finished(proxy);
                    port.free_cancel(proxy);
                }
            }
        }
        let hog_active = hog_proxies[culprit].is_some();

        // With the convoy cleared, blocked victims drain early in the
        // window: proxy completes on the shard, root closes end to end.
        if !hog_active && !blocked.is_empty() {
            let n = blocked.len() as u64;
            for (i, v) in blocked.drain(..).enumerate() {
                clock.advance_to(at(start + 4 * MS + (i as u64) * (12 * MS) / n));
                let port = backends[culprit].port();
                port.get(v.proxy, shards[culprit], 1);
                port.free(v.proxy, shards[culprit], 1);
                port.unit_finished(v.proxy);
                port.free_cancel(v.proxy);
                front.inj.unit_finished(v.front_task);
                front.inj.free_cancel(v.front_task);
                drained_victims += 1;
            }
        }

        // Arrivals: every root fans out to all backends and fans in;
        // non-culprit shards always complete fast, the culprit shard
        // convoys while hogged.
        for i in 0..10u64 {
            let t0 = start + 20 * MS + i * (70 * MS) / 10;
            clock.advance_to(at(t0));
            let key = next_key;
            next_key += 1;
            witnessed.insert(key);
            let front_task = front.inj.create_cancel(Some(key));
            front.inj.unit_started(front_task);
            let identity = EdgeIdentity::local(NodeId(0), key);
            let mut victim_blocked = None;
            for (b, node) in backends.iter().enumerate() {
                let edge = node.edge.as_ref().expect("backend edge");
                let hopped = identity.hop(node.id);
                let proxy = edge.open(&hopped);
                let port = node.port();
                port.unit_started(proxy);
                port.slow_by(proxy, shards[b], 1);
                if b == culprit && hog_active {
                    victim_blocked = Some(Blocked {
                        root: key,
                        front_task,
                        proxy,
                        proxy_key: hopped.remote_key(),
                    });
                } else {
                    clock.advance_to(at(t0 + MS));
                    port.get(proxy, shards[b], 1);
                    clock.advance_to(at(t0 + 3 * MS));
                    port.free(proxy, shards[b], 1);
                    port.unit_finished(proxy);
                    port.free_cancel(proxy);
                }
            }
            match victim_blocked {
                Some(v) => blocked.push(v),
                None => {
                    clock.advance_to(at(t0 + 4 * MS));
                    front.inj.unit_finished(front_task);
                    front.inj.free_cancel(front_task);
                }
            }
        }

        // Under the convoy, the two oldest victims give up at the window
        // edge: the few completions the backend detector sees are far
        // over SLO — and so are their roots at the frontend.
        if hog_active {
            for j in 0..2usize.min(blocked.len()) {
                let v = blocked.remove(0);
                clock.advance_to(at(start + 95 * MS + j as u64 * MS));
                let port = backends[culprit].port();
                port.unit_finished(v.proxy);
                port.free_cancel(v.proxy);
                front.inj.unit_finished(v.front_task);
                front.inj.free_cancel(v.front_task);
                gave_up_victims += 1;
            }
        }

        // A swallowed cancellation must not wedge the run: the hog
        // completes naturally late in the run.
        if w == HOG_NATURAL_END_WINDOW {
            clock.advance_to(at(start + 97 * MS));
            for (b, slot) in hog_proxies.iter_mut().enumerate() {
                if let Some(p) = slot.take() {
                    let port = backends[b].port();
                    if p.held > 0 {
                        port.free(p.task, shards[b], p.held);
                    }
                    port.unit_finished(p.task);
                    port.free_cancel(p.task);
                }
            }
            if let Some(root) = hog_root.take() {
                front.inj.unit_finished(root);
                front.inj.free_cancel(root);
            }
            hog_done = true;
        }

        // Tick every node (ascending skew keeps the shared clock
        // monotonic), then check I1–I8 per node and I9 across edges.
        let mut order: Vec<usize> = (0..fanout + 1).collect();
        let skew = |n: usize| {
            if n == 0 {
                front.inj.tick_skew_ns()
            } else {
                backends[n - 1].inj.tick_skew_ns()
            }
        };
        order.sort_by_key(|&n| skew(n));
        for &n in &order {
            clock.advance_to(at((w + 1) * WINDOW_NS + skew(n)));
            if n == 0 {
                front.inj.tick();
            } else {
                backends[n - 1].inj.tick();
            }
        }
        for (n, checker) in checkers.iter_mut().enumerate() {
            let node = if n == 0 { &front } else { &backends[n - 1] };
            if let Err(v) = checker.after_tick(&node.rt, &node.inj.truth()) {
                violation = Some(v);
                break 'windows;
            }
        }
        for (b, node) in backends.iter().enumerate() {
            let edge = node.edge.as_ref().expect("backend edge");
            let snap = node.rt.debug_snapshot();
            let mut fresh = Vec::new();
            for (key, _) in &snap.cancel.canceled_keys {
                if key.0 >= FED_KEY_BASE && observed_backend_keys[b].insert(key.0) {
                    let obs = match edge.blame_for(key.0) {
                        Some(id) => EdgeCancelObservation {
                            root_key: id.root_key,
                            origin_node: id.origin().0,
                            had_blame: true,
                            tick: w,
                        },
                        None => EdgeCancelObservation {
                            root_key: key.0 & ((1 << 48) - 1),
                            origin_node: ((key.0 >> 48) & 0xFF) as u16,
                            had_blame: false,
                            tick: w,
                        },
                    };
                    fresh.push(obs);
                }
            }
            let rejected = edge.stats().frames_rejected;
            if let Err(v) = check_edge_blame(&witnessed, &fresh, rejected) {
                observations.extend(fresh);
                violation = Some(v);
                break 'windows;
            }
            observations.extend(fresh);
        }
    }

    // Late deliveries after the last tick still count for the outcome.
    for sink in &sinks {
        sink.advance_to(WINDOWS);
    }
    for key in front.take_delivered() {
        canceled_roots.push((WINDOWS, key));
    }

    let mut episodes: Vec<(NodeId, DecisionEpisode)> = Vec::new();
    let mut blamed: Vec<String> = Vec::new();
    for n in 0..fanout + 1 {
        let node = if n == 0 { &front } else { &backends[n - 1] };
        let snap = node.rt.debug_snapshot();
        let names = atropos_obs::ResourceNames::from_snapshot(&snap);
        let eps = node.obs.drain_episodes(&names);
        // I8 per node, end of run: the flight recorder must explain every
        // issued cancellation. An earlier violation takes precedence.
        if violation.is_none() {
            if let Err(v) = check_episode_coverage(&node.inj.truth(), &eps) {
                violation = Some(v);
            }
        }
        for e in eps {
            if e.culprit_key.is_some() && !e.resource.is_empty() {
                blamed.push(format!("{}/{}", node.id, e.resource));
            }
            episodes.push((node.id, e));
        }
    }
    blamed.sort();
    blamed.dedup();

    let root_cancel_window = canceled_roots
        .iter()
        .find(|(_, k)| *k == ROOT_HOG_KEY)
        .map(|(w, _)| *w);
    FedOutcome {
        kind,
        seed,
        root_canceled: root_cancel_window.is_some(),
        root_cancel_window,
        victim_roots_canceled,
        backend_canceled_keys: backends
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
        canceled_roots,
        edge_plan,
        edge_stats: backends
            .iter()
            .map(|node| node.edge.as_ref().expect("backend edge").stats())
            .collect(),
        observations,
        witnessed_roots: witnessed.len(),
        episodes,
        blamed_resources: blamed,
        drained_victims,
        gave_up_victims,
        violation,
    }
}

/// What the degenerate (one-node) topology observed.
#[derive(Debug)]
pub struct DegenerateOutcome {
    /// Keys delivered to the single node's initiator, in order: the
    /// culprit's proxy key first, then the root key it resolves to.
    pub canceled_keys: Vec<u64>,
    /// Root key the first FED-namespace cancellation was blamed on.
    pub culprit_root: Option<u64>,
    /// First invariant violation, if any.
    pub violation: Option<Violation>,
}

/// The degenerate one-node topology: the RPC edge loops back onto its
/// own runtime, so root tasks and their proxy tasks coexist in one node
/// and the "cross-node" cancel is a self-delivery. The culprit identity
/// this topology blames must coincide with what the plain single-runtime
/// chaos script blames for the same convoy — the federation machinery
/// collapses to the paper's single-node behavior. Victims are tie-heavy
/// (`load` identical arrivals per slot) so the policy has real ties to
/// break.
pub fn run_fed_degenerate(seed: u64, load: u64) -> DegenerateOutcome {
    let load = load.max(1);
    let clock = Arc::new(VirtualClock::new());
    let node = FedNode::backend(
        NodeId(0),
        clock.clone() as Arc<dyn Clock>,
        &FaultPlan::quiet(seed),
    );
    let edge = node.edge.as_ref().expect("backend edge").clone();
    // The upstream leg of a self-edge must not reenter the runtime lock:
    // buffer the root keys and deliver between script steps, exactly the
    // asynchronous hop a real edge has.
    let pending: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let p = pending.clone();
    edge.install_upstream(Arc::new(CancelFn(move |key: TaskKey| p.lock().push(key.0))));
    let shard = node.rt.register_resource("shard_lock", ResourceType::Lock);
    let port = node.port();
    let mut checker = InvariantChecker::new();

    let mut blocked: Vec<(TaskId, TaskId)> = Vec::new(); // (root, proxy)
    let mut hog: Option<(TaskId, TaskId)> = None;
    let mut hog_done = false;
    let mut next_key = 100u64;
    let mut canceled_keys: Vec<u64> = Vec::new();
    let mut culprit_root: Option<u64> = None;
    let mut violation = None;
    let at = |ns: u64| SimTime::from_nanos(ns);

    for w in 0..WINDOWS {
        let start = w * WINDOW_NS;
        clock.advance_to(at(start));

        // Deliver buffered upstream cancels (the self-edge's async hop).
        for root in std::mem::take(&mut *pending.lock()) {
            let _ = node.rt.cancel_key(TaskKey(root));
        }

        for key in node.take_delivered() {
            if culprit_root.is_none() && key >= FED_KEY_BASE {
                culprit_root = edge.blame_for(key).map(|id| id.root_key);
            }
            canceled_keys.push(key);
            if key == ROOT_HOG_KEY || key == (FED_KEY_BASE | ROOT_HOG_KEY) {
                if let Some((root, proxy)) = hog.take() {
                    clock.advance_to(at(start + MS));
                    port.free(proxy, shard, 1);
                    port.unit_finished(proxy);
                    port.free_cancel(proxy);
                    port.unit_finished(root);
                    port.free_cancel(root);
                    hog_done = true;
                }
            }
        }

        if w == HOG_START_WINDOW && !hog_done {
            clock.advance_to(at(start + 2 * MS));
            let root = port.create_cancel(Some(ROOT_HOG_KEY));
            port.unit_started(root);
            let identity = EdgeIdentity::local(NodeId(0), ROOT_HOG_KEY).hop(NodeId(0));
            let proxy = edge.open(&identity);
            port.unit_started(proxy);
            port.progress(proxy, 5, 100);
            port.get(proxy, shard, 1);
            hog = Some((root, proxy));
        }
        let hog_active = hog.is_some();

        if !hog_active && !blocked.is_empty() {
            let n = blocked.len() as u64;
            for (i, (root, proxy)) in blocked.drain(..).enumerate() {
                clock.advance_to(at(start + 4 * MS + (i as u64) * (12 * MS) / n));
                port.get(proxy, shard, 1);
                port.free(proxy, shard, 1);
                port.unit_finished(proxy);
                port.free_cancel(proxy);
                port.unit_finished(root);
                port.free_cancel(root);
            }
        }

        let arrivals = 10 * load;
        for i in 0..arrivals {
            let t0 = start + 20 * MS + i * (70 * MS) / arrivals;
            clock.advance_to(at(t0));
            let key = next_key;
            next_key += 1;
            let root = port.create_cancel(Some(key));
            port.unit_started(root);
            let identity = EdgeIdentity::local(NodeId(0), key).hop(NodeId(0));
            let proxy = edge.open(&identity);
            port.unit_started(proxy);
            port.slow_by(proxy, shard, 1);
            if hog_active {
                blocked.push((root, proxy));
            } else {
                clock.advance_to(at(t0 + MS));
                port.get(proxy, shard, 1);
                clock.advance_to(at(t0 + 3 * MS));
                port.free(proxy, shard, 1);
                port.unit_finished(proxy);
                port.free_cancel(proxy);
                port.unit_finished(root);
                port.free_cancel(root);
            }
        }

        if hog_active {
            for j in 0..2usize.min(blocked.len()) {
                let (root, proxy) = blocked.remove(0);
                clock.advance_to(at(start + 95 * MS + j as u64 * MS));
                port.unit_finished(proxy);
                port.free_cancel(proxy);
                port.unit_finished(root);
                port.free_cancel(root);
            }
        }

        let skew = node.inj.tick_skew_ns();
        clock.advance_to(at((w + 1) * WINDOW_NS + skew));
        node.inj.tick();
        if let Err(v) = checker.after_tick(&node.rt, &node.inj.truth()) {
            violation = Some(v);
            break;
        }
    }
    for root in std::mem::take(&mut *pending.lock()) {
        let _ = node.rt.cancel_key(TaskKey(root));
    }
    canceled_keys.extend(node.take_delivered());

    DegenerateOutcome {
        canceled_keys,
        culprit_root,
        violation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
