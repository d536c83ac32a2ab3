//! Two-tier wall-clock federation harness.
//!
//! Real worker threads on the frontend tier serve an open-loop workload;
//! each request registers a root task on the frontend runtime, then RPCs
//! through a [`FedEdge`] into the backend tier, where the work contends
//! on a [`Gate`] shard. A culprit request holds the shard far past its
//! SLO; victims convoy behind it and their *end-to-end* latency is
//! measured at the frontend.
//!
//! The request vocabulary, work queue, open-loop generator, token
//! registry and root-task settlement are the serving core's
//! (`atropos-live`, thread shell); what is written here is what is
//! federated — the RPC body across the edge, the DAGOR door, the report.
//!
//! Three control modes:
//!
//! - [`FedMode::NoControl`]: nothing ticks; the convoy runs its course.
//! - [`FedMode::Atropos`]: the backend runtime ticks, blames the proxy,
//!   and the edge propagates the cancellation upstream; the frontend's
//!   [`CancelRegistry`] token makes the culprit release cooperatively.
//!   Only the culprit's *root* is ever canceled — no innocent upstream
//!   load is shed.
//! - [`FedMode::DagorAdmission`]: a DAGOR-style per-node admission
//!   baseline at the backend entry. It measures queueing, raises its
//!   threshold, and sheds low-priority *victims* — it cannot see which
//!   admitted request is the culprit, so the convoy persists and
//!   innocent load pays.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use atropos::ticker::Ticker;
use atropos::{AtroposRuntime, TaskKey};
use atropos_baselines::Dagor;
use atropos_live::{
    block_on, generate, live_atropos_config, CancelRegistry, CulpritKind, Gate, LiveConfig,
    RequestClass, ServerMetrics, Shell, TaskScope, WorkQueue, CULPRIT_KEY_BASE,
};
use atropos_sim::{Clock, SystemClock};
use atropos_substrate::{CancelFn, EdgeIdentity, EdgeStats, FedEdge, NodeId, RuntimePort};
use parking_lot::Mutex;

/// Control discipline for one federated live run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FedMode {
    /// No overload control anywhere; the baseline the recovery claim is
    /// measured against.
    NoControl,
    /// Atropos on both tiers with cross-node blame propagation.
    Atropos,
    /// DAGOR-style priority admission at the backend entry (per-node: no
    /// cross-node identity, no cancellation of running work).
    DagorAdmission,
}

/// Workload parameters for one two-tier run.
#[derive(Debug, Clone)]
pub struct FedLiveConfig {
    /// Frontend worker threads.
    pub workers: usize,
    /// Wall-clock duration load is offered for.
    pub run_for: Duration,
    /// Open-loop spacing between arrivals.
    pub interarrival: Duration,
    /// Backend shard hold of a normal request.
    pub backend_hold: Duration,
    /// When the culprit is injected.
    pub culprit_after: Duration,
    /// Maximum time the culprit holds the shard if never canceled.
    pub culprit_hold: Duration,
    /// Interval between the culprit's cancellation checkpoints.
    pub checkpoint: Duration,
    /// Supervisor tick period (Atropos) / adaptation epoch (DAGOR).
    pub tick_period: Duration,
    /// DAGOR's average queuing-time overload threshold (ns).
    pub queue_time_ns: u64,
}

impl FedLiveConfig {
    /// Builds the config a checked-in `[fed_live]` stanza pins
    /// (`descriptors/fed/two_tier_live.toml`).
    pub fn from_spec(spec: &atropos_workload::FedLiveSpec) -> Self {
        Self {
            workers: spec.workers,
            run_for: Duration::from_millis(spec.run_for_ms),
            interarrival: Duration::from_micros(spec.interarrival_us),
            backend_hold: Duration::from_micros(spec.backend_hold_us),
            culprit_after: Duration::from_millis(spec.culprit_after_ms),
            culprit_hold: Duration::from_millis(spec.culprit_hold_ms),
            checkpoint: Duration::from_millis(spec.checkpoint_ms),
            tick_period: Duration::from_millis(spec.tick_period_ms),
            queue_time_ns: spec.queue_time_ns,
        }
    }
}

impl Default for FedLiveConfig {
    /// The pinned two-tier geometry, resolved from the descriptor corpus
    /// so the wall-clock federation harness cannot drift from the
    /// checked-in `two_tier_live.toml`.
    fn default() -> Self {
        Self::from_spec(atropos_workload::fed_live_spec())
    }
}

/// What one federated live run observed.
#[derive(Debug, Clone)]
pub struct FedLiveReport {
    /// Victim completions measured end to end at the frontend.
    pub victim_count: u64,
    /// Victim p99 end-to-end latency (ns).
    pub victim_p99_ns: u64,
    /// Victim mean end-to-end latency (ns).
    pub victim_mean_ns: f64,
    /// Whether the culprit began executing.
    pub culprit_started: bool,
    /// Whether the culprit observed its frontend cancel token (the
    /// cross-node cancellation arrived end to end).
    pub root_canceled: bool,
    /// Culprit start → cancellation delivered to its frontend token.
    pub time_to_cancel: Option<Duration>,
    /// Keys canceled on the frontend runtime, in issue order.
    pub frontend_canceled_roots: Vec<u64>,
    /// Frontend cancellations that named anything but the culprit root.
    pub innocent_upstream_cancels: u64,
    /// Victims the DAGOR baseline rejected at the backend door.
    pub shed: u64,
    /// Work units the frontend runtime saw complete (a shed request is a
    /// drop, not a completion).
    pub frontend_completions: u64,
    /// Edge counters.
    pub edge: EdgeStats,
    /// Backend supervisor ticks.
    pub backend_ticks: u64,
}

impl FedLiveConfig {
    /// The arrival schedule, in the serving core's terms: one lock-hog
    /// culprit at `culprit_after`.
    fn load(&self) -> LiveConfig {
        LiveConfig {
            interarrival: self.interarrival,
            culprit_after: self.culprit_after,
            culprit_every: None,
            culprit_kind: CulpritKind::LockHog,
            ..LiveConfig::default()
        }
    }
}

/// Runs one two-tier wall-clock session and reports it.
pub fn run_fed_live(cfg: FedLiveConfig, mode: FedMode) -> FedLiveReport {
    let clock = Arc::new(SystemClock::new());
    let front_rt = Arc::new(AtroposRuntime::new(live_atropos_config(), clock.clone()));
    let back_rt = Arc::new(AtroposRuntime::new(live_atropos_config(), clock.clone()));
    let edge = FedEdge::over(NodeId(1), back_rt.clone());
    let hook_rt = back_rt.clone();
    edge.set_origin_hook(move |task, id| hook_rt.set_task_origin(task, id.remote_origin()));
    // Local leg of the edge: nothing to do on the backend beyond the
    // runtime's own bookkeeping — the culprit watches its *frontend*
    // token. Installing it also arms the upstream splitter.
    let edge_port: Arc<dyn RuntimePort> = edge.clone();
    edge_port.install_initiator(Arc::new(CancelFn(|_key: TaskKey| {})));
    let up_rt = front_rt.clone();
    edge.install_upstream(Arc::new(CancelFn(move |key: TaskKey| {
        let _ = up_rt.cancel_key(key);
    })));

    let front_port: Arc<dyn RuntimePort> = front_rt.clone();
    let registry = Arc::new(CancelRegistry::new());
    let atropos = mode == FedMode::Atropos;
    if atropos {
        registry.install_port(&front_port);
    }

    let shard = Gate::lock(edge_port.clone(), "backend_shard");
    // `FedEdge::bind` + `create_cancel` is a two-step arm; serialize the
    // pair across workers.
    let rpc_open = Mutex::new(());
    let dagor = Mutex::new(Dagor::new(cfg.queue_time_ns));
    // (key, enqueue stamp) of requests queued at the backend shard.
    let waiters: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());
    let queue = WorkQueue::default();
    let stop = AtomicBool::new(false);
    let metrics = Arc::new(ServerMetrics::default());
    let shed = AtomicU64::new(0);

    let mut backend_ticker = atropos.then(|| {
        let rt = back_rt.clone();
        Ticker::spawn_fn(move || rt.tick(), cfg.tick_period, |_| {})
    });
    let mut front_ticker = atropos.then(|| {
        let rt = front_rt.clone();
        Ticker::spawn_fn(move || rt.tick(), cfg.tick_period, |_| {})
    });
    let dagor_stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        let gen = s.spawn(|| generate(&cfg.load(), &*clock, &stop, |req| queue.push(req)));

        // DAGOR's adaptation epoch: sample the average wait of requests
        // currently queued at the backend shard and adapt the threshold.
        let dagor_thread = (mode == FedMode::DagorAdmission).then(|| {
            s.spawn(|| {
                while !dagor_stop.load(Ordering::Acquire) {
                    std::thread::sleep(cfg.tick_period);
                    let now = clock.now_ns();
                    let snapshot = waiters.lock();
                    let waited = snapshot.iter().map(|(_, since)| now.saturating_sub(*since));
                    let avg = waited.sum::<u64>() / snapshot.len().max(1) as u64;
                    drop(snapshot);
                    dagor.lock().adapt(avg);
                }
            })
        });

        // Frontend workers: serve requests end to end through the edge.
        let workers: Vec<_> = (0..cfg.workers)
            .map(|_| {
                s.spawn(|| {
                    while let Some(req) = queue.pop() {
                        let (key, since) = (req.key, req.enqueued_ns);
                        let culprit = matches!(req.class, RequestClass::Culprit(_));
                        let token = registry.token_for(&req);
                        let mut root = TaskScope::begin(&front_port, &metrics, req, token);

                        // DAGOR admission happens at the backend door, before
                        // the proxy task even opens. Business class and client
                        // are functions of the key; the culprit composes to the
                        // top priority level, so it is always admitted — DAGOR's
                        // exact blind spot. A refused request is a drop: its
                        // scope ends unfinished (and, being a victim, it has no
                        // token to unregister).
                        let (class, client) = if culprit {
                            (0, 7)
                        } else {
                            (1 + (key % 7) as u8, key)
                        };
                        if mode == FedMode::DagorAdmission
                            && !dagor.lock().admit_bare(class, client)
                        {
                            shed.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }

                        // The RPC: piggyback identity, open the proxy, contend.
                        let identity = EdgeIdentity::local(NodeId(0), key).hop(NodeId(1));
                        let proxy = {
                            let _g = rpc_open.lock();
                            edge.open(&identity)
                        };
                        edge_port.unit_started(proxy);
                        waiters.lock().push((key, since));
                        {
                            let _held = block_on(shard.acquire(proxy));
                            waiters.lock().retain(|(k, _)| *k != key);
                            if culprit {
                                metrics.culprit_started(clock.now_ns());
                                let held = Instant::now();
                                while held.elapsed() < cfg.culprit_hold && !root.shell.canceled() {
                                    std::thread::sleep(cfg.checkpoint);
                                }
                            } else {
                                std::thread::sleep(cfg.backend_hold);
                            }
                        }
                        edge_port.unit_finished(proxy);
                        edge_port.free_cancel(proxy);
                        root.finished = true;
                        drop(root);
                        registry.unregister(key);
                    }
                })
            })
            .collect();

        std::thread::sleep(cfg.run_for);
        stop.store(true, Ordering::Release);
        gen.join().expect("generator panicked");
        queue.close();
        for w in workers {
            w.join().expect("worker panicked");
        }
        dagor_stop.store(true, Ordering::Release);
        if let Some(t) = dagor_thread {
            t.join().expect("dagor ticker panicked");
        }
    });

    let backend_ticks = backend_ticker.as_mut().map_or(0, |t| {
        t.stop();
        t.ticks()
    });
    if let Some(t) = front_ticker.as_mut() {
        t.stop();
    }

    let frontend_canceled_roots: Vec<u64> = front_rt
        .debug_snapshot()
        .cancel
        .canceled_keys
        .iter()
        .map(|(k, _)| k.0)
        .collect();
    let innocent = frontend_canceled_roots
        .iter()
        .filter(|&&k| k != CULPRIT_KEY_BASE)
        .count() as u64;
    let victims = metrics.victim.lock();
    FedLiveReport {
        victim_count: victims.count(),
        victim_p99_ns: victims.p99(),
        victim_mean_ns: victims.mean(),
        culprit_started: metrics.culprits_started.load(Ordering::Relaxed) > 0,
        root_canceled: metrics.culprits_canceled.load(Ordering::Relaxed) > 0,
        time_to_cancel: metrics.time_to_cancel(registry.first_delivery_ns()),
        frontend_canceled_roots,
        innocent_upstream_cancels: innocent,
        shed: shed.load(Ordering::Relaxed),
        frontend_completions: front_rt.stats().completions,
        edge: edge.stats(),
        backend_ticks,
    }
}
