//! The end-to-end live harness: wire a server, the workload, the
//! supervisor and the report together for one wall-clock run.
//!
//! [`run_on`] is the one run sequence; an execution shell plugs in as a
//! [`Serving`] (how it starts, takes a request, drains and tears down).
//! The thread shell's [`ThreadServer`] lives here, the async shell's in
//! `atropos-async` — same [`LiveConfig`], same [`ControlMode`], same
//! [`LiveReport`], so a differential can pin one configuration and compare
//! the runtime's *decisions* with the shell as the only variable.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use atropos::ticker::Ticker;
use atropos::{AtroposConfig, AtroposRuntime, RuntimeStats};
use atropos_metrics::LatencyHistogram;
use atropos_sim::SystemClock;
use atropos_substrate::{RuntimePort, ScenarioDescriptor, ScenarioFamily};
use parking_lot::Mutex;

use crate::server::{worker_loop, Request, ServerCore, ServerCtx};
use crate::token::{CancelToken, Registry, Signal};
use crate::workload::generate;

/// Workload and service-time parameters for one run.
///
/// The defaults describe a small, CI-friendly serving scenario: four
/// workers at ~500 req/s with sub-millisecond services, one lock-hog
/// culprit injected mid-run that would otherwise convoy the server for
/// over a second.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Wall-clock duration load is offered for (drain time comes on top).
    pub run_for: Duration,
    /// Open-loop spacing between normal arrivals.
    pub interarrival: Duration,
    /// Lock hold time of a normal request.
    pub normal_hold: Duration,
    /// Hot pages a normal request touches.
    pub pages_per_request: usize,
    /// Size of the hot page range normal requests cycle over.
    pub hot_pages: u64,
    /// LRU buffer capacity in pages (≥ `hot_pages` keeps steady state
    /// all-hit).
    pub lru_capacity: usize,
    /// Simulated load cost per page miss.
    pub miss_penalty: Duration,
    /// Concurrency tickets (QUEUE resource capacity).
    pub tickets: usize,
    /// When the first culprit is injected.
    pub culprit_after: Duration,
    /// Spacing of further culprits (`None` = a single culprit).
    pub culprit_every: Option<Duration>,
    /// Which scenario family's culprit to inject.
    pub culprit_kind: ScenarioFamily,
    /// Maximum time a culprit runs if never canceled.
    pub culprit_hold: Duration,
    /// Pages a buffer-scan culprit sweeps (bounded by `culprit_hold`).
    pub scan_pages: u64,
    /// Interval between a culprit's cancellation checkpoints.
    pub checkpoint: Duration,
    /// Supervisor tick period (Atropos mode only).
    pub tick_period: Duration,
}

impl LiveConfig {
    /// The live configuration a [`ScenarioDescriptor`] pins.
    ///
    /// Every geometry field comes straight off the descriptor, so the
    /// live side of a differential run cannot drift from what the sim
    /// side was keyed to. The buffer-scan geometry is deliberate: the hot
    /// set (128 pages, re-touched every ~30 ms at the offered rate) is
    /// much larger than the LRU slack (4 frames), so the pages the sweep
    /// pushes out are *stale victim pages*, not the sweep's own — victims
    /// thrash and re-load while the scan also pins one of two concurrency
    /// tickets, so the backlog behind the remaining ticket blows the
    /// 10 ms SLO. The miss penalty (1 ms) is sized so cache warmup alone
    /// (≤ 8 misses ≈ 8 ms) stays under SLO and cannot trigger a
    /// pre-disturbance misblame.
    pub fn from_scenario(d: &ScenarioDescriptor) -> Self {
        Self {
            culprit_kind: d.family,
            workers: d.workers,
            interarrival: Duration::from_micros(d.interarrival_us),
            culprit_after: Duration::from_millis(d.culprit_after_ms),
            culprit_hold: Duration::from_millis(d.culprit_hold_ms),
            hot_pages: d.hot_pages,
            pages_per_request: d.pages_per_request as usize,
            lru_capacity: d.lru_capacity,
            miss_penalty: Duration::from_micros(d.miss_penalty_us),
            scan_pages: d.scan_pages,
            tickets: d.tickets,
            ..LiveConfig::default()
        }
    }
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            run_for: Duration::from_millis(1800),
            interarrival: Duration::from_millis(2),
            normal_hold: Duration::from_micros(100),
            pages_per_request: 4,
            hot_pages: 128,
            lru_capacity: 256,
            miss_penalty: Duration::from_micros(50),
            tickets: 4,
            culprit_after: Duration::from_millis(500),
            culprit_every: None,
            culprit_kind: ScenarioFamily::LockHog,
            culprit_hold: Duration::from_millis(1200),
            scan_pages: 1 << 16,
            checkpoint: Duration::from_millis(1),
            tick_period: Duration::from_millis(50),
        }
    }
}

/// Whether the run is overload-controlled.
#[derive(Debug, Clone)]
pub enum ControlMode {
    /// Atropos runs: the supervisor ticks the runtime and the shell's
    /// registry is installed as the cancellation initiator.
    Atropos(AtroposConfig),
    /// Tracing still flows (so overheads are comparable) but nothing ever
    /// ticks the runtime and no initiator is registered: the baseline.
    NoControl,
}

/// An [`AtroposConfig`] tuned for the live harness' time scales: 50 ms
/// detector windows, a 10 ms victim SLO, and a 50 ms floor between
/// cancellations.
pub fn live_atropos_config() -> AtroposConfig {
    let mut cfg = AtroposConfig::default();
    cfg.detector.window_ns = 50_000_000;
    cfg.detector.slo_latency_ns = 10_000_000;
    cfg.detector.history = 8;
    cfg.cancel_min_interval_ns = 50_000_000;
    cfg
}

/// Latency digest of one request class.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    /// Completions recorded.
    pub count: u64,
    /// Mean latency (ns).
    pub mean_ns: f64,
    /// Median latency (ns).
    pub p50_ns: u64,
    /// 99th-percentile latency (ns).
    pub p99_ns: u64,
    /// Maximum latency (ns).
    pub max_ns: u64,
}

impl LatencySummary {
    /// Digests a recorded histogram.
    pub fn from_histogram(h: &LatencyHistogram) -> Self {
        Self {
            count: h.count(),
            mean_ns: h.mean(),
            p50_ns: h.p50(),
            p99_ns: h.p99(),
            max_ns: h.max(),
        }
    }
}

/// Everything one harness run observed.
#[derive(Debug, Clone)]
pub struct LiveReport {
    /// Latencies of normal (victim-class) requests, enqueue → completion.
    pub victim: LatencySummary,
    /// Latencies of culprit requests.
    pub culprit: LatencySummary,
    /// Requests the generator offered.
    pub offered: u64,
    /// Culprit requests that began executing.
    pub culprits_started: u64,
    /// Culprit requests that observed their cancel token and unwound.
    pub culprits_canceled: u64,
    /// Wall-clock delay from the first culprit starting to the initiator
    /// reaching its token, if a cancellation was delivered.
    pub time_to_cancel: Option<Duration>,
    /// Cancellations the registry delivered to a live token.
    pub cancellations_delivered: u64,
    /// Task keys the runtime issued cancellations for, in issue order —
    /// the run's decision trace (culprit keys are `>= CULPRIT_KEY_BASE`).
    pub canceled_keys: Vec<u64>,
    /// Supervisor ticks executed (0 in [`ControlMode::NoControl`]).
    pub ticks: u64,
    /// Final runtime counters.
    pub runtime: RuntimeStats,
    /// Human-readable decision episodes folded from the flight recorder
    /// (empty in [`ControlMode::NoControl`]: nothing ticks, so nothing
    /// decides).
    pub episodes: Vec<atropos_obs::DecisionEpisode>,
    /// Runtime metrics snapshot from the decision-trace observer.
    pub metrics: atropos_obs::MetricsSnapshot,
}

/// A started server of one execution shell, as [`run_on`] drives it.
pub trait Serving: Sized {
    /// What the shell's registry signals to cancel a request.
    type Handle: Signal;

    /// Builds the server over `rt`, emitting through `port`, and starts
    /// whatever threads serve it.
    fn start(
        rt: Arc<AtroposRuntime>,
        port: Arc<dyn RuntimePort>,
        registry: Arc<Registry<Self::Handle>>,
        cfg: LiveConfig,
    ) -> Self;

    /// The served core.
    fn core(&self) -> &ServerCore;

    /// Offers one request; false (dropping it) once draining has begun.
    fn submit(&self, req: Request) -> bool;

    /// Stops admission and blocks until every accepted request has settled
    /// — the backlog is run down so each one is measured (in a convoy, the
    /// backlog *is* the damage).
    fn drain(&self);

    /// Releases what must outlive the supervisor: called after the last
    /// tick, because a tick must never race a dead executor.
    fn teardown(self) {}
}

/// Runs one complete wall-clock serving session on shell `S`, emitting
/// through `wrap(runtime)` — the hook where middleware (fault injection,
/// probes) is stacked over a live run — and reports it. Also hands back the
/// underlying runtime so a checker can take a
/// [`DebugSnapshot`](atropos::DebugSnapshot) of the quiesced state.
///
/// The sequencing matters and is the reason this lives in one place. The
/// initiator is installed and the supervisor ticks *through* the wrapped
/// port, so middleware observes the complete protocol: traffic,
/// deliveries, and the periodic driver. At the end offered load stops
/// first, then the stop flag makes culprits release at their next
/// checkpoint, then the server drains, and only then does the supervisor
/// stop ticking and the shell tear down.
pub fn run_on<S: Serving>(
    cfg: LiveConfig,
    mode: ControlMode,
    wrap: impl FnOnce(Arc<dyn RuntimePort>) -> Arc<dyn RuntimePort>,
) -> (LiveReport, Arc<AtroposRuntime>) {
    let clock = Arc::new(SystemClock::new());
    let (atropos_cfg, controlled) = match mode {
        ControlMode::Atropos(c) => (c, true),
        ControlMode::NoControl => (live_atropos_config(), false),
    };
    let rt = Arc::new(AtroposRuntime::new(atropos_cfg, clock));
    let port = wrap(rt.clone());
    let registry = Arc::new(Registry::new());
    let obs = atropos_obs::Observer::install(&rt, atropos_obs::DEFAULT_RING_CAPACITY);
    if controlled {
        registry.install_port(&port);
    }
    let server = S::start(rt.clone(), port.clone(), registry.clone(), cfg.clone());
    let mut ticker = controlled.then(|| {
        let tick_port = port.clone();
        Ticker::spawn_fn(move || tick_port.tick(), cfg.tick_period, |_| {})
    });

    let core = server.core();
    let stop = &core.stop;
    let offered = std::thread::scope(|s| {
        s.spawn(|| {
            std::thread::sleep(cfg.run_for);
            stop.store(true, Ordering::Release);
        });
        generate(&core.cfg, &*core.clock, stop, |req| server.submit(req))
    });
    core.metrics.offered.fetch_add(offered, Ordering::Relaxed);
    server.drain();
    let ticks = ticker.as_mut().map_or(0, |t| {
        t.stop();
        t.ticks()
    });

    let metrics = core.metrics.clone();
    server.teardown();

    // Everything is quiesced: the runtime snapshot and the observer ring
    // are read as final state.
    // Reconcile registry deliveries into the observer so `cancels_failed`
    // reflects only cancellations that never reached a live target.
    for _ in 0..registry.delivered() {
        obs.registry().observe_cancel_delivered();
    }
    let snapshot = rt.debug_snapshot();
    let names = atropos_obs::ResourceNames::from_snapshot(&snapshot);
    let report = LiveReport {
        victim: LatencySummary::from_histogram(&metrics.victim.lock()),
        culprit: LatencySummary::from_histogram(&metrics.culprit.lock()),
        offered: metrics.offered.load(Ordering::Relaxed),
        culprits_started: metrics.culprits_started.load(Ordering::Relaxed),
        culprits_canceled: metrics.culprits_canceled.load(Ordering::Relaxed),
        time_to_cancel: metrics.time_to_cancel(registry.first_delivery_ns()),
        cancellations_delivered: registry.delivered(),
        canceled_keys: snapshot
            .cancel
            .canceled_keys
            .iter()
            .map(|(k, _)| k.0)
            .collect(),
        ticks,
        runtime: rt.stats(),
        episodes: obs.drain_episodes(&names),
        metrics: obs.metrics().with_tick_phases(&rt.tick_phases()),
    };
    (report, rt)
}

/// The thread shell as a [`Serving`]: `cfg.workers` threads running
/// [`worker_loop`] over a shared [`ServerCtx`]; cancellation is a
/// [`CancelToken`] raised for the culprit to observe.
pub struct ThreadServer {
    ctx: Arc<ServerCtx>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Serving for ThreadServer {
    type Handle = CancelToken;

    fn start(
        rt: Arc<AtroposRuntime>,
        port: Arc<dyn RuntimePort>,
        registry: Arc<Registry<CancelToken>>,
        cfg: LiveConfig,
    ) -> Self {
        let workers = cfg.workers;
        let ctx = Arc::new(ServerCtx::with_port(rt, port, registry, cfg));
        let workers = (0..workers)
            .map(|i| {
                let ctx = ctx.clone();
                std::thread::Builder::new()
                    .name(format!("live-worker-{i}"))
                    .spawn(move || worker_loop(&ctx))
                    .expect("spawn worker")
            })
            .collect();
        Self {
            ctx,
            workers: Mutex::new(workers),
        }
    }

    fn core(&self) -> &ServerCore {
        &self.ctx
    }

    fn submit(&self, req: Request) -> bool {
        self.ctx.queue.push(req)
    }

    fn drain(&self) {
        self.ctx.queue.close();
        for w in self.workers.lock().drain(..) {
            w.join().expect("worker panicked");
        }
    }
}

/// Runs one complete wall-clock session on the thread shell, straight
/// over the runtime.
pub fn run(cfg: LiveConfig, mode: ControlMode) -> LiveReport {
    run_on::<ThreadServer>(cfg, mode, |port| port).0
}
