//! The mini-server: classed requests served over the traced resources,
//! written once for every execution shell.
//!
//! [`serve`] is the request script: what a victim-class request and each
//! culprit family *do* to the shared [`Gate`]s and [`LruBuffer`]. The
//! `Culprit` classes are the live analogs of the paper's culprit studies:
//! a lock hog (MySQL's blocked-writes case family), a buffer-sweeping
//! scan (the Figure 2 dump), and a ticket-queue hog (the
//! connection-pool-exhaustion family). The script is an `async fn` over
//! the [`ServerCore`] and knows nothing about how it is executed: a
//! [`Shell`] supplies the two things that differ, and the RAII
//! [`TaskScope`] settles the request either way. All runtime interaction
//! flows through [`ServerCore::port`], so chaos middleware wrapped over
//! the runtime sees the complete protocol.
//!
//! The rest of this file is the *thread* shell: [`ServerCtx`] adds a
//! [`WorkQueue`] and a token registry to the core, and [`worker_loop`]
//! runs `block_on(serve(..))` per request.

use std::collections::VecDeque;
use std::future::Future;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use atropos::{AtroposRuntime, TaskId};
use atropos_metrics::LatencyHistogram;
use atropos_sim::Clock;
use atropos_substrate::RuntimePort;
use parking_lot::{Condvar, Mutex};

use crate::harness::LiveConfig;
use crate::resources::{block_on, Gate, LruBuffer};
use crate::token::{CancelRegistry, CancelToken};

/// Which long-running culprit behaviour a culprit request exhibits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CulpritKind {
    /// Takes the table lock and sits on it (checkpointing for
    /// cancellation): the backup/DDL convoy family.
    LockHog,
    /// Sweeps the LRU buffer with cold pages, evicting the hot set: the
    /// full-table-dump family.
    Scan,
    /// Drains the ticket queue dry — acquires every concurrency ticket and
    /// sits on them, starving admission: the connection-pool-exhaustion
    /// (c2/c9) family.
    TicketHog,
}

/// Request classes the load generator produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestClass {
    /// A short victim-class request: ticket → brief lock hold → a few hot
    /// pages.
    Normal,
    /// A rare long-running request that monopolizes a resource.
    Culprit(CulpritKind),
}

/// One unit of offered load.
#[derive(Debug, Clone)]
pub struct Request {
    /// Class determining the handler.
    pub class: RequestClass,
    /// Application task key (unique per request).
    pub key: u64,
    /// Runtime-clock stamp at enqueue, for end-to-end latency.
    pub enqueued_ns: u64,
}

/// An unbounded MPMC queue feeding the worker pool (open-loop load:
/// arrivals never block, backlog is visible latency).
#[derive(Default)]
pub struct WorkQueue {
    state: Mutex<QueueState>,
    nonempty: Condvar,
}

#[derive(Default)]
struct QueueState {
    q: VecDeque<Request>,
    closed: bool,
}

impl WorkQueue {
    /// Enqueues a request; returns false (dropping it) once closed.
    pub fn push(&self, req: Request) -> bool {
        let mut st = self.state.lock();
        if st.closed {
            return false;
        }
        st.q.push_back(req);
        drop(st);
        self.nonempty.notify_one();
        true
    }

    /// Blocks for the next request. Returns `None` once the queue is
    /// closed *and* drained — workers run the backlog down before exiting
    /// so every accepted request is measured.
    pub fn pop(&self) -> Option<Request> {
        let mut st = self.state.lock();
        loop {
            if let Some(req) = st.q.pop_front() {
                return Some(req);
            }
            if st.closed {
                return None;
            }
            self.nonempty.wait(&mut st);
        }
    }

    /// Closes the queue and wakes every blocked worker.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.nonempty.notify_all();
    }

    /// Requests currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().q.len()
    }

    /// True if no requests are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-class completion metrics, shared across workers.
#[derive(Default)]
pub struct ServerMetrics {
    /// End-to-end (enqueue → completion) latency of Normal requests.
    pub victim: Mutex<LatencyHistogram>,
    /// End-to-end latency of culprit requests.
    pub culprit: Mutex<LatencyHistogram>,
    /// Requests accepted by the server from the generator.
    pub offered: AtomicU64,
    /// Culprit requests whose handler started executing.
    pub culprits_started: AtomicU64,
    /// Culprit requests that were canceled: they observed their token and
    /// unwound, or their future was dropped.
    pub culprits_canceled: AtomicU64,
    /// Runtime-clock stamp when the first culprit began executing
    /// (0 = none yet).
    pub first_culprit_start_ns: AtomicU64,
}

impl ServerMetrics {
    /// Counts a culprit beginning to execute at `now_ns` on the runtime's
    /// clock, and stamps the first.
    pub fn culprit_started(&self, now_ns: u64) {
        self.culprits_started.fetch_add(1, Ordering::Relaxed);
        let _ = self.first_culprit_start_ns.compare_exchange(
            0,
            now_ns.max(1),
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Delay from the first culprit starting to the first cancellation
    /// delivered (`first_delivery_ns`, same clock), if both happened.
    pub fn time_to_cancel(&self, first_delivery_ns: Option<u64>) -> Option<Duration> {
        let start_ns = self.first_culprit_start_ns.load(Ordering::Acquire);
        first_delivery_ns
            .filter(|&cancel_ns| start_ns != 0 && cancel_ns >= start_ns)
            .map(|cancel_ns| Duration::from_nanos(cancel_ns - start_ns))
    }

    /// Records one request settled at `now_ns`. A victim is measured only
    /// if it finished; a culprit always, and counts as canceled if it was
    /// told to stop or never finished.
    fn settle(&self, req: &Request, now_ns: u64, finished: bool, canceled: bool) {
        let latency = now_ns.saturating_sub(req.enqueued_ns);
        match req.class {
            RequestClass::Normal if finished => {
                self.victim.lock().record(latency);
            }
            RequestClass::Normal => {}
            RequestClass::Culprit(_) => {
                self.culprit.lock().record(latency);
                if canceled || !finished {
                    self.culprits_canceled.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// The substrate-neutral server state every shell serves over.
pub struct ServerCore {
    /// The port every component emits through. Usually the runtime
    /// itself; under fault injection or probing it is a middleware stack
    /// ending at `rt`.
    pub port: Arc<dyn RuntimePort>,
    /// The runtime's clock (shared so latency stamps and cancellation
    /// stamps are comparable).
    pub clock: Arc<dyn Clock>,
    /// The shared table lock (LOCK resource).
    pub table: Gate,
    /// Concurrency tickets (QUEUE resource).
    pub tickets: Gate,
    /// The LRU page buffer (MEMORY resource).
    pub buffer: LruBuffer,
    /// Global shutdown flag: culprits release at their next checkpoint.
    /// Shutdown plumbing, not cancellation — it bounds the run when the
    /// harness ends, identically in every shell.
    pub stop: AtomicBool,
    /// Service-time and workload parameters.
    pub cfg: LiveConfig,
    /// Completion metrics.
    pub metrics: Arc<ServerMetrics>,
}

impl ServerCore {
    /// Builds the server state on `rt`'s clock with emission through `port`
    /// — a middleware stack whose innermost layer is `rt` — registering
    /// the three traced resources.
    pub fn new(rt: &AtroposRuntime, port: Arc<dyn RuntimePort>, cfg: LiveConfig) -> Self {
        Self {
            table: Gate::lock(port.clone(), "table_lock"),
            tickets: Gate::queue(port.clone(), "tickets", cfg.tickets),
            buffer: LruBuffer::new(port.clone(), "buffer_pool", cfg.lru_capacity),
            metrics: Arc::default(),
            port,
            clock: rt.clock(),
            stop: AtomicBool::new(false),
            cfg,
        }
    }

    /// True once shutdown has been signaled.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// What an execution shell supplies to the request script.
pub trait Shell {
    /// Waits for `d`: parks the thread, or parks the task on a timer.
    fn sleep(&self, d: Duration) -> impl Future<Output = ()> + Send;

    /// Has this request been told to stop? A cooperative checkpoint test;
    /// constant `false` where cancellation is future drop.
    fn canceled(&self) -> bool;
}

/// RAII settlement for one request. Constructed when the request is taken
/// up and owned by whatever serves it, dropped when that ends — **by any
/// means**. A request that ran its script to the end (a cooperative
/// unwind included) marks itself finished first; a dropped future, or a
/// request refused at a door, ends with `finished` still false and the
/// destructor settles it as a drop: `record_drop` keeps the detector's
/// completion series whole for a unit that will never finish,
/// `free_cancel` retires the cancel handle. The shell's own per-request
/// state is dropped after the settlement, so its destructor is the place
/// for what must follow it (re-admitting backlog).
pub struct TaskScope<S: Shell> {
    port: Arc<dyn RuntimePort>,
    metrics: Arc<ServerMetrics>,
    /// The runtime task serving the request.
    pub task: TaskId,
    /// The request being served.
    pub req: Request,
    /// Set once the request has run to its end.
    pub finished: bool,
    /// The shell's per-request state.
    pub shell: S,
}

impl<S: Shell> TaskScope<S> {
    /// Opens the unit for `req` on `port`: `create_cancel` + `unit_started`.
    pub fn begin(
        port: &Arc<dyn RuntimePort>,
        metrics: &Arc<ServerMetrics>,
        req: Request,
        shell: S,
    ) -> Self {
        let task = port.create_cancel(Some(req.key));
        port.unit_started(task);
        Self {
            port: port.clone(),
            metrics: metrics.clone(),
            task,
            req,
            finished: false,
            shell,
        }
    }
}

impl<S: Shell> Drop for TaskScope<S> {
    fn drop(&mut self) {
        if self.finished {
            self.port.unit_finished(self.task);
        } else {
            self.port.record_drop();
        }
        self.port.free_cancel(self.task);
        let now_ns = self.port.clock().now_ns();
        self.metrics
            .settle(&self.req, now_ns, self.finished, self.shell.canceled());
    }
}

/// The request script: serves `scope.req` to its end over `core`.
pub async fn serve<S: Shell>(core: Arc<ServerCore>, mut scope: TaskScope<S>) {
    let (task, key) = (scope.task, scope.req.key);
    match scope.req.class {
        RequestClass::Normal => serve_normal(&core, &scope.shell, task, key).await,
        RequestClass::Culprit(kind) => serve_culprit(&core, &scope.shell, task, kind).await,
    }
    scope.finished = true;
}

/// Touches `pages` and pays the load cost of the misses (the disk read
/// the simulator charges as virtual time). A request dropped mid-penalty
/// simply stops paying it: the eviction events were already attributed at
/// access time.
async fn touch(core: &ServerCore, shell: &impl Shell, task: TaskId, pages: &[u64]) {
    let stats = core.buffer.access(task, pages);
    if stats.misses > 0 {
        let misses = u32::try_from(stats.misses).unwrap_or(u32::MAX);
        shell.sleep(core.cfg.miss_penalty * misses).await;
    }
}

async fn serve_normal(core: &ServerCore, shell: &impl Shell, task: TaskId, key: u64) {
    let _permit = core.tickets.acquire(task).await;
    {
        let _g = core.table.acquire(task).await;
        shell.sleep(core.cfg.normal_hold).await;
    }
    // A small strided window over the hot page range.
    let n = core.cfg.pages_per_request as u64;
    let hot = core.cfg.hot_pages.max(1);
    let base = (key * n) % hot;
    let pages: Vec<u64> = (0..n).map(|i| (base + i) % hot).collect();
    touch(core, shell, task, &pages).await;
}

/// True while a culprit should keep going: not told to stop, the harness
/// not shutting down, and `culprit_hold` not yet elapsed.
fn holding(core: &ServerCore, shell: &impl Shell, started: Instant) -> bool {
    !shell.canceled() && !core.stopping() && started.elapsed() < core.cfg.culprit_hold
}

/// Sits on whatever the caller holds, in `checkpoint`-sized chunks: each
/// chunk boundary is a cancellation checkpoint where the shell has one,
/// and keeps shutdown prompt where it has not.
async fn hold(core: &ServerCore, shell: &impl Shell, started: Instant) {
    while holding(core, shell, started) {
        shell.sleep(core.cfg.checkpoint).await;
    }
}

async fn serve_culprit(core: &ServerCore, shell: &impl Shell, task: TaskId, kind: CulpritKind) {
    core.metrics.culprit_started(core.clock.now_ns());
    // Barely-started progress: the GetNext signal that makes the policy
    // prefer canceling this task over nearly-done victims.
    core.port.progress(task, 1, 100);
    let started = Instant::now();
    match kind {
        CulpritKind::LockHog => {
            let _guard = core.table.acquire(task).await;
            hold(core, shell, started).await;
        }
        CulpritKind::TicketHog => {
            // Take every ticket, one acquire at a time, then camp on the
            // full set. Normal requests need a ticket first, so admission
            // starves until this task is canceled or done.
            let mut permits = Vec::with_capacity(core.cfg.tickets);
            for _ in 0..core.cfg.tickets {
                permits.push(core.tickets.acquire(task).await);
            }
            hold(core, shell, started).await;
        }
        CulpritKind::Scan => {
            let _permit = core.tickets.acquire(task).await;
            // Cold range: never hits.
            let cold = core.cfg.hot_pages..core.cfg.hot_pages + core.cfg.scan_pages;
            for page in cold {
                if !holding(core, shell, started) {
                    break;
                }
                touch(core, shell, task, &[page]).await;
            }
        }
    }
}

// ------------------------------------------------------- thread shell --

/// The thread shell's per-request state: waiting is `thread::sleep`, and
/// the one class with a checkpoint — a culprit — carries the
/// [`CancelToken`] registered under its key.
impl Shell for Option<CancelToken> {
    async fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }

    fn canceled(&self) -> bool {
        self.as_ref().is_some_and(CancelToken::is_canceled)
    }
}

/// Everything a worker thread needs, bundled for `Arc` sharing: the core
/// (reached by deref) plus the thread shell's own two pieces.
pub struct ServerCtx {
    core: Arc<ServerCore>,
    /// Token registry; installed as the cancel initiator in Atropos mode.
    pub registry: Arc<CancelRegistry>,
    /// The offered-load queue.
    pub queue: WorkQueue,
}

impl ServerCtx {
    /// Builds the server state over `rt` with emission through `port`.
    pub fn with_port(
        rt: Arc<AtroposRuntime>,
        port: Arc<dyn RuntimePort>,
        registry: Arc<CancelRegistry>,
        cfg: LiveConfig,
    ) -> Self {
        Self {
            core: Arc::new(ServerCore::new(&rt, port, cfg)),
            registry,
            queue: WorkQueue::default(),
        }
    }
}

impl Deref for ServerCtx {
    type Target = ServerCore;
    fn deref(&self) -> &ServerCore {
        &self.core
    }
}

/// The worker-thread body: serve until the queue closes and drains.
pub fn worker_loop(ctx: &ServerCtx) {
    while let Some(req) = ctx.queue.pop() {
        let token = ctx.registry.token_for(&req);
        let registered = token.is_some().then_some(req.key);
        let scope = TaskScope::begin(&ctx.port, &ctx.metrics, req, token);
        block_on(serve(ctx.core.clone(), scope));
        if let Some(key) = registered {
            ctx.registry.unregister(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_fifo_and_close_semantics() {
        let q = WorkQueue::default();
        let req = |key| Request {
            class: RequestClass::Normal,
            key,
            enqueued_ns: 0,
        };
        assert!(q.push(req(1)));
        assert!(q.push(req(2)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().key, 1);
        q.close();
        assert!(!q.push(req(3)), "closed queue rejects new work");
        // Backlog still drains after close.
        assert_eq!(q.pop().unwrap().key, 2);
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    /// The miss penalty is part of the script: a cold victim really waits
    /// `miss_penalty` per page it loads.
    #[test]
    fn script_pays_the_miss_penalty_per_missed_page() {
        use atropos::AtroposConfig;
        use atropos_sim::SystemClock;

        let rt = Arc::new(AtroposRuntime::new(
            AtroposConfig::default(),
            Arc::new(SystemClock::new()),
        ));
        let cfg = LiveConfig {
            normal_hold: Duration::ZERO,
            pages_per_request: 2,
            miss_penalty: Duration::from_millis(5),
            ..LiveConfig::default()
        };
        let ctx = ServerCtx::with_port(rt.clone(), rt, Arc::new(CancelRegistry::new()), cfg);
        let serve_one = || {
            let req = Request {
                class: RequestClass::Normal,
                key: 0,
                enqueued_ns: ctx.clock.now_ns(),
            };
            let start = Instant::now();
            let scope = TaskScope::begin(&ctx.port, &ctx.metrics, req, None::<CancelToken>);
            block_on(serve(ctx.core.clone(), scope));
            start.elapsed()
        };
        assert!(serve_one() >= Duration::from_millis(10), "two cold pages");
        assert_eq!(ctx.buffer.len(), 2);
        assert_eq!(ctx.metrics.victim.lock().count(), 1);
    }

    #[test]
    fn close_wakes_blocked_workers() {
        let q = Arc::new(WorkQueue::default());
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(h.join().unwrap().is_none());
    }
}
