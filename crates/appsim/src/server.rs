//! The simulated application server.
//!
//! [`SimServer`] executes a [`WorkloadSpec`] over a set of application
//! resources with worker-pool (thread-per-request) semantics:
//!
//! - arriving requests are admitted by the controller, then wait for a
//!   worker; a request keeps its worker while blocked on locks, tickets,
//!   or IO (the thread model of MySQL/Apache that makes pool exhaustion
//!   possible),
//! - plans execute in bounded *chunks*; the cancellation flag is honored
//!   at chunk boundaries and blocking points, mirroring the checkpoint
//!   pattern real applications use for safe cancellation (§2.4),
//! - every resource interaction emits a trace event to the controller —
//!   the same get/free/slowBy protocol the paper instruments into its six
//!   applications,
//! - canceled foreground requests are *parked* and can be re-executed or
//!   abandoned later (the §4 fairness mechanism), with end-to-end latency
//!   measured from the original arrival.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use atropos_metrics::{LatencyHistogram, WindowedSeries};
use atropos_sim::{Clock, EventQueue, SimRng, SimTime, VirtualClock};

use crate::controller::{
    Action, AdmitDecision, Controller, RecentPerf, RequestView, ResourceEvent, ServerView,
    SimResource, TraceKind,
};
#[cfg(test)]
use crate::ids::PoolId;
use crate::ids::{ClassId, ClientId, QueueId, RequestId};
#[cfg(test)]
use crate::op::LockMode;
use crate::op::{Op, Plan};
use crate::request::{Outcome, Request, RequestState};
use crate::resources::{
    bufferpool::{BufferPool, BufferPoolConfig},
    heap::{Heap, HeapConfig},
    iodev::IoDevice,
    lock::{AcquireResult, LockManager},
    ticket::{EnterResult, TicketQueue},
};
use crate::workload::WorkloadSpec;

/// One logical application resource: a named group of simulator objects
/// traced together (e.g. all table locks as one "table_lock" resource).
#[derive(Debug, Clone)]
pub struct ResourceGroupDef {
    /// Name (used when registering with Atropos).
    pub name: String,
    /// Atropos resource type.
    pub rtype: atropos::ResourceType,
    /// Member simulator objects.
    pub members: Vec<SimResource>,
}

/// Server parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// RNG seed.
    pub seed: u64,
    /// Worker (thread) pool size.
    pub workers: usize,
    /// Number of locks in the lock manager.
    pub n_locks: usize,
    /// Buffer pools / caches.
    pub pools: Vec<BufferPoolConfig>,
    /// Ticket queue capacities.
    pub queues: Vec<usize>,
    /// Optional GC heap.
    pub heap: Option<HeapConfig>,
    /// Maximum chunk of compute executed between cancellation checkpoints.
    pub chunk_ns: u64,
    /// Maximum pages per pool-access chunk.
    pub pages_per_chunk: u64,
    /// Controller tick interval.
    pub control_interval_ns: u64,
    /// Metrics window width.
    pub window_ns: u64,
    /// Traced resource groups.
    pub groups: Vec<ResourceGroupDef>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            workers: 64,
            n_locks: 0,
            pools: Vec::new(),
            queues: Vec::new(),
            heap: None,
            chunk_ns: 2_000_000, // 2 ms checkpoints
            pages_per_chunk: 512,
            control_interval_ns: 10_000_000, // 10 ms control loop
            window_ns: 100_000_000,
            groups: Vec::new(),
        }
    }
}

/// End-of-run counters and distributions.
#[derive(Debug)]
pub struct ServerMetrics {
    /// Client requests offered after warmup.
    pub offered: u64,
    /// Client requests completed after warmup.
    pub completed: u64,
    /// Requests dropped (rejected, victim-dropped, or abandoned).
    pub dropped: u64,
    /// Cancellations executed.
    pub canceled: u64,
    /// Re-executions of canceled requests.
    pub retried: u64,
    /// End-to-end latency of completed client requests.
    pub latency: LatencyHistogram,
    /// Per-window completion series.
    pub series: WindowedSeries,
    /// Trace events emitted.
    pub trace_events: u64,
    /// Offered client requests still in flight when the run ended
    /// (neither completed, dropped, nor canceled — the residual window).
    pub live_at_end: u64,
    /// Every executed cancellation in issue order, with the canceled
    /// request's identity — the *decision trace* differential tests
    /// compare against the live harness (who was canceled, in what
    /// order). Includes warmup-period cancellations: identity questions
    /// ("was the culprit class targeted?") are not windowed.
    pub cancel_log: Vec<CancelRecord>,
}

/// One executed cancellation (see [`ServerMetrics::cancel_log`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CancelRecord {
    /// The canceled request.
    pub req: RequestId,
    /// Its workload class (culprit classes are known per scenario).
    pub class: ClassId,
    /// Its client.
    pub client: ClientId,
    /// Virtual time the cancellation was executed.
    pub at: SimTime,
}

#[derive(Debug, Clone)]
struct Parked {
    plan: Plan,
    class: ClassId,
    client: ClientId,
    arrival: SimTime,
    background: bool,
    epoch: u64,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Arrival,
    Inject(usize),
    SpawnBackground(usize),
    OpDone { req: RequestId, epoch: u64 },
    IoStart { req: RequestId, epoch: u64 },
    IoDone { req: RequestId, epoch: u64 },
    ControlTick,
    End,
}

/// The simulated server.
pub struct SimServer {
    clock: Arc<VirtualClock>,
    cfg: ServerConfig,
    workload: WorkloadSpec,
    queue: EventQueue<Event>,
    rng: SimRng,
    locks: LockManager,
    pools: Vec<BufferPool>,
    tickets: Vec<TicketQueue>,
    heap: Option<Heap>,
    io: IoDevice,
    gc_until: SimTime,
    requests: HashMap<RequestId, Request>,
    parked: HashMap<RequestId, Parked>,
    accept_queue: VecDeque<RequestId>,
    runnable: VecDeque<RequestId>,
    active_workers: usize,
    class_active: HashMap<ClassId, usize>,
    class_limit: HashMap<ClassId, usize>,
    next_req: u64,
    next_client: u16,
    controller: Box<dyn Controller>,
    group_of: HashMap<SimResource, usize>,
    metrics: ServerMetrics,
    client_window: HashMap<ClientId, LatencyHistogram>,
    warmup: SimTime,
    end: SimTime,
}

impl SimServer {
    /// Creates a server.
    pub fn new(cfg: ServerConfig, workload: WorkloadSpec, controller: Box<dyn Controller>) -> Self {
        let clock = Arc::new(VirtualClock::new());
        let mut group_of = HashMap::new();
        for (i, g) in cfg.groups.iter().enumerate() {
            for m in &g.members {
                group_of.insert(*m, i);
            }
        }
        let window_ns = cfg.window_ns;
        let pools = cfg
            .pools
            .iter()
            .cloned()
            .map(|p| {
                let hot = p.hot_keys;
                let mut pool = BufferPool::new(p);
                pool.prewarm(hot);
                pool
            })
            .collect();
        Self {
            rng: SimRng::new(cfg.seed),
            locks: LockManager::new(cfg.n_locks),
            pools,
            tickets: cfg.queues.iter().map(|&c| TicketQueue::new(c)).collect(),
            heap: cfg.heap.clone().map(Heap::new),
            io: IoDevice::new(),
            gc_until: SimTime::ZERO,
            requests: HashMap::new(),
            parked: HashMap::new(),
            accept_queue: VecDeque::new(),
            runnable: VecDeque::new(),
            active_workers: 0,
            class_active: HashMap::new(),
            class_limit: HashMap::new(),
            next_req: 1,
            next_client: 0,
            controller,
            group_of,
            metrics: ServerMetrics {
                offered: 0,
                completed: 0,
                dropped: 0,
                canceled: 0,
                retried: 0,
                latency: LatencyHistogram::new(),
                // Sized to the run by `run`.
                series: WindowedSeries::new(0, window_ns, 1),
                trace_events: 0,
                live_at_end: 0,
                cancel_log: Vec::new(),
            },
            client_window: HashMap::new(),
            warmup: SimTime::ZERO,
            end: SimTime::ZERO,
            queue: EventQueue::new(),
            clock,
            cfg,
            workload,
        }
    }

    /// Creates a server whose controller is built from the server's clock
    /// and traced resource groups — the natural way to attach controllers
    /// (like Atropos) whose runtime must share the server's time base.
    pub fn new_with<F>(cfg: ServerConfig, workload: WorkloadSpec, make: F) -> Self
    where
        F: FnOnce(Arc<VirtualClock>, &[ResourceGroupDef]) -> Box<dyn Controller>,
    {
        let mut server = Self::new(cfg, workload, Box::new(crate::NoControl));
        let controller = make(server.clock.clone(), &server.cfg.groups);
        server.controller = controller;
        server
    }

    /// The virtual clock (share it with an Atropos runtime).
    pub fn clock(&self) -> Arc<VirtualClock> {
        self.clock.clone()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Runs the workload for `duration`; metrics ignore the first
    /// `warmup`. Returns the collected metrics.
    pub fn run(mut self, duration: SimTime, warmup: SimTime) -> ServerMetrics {
        self.warmup = warmup;
        self.end = duration;
        // Every window up to the one containing `duration`, plus one spare.
        let windows = (duration.as_nanos() / self.cfg.window_ns) as usize + 2;
        self.metrics.series = WindowedSeries::new(0, self.cfg.window_ns, windows);
        if let Some(gap) = self.workload.mean_gap() {
            let first = SimTime::from_nanos(self.rng.exp(gap.as_nanos() as f64) as u64);
            self.queue.schedule(first, Event::Arrival);
        }
        for (i, inj) in self.workload.injections.iter().enumerate() {
            self.queue.schedule(inj.at, Event::Inject(i));
        }
        for (i, bg) in self.workload.background.iter().enumerate() {
            self.queue.schedule(bg.start, Event::SpawnBackground(i));
        }
        self.queue.schedule(
            SimTime::from_nanos(self.cfg.control_interval_ns),
            Event::ControlTick,
        );
        self.queue.schedule(duration, Event::End);
        while let Some((t, ev)) = self.queue.pop() {
            self.clock.advance_to(t);
            if matches!(ev, Event::End) {
                break;
            }
            self.dispatch(ev);
            self.drain_runnable();
        }
        // Requests still in flight when the run ends were counted in
        // `offered` (unless they arrived during warmup, are background
        // jobs, or are retries of an already-counted cancellation) but
        // reached no outcome; surface the residual so conservation checks
        // can balance offered against outcomes exactly.
        self.metrics.live_at_end = self
            .requests
            .values()
            .filter(|r| !r.background && !r.retry && r.arrival >= self.warmup)
            .count() as u64;
        self.metrics
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::Arrival => self.handle_arrival(),
            Event::Inject(i) => {
                let class = self.workload.injections[i].class;
                self.spawn(class, None, false);
            }
            Event::SpawnBackground(i) => {
                let class = self.workload.background[i].class;
                self.spawn(class, Some(i), true);
            }
            Event::OpDone { req, epoch } => self.handle_op_done(req, epoch),
            Event::IoStart { req, epoch } => self.handle_io_start(req, epoch),
            Event::IoDone { req, epoch } => self.handle_io_done(req, epoch),
            Event::ControlTick => self.handle_control_tick(),
            Event::End => {}
        }
    }

    fn drain_runnable(&mut self) {
        while let Some(id) = self.runnable.pop_front() {
            self.run_request(id);
        }
    }

    // ---- arrivals ----

    fn handle_arrival(&mut self) {
        let now = self.now();
        if let Some(gap) = self.workload.mean_gap() {
            let next = now + SimTime::from_nanos(self.rng.exp(gap.as_nanos() as f64) as u64);
            if next < self.end {
                self.queue.schedule(next, Event::Arrival);
            }
        }
        let class = self.workload.sample_class(&mut self.rng);
        self.spawn(class, None, false);
    }

    fn spawn(&mut self, class: ClassId, recur_idx: Option<usize>, skip_admission: bool) {
        let now = self.now();
        let spec = &self.workload.classes[class.0 as usize];
        let plan = (spec.make_plan)(&mut self.rng);
        let client = spec.client.unwrap_or_else(|| {
            let c = ClientId(self.next_client % self.workload.n_clients);
            self.next_client = self.next_client.wrapping_add(1);
            c
        });
        let id = RequestId(self.next_req);
        self.next_req += 1;
        let mut req = Request::new(id, class, client, plan, now);
        req.cancellable = spec.cancellable;
        req.background = spec.background;
        req.recur_idx = recur_idx;
        if now >= self.warmup && !req.background {
            self.metrics.offered += 1;
        }
        if !skip_admission && self.controller.on_arrival(now, &req) == AdmitDecision::Reject {
            req.state = RequestState::Finished(Outcome::Dropped);
            if now >= self.warmup && !req.background {
                self.metrics.dropped += 1;
                self.metrics.series.record_drop(now.as_nanos());
            }
            self.controller.on_finish(now, &req, Outcome::Dropped);
            return;
        }
        req.wait_started = Some(now);
        self.requests.insert(id, req);
        self.accept_queue.push_back(id);
        self.emit(SimResource::WorkerPool, TraceKind::Slow, id, 1);
        self.try_dispatch();
    }

    fn class_allowed(&self, class: ClassId) -> bool {
        match self.class_limit.get(&class) {
            Some(&limit) => self.class_active.get(&class).copied().unwrap_or(0) < limit,
            None => true,
        }
    }

    fn try_dispatch(&mut self) {
        while self.active_workers < self.cfg.workers {
            let Some(pos) = self
                .accept_queue
                .iter()
                .position(|id| match self.requests.get(id) {
                    Some(r) => self.class_allowed(r.class),
                    None => true, // stale entry: remove below
                })
            else {
                break;
            };
            let id = self.accept_queue.remove(pos).expect("position valid");
            let Some(req) = self.requests.get_mut(&id) else {
                continue;
            };
            let now = self.clock.now();
            self.active_workers += 1;
            *self.class_active.entry(req.class).or_insert(0) += 1;
            req.has_worker = true;
            if req.started_at.is_none() {
                req.started_at = Some(now);
            }
            if let Some(ws) = req.wait_started.take() {
                req.lock_wait_ns += now.saturating_sub(ws).as_nanos();
            }
            req.state = RequestState::Running;
            self.emit(SimResource::WorkerPool, TraceKind::Get, id, 1);
            if let Some(r) = self.requests.get(&id) {
                let r = r.clone();
                self.controller.on_start(self.clock.now(), &r);
            }
            self.runnable.push_back(id);
        }
    }

    // ---- tracing ----

    fn emit(&mut self, res: SimResource, kind: TraceKind, req: RequestId, amount: u64) {
        let Some(&group) = self.group_of.get(&res) else {
            return;
        };
        self.metrics.trace_events += 1;
        let overhead = self.controller.per_event_overhead_ns();
        if overhead > 0 {
            if let Some(r) = self.requests.get_mut(&req) {
                r.carry_ns += overhead;
            }
        }
        let ev = ResourceEvent {
            group,
            kind,
            req,
            amount,
        };
        self.controller.on_resource_event(self.clock.now(), &ev);
    }

    fn emit_group(&mut self, group: usize, kind: TraceKind, req: RequestId, amount: u64) {
        self.metrics.trace_events += 1;
        let overhead = self.controller.per_event_overhead_ns();
        if overhead > 0 {
            if let Some(r) = self.requests.get_mut(&req) {
                r.carry_ns += overhead;
            }
        }
        let ev = ResourceEvent {
            group,
            kind,
            req,
            amount,
        };
        self.controller.on_resource_event(self.clock.now(), &ev);
    }

    // ---- the execution engine ----

    fn schedule_chunk(
        &mut self,
        id: RequestId,
        duration_ns: u64,
        progress: u64,
        work: u64,
        advance: bool,
        pending_get: Option<(usize, u64)>,
    ) {
        let now = self.now();
        let Some(req) = self.requests.get_mut(&id) else {
            return;
        };
        let extra = req.throttle_ns + req.carry_ns;
        req.carry_ns = 0;
        req.pending_progress = progress;
        req.pending_work = work;
        req.pending_advance = advance;
        req.pending_get = pending_get;
        req.state = RequestState::Running;
        let base = if self.gc_until > now {
            self.gc_until
        } else {
            now
        };
        let at = base + SimTime::from_nanos(duration_ns + extra);
        let epoch = req.epoch;
        self.queue.schedule(at, Event::OpDone { req: id, epoch });
    }

    fn run_request(&mut self, id: RequestId) {
        loop {
            let Some(req) = self.requests.get(&id) else {
                return;
            };
            if req.is_finished() {
                return;
            }
            if req.cancel_flag {
                self.abort(id);
                return;
            }
            let Some(op) = req.current_op() else {
                self.finish_request(id, Outcome::Completed);
                return;
            };
            let client = req.client;
            match op {
                Op::Compute { ns } => {
                    let done = self.requests[&id].op_progress;
                    let remaining = ns.saturating_sub(done);
                    let chunk = remaining.min(self.cfg.chunk_ns).max(1);
                    self.schedule_chunk(id, chunk, chunk, chunk / 1_000, done + chunk >= ns, None);
                    return;
                }
                Op::AcquireLock { lock, mode } => match self.locks.acquire(lock, id, mode) {
                    AcquireResult::Granted => {
                        self.emit(SimResource::Lock(lock), TraceKind::Get, id, 1);
                        let req = self.requests.get_mut(&id).expect("live");
                        req.held_locks.push(lock);
                        req.advance();
                    }
                    AcquireResult::Queued => {
                        self.emit(SimResource::Lock(lock), TraceKind::Slow, id, 1);
                        let now = self.now();
                        let req = self.requests.get_mut(&id).expect("live");
                        req.state = RequestState::BlockedLock(lock);
                        req.wait_started = Some(now);
                        return;
                    }
                },
                Op::ReleaseLock { lock } => {
                    let req = self.requests.get_mut(&id).expect("live");
                    req.held_locks.retain(|l| *l != lock);
                    req.advance();
                    self.emit(SimResource::Lock(lock), TraceKind::Free, id, 1);
                    let granted = self.locks.release(lock, id);
                    self.resume_lock_grants(lock, granted);
                }
                Op::PoolAccess {
                    pool,
                    pages,
                    pattern,
                } => {
                    let done = self.requests[&id].op_progress;
                    let chunk_pages = pages
                        .saturating_sub(done)
                        .min(self.cfg.pages_per_chunk)
                        .max(1);
                    let out = self.pools[pool.0 as usize].access(
                        id,
                        client,
                        pattern,
                        chunk_pages,
                        done,
                        &mut self.rng,
                    );
                    let group = self.group_of.get(&SimResource::Pool(pool)).copied();
                    if let Some(g) = group {
                        let evicted_total: u64 = out.evicted.iter().map(|(_, n)| n).sum();
                        for (owner, n) in &out.evicted {
                            self.emit_group(g, TraceKind::Free, *owner, *n);
                        }
                        if evicted_total > 0 {
                            self.emit_group(g, TraceKind::Slow, id, evicted_total);
                        }
                    }
                    let pending_get = match (group, out.misses) {
                        (Some(g), m) if m > 0 => Some((g, m)),
                        _ => None,
                    };
                    let track = self.requests.get_mut(&id).expect("live");
                    if !track.touched_pools.contains(&pool) {
                        track.touched_pools.push(pool);
                    }
                    self.schedule_chunk(
                        id,
                        out.cost_ns.max(1),
                        chunk_pages,
                        chunk_pages,
                        done + chunk_pages >= pages,
                        pending_get,
                    );
                    return;
                }
                Op::EnterQueue { queue } => match self.tickets[queue.0 as usize].enter(id) {
                    EnterResult::Granted => {
                        self.emit(SimResource::Queue(queue), TraceKind::Get, id, 1);
                        let req = self.requests.get_mut(&id).expect("live");
                        req.held_tickets.push(queue);
                        req.advance();
                    }
                    EnterResult::Queued => {
                        self.emit(SimResource::Queue(queue), TraceKind::Slow, id, 1);
                        let now = self.now();
                        let req = self.requests.get_mut(&id).expect("live");
                        req.state = RequestState::BlockedQueue(queue);
                        req.wait_started = Some(now);
                        return;
                    }
                },
                Op::LeaveQueue { queue } => {
                    let req = self.requests.get_mut(&id).expect("live");
                    req.held_tickets.retain(|q| *q != queue);
                    req.advance();
                    self.emit(SimResource::Queue(queue), TraceKind::Free, id, 1);
                    let granted = self.tickets[queue.0 as usize].leave(id);
                    self.resume_queue_grants(queue, granted);
                }
                Op::Io { ns } => {
                    let now = self.now();
                    let comp = self.io.submit(now, ns);
                    if comp.start > now {
                        self.emit(SimResource::Io, TraceKind::Slow, id, 1);
                    }
                    let req = self.requests.get_mut(&id).expect("live");
                    req.state = RequestState::BlockedIo;
                    req.wait_started = Some(now);
                    req.lock_wait_ns += comp.wait_ns(now);
                    req.pending_work = ns / 1_000;
                    let epoch = req.epoch;
                    self.queue
                        .schedule(comp.start, Event::IoStart { req: id, epoch });
                    self.queue
                        .schedule(comp.done, Event::IoDone { req: id, epoch });
                    return;
                }
                Op::HeapAlloc { bytes } => {
                    let heap = self
                        .heap
                        .as_mut()
                        .expect("plan uses heap but none configured");
                    let out = heap.alloc(id, bytes);
                    let units = (bytes >> 12).max(1);
                    {
                        let req = self.requests.get_mut(&id).expect("live");
                        req.heap_bytes += bytes;
                    }
                    match out.gc_pause_ns {
                        Some(pause) => {
                            let now = self.now();
                            // The slow amount is the garbage the collection
                            // reclaimed: the analog of pages evicted, so the
                            // estimator's ΣE/ΣM ratio reflects GC pressure.
                            let reclaimed_units = (out.reclaimed >> 12).max(1);
                            self.emit(SimResource::Heap, TraceKind::Slow, id, reclaimed_units);
                            let until = now + SimTime::from_nanos(pause);
                            if until > self.gc_until {
                                self.gc_until = until;
                            }
                            let g = self.group_of.get(&SimResource::Heap).copied();
                            self.schedule_chunk(id, pause, 0, 0, true, g.map(|g| (g, units)));
                            return;
                        }
                        None => {
                            self.emit(SimResource::Heap, TraceKind::Get, id, units);
                            self.requests.get_mut(&id).expect("live").advance();
                        }
                    }
                }
                Op::HeapFree { bytes } => {
                    let heap = self
                        .heap
                        .as_mut()
                        .expect("plan uses heap but none configured");
                    let freed = heap.free(id, bytes);
                    {
                        let req = self.requests.get_mut(&id).expect("live");
                        req.heap_bytes = req.heap_bytes.saturating_sub(freed);
                        req.advance();
                    }
                    self.emit(SimResource::Heap, TraceKind::Free, id, (freed >> 12).max(1));
                }
            }
        }
    }

    fn resume_lock_grants(&mut self, lock: crate::ids::LockId, granted: Vec<RequestId>) {
        let now = self.now();
        for gid in granted {
            self.emit(SimResource::Lock(lock), TraceKind::Get, gid, 1);
            let Some(req) = self.requests.get_mut(&gid) else {
                continue;
            };
            if let Some(ws) = req.wait_started.take() {
                req.lock_wait_ns += now.saturating_sub(ws).as_nanos();
            }
            req.held_locks.push(lock);
            req.state = RequestState::Running;
            req.advance();
            self.runnable.push_back(gid);
        }
    }

    fn resume_queue_grants(&mut self, queue: QueueId, granted: Vec<RequestId>) {
        let now = self.now();
        for gid in granted {
            self.emit(SimResource::Queue(queue), TraceKind::Get, gid, 1);
            let Some(req) = self.requests.get_mut(&gid) else {
                continue;
            };
            if let Some(ws) = req.wait_started.take() {
                req.lock_wait_ns += now.saturating_sub(ws).as_nanos();
            }
            req.held_tickets.push(queue);
            req.state = RequestState::Running;
            req.advance();
            self.runnable.push_back(gid);
        }
    }

    fn handle_op_done(&mut self, id: RequestId, epoch: u64) {
        let Some(req) = self.requests.get_mut(&id) else {
            return;
        };
        if req.epoch != epoch || req.is_finished() {
            return;
        }
        req.op_progress += req.pending_progress;
        req.work_done += req.pending_work;
        let advance = req.pending_advance;
        let pending_get = req.pending_get.take();
        req.pending_progress = 0;
        req.pending_work = 0;
        req.pending_advance = false;
        if advance {
            req.advance();
        }
        if let Some((g, amount)) = pending_get {
            self.emit_group(g, TraceKind::Get, id, amount);
        }
        if let Some(r) = self.requests.get(&id) {
            let r = r.clone();
            self.controller.on_progress(self.clock.now(), &r);
        }
        self.run_request(id);
    }

    fn handle_io_start(&mut self, id: RequestId, epoch: u64) {
        let Some(req) = self.requests.get(&id) else {
            return;
        };
        if req.epoch != epoch || req.is_finished() {
            return;
        }
        self.emit(SimResource::Io, TraceKind::Get, id, 1);
    }

    fn handle_io_done(&mut self, id: RequestId, epoch: u64) {
        let Some(req) = self.requests.get_mut(&id) else {
            return;
        };
        if req.epoch != epoch || req.is_finished() {
            return;
        }
        req.wait_started = None;
        req.work_done += req.pending_work;
        req.pending_work = 0;
        req.state = RequestState::Running;
        req.advance();
        self.emit(SimResource::Io, TraceKind::Free, id, 1);
        if req_cancelled(self.requests.get(&id)) {
            self.abort(id);
            return;
        }
        self.run_request(id);
    }

    // ---- cancellation / termination ----

    /// Requests cancellation (`as_drop = false`, the Atropos path: parked
    /// for re-execution) or a victim drop (`as_drop = true`, the Protego
    /// path: counts as a drop).
    pub fn cancel_request(&mut self, id: RequestId, as_drop: bool) {
        let Some(req) = self.requests.get_mut(&id) else {
            return;
        };
        if req.is_finished() {
            return;
        }
        req.cancel_flag = true;
        req.drop_flag = as_drop;
        match req.state {
            RequestState::Running => {
                // Honored at the next chunk boundary (cancellation
                // checkpoint).
            }
            RequestState::Queued => {
                req.epoch += 1;
                self.accept_queue.retain(|r| *r != id);
                self.abort(id);
            }
            RequestState::BlockedLock(lock) => {
                req.epoch += 1;
                let granted = self.locks.remove_waiter(lock, id);
                self.resume_lock_grants(lock, granted);
                self.abort(id);
            }
            RequestState::BlockedQueue(queue) => {
                req.epoch += 1;
                self.tickets[queue.0 as usize].remove_waiter(id);
                self.abort(id);
            }
            RequestState::BlockedIo => {
                // The device slot is already consumed; abandon the wait.
                req.epoch += 1;
                self.abort(id);
            }
            RequestState::Finished(_) => {}
        }
    }

    fn abort(&mut self, id: RequestId) {
        let outcome = if self.requests.get(&id).map(|r| r.drop_flag).unwrap_or(false) {
            Outcome::Dropped
        } else {
            Outcome::Canceled
        };
        self.finish_request(id, outcome);
    }

    fn finish_request(&mut self, id: RequestId, outcome: Outcome) {
        let now = self.now();
        let Some(mut req) = self.requests.remove(&id) else {
            return;
        };
        req.state = RequestState::Finished(outcome);
        // Release everything still held.
        for lock in std::mem::take(&mut req.held_locks) {
            self.emit(SimResource::Lock(lock), TraceKind::Free, id, 1);
            let granted = self.locks.release(lock, id);
            self.resume_lock_grants(lock, granted);
        }
        for queue in std::mem::take(&mut req.held_tickets) {
            self.emit(SimResource::Queue(queue), TraceKind::Free, id, 1);
            let granted = self.tickets[queue.0 as usize].leave(id);
            self.resume_queue_grants(queue, granted);
        }
        if let Some(heap) = self.heap.as_mut() {
            let freed = heap.release_all(id);
            if freed > 0 {
                self.emit(SimResource::Heap, TraceKind::Free, id, (freed >> 12).max(1));
            }
        }
        if req.has_worker {
            req.has_worker = false;
            self.active_workers -= 1;
            if let Some(c) = self.class_active.get_mut(&req.class) {
                *c = c.saturating_sub(1);
            }
            self.emit(SimResource::WorkerPool, TraceKind::Free, id, 1);
        } else {
            self.accept_queue.retain(|r| *r != id);
        }
        // Metrics.
        let countable = now >= self.warmup && !req.background;
        match outcome {
            Outcome::Completed => {
                if countable {
                    let latency = req.latency(now);
                    self.metrics.completed += 1;
                    self.metrics.latency.record(latency);
                    self.metrics
                        .series
                        .record_completion(now.as_nanos(), latency);
                    self.client_window
                        .entry(req.client)
                        .or_default()
                        .record(latency);
                }
                if req.retry {
                    self.metrics.retried += 1;
                }
            }
            Outcome::Canceled => {
                if now >= self.warmup {
                    self.metrics.canceled += 1;
                }
                self.metrics.cancel_log.push(CancelRecord {
                    req: id,
                    class: req.class,
                    client: req.client,
                    at: now,
                });
                if !req.background && !req.retry {
                    self.parked.insert(
                        id,
                        Parked {
                            plan: req.plan.clone(),
                            class: req.class,
                            client: req.client,
                            arrival: req.arrival,
                            background: req.background,
                            epoch: req.epoch,
                        },
                    );
                } else if countable {
                    // A canceled retry is abandoned: it already used its
                    // one re-execution (§4).
                    self.metrics.dropped += 1;
                    self.metrics.series.record_drop(now.as_nanos());
                }
            }
            Outcome::Dropped => {
                if countable {
                    self.metrics.dropped += 1;
                    self.metrics.series.record_drop(now.as_nanos());
                }
            }
        }
        self.controller.on_finish(now, &req, outcome);
        // Recurring background jobs schedule their next run.
        if let Some(idx) = req.recur_idx {
            let interval = self.workload.background[idx].interval;
            let at = now + interval;
            if at < self.end {
                self.queue.schedule(at, Event::SpawnBackground(idx));
            }
        }
        self.try_dispatch();
    }

    // ---- control ----

    fn build_view(&mut self) -> ServerView {
        let now = self.now();
        let mut requests = Vec::with_capacity(self.requests.len());
        for req in self.requests.values() {
            if req.is_finished() {
                continue;
            }
            let resident: u64 = self.pools.iter().map(|p| p.resident_of(req.id)).sum();
            let blocked = matches!(
                req.state,
                RequestState::BlockedLock(_)
                    | RequestState::BlockedQueue(_)
                    | RequestState::BlockedIo
                    | RequestState::Queued
            );
            requests.push(RequestView {
                id: req.id,
                class: req.class,
                client: req.client,
                arrival: req.arrival,
                wait_ns: req.lock_wait_ns
                    + req
                        .wait_started
                        .map_or(0, |ws| now.saturating_sub(ws).as_nanos()),
                current_wait_ns: req
                    .wait_started
                    .map_or(0, |ws| now.saturating_sub(ws).as_nanos()),
                resident_pages: resident,
                heap_bytes: req.heap_bytes,
                progress: req.progress(),
                background: req.background,
                cancellable: req.cancellable && !req.cancel_flag,
                blocked,
            });
        }
        requests.sort_by_key(|r| r.id);
        // A silent window must read as an empty one, not as the last
        // window that saw traffic.
        self.metrics.series.touch(now.as_nanos());
        let recent = self
            .metrics
            .series
            .recent_closed(now.as_nanos(), 1)
            .next()
            .map(|w| RecentPerf {
                throughput_qps: w.throughput_qps(self.cfg.window_ns),
                p50_ns: w.latency.p50(),
                p99_ns: w.latency.p99(),
                completed: w.completed,
            })
            .unwrap_or_default();
        let client_p99 = {
            let mut v: Vec<(ClientId, u64)> = self
                .client_window
                .iter()
                .map(|(c, h)| (*c, h.p99()))
                .collect();
            v.sort_by_key(|(c, _)| *c);
            v
        };
        self.client_window.clear();
        let queues = self
            .tickets
            .iter()
            .enumerate()
            .map(|(i, q)| (QueueId(i as u32), q.active(), q.queued()))
            .collect();
        ServerView {
            now,
            requests,
            recent,
            client_p99,
            queues,
            workers_active: self.active_workers,
            workers_queued: self.accept_queue.len(),
        }
    }

    fn handle_control_tick(&mut self) {
        let now = self.now();
        let next = now + SimTime::from_nanos(self.cfg.control_interval_ns);
        if next < self.end {
            self.queue.schedule(next, Event::ControlTick);
        }
        let view = self.build_view();
        let mut controller = std::mem::replace(&mut self.controller, Box::new(crate::NoControl));
        let actions = controller.on_tick(now, &view);
        self.controller = controller;
        for a in actions {
            self.apply_action(a);
        }
    }

    fn apply_action(&mut self, action: Action) {
        match action {
            Action::Cancel(id) => self.cancel_request(id, false),
            Action::Drop(id) => self.cancel_request(id, true),
            Action::Throttle(id, ns) => {
                if let Some(r) = self.requests.get_mut(&id) {
                    r.throttle_ns = ns;
                }
            }
            Action::Reexec(id) => self.reexec(id),
            Action::DropParked(id) => {
                if self.parked.remove(&id).is_some() {
                    let now = self.now();
                    if now >= self.warmup {
                        self.metrics.dropped += 1;
                        self.metrics.series.record_drop(now.as_nanos());
                    }
                }
            }
            Action::SetQueueCapacity(q, cap) => {
                let granted = self.tickets[q.0 as usize].set_capacity(cap);
                self.resume_queue_grants(q, granted);
            }
            Action::SetPoolQuota(p, client, quota) => {
                self.pools[p.0 as usize].set_quota(client, quota);
            }
            Action::SetClassWorkerLimit(class, limit) => {
                match limit {
                    Some(l) => {
                        self.class_limit.insert(class, l);
                    }
                    None => {
                        self.class_limit.remove(&class);
                    }
                }
                self.try_dispatch();
            }
        }
    }

    fn reexec(&mut self, old: RequestId) {
        let Some(p) = self.parked.remove(&old) else {
            return;
        };
        let now = self.now();
        // Revive under the original id so controllers can correlate the
        // retry with the cancellation; the bumped epoch fences any event
        // still in flight from the canceled incarnation.
        let mut req = Request::new(old, p.class, p.client, p.plan, p.arrival);
        req.cancellable = false;
        req.retry = true;
        req.background = p.background;
        req.epoch = p.epoch + 1;
        req.wait_started = Some(now);
        self.requests.insert(old, req);
        self.accept_queue.push_back(old);
        self.emit(SimResource::WorkerPool, TraceKind::Slow, old, 1);
        self.try_dispatch();
        self.drain_runnable();
    }

    // ---- test/diagnostic accessors ----

    /// Metrics so far (for inspection mid-run in tests).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }
}

fn req_cancelled(req: Option<&Request>) -> bool {
    req.map(|r| r.cancel_flag).unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::LockId;
    use crate::workload::ClassSpec;

    fn sec(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn simple_workload(rate: f64) -> WorkloadSpec {
        WorkloadSpec::new(
            vec![ClassSpec::new("select", 1.0, |_| {
                Plan::new().compute(100_000)
            })],
            rate,
        )
    }

    #[test]
    fn open_loop_completes_offered_load() {
        let srv = SimServer::new(
            ServerConfig::default(),
            simple_workload(1000.0),
            Box::new(crate::NoControl),
        );
        let m = srv.run(sec(5), SimTime::ZERO);
        // ~5000 arrivals, all should complete well within the run.
        assert!(m.offered > 4_500, "offered {}", m.offered);
        assert!(
            m.completed as f64 > m.offered as f64 * 0.99,
            "completed {} of {}",
            m.completed,
            m.offered
        );
        assert_eq!(m.dropped, 0);
        // Latency ≈ service time (no queueing at this load).
        assert!(m.latency.p50() >= 100_000);
        assert!(m.latency.p99() < 1_000_000, "p99 {}", m.latency.p99());
    }

    #[test]
    fn saturation_caps_throughput_at_capacity() {
        // 4 workers × 1ms service = 4000 qps capacity; offer 8000.
        let cfg = ServerConfig {
            workers: 4,
            ..Default::default()
        };
        let wl = WorkloadSpec::new(
            vec![ClassSpec::new("op", 1.0, |_| {
                Plan::new().compute(1_000_000)
            })],
            8_000.0,
        );
        let m = SimServer::new(cfg, wl, Box::new(crate::NoControl)).run(sec(3), sec(1));
        let tput = m.completed as f64 / 2.0;
        assert!(tput < 4_400.0, "tput {tput}");
        assert!(tput > 3_200.0, "tput {tput}");
        // Queueing pushes latency way past service time.
        assert!(m.latency.p99() > 10_000_000);
    }

    #[test]
    fn lock_convoy_blocks_and_releases() {
        // One long exclusive holder injected; shorts need the same lock.
        let mk_short = |_: &mut SimRng| {
            Plan::new()
                .lock(LockId(0), LockMode::Shared)
                .compute(50_000)
                .unlock(LockId(0))
        };
        let mk_hog = |_: &mut SimRng| {
            Plan::new()
                .lock(LockId(0), LockMode::Exclusive)
                .compute(500_000_000) // holds for 0.5 s
                .unlock(LockId(0))
        };
        let cfg = ServerConfig {
            n_locks: 1,
            workers: 256,
            ..Default::default()
        };
        let wl = WorkloadSpec::new(
            vec![
                ClassSpec::new("short", 1.0, mk_short),
                ClassSpec::new("hog", 0.0, mk_hog),
            ],
            500.0,
        )
        .inject(SimTime::from_millis(500), ClassId(1));
        let m = SimServer::new(cfg, wl, Box::new(crate::NoControl)).run(sec(3), SimTime::ZERO);
        // Everything eventually completes, but tail latency shows the
        // 0.5 s convoy.
        assert!(m.completed > 1_000);
        assert!(
            m.latency.p99() > 100_000_000,
            "p99 {} should reflect the convoy",
            m.latency.p99()
        );
        assert!(m.latency.p50() < 1_000_000);
    }

    #[test]
    fn ticket_queue_limits_concurrency() {
        let cfg = ServerConfig {
            queues: vec![2],
            workers: 64,
            ..Default::default()
        };
        let wl = WorkloadSpec::new(
            vec![ClassSpec::new("q", 1.0, |_| {
                Plan::new()
                    .enter(QueueId(0))
                    .compute(1_000_000)
                    .leave(QueueId(0))
            })],
            4_000.0,
        );
        // Capacity through the queue: 2 × 1/1ms = 2000 qps < offered.
        let m = SimServer::new(cfg, wl, Box::new(crate::NoControl)).run(sec(2), sec(1));
        let tput = m.completed as f64;
        assert!(tput < 2_300.0, "tput {tput}");
        assert!(tput > 1_500.0, "tput {tput}");
    }

    #[test]
    fn buffer_pool_misses_slow_requests_down() {
        let pool = BufferPoolConfig {
            capacity: 1000,
            hot_keys: 500,
            zipf_theta: 0.8,
            hit_ns: 1_000,
            miss_ns: 100_000,
            scan_miss_ns: 100_000,
            evict_ns: 10_000,
        };
        let cfg = ServerConfig {
            pools: vec![pool],
            ..Default::default()
        };
        let wl = WorkloadSpec::new(
            vec![ClassSpec::new("pt", 1.0, |_| {
                Plan::new().pool_hot(PoolId(0), 4).compute(50_000)
            })],
            2_000.0,
        );
        let m = SimServer::new(cfg, wl, Box::new(crate::NoControl)).run(sec(2), SimTime::ZERO);
        assert!(m.completed > 3_000);
        // Warm cache: median latency close to compute + hits.
        assert!(m.latency.p50() < 500_000, "p50 {}", m.latency.p50());
    }

    #[test]
    fn cancel_running_request_releases_lock_and_parks() {
        struct CancelHogAt {
            at: SimTime,
            done: bool,
        }
        impl Controller for CancelHogAt {
            fn name(&self) -> &'static str {
                "test-cancel"
            }
            fn on_tick(&mut self, now: SimTime, view: &ServerView) -> Vec<Action> {
                if self.done || now < self.at {
                    return Vec::new();
                }
                // Cancel the request with the largest current wait-free
                // runtime: identify the hog as the non-blocked request
                // with lowest progress… simply pick the one with class 1.
                for r in &view.requests {
                    if r.class == ClassId(1) && r.cancellable {
                        self.done = true;
                        return vec![Action::Cancel(r.id)];
                    }
                }
                Vec::new()
            }
        }
        let mk_short = |_: &mut SimRng| {
            Plan::new()
                .lock(LockId(0), LockMode::Shared)
                .compute(50_000)
                .unlock(LockId(0))
        };
        let mk_hog = |_: &mut SimRng| {
            Plan::new()
                .lock(LockId(0), LockMode::Exclusive)
                .compute(10_000_000_000) // would hold for 10 s
                .unlock(LockId(0))
        };
        let cfg = ServerConfig {
            n_locks: 1,
            workers: 128,
            ..Default::default()
        };
        let wl = WorkloadSpec::new(
            vec![
                ClassSpec::new("short", 1.0, mk_short),
                ClassSpec::new("hog", 0.0, mk_hog),
            ],
            1_000.0,
        )
        .inject(SimTime::from_millis(200), ClassId(1));
        let srv = SimServer::new(
            cfg,
            wl,
            Box::new(CancelHogAt {
                at: SimTime::from_millis(500),
                done: false,
            }),
        );
        let m = srv.run(sec(3), SimTime::ZERO);
        assert_eq!(m.canceled, 1);
        // After cancellation the lock frees; most shorts complete.
        assert!(
            m.completed as f64 > m.offered as f64 * 0.9,
            "completed {} of {}",
            m.completed,
            m.offered
        );
        assert_eq!(m.dropped, 0);
    }

    #[test]
    fn rejected_arrivals_count_as_drops() {
        struct RejectHalf {
            n: u64,
        }
        impl Controller for RejectHalf {
            fn name(&self) -> &'static str {
                "reject-half"
            }
            fn on_arrival(&mut self, _now: SimTime, _req: &Request) -> AdmitDecision {
                self.n += 1;
                if self.n.is_multiple_of(2) {
                    AdmitDecision::Reject
                } else {
                    AdmitDecision::Admit
                }
            }
        }
        let m = SimServer::new(
            ServerConfig::default(),
            simple_workload(1_000.0),
            Box::new(RejectHalf { n: 0 }),
        )
        .run(sec(2), SimTime::ZERO);
        let drop_rate = m.dropped as f64 / m.offered as f64;
        assert!((drop_rate - 0.5).abs() < 0.02, "drop rate {drop_rate}");
        assert!((m.completed + m.dropped) as f64 >= m.offered as f64 * 0.99);
    }

    #[test]
    fn background_jobs_recur_and_are_not_counted() {
        let wl = WorkloadSpec::new(
            vec![
                ClassSpec::new("fg", 1.0, |_| Plan::new().compute(100_000)),
                ClassSpec::new("purge", 0.0, |_| Plan::new().compute(10_000_000)).background(),
            ],
            100.0,
        )
        .recurring(ClassId(1), SimTime::ZERO, SimTime::from_millis(100));
        let m = SimServer::new(ServerConfig::default(), wl, Box::new(crate::NoControl))
            .run(sec(2), SimTime::ZERO);
        // ~18 background runs happened but none appear in client metrics.
        assert!((m.offered as f64) < 250.0);
        assert!(m.latency.p99() < 1_000_000);
    }

    #[test]
    fn throttled_request_runs_slower() {
        struct ThrottleAll;
        impl Controller for ThrottleAll {
            fn name(&self) -> &'static str {
                "throttle"
            }
            fn on_start(&mut self, _now: SimTime, _req: &Request) {}
            fn on_tick(&mut self, _now: SimTime, view: &ServerView) -> Vec<Action> {
                view.requests
                    .iter()
                    .map(|r| Action::Throttle(r.id, 1_000_000))
                    .collect()
            }
        }
        // Long requests (150 chunks) so every request is caught by a
        // control tick and the per-chunk penalty accumulates.
        let wl = WorkloadSpec::new(
            vec![ClassSpec::new("op", 1.0, |_| {
                Plan::new().compute(300_000_000)
            })],
            5.0,
        );
        let m = SimServer::new(ServerConfig::default(), wl, Box::new(ThrottleAll))
            .run(sec(4), SimTime::ZERO);
        // 300 ms of work in 2 ms chunks + 1 ms penalty per chunk after the
        // first tick ⇒ well past 400 ms.
        assert!(m.latency.p50() > 400_000_000, "p50 {}", m.latency.p50());
    }

    #[test]
    fn reexec_revives_parked_request() {
        struct CancelThenReexec {
            canceled: Option<RequestId>,
            stage: u8,
        }
        impl Controller for CancelThenReexec {
            fn name(&self) -> &'static str {
                "cancel-reexec"
            }
            fn on_tick(&mut self, _now: SimTime, view: &ServerView) -> Vec<Action> {
                match self.stage {
                    0 => {
                        if let Some(r) = view.requests.iter().find(|r| r.class == ClassId(1)) {
                            self.canceled = Some(r.id);
                            self.stage = 1;
                            return vec![Action::Cancel(r.id)];
                        }
                        Vec::new()
                    }
                    1 => {
                        self.stage = 2;
                        vec![Action::Reexec(self.canceled.unwrap())]
                    }
                    _ => Vec::new(),
                }
            }
        }
        let wl = WorkloadSpec::new(
            vec![
                ClassSpec::new("fg", 1.0, |_| Plan::new().compute(100_000)),
                ClassSpec::new("slow", 0.0, |_| Plan::new().compute(50_000_000)),
            ],
            100.0,
        )
        .inject(SimTime::from_millis(50), ClassId(1));
        let m = SimServer::new(
            ServerConfig::default(),
            wl,
            Box::new(CancelThenReexec {
                canceled: None,
                stage: 0,
            }),
        )
        .run(sec(2), SimTime::ZERO);
        assert_eq!(m.canceled, 1);
        assert_eq!(m.retried, 1);
        assert_eq!(m.dropped, 0);
        // offered counts the injected request once; it completed on retry.
        assert!(m.completed >= m.offered - 1);
    }

    #[test]
    fn drop_parked_counts_as_drop() {
        struct CancelThenAbandon {
            canceled: Option<RequestId>,
            stage: u8,
        }
        impl Controller for CancelThenAbandon {
            fn name(&self) -> &'static str {
                "cancel-abandon"
            }
            fn on_tick(&mut self, _now: SimTime, view: &ServerView) -> Vec<Action> {
                match self.stage {
                    0 => {
                        if let Some(r) = view.requests.iter().find(|r| r.class == ClassId(1)) {
                            self.canceled = Some(r.id);
                            self.stage = 1;
                            return vec![Action::Cancel(r.id)];
                        }
                        Vec::new()
                    }
                    1 => {
                        self.stage = 2;
                        vec![Action::DropParked(self.canceled.unwrap())]
                    }
                    _ => Vec::new(),
                }
            }
        }
        let wl = WorkloadSpec::new(
            vec![
                ClassSpec::new("fg", 1.0, |_| Plan::new().compute(100_000)),
                ClassSpec::new("slow", 0.0, |_| Plan::new().compute(50_000_000)),
            ],
            100.0,
        )
        .inject(SimTime::from_millis(50), ClassId(1));
        let m = SimServer::new(
            ServerConfig::default(),
            wl,
            Box::new(CancelThenAbandon {
                canceled: None,
                stage: 0,
            }),
        )
        .run(sec(2), SimTime::ZERO);
        assert_eq!(m.canceled, 1);
        assert_eq!(m.dropped, 1);
        assert_eq!(m.retried, 0);
    }

    #[test]
    fn class_worker_limit_restricts_dispatch() {
        struct LimitSlow;
        impl Controller for LimitSlow {
            fn name(&self) -> &'static str {
                "darc-ish"
            }
            fn on_tick(&mut self, now: SimTime, _view: &ServerView) -> Vec<Action> {
                if now <= SimTime::from_millis(100) {
                    vec![Action::SetClassWorkerLimit(ClassId(1), Some(1))]
                } else {
                    Vec::new()
                }
            }
        }
        // 2 workers; slow class limited to 1 so the fast class always has
        // a worker available.
        let cfg = ServerConfig {
            workers: 2,
            ..Default::default()
        };
        let wl = WorkloadSpec::new(
            vec![
                ClassSpec::new("fast", 0.5, |_| Plan::new().compute(100_000)),
                ClassSpec::new("slow", 0.5, |_| Plan::new().compute(20_000_000)),
            ],
            150.0,
        );
        let m = SimServer::new(cfg, wl, Box::new(LimitSlow)).run(sec(4), sec(1));
        // Without the limit both workers fill with slow requests and fast
        // p50 explodes; with it fast requests stay quick.
        assert!(m.latency.p50() < 5_000_000, "p50 {}", m.latency.p50());
    }

    #[test]
    fn warmup_excludes_early_traffic_from_metrics() {
        let wl = WorkloadSpec::new(
            vec![ClassSpec::new("op", 1.0, |_| Plan::new().compute(100_000))],
            1_000.0,
        );
        let m = SimServer::new(ServerConfig::default(), wl, Box::new(crate::NoControl))
            .run(sec(3), sec(2));
        // Only the final second is measured.
        assert!(
            (m.offered as f64 - 1_000.0).abs() < 120.0,
            "offered {}",
            m.offered
        );
        assert!((m.completed as f64 - 1_000.0).abs() < 120.0);
    }

    #[test]
    fn new_with_builds_controller_on_the_server_clock() {
        struct ClockProbe {
            clock: Arc<VirtualClock>,
            saw_time_move: std::cell::Cell<bool>,
        }
        impl Controller for ClockProbe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn on_tick(&mut self, now: SimTime, _v: &ServerView) -> Vec<Action> {
                // The shared clock must agree with the tick time.
                assert_eq!(self.clock.now(), now);
                if now > SimTime::ZERO {
                    self.saw_time_move.set(true);
                }
                Vec::new()
            }
        }
        let wl = WorkloadSpec::new(
            vec![ClassSpec::new("op", 1.0, |_| Plan::new().compute(100_000))],
            100.0,
        );
        let server = SimServer::new_with(ServerConfig::default(), wl, |clock, _groups| {
            Box::new(ClockProbe {
                clock,
                saw_time_move: std::cell::Cell::new(false),
            })
        });
        let m = server.run(sec(1), SimTime::ZERO);
        assert!(m.completed > 0);
    }

    #[test]
    fn silent_windows_read_as_empty_in_the_view() {
        // Completions in window 0 only; a view at 2.5 windows must report
        // window 1, which saw nothing, not window 0.
        struct RecentAt {
            at: SimTime,
            seen: std::rc::Rc<std::cell::Cell<Option<RecentPerf>>>,
        }
        impl Controller for RecentAt {
            fn name(&self) -> &'static str {
                "recent-probe"
            }
            fn on_tick(&mut self, now: SimTime, view: &ServerView) -> Vec<Action> {
                if now == self.at {
                    self.seen.set(Some(view.recent));
                }
                Vec::new()
            }
        }
        let cfg = ServerConfig::default();
        let at = SimTime::from_nanos(cfg.window_ns * 5 / 2);
        let wl = WorkloadSpec::new(
            vec![ClassSpec::new("op", 1.0, |_| Plan::new().compute(100_000))],
            0.0,
        )
        .inject(SimTime::from_millis(1), ClassId(0))
        .inject(SimTime::from_millis(2), ClassId(0));
        let seen = std::rc::Rc::new(std::cell::Cell::new(None));
        let probe = RecentAt {
            at,
            seen: seen.clone(),
        };
        let m = SimServer::new(cfg, wl, Box::new(probe)).run(sec(1), SimTime::ZERO);
        assert_eq!(m.completed, 2);
        let recent = seen.get().expect("a control tick at 2.5 windows");
        assert_eq!(recent.completed, 0);
        assert_eq!(recent.throughput_qps, 0.0);
    }

    #[test]
    fn trace_events_are_emitted_for_grouped_resources() {
        let cfg = ServerConfig {
            n_locks: 1,
            groups: vec![ResourceGroupDef {
                name: "lock".into(),
                rtype: atropos::ResourceType::Lock,
                members: vec![SimResource::Lock(LockId(0))],
            }],
            ..Default::default()
        };
        let wl = WorkloadSpec::new(
            vec![ClassSpec::new("op", 1.0, |_| {
                Plan::new()
                    .lock(LockId(0), LockMode::Exclusive)
                    .compute(100_000)
                    .unlock(LockId(0))
            })],
            100.0,
        );
        let m = SimServer::new(cfg, wl, Box::new(crate::NoControl)).run(sec(1), SimTime::ZERO);
        // One Get + one Free per request (at minimum).
        assert!(m.trace_events >= 2 * m.completed, "{}", m.trace_events);
    }

    #[test]
    fn io_device_serializes_requests() {
        let wl = WorkloadSpec::new(
            vec![ClassSpec::new("io", 1.0, |_| Plan::new().io(1_000_000))],
            2_000.0, // 2× the device capacity of 1000 IOPS
        );
        let m = SimServer::new(ServerConfig::default(), wl, Box::new(crate::NoControl))
            .run(sec(2), sec(1));
        let tput = m.completed as f64;
        assert!(tput < 1_100.0, "tput {tput}");
        assert!(m.latency.p99() > 10_000_000); // deep IO queue
    }

    #[test]
    fn heap_gc_pauses_allocating_request() {
        let cfg = ServerConfig {
            heap: Some(HeapConfig {
                capacity: 100 << 20,
                gc_threshold: 0.5,
                gc_pause_base_ns: 30_000_000,
                gc_pause_per_mb_ns: 0,
                garbage_factor: 1.0,
            }),
            ..Default::default()
        };
        let wl = WorkloadSpec::new(
            vec![ClassSpec::new("alloc", 1.0, |_| {
                Plan::new().alloc(2 << 20).compute(100_000).dealloc(2 << 20)
            })],
            50.0,
        );
        let m = SimServer::new(cfg, wl, Box::new(crate::NoControl)).run(sec(4), SimTime::ZERO);
        // GCs fire occasionally; requests near a collection see the full
        // stop-the-world pause, the rest stay fast.
        assert!(m.latency.p99() >= 30_000_000, "p99 {}", m.latency.p99());
        assert!(m.latency.p50() < 30_000_000, "p50 {}", m.latency.p50());
    }
}
