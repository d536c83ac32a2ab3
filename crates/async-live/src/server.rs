//! The async shell: a bounded task pool running the serving core's
//! request script as futures.
//!
//! Same [`Request`] vocabulary, same open-loop admission and the same
//! [`serve`] script as the thread shell — but requests are *futures* on
//! the hand-rolled [`Executor`], bounded by an admission gate of
//! `cfg.workers` concurrent tasks instead of `cfg.workers` threads. The
//! cap matters for the cross-substrate differential: it keeps the
//! runtime-visible task footprint (created/parked/running units)
//! identical to the thread shell, so blame and policy see the same shape
//! of system.
//!
//! There is **no cancel token anywhere in this crate** ([`PoolShell`]):
//! every request's [`AbortHandle`](crate::executor::AbortHandle) is
//! registered with the [`AbortRegistry`] before launch, and a runtime
//! cancellation detaches the future mid-`await`. Cleanup is carried
//! entirely by destructors — gate permits release their holds, the
//! [`TaskScope`] settles the unit, and the shell's own drop re-admits
//! backlog.

use std::collections::VecDeque;
use std::future::Future;
use std::ops::Deref;
use std::sync::Arc;
use std::time::{Duration, Instant};

use atropos::AtroposRuntime;
use atropos_live::server::serve;
use atropos_live::{LiveConfig, Request, ServerCore, Shell, TaskScope};
use atropos_substrate::RuntimePort;
use parking_lot::{Condvar, Mutex};

use crate::abort::AbortRegistry;
use crate::executor::Executor;
use crate::timer::Timer;

/// Everything a request future needs, bundled for `Arc` sharing: the
/// serving core (reached by deref) plus the async shell's own two pieces.
pub struct AsyncServerCtx {
    core: Arc<ServerCore>,
    /// Abort registry; installed as the cancel initiator in Atropos mode.
    pub registry: Arc<AbortRegistry>,
    /// Wall-clock sleeps for service times and miss penalties.
    pub timer: Arc<Timer>,
}

impl AsyncServerCtx {
    /// Builds the server state over `rt` with emission through `port`,
    /// registering the three traced resources.
    pub fn with_port(
        rt: Arc<AtroposRuntime>,
        port: Arc<dyn RuntimePort>,
        registry: Arc<AbortRegistry>,
        timer: Arc<Timer>,
        cfg: LiveConfig,
    ) -> Self {
        Self {
            core: Arc::new(ServerCore::new(&rt, port, cfg)),
            registry,
            timer,
        }
    }
}

impl Deref for AsyncServerCtx {
    type Target = ServerCore;
    fn deref(&self) -> &ServerCore {
        &self.core
    }
}

#[derive(Default)]
struct PoolState {
    backlog: VecDeque<Request>,
    in_flight: usize,
    closed: bool,
}

/// The bounded admission gate: at most `cfg.workers` request futures run
/// concurrently; excess arrivals queue (open-loop load — backlog is
/// visible latency, never thinner load). The async analog of the thread
/// substrate's `WorkQueue` + worker pool.
pub struct TaskPool {
    ctx: Arc<AsyncServerCtx>,
    executor: Arc<Executor>,
    st: Mutex<PoolState>,
    /// Signaled on every task settlement (for [`TaskPool::wait_drained`]).
    drained: Condvar,
    cap: usize,
}

impl TaskPool {
    /// Builds a pool admitting `ctx.cfg.workers` concurrent requests onto
    /// `executor`.
    pub fn new(ctx: Arc<AsyncServerCtx>, executor: Arc<Executor>) -> Arc<Self> {
        let cap = ctx.cfg.workers.max(1);
        Arc::new(Self {
            ctx,
            executor,
            st: Mutex::new(PoolState::default()),
            drained: Condvar::new(),
            cap,
        })
    }

    /// The served context.
    pub fn ctx(&self) -> &Arc<AsyncServerCtx> {
        &self.ctx
    }

    /// Offers one request; returns false (dropping it) once closed.
    pub fn submit(self: &Arc<Self>, req: Request) -> bool {
        let mut st = self.st.lock();
        if st.closed {
            return false;
        }
        if st.in_flight < self.cap {
            st.in_flight += 1;
            drop(st);
            self.launch(req);
        } else {
            st.backlog.push_back(req);
        }
        true
    }

    /// Stops admission of new requests; the backlog keeps draining so
    /// every accepted request is measured.
    pub fn close(&self) {
        self.st.lock().closed = true;
    }

    /// Blocks until every accepted request has settled (completed or been
    /// dropped), or until `timeout`. Returns whether the pool drained.
    pub fn wait_drained(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.st.lock();
        while !st.backlog.is_empty() || st.in_flight > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let _ = self.drained.wait_for(&mut st, deadline - now);
        }
        true
    }

    /// Stops the executor and the timer. Only for a drained pool whose
    /// supervisor has stopped: shutdown drops any straggler future, and its
    /// scope re-enters the port.
    pub fn shut_down(&self) {
        self.executor.shutdown();
        self.ctx.timer.shutdown();
    }

    /// Reserve → register → scope → launch: the handle is in the abort
    /// registry before the future can run (no cancellation races past an
    /// unregistered fast task), and the [`TaskScope`] is constructed
    /// *outside* the future and moved into it — so even a future dropped
    /// unpolled (aborted between launch and first poll, or launched into
    /// a shut-down executor) settles its unit and pool slot.
    fn launch(self: &Arc<Self>, req: Request) {
        let handle = self.executor.reserve();
        self.ctx.registry.register(req.key, handle.clone());
        let shell = PoolShell {
            pool: self.clone(),
            key: req.key,
        };
        let scope = TaskScope::begin(&self.ctx.port, &self.ctx.metrics, req, shell);
        self.executor
            .launch(&handle, serve(self.ctx.core.clone(), scope));
    }

    /// One settlement: re-admit from the backlog or report drained.
    fn task_done(self: &Arc<Self>) {
        let next = {
            let mut st = self.st.lock();
            st.in_flight -= 1;
            match st.backlog.pop_front() {
                Some(req) => {
                    st.in_flight += 1;
                    Some(req)
                }
                None => None,
            }
        };
        match next {
            Some(req) => self.launch(req),
            None => self.drained.notify_all(),
        }
    }
}

/// The async shell's per-request state, owned by the request's
/// [`TaskScope`] and so dropped right after the unit settles — by
/// completion or by abort: the handle is forgotten and the pool slot
/// re-admitted either way.
pub struct PoolShell {
    pool: Arc<TaskPool>,
    key: u64,
}

impl Shell for PoolShell {
    fn sleep(&self, d: Duration) -> impl Future<Output = ()> + Send {
        self.pool.ctx.timer.sleep(d)
    }

    /// Cancellation is future drop: a request that is still being polled
    /// was not cancelled.
    fn canceled(&self) -> bool {
        false
    }
}

impl Drop for PoolShell {
    fn drop(&mut self) {
        self.pool.ctx.registry.unregister(self.key);
        self.pool.task_done();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atropos::AtroposConfig;
    use atropos_live::RequestClass;
    use atropos_sim::SystemClock;
    use atropos_substrate::ScenarioFamily;
    use std::sync::atomic::Ordering;

    fn ctx_with(cfg: LiveConfig) -> (Arc<AsyncServerCtx>, Arc<Executor>) {
        let rt = Arc::new(AtroposRuntime::new(
            AtroposConfig::default(),
            Arc::new(SystemClock::new()),
        ));
        let port: Arc<dyn RuntimePort> = rt.clone();
        let ctx = Arc::new(AsyncServerCtx::with_port(
            rt,
            port,
            Arc::new(AbortRegistry::new()),
            Timer::spawn(),
            cfg,
        ));
        let ex = Arc::new(Executor::new(2));
        (ctx, ex)
    }

    #[test]
    fn pool_bounds_concurrency_and_drains_backlog() {
        let cfg = LiveConfig {
            workers: 2,
            normal_hold: Duration::from_millis(5),
            ..LiveConfig::default()
        };
        let (ctx, ex) = ctx_with(cfg);
        let pool = TaskPool::new(ctx.clone(), ex.clone());
        for key in 0..8 {
            assert!(pool.submit(Request {
                class: RequestClass::Normal,
                key,
                enqueued_ns: ctx.clock.now_ns(),
            }));
        }
        // Cap respected at the executor: at most `workers` live tasks.
        assert!(ex.live_tasks() <= 2, "live: {}", ex.live_tasks());
        pool.close();
        assert!(!pool.submit(Request {
            class: RequestClass::Normal,
            key: 99,
            enqueued_ns: 0,
        }));
        assert!(pool.wait_drained(Duration::from_secs(10)));
        assert_eq!(ctx.metrics.victim.lock().count(), 8);
        ex.shutdown();
        ctx.timer.shutdown();
    }

    #[test]
    fn aborted_culprit_settles_as_drop_and_readmits() {
        let cfg = LiveConfig {
            workers: 1,
            culprit_hold: Duration::from_secs(5),
            ..LiveConfig::default()
        };
        let (ctx, ex) = ctx_with(cfg);
        let pool = TaskPool::new(ctx.clone(), ex.clone());
        pool.submit(Request {
            class: RequestClass::Culprit(ScenarioFamily::LockHog),
            key: atropos_live::CULPRIT_KEY_BASE,
            enqueued_ns: ctx.clock.now_ns(),
        });
        // A victim queued behind the culprit (cap 1): only admitted after
        // the culprit settles.
        pool.submit(Request {
            class: RequestClass::Normal,
            key: 1,
            enqueued_ns: ctx.clock.now_ns(),
        });
        // Wait until the culprit is live and registered, then abort it.
        let deadline = Instant::now() + Duration::from_secs(5);
        while ctx.registry.is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            ctx.registry.cancel(atropos_live::CULPRIT_KEY_BASE, 1),
            "culprit registered and aborted"
        );
        pool.close();
        assert!(pool.wait_drained(Duration::from_secs(10)));
        assert_eq!(ctx.metrics.culprits_canceled.load(Ordering::Relaxed), 1);
        assert_eq!(ctx.metrics.victim.lock().count(), 1);
        assert_eq!(ctx.table.available(), 1, "permit drop released the lock");
        ex.shutdown();
        ctx.timer.shutdown();
    }
}
