//! The async shell as a [`Serving`]: the task pool with its executor and
//! timer, started and torn down around the serving core's one run
//! sequence ([`run_on`]).
//!
//! Deliberately the same surface as `atropos-live`'s harness — same
//! [`LiveConfig`], same [`ControlMode`], same [`LiveReport`] — so the
//! cross-substrate differential can pin one configuration and compare the
//! runtime's *decisions* with the substrate as the only variable. What
//! differs underneath: requests are futures on the hand-rolled executor,
//! and in [`ControlMode::Atropos`] the installed initiator is the
//! [`AbortRegistry`] — cancellation is future drop, not a token.
//! Middleware goes over a run through `run_on::<AsyncServer>`.

use std::sync::Arc;
use std::time::Duration;

use atropos::AtroposRuntime;
use atropos_live::{run_on, ControlMode, LiveConfig, LiveReport, Request, ServerCore, Serving};
use atropos_substrate::RuntimePort;

use crate::abort::AbortRegistry;
use crate::executor::{AbortHandle, Executor};
use crate::server::{AsyncServerCtx, TaskPool};
use crate::timer::Timer;

/// The async shell, started: a [`TaskPool`] over `cfg.workers` executor
/// threads plus the timer thread.
pub struct AsyncServer(Arc<TaskPool>);

impl Serving for AsyncServer {
    type Handle = AbortHandle;

    fn start(
        rt: Arc<AtroposRuntime>,
        port: Arc<dyn RuntimePort>,
        registry: Arc<AbortRegistry>,
        cfg: LiveConfig,
    ) -> Self {
        let executor = Arc::new(Executor::new(cfg.workers.max(1)));
        let ctx = AsyncServerCtx::with_port(rt, port, registry, Timer::spawn(), cfg);
        Self(TaskPool::new(Arc::new(ctx), executor))
    }

    fn core(&self) -> &ServerCore {
        self.0.ctx()
    }

    fn submit(&self, req: Request) -> bool {
        self.0.submit(req)
    }

    fn drain(&self) {
        self.0.close();
        // Generous bound: backlog service plus one full culprit hold.
        let cfg = &self.0.ctx().cfg;
        let bound = cfg.run_for + cfg.culprit_hold + Duration::from_secs(10);
        let drained = self.0.wait_drained(bound);
        debug_assert!(drained, "async pool failed to drain");
    }

    /// Executor shutdown drops any straggler future, whose scope re-enters
    /// the port — so it runs only after the supervisor has stopped.
    fn teardown(self) {
        self.0.shut_down();
    }
}

/// Runs one complete wall-clock async serving session, straight over the
/// runtime, and reports it.
pub fn run(cfg: LiveConfig, mode: ControlMode) -> LiveReport {
    run_on::<AsyncServer>(cfg, mode, |port| port).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use atropos_live::ThreadServer;

    /// A short no-culprit, no-control smoke run on shell `S`: the harness
    /// serves load, drains cleanly, and measures sane latencies.
    fn smoke<S: Serving>() {
        let cfg = LiveConfig {
            run_for: Duration::from_millis(300),
            culprit_after: Duration::from_secs(3600), // never
            ..LiveConfig::default()
        };
        let (report, _rt) = run_on::<S>(cfg, ControlMode::NoControl, |port| port);
        assert!(report.victim.count >= 50, "served {}", report.victim.count);
        assert_eq!(report.culprits_started, 0);
        assert_eq!(report.culprits_canceled, 0);
        assert_eq!(report.ticks, 0);
        assert_eq!(report.runtime.cancel.issued, 0);
        assert!(report.victim.p99_ns > 0);
        // Backlog fully drained: offered == completed.
        assert_eq!(report.offered, report.victim.count);
    }

    #[test]
    fn smoke_run_without_culprit() {
        smoke::<ThreadServer>();
        smoke::<AsyncServer>();
    }
}
