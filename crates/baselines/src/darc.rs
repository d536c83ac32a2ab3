//! DARC (Demoulin et al., SOSP 2021): request-type-aware core allocation.
//!
//! DARC (from Perséphone) profiles request *types* and dedicates workers
//! to short requests so they are never stuck behind long ones. It helps
//! when the overload is "long requests occupy all workers" (worker-pool
//! cases), but is blind to application resources: a culprit that holds a
//! lock or thrashes a cache hurts short requests no matter which worker
//! they run on.

use std::collections::{BTreeMap, HashMap};

use atropos_app::controller::{Action, Controller, ServerView};
use atropos_app::ids::ClassId;
use atropos_app::request::{Outcome, Request};
use atropos_metrics::stats::Ewma;
use atropos_sim::SimTime;

/// DARC configuration.
#[derive(Debug, Clone)]
pub struct DarcConfig {
    /// Total workers in the server (needed to size reservations).
    pub workers: usize,
    /// A class is "long" if its profiled service time exceeds this
    /// multiple of the shortest profiled class.
    pub long_multiple: f64,
    /// Fraction of workers long classes may occupy, combined.
    pub long_share: f64,
    /// EWMA smoothing for per-class service profiles.
    pub alpha: f64,
}

impl DarcConfig {
    /// Defaults for a server with `workers` workers.
    pub fn new(workers: usize) -> Self {
        Self {
            workers,
            long_multiple: 20.0,
            long_share: 0.25,
            alpha: 0.2,
        }
    }
}

/// The DARC controller.
#[derive(Debug)]
pub struct Darc {
    cfg: DarcConfig,
    /// Ordered, so the limits each tick emits come in class order.
    profiles: BTreeMap<ClassId, Ewma>,
    limited: HashMap<ClassId, usize>,
}

impl Darc {
    /// Creates a DARC controller.
    pub fn new(cfg: DarcConfig) -> Self {
        Self {
            cfg,
            profiles: BTreeMap::new(),
            limited: HashMap::new(),
        }
    }

    /// The profiled service time for a class, if observed.
    pub fn profile(&self, class: ClassId) -> Option<f64> {
        self.profiles.get(&class).and_then(|e| e.get())
    }

    /// Classes currently restricted, with their worker caps.
    pub fn limited(&self) -> &HashMap<ClassId, usize> {
        &self.limited
    }
}

impl Controller for Darc {
    fn name(&self) -> &'static str {
        "darc"
    }

    fn on_finish(&mut self, _now: SimTime, req: &Request, outcome: Outcome) {
        if outcome != Outcome::Completed || req.background {
            return;
        }
        // Profile service demand by total work executed; latency would
        // conflate queueing with service and mislabel victims as long.
        let service_ns = req.work_total.saturating_mul(1_000) as f64;
        self.profiles
            .entry(req.class)
            .or_insert_with(|| Ewma::new(self.cfg.alpha))
            .update(service_ns);
    }

    fn on_start(&mut self, _now: SimTime, req: &Request) {
        // Long requests that never complete still need profiling: seed
        // the profile from the plan's declared work.
        self.profiles
            .entry(req.class)
            .or_insert_with(|| Ewma::new(self.cfg.alpha))
            .update(req.work_total.saturating_mul(1_000) as f64);
    }

    fn on_tick(&mut self, _now: SimTime, _view: &ServerView) -> Vec<Action> {
        let Some(shortest) = self
            .profiles
            .values()
            .filter_map(|e| e.get())
            .fold(None::<f64>, |acc, x| Some(acc.map_or(x, |a| a.min(x))))
        else {
            return Vec::new();
        };
        let threshold = shortest * self.cfg.long_multiple;
        let cap = ((self.cfg.workers as f64 * self.cfg.long_share) as usize).max(1);
        let mut actions = Vec::new();
        for (&class, profile) in &self.profiles {
            let Some(svc) = profile.get() else { continue };
            let is_long = svc > threshold;
            let was_limited = self.limited.contains_key(&class);
            if is_long && !was_limited {
                self.limited.insert(class, cap);
                actions.push(Action::SetClassWorkerLimit(class, Some(cap)));
            } else if !is_long && was_limited {
                self.limited.remove(&class);
                actions.push(Action::SetClassWorkerLimit(class, None));
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atropos_app::apps::webserver::{WebServer, WebServerConfig};
    use atropos_app::server::SimServer;
    use atropos_app::workload::WorkloadSpec;
    use atropos_app::NoControl;

    #[test]
    fn long_classes_get_limited() {
        let ws = WebServer::new(WebServerConfig::default());
        let cfg = ws.server_config();
        let wl = WorkloadSpec::new(
            vec![
                ws.http_request(0.995),
                ws.slow_script(0.005, 30_000_000_000),
            ],
            5_000.0,
        );
        let mut darc = Darc::new(DarcConfig::new(cfg.workers));
        // Feed profiles directly via hooks.
        let m = {
            let d = Darc::new(DarcConfig::new(cfg.workers));
            SimServer::new(cfg, wl, Box::new(d)).run(SimTime::from_secs(6), SimTime::from_secs(1))
        };
        // DARC keeps more of the worker pool available to short requests
        // than the uncontrolled run, but it cannot fix the queue slots the
        // scripts already hold — merely bound how many they take.
        let ws2 = WebServer::new(WebServerConfig::default());
        let wl2 = WorkloadSpec::new(
            vec![
                ws2.http_request(0.995),
                ws2.slow_script(0.005, 30_000_000_000),
            ],
            5_000.0,
        );
        let unc = SimServer::new(ws2.server_config(), wl2, Box::new(NoControl))
            .run(SimTime::from_secs(6), SimTime::from_secs(1));
        assert!(
            m.completed >= unc.completed,
            "darc {} vs none {}",
            m.completed,
            unc.completed
        );
        // Unit-level: profiles separate the classes.
        let mut req_short = atropos_app::request::Request::new(
            atropos_app::ids::RequestId(1),
            ClassId(0),
            atropos_app::ids::ClientId(0),
            atropos_app::op::Plan::new().compute(1_000_000),
            SimTime::ZERO,
        );
        let req_long = atropos_app::request::Request::new(
            atropos_app::ids::RequestId(2),
            ClassId(1),
            atropos_app::ids::ClientId(0),
            atropos_app::op::Plan::new().compute(30_000_000_000),
            SimTime::ZERO,
        );
        req_short.work_done = req_short.work_total;
        darc.on_finish(SimTime::ZERO, &req_short, Outcome::Completed);
        darc.on_start(SimTime::ZERO, &req_long);
        let view = ServerView {
            now: SimTime::ZERO,
            requests: vec![],
            recent: Default::default(),
            client_p99: vec![],
            queues: vec![],
            workers_active: 0,
            workers_queued: 0,
        };
        let actions = darc.on_tick(SimTime::ZERO, &view);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::SetClassWorkerLimit(ClassId(1), Some(_)))));
        assert!(darc.limited().contains_key(&ClassId(1)));
        assert!(!darc.limited().contains_key(&ClassId(0)));
    }

    #[test]
    fn classes_are_unrestricted_when_profiles_converge() {
        let mut darc = Darc::new(DarcConfig::new(64));
        let mk = |id: u16, work_ns: u64| {
            atropos_app::request::Request::new(
                atropos_app::ids::RequestId(id as u64),
                ClassId(id),
                atropos_app::ids::ClientId(0),
                atropos_app::op::Plan::new().compute(work_ns),
                SimTime::ZERO,
            )
        };
        darc.on_finish(SimTime::ZERO, &mk(0, 1_000_000), Outcome::Completed);
        darc.on_finish(SimTime::ZERO, &mk(1, 1_200_000), Outcome::Completed);
        let view = ServerView {
            now: SimTime::ZERO,
            requests: vec![],
            recent: Default::default(),
            client_p99: vec![],
            queues: vec![],
            workers_active: 0,
            workers_queued: 0,
        };
        assert!(darc.on_tick(SimTime::ZERO, &view).is_empty());
    }
}
