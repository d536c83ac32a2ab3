//! One tier of a federated topology: runtime, flight recorder, fault
//! injector, and (for callees) the RPC edge.
//!
//! Every node gets the full single-node stack the chaos suite already
//! trusts — an [`AtroposRuntime`] on the shared clock, an
//! `atropos-obs` [`Observer`] for decision episodes, and a
//! [`FaultInjector`] carrying that node's seeded fault plan. Backend
//! (callee) nodes additionally stack a [`FedEdge`] *over* the injector,
//! so identity-carrying proxy tasks flow app → edge → injector → runtime
//! and delivered cancellations flow back runtime → injector (fail/delay
//! faults) → edge (blame split) → application.

use std::sync::Arc;

use atropos::{AtroposConfig, AtroposRuntime};
use atropos_chaos::{FaultInjector, FaultPlan};
use atropos_obs::Observer;
use atropos_sim::Clock;
use atropos_substrate::{CancelFn, FedEdge, NodeId, RuntimePort};
use parking_lot::Mutex;

const MS: u64 = 1_000_000;

/// The runtime configuration every federated node runs: the scripted
/// chaos geometry (100 ms detection windows, 10 ms SLO, no cancel
/// back-off).
pub fn fed_runtime_config() -> AtroposConfig {
    let mut cfg = AtroposConfig::default();
    cfg.detector.window_ns = 100 * MS;
    cfg.detector.slo_latency_ns = 10 * MS;
    cfg.cancel_min_interval_ns = 0;
    cfg
}

/// One tier of the topology.
pub struct FedNode {
    /// Node identifier (frontend is `n0`).
    pub id: NodeId,
    /// The node's runtime.
    pub rt: Arc<AtroposRuntime>,
    /// Flight recorder installed on the runtime.
    pub obs: Arc<Observer>,
    /// Faulty transport carrying this node's seeded plan.
    pub inj: Arc<FaultInjector>,
    /// The RPC edge terminating here (callee nodes only).
    pub edge: Option<Arc<FedEdge>>,
    /// Keys delivered to this node's application initiator, in order.
    pub delivered: Arc<Mutex<Vec<u64>>>,
}

impl FedNode {
    /// Builds the caller tier: no edge; the application initiator is
    /// installed directly on the injector.
    pub fn frontend(clock: Arc<dyn Clock>, plan: &FaultPlan) -> Self {
        let rt = Arc::new(AtroposRuntime::new(fed_runtime_config(), clock));
        let obs = Observer::install(&rt, 32 * 1024);
        let inj = Arc::new(FaultInjector::new(rt.clone(), plan));
        let delivered: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let (d, reg) = (delivered.clone(), obs.clone());
        inj.install_initiator(move |key| {
            reg.registry().observe_cancel_delivered();
            d.lock().push(key);
        });
        Self {
            id: NodeId(0),
            rt,
            obs,
            inj,
            edge: None,
            delivered,
        }
    }

    /// Builds a callee tier: a [`FedEdge`] stacked over the injector, with
    /// the application initiator installed through the edge (so
    /// blame-table hits also route upstream).
    pub fn backend(id: NodeId, clock: Arc<dyn Clock>, plan: &FaultPlan) -> Self {
        let rt = Arc::new(AtroposRuntime::new(fed_runtime_config(), clock));
        let obs = Observer::install(&rt, 32 * 1024);
        let inj = Arc::new(FaultInjector::new(rt.clone(), plan));
        let edge = FedEdge::over(id, inj.clone());
        let delivered: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let (d, reg) = (delivered.clone(), obs.clone());
        let port: Arc<dyn RuntimePort> = edge.clone();
        port.install_initiator(Arc::new(CancelFn(move |key: atropos::TaskKey| {
            reg.registry().observe_cancel_delivered();
            d.lock().push(key.0);
        })));
        Self {
            id,
            rt,
            obs,
            inj,
            edge: Some(edge),
            delivered,
        }
    }

    /// The port the application emits through: the edge when present,
    /// the injector otherwise.
    pub fn port(&self) -> Arc<dyn RuntimePort> {
        match &self.edge {
            Some(e) => e.clone(),
            None => self.inj.clone(),
        }
    }

    /// Drains and returns the keys delivered since the last call.
    pub fn take_delivered(&self) -> Vec<u64> {
        std::mem::take(&mut *self.delivered.lock())
    }
}
