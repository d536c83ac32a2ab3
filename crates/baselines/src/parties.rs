//! PARTIES (Chen et al., ASPLOS 2019): QoS-aware resource partitioning.
//!
//! PARTIES monitors each tenant's tail latency and, when one violates its
//! QoS, incrementally takes one resource "step" from a tenant with slack
//! and gives it to the victim, backing off if the adjustment did not
//! help. Following the paper's §5.2 port, latency is monitored and
//! resources allocated at the *client* level: buffer-pool quotas shrink
//! for the aggressor client and its live requests are throttled (the
//! analog of shrinking its core/cache partitions). Like pBox, PARTIES
//! cannot revoke a lock a culprit already holds.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use atropos_app::controller::{Action, Controller, ServerView};
use atropos_app::ids::{ClientId, PoolId};
use atropos_sim::SimTime;

/// PARTIES configuration.
#[derive(Debug, Clone)]
pub struct PartiesConfig {
    /// Per-client tail-latency QoS target (ns).
    pub slo_ns: u64,
    /// Pools whose per-client quota can be adjusted.
    pub pools: Vec<PoolId>,
    /// Relative step size per adjustment epoch.
    pub step: f64,
    /// Throttle step applied to aggressor requests (ns per chunk).
    pub throttle_step_ns: u64,
    /// Upper bound on the throttle (ns).
    pub max_throttle_ns: u64,
}

impl PartiesConfig {
    /// Defaults for the given QoS target.
    pub fn new(slo_ns: u64, pools: Vec<PoolId>) -> Self {
        Self {
            slo_ns,
            pools,
            step: 0.2,
            // Bounded like pBox's penalties: throttling a request that
            // holds a lock extends the convoy it causes, so the partition
            // squeeze must not slow the aggressor by more than ~2x.
            throttle_step_ns: 500_000,
            max_throttle_ns: 2_000_000,
        }
    }
}

/// The PARTIES controller.
#[derive(Debug)]
pub struct Parties {
    cfg: PartiesConfig,
    /// Current quota per (client); `None` entry means unconstrained.
    /// Ordered, so relaxation and every other walk are reproducible.
    quotas: BTreeMap<ClientId, u64>,
    /// Current throttle level per aggressor client.
    throttles: BTreeMap<ClientId, u64>,
    adjustments: u64,
    healthy_ticks: u32,
}

impl Parties {
    /// Creates a PARTIES controller.
    pub fn new(cfg: PartiesConfig) -> Self {
        Self {
            cfg,
            quotas: BTreeMap::new(),
            throttles: BTreeMap::new(),
            adjustments: 0,
            healthy_ticks: 0,
        }
    }

    /// Number of partition adjustments made.
    pub fn adjustments(&self) -> u64 {
        self.adjustments
    }
}

impl Controller for Parties {
    fn name(&self) -> &'static str {
        "parties"
    }

    fn on_tick(&mut self, _now: SimTime, view: &ServerView) -> Vec<Action> {
        let mut actions = Vec::new();
        // Victim: any client whose window p99 violates QoS.
        let victim = view
            .client_p99
            .iter()
            .find(|(_, p99)| *p99 > self.cfg.slo_ns)
            .map(|(c, _)| *c);
        let stalled = view.recent.completed == 0 && view.workers_queued > 0;
        if victim.is_none() && !stalled {
            self.healthy_ticks += 1;
            if self.healthy_ticks >= 5 {
                // Sustained health: relax partitions one step at a time.
                if let Some((&client, _)) = self.quotas.iter().next() {
                    self.quotas.remove(&client);
                    self.throttles.remove(&client);
                    for &pool in &self.cfg.pools {
                        actions.push(Action::SetPoolQuota(pool, client, None));
                    }
                }
            }
            return actions;
        }
        self.healthy_ticks = 0;
        // Aggressor: the client using the most partitionable resources
        // (pages + heap) that is not itself a victim; ties go to the
        // lowest client id.
        let mut usage: BTreeMap<ClientId, u64> = BTreeMap::new();
        for r in &view.requests {
            *usage.entry(r.client).or_insert(0) += r.resident_pages + (r.heap_bytes >> 12);
        }
        let aggressor = usage
            .iter()
            .filter(|(c, _)| Some(**c) != victim)
            .max_by_key(|(c, u)| (**u, Reverse(**c)))
            .map(|(c, u)| (*c, *u));
        let Some((aggressor, pages)) = aggressor else {
            return actions;
        };
        self.adjustments += 1;
        // Step its pool partition down.
        let current = self
            .quotas
            .get(&aggressor)
            .copied()
            .unwrap_or(pages.max(64));
        let next = ((current as f64) * (1.0 - self.cfg.step)) as u64;
        let next = next.max(16);
        self.quotas.insert(aggressor, next);
        for &pool in &self.cfg.pools {
            actions.push(Action::SetPoolQuota(pool, aggressor, Some(next)));
        }
        // And throttle its running requests one step (the core/bandwidth
        // partition analog).
        let level = self.throttles.entry(aggressor).or_insert(0);
        *level = (*level + self.cfg.throttle_step_ns).min(self.cfg.max_throttle_ns);
        let level = *level;
        for r in view.requests.iter().filter(|r| r.client == aggressor) {
            actions.push(Action::Throttle(r.id, level));
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atropos_app::controller::RecentPerf;
    use atropos_app::ids::RequestId;

    const MS: u64 = 1_000_000;

    fn view(client_p99: Vec<(ClientId, u64)>, requests: Vec<(u64, u16, u64)>) -> ServerView {
        ServerView {
            now: SimTime::ZERO,
            requests: requests
                .into_iter()
                .map(|(id, client, pages)| atropos_app::controller::RequestView {
                    id: RequestId(id),
                    class: atropos_app::ids::ClassId(0),
                    client: ClientId(client),
                    arrival: SimTime::ZERO,
                    wait_ns: 0,
                    current_wait_ns: 0,
                    resident_pages: pages,
                    heap_bytes: 0,
                    progress: 0.1,
                    background: false,
                    cancellable: true,
                    blocked: false,
                })
                .collect(),
            recent: RecentPerf {
                throughput_qps: 100.0,
                p50_ns: MS,
                p99_ns: 2 * MS,
                completed: 10,
            },
            client_p99,
            queues: vec![],
            workers_active: 1,
            workers_queued: 0,
        }
    }

    #[test]
    fn healthy_clients_trigger_no_adjustment() {
        let mut p = Parties::new(PartiesConfig::new(10 * MS, vec![PoolId(0)]));
        let v = view(vec![(ClientId(0), MS), (ClientId(1), MS)], vec![(1, 0, 10)]);
        assert!(p.on_tick(SimTime::ZERO, &v).is_empty());
        assert_eq!(p.adjustments(), 0);
    }

    #[test]
    fn violating_client_shrinks_the_aggressor() {
        let mut p = Parties::new(PartiesConfig::new(10 * MS, vec![PoolId(0)]));
        // Client 0 violates; client 1 hogs pages.
        let v = view(
            vec![(ClientId(0), 50 * MS), (ClientId(1), MS)],
            vec![(1, 0, 5), (2, 1, 10_000)],
        );
        let actions = p.on_tick(SimTime::ZERO, &v);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::SetPoolQuota(_, ClientId(1), Some(q)) if *q < 10_000)));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Throttle(RequestId(2), _))));
        // Repeated violations keep stepping the quota down.
        let q1 = p.quotas[&ClientId(1)];
        p.on_tick(SimTime::ZERO, &v);
        assert!(p.quotas[&ClientId(1)] < q1);
        assert_eq!(p.adjustments(), 2);
    }

    #[test]
    fn sustained_health_relaxes_partitions() {
        let mut p = Parties::new(PartiesConfig::new(10 * MS, vec![PoolId(0)]));
        let bad = view(
            vec![(ClientId(0), 50 * MS), (ClientId(1), MS)],
            vec![(2, 1, 10_000)],
        );
        p.on_tick(SimTime::ZERO, &bad);
        assert!(!p.quotas.is_empty());
        let good = view(vec![(ClientId(0), MS), (ClientId(1), MS)], vec![]);
        let mut released = false;
        for _ in 0..10 {
            let actions = p.on_tick(SimTime::ZERO, &good);
            if actions
                .iter()
                .any(|a| matches!(a, Action::SetPoolQuota(_, _, None)))
            {
                released = true;
            }
        }
        assert!(released);
        assert!(p.quotas.is_empty());
    }

    #[test]
    fn aggressor_is_never_the_victim_itself() {
        let mut p = Parties::new(PartiesConfig::new(10 * MS, vec![PoolId(0)]));
        // Only the violating client holds pages: nothing to shrink from a
        // different tenant, but the victim must not be chosen.
        let v = view(vec![(ClientId(0), 50 * MS)], vec![(1, 0, 10_000)]);
        let actions = p.on_tick(SimTime::ZERO, &v);
        assert!(!actions
            .iter()
            .any(|a| matches!(a, Action::SetPoolQuota(_, ClientId(0), Some(_)))));
    }
}
