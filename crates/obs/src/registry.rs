//! The metrics registry: always-on relaxed-atomic counters, gauges and
//! histograms over the decision trace, with Prometheus-text and JSON
//! snapshot export.
//!
//! Everything on the record path is a relaxed atomic add/store on a
//! fixed-size structure — no locks, no allocation — so the registry can
//! sit behind the runtime's [`Recorder`](atropos::Recorder) hook without
//! perturbing the tick path it measures.

use std::sync::atomic::{AtomicU64, Ordering};

use atropos::phase::{TickPhase, TickPhases};
use atropos::{BackoffReason, CancelOrigin, DecisionEvent};
use serde::{Deserialize, Serialize};

/// Number of log2 buckets in the time-to-cancel histogram: bucket `i`
/// counts completions with `time_to_cancel_ns` in `[2^i, 2^(i+1))`
/// (bucket 0 also holds zero).
pub const TTC_BUCKETS: usize = 64;

/// Per-resource gauges are kept in fixed arrays of this many slots;
/// resources with higher ids are folded into the last slot (and flagged
/// in the snapshot). Far above any workload in this repository.
pub const MAX_RESOURCES: usize = 64;

const REL: Ordering = Ordering::Relaxed;

/// Lock-free counters/gauges/histograms fed by [`MetricsRegistry::observe`].
pub struct MetricsRegistry {
    // Counters, one per event kind (plus outcome splits).
    events_ingested: AtomicU64,
    detections: AtomicU64,
    resources_scored: AtomicU64,
    candidates_ranked: AtomicU64,
    blames: AtomicU64,
    cancels_issued_policy: AtomicU64,
    cancels_issued_operator: AtomicU64,
    backoff_rate_limited: AtomicU64,
    backoff_already_canceled: AtomicU64,
    backoff_no_initiator: AtomicU64,
    cancels_completed: AtomicU64,
    regular_overloads: AtomicU64,
    /// Deliveries confirmed by the application side (see
    /// [`MetricsRegistry::observe_cancel_delivered`]); not an event.
    cancels_delivered: AtomicU64,
    // Gauges.
    last_tick: AtomicU64,
    // Time-to-cancel histogram (log2 buckets) + sum.
    ttc_buckets: [AtomicU64; TTC_BUCKETS],
    ttc_sum_ns: AtomicU64,
    // Per-resource hold/wait occupancy from the latest `ResourceScored`.
    res_seen: [AtomicU64; MAX_RESOURCES],
    res_hold_ns: [AtomicU64; MAX_RESOURCES],
    res_wait_ns: [AtomicU64; MAX_RESOURCES],
    res_weight_bits: [AtomicU64; MAX_RESOURCES],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    // The interior-mutable const is the intended pattern here: it exists
    // only as a repeat-initializer for the atomic arrays (each use site
    // copies a fresh zero atomic; none is ever read through the const).
    #[allow(clippy::declare_interior_mutable_const)]
    pub fn new() -> Self {
        const Z: AtomicU64 = AtomicU64::new(0);
        Self {
            events_ingested: Z,
            detections: Z,
            resources_scored: Z,
            candidates_ranked: Z,
            blames: Z,
            cancels_issued_policy: Z,
            cancels_issued_operator: Z,
            backoff_rate_limited: Z,
            backoff_already_canceled: Z,
            backoff_no_initiator: Z,
            cancels_completed: Z,
            regular_overloads: Z,
            cancels_delivered: Z,
            last_tick: Z,
            ttc_buckets: [Z; TTC_BUCKETS],
            ttc_sum_ns: Z,
            res_seen: [Z; MAX_RESOURCES],
            res_hold_ns: [Z; MAX_RESOURCES],
            res_wait_ns: [Z; MAX_RESOURCES],
            res_weight_bits: [Z; MAX_RESOURCES],
        }
    }

    /// Folds one decision event into the counters. Relaxed atomics only.
    pub fn observe(&self, event: &DecisionEvent) {
        self.events_ingested.fetch_add(1, REL);
        self.last_tick.fetch_max(event.tick(), REL);
        match *event {
            DecisionEvent::OverloadDetected { .. } => {
                self.detections.fetch_add(1, REL);
            }
            DecisionEvent::ResourceScored {
                resource,
                weight,
                wait_ns,
                hold_ns,
                ..
            } => {
                self.resources_scored.fetch_add(1, REL);
                let i = (resource.index()).min(MAX_RESOURCES - 1);
                self.res_seen[i].store(1, REL);
                self.res_hold_ns[i].store(hold_ns, REL);
                self.res_wait_ns[i].store(wait_ns, REL);
                self.res_weight_bits[i].store(weight.to_bits(), REL);
            }
            DecisionEvent::CandidateRanked { .. } => {
                self.candidates_ranked.fetch_add(1, REL);
            }
            DecisionEvent::BlameAssigned { .. } => {
                self.blames.fetch_add(1, REL);
            }
            DecisionEvent::CancelIssued { origin, .. } => {
                match origin {
                    CancelOrigin::Policy => self.cancels_issued_policy.fetch_add(1, REL),
                    CancelOrigin::Operator => self.cancels_issued_operator.fetch_add(1, REL),
                };
            }
            DecisionEvent::Backoff { reason, .. } => {
                match reason {
                    BackoffReason::RateLimited => self.backoff_rate_limited.fetch_add(1, REL),
                    BackoffReason::AlreadyCanceled => {
                        self.backoff_already_canceled.fetch_add(1, REL)
                    }
                    BackoffReason::NoInitiator => self.backoff_no_initiator.fetch_add(1, REL),
                };
            }
            DecisionEvent::CancelCompleted {
                time_to_cancel_ns, ..
            } => {
                self.cancels_completed.fetch_add(1, REL);
                self.ttc_sum_ns.fetch_add(time_to_cancel_ns, REL);
                let bucket = if time_to_cancel_ns == 0 {
                    0
                } else {
                    (63 - time_to_cancel_ns.leading_zeros() as usize).min(TTC_BUCKETS - 1)
                };
                self.ttc_buckets[bucket].fetch_add(1, REL);
            }
            DecisionEvent::RegularOverload { .. } => {
                self.regular_overloads.fetch_add(1, REL);
            }
        }
    }

    /// Records that the application's initiator actually received one
    /// cancellation signal. Called by the integration (the runtime cannot
    /// know whether a delivery was swallowed downstream); the snapshot
    /// derives `cancels_failed = issued − delivered` from it.
    pub fn observe_cancel_delivered(&self) {
        self.cancels_delivered.fetch_add(1, REL);
    }

    /// A plain-data copy of every metric at this instant.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let issued_policy = self.cancels_issued_policy.load(REL);
        let issued_operator = self.cancels_issued_operator.load(REL);
        let delivered = self.cancels_delivered.load(REL);
        MetricsSnapshot {
            events_ingested: self.events_ingested.load(REL),
            ticks: self.last_tick.load(REL),
            detections: self.detections.load(REL),
            resources_scored: self.resources_scored.load(REL),
            candidates_ranked: self.candidates_ranked.load(REL),
            blames: self.blames.load(REL),
            cancels_issued_policy: issued_policy,
            cancels_issued_operator: issued_operator,
            backoff_rate_limited: self.backoff_rate_limited.load(REL),
            backoff_already_canceled: self.backoff_already_canceled.load(REL),
            backoff_no_initiator: self.backoff_no_initiator.load(REL),
            cancels_completed: self.cancels_completed.load(REL),
            cancels_delivered: delivered,
            cancels_failed: (issued_policy + issued_operator).saturating_sub(delivered),
            regular_overloads: self.regular_overloads.load(REL),
            time_to_cancel_sum_ns: self.ttc_sum_ns.load(REL),
            time_to_cancel_buckets: self.ttc_buckets.iter().map(|b| b.load(REL)).collect(),
            resources: (0..MAX_RESOURCES)
                .filter(|&i| self.res_seen[i].load(REL) != 0)
                .map(|i| ResourceOccupancy {
                    resource: i as u32,
                    hold_ns: self.res_hold_ns[i].load(REL),
                    wait_ns: self.res_wait_ns[i].load(REL),
                    weight: f64::from_bits(self.res_weight_bits[i].load(REL)),
                })
                .collect(),
            tick_phases: Vec::new(),
        }
    }
}

/// Wall-clock cost of one `tick()` phase, from the runtime's in-tree
/// phase timer ([`atropos::AtroposRuntime::tick_phases`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TickPhaseNs {
    /// Phase label: drain, roll, detect, refresh, select, actuate.
    pub phase: String,
    /// Spans recorded (select and actuate run on candidate ticks only).
    pub count: u64,
    /// Total wall time in the phase (ns).
    pub sum_ns: u64,
    /// Log2 histogram: bucket `i` counts spans in `[2^i, 2^(i+1))` ns
    /// (bucket 0 includes zero).
    pub buckets: Vec<u64>,
}

/// One resource's occupancy gauges from its latest `ResourceScored` event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceOccupancy {
    /// Resource id (ids ≥ [`MAX_RESOURCES`] fold into the last slot).
    pub resource: u32,
    /// Holding time attributed in the scored window (ns).
    pub hold_ns: u64,
    /// Waiting time attributed in the scored window (ns).
    pub wait_ns: u64,
    /// Contention weight at scoring time.
    pub weight: f64,
}

/// A plain-data export of the registry; serializable to JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Total events folded in.
    pub events_ingested: u64,
    /// Highest tick index observed (equals the runtime's tick count while
    /// any event was emitted on the latest tick).
    pub ticks: u64,
    /// `OverloadDetected` events.
    pub detections: u64,
    /// `ResourceScored` events.
    pub resources_scored: u64,
    /// `CandidateRanked` events.
    pub candidates_ranked: u64,
    /// `BlameAssigned` events.
    pub blames: u64,
    /// Cancellations issued by the tick pipeline.
    pub cancels_issued_policy: u64,
    /// Cancellations issued through the operator entry point.
    pub cancels_issued_operator: u64,
    /// Requests suppressed by the rate limiter.
    pub backoff_rate_limited: u64,
    /// Requests suppressed by cancel-once fairness.
    pub backoff_already_canceled: u64,
    /// Requests suppressed for lack of an initiator.
    pub backoff_no_initiator: u64,
    /// Canceled tasks that reached `free_cancel`.
    pub cancels_completed: u64,
    /// Deliveries confirmed by the application (0 unless wired).
    pub cancels_delivered: u64,
    /// `issued − delivered`; meaningful only when delivery is wired.
    pub cancels_failed: u64,
    /// `RegularOverload` events.
    pub regular_overloads: u64,
    /// Sum of time-to-cancel over completed cancellations (ns).
    pub time_to_cancel_sum_ns: u64,
    /// Log2 histogram of time-to-cancel: bucket `i` counts completions in
    /// `[2^i, 2^(i+1))` ns (bucket 0 includes zero).
    pub time_to_cancel_buckets: Vec<u64>,
    /// Per-resource occupancy gauges.
    pub resources: Vec<ResourceOccupancy>,
    /// Per-phase tick cost. Empty unless attached with
    /// [`MetricsSnapshot::with_tick_phases`]: the registry is fed by
    /// decision events, which are deterministic, and these are wall-clock
    /// readings — a snapshot that is compared across runs leaves them out.
    pub tick_phases: Vec<TickPhaseNs>,
}

impl MetricsSnapshot {
    /// Attaches the runtime's phase-timer reading, exported as
    /// `atropos_tick_phase_ns{phase=…}`.
    pub fn with_tick_phases(mut self, phases: &TickPhases) -> Self {
        self.tick_phases = TickPhase::ALL
            .iter()
            .map(|&p| TickPhaseNs {
                phase: p.name().to_string(),
                count: phases.count(p),
                sum_ns: phases.sum_ns(p),
                buckets: phases.buckets(p).to_vec(),
            })
            .collect();
        self
    }

    /// Internal-consistency audit. Returns one message per violated
    /// relation; an empty vector means the snapshot is coherent:
    ///
    /// - every policy cancel follows a blame, every blame a detection, and
    ///   at most one detection fires per tick,
    /// - the time-to-cancel histogram agrees with the completion counter,
    /// - per-kind counters sum to the ingestion counter.
    pub fn consistency_errors(&self) -> Vec<String> {
        let mut errs = Vec::new();
        if self.cancels_issued_policy > self.blames {
            errs.push(format!(
                "cancels_issued_policy {} > blames {}",
                self.cancels_issued_policy, self.blames
            ));
        }
        if self.blames > self.detections {
            errs.push(format!(
                "blames {} > detections {}",
                self.blames, self.detections
            ));
        }
        if self.detections > self.ticks {
            errs.push(format!(
                "detections {} > ticks {}",
                self.detections, self.ticks
            ));
        }
        let hist_count: u64 = self.time_to_cancel_buckets.iter().sum();
        if hist_count != self.cancels_completed {
            errs.push(format!(
                "time_to_cancel histogram count {} != cancels_completed {}",
                hist_count, self.cancels_completed
            ));
        }
        let by_kind = self.detections
            + self.resources_scored
            + self.candidates_ranked
            + self.blames
            + self.cancels_issued_policy
            + self.cancels_issued_operator
            + self.backoff_rate_limited
            + self.backoff_already_canceled
            + self.backoff_no_initiator
            + self.cancels_completed
            + self.regular_overloads;
        if by_kind != self.events_ingested {
            errs.push(format!(
                "per-kind counters sum to {} but events_ingested is {}",
                by_kind, self.events_ingested
            ));
        }
        errs
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut counter = |name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP atropos_{name} {help}\n# TYPE atropos_{name} counter\natropos_{name} {v}\n"
            ));
        };
        counter(
            "events_ingested_total",
            "Decision events ingested",
            self.events_ingested,
        );
        counter(
            "detections_total",
            "Candidate overloads detected",
            self.detections,
        );
        counter(
            "resources_scored_total",
            "Bottlenecked resources scored",
            self.resources_scored,
        );
        counter(
            "candidates_ranked_total",
            "Cancellation candidates ranked",
            self.candidates_ranked,
        );
        counter("blames_total", "Blame assignments", self.blames);
        counter(
            "cancels_issued_policy_total",
            "Cancellations issued by the policy pipeline",
            self.cancels_issued_policy,
        );
        counter(
            "cancels_issued_operator_total",
            "Cancellations issued by operators",
            self.cancels_issued_operator,
        );
        counter(
            "backoff_rate_limited_total",
            "Cancellations suppressed by the rate limiter",
            self.backoff_rate_limited,
        );
        counter(
            "backoff_already_canceled_total",
            "Cancellations suppressed by cancel-once fairness",
            self.backoff_already_canceled,
        );
        counter(
            "backoff_no_initiator_total",
            "Cancellations suppressed for lack of an initiator",
            self.backoff_no_initiator,
        );
        counter(
            "cancels_completed_total",
            "Cancellations completed",
            self.cancels_completed,
        );
        counter(
            "cancels_delivered_total",
            "Cancellations confirmed delivered",
            self.cancels_delivered,
        );
        counter(
            "regular_overloads_total",
            "Regular (non-resource) overloads",
            self.regular_overloads,
        );
        out.push_str(&format!(
            "# HELP atropos_ticks Highest tick index observed\n# TYPE atropos_ticks gauge\natropos_ticks {}\n",
            self.ticks
        ));
        out.push_str(
            "# HELP atropos_time_to_cancel_ns Issue-to-completion latency of cancellations\n\
             # TYPE atropos_time_to_cancel_ns histogram\n",
        );
        push_buckets(
            &mut out,
            "atropos_time_to_cancel_ns",
            "",
            &self.time_to_cancel_buckets,
        );
        out.push_str(&format!(
            "atropos_time_to_cancel_ns_bucket{{le=\"+Inf\"}} {}\n\
             atropos_time_to_cancel_ns_sum {}\natropos_time_to_cancel_ns_count {}\n",
            self.cancels_completed, self.time_to_cancel_sum_ns, self.cancels_completed
        ));
        if !self.tick_phases.is_empty() {
            out.push_str(
                "# HELP atropos_tick_phase_ns Wall time of each tick() phase\n\
                 # TYPE atropos_tick_phase_ns histogram\n",
            );
        }
        for p in &self.tick_phases {
            let label = format!("phase=\"{}\",", p.phase);
            push_buckets(&mut out, "atropos_tick_phase_ns", &label, &p.buckets);
            out.push_str(&format!(
                "atropos_tick_phase_ns_bucket{{phase=\"{ph}\",le=\"+Inf\"}} {n}\n\
                 atropos_tick_phase_ns_sum{{phase=\"{ph}\"}} {sum}\n\
                 atropos_tick_phase_ns_count{{phase=\"{ph}\"}} {n}\n",
                ph = p.phase,
                n = p.count,
                sum = p.sum_ns
            ));
        }
        for r in &self.resources {
            out.push_str(&format!(
                "atropos_resource_hold_ns{{resource=\"{id}\"}} {hold}\n\
                 atropos_resource_wait_ns{{resource=\"{id}\"}} {wait}\n\
                 atropos_resource_weight{{resource=\"{id}\"}} {weight}\n",
                id = r.resource,
                hold = r.hold_ns,
                wait = r.wait_ns,
                weight = r.weight
            ));
        }
        out
    }

    /// The snapshot as a JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("MetricsSnapshot serializes")
    }
}

/// Appends the non-empty cumulative `le` lines of a log2 histogram
/// (`labels` is empty or ends in a comma).
fn push_buckets(out: &mut String, name: &str, labels: &str, buckets: &[u64]) {
    let mut cumulative = 0u64;
    for (i, count) in buckets.iter().enumerate() {
        cumulative += count;
        if *count > 0 {
            out.push_str(&format!(
                "{name}_bucket{{{labels}le=\"{}\"}} {cumulative}\n",
                (1u128 << (i + 1)) - 1
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atropos::{ResourceId, ResourceType, TaskId, TaskKey};

    fn feed_episode(reg: &MetricsRegistry) {
        reg.observe(&DecisionEvent::OverloadDetected {
            tick: 3,
            latency_ns: 50_000_000,
            throughput_qps: 10.0,
        });
        reg.observe(&DecisionEvent::ResourceScored {
            tick: 3,
            resource: ResourceId(0),
            rtype: ResourceType::Lock,
            contention: 0.9,
            weight: 1.0,
            wait_ns: 80_000_000,
            hold_ns: 90_000_000,
        });
        reg.observe(&DecisionEvent::CandidateRanked {
            tick: 3,
            task: TaskId(1),
            key: TaskKey(9),
            score: 2.0,
        });
        reg.observe(&DecisionEvent::BlameAssigned {
            tick: 3,
            resource: ResourceId(0),
            task: TaskId(1),
            key: TaskKey(9),
            score: 2.0,
            terms: [None; atropos::MAX_GAIN_TERMS],
            victims_waiting: 4,
        });
        reg.observe(&DecisionEvent::CancelIssued {
            tick: 3,
            key: TaskKey(9),
            now_ns: 300_000_000,
            origin: CancelOrigin::Policy,
        });
        reg.observe(&DecisionEvent::CancelCompleted {
            tick: 4,
            key: TaskKey(9),
            time_to_cancel_ns: 100_000_000,
        });
    }

    #[test]
    fn a_full_episode_yields_a_consistent_snapshot() {
        let reg = MetricsRegistry::new();
        feed_episode(&reg);
        reg.observe_cancel_delivered();
        let snap = reg.snapshot();
        assert_eq!(snap.events_ingested, 6);
        assert_eq!(snap.detections, 1);
        assert_eq!(snap.cancels_issued_policy, 1);
        assert_eq!(snap.cancels_completed, 1);
        assert_eq!(snap.cancels_failed, 0);
        assert_eq!(snap.ticks, 4);
        assert_eq!(snap.time_to_cancel_sum_ns, 100_000_000);
        assert_eq!(snap.time_to_cancel_buckets.iter().sum::<u64>(), 1);
        assert_eq!(snap.resources.len(), 1);
        assert_eq!(snap.resources[0].hold_ns, 90_000_000);
        assert!(
            snap.consistency_errors().is_empty(),
            "{:?}",
            snap.consistency_errors()
        );
    }

    #[test]
    fn undelivered_cancels_surface_as_failed() {
        let reg = MetricsRegistry::new();
        feed_episode(&reg); // issued, never observe_cancel_delivered()
        assert_eq!(reg.snapshot().cancels_failed, 1);
    }

    #[test]
    fn consistency_audit_is_falsifiable() {
        let reg = MetricsRegistry::new();
        feed_episode(&reg);
        let mut snap = reg.snapshot();
        snap.cancels_completed += 1; // lie: completion without histogram entry
        assert!(!snap.consistency_errors().is_empty());
    }

    #[test]
    fn zero_time_to_cancel_lands_in_bucket_zero() {
        let reg = MetricsRegistry::new();
        reg.observe(&DecisionEvent::CancelCompleted {
            tick: 1,
            key: TaskKey(1),
            time_to_cancel_ns: 0,
        });
        assert_eq!(reg.snapshot().time_to_cancel_buckets[0], 1);
    }

    #[test]
    fn prometheus_text_contains_counters_and_histogram() {
        let reg = MetricsRegistry::new();
        feed_episode(&reg);
        let text = reg.snapshot().prometheus_text();
        assert!(text.contains("atropos_detections_total 1"));
        assert!(text.contains("atropos_cancels_issued_policy_total 1"));
        assert!(text.contains("atropos_time_to_cancel_ns_count 1"));
        assert!(text.contains("atropos_resource_hold_ns{resource=\"0\"} 90000000"));
    }

    #[test]
    fn tick_phases_export_as_a_labelled_histogram_and_roundtrip() {
        use atropos::{AtroposConfig, AtroposRuntime};
        let rt = AtroposRuntime::new(
            AtroposConfig::default(),
            std::sync::Arc::new(atropos_sim::VirtualClock::new()),
        );
        rt.tick();
        rt.tick();
        let reg = MetricsRegistry::new();
        assert!(reg.snapshot().tick_phases.is_empty());
        assert!(!reg.snapshot().prometheus_text().contains("tick_phase"));
        let snap = reg.snapshot().with_tick_phases(&rt.tick_phases());
        let text = snap.prometheus_text();
        for phase in ["drain", "roll", "detect", "refresh"] {
            assert!(
                text.contains(&format!(
                    "atropos_tick_phase_ns_count{{phase=\"{phase}\"}} 2"
                )),
                "{phase} missing:\n{text}"
            );
        }
        // Idle ticks never select or actuate.
        assert!(text.contains("atropos_tick_phase_ns_count{phase=\"select\"} 0"));
        let back: MetricsSnapshot = serde_json::from_str(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        assert!(snap.consistency_errors().is_empty());
    }

    #[test]
    fn snapshot_json_roundtrips() {
        let reg = MetricsRegistry::new();
        feed_episode(&reg);
        let snap = reg.snapshot();
        let back: MetricsSnapshot = serde_json::from_str(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }
}
