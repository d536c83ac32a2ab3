//! Case execution: calibration, controller construction, normalization.
//!
//! Mirrors the paper's methodology: each case first runs *without* the
//! noisy classes under no control to obtain the application's baseline
//! throughput and tail latency; the SLO is then set to tolerate a
//! configured latency increase over that baseline (20% by default, §5.3),
//! and the overloaded variant runs under the controller being evaluated.
//! All reported metrics are normalized against the baseline run.

use std::sync::Mutex;

use atropos::{AtroposConfig, PolicyKind};
use atropos_app::glue::{AtroposController, OverheadModel};
use atropos_app::server::SimServer;
use atropos_app::{Controller, NoControl};
use atropos_baselines::{
    breakwater::Breakwater,
    dagor::Dagor,
    darc::{Darc, DarcConfig},
    parties::{Parties, PartiesConfig},
    pbox::{PBox, PBoxConfig},
    protego::Protego,
    seda::Seda,
};
use atropos_metrics::{NormalizedSummary, RunSummary};
use atropos_sim::SimTime;

use crate::cases::{CaseDef, CaseHints, CaseParams};

/// Which controller a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerKind {
    /// Uncontrolled (the "Overload" line of Figure 10).
    None,
    /// Atropos with the multi-objective policy (the paper's system).
    Atropos,
    /// Atropos with the §5.4 single-resource heuristic policy.
    AtroposHeuristic,
    /// Atropos with the §5.4 current-usage policy.
    AtroposCurrentUsage,
    /// Protego (victim shedding + admission control).
    Protego,
    /// pBox (isolation: throttling + quotas, no drops).
    PBox,
    /// DARC (request-type-aware worker reservation).
    Darc,
    /// PARTIES (client-level partition adjustment).
    Parties,
    /// Breakwater (credit-based admission control).
    Breakwater,
    /// SEDA (adaptive per-stage rate control).
    Seda,
    /// DAGOR (priority-based admission, WeChat).
    Dagor,
}

impl ControllerKind {
    /// Label used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            ControllerKind::None => "Overload",
            ControllerKind::Atropos => "Atropos",
            ControllerKind::AtroposHeuristic => "Heuristic",
            ControllerKind::AtroposCurrentUsage => "CurrentUsage",
            ControllerKind::Protego => "Protego",
            ControllerKind::PBox => "pBox",
            ControllerKind::Darc => "DARC",
            ControllerKind::Parties => "PARTIES",
            ControllerKind::Breakwater => "Breakwater",
            ControllerKind::Seda => "SEDA",
            ControllerKind::Dagor => "DAGOR",
        }
    }

    /// The five systems compared in Figure 9.
    pub fn comparison_set() -> [ControllerKind; 5] {
        [
            ControllerKind::Atropos,
            ControllerKind::Protego,
            ControllerKind::PBox,
            ControllerKind::Darc,
            ControllerKind::Parties,
        ]
    }
}

/// Per-run configuration shared by all experiments.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// RNG seed.
    pub seed: u64,
    /// Total virtual run time.
    pub duration: SimTime,
    /// Warmup excluded from metrics.
    pub warmup: SimTime,
    /// Arrival-rate scale (1.0 = the case's default).
    pub load_scale: f64,
    /// SLO latency-increase tolerance over baseline p99 (0.2 = 20%).
    pub slo_threshold: f64,
    /// Whether Atropos may actually invoke the initiator (disabled to
    /// isolate tracing overhead in Figure 14).
    pub cancellation_enabled: bool,
    /// Tracing-cost model; `None` uses the default.
    pub overhead: Option<OverheadModel>,
    /// Override for Atropos' minimum interval between cancellations
    /// (the §5.3 aggressiveness/recovery knob); `None` keeps the default.
    pub cancel_min_interval_ns: Option<u64>,
}

impl RunConfig {
    /// The full-length configuration used for recorded results.
    pub fn full(seed: u64) -> Self {
        Self {
            seed,
            duration: SimTime::from_secs(12),
            warmup: SimTime::from_secs(2),
            load_scale: 1.0,
            slo_threshold: 0.2,
            cancellation_enabled: true,
            overhead: None,
            cancel_min_interval_ns: None,
        }
    }

    /// A shorter configuration for smoke tests / `--quick`.
    pub fn quick(seed: u64) -> Self {
        Self {
            duration: SimTime::from_secs(7),
            warmup: SimTime::from_millis(1_500),
            ..Self::full(seed)
        }
    }

    /// Case parameters derived from this run config.
    pub fn case_params(&self) -> CaseParams {
        CaseParams {
            seed: self.seed,
            load_scale: self.load_scale,
            disturb_at: SimTime::from_millis(2_500).max(self.warmup),
            duration: self.duration,
        }
    }

    fn measured_ns(&self) -> u64 {
        self.duration.saturating_sub(self.warmup).as_nanos()
    }
}

/// The calibrated baseline of a case.
#[derive(Debug, Clone)]
pub struct Baseline {
    /// Non-overloaded performance under no control.
    pub summary: RunSummary,
    /// Derived latency SLO (baseline p99 × (1 + threshold)).
    pub slo_ns: u64,
}

/// One controller run against a case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Raw run summary.
    pub summary: RunSummary,
    /// Normalized against the case baseline.
    pub normalized: NormalizedSummary,
}

fn summarize(
    label: &str,
    metrics: &atropos_app::server::ServerMetrics,
    duration_ns: u64,
) -> RunSummary {
    RunSummary::from_histogram(
        label,
        duration_ns,
        metrics.offered,
        metrics.dropped,
        metrics.canceled,
        metrics.retried,
        &metrics.latency,
    )
}

/// Runs the undisturbed case under no control and derives the SLO.
pub fn calibrate(case: &CaseDef, rc: &RunConfig) -> Baseline {
    let built = case.build(&rc.case_params(), false);
    let metrics = SimServer::new(built.server, built.workload, Box::new(NoControl))
        .run(rc.duration, rc.warmup);
    let summary = summarize("baseline", &metrics, rc.measured_ns());
    let slo_ns = (summary.p99_ns as f64 * (1.0 + rc.slo_threshold)) as u64;
    Baseline { summary, slo_ns }
}

fn build_plain_controller(
    kind: ControllerKind,
    slo_ns: u64,
    hints: &CaseHints,
) -> Box<dyn Controller> {
    match kind {
        ControllerKind::None => Box::new(NoControl),
        ControllerKind::Protego => Box::new(Protego::new(slo_ns).exempt(hints.slo_exempt.clone())),
        ControllerKind::PBox => Box::new(PBox::new(PBoxConfig::new(slo_ns, hints.pools.clone()))),
        ControllerKind::Darc => Box::new(Darc::new(DarcConfig::new(hints.workers))),
        ControllerKind::Parties => Box::new(Parties::new(PartiesConfig::new(
            slo_ns,
            hints.pools.clone(),
        ))),
        ControllerKind::Breakwater => Box::new(Breakwater::new(slo_ns)),
        ControllerKind::Seda => Box::new(Seda::new(slo_ns)),
        ControllerKind::Dagor => Box::new(Dagor::new(slo_ns / 2)),
        ControllerKind::Atropos
        | ControllerKind::AtroposHeuristic
        | ControllerKind::AtroposCurrentUsage => {
            unreachable!("Atropos controllers are built with the server clock")
        }
    }
}

fn atropos_policy(kind: ControllerKind) -> Option<PolicyKind> {
    match kind {
        ControllerKind::Atropos => Some(PolicyKind::MultiObjective),
        ControllerKind::AtroposHeuristic => Some(PolicyKind::Heuristic),
        ControllerKind::AtroposCurrentUsage => Some(PolicyKind::CurrentUsage),
        _ => None,
    }
}

/// Runs the overloaded case under the given controller.
pub fn run_with(
    case: &CaseDef,
    kind: ControllerKind,
    rc: &RunConfig,
    baseline: &Baseline,
) -> CaseResult {
    let built = case.build(&rc.case_params(), true);
    let metrics = if let Some(policy) = atropos_policy(kind) {
        let mut cfg = AtroposConfig::default()
            .with_slo_ns(baseline.slo_ns)
            .with_policy(policy);
        if let Some(interval) = rc.cancel_min_interval_ns {
            cfg.cancel_min_interval_ns = interval;
        }
        let enabled = rc.cancellation_enabled;
        let overhead = rc.overhead;
        SimServer::new_with(built.server, built.workload, |clock, groups| {
            let mut c = AtroposController::new(cfg, clock, groups, enabled);
            if let Some(o) = overhead {
                c = c.with_overhead(o);
            }
            Box::new(c)
        })
        .run(rc.duration, rc.warmup)
    } else {
        let controller = build_plain_controller(kind, baseline.slo_ns, &built.hints);
        SimServer::new(built.server, built.workload, controller).run(rc.duration, rc.warmup)
    };
    let summary = summarize(kind.label(), &metrics, rc.measured_ns());
    let normalized = summary.normalized_against(&baseline.summary);
    CaseResult {
        summary,
        normalized,
    }
}

/// Runs the overloaded case under Atropos and returns the runtime handle
/// alongside the result, for tests and diagnostics that inspect the
/// estimator's view (which resource was bottlenecked, how many candidate
/// overloads fired, cancellation counters).
pub fn run_atropos_with_handle(
    case: &CaseDef,
    rc: &RunConfig,
    baseline: &Baseline,
) -> (CaseResult, std::sync::Arc<atropos::AtroposRuntime>) {
    let built = case.build(&rc.case_params(), true);
    let cfg = AtroposConfig::default().with_slo_ns(baseline.slo_ns);
    let handle = std::sync::Arc::new(parking_lot::Mutex::new(None));
    let h2 = handle.clone();
    let metrics = SimServer::new_with(built.server, built.workload, move |clock, groups| {
        let c = AtroposController::new(cfg, clock, groups, true);
        *h2.lock() = Some(c.runtime());
        Box::new(c)
    })
    .run(rc.duration, rc.warmup);
    let rt = handle.lock().take().expect("controller constructed");
    let summary = summarize("Atropos", &metrics, rc.measured_ns());
    let normalized = summary.normalized_against(&baseline.summary);
    (
        CaseResult {
            summary,
            normalized,
        },
        rt,
    )
}

/// An Atropos case run with the decision-trace observer attached: the
/// normalized result plus everything needed to *explain* the run — the
/// runtime handle, folded decision episodes, the metrics snapshot, and
/// the application-side cancel log (who was actually canceled, with
/// workload-class names resolved).
pub struct ObservedRun {
    /// Raw + normalized performance result.
    pub result: CaseResult,
    /// The Atropos runtime, for estimator/cancel introspection.
    pub runtime: std::sync::Arc<atropos::AtroposRuntime>,
    /// Decision episodes folded from the flight recorder.
    pub episodes: Vec<atropos_obs::DecisionEpisode>,
    /// Metrics registry snapshot at the end of the run.
    pub metrics: atropos_obs::MetricsSnapshot,
    /// Executed cancellations as `(class name, request id)` in issue order.
    pub cancel_log: Vec<(String, u64)>,
}

/// [`run_atropos_with_handle`] with an [`atropos_obs::Observer`]
/// installed: the same simulation plus a full decision trace. The ring is
/// sized generously (32768 events) so golden runs never overwrite.
pub fn run_atropos_observed(case: &CaseDef, rc: &RunConfig, baseline: &Baseline) -> ObservedRun {
    let built = case.build(&rc.case_params(), true);
    let class_names: Vec<String> = built
        .workload
        .classes
        .iter()
        .map(|c| c.name.clone())
        .collect();
    let mut cfg = AtroposConfig::default().with_slo_ns(baseline.slo_ns);
    if let Some(interval) = rc.cancel_min_interval_ns {
        cfg.cancel_min_interval_ns = interval;
    }
    let handle = std::sync::Arc::new(parking_lot::Mutex::new(None));
    let h2 = handle.clone();
    let metrics = SimServer::new_with(built.server, built.workload, move |clock, groups| {
        let c = AtroposController::new(cfg, clock, groups, true);
        let rt = c.runtime();
        let obs = atropos_obs::Observer::install(&rt, 32_768);
        *h2.lock() = Some((rt, obs));
        Box::new(c)
    })
    .run(rc.duration, rc.warmup);
    let (rt, obs) = handle.lock().take().expect("controller constructed");
    let names = atropos_obs::ResourceNames::from_snapshot(&rt.debug_snapshot());
    let episodes = obs.drain_episodes(&names);
    let cancel_log = metrics
        .cancel_log
        .iter()
        .map(|r| {
            let class = class_names
                .get(r.class.0 as usize)
                .cloned()
                .unwrap_or_else(|| format!("class-{}", r.class.0));
            (class, r.req.0)
        })
        .collect();
    let summary = summarize("Atropos", &metrics, rc.measured_ns());
    let normalized = summary.normalized_against(&baseline.summary);
    ObservedRun {
        result: CaseResult {
            summary,
            normalized,
        },
        episodes,
        metrics: obs.metrics().with_tick_phases(&rt.tick_phases()),
        runtime: rt,
        cancel_log,
    }
}

/// Runs `f` over `items` on up to `available_parallelism` worker threads,
/// preserving input order. Results are deterministic because each item's
/// simulation is self-contained and seeded.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n.max(1));
    let work: Mutex<Vec<Option<T>>> = Mutex::new(items.into_iter().map(Some).collect());
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = work.lock().expect("work lock")[i].take().expect("item");
                let r = f(item);
                results.lock().expect("results lock")[i] = Some(r);
            });
        }
    });
    results
        .into_inner()
        .expect("results")
        .into_iter()
        .map(|r| r.expect("all items processed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::all_cases;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..64).collect(), |x: i32| x * 2);
        assert_eq!(out, (0..64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn calibration_produces_healthy_baseline() {
        let cases = all_cases();
        let rc = RunConfig::quick(7);
        let b = calibrate(&cases[0], &rc);
        assert!(b.summary.throughput_qps() > 7_000.0);
        assert_eq!(b.summary.dropped, 0);
        assert!(b.slo_ns > b.summary.p99_ns);
    }

    /// The headline claim on case c1: Atropos beats the uncontrolled run
    /// and Protego on throughput while dropping (nearly) nothing.
    #[test]
    fn c1_atropos_beats_uncontrolled_and_protego() {
        let case = &all_cases()[0];
        let rc = RunConfig::quick(7);
        let baseline = calibrate(case, &rc);
        let none = run_with(case, ControllerKind::None, &rc, &baseline);
        let atropos = run_with(case, ControllerKind::Atropos, &rc, &baseline);
        let protego = run_with(case, ControllerKind::Protego, &rc, &baseline);
        // In the short quick-mode window, the uncontrolled convoy's damage
        // lands on whichever axis the scan straddles: completions can be
        // suppressed (throughput collapse) or merely delayed into a
        // catch-up burst (p99 blow-up with intact throughput). Atropos
        // must strictly beat the uncontrolled run on the damaged axis
        // without giving up the other.
        let tput_gain = atropos.normalized.throughput - none.normalized.throughput;
        let p99_ratio = none.normalized.p99 / atropos.normalized.p99.max(1e-9);
        assert!(
            tput_gain > 0.05 || (tput_gain > -0.02 && p99_ratio > 5.0),
            "atropos tput {:.2} vs none {:.2}, p99 {:.1}x vs {:.1}x",
            atropos.normalized.throughput,
            none.normalized.throughput,
            atropos.normalized.p99,
            none.normalized.p99
        );
        assert!(
            atropos.normalized.throughput > 0.85,
            "atropos kept only {:.2}",
            atropos.normalized.throughput
        );
        assert!(atropos.normalized.drop_rate < 0.01);
        assert!(
            protego.normalized.drop_rate > atropos.normalized.drop_rate,
            "protego {:.3} vs atropos {:.3}",
            protego.normalized.drop_rate,
            atropos.normalized.drop_rate
        );
    }

    /// Scenario-level contract for the ingest path: a full case replay
    /// with trace events buffered until the next drain point produces
    /// exactly the numbers per-event application (a drain after every
    /// emit) produces, so every experiment's pass/fail pattern is
    /// independent of when the runtime folds events in.
    #[test]
    fn deferred_ingest_does_not_change_case_results() {
        use atropos_substrate::DrainEveryEmit;
        use std::sync::Arc;
        let case = &all_cases()[0];
        let rc = RunConfig::quick(7);
        let baseline = calibrate(case, &rc);
        let run = |drain_every_emit: bool| {
            let built = case.build(&rc.case_params(), true);
            let cfg = AtroposConfig::default().with_slo_ns(baseline.slo_ns);
            SimServer::new_with(built.server, built.workload, |clock, groups| {
                Box::new(AtroposController::new_with_middleware(
                    cfg,
                    clock,
                    groups,
                    true,
                    |port| {
                        if drain_every_emit {
                            Arc::new(DrainEveryEmit(port))
                        } else {
                            port
                        }
                    },
                ))
            })
            .run(rc.duration, rc.warmup)
        };
        let per_event = run(true);
        let deferred = run(false);
        assert_eq!(per_event.completed, deferred.completed);
        assert_eq!(per_event.dropped, deferred.dropped);
        assert_eq!(per_event.canceled, deferred.canceled);
        assert_eq!(per_event.offered, deferred.offered);
        assert_eq!(per_event.latency.p99(), deferred.latency.p99());
        assert!(per_event.canceled > 0, "case raised no cancellation");
    }
}
