//! Capacity sweep: execute a descriptor's `[ramp]` stanza against the
//! sim, thread and async substrates and find each one's knee.
//!
//! One [`WorkloadDescriptor`] pins everything a sweep needs: the `[case]`
//! stanza shapes the simulator workload, the `[scenario]` stanza shapes
//! the two wall-clock harnesses, the `[ramp]` stanza declares the offered
//! loads (`initial_rps` stepping by `increment_rps` up to `max_rps`), and
//! the `[slo]` stanza declares the victim-p99 budget a step must meet.
//! The **knee** is the last offered load of the contiguous passing prefix
//! — the highest load the controlled system absorbs before the victim
//! tail blows the budget.
//!
//! On top of the per-substrate knee curves, [`run_capacity`] sweeps the
//! simulator under a ladder of static control configurations
//! ([`STATIC_LADDER`]: relaxed / default / aggressive) and under an
//! **adaptive** feedback controller ([`sweep_sim_adaptive`]) that retunes
//! the detection threshold and cancellation aggressiveness per ramp step
//! from the previous step's observed victim p99 and time-to-cancel, and
//! retries a failed step across the ladder before conceding. On a
//! deterministic simulator the adaptive pass-set therefore contains every
//! static pass-set, so its knee is never below the best static knee —
//! the property `tests/capacity_adaptive.rs` locks in.

use atropos::AtroposConfig;
use atropos_app::server::SimServer;
use atropos_app::NoControl;
use atropos_live::{live_atropos_config, ControlMode, LiveConfig};
use atropos_scenarios::cases::{build_case, CaseParams};
use atropos_scenarios::run_atropos;
use atropos_sim::SimTime;
use atropos_substrate::ScenarioDescriptor;
use atropos_workload::{CaseDescriptor, SubstrateSel, WorkloadDescriptor};
use std::time::Duration;

/// One setting of the two control knobs the sweep varies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlKnobs {
    /// Label used in reports (`relaxed` / `default` / `aggressive` /
    /// `adaptive@…`).
    pub label: &'static str,
    /// Multiplier on the detector's SLO latency threshold (1.0 = the
    /// substrate default). Below 1.0 the detector blames earlier.
    pub slo_scale: f64,
    /// Floor between successive cancellations, ns (the §5.3
    /// aggressiveness/recovery knob).
    pub cancel_min_interval_ns: u64,
}

/// The static configurations every sweep compares: a forgiving detector
/// that cancels rarely, the substrate default, and a hair-trigger
/// detector that cancels up to 4× as often.
pub const STATIC_LADDER: [ControlKnobs; 3] = [
    ControlKnobs {
        label: "relaxed",
        slo_scale: 2.0,
        cancel_min_interval_ns: 200_000_000,
    },
    ControlKnobs {
        label: "default",
        slo_scale: 1.0,
        cancel_min_interval_ns: 50_000_000,
    },
    ControlKnobs {
        label: "aggressive",
        slo_scale: 0.5,
        cancel_min_interval_ns: 12_500_000,
    },
];

/// Sweep-wide options.
#[derive(Debug, Clone, Copy, Default)]
pub struct CapacityOptions {
    /// Shorten the simulator's virtual run so CI smoke stays fast.
    pub quick: bool,
}

impl CapacityOptions {
    fn sim_duration(&self) -> SimTime {
        if self.quick {
            SimTime::from_secs(5)
        } else {
            SimTime::from_secs(10)
        }
    }

    fn sim_warmup(&self) -> SimTime {
        if self.quick {
            SimTime::from_millis(1_250)
        } else {
            SimTime::from_secs(2)
        }
    }
}

/// What one ramp step observed.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// Offered load of the step, rps.
    pub rps: f64,
    /// Measured victim p99, ns.
    pub p99_ns: u64,
    /// Whether the step met the descriptor's `[slo]` budget.
    pub met_slo: bool,
    /// Disturbance → first cancellation on the substrate's own clock, ns.
    pub time_to_cancel_ns: Option<u64>,
    /// Cancellations executed during the step.
    pub cancels: u64,
    /// Knob setting the (passing, or last) attempt ran under.
    pub knobs: String,
}

/// One substrate's full ramp.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Substrate name (`sim` / `thread` / `async`).
    pub substrate: &'static str,
    /// Knob label the sweep ran under (`default`, `adaptive`, …).
    pub config: String,
    /// Per-step observations, ramp order.
    pub steps: Vec<StepOutcome>,
    /// Last rps of the contiguous passing prefix (`None`: the first step
    /// already failed).
    pub knee_rps: Option<f64>,
}

/// Knee of a step sequence: the contiguous passing prefix's last rps.
pub fn knee_of(steps: &[StepOutcome]) -> Option<f64> {
    let mut knee = None;
    for s in steps {
        if !s.met_slo {
            break;
        }
        knee = Some(s.rps);
    }
    knee
}

fn sweep_outcome(
    substrate: &'static str,
    config: impl Into<String>,
    steps: Vec<StepOutcome>,
) -> SweepOutcome {
    let knee_rps = knee_of(&steps);
    SweepOutcome {
        substrate,
        config: config.into(),
        steps,
        knee_rps,
    }
}

fn sim_params(case: &CaseDescriptor, rps: f64, opts: &CapacityOptions) -> CaseParams {
    CaseParams {
        load_scale: rps / case.base_qps,
        duration: opts.sim_duration(),
        ..CaseParams::default()
    }
}

/// Calibrates the sim side once per sweep: the undisturbed case under no
/// control yields the detector's nominal SLO (baseline p99 × 1.2, the
/// repo-wide 20% tolerance), which the knobs then scale.
fn calibrate_sim(case: &CaseDescriptor, opts: &CapacityOptions) -> u64 {
    let params = CaseParams {
        duration: opts.sim_duration(),
        ..CaseParams::default()
    };
    let built = build_case(case, &params, false);
    let metrics = SimServer::new(built.server, built.workload, Box::new(NoControl))
        .run(opts.sim_duration(), opts.sim_warmup());
    (metrics.latency.p99() as f64 * 1.2) as u64
}

fn sim_step(
    d: &WorkloadDescriptor,
    nominal_slo_ns: u64,
    knobs: &ControlKnobs,
    rps: f64,
    opts: &CapacityOptions,
) -> StepOutcome {
    let case = d
        .require_case()
        .expect("capacity descriptor carries [case]");
    let params = sim_params(case, rps, opts);
    let built = build_case(case, &params, true);
    let mut cfg =
        AtroposConfig::default().with_slo_ns(((nominal_slo_ns as f64) * knobs.slo_scale) as u64);
    cfg.cancel_min_interval_ns = knobs.cancel_min_interval_ns;
    let metrics = run_atropos(built, cfg, opts.sim_duration(), opts.sim_warmup(), false).metrics;
    let p99_ns = metrics.latency.p99();
    let disturb_ns = params.disturb_at.as_nanos();
    StepOutcome {
        rps,
        p99_ns,
        met_slo: p99_ns <= slo_ns(d),
        time_to_cancel_ns: metrics
            .cancel_log
            .first()
            .map(|r| r.at.as_nanos().saturating_sub(disturb_ns)),
        cancels: metrics.canceled,
        knobs: knobs.label.to_string(),
    }
}

fn slo_ns(d: &WorkloadDescriptor) -> u64 {
    d.slo
        .as_ref()
        .expect("capacity descriptor carries [slo]")
        .victim_p99_ns()
}

/// Sweeps the simulator under one static knob setting.
pub fn sweep_sim(
    d: &WorkloadDescriptor,
    knobs: &ControlKnobs,
    opts: &CapacityOptions,
) -> SweepOutcome {
    let case = d
        .require_case()
        .expect("capacity descriptor carries [case]");
    let ramp = d
        .require_ramp()
        .expect("capacity descriptor carries [ramp]");
    let nominal = calibrate_sim(case, opts);
    let steps = ramp
        .steps()
        .into_iter()
        .map(|rps| sim_step(d, nominal, knobs, rps, opts))
        .collect();
    sweep_outcome("sim", knobs.label, steps)
}

/// Sweeps the simulator under the adaptive feedback controller.
///
/// The controller owns the two knobs and retunes them between ramp steps
/// from the step's own observations:
///
/// - a failed step, or a victim p99 within 10% of the budget, **tightens**
///   (halve the detector threshold, halve the cancellation floor) — blame
///   earlier, relieve harder;
/// - a comfortable step (victim p99 under half the budget) **relaxes**
///   (threshold ×1.25, floor ×1.5) — spend fewer cancellations when the
///   tail has slack;
/// - a slow decision (time-to-cancel above 2 detector windows' worth,
///   200 ms virtual) also tightens the floor only.
///
/// A step that fails under the tuned knobs is retried across the
/// remaining [`STATIC_LADDER`] settings before it is recorded as failed,
/// so per-step retuning can only widen the pass-set relative to any
/// single static configuration.
pub fn sweep_sim_adaptive(d: &WorkloadDescriptor, opts: &CapacityOptions) -> SweepOutcome {
    let case = d
        .require_case()
        .expect("capacity descriptor carries [case]");
    let ramp = d
        .require_ramp()
        .expect("capacity descriptor carries [ramp]");
    let budget = slo_ns(d);
    let nominal = calibrate_sim(case, opts);
    let mut slo_scale: f64 = 1.0;
    let mut interval: u64 = 50_000_000;
    let mut steps = Vec::new();
    for rps in ramp.steps() {
        let tuned = ControlKnobs {
            label: "adaptive",
            slo_scale,
            cancel_min_interval_ns: interval,
        };
        let mut best = sim_step(d, nominal, &tuned, rps, opts);
        best.knobs = format!("adaptive({slo_scale:.2},{interval})");
        if !best.met_slo {
            for k in STATIC_LADDER.iter() {
                if (k.slo_scale, k.cancel_min_interval_ns)
                    == (tuned.slo_scale, tuned.cancel_min_interval_ns)
                {
                    continue;
                }
                let retry = sim_step(d, nominal, k, rps, opts);
                if retry.met_slo {
                    // Adopt the rescuing setting as the new operating
                    // point — the feedback loop learned this load level
                    // needs it.
                    slo_scale = k.slo_scale;
                    interval = k.cancel_min_interval_ns;
                    best = retry;
                    best.knobs = format!("adaptive-retry({})", k.label);
                    break;
                }
            }
        }
        // Feedback for the next step.
        if !best.met_slo || best.p99_ns as f64 > budget as f64 * 0.9 {
            slo_scale = (slo_scale * 0.5).max(0.25);
            interval = (interval / 2).max(10_000_000);
        } else if (best.p99_ns as f64) < budget as f64 * 0.5 {
            slo_scale = (slo_scale * 1.25).min(2.0);
            interval = ((interval as f64 * 1.5) as u64).min(200_000_000);
        }
        if best.time_to_cancel_ns.is_some_and(|t| t > 200_000_000) {
            interval = (interval / 2).max(10_000_000);
        }
        steps.push(best);
    }
    sweep_outcome("sim", "adaptive", steps)
}

fn live_config_for_step(
    scen: &ScenarioDescriptor,
    ramp_step_ms: u64,
    ramp_warmup_ms: u64,
    rps: f64,
) -> LiveConfig {
    let mut cfg = LiveConfig::from_scenario(scen);
    cfg.interarrival = Duration::from_nanos((1e9 / rps).max(1.0) as u64);
    cfg.run_for = Duration::from_millis(ramp_warmup_ms + ramp_step_ms);
    cfg
}

fn wall_clock_step(
    d: &WorkloadDescriptor,
    substrate: SubstrateSel,
    knobs: &ControlKnobs,
    rps: f64,
) -> StepOutcome {
    let scen = d
        .require_scenario()
        .expect("capacity descriptor carries [scenario]");
    let ramp = d
        .require_ramp()
        .expect("capacity descriptor carries [ramp]");
    let cfg = live_config_for_step(scen, ramp.step_ms, ramp.warmup_ms, rps);
    let mut acfg = live_atropos_config();
    acfg.detector.slo_latency_ns = ((acfg.detector.slo_latency_ns as f64) * knobs.slo_scale) as u64;
    acfg.cancel_min_interval_ns = knobs.cancel_min_interval_ns;
    let report = match substrate {
        SubstrateSel::Thread => atropos_live::run(cfg, ControlMode::Atropos(acfg)),
        SubstrateSel::Async => atropos_async::run(cfg, ControlMode::Atropos(acfg)),
        SubstrateSel::Sim => unreachable!("sim steps go through sim_step"),
    };
    StepOutcome {
        rps,
        p99_ns: report.victim.p99_ns,
        met_slo: report.victim.p99_ns <= slo_ns(d),
        time_to_cancel_ns: report.time_to_cancel.map(|t| t.as_nanos() as u64),
        cancels: report.canceled_keys.len() as u64,
        knobs: knobs.label.to_string(),
    }
}

/// Sweeps a wall-clock substrate (thread or async) under one knob
/// setting.
pub fn sweep_wall_clock(
    d: &WorkloadDescriptor,
    substrate: SubstrateSel,
    knobs: &ControlKnobs,
) -> SweepOutcome {
    let ramp = d
        .require_ramp()
        .expect("capacity descriptor carries [ramp]");
    let name = match substrate {
        SubstrateSel::Thread => "thread",
        SubstrateSel::Async => "async",
        SubstrateSel::Sim => unreachable!("sim sweeps go through sweep_sim"),
    };
    let steps = ramp
        .steps()
        .into_iter()
        .map(|rps| wall_clock_step(d, substrate, knobs, rps))
        .collect();
    sweep_outcome(name, knobs.label, steps)
}

fn default_knobs() -> &'static ControlKnobs {
    &STATIC_LADDER[1]
}

fn step_json(s: &StepOutcome) -> serde_json::Value {
    serde_json::json!({
        "rps": s.rps,
        "p99_ns": s.p99_ns,
        "met_slo": s.met_slo,
        "time_to_cancel_ns": s.time_to_cancel_ns,
        "cancels": s.cancels,
        "knobs": s.knobs,
    })
}

fn sweep_json(sw: &SweepOutcome) -> serde_json::Value {
    serde_json::json!({
        "substrate": sw.substrate,
        "config": sw.config,
        "knee_rps": sw.knee_rps,
        "steps": sw.steps.iter().map(step_json).collect::<Vec<_>>(),
    })
}

/// The full capacity study for one descriptor.
#[derive(Debug, Clone)]
pub struct CapacityReport {
    /// Default-knob knee curve per selected substrate, selection order.
    pub curves: Vec<SweepOutcome>,
    /// The [`STATIC_LADDER`] sweeps on the simulator, ladder order.
    pub static_sweeps: Vec<SweepOutcome>,
    /// The adaptive sweep on the simulator.
    pub adaptive: SweepOutcome,
}

impl CapacityReport {
    /// Highest knee any static configuration reached.
    pub fn best_static_knee_rps(&self) -> Option<f64> {
        self.static_sweeps
            .iter()
            .filter_map(|s| s.knee_rps)
            .fold(None, |acc, k| Some(acc.map_or(k, |a: f64| a.max(k))))
    }

    /// Adaptive knee minus the best static knee (`None` when neither
    /// ramp produced a knee).
    pub fn adaptive_delta_rps(&self) -> Option<f64> {
        match (self.adaptive.knee_rps, self.best_static_knee_rps()) {
            (Some(a), Some(b)) => Some(a - b),
            (Some(a), None) => Some(a),
            _ => None,
        }
    }
}

/// Runs the full capacity study for one descriptor: a default-knob knee
/// curve per selected substrate, plus the static-ladder vs adaptive
/// comparison on the simulator.
pub fn run_capacity(
    d: &WorkloadDescriptor,
    substrates: &[SubstrateSel],
    opts: &CapacityOptions,
) -> CapacityReport {
    let curves = substrates
        .iter()
        .map(|&s| match s {
            SubstrateSel::Sim => sweep_sim(d, default_knobs(), opts),
            SubstrateSel::Thread | SubstrateSel::Async => sweep_wall_clock(d, s, default_knobs()),
        })
        .collect();
    let static_sweeps = STATIC_LADDER
        .iter()
        .map(|k| sweep_sim(d, k, opts))
        .collect();
    let adaptive = sweep_sim_adaptive(d, opts);
    CapacityReport {
        curves,
        static_sweeps,
        adaptive,
    }
}

/// Renders a report as the `BENCH_capacity.json` payload
/// (`schema: bench_capacity/v1`).
pub fn report_json(
    d: &WorkloadDescriptor,
    opts: &CapacityOptions,
    report: &CapacityReport,
) -> serde_json::Value {
    let ramp = d
        .require_ramp()
        .expect("capacity descriptor carries [ramp]");
    let slo = d.slo.as_ref().expect("capacity descriptor carries [slo]");
    serde_json::json!({
        "schema": "bench_capacity/v1",
        "workload": d.name,
        "slo_victim_p99_ms": slo.victim_p99_ms,
        "ramp": {
            "initial_rps": ramp.initial_rps,
            "increment_rps": ramp.increment_rps,
            "max_rps": ramp.max_rps,
            "step_ms": ramp.step_ms,
            "warmup_ms": ramp.warmup_ms,
        },
        "quick": opts.quick,
        "substrates": report.curves.iter().map(sweep_json).collect::<Vec<_>>(),
        "adaptive_vs_static": {
            "substrate": "sim",
            "static": report.static_sweeps.iter().map(sweep_json).collect::<Vec<_>>(),
            "adaptive": sweep_json(&report.adaptive),
            "best_static_knee_rps": report.best_static_knee_rps(),
            "adaptive_knee_rps": report.adaptive.knee_rps,
            "adaptive_delta_rps": report.adaptive_delta_rps(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knee_is_the_contiguous_passing_prefix() {
        let step = |rps: f64, met: bool| StepOutcome {
            rps,
            p99_ns: 0,
            met_slo: met,
            time_to_cancel_ns: None,
            cancels: 0,
            knobs: "default".into(),
        };
        assert_eq!(knee_of(&[]), None);
        assert_eq!(knee_of(&[step(1.0, false), step(2.0, true)]), None);
        assert_eq!(
            knee_of(&[
                step(1.0, true),
                step(2.0, true),
                step(3.0, false),
                step(4.0, true)
            ]),
            Some(2.0)
        );
    }

    #[test]
    fn ladder_spans_relaxed_to_aggressive() {
        assert!(STATIC_LADDER[0].slo_scale > STATIC_LADDER[2].slo_scale);
        assert!(STATIC_LADDER[0].cancel_min_interval_ns > STATIC_LADDER[2].cancel_min_interval_ns);
        assert_eq!(default_knobs().label, "default");
    }
}
