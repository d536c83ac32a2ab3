//! Deferred batch replay ≡ per-event application, over the chaos
//! scenario corpus.
//!
//! Every scripted scenario runs on a virtual clock with deterministic
//! seeds, so a run whose trace events sit in the ingest rings until the
//! next drain point and a run that drains after every emit
//! (`DrainEveryEmit` between the injector and the runtime) must be
//! **bit-identical** in everything the application can observe: the
//! cancellations issued and delivered (and their order), the tick and
//! candidate counts, the invariant verdict, the decision episodes folded
//! from the flight recorder, and the final runtime snapshot's counters.
//! This is the whole-corpus extension of the in-crate lemma in
//! `atropos::runtime` — if the epoch drain reordered, dropped, or
//! duplicated a single record anywhere in these runs, some fingerprint
//! below would diverge.
//!
//! The only normalization allowed: per-event application never fills a
//! ring and so never counts a mid-window flush.

use atropos_chaos::{run_scenario_with_ingest, FaultPlan, ScenarioKind, ScenarioOutcome};

/// Everything the application can observe from one run, in a comparable
/// form. `mid_window_flushes` is carried separately so the comparison
/// can normalize it (and *only* it).
#[derive(Debug, PartialEq)]
struct Fingerprint {
    canceled_keys: Vec<u64>,
    issued_keys: Vec<u64>,
    hog_canceled: bool,
    victim_canceled: bool,
    ticks: u64,
    candidates: u64,
    violation: Option<String>,
    stats: String,
    mid_window_flushes: u64,
    tasks: String,
    episodes: String,
}

fn fingerprint(out: &ScenarioOutcome) -> Fingerprint {
    let mut stats = out.final_snapshot.stats;
    let mid_window_flushes = stats.mid_window_flushes;
    stats.mid_window_flushes = 0;
    Fingerprint {
        canceled_keys: out.canceled_keys.clone(),
        issued_keys: out.issued_keys.clone(),
        hog_canceled: out.hog_canceled,
        victim_canceled: out.victim_canceled,
        ticks: out.ticks,
        candidates: out.candidates,
        violation: out.violation.as_ref().map(|v| format!("{v:?}")),
        stats: format!("{stats:?}"),
        mid_window_flushes,
        tasks: format!("{:?}", out.final_snapshot.tasks),
        episodes: format!("{:?}", out.episodes),
    }
}

/// Runs one (scenario, plan, load) cell deferred and drained after every
/// emit and demands identical fingerprints, normalizing only the flush
/// counter (which per-event application cannot have).
fn replay_matches_per_event(kind: ScenarioKind, plan: &FaultPlan, load: u64) {
    let per_event = fingerprint(&run_scenario_with_ingest(kind, plan, load, true));
    let mut deferred = fingerprint(&run_scenario_with_ingest(kind, plan, load, false));
    assert_eq!(per_event.mid_window_flushes, 0);
    deferred.mid_window_flushes = 0;
    assert_eq!(
        deferred, per_event,
        "{kind:?}: deferred replay diverged from per-event application"
    );
}

const KINDS: [ScenarioKind; 3] = [
    ScenarioKind::LockHog,
    ScenarioKind::BufferScan,
    ScenarioKind::TicketQueue,
];

/// The healthy corpus: every scenario kind under quiet plans and two
/// load scales.
#[test]
fn deferred_replay_matches_per_event_application_on_quiet_corpus() {
    for kind in KINDS {
        for seed in [1u64, 7] {
            replay_matches_per_event(kind, &FaultPlan::quiet(seed), 1);
        }
        replay_matches_per_event(kind, &FaultPlan::quiet(3), 2);
    }
}

/// The faulted corpus: armed plans fire delay/fail/skew faults mid-run;
/// whatever the injected chaos does to the outcome, it must do it
/// identically whenever the events are applied.
#[test]
fn deferred_replay_matches_per_event_application_under_armed_fault_plans() {
    for kind in KINDS {
        for seed in [11u64, 42] {
            replay_matches_per_event(kind, &FaultPlan::sample(seed), 1);
        }
    }
}
