//! Per-case fidelity: Atropos must not only mitigate each case but
//! identify it as a *resource* overload (not regular demand overload) and
//! actually issue cancellations — the distinguishing behaviour Table 2
//! is built to exercise.

use atropos_scenarios::{all_cases, calibrate, run_atropos_case, ControllerKind, RunConfig};

#[test]
fn every_case_is_classified_as_resource_overload_and_canceled() {
    let rc = RunConfig::full(7);
    let results = atropos_scenarios::runner::parallel_map(all_cases(), |case| {
        let baseline = calibrate(&case, &rc);
        let (result, run) = run_atropos_case(&case, ControllerKind::Atropos, &rc, &baseline, false);
        (case.id, result, run.runtime.stats())
    });
    for (id, result, stats) in results {
        assert!(
            stats.candidates > 0,
            "{id}: the detector never flagged a candidate overload"
        );
        assert!(
            stats.resource_overloads > 0,
            "{id}: no candidate was confirmed as a resource overload \
             (regular: {})",
            stats.regular_overloads
        );
        assert!(stats.cancel.issued > 0, "{id}: no cancellation was issued");
        // The framework traced real usage for this case.
        assert!(
            stats.trace_events > 1_000,
            "{id}: only {} trace events",
            stats.trace_events
        );
        // And the mitigation held (coarse bound; the tight bounds live in
        // the workspace-level end-to-end tests).
        assert!(
            result.normalized.throughput > 0.85,
            "{id}: normalized throughput {:.2}",
            result.normalized.throughput
        );
    }
}

/// Confirmed overloads must be attributed to the resource type Table 2
/// declares for the case — or to a documented downstream resource that
/// backs up behind it (victims of a held table lock occupy the InnoDB
/// tickets, so the ticket queue is the *proximate* bottleneck of a lock
/// convoy; the policy still cancels the lock holder because only it has
/// running gains).
#[test]
fn sampled_cases_bottleneck_the_declared_resource_type() {
    use atropos::ResourceType::{Lock, Memory, Queue, System};
    let idx = |t: atropos::ResourceType| match t {
        Lock => 0usize,
        Memory => 1,
        Queue => 2,
        System => 3,
    };
    let picks: [(&str, &[atropos::ResourceType]); 4] = [
        ("c4", &[Lock, Queue]),   // table lock (+ tickets behind it)
        ("c5", &[Memory, Queue]), // buffer pool (+ tickets under thrash)
        ("c9", &[Queue]),         // Apache client pool
        ("c8", &[System, Queue]), // vacuum IO (+ worker pool behind it)
    ];
    let rc = RunConfig::full(7);
    let cases: Vec<_> = all_cases()
        .into_iter()
        .filter(|c| picks.iter().any(|(id, _)| *id == c.id))
        .collect();
    let results = atropos_scenarios::runner::parallel_map(cases, |case| {
        let baseline = calibrate(&case, &rc);
        let (_, run) = run_atropos_case(&case, ControllerKind::Atropos, &rc, &baseline, false);
        (case.id, run.runtime.stats().overloads_by_type)
    });
    for (id, by_type) in results {
        let allowed = picks
            .iter()
            .find(|(cid, _)| *cid == id)
            .map(|(_, t)| *t)
            .expect("picked case");
        let total: u64 = by_type.iter().sum();
        assert!(total > 0, "{id}: no resource overloads confirmed");
        let attributed: u64 = allowed.iter().map(|&t| by_type[idx(t)]).sum();
        assert!(
            attributed * 2 > total,
            "{id}: confirmed overloads by type {by_type:?} are not \
             dominated by the declared resources {allowed:?}"
        );
    }
}
