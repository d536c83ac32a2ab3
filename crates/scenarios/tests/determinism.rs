//! Equal seeds, equal results, within one process: every system of the
//! Figure 9 comparison run twice on the same case and baseline must
//! produce the same [`CaseResult`](atropos_scenarios::runner::CaseResult).
//!
//! A controller that iterates a hash map (whose order is seeded per map
//! instance) or hands ties to whichever element a hash order puts last
//! would pass a single run and fail this one. Each system runs on a case
//! whose quick run is cheap for it; PARTIES runs on c15, where it once
//! completed 26 558 requests in one run and 41 841 in the next.

use atropos_scenarios::{all_cases, calibrate, run_with, ControllerKind, RunConfig};

#[test]
fn every_comparison_system_repeats_itself() {
    let case = all_cases()
        .into_iter()
        .find(|c| c.id == "c15")
        .expect("c15 is a Table 2 case");
    let rc = RunConfig::quick(42);
    let baseline = calibrate(&case, &rc);
    for kind in ControllerKind::comparison_set() {
        let first = run_with(&case, kind, &rc, &baseline);
        let second = run_with(&case, kind, &rc, &baseline);
        assert_eq!(
            format!("{first:?}"),
            format!("{second:?}"),
            "{} on {}: two runs with equal seeds differ",
            kind.label(),
            case.id
        );
    }
}
