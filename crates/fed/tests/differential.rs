//! Differential pinning: a degenerate one-node federation must agree
//! with the plain single-runtime chaos scenario on *who the culprit is*.
//!
//! The degenerate topology collapses the service graph to a single
//! runtime whose edge loops back onto itself — every root key is
//! remapped into the FED namespace and every cancellation takes the full
//! identity round trip (encode → decode → blame table → upstream leg).
//! None of that machinery may change the policy's answer: the same
//! tie-heavy lock-hog workload on a bare runtime and on the looped-back
//! runtime must blame the same root. Seeds are tie-heavy (victims are
//! near-identical) precisely to catch ranking drift the happy path
//! would mask.
//!
//! On disagreement the dump is written to `$DIFFERENTIAL_OUT` (when set)
//! so CI can attach it as an artifact.

use std::io::Write as _;

use atropos_chaos::{run_scenario, FaultPlan, HOG_KEY};
use atropos_fed::{run_fed_degenerate, ROOT_HOG_KEY};
use atropos_substrate::ScenarioFamily;

const SEEDS: [u64; 12] = [1, 2, 3, 5, 7, 11, 13, 42, 99, 1234, 20_250_806, 0xA7F0];

#[test]
fn degenerate_fed_agrees_with_single_runtime_on_culprit_identity() {
    let mut report = String::new();
    let mut disagreements = 0usize;
    for seed in SEEDS {
        let single = run_scenario(ScenarioFamily::LockHog, &FaultPlan::quiet(seed), 2);
        assert!(
            single.violation.is_none(),
            "seed {seed}: single-runtime violation {:?}",
            single.violation
        );
        let fed = run_fed_degenerate(seed, 2);
        assert!(
            fed.violation.is_none(),
            "seed {seed}: degenerate-fed violation {:?}",
            fed.violation
        );

        let single_culprit = single.canceled_keys.first().copied();
        let fed_culprit = fed.culprit_root;
        if single_culprit != Some(HOG_KEY) || fed_culprit != Some(ROOT_HOG_KEY) {
            disagreements += 1;
            report.push_str(&format!(
                "seed {seed}: single blamed {single_culprit:?} (want {HOG_KEY}), \
                 fed blamed {fed_culprit:?} (want {ROOT_HOG_KEY})\n\
                 single canceled: {:?}\n  fed canceled: {:?}\n",
                single.canceled_keys, fed.canceled_keys
            ));
        }
    }
    if disagreements > 0 {
        if let Ok(dir) = std::env::var("DIFFERENTIAL_OUT") {
            let _ = std::fs::create_dir_all(&dir);
            let path = std::path::Path::new(&dir).join("fed_culprit_identity.txt");
            if let Ok(mut f) = std::fs::File::create(path) {
                let _ = f.write_all(report.as_bytes());
            }
        }
        panic!("{disagreements} differential disagreement(s):\n{report}");
    }
}

#[test]
fn degenerate_fed_cancels_exactly_once_per_root() {
    for seed in [1u64, 7, 42] {
        let fed = run_fed_degenerate(seed, 2);
        assert!(fed.violation.is_none(), "seed {seed}: {:?}", fed.violation);
        // The identity round trip must not duplicate deliveries: each
        // canceled root appears exactly once.
        let mut sorted = fed.canceled_keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            fed.canceled_keys.len(),
            "seed {seed}: duplicated deliveries {:?}",
            fed.canceled_keys
        );
    }
}
