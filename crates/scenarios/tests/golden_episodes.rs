//! Golden decision-trace regression suite over the 16 Table-2 cases.
//!
//! Each case runs under Atropos with the decision-trace observer at two
//! pinned seeds; the folded episodes and the application-side cancel log
//! are reduced to a stable fingerprint — *which op classes were blamed,
//! on which resources, and how many cancellations were issued* (bucketed,
//! so cosmetic timing shifts don't churn the snapshots) — and compared
//! against checked-in `tests/golden/<case>.json` files.
//!
//! To regenerate after an intentional detector/policy change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -q -p atropos-scenarios golden
//! ```

use std::path::PathBuf;

use atropos_scenarios::{
    all_cases, calibrate, run_atropos_case, runner::parallel_map, ControllerKind, RunConfig,
};
use serde::{Deserialize, Serialize};

/// The two pinned seeds the suite (and the CI `golden` job) runs on.
const SEEDS: [u64; 2] = [7, 20250806];

/// One seed's decision fingerprint for one case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenEntry {
    seed: u64,
    /// Distinct workload classes whose requests were canceled (sorted).
    culprit_classes: Vec<String>,
    /// Distinct resources episodes assigned blame on (sorted).
    blamed_resources: Vec<String>,
    /// Bucketed count of delivered cancellations: "0", "1", "2-3",
    /// "4-7", or "8+".
    cancel_bucket: String,
}

/// The checked-in snapshot for one case: one entry per pinned seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenCase {
    case: String,
    entries: Vec<GoldenEntry>,
}

fn bucket(n: usize) -> String {
    match n {
        0 => "0",
        1 => "1",
        2..=3 => "2-3",
        4..=7 => "4-7",
        _ => "8+",
    }
    .to_string()
}

fn sorted_dedup(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v.dedup();
    v
}

fn fingerprint(case_idx: usize, seed: u64) -> GoldenEntry {
    let case = &all_cases()[case_idx];
    let rc = RunConfig::quick(seed);
    let baseline = calibrate(case, &rc);
    let (_, run) = run_atropos_case(case, ControllerKind::Atropos, &rc, &baseline, true);
    let class_names: Vec<String> = case
        .build(&rc.case_params(), true)
        .workload
        .classes
        .into_iter()
        .map(|c| c.name)
        .collect();
    let cancel_log = &run.metrics.cancel_log;
    GoldenEntry {
        seed,
        culprit_classes: sorted_dedup(
            cancel_log
                .iter()
                .map(|r| class_names[r.class.0 as usize].clone())
                .collect(),
        ),
        blamed_resources: sorted_dedup(
            run.episodes()
                .into_iter()
                .filter(|e| e.culprit_key.is_some())
                .map(|e| e.resource)
                .collect(),
        ),
        cancel_bucket: bucket(cancel_log.len()),
    }
}

fn golden_path(case_id: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{case_id}.json"))
}

#[test]
fn golden_episodes_across_the_16_cases() {
    let cases = all_cases();
    assert_eq!(cases.len(), 16, "Table 2 has 16 cases");
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");

    // One work item per (case, seed); runs saturate the worker pool.
    let items: Vec<(usize, u64)> = (0..cases.len())
        .flat_map(|i| SEEDS.iter().map(move |&s| (i, s)))
        .collect();
    let entries = parallel_map(items, |(i, seed)| (i, fingerprint(i, seed)));

    let mut failures = Vec::new();
    for (idx, case) in cases.iter().enumerate() {
        let actual = GoldenCase {
            case: case.id.to_string(),
            entries: entries
                .iter()
                .filter(|(i, _)| *i == idx)
                .map(|(_, e)| e.clone())
                .collect(),
        };
        let path = golden_path(case.id);
        if update {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, serde_json::to_string_pretty(&actual).unwrap()).unwrap();
            continue;
        }
        let Ok(raw) = std::fs::read_to_string(&path) else {
            failures.push(format!(
                "{}: no golden snapshot at {} (run with UPDATE_GOLDEN=1 to create)",
                case.id,
                path.display()
            ));
            continue;
        };
        let expected: GoldenCase = serde_json::from_str(&raw)
            .unwrap_or_else(|e| panic!("{}: bad golden JSON: {e}", case.id));
        if expected != actual {
            let mut diff = format!(
                "{}: decision trace diverged from golden snapshot\n",
                case.id
            );
            for (exp, act) in expected.entries.iter().zip(actual.entries.iter()) {
                if exp != act {
                    diff.push_str(&format!(
                        "  seed {}:\n    expected: classes={:?} resources={:?} cancels={}\n    actual:   classes={:?} resources={:?} cancels={}\n",
                        exp.seed,
                        exp.culprit_classes,
                        exp.blamed_resources,
                        exp.cancel_bucket,
                        act.culprit_classes,
                        act.blamed_resources,
                        act.cancel_bucket,
                    ));
                }
            }
            diff.push_str("  (if intentional, regenerate with UPDATE_GOLDEN=1)");
            failures.push(diff);
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}
