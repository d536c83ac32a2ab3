//! Golden regression suite over the scripted convoy runs: the chaos
//! scenario of every [`ScenarioFamily`] and the degenerate one-node
//! federation.
//!
//! Each family runs quiet at the two pinned seeds and once under an armed
//! [`FaultPlan::sample`] plan; each run is reduced to what its decisions
//! were — the keys the runtime issued, the keys the initiator delivered,
//! the tick and candidate counts, and the resources the decision episodes
//! blamed. The degenerate federation (the RPC edge looped back onto its
//! own runtime) is pinned at the twelve seeds of the fed differential by
//! its delivered keys and the root it blamed. Everything is compared
//! against the checked-in `tests/golden/script.json`.
//!
//! To regenerate after an intentional detector/policy/script change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -q -p atropos-scenarios --test golden_script
//! ```

use std::path::PathBuf;

use atropos_chaos::{run_scenario, FaultPlan};
use atropos_fed::run_fed_degenerate;
use atropos_substrate::ScenarioFamily;
use serde::{Deserialize, Serialize};

/// Same pinned seeds as the single-node golden suite.
const QUIET_SEEDS: [u64; 2] = [7, 20250806];
/// The armed plan's seed (`FaultPlan::sample`).
const ARMED_SEED: u64 = 7;
/// The seeds of the fed-vs-single-runtime differential.
const DEGENERATE_SEEDS: [u64; 12] = [1, 2, 3, 5, 7, 11, 13, 42, 99, 1234, 20_250_806, 0xA7F0];

/// One chaos run's fingerprint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ScenarioEntry {
    family: String,
    seed: u64,
    armed: bool,
    canceled_keys: Vec<u64>,
    issued_keys: Vec<u64>,
    ticks: u64,
    candidates: u64,
    /// Resources episodes assigned blame on (sorted, deduped).
    blamed_resources: Vec<String>,
}

/// One degenerate-federation run's fingerprint (load 2, quiet).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct DegenerateEntry {
    seed: u64,
    canceled_keys: Vec<u64>,
    culprit_root: Option<u64>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Golden {
    scenarios: Vec<ScenarioEntry>,
    degenerate: Vec<DegenerateEntry>,
}

fn scenario_entry(family: ScenarioFamily, seed: u64, armed: bool) -> ScenarioEntry {
    let plan = if armed {
        FaultPlan::sample(seed)
    } else {
        FaultPlan::quiet(seed)
    };
    let out = run_scenario(family, &plan, 1);
    assert!(
        out.violation.is_none(),
        "{} seed {seed} armed={armed}: {:?}",
        family.name(),
        out.violation
    );
    let mut blamed: Vec<String> = out
        .episodes
        .iter()
        .filter(|e| e.culprit_key.is_some() && !e.resource.is_empty())
        .map(|e| e.resource.clone())
        .collect();
    blamed.sort();
    blamed.dedup();
    ScenarioEntry {
        family: family.name().to_string(),
        seed,
        armed,
        canceled_keys: out.canceled_keys,
        issued_keys: out.issued_keys,
        ticks: out.ticks,
        candidates: out.candidates,
        blamed_resources: blamed,
    }
}

fn actual() -> Golden {
    let mut scenarios = Vec::new();
    for family in ScenarioFamily::ALL {
        for seed in QUIET_SEEDS {
            scenarios.push(scenario_entry(family, seed, false));
        }
        scenarios.push(scenario_entry(family, ARMED_SEED, true));
    }
    let degenerate = DEGENERATE_SEEDS
        .iter()
        .map(|&seed| {
            let out = run_fed_degenerate(seed, 2);
            assert!(
                out.violation.is_none(),
                "degenerate seed {seed}: {:?}",
                out.violation
            );
            DegenerateEntry {
                seed,
                canceled_keys: out.canceled_keys,
                culprit_root: out.culprit_root,
            }
        })
        .collect();
    Golden {
        scenarios,
        degenerate,
    }
}

#[test]
fn golden_scripted_convoy_runs() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/script.json");
    let actual = actual();
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, serde_json::to_string_pretty(&actual).unwrap()).unwrap();
        return;
    }
    let raw = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "no golden snapshot at {} (run with UPDATE_GOLDEN=1 to create)",
            path.display()
        )
    });
    let expected: Golden = serde_json::from_str(&raw).expect("bad golden JSON");
    for (e, a) in expected.scenarios.iter().zip(&actual.scenarios) {
        assert_eq!(e, a, "scripted run diverged from the golden snapshot");
    }
    for (e, a) in expected.degenerate.iter().zip(&actual.degenerate) {
        assert_eq!(
            e, a,
            "degenerate federation diverged from the golden snapshot"
        );
    }
    assert_eq!(expected, actual, "golden snapshot has a different shape");
}
