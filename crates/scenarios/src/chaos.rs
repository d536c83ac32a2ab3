//! Chaos variants of the case studies.
//!
//! The chaos harness (`atropos-chaos`) stresses the runtime with injected
//! protocol faults and cross-checks the simulator against the live
//! harness. Both uses need the same thing from this crate: a *named
//! subset* of the Table 2 cases whose culprit has a live-harness analog,
//! with the culprit's workload classes identified so a decision trace
//! ("who was canceled, in what order") can be classified as
//! culprit-targeted or victim-harming.
//!
//! Three case families qualify:
//!
//! - **lock hog** — c1's backup-behind-scan convoy (a long scan holds the
//!   table locks; `ScenarioFamily::LockHog` in the live harness),
//! - **buffer scan** — c5's full-table dump sweeping the buffer pool
//!   (`ScenarioFamily::BufferScan` live, the paper's Figure 2 bug),
//! - **ticket queue** — the c2/c9 shape, scheduled slow queries draining
//!   the InnoDB concurrency tickets (`ScenarioFamily::TicketQueue` live).

use atropos_app::ids::ClassId;
use atropos_substrate::ScenarioFamily;

use crate::cases::{all_cases, chaos_ticket_queue_case, CaseDef};
use crate::runner::{calibrate, run_atropos_case, AtroposRun, ControllerKind, RunConfig};

/// One chaos-ready case: the base case plus culprit identity.
#[derive(Debug, Clone)]
pub struct ChaosVariant {
    /// The underlying Table 2 case.
    pub case: CaseDef,
    /// The scenario family whose culprit this case reproduces.
    pub culprit: ScenarioFamily,
    /// Workload classes that *are* the culprit: a correct decision trace
    /// cancels only these.
    pub culprit_classes: Vec<ClassId>,
}

impl ChaosVariant {
    /// True if `class` belongs to the culprit.
    pub fn is_culprit_class(&self, class: ClassId) -> bool {
        self.culprit_classes.contains(&class)
    }
}

/// The chaos-ready variants of the case suite.
pub fn chaos_variants() -> Vec<ChaosVariant> {
    let case = |id: &str| {
        all_cases()
            .into_iter()
            .find(|c| c.id == id)
            .unwrap_or_else(|| panic!("case {id} not defined"))
    };
    vec![
        ChaosVariant {
            case: case("c1"),
            culprit: ScenarioFamily::LockHog,
            // ClassId(2) = the 3 s table scan, ClassId(3) = the backup it
            // convoys; both are the disturbance, neither is a victim.
            culprit_classes: vec![ClassId(2), ClassId(3)],
        },
        ChaosVariant {
            case: case("c5"),
            culprit: ScenarioFamily::BufferScan,
            // ClassId(2) = the full-table dump sweeping the buffer pool.
            culprit_classes: vec![ClassId(2)],
        },
        ChaosVariant {
            case: chaos_ticket_queue_case(),
            culprit: ScenarioFamily::TicketQueue,
            // ClassId(2) = the scheduled slow query pinning a ticket.
            culprit_classes: vec![ClassId(2)],
        },
    ]
}

/// The variant reproducing a scenario family.
pub fn variant_for(family: ScenarioFamily) -> ChaosVariant {
    chaos_variants()
        .into_iter()
        .find(|v| v.culprit == family)
        .expect("every scenario family has a variant")
}

/// Runs a chaos variant under Atropos at `rc`, calibrating it first.
/// The decision trace is `metrics.cancel_log` of the returned run; the
/// disturbance begins at `rc.case_params().disturb_at`.
pub fn run_variant(variant: &ChaosVariant, rc: &RunConfig) -> AtroposRun {
    let baseline = calibrate(&variant.case, rc);
    run_atropos_case(&variant.case, ControllerKind::Atropos, rc, &baseline, false).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_cover_every_culprit_kind() {
        let vs = chaos_variants();
        assert_eq!(vs.len(), 3);
        assert!(vs.iter().any(|v| v.culprit == ScenarioFamily::LockHog));
        assert!(vs.iter().any(|v| v.culprit == ScenarioFamily::BufferScan));
        assert!(vs.iter().any(|v| v.culprit == ScenarioFamily::TicketQueue));
        let hog = variant_for(ScenarioFamily::LockHog);
        assert_eq!(hog.case.id, "c1");
        assert!(hog.is_culprit_class(ClassId(2)));
        assert!(!hog.is_culprit_class(ClassId(0)));
        let tq = variant_for(ScenarioFamily::TicketQueue);
        assert_eq!(tq.case.id, "c2tq");
        assert!(tq.is_culprit_class(ClassId(2)));
    }
}
