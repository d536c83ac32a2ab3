//! `atropos-workload` — declarative workload descriptors.
//!
//! Before this crate, the repository's overload workloads were hand-coded
//! four separate times: the 16 Table 2 cases in `scenarios::cases`, the
//! pinned `ScenarioDescriptor` literals in the chaos differential, the
//! `live`/`async-live` harness configs, and the `fed` topologies. A
//! geometry tweak in one place could silently desynchronize the others —
//! exactly the class of bug the sim↔live differential exists to catch,
//! except the bug would be in the *inputs*.
//!
//! This crate replaces all of that with one declarative layer:
//!
//! - [`toml`] — a dependency-free parser for the TOML subset the
//!   descriptor files use (the environment vendors no external crates);
//! - [`descriptor`](mod@descriptor) — the typed schema ([`WorkloadDescriptor`]) with
//!   strict validation: unknown keys, missing stanzas and bad ramps are
//!   rejected with the offending line and field;
//! - [`corpus`] — the checked-in descriptor files, embedded and parsed
//!   once, that every substrate resolves its workloads from.
//!
//! The descriptor format follows the IC scalability-suite shape: a
//! `[case]` stanza declares a request-class mix plus culprit-injection
//! schedules, a `[scenario]` stanza declares wall-clock geometry, and a
//! `[ramp]` stanza (`initial_rps`/`increment_rps`/`max_rps`) declares the
//! offered-load sweep the `capacity` binary executes (DESIGN.md §17).

pub mod corpus;
pub mod descriptor;
pub mod toml;

pub use corpus::{
    all_case_descriptors, all_descriptors, capacity_descriptor, chaos_ticket_queue, descriptor,
    family_descriptor, fed_live_spec, fed_topology, CORPUS,
};
pub use descriptor::{
    class_signature, AppKind, BackgroundDecl, CaseDescriptor, ClassDecl, ClassParams, FedLiveSpec,
    FedTopology, InjectDecl, RampSpec, SloSpec, SubstrateSel, WorkloadDescriptor,
};
pub use toml::ParseError;
