#![warn(missing_docs)]

//! Multi-runtime federation: Atropos across a service graph.
//!
//! The paper treats one application as one runtime; §4 sketches the
//! distributed extension: when a request fans out over RPC, the callee's
//! detector should blame the *originating* end-to-end request, not an
//! anonymous local task, and the cancellation should travel back upstream
//! to the root instead of shedding innocent local load. This crate builds
//! that extension out of pieces the workspace already has:
//!
//! - several [`atropos::AtroposRuntime`] instances composed as tiers of a
//!   service graph on one clock, each a chaos
//!   [`ScriptNode`](atropos_chaos::script::ScriptNode): runtime, flight
//!   recorder and its own [`FaultInjector`](atropos_chaos::FaultInjector),
//! - the substrate's [`FedEdge`](atropos_substrate::FedEdge) port
//!   middleware on every callee, piggybacking the caller's
//!   [`EdgeIdentity`](atropos_substrate::EdgeIdentity) (root key + hop
//!   path) on each request the way DAGOR piggybacks priority,
//! - [`edge_chaos`]: seeded partition / delay / reorder faults on the
//!   *upstream cancel leg* of an edge — the federation-specific fault
//!   surface the single-node chaos plans cannot express,
//! - [`scenario`]: two topologies over the chaos crate's convoy
//!   [script](atropos_chaos::script) — the cascade (a backend culprit
//!   convoys a shared shard; victims fan in from the frontend) with
//!   invariants I1–I8 checked per node per tick and the cross-edge
//!   blame-conservation invariant I9 checked per tick across edges, and
//!   the degenerate self-edge,
//! - [`live`]: a two-tier wall-clock harness where real worker threads
//!   RPC through an edge into a backend runtime, with a NoControl
//!   baseline and a DAGOR-style per-node admission baseline that sheds
//!   victims because it cannot see the culprit. It is the serving core of
//!   `atropos-live` (request vocabulary, work queue, open-loop generator,
//!   token registry, `Gate`, RAII `TaskScope`) around the only parts that
//!   are federated: the edge RPC body, the DAGOR door, the report.
//!
//! The headline property, asserted end to end by the test suite: under a
//! backend culprit, the federation cancels the *remote root* — and only
//! the remote root — while a per-node admission baseline sheds innocent
//! upstream victims.

pub mod edge_chaos;
pub mod live;
pub mod scenario;

/// Root key of the culprit on the frontend.
pub use atropos_chaos::HOG_KEY as ROOT_HOG_KEY;
pub use edge_chaos::{EdgeFaultPlan, EdgeFaultSink};
pub use live::{run_fed_live, FedLiveConfig, FedLiveReport, FedMode};
pub use scenario::{run_fed_degenerate, run_fed_scenario, FedOutcome, FedScenarioKind};
