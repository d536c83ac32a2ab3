//! The substrate port layer (DESIGN.md §12).
//!
//! Atropos's central claim is that the framework is application-agnostic:
//! it only ever sees `get`/`free`/`slowBy`/`progress` events and a cancel
//! initiator (PAPER §3.2, Figure 6b). This crate is that claim stated as
//! a type: [`RuntimePort`] is the *single* runtime-facing surface, and
//! every substrate — the discrete-event simulator (`atropos-app`), the
//! wall-clock serving harness (`atropos-live`), and any middleware wrapped
//! around either — speaks it.
//!
//! Three things live here and nowhere else:
//!
//! - the **protocol vocabulary** ([`TraceKind`], [`ResourceEvent`],
//!   [`Action`], and the application-side identifiers), previously
//!   duplicated between `appsim::controller` and ad-hoc call sites in
//!   `live::resources`;
//! - the **port** itself: [`RuntimePort`] (get/free/slow_by/progress/tick
//!   plus task scoping) and [`CancelInitiator`] (the Figure 7 callback,
//!   with re-execution and drop legs), with `AtroposRuntime` as the
//!   canonical implementation;
//! - the **scenario descriptors** ([`ScenarioFamily`],
//!   [`ScenarioDescriptor`]) that pin the shared geometry the sim↔live
//!   differential runs both substrates against.
//!
//! Because the port is object-safe, cross-cutting concerns compose as
//! decorators: the chaos `FaultInjector` implements `RuntimePort` over an
//! inner port, and [`ProbePort`] does the same for cheap call counting.
//! The documented stacking order is app → injector → probe/recorder →
//! runtime: faults corrupt what the runtime hears, observability counts
//! what survived.

pub mod fed;
pub mod ids;
pub mod port;
pub mod protocol;
pub mod scenario;

pub use fed::{EdgeIdentity, EdgeStats, FedEdge, FrameError, NodeId, FED_KEY_BASE, MAX_HOPS};
pub use ids::{ClassId, ClientId, LockId, PoolId, QueueId, RequestId};
pub use port::{CancelFn, CancelInitiator, DrainEveryEmit, ProbeCounts, ProbePort, RuntimePort};
pub use protocol::{Action, ResourceEvent, TraceKind};
pub use scenario::{ScenarioDescriptor, ScenarioFamily};
