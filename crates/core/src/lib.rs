#![warn(missing_docs)]

//! # Atropos: targeted task cancellation for application resource overload
//!
//! This crate is a from-scratch Rust implementation of **Atropos** (Hu et
//! al., *Mitigating Application Resource Overload with Targeted Task
//! Cancellation*, SOSP 2025): an overload-control framework that, when an
//! application resource (a buffer pool, a table lock, a worker queue)
//! becomes overloaded, identifies the *culprit* request monopolizing it and
//! cancels that request through the application's own safe cancellation
//! initiator — instead of dropping the many *victim* requests blocked
//! behind it.
//!
//! ## Architecture (paper §3, Figure 5)
//!
//! ```text
//!   application ──createCancel/freeCancel──▶ [task registry]
//!   application ──get/free/slowByResource──▶ [runtime manager] per-task usage
//!   application ──unit_started/finished────▶ [overload detector] SLO signal
//!                                              │ candidate overload
//!                                              ▼
//!                                           [estimator]  contention level C_r,
//!                                              │          resource gain G(t,r)
//!                                              ▼
//!                                           [policy]     non-dominated set +
//!                                              │          scalarization (Alg. 1)
//!                                              ▼
//!                                           [cancel mgr] initiator callback,
//!                                                        re-execution, fairness
//! ```
//!
//! The public API mirrors Figure 6 of the paper in idiomatic Rust:
//!
//! - [`AtroposRuntime::create_cancel`] / [`AtroposRuntime::free_cancel`]
//!   mark the scope of a cancellable task,
//! - [`AtroposRuntime::set_cancel_action`] registers the application's
//!   cancellation initiator (the analog of MySQL's `sql_kill`),
//! - [`AtroposRuntime::get_resource`], [`AtroposRuntime::free_resource`]
//!   and [`AtroposRuntime::slow_by_resource`] trace per-task application
//!   resource usage,
//! - [`AtroposRuntime::tick`] drives detection → estimation → policy →
//!   cancellation.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use atropos::{AtroposConfig, AtroposRuntime, ResourceType};
//! use atropos_sim::VirtualClock;
//!
//! let clock = Arc::new(VirtualClock::new());
//! let rt = AtroposRuntime::new(AtroposConfig::default(), clock.clone());
//! let pool = rt.register_resource("buffer_pool", ResourceType::Memory);
//!
//! // Integration: the cancel initiator the framework will invoke.
//! rt.set_cancel_action(|key| println!("cancel task with key {key:?}"));
//!
//! let task = rt.create_cancel(None);
//! rt.unit_started(task);
//! rt.get_resource(task, pool, 128);   // task acquired 128 pages
//! rt.slow_by_resource(task, pool, 16); // and caused 16 evictions
//! rt.unit_finished(task);
//! rt.free_cancel(task);
//! ```

pub mod accounting;
pub mod cancel;
pub mod config;
pub mod debug;
pub mod detect;
pub mod estimator;
pub mod guide;
pub mod ids;
pub mod lockfree;
pub mod phase;
pub mod policy;
pub mod progress;
pub mod record;
pub mod resource;
pub mod runtime;
pub mod task;
pub mod ticker;
pub mod trace;

pub use cancel::CancelDecision;
pub use config::{AtroposConfig, DetectorConfig, PolicyKind};
pub use debug::DebugSnapshot;
pub use detect::OverloadClass;
pub use estimator::{EstimatorSnapshot, ResourceSnapshot, TaskGainSnapshot};
pub use ids::{ResourceId, ResourceType, TaskId, TaskKey};
pub use record::{
    BackoffReason, CancelOrigin, DecisionEvent, GainTerm, Recorder, RecorderHandle, MAX_GAIN_TERMS,
};
pub use runtime::{AtroposRuntime, RuntimeStats, TickOutcome};
pub use ticker::Ticker;
pub use trace::TimestampMode;
