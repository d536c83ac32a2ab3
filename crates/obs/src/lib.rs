#![warn(missing_docs)]

//! # atropos-obs: decision-trace observability for Atropos
//!
//! Atropos's value is *explainable* cancellation: which task was blamed,
//! on which resource, and why, at the moment of cancellation. This crate
//! turns the runtime's [`DecisionEvent`](atropos::DecisionEvent) stream
//! (emitted through the zero-cost [`Recorder`](atropos::Recorder) hook)
//! into three consumable forms:
//!
//! - [`FlightRecorder`] — a bounded, never-blocking ring buffer of raw
//!   events, drained after the fact;
//! - [`MetricsRegistry`] — always-on relaxed-atomic counters, gauges and
//!   histograms with [`MetricsSnapshot::prometheus_text`] / JSON export;
//! - [`fold_episodes`] — the explainer that folds events into
//!   human-readable [`DecisionEpisode`]s (culprit key, blamed resource,
//!   per-term score breakdown, victims, outcome).
//!
//! [`Observer`] bundles the ring and the registry behind one hook:
//!
//! ```
//! use std::sync::Arc;
//! use atropos::{AtroposConfig, AtroposRuntime};
//! use atropos_obs::{Observer, ResourceNames};
//! use atropos_sim::VirtualClock;
//!
//! let rt = AtroposRuntime::new(AtroposConfig::default(), Arc::new(VirtualClock::new()));
//! let obs = Observer::install(&rt, 4096);
//! // ... drive the workload, tick the runtime ...
//! let metrics = obs.metrics();
//! let names = ResourceNames::from_snapshot(&rt.debug_snapshot());
//! for episode in obs.drain_episodes(&names) {
//!     println!("{episode}");
//! }
//! ```

pub mod explain;
pub mod observer;
pub mod registry;
pub mod ring;

pub use explain::{
    fold_episodes, render_episodes, DecisionEpisode, EpisodeCandidate, EpisodeTerm, ResourceNames,
};
pub use observer::Observer;
pub use registry::{
    MetricsRegistry, MetricsSnapshot, ResourceOccupancy, TickPhaseNs, MAX_RESOURCES, TTC_BUCKETS,
};
pub use ring::{FlightRecorder, DEFAULT_RING_CAPACITY};
