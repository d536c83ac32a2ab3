//! # atropos-live — the wall-clock serving harness for Atropos
//!
//! Everything else in this workspace exercises Atropos under the
//! deterministic simulator (`atropos-appsim` on a `VirtualClock`). This
//! crate closes the loop the paper closes with its MySQL/Postgres
//! integrations: it runs the *same* runtime against **real waiting, real
//! contention, and real cancellation** on the [`SystemClock`].
//!
//! It is one substrate-neutral serving core — each module's header says
//! what it holds: [`resources`] (the traced [`Gate`] and [`LruBuffer`]),
//! [`token`] (the cancel [`Registry`]), [`server`] (the request script and
//! its RAII [`TaskScope`]), [`workload`] (the open-loop generator),
//! [`harness`] (the one run sequence, [`run_on`]) — plus the thread shell.
//! An execution shell supplies only what is its own: how a request waits
//! and whether it was told to stop ([`Shell`]), and how a server starts,
//! drains and tears down ([`Serving`]). The thread shell is here
//! ([`block_on`] parks the worker, a culprit checkpoints its own
//! [`CancelToken`]); the async shell (executor wake, future drop) is
//! `atropos-async`, and `atropos-fed` builds its two-tier harness from the
//! same parts.
//!
//! The headline comparison — [`ControlMode::Atropos`] vs
//! [`ControlMode::NoControl`] on an identical workload — is what
//! `examples/live_overload.rs` prints and what the end-to-end test
//! asserts: with Atropos the culprit is canceled within a couple of
//! detector windows and victim p99 stays near baseline; without it the
//! convoy runs to completion.
//!
//! [`SystemClock`]: atropos_sim::SystemClock

#![warn(missing_docs)]

pub mod harness;
pub mod resources;
pub mod server;
pub mod token;
pub mod workload;

pub use harness::{
    live_atropos_config, run, run_on, ControlMode, LatencySummary, LiveConfig, LiveReport, Serving,
    ThreadServer,
};
pub use resources::{block_on, AccessStats, Acquire, Gate, LruBuffer, Permit};
pub use server::{
    CulpritKind, Request, RequestClass, ServerCore, ServerCtx, ServerMetrics, Shell, TaskScope,
    WorkQueue,
};
pub use token::{CancelRegistry, CancelToken, Registry, Signal};
pub use workload::{generate, CULPRIT_KEY_BASE};
