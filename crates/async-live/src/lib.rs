//! # atropos-async — an async serving substrate with future-drop cancellation
//!
//! The workspace's third substrate behind `RuntimePort`, and the one that
//! completes the paper's portability argument. The simulator cancels
//! requests in virtual time; the thread substrate raises a cooperative
//! `CancelToken` that culprits must poll; this crate cancels by
//! **dropping the future**. The paper's initiator survey spans exactly
//! these categories — cooperative flags, KILL-style operators, abort
//! handles — and the framework is supposed to be indifferent to which one
//! the application wires in. Here the same requests run as queued
//! continuations (DAGOR-style) instead of on parked threads, and the
//! runtime never notices: same port, same protocol, same decisions.
//!
//! The request script, the traced resources, the registry, the generator
//! and the run sequence are the serving core's (`atropos-live`); this
//! crate is the *async shell* around them — how a request waits and how a
//! cancellation is delivered:
//!
//! - [`executor`]: a hand-rolled, dependency-free executor on `std::task`
//!   whose [`AbortHandle`]s *detach* a task (the future is dropped by a
//!   worker, never by the initiator: the runtime invokes initiators under
//!   its own locks), and [`timer`], a deadline-heap thread of `Sleep`
//!   futures — the only code here without a counterpart in the core,
//! - [`abort`]: what signalling a handle means for the core's registry,
//! - [`server`]: [`TaskPool`], a bounded pool launching the core's `serve`
//!   script as futures, and [`PoolShell`], what this shell gives the
//!   script: a timer park for a wait, and no stop signal at all,
//! - [`harness`]: [`AsyncServer`], the pool as the core's `Serving`, and
//!   [`run`], surface-compatible with `atropos_live::run` so differentials
//!   pin one [`LiveConfig`] across substrates.
//!
//! [`LiveConfig`]: atropos_live::LiveConfig

#![warn(missing_docs)]

pub mod abort;
pub mod executor;
pub mod harness;
pub mod server;
pub mod timer;

pub use abort::AbortRegistry;
pub use executor::{yield_now, AbortHandle, Executor, YieldNow};
pub use harness::{run, AsyncServer};
pub use server::{AsyncServerCtx, PoolShell, TaskPool};
pub use timer::{Sleep, Timer};
