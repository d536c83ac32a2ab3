#![warn(missing_docs)]

//! The 16 reproduced overload cases and the experiment harness.
//!
//! This crate is the reproduction's "evaluation section": it defines the
//! 16 real-world overload scenarios of Table 2 over the simulated
//! applications ([`cases`]), runs them under any of the compared
//! controllers with SLO calibration against a non-overloaded baseline
//! ([`runner`]), and regenerates every figure and table of the paper
//! ([`experiments`]).

pub mod cases;
pub mod chaos;
pub mod experiments;
pub mod runner;

pub use cases::{all_cases, CaseDef, CaseHints, CaseParams};
pub use chaos::{chaos_variants, ChaosVariant};
pub use runner::{
    calibrate, run_atropos, run_atropos_case, run_with, AtroposRun, Baseline, CaseResult,
    ControllerKind, RunConfig,
};
