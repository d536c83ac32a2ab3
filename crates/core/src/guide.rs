//! # Integration guide
//!
//! How to wire Atropos into an application, following the same steps the
//! paper's authors used for MySQL (Figures 7 and 8). Everything here is
//! executable documentation — the examples compile and run as doctests.
//!
//! ## 1. Decide what a "cancellable task" is (§3.1)
//!
//! A cancellable task is the unit the framework may cancel. It can be one
//! request, one user connection (the MySQL integration groups all queries
//! of a connection under the connection's thread id), or a background job
//! like purge or vacuum. Pick the granularity at which your cancellation
//! initiator operates: if your kill switch takes a connection id, tasks
//! are connections.
//!
//! ## 2. Register the cancellation initiator (§3.6)
//!
//! The initiator is the application's own safe-cancel entry point —
//! `sql_kill`, `pg_cancel_backend`, a task-manager API. Atropos calls it
//! with the task's key; the application sets its cancel flag and the
//! request unwinds at its next safe checkpoint, releasing what it holds.
//!
//! ```
//! use std::sync::Arc;
//! use atropos::{AtroposConfig, AtroposRuntime};
//! use atropos_sim::SystemClock;
//!
//! let rt = AtroposRuntime::new(AtroposConfig::default(), Arc::new(SystemClock::new()));
//! rt.set_cancel_action(|key| {
//!     // e.g. sessions.lock().get(&key.0).map(Session::request_kill);
//!     let _ = key;
//! });
//! ```
//!
//! Applications without any initiator can opt into the coarse thread-level
//! fallback by registering it
//! ([`crate::AtroposRuntime::set_thread_cancel_action`]); there is no
//! other switch. Nothing registers it by default, because terminating a
//! thread mid-critical-section is unsafe unless the developers
//! established otherwise (the paper's Apache/PHP case, §5.2). An
//! application initiator, when registered, always wins over it.
//!
//! ## 3. Register application resources (§3.2)
//!
//! One registration per *logical* resource, not per instance: the paper
//! traces MySQL's five table locks as one table-lock resource. Choose the
//! type by how the resource is consumed:
//!
//! | Type | get | free | slow_by |
//! |---|---|---|---|
//! | `Lock` | acquired | released | began waiting |
//! | `Queue` | dequeued / got a slot | finished / left | enqueued |
//! | `Memory` | acquired N units (pages/bytes) | released N units | caused N evictions (stall begins) |
//! | `System` | got the device/core | yielded it | began waiting |
//!
//! The memory protocol mirrors Figure 8 exactly: `get_resource` where
//! `buf_page_get_gen` returns a page, `slow_by_resource` right after
//! `buf_LRU_scan_and_free_block` evicts, `free_resource` where pages are
//! released. Because a memory stall is bracketed `slow_by → get`, the
//! framework measures the eviction delay without extra instrumentation.
//!
//! ## 4. Report work units and progress (§3.3, §3.4)
//!
//! `unit_started`/`unit_finished` bracket each client-visible request;
//! they feed the overload detector's throughput/latency windows. If your
//! requests have quantifiable progress (rows examined vs. the optimizer's
//! estimate — the GetNext model), report it so the policy prefers hogs
//! with demand still ahead of them over hogs that are nearly done:
//!
//! ```
//! # use std::sync::Arc;
//! # use atropos::{AtroposConfig, AtroposRuntime, ResourceType};
//! # use atropos_sim::SystemClock;
//! # let rt = AtroposRuntime::new(AtroposConfig::default(), Arc::new(SystemClock::new()));
//! # let pool = rt.register_resource("buffer_pool", ResourceType::Memory);
//! let task = rt.create_cancel(Some(42)); // connection/thread id as key
//! rt.unit_started(task);
//! rt.get_resource(task, pool, 128);
//! rt.report_progress(task, 10_000, 1_000_000); // rows_examined / estimate
//! rt.unit_finished(task);
//! rt.free_cancel(task);
//! ```
//!
//! Tasks that never report progress are scored at
//! [`crate::progress::DEFAULT_PROGRESS`] (0.5: gain equals current usage);
//! reported progress is floored at [`crate::progress::PROGRESS_FLOOR`].
//!
//! ## 5. Drive the control loop
//!
//! Call [`crate::AtroposRuntime::tick`] periodically — a control thread
//! at the detector window period (10 ms by default) is typical. Each tick
//! closes the accounting window, evaluates the overload condition,
//! verifies against per-resource contention, and may invoke the
//! initiator. Everything the tick decided is returned as a
//! [`crate::runtime::TickOutcome`] for logging.
//!
//! ## 6. Tuning knobs that matter
//!
//! Only what deployments set differently is a knob. The paper's design
//! constants are constants: the p99 quantile
//! ([`crate::detect::LATENCY_QUANTILE`]), the flat-throughput and collapse
//! tests ([`crate::detect::THROUGHPUT_FLAT_EPSILON`],
//! [`crate::detect::THROUGHPUT_DROP_FRAC`]), the 1 ms stamp sampling
//! interval ([`crate::trace::SAMPLE_INTERVAL_NS`]) and the §4
//! re-execution timings of the next section.
//!
//! - [`crate::DetectorConfig::slo_latency_ns`] — the whole system is
//!   driven by this bound; set it from your latency SLO.
//! - [`crate::AtroposConfig::cancel_min_interval_ns`] — the
//!   aggressiveness/recovery trade-off of §5.3: shorter intervals chase
//!   storms of noisy tasks faster but can over-cancel.
//! - [`crate::DetectorConfig::min_contention`] — how contended a resource
//!   must be before a latency violation is blamed on it rather than on
//!   plain demand overload (which is delegated to
//!   [`crate::AtroposRuntime::set_regular_overload_action`]).
//!
//! ## 7. Fairness guarantees you get for free (§4)
//!
//! Each task is canceled at most once; a canceled task is re-executed
//! once resources have stayed available for
//! [`crate::cancel::REEXEC_QUIET_WINDOWS`] windows (re-executions are
//! serialized and the revived task is non-cancellable), or dropped if
//! [`crate::cancel::REEXEC_DEADLINE_NS`] passes first; background tasks
//! are never dropped, only delayed up to
//! [`crate::cancel::BACKGROUND_MAX_WAIT_NS`].
