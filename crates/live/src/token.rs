//! Cancellation delivery: cooperative tokens, and the key→handle registry
//! every wall-clock shell installs as the runtime's cancel initiator.
//!
//! In `appsim` the glue controller cancels a request by scheduling a
//! virtual-time event that unwinds it at its next checkpoint. In a real
//! process nothing can unwind a thread safely from the outside (the whole
//! point of §2.4/§3.6): the application registers an initiator that only
//! *signals*. [`Registry`] is that initiator for any handle that can be
//! signalled — the MySQL `sql_kill` pattern with a `KILL` flag per
//! session. What a signal *is* stays with the shell ([`Signal`]): the
//! thread shell raises a [`CancelToken`] its task observes at its own safe
//! checkpoints; the async shell aborts an executor handle and the future
//! is dropped.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use atropos::TaskKey;
use atropos_sim::Clock;
use atropos_substrate::{CancelInitiator, RuntimePort};
use parking_lot::Mutex;

use crate::server::{Request, RequestClass};

/// A shared cancellation flag, checked by the owning task at checkpoints.
///
/// Cloning shares the flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates an un-canceled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the cancellation signal. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// True once [`CancelToken::cancel`] has been called. This is the
    /// checkpoint test: long-running operations call it between units of
    /// work and unwind cleanly when it turns true.
    pub fn is_canceled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// How a cancellation reaches one registered task.
pub trait Signal: Clone + Send + Sync + 'static {
    /// Delivers the cancellation; returns whether it reached a live task.
    /// Called by a cancel initiator, i.e. possibly under runtime-internal
    /// locks: it may flag and requeue, never unwind the task inline.
    fn signal(&self) -> bool;
}

impl Signal for CancelToken {
    fn signal(&self) -> bool {
        self.cancel();
        true
    }
}

/// Maps application task keys to the handle that cancels the task serving
/// them, with the delivery accounting every shell reports.
///
/// One registry per served application. A request is registered under its
/// task key for the duration of its scope; [`Registry::install_port`] makes
/// Atropos cancellations reach the right handle.
pub struct Registry<H> {
    handles: Mutex<HashMap<u64, H>>,
    /// Cancellations that reached a live task.
    delivered: AtomicU64,
    /// Cancellations whose key had no live task (already finished, never
    /// registered, or signalled twice): counted, not an error — the same
    /// race exists in MySQL between `KILL` and the session ending.
    misses: AtomicU64,
    /// Runtime-clock stamp (ns) of the first delivered cancellation;
    /// 0 = none yet.
    first_delivery_ns: AtomicU64,
}

/// The thread shell's registry: a `KILL` flag per culprit session.
pub type CancelRegistry = Registry<CancelToken>;

impl CancelRegistry {
    /// Who is cancellable, thread-shell style: a culprit — the one class
    /// whose handler has checkpoints — gets a token registered under its
    /// key; a victim gets none. The caller unregisters the key when the
    /// request's scope ends.
    pub fn token_for(&self, req: &Request) -> Option<CancelToken> {
        matches!(req.class, RequestClass::Culprit(_)).then(|| {
            let token = CancelToken::new();
            self.register(req.key, token.clone());
            token
        })
    }
}

impl<H: Signal> Registry<H> {
    /// Creates an empty registry.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Self {
            handles: Mutex::new(HashMap::new()),
            delivered: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            first_delivery_ns: AtomicU64::new(0),
        }
    }

    /// Registers the handle serving `key`. Call *before* the task can run,
    /// so a cancellation cannot race past a fast task.
    pub fn register(&self, key: u64, handle: H) {
        self.handles.lock().insert(key, handle);
    }

    /// Forgets the handle for `key` (call when the task's scope ends).
    pub fn unregister(&self, key: u64) {
        self.handles.lock().remove(&key);
    }

    /// Signals the handle registered under `key`, if any. Returns whether
    /// a live task was reached. The handle is cloned out of the registry
    /// lock first: a signal may take its executor's lock, and nesting it
    /// here would order registry → executor against unrelated callers.
    pub fn cancel(&self, key: u64, now_ns: u64) -> bool {
        let handle = self.handles.lock().get(&key).cloned();
        let reached = handle.is_some_and(|h| h.signal());
        if reached {
            self.delivered.fetch_add(1, Ordering::Relaxed);
            let _ = self.first_delivery_ns.compare_exchange(
                0,
                now_ns.max(1),
                Ordering::AcqRel,
                Ordering::Acquire,
            );
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        reached
    }

    /// Installs this registry as the cancel initiator *through a port*,
    /// so middleware stacked over the runtime can interpose on deliveries
    /// (the chaos `FailCancel`/`DelayCancel` faults). Deliveries are
    /// stamped with the port's clock.
    pub fn install_port(self: &Arc<Self>, port: &Arc<dyn RuntimePort>) {
        port.install_initiator(Arc::new(RegistryInitiator {
            registry: self.clone(),
            clock: port.clock(),
        }));
    }

    /// Cancellations that reached a live task.
    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }

    /// Cancellations that found no live task.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Runtime-clock stamp of the first delivered cancellation, if any.
    pub fn first_delivery_ns(&self) -> Option<u64> {
        match self.first_delivery_ns.load(Ordering::Acquire) {
            0 => None,
            ns => Some(ns),
        }
    }

    /// Number of currently registered handles.
    pub fn len(&self) -> usize {
        self.handles.lock().len()
    }

    /// True if no handles are registered.
    pub fn is_empty(&self) -> bool {
        self.handles.lock().is_empty()
    }
}

/// The registry wearing the [`CancelInitiator`] hat: the cancel leg
/// signals the matching handle; the re-execution and drop legs are no-ops
/// (a live request that was unwound is simply gone — the generator offers
/// fresh load instead of replaying).
struct RegistryInitiator<H> {
    registry: Arc<Registry<H>>,
    clock: Arc<dyn Clock>,
}

impl<H: Signal> CancelInitiator for RegistryInitiator<H> {
    fn cancel(&self, key: TaskKey) {
        self.registry.cancel(key.0, self.clock.now_ns());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_roundtrip() {
        let t = CancelToken::new();
        assert!(!t.is_canceled());
        let t2 = t.clone();
        t.cancel();
        assert!(t2.is_canceled(), "clones share the flag");
    }

    #[test]
    fn registry_delivers_to_registered_key() {
        let r = CancelRegistry::new();
        let t = CancelToken::new();
        r.register(7, t.clone());
        assert!(r.cancel(7, 123));
        assert!(t.is_canceled());
        assert_eq!(r.delivered(), 1);
        assert_eq!(r.first_delivery_ns(), Some(123));
    }

    #[test]
    fn registry_counts_misses() {
        let r = CancelRegistry::new();
        assert!(!r.cancel(9, 5));
        assert_eq!(r.misses(), 1);
        assert_eq!(r.first_delivery_ns(), None);
    }

    #[test]
    fn unregister_forgets_token() {
        let r = CancelRegistry::new();
        r.register(1, CancelToken::new());
        assert_eq!(r.len(), 1);
        r.unregister(1);
        assert!(r.is_empty());
        assert!(!r.cancel(1, 10));
    }

    #[test]
    fn install_port_routes_runtime_cancellations() {
        use atropos::{AtroposConfig, AtroposRuntime};
        use atropos_sim::SystemClock;

        let rt = Arc::new(AtroposRuntime::new(
            AtroposConfig::default(),
            Arc::new(SystemClock::new()),
        ));
        let port: Arc<dyn RuntimePort> = rt.clone();
        let registry = Arc::new(CancelRegistry::new());
        registry.install_port(&port);
        let token = CancelToken::new();
        registry.register(7, token.clone());
        let _task = port.create_cancel(Some(7));
        // Drive a cancellation through the runtime's manager (the manual
        // KILL path); the detector-driven path is covered by the harness
        // end-to-end test.
        rt.cancel_key(TaskKey(7));
        assert!(token.is_canceled());
        assert_eq!(registry.delivered(), 1);
    }
}
