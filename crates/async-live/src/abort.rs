//! The future-drop cancel initiator: task keys → [`AbortHandle`]s.
//!
//! This is the third initiator category from the paper's survey. The sim
//! substrate unwinds requests in virtual time, the thread shell raises a
//! cooperative `CancelToken` that the task must poll — here cancellation
//! is **detachment**: the initiator aborts the executor task and the
//! framework never hears from it again. The key→handle map and its
//! delivery accounting are the serving core's [`Registry`]; this file only
//! says what a signal is.
//!
//! `AtroposRuntime::tick` invokes cancel initiators while holding its
//! internal decision lock. [`AbortHandle::abort`] is safe to call there
//! because it only flags the slot and requeues — the future drop (whose
//! destructors re-enter the port via `free`/`free_cancel`) always happens
//! on an executor worker. See the executor module docs.

use atropos_live::{Registry, Signal};

use crate::executor::AbortHandle;

impl Signal for AbortHandle {
    /// Detaches the task. Only the first abort of a live task is a
    /// delivery: a task that already finished, or was already aborted, is
    /// a miss — the same race the thread registry tolerates between KILL
    /// and session end.
    fn signal(&self) -> bool {
        self.abort()
    }
}

/// Maps application task keys to the [`AbortHandle`] of the executor task
/// serving them. Register the handle *before* launching the future (the
/// executor's reserve/launch split exists so this cannot race with a fast
/// completion).
pub type AbortRegistry = Registry<AbortHandle>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use atropos::TaskKey;
    use atropos_substrate::RuntimePort;
    use std::sync::Arc;

    #[test]
    fn cancel_aborts_registered_task() {
        let ex = Executor::inline();
        let reg = Arc::new(AbortRegistry::new());
        let handle = ex.reserve();
        reg.register(7, handle.clone());
        ex.launch(&handle, std::future::pending());
        assert!(ex.poll_one()); // park the task
        assert!(reg.cancel(7, 123));
        assert!(ex.poll_one()); // worker performs the drop
        assert_eq!(ex.live_tasks(), 0);
        assert_eq!(reg.delivered(), 1);
        assert_eq!(reg.first_delivery_ns(), Some(123));
        assert!(!reg.cancel(7, 456), "a second abort is not a delivery");
        assert_eq!((reg.delivered(), reg.misses()), (1, 1));
    }

    #[test]
    fn cancel_after_completion_is_a_miss() {
        let ex = Executor::inline();
        let reg = Arc::new(AbortRegistry::new());
        let handle = ex.reserve();
        reg.register(1, handle.clone());
        ex.launch(&handle, async {});
        assert!(ex.poll_one()); // completes
        assert!(!reg.cancel(1, 10), "the handle outlived its task");
        assert_eq!(reg.delivered(), 0);
        assert_eq!(reg.misses(), 1);
    }

    #[test]
    fn initiator_routes_runtime_cancellations_to_abort() {
        use atropos::{AtroposConfig, AtroposRuntime};
        use atropos_sim::SystemClock;

        let rt = Arc::new(AtroposRuntime::new(
            AtroposConfig::default(),
            Arc::new(SystemClock::new()),
        ));
        let port: Arc<dyn RuntimePort> = rt.clone();
        let reg = Arc::new(AbortRegistry::new());
        reg.install_port(&port);

        let ex = Executor::inline();
        let handle = ex.reserve();
        reg.register(42, handle.clone());
        ex.launch(&handle, std::future::pending());
        assert!(ex.poll_one());
        let _task = port.create_cancel(Some(42));
        rt.cancel_key(TaskKey(42));
        assert_eq!(reg.delivered(), 1);
        assert!(ex.poll_one(), "abort requeued the task for dropping");
        assert_eq!(ex.live_tasks(), 0);
    }
}
