//! Request-cost workloads: what one healthy request costs the application
//! that hosts the runtime.
//!
//! Shared by the `tracing/steady_request/*` records (`benches/tracing.rs`)
//! and the lifecycle-scaling budget guard (`tests/lifecycle_scaling.rs`)
//! so both run the request `steady_emit` runs: `create_cancel`,
//! `unit_started`, eight `get`/`free` pairs over a LOCK, a MEMORY and a
//! QUEUE resource, `report_progress`, `unit_finished`, `free_cancel`.
//! Optionally `residents` tasks pin one MEMORY unit each and are parked
//! by a few ticks before anything is timed.

use std::sync::Arc;
use std::time::Instant;

use atropos::{AtroposConfig, AtroposRuntime, ResourceId, ResourceType};
use atropos_sim::Clock;

/// `get`/`free` pairs per request.
const PAIRS: usize = 8;

/// One runtime and its resources, ready to serve requests.
pub struct RequestLoad {
    rt: AtroposRuntime,
    rids: [ResourceId; 3],
}

impl RequestLoad {
    /// A runtime on `clock` with `residents` parked MEMORY holders.
    pub fn new(clock: Arc<dyn Clock>, residents: usize) -> Self {
        let rt = AtroposRuntime::new(AtroposConfig::default(), clock);
        rt.set_cancel_action(|_| {});
        let rids = [
            rt.register_resource("table_lock", ResourceType::Lock),
            rt.register_resource("buffer_pool", ResourceType::Memory),
            rt.register_resource("tickets", ResourceType::Queue),
        ];
        for i in 0..residents {
            let t = rt.create_cancel(Some(i as u64));
            rt.get_resource(t, rids[1], 1);
        }
        // The first roll publishes the acquire; the second parks.
        for _ in 0..3 {
            rt.tick();
        }
        RequestLoad { rt, rids }
    }

    /// Runs one request.
    #[inline]
    pub fn request(&self) {
        let t = self.rt.create_cancel(None);
        self.rt.unit_started(t);
        for i in 0..PAIRS {
            let rid = self.rids[i % 3];
            self.rt.get_resource(t, rid, 1);
            self.rt.free_resource(t, rid, 1);
        }
        self.rt.report_progress(t, 1, 1);
        self.rt.unit_finished(t);
        self.rt.free_cancel(t);
    }

    /// Mean wall time of `requests` back-to-back requests (ns).
    pub fn mean_request_ns(&self, requests: u32) -> f64 {
        let t0 = Instant::now();
        for _ in 0..requests {
            self.request();
        }
        t0.elapsed().as_nanos() as f64 / f64::from(requests)
    }

    /// The runtime under load.
    pub fn runtime(&self) -> &AtroposRuntime {
        &self.rt
    }
}
