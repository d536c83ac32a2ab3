//! Multi-threaded stress test for buffered trace ingestion.
//!
//! Eight producer threads hammer the tracing API on their own tasks while
//! a ticker drains concurrently and a churn thread creates and frees
//! tasks (so replay races against task removal). The accounting contract
//! under this contention is conservation: every emitted event is counted
//! exactly once — applied (`trace_events`) or ignored (unknown task or
//! resource at replay time, or shed by ring overflow while the state
//! lock was busy) — and no task record leaks.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use atropos::{AtroposConfig, AtroposRuntime, ResourceId, ResourceType};
use atropos_sim::SystemClock;

const PRODUCERS: u64 = 8;
const EVENTS_PER_PRODUCER: u64 = 10_000;
const CHURN_TASKS: u64 = 2_000;

#[test]
fn concurrent_producers_conserve_event_accounting() {
    let clock = Arc::new(SystemClock::new());
    let cfg = AtroposConfig {
        ingest_stripes: 4,
        // Far smaller than the event volume so overflow handling (the
        // mid-window flush and, when the ticker holds the state lock,
        // shedding the incoming record) is actually exercised.
        ingest_stripe_capacity: 128,
        ..AtroposConfig::default()
    };
    let rt = Arc::new(AtroposRuntime::new(cfg, clock));
    let pool = rt.register_resource("pool", ResourceType::Memory);
    let lock = rt.register_resource("lock", ResourceType::Lock);

    let emitted = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    // Ticker: drains concurrently with the producers, the way a real
    // integration's periodic driver would.
    let ticker = {
        let rt = rt.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut ticks = 0u64;
            while !stop.load(Ordering::Relaxed) {
                rt.tick();
                ticks += 1;
                std::thread::yield_now();
            }
            ticks
        })
    };

    // Churn: tasks created, traced once, and freed while producers and
    // ticker run — replay must tolerate records whose task is gone.
    let churner = {
        let rt = rt.clone();
        let emitted = emitted.clone();
        std::thread::spawn(move || {
            for _ in 0..CHURN_TASKS {
                let t = rt.create_cancel(None);
                rt.get_resource(t, pool, 1);
                emitted.fetch_add(1, Ordering::Relaxed);
                rt.free_cancel(t);
            }
        })
    };

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let rt = rt.clone();
            let emitted = emitted.clone();
            std::thread::spawn(move || {
                let task = rt.create_cancel(Some(p));
                rt.unit_started(task);
                for i in 0..EVENTS_PER_PRODUCER {
                    match i % 4 {
                        0 => rt.get_resource(task, pool, 1 + i % 7),
                        1 => rt.free_resource(task, pool, 1 + i % 7),
                        2 => rt.slow_by_resource(task, lock, 1),
                        // An unregistered resource: must be counted as
                        // ignored, never dropped on the floor.
                        _ => rt.get_resource(task, ResourceId(999), 1),
                    }
                    emitted.fetch_add(1, Ordering::Relaxed);
                }
                rt.unit_finished(task);
                rt.free_cancel(task);
            })
        })
        .collect();

    for h in producers {
        h.join().expect("producer panicked");
    }
    churner.join().expect("churner panicked");
    stop.store(true, Ordering::Relaxed);
    let ticks = ticker.join().expect("ticker panicked");
    assert!(ticks > 0);

    // stats() performs the final drain.
    let stats = rt.stats();
    let sent = emitted.load(Ordering::Relaxed);
    assert_eq!(sent, PRODUCERS * EVENTS_PER_PRODUCER + CHURN_TASKS);
    assert_eq!(
        stats.trace_events + stats.ignored_events,
        sent,
        "event accounting leaked: trace {} + ignored {} != sent {} \
         (mid-window flushes: {})",
        stats.trace_events,
        stats.ignored_events,
        sent,
        stats.mid_window_flushes
    );
    // At least the quarter aimed at the unregistered resource is ignored.
    assert!(stats.ignored_events >= PRODUCERS * EVENTS_PER_PRODUCER / 4);
    // Most of the valid traffic actually landed in the accounting: the
    // buffers are small, but every full ring either flushes inline or
    // sheds only the record that did not fit.
    assert!(
        stats.trace_events > 0,
        "no events survived to the accounting state"
    );
    assert_eq!(rt.ingest_pending(), 0);
    assert_eq!(rt.task_count(), 0, "task records leaked");
}
