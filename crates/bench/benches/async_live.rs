//! Async-harness smoke benchmark: the future-drop substrate's wall-clock
//! victim tail latency with and without Atropos on an identical overload,
//! plus the per-op cost of a spawned lock-gate roundtrip.
//!
//! Mirrors `benches/live.rs` for the thread substrate: end-to-end
//! outcomes, one short serving run per mode, machine-readable lines —
//!   BENCHRESULT {"id":...,"ns_per_iter":...,"iters":N}
//! — that `scripts/bench_snapshot.sh` distills into the `async_live`
//! section of BENCH_live.json.

use std::sync::Arc;
use std::time::{Duration, Instant};

use atropos::{AtroposConfig, AtroposRuntime};
use atropos_async::{run, Executor};
use atropos_live::{live_atropos_config, ControlMode, CulpritKind, Gate, LiveConfig};
use atropos_sim::SystemClock;

fn emit(id: &str, ns: f64, iters: u64) {
    println!("BENCHRESULT {{\"id\":\"{id}\",\"ns_per_iter\":{ns},\"iters\":{iters}}}");
}

fn smoke_config() -> LiveConfig {
    LiveConfig {
        workers: 4,
        run_for: Duration::from_millis(700),
        interarrival: Duration::from_millis(2),
        culprit_after: Duration::from_millis(200),
        culprit_every: None,
        culprit_kind: CulpritKind::LockHog,
        // Longer than the run: without control the convoy lasts until the
        // harness raises the stop flag (~500 ms of blocked victims).
        culprit_hold: Duration::from_secs(2),
        checkpoint: Duration::from_millis(1),
        tick_period: Duration::from_millis(50),
        ..LiveConfig::default()
    }
}

fn main() {
    // Per-op floor: spawn a task that takes and releases an uncontended
    // lock gate, then drive it to completion on an inline
    // executor — one spawn, one poll, two tracing events, one wake-free
    // guard drop. This is the substrate's smallest unit of useful work.
    let rt = Arc::new(AtroposRuntime::new(
        AtroposConfig::default(),
        Arc::new(SystemClock::new()),
    ));
    let lock = Arc::new(Gate::lock(rt.clone(), "bench_lock"));
    let task = rt.create_cancel(None);
    let ex = Executor::inline();
    let iters = 100_000u64;
    let start = Instant::now();
    for _ in 0..iters {
        let l = lock.clone();
        ex.spawn(async move {
            drop(l.acquire(task).await);
        });
        ex.poll_one();
    }
    emit(
        "async_live/spawned_lock_roundtrip",
        start.elapsed().as_nanos() as f64 / iters as f64,
        iters,
    );
    ex.shutdown();

    // End-to-end: identical overloaded runs, uncontrolled vs supervised.
    // In the supervised run the cancellation is a future drop through the
    // abort registry — no cooperative token exists in this substrate.
    let baseline = run(smoke_config(), ControlMode::NoControl);
    emit(
        "async_live/victim_p99/no_control",
        baseline.victim.p99_ns as f64,
        baseline.victim.count,
    );

    let controlled = run(smoke_config(), ControlMode::Atropos(live_atropos_config()));
    emit(
        "async_live/victim_p99/atropos",
        controlled.victim.p99_ns as f64,
        controlled.victim.count,
    );
    if let Some(ttc) = controlled.time_to_cancel {
        emit("async_live/time_to_cancel", ttc.as_nanos() as f64, 1);
    }

    eprintln!(
        "async smoke: victim p99 {:.1} ms (no control) vs {:.1} ms (atropos), \
         {} of {} culprits aborted",
        baseline.victim.p99_ns as f64 / 1e6,
        controlled.victim.p99_ns as f64 / 1e6,
        controlled.culprits_canceled,
        controlled.culprits_started,
    );
}
