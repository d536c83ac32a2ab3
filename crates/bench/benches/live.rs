//! Live-harness smoke benchmark: wall-clock victim tail latency with and
//! without Atropos on an identical overload, plus the per-op cost of the
//! traced [`Gate`].
//!
//! Unlike the microbenches this one measures *end-to-end outcomes*, so it
//! does not iterate under criterion: each mode is one short serving run
//! (a convoy forms either way; the question is how long it lasts). It
//! prints the same machine-readable lines as the criterion shim —
//!   BENCHRESULT {"id":...,"ns_per_iter":...,"iters":N}
//! — so `scripts/bench_snapshot.sh` can distill them into BENCH_live.json.

use std::sync::Arc;
use std::time::{Duration, Instant};

use atropos::{AtroposConfig, AtroposRuntime};
use atropos_live::{
    block_on, live_atropos_config, run, ControlMode, CulpritKind, Gate, LiveConfig,
};
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
    // Per-op floor: an uncontended lock-gate roundtrip driven the way a
    // worker thread drives it (two tracing events + two short critical
    // sections on the gate's state; nothing parks, nothing allocates).
    let rt = Arc::new(AtroposRuntime::new(
        AtroposConfig::default(),
        Arc::new(SystemClock::new()),
    ));
    let lock = Gate::lock(rt.clone(), "bench_lock");
    let task = rt.create_cancel(None);
    let iters = 100_000u64;
    let start = Instant::now();
    for _ in 0..iters {
        drop(block_on(lock.acquire(task)));
    }
    emit(
        "live/traced_lock_roundtrip",
        start.elapsed().as_nanos() as f64 / iters as f64,
        iters,
    );

    // End-to-end: identical overloaded runs, uncontrolled vs supervised.
    let baseline = run(smoke_config(), ControlMode::NoControl);
    emit(
        "live/victim_p99/no_control",
        baseline.victim.p99_ns as f64,
        baseline.victim.count,
    );

    let controlled = run(smoke_config(), ControlMode::Atropos(live_atropos_config()));
    emit(
        "live/victim_p99/atropos",
        controlled.victim.p99_ns as f64,
        controlled.victim.count,
    );
    if let Some(ttc) = controlled.time_to_cancel {
        emit("live/time_to_cancel", ttc.as_nanos() as f64, 1);
    }

    eprintln!(
        "live smoke: victim p99 {:.1} ms (no control) vs {:.1} ms (atropos), \
         {} of {} culprits canceled",
        baseline.victim.p99_ns as f64 / 1e6,
        controlled.victim.p99_ns as f64 / 1e6,
        controlled.culprits_canceled,
        controlled.culprits_started,
    );
}
