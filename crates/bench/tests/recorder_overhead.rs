//! Recorder overhead guard: the observability layer must be free when
//! disabled and non-blocking when enabled.
//!
//! The disabled guard re-measures the emit path (`LockFreeIngest::push`,
//! the producer-visible hot-path cost recorded in `BENCH_trace.json` as
//! `emit_path_ns_per_event.lockfree_push`) with the recorder hooks
//! compiled in and no recorder attached, and holds it to within 2% of
//! the checked-in baseline. The threshold only binds in optimized builds — a debug
//! build measures the compiler, not the design — but the measurement
//! always runs so the path is exercised either way.

use std::sync::Arc;

use atropos::lockfree::LockFreeIngest;
use atropos::record::{CancelOrigin, DecisionEvent};
use atropos::trace::PushOutcome;
use atropos_obs::FlightRecorder;

/// Allowed regression over the checked-in baseline in optimized builds.
const MAX_REGRESSION: f64 = 1.02;
/// Measurement attempts before declaring a real regression (the minimum
/// over all attempts is compared, so transient scheduling noise only
/// costs retries).
const ATTEMPTS: u32 = 8;
/// Per-attempt measurement budget handed to the criterion shim.
const BUDGET_MS: u64 = 60;

/// Pulls a leaf number out of `BENCH_trace.json` by key. The vendored
/// serde_json shim parses into typed structs, not an indexable `Value`,
/// so a baseline file with a known shape is scanned directly.
fn baseline_ns(json: &str, key: &str) -> f64 {
    let tag = format!("\"{key}\":");
    let at = json
        .find(&tag)
        .unwrap_or_else(|| panic!("{key} not in BENCH_trace.json"));
    let rest = &json[at + tag.len()..];
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    rest[..end]
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("{key}: {e}"))
}

/// Minimum ns/iter over `runs` measurements taken with the vendored
/// criterion shim's own adaptive-batch loop, so the figure is directly
/// comparable to the `BENCH_trace.json` baseline it is checked against.
/// The minimum is the standard robust estimator for "how fast can this
/// go", immune to one-sided scheduling noise.
fn min_ns_per_iter(runs: u32, budget_ms: u64, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        best = best.min(criterion::measure_ns_per_iter(
            std::time::Duration::from_millis(budget_ms),
            &mut f,
        ));
    }
    best
}

#[test]
fn disabled_recorder_keeps_the_emit_path_within_two_percent_of_baseline() {
    let json = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_trace.json"
    ))
    .expect("BENCH_trace.json at repo root");
    let base = baseline_ns(&json, "lockfree_push");

    let ing = LockFreeIngest::new(8, 1 << 14);
    let task = atropos::TaskId(1);
    let rid = atropos::ResourceId(0);
    let measured = min_ns_per_iter(ATTEMPTS, BUDGET_MS, || {
        match ing.push(task, rid, 1, atropos::trace::EventKind::Get, 0) {
            PushOutcome::Buffered => {}
            PushOutcome::Full(_) => {
                let _ = ing.drain();
            }
        }
    });

    if cfg!(debug_assertions) {
        // Unoptimized build: the 2% bound would measure rustc -O0, not
        // the recorder. Exercise the path and sanity-bound it loosely.
        assert!(
            measured < base * 100.0,
            "emit path unrecognizably slow even for a debug build: \
             {measured:.2} ns/iter vs baseline {base:.2}"
        );
        return;
    }
    assert!(
        measured <= base * MAX_REGRESSION,
        "disabled-recorder emit path regressed: {measured:.2} ns/iter vs \
         baseline {base:.2} (limit {:.2})",
        base * MAX_REGRESSION
    );
}

#[test]
fn enabled_recorder_never_blocks_and_accounts_for_every_event() {
    // A deliberately tiny ring hammered from several threads: every
    // record call must return (push a seq, write or shed) and the
    // accounting identity drained + dropped + overwritten == recorded
    // must hold exactly — nothing waits, nothing is lost silently.
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 5_000;
    let ring = Arc::new(FlightRecorder::new(4));
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let ring = ring.clone();
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    ring.record(DecisionEvent::CancelIssued {
                        tick: t,
                        key: atropos::TaskKey(i),
                        now_ns: i,
                        origin: CancelOrigin::Policy,
                    });
                }
            });
        }
    });
    assert_eq!(ring.recorded(), THREADS * PER_THREAD);
    let drained = ring.drain().len() as u64;
    assert!(drained <= 4, "ring of 4 slots drained {drained} events");
    assert!(
        ring.overwritten() > 0,
        "hammering a 4-slot ring with {} events must overwrite",
        THREADS * PER_THREAD
    );
    assert_eq!(
        drained + ring.dropped() + ring.overwritten(),
        ring.recorded(),
        "recorder accounting leak: drained {drained} dropped {} overwritten {} recorded {}",
        ring.dropped(),
        ring.overwritten(),
        ring.recorded()
    );
}
