//! Criterion bench: the cost of the decision-trace observability layer.
//!
//! Two questions matter. First, the *disabled* cost: a runtime with no
//! recorder attached must emit trace events exactly as fast as before the
//! recorder hooks existed (the `RecorderHandle` is a `None` branch on the
//! control path and the emit path never touches it at all). Second, the
//! *enabled* cost: `FlightRecorder::record` and `MetricsRegistry::observe`
//! are paid per decision event — a handful per tick, not per trace event —
//! so tens of nanoseconds are irrelevant in absolute terms, but they must
//! never block.

use std::sync::Arc;

use atropos::lockfree::LockFreeIngest;
use atropos::record::{CancelOrigin, DecisionEvent, Recorder};
use atropos::trace::PushOutcome;
use atropos::{AtroposConfig, AtroposRuntime, ResourceType};
use atropos_obs::{FlightRecorder, MetricsRegistry, Observer};
use atropos_sim::{Clock, SystemClock};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn runtime() -> Arc<AtroposRuntime> {
    let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
    Arc::new(AtroposRuntime::new(AtroposConfig::default(), clock))
}

fn sample_event() -> DecisionEvent {
    DecisionEvent::CancelIssued {
        tick: 3,
        key: atropos::TaskKey(9000),
        now_ns: 123_456_789,
        origin: CancelOrigin::Policy,
    }
}

/// The emit path, re-measured with recorder support compiled in: a
/// ring push and the full `get_resource` call, neither touching the
/// recorder. The push is the number the overhead guard test compares
/// against `BENCH_trace.json`.
fn bench_emit_path_with_recorder_support(c: &mut Criterion) {
    let mut g = c.benchmark_group("recorder_emit");
    let ing = LockFreeIngest::new(8, 1 << 14);
    let task = atropos::TaskId(1);
    let rid = atropos::ResourceId(0);
    g.bench_function("lockfree_push/no_recorder", |b| {
        b.iter(|| {
            match ing.push(
                black_box(task),
                black_box(rid),
                1,
                atropos::trace::EventKind::Get,
                0,
            ) {
                PushOutcome::Buffered => {}
                PushOutcome::Full(_) => {
                    let _ = ing.drain();
                }
            }
        })
    });
    for (name, install) in [("no_recorder", false), ("with_recorder", true)] {
        let rt = runtime();
        let rid = rt.register_resource("bench", ResourceType::Memory);
        let task = rt.create_cancel(Some(1));
        rt.unit_started(task);
        if install {
            let _obs = Observer::install(&rt, 4096);
        }
        g.bench_function(format!("get_resource/{name}"), |b| {
            b.iter(|| rt.get_resource(black_box(task), black_box(rid), 1))
        });
    }
    g.finish();
}

/// Per-decision-event costs of the enabled observer: the lock-free ring
/// write, the relaxed-atomic counter update, and the composed
/// `Observer::record` the runtime actually calls.
fn bench_enabled_record(c: &mut Criterion) {
    let mut g = c.benchmark_group("recorder_record");
    let ev = sample_event();
    let ring = FlightRecorder::new(4096);
    g.bench_function("ring_record", |b| b.iter(|| ring.record(black_box(ev))));
    let registry = MetricsRegistry::new();
    g.bench_function("registry_observe", |b| {
        b.iter(|| registry.observe(black_box(&ev)))
    });
    let obs = Observer::new(4096);
    g.bench_function("observer_record", |b| b.iter(|| obs.record(black_box(ev))));
    // Saturated ring: every write lands on an occupied slot and sheds via
    // overwrite — the worst case must stay flat, not degrade.
    let tiny = FlightRecorder::new(2);
    for _ in 0..4 {
        tiny.record(ev);
    }
    g.bench_function("ring_record_saturated", |b| {
        b.iter(|| tiny.record(black_box(ev)))
    });
    g.finish();
}

/// The task-lifecycle path (`create`/`started`/`finished`/`free_cancel`)
/// with and without an attached recorder: `free_cancel` is the one
/// lifecycle call that consults the recorder (for cancel-completion
/// latency), so this isolates the disabled-branch cost in context.
fn bench_lifecycle(c: &mut Criterion) {
    let mut g = c.benchmark_group("recorder_lifecycle");
    for (name, install) in [("no_recorder", false), ("with_recorder", true)] {
        let rt = runtime();
        rt.register_resource("bench", ResourceType::Memory);
        if install {
            let _obs = Observer::install(&rt, 4096);
        }
        g.bench_function(format!("task_lifecycle/{name}"), |b| {
            b.iter(|| {
                let t = rt.create_cancel(None);
                rt.unit_started(t);
                rt.unit_finished(t);
                rt.free_cancel(t);
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_emit_path_with_recorder_support,
    bench_enabled_record,
    bench_lifecycle
);
criterion_main!(benches);
