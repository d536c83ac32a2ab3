//! Criterion bench: the cost of the Figure 6b tracing APIs.
//!
//! This is the real-time counterpart of §5.5: the per-event cost of
//! `get/free/slow_by_resource` in sampled-timestamp mode (the normal-load
//! hot path) vs precise mode (potential overload), plus task lifecycle,
//! progress reporting and one whole steady request.

use std::sync::Arc;

use atropos::lockfree::LockFreeIngest;
use atropos::trace::PushOutcome;
use atropos::{AtroposConfig, AtroposRuntime, ResourceType, TimestampMode};
use atropos_bench::requestload::RequestLoad;
use atropos_bench::scaling;
use atropos_sim::{Clock, SystemClock, VirtualClock};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn new_runtime() -> Arc<AtroposRuntime> {
    let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
    Arc::new(AtroposRuntime::new(AtroposConfig::default(), clock))
}

fn runtime() -> (Arc<AtroposRuntime>, atropos::TaskId, atropos::ResourceId) {
    let rt = new_runtime();
    let rid = rt.register_resource("bench", ResourceType::Memory);
    let task = rt.create_cancel(Some(1));
    rt.unit_started(task);
    (rt, task, rid)
}

fn bench_tracing(c: &mut Criterion) {
    let mut g = c.benchmark_group("tracing");
    g.sample_size(50);

    let (rt, task, rid) = runtime();
    g.bench_function("get_resource/sampled", |b| {
        b.iter(|| rt.get_resource(black_box(task), black_box(rid), 1))
    });
    g.bench_function("slow_by_resource/sampled", |b| {
        b.iter(|| rt.slow_by_resource(black_box(task), black_box(rid), 1))
    });
    g.bench_function("get_free_pair/sampled", |b| {
        b.iter(|| {
            rt.get_resource(task, rid, 4);
            rt.free_resource(task, rid, 4);
        })
    });
    g.bench_function("report_progress", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k += 1;
            rt.report_progress(task, k, 1_000_000)
        })
    });
    g.bench_function("task_lifecycle", |b| {
        b.iter(|| {
            let t = rt.create_cancel(None);
            rt.unit_started(t);
            rt.unit_finished(t);
            rt.free_cancel(t);
        })
    });
    // The whole `steady_emit` request, on the system clock and on a
    // virtual one: the difference is what its clock reads cost.
    let clocks: [(&str, Arc<dyn Clock>); 2] = [
        ("system_clock", Arc::new(SystemClock::new())),
        ("virtual_clock", Arc::new(VirtualClock::new())),
    ];
    for (name, clock) in clocks {
        let load = RequestLoad::new(clock, 0);
        g.bench_function(format!("steady_request/{name}"), |b| {
            b.iter(|| load.request())
        });
    }
    g.finish();
}

/// Full ingest cycle under producer contention: `threads` producers each
/// emit `events` tracing calls on their own task, appending to wait-free
/// per-producer rings; the periodic replay (here the mid-window flush
/// whenever a lane fills) is paid inside the measured interval, so the
/// figure includes the drain work, not just the cheap append.
fn contended_emit(rt: &Arc<AtroposRuntime>, threads: u64, events: u64) {
    std::thread::scope(|s| {
        for p in 0..threads {
            let rt = rt.clone();
            s.spawn(move || {
                let task = rt.create_cancel(Some(p));
                let rid = atropos::ResourceId(0);
                for i in 0..events {
                    match i % 3 {
                        0 => rt.get_resource(task, rid, 1),
                        1 => rt.free_resource(task, rid, 1),
                        _ => rt.slow_by_resource(task, rid, 1),
                    }
                }
                rt.free_cancel(task);
            });
        }
    });
}

fn bench_contended_ingest(c: &mut Criterion) {
    const EVENTS: u64 = 4_096;
    let mut g = c.benchmark_group("contended_ingest");
    g.sample_size(30);
    for (ts, ts_name) in [
        (TimestampMode::Sampled, "sampled"),
        (TimestampMode::Precise, "precise"),
    ] {
        for threads in [1u64, 4, 8] {
            let rt = new_runtime();
            rt.register_resource("bench", ResourceType::Memory);
            rt.set_timestamp_mode(ts);
            g.throughput(Throughput::Elements(threads * EVENTS));
            g.bench_with_input(
                BenchmarkId::new(format!("lockfree/{ts_name}"), format!("{threads}threads")),
                &threads,
                |b, &threads| b.iter(|| contended_emit(&rt, threads, EVENTS)),
            );
            // Settle any buffered remainder so runs stay independent.
            rt.stats();
        }
    }
    g.finish();
}

/// The isolated hot-path cost: a wait-free seqlock-cell claim
/// (`LockFreeIngest::push`), measured per event without any drain in the
/// loop.
fn bench_emit_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("ingest_emit");
    let task = atropos::TaskId(1);
    let rid = atropos::ResourceId(0);
    let lf = LockFreeIngest::new(8, 1 << 14);
    g.bench_function("lockfree_push", |b| {
        b.iter(|| {
            match lf.push(
                black_box(task),
                black_box(rid),
                1,
                atropos::trace::EventKind::Get,
                0,
            ) {
                PushOutcome::Buffered => {}
                PushOutcome::Full(_) => {
                    // Keep the rings from saturating without an Inner to
                    // drain into: empty them and continue.
                    let _ = lf.drain();
                }
            }
        })
    });
    g.finish();
}

/// Multi-core emit-phase scaling: N persistent producers burst into the
/// buffered sink while a background drainer plays the tick side, and
/// only the emit phase is timed (see `atropos_bench::scaling`). On a
/// single-core runner these curves are degenerate — the snapshot script
/// records the detected core count next to them, and the efficiency
/// regression guard (`tests/ingest_scaling.rs`) skips loudly rather
/// than gate on time-sliced numbers.
fn bench_emit_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("emit_scaling");
    g.sample_size(20);
    for producers in [1u64, 2, 4, 8] {
        let sink = scaling::new_sink();
        let _drainer = scaling::BackgroundDrainer::start(sink.clone());
        let team = scaling::ProducerTeam::new(producers, sink);
        g.throughput(Throughput::Elements(producers * scaling::BURST));
        g.bench_with_input(
            BenchmarkId::new("lockfree", format!("{producers}producers")),
            &producers,
            |b, _| b.iter(|| team.burst()),
        );
    }
    g.finish();
}

/// Cost of the tick-side replay: emit a batch into the rings, then
/// drain it through `stats()`. Per-event drain latency is this figure
/// divided by the batch size, minus the push cost measured above.
fn bench_tick_drain(c: &mut Criterion) {
    const BATCH: u64 = 1_024;
    let mut g = c.benchmark_group("tick_drain");
    g.sample_size(50);
    g.throughput(Throughput::Elements(BATCH));
    let rt = new_runtime();
    let rid = rt.register_resource("bench", ResourceType::Memory);
    let task = rt.create_cancel(Some(1));
    g.bench_function("emit_and_drain_1024", |b| {
        b.iter(|| {
            for _ in 0..BATCH {
                rt.get_resource(task, rid, 1);
            }
            black_box(rt.stats().trace_events)
        })
    });
    g.finish();
}

fn bench_timestamp_modes(c: &mut Criterion) {
    use atropos::trace::TimestampPolicy;
    use atropos::TimestampMode;
    let mut g = c.benchmark_group("timestamp");
    let clock = SystemClock::new();
    let mut sampled = TimestampPolicy::new(1_000_000);
    g.bench_function("stamp/sampled", |b| {
        b.iter(|| sampled.stamp(black_box(clock.now_ns())))
    });
    let mut precise = TimestampPolicy::new(1_000_000);
    precise.set_mode(TimestampMode::Precise);
    g.bench_function("stamp/precise", |b| {
        b.iter(|| precise.stamp(black_box(clock.now_ns())))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_tracing,
    bench_contended_ingest,
    bench_emit_path,
    bench_emit_scaling,
    bench_tick_drain,
    bench_timestamp_modes
);
criterion_main!(benches);
