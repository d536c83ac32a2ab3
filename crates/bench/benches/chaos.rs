//! Criterion bench: fault-injector interposition overhead.
//!
//! The chaos harness routes every Figure 6b protocol event through
//! [`atropos_chaos::FaultInjector`] so it can drop/duplicate/delay them
//! and keep ground truth for the invariant checker. That wrapper is only
//! useful if it stays cheap enough to run everywhere in the test suite:
//! this bench pins the per-event cost of the interposed path (quiet plan
//! and an armed plan) against direct runtime calls, plus the cost of a
//! full scripted scenario run with invariant checks after every tick.

use std::sync::Arc;

use atropos::{AtroposConfig, AtroposRuntime, ResourceType};
use atropos_chaos::{run_scenario, Fault, FaultInjector, FaultPlan};
use atropos_sim::{Clock, SystemClock};
use atropos_substrate::ScenarioFamily;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn runtime() -> (Arc<AtroposRuntime>, atropos::TaskId, atropos::ResourceId) {
    let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
    let rt = Arc::new(AtroposRuntime::new(AtroposConfig::default(), clock));
    let rid = rt.register_resource("bench", ResourceType::Memory);
    let task = rt.create_cancel(Some(1));
    rt.unit_started(task);
    (rt, task, rid)
}

fn bench_injector_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("chaos");
    g.sample_size(50);
    g.throughput(Throughput::Elements(2));

    // Baseline: the same get/free pair straight into the runtime.
    let (rt, task, rid) = runtime();
    g.bench_function("get_free_pair/direct", |b| {
        b.iter(|| {
            rt.get_resource(black_box(task), rid, 4);
            rt.free_resource(task, rid, 4);
        })
    });

    // Interposed, nothing armed: the cost of truth-keeping alone.
    let (rt, task, rid) = runtime();
    let inj = FaultInjector::new(rt, &FaultPlan::quiet(7));
    g.bench_function("get_free_pair/injected_quiet", |b| {
        b.iter(|| {
            inj.get_resource(black_box(task), rid, 4);
            inj.free_resource(task, rid, 4);
        })
    });

    // Interposed with live fault sites: every event draws from the
    // seeded sub-streams (budgets large enough to never exhaust).
    let (rt, task, rid) = runtime();
    let plan = FaultPlan {
        seed: 7,
        faults: vec![
            Fault::DropFree {
                probability: 0.01,
                budget: u64::MAX,
            },
            Fault::DelayBatch {
                probability: 0.01,
                budget: u64::MAX,
                ticks: 1,
            },
        ],
    };
    let inj = FaultInjector::new(rt, &plan);
    g.bench_function("get_free_pair/injected_armed", |b| {
        b.iter(|| {
            inj.get_resource(black_box(task), rid, 4);
            inj.free_resource(task, rid, 4);
        })
    });
    g.finish();

    // One full scripted scenario (12 windows, every invariant checked
    // after every tick) — the unit the soak binary and proptest suite
    // repeat hundreds of times.
    let mut g = c.benchmark_group("chaos_scenario");
    g.sample_size(10);
    g.bench_function("lock_hog_quiet_checked", |b| {
        b.iter(|| run_scenario(ScenarioFamily::LockHog, &FaultPlan::quiet(11), 1))
    });
    g.bench_function("lock_hog_sampled_checked", |b| {
        b.iter(|| run_scenario(ScenarioFamily::LockHog, &FaultPlan::sample(11), 1))
    });
    g.finish();
}

criterion_group!(benches, bench_injector_overhead);
criterion_main!(benches);
