//! Criterion bench: estimation + Algorithm 1 at scale.
//!
//! The paper requires cancellation decisions "at microsecond granularity"
//! (§3.4). This bench measures the policy index the tick decides from —
//! refresh, selection for every `PolicyKind`, the recorder's ranking —
//! the batch estimator pass, and the tick's phases as the number of live
//! tasks grows.

use atropos::{ResourceType, TaskId, TaskKey};
use atropos_bench::indexload::{IndexLoad, N_RESOURCES};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// The incremental engine: full rebuild vs. steady-state delta refresh
/// vs. indexed selection and ranking, at populations the naive path
/// cannot survive.
fn bench_policy_index(c: &mut Criterion) {
    use atropos::PolicyKind;

    let mut g = c.benchmark_group("policy_index");
    g.sample_size(30);
    for &n in &[4096usize, 16384] {
        let mut load = IndexLoad::new(n, n);
        g.bench_function(BenchmarkId::new("full_build", n), |b| {
            b.iter(|| {
                // What a resource registration costs the next tick: the
                // index starts over and every task is visited.
                load.tasks.grow_resources(N_RESOURCES, &mut load.index);
                black_box(&mut load).refresh();
            })
        });
    }

    // Steady state: K busy tasks churn inside a large, parked population.
    // Each iteration is one candidate tick — roll and refresh the visit
    // set, settle the index.
    for &k in &[16usize, 256] {
        let mut load = IndexLoad::new(16384, k);
        let mut now = 1_000_000u64;
        // Park the idle population.
        for _ in 0..2 {
            now += 1_000_000;
            load.tasks.roll(now);
            load.refresh();
        }
        assert_eq!(load.tasks.visited(), k);
        g.bench_function(BenchmarkId::new("delta_refresh", k), |b| {
            b.iter(|| {
                now += 1_000_000;
                load.tasks.roll(now);
                black_box(&mut load).refresh();
            })
        });
    }

    // Selection over a settled index where every task is busy.
    for n in [1024usize, 16384] {
        let load = IndexLoad::settled(n);
        for (kind, name) in [
            (PolicyKind::MultiObjective, "multi_objective"),
            (PolicyKind::Heuristic, "heuristic"),
            (PolicyKind::CurrentUsage, "current_usage"),
        ] {
            g.bench_function(BenchmarkId::new(format!("select/{name}"), n), |b| {
                b.iter(|| black_box(&load.index).select(kind))
            });
        }
    }
    // The recorder's explanation pass: the full non-dominated ranking.
    let load = IndexLoad::settled(1024);
    g.bench_function(BenchmarkId::new("ranked", 1024), |b| {
        b.iter(|| black_box(&load.index).ranked())
    });
    g.finish();
}

fn bench_estimate(c: &mut Criterion) {
    use atropos::resource::ResourceRegistry;
    use atropos::task::TaskRecord;
    let mut g = c.benchmark_group("estimate");
    g.sample_size(30);
    let mut reg = ResourceRegistry::new();
    for i in 0..N_RESOURCES {
        reg.register(format!("r{i}"), ResourceType::Lock);
    }
    for &n in &[64usize, 512, 4096] {
        let mut tasks: Vec<TaskRecord> = (0..n)
            .map(|i| {
                let mut t = TaskRecord::new(TaskId(i as u64), TaskKey(i as u64), N_RESOURCES);
                t.on_unit_start(0);
                t.usage[i % N_RESOURCES].on_get(10, 1 + (i as u64 % 5));
                if i % 3 == 0 {
                    t.usage[(i + 1) % N_RESOURCES].on_slow(20, 1);
                }
                t.roll_window(1_000_000);
                t
            })
            .collect();
        // Re-roll each iteration is unnecessary: estimate() is read-only.
        let tasks_ref = &mut tasks;
        g.bench_with_input(BenchmarkId::new("full_pass", n), &n, |b, _| {
            b.iter(|| atropos::estimator::estimate(black_box(tasks_ref.iter()), &reg))
        });
    }
    g.finish();
}

/// Where a tick's time goes as the resident population grows, read from
/// the runtime's own phase timer: `TickLoad` populations of 1k/4k/16k
/// parked MEMORY holders around 256 touched tasks, idle and overloaded.
/// Not a timed closure — the runtime did the timing — so the records are
/// printed directly in the shim's `BENCHRESULT` format, one per phase
/// (mean ns per tick) plus the whole tick.
fn bench_tick_phases(_: &mut Criterion) {
    use atropos::phase::TickPhase;
    use atropos_bench::tickload::TickLoad;

    const WINDOWS: u32 = 200;
    for (kind, overloaded) in [("idle", false), ("overloaded", true)] {
        for residents in [1024usize, 4096, 16384] {
            let mut load = TickLoad::new(residents, 256, overloaded);
            let phases = load.phases_over(WINDOWS);
            let mut tick_ns = 0.0;
            for phase in TickPhase::ALL {
                let mean = phases.sum_ns(phase) as f64 / f64::from(WINDOWS);
                tick_ns += mean;
                println!(
                    "BENCHRESULT {{\"id\":\"tick_phases/{kind}/{residents}/{}\",\"ns_per_iter\":{mean:.2},\"iters\":{WINDOWS}}}",
                    phase.name()
                );
            }
            println!(
                "tick_phases/{kind}/{residents}  time: {tick_ns:.0} ns/tick over {WINDOWS} ticks"
            );
            println!(
                "BENCHRESULT {{\"id\":\"tick_phases/{kind}/{residents}/tick\",\"ns_per_iter\":{tick_ns:.2},\"iters\":{WINDOWS}}}"
            );
        }
    }
}

criterion_group!(
    benches,
    bench_policy_index,
    bench_estimate,
    bench_tick_phases
);
criterion_main!(benches);
