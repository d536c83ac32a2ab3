//! Criterion bench: estimation + Algorithm 1 at scale.
//!
//! The paper requires cancellation decisions "at microsecond granularity"
//! (§3.4). This bench measures the non-dominated-set + scalarization
//! policy and the full estimator pass as the number of live tasks grows.

use atropos::estimator::{EstimatorSnapshot, ResourceSnapshot, TaskGainSnapshot};
use atropos::policy::{CancellationPolicy, HeuristicPolicy, MultiObjectivePolicy};
use atropos::{ResourceId, ResourceType, TaskId, TaskKey};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const N_RESOURCES: usize = 7;

fn snapshot(n_tasks: usize, seed: u64) -> EstimatorSnapshot {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let resources = (0..N_RESOURCES)
        .map(|i| {
            let c = rng.gen_range(0.0..2.0);
            ResourceSnapshot {
                id: ResourceId(i as u32),
                rtype: ResourceType::Lock,
                contention: c,
                normalized: c / 10.0,
                weight: 1.0 / N_RESOURCES as f64,
                wait_ns: 0,
                hold_ns: 0,
                acquired: 0,
                slow_amount: 0,
            }
        })
        .collect();
    let tasks = (0..n_tasks)
        .map(|i| {
            let gains: Vec<f64> = (0..N_RESOURCES).map(|_| rng.gen_range(0.0..1.0)).collect();
            TaskGainSnapshot {
                task: TaskId(i as u64),
                key: TaskKey(i as u64),
                cancellable: true,
                current: gains.clone(),
                gains,
                progress: Some(rng.gen_range(0.02..1.0)),
            }
        })
        .collect();
    EstimatorSnapshot {
        resources,
        tasks,
        t_exec_ns: 1_000_000,
    }
}

fn bench_policies(c: &mut Criterion) {
    let mut g = c.benchmark_group("policy");
    g.sample_size(30);
    for &n in &[16usize, 64, 256, 1024, 4096, 16384] {
        let snap = snapshot(n, 7);
        g.bench_with_input(BenchmarkId::new("multi_objective", n), &snap, |b, s| {
            b.iter(|| MultiObjectivePolicy.select(black_box(s)))
        });
        g.bench_with_input(BenchmarkId::new("heuristic", n), &snap, |b, s| {
            b.iter(|| HeuristicPolicy.select(black_box(s)))
        });
    }
    g.finish();
}

/// The incremental engine: full rebuild vs. steady-state delta refresh
/// vs. indexed selection, at populations the naive path cannot survive.
fn bench_policy_index(c: &mut Criterion) {
    use atropos::policy::PolicyIndex;
    use atropos::resource::ResourceRegistry;
    use atropos::task::{TaskRecord, TaskTable};
    use atropos::{AtroposConfig, PolicyKind};

    let mut g = c.benchmark_group("policy_index");
    g.sample_size(30);
    let mut reg = ResourceRegistry::new();
    for i in 0..N_RESOURCES {
        reg.register(format!("r{i}"), ResourceType::Lock);
    }
    let cfg = AtroposConfig::default();

    // `busy` tasks keep an open unit and held LOCK units, so they stay in
    // the visit set and every window re-derives them; the rest touch a
    // resource once, release it, and park after two rolls.
    let build = |n: usize, busy: usize| -> (TaskTable, PolicyIndex) {
        let mut index = PolicyIndex::new();
        index.reset(N_RESOURCES);
        let mut tasks = TaskTable::new(0);
        for i in 0..n {
            let mut t = TaskRecord::new(TaskId(i as u64), TaskKey(i as u64), N_RESOURCES);
            if i < busy {
                t.on_unit_start(0);
                t.usage[i % N_RESOURCES].on_get(10, 1 + (i as u64 % 5));
                if i % 3 == 0 {
                    t.usage[(i + 1) % N_RESOURCES].on_slow(20, 1);
                }
            } else {
                t.usage[i % N_RESOURCES].on_get(10, 1);
                t.usage[i % N_RESOURCES].on_free(20, 1);
            }
            tasks.insert(t);
        }
        tasks.roll(1_000_000);
        (tasks, index)
    };

    for &n in &[4096usize, 16384] {
        let (mut tasks, mut index) = build(n, n);
        g.bench_function(BenchmarkId::new("full_build", n), |b| {
            b.iter(|| {
                // What a resource registration costs the next tick: the
                // index starts over and every task is visited.
                tasks.grow_resources(N_RESOURCES, &mut index);
                tasks.refresh(black_box(&mut index), &reg, &cfg, true);
            })
        });
    }

    // Steady state: K busy tasks churn inside a large, parked population.
    // Each iteration is one candidate tick — roll and refresh the visit
    // set, settle the index.
    let n = 16384usize;
    for &k in &[16usize, 256] {
        let (mut tasks, mut index) = build(n, k);
        let mut now = 1_000_000u64;
        // Park the idle population.
        for _ in 0..2 {
            now += 1_000_000;
            tasks.roll(now);
            tasks.refresh(&mut index, &reg, &cfg, true);
        }
        assert_eq!(tasks.visited(), k);
        g.bench_function(BenchmarkId::new("delta_refresh", k), |b| {
            b.iter(|| {
                now += 1_000_000;
                tasks.roll(now);
                tasks.refresh(black_box(&mut index), &reg, &cfg, true);
            })
        });
    }

    // Indexed selection over a fully refreshed 16k-task index.
    let (mut tasks, mut index) = build(n, n);
    tasks.refresh(&mut index, &reg, &cfg, true);
    g.bench_function(BenchmarkId::new("select", n), |b| {
        b.iter(|| black_box(&index).select(PolicyKind::MultiObjective))
    });
    g.finish();
}

fn bench_estimate(c: &mut Criterion) {
    use atropos::resource::ResourceRegistry;
    use atropos::task::TaskRecord;
    use atropos::AtroposConfig;
    let mut g = c.benchmark_group("estimate");
    g.sample_size(30);
    let mut reg = ResourceRegistry::new();
    for i in 0..N_RESOURCES {
        reg.register(format!("r{i}"), ResourceType::Lock);
    }
    let cfg = AtroposConfig::default();
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
            b.iter(|| atropos::estimator::estimate(black_box(tasks_ref.iter()), &reg, &cfg))
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
    bench_policies,
    bench_policy_index,
    bench_estimate,
    bench_tick_phases
);
criterion_main!(benches);
