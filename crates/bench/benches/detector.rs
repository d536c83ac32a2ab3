//! Criterion bench: the detector and window-accounting hot path.
//!
//! The runtime ticks at the detector window period (10 ms default). Each
//! tick evaluates the detector over its window ring and rolls the
//! accounting window of the tasks in the visit set, the ones something
//! touched since the last tick. These benches time those two pieces:
//! `evaluate` over populated windows, one completion record, and
//! `roll_window` over 64 and 1 024 usage slots.

use atropos::accounting::UsageStats;
use atropos::config::DetectorConfig;
use atropos::detect::Detector;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_detector(c: &mut Criterion) {
    let mut g = c.benchmark_group("detector");
    // A detector with populated windows: 100 completions per 10 ms window
    // over 16 windows of history.
    let mut d = Detector::new(DetectorConfig::default(), 0);
    for w in 0..32u64 {
        for i in 0..100u64 {
            d.record_completion(w * 10_000_000 + i * 90_000, 2_000_000);
        }
    }
    g.bench_function("evaluate_populated", |b| {
        let mut now = 320_000_000u64;
        b.iter(|| {
            now += 1;
            black_box(d.evaluate(now, 50))
        })
    });
    g.bench_function("record_completion", |b| {
        let mut now = 320_000_000u64;
        b.iter(|| {
            now += 1_000;
            d.record_completion(now, black_box(2_000_000));
        })
    });
    g.finish();
}

fn bench_accounting(c: &mut Criterion) {
    let mut g = c.benchmark_group("accounting");
    g.bench_function("get_free_cycle", |b| {
        let mut s = UsageStats::default();
        let mut now = 0u64;
        b.iter(|| {
            now += 100;
            s.on_get(now, 4);
            s.on_free(now + 50, 4);
        })
    });
    g.bench_function("wait_get_free_cycle", |b| {
        let mut s = UsageStats::default();
        let mut now = 0u64;
        b.iter(|| {
            now += 100;
            s.on_slow(now, 1);
            s.on_get(now + 30, 1);
            s.on_free(now + 80, 1);
        })
    });
    for &n in &[64usize, 1024] {
        g.bench_with_input(BenchmarkId::new("roll_window", n), &n, |b, &n| {
            let mut stats: Vec<UsageStats> = (0..n)
                .map(|i| {
                    let mut s = UsageStats::default();
                    s.on_get(i as u64, 1 + i as u64 % 7);
                    s
                })
                .collect();
            let mut now = 1_000u64;
            b.iter(|| {
                now += 10_000_000;
                for s in &mut stats {
                    s.roll_window(now);
                }
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_detector, bench_accounting);
criterion_main!(benches);
