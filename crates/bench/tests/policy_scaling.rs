//! Policy scaling guard: selection from the policy index — what every
//! candidate tick runs — must stay linear in the candidates it scans.
//!
//! Each of the three `PolicyKind`s is timed on a settled index of 16 384
//! busy tasks and on one of 1 024 (`benches/policy.rs`'s
//! `policy_index/select/*` geometry). Linear selection reads 16×; one
//! accidentally quadratic step (an all-pairs dominance filter, a rescan
//! per candidate) reads 256×. The guard holds the ratio at 64×, so such a
//! step fails this test loudly instead of silently regressing the tick.
//!
//! The bound is a *paired ratio* measured in-process — both sizes in the
//! same process, interleaved attempts, minimum ratio wins — so hardware
//! speed cancels out and the guard is meaningful on any machine. Like the
//! other perf guards, the numeric bound only binds in optimized builds; a
//! debug build still exercises every path. Run with `--nocapture` to see
//! the three ratios.

use atropos::PolicyKind;
use atropos_bench::indexload::IndexLoad;
use std::hint::black_box;

/// Maximum allowed `select/16384 ÷ select/1024` in optimized builds.
const MAX_RATIO: f64 = 64.0;
/// Interleaved measurement attempts; the minimum paired ratio is used.
const ATTEMPTS: u32 = 9;
/// Per-attempt measurement budget handed to the criterion shim.
const BUDGET_MS: u64 = 40;

fn ns_per_iter(budget_ms: u64, mut f: impl FnMut()) -> f64 {
    criterion::measure_ns_per_iter(std::time::Duration::from_millis(budget_ms), &mut f)
}

#[test]
fn indexed_selection_scales_linearly_from_1024_to_16384() {
    let (small, large) = (IndexLoad::settled(1024), IndexLoad::settled(16384));
    for (kind, name) in [
        (PolicyKind::MultiObjective, "multi_objective"),
        (PolicyKind::Heuristic, "heuristic"),
        (PolicyKind::CurrentUsage, "current_usage"),
    ] {
        // Both sizes must have something to select.
        assert!(small.index.select(kind).is_some() && large.index.select(kind).is_some());
        let (mut best, mut small_ns, mut large_ns) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for _ in 0..ATTEMPTS {
            let s = ns_per_iter(BUDGET_MS, || {
                black_box(black_box(&small.index).select(kind));
            });
            let l = ns_per_iter(BUDGET_MS, || {
                black_box(black_box(&large.index).select(kind));
            });
            small_ns = small_ns.min(s);
            large_ns = large_ns.min(l);
            best = best.min(l / s);
        }
        println!(
            "policy_scaling {name} select/16384 {large_ns:.0} ns / select/1024 {small_ns:.0} ns \
             = {best:.1}x"
        );
        // Unoptimized builds measure rustc -O0, not the algorithm; keep a
        // loose sanity bound so the guard still runs the code.
        let limit = if cfg!(debug_assertions) {
            4.0 * MAX_RATIO
        } else {
            MAX_RATIO
        };
        assert!(
            best <= limit,
            "{name}: select/16384 regressed to {large_ns:.0} ns/iter, {best:.1}x \
             select/1024 ({small_ns:.0} ns/iter); limit is {limit:.0}x — did the \
             selection path go quadratic?"
        );
    }
}
