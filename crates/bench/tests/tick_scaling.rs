//! Tick scaling guard: a tick costs what changed, not who is registered.
//!
//! `tick()` used to walk every registered task three times (roll the
//! window, re-derive the policy terms, materialize the estimate), so
//! 16 384 tasks that merely pin a buffer page put an idle tick at 0.9 ms
//! and an overloaded one at 4 ms with 256 tasks actually doing anything.
//! With the visit set those residents are parked and the tick visits the
//! 256. This guard holds that property: against the same 256 touched
//! tasks, adding 16 384 parked MEMORY holders may at most double the
//! tick — idle and overloaded — and so may 8 192 tasks created and freed
//! inside the window. Anyone who reintroduces a walk over the population,
//! or a per-retired-task cost at the tick, fails this loudly instead of
//! regressing `resident_decide` silently.
//!
//! Built like `policy_scaling.rs`: a *paired ratio* measured in-process
//! — both populations in the same process, interleaved attempts, minimum
//! ratio wins — so hardware speed cancels out; the numeric bound only
//! binds in optimized builds, a debug build still exercises both sides.

use atropos_bench::tickload::TickLoad;

/// Maximum allowed `tick(big) ÷ tick(small)` in optimized builds.
const MAX_RATIO: f64 = 2.0;
/// Interleaved measurement attempts; the minimum paired ratio is used.
const ATTEMPTS: u32 = 12;
/// Windows averaged per attempt and side.
const WINDOWS: u32 = 24;

const RESIDENTS: usize = 16_384;
const TOUCHED: usize = 256;
const CHURN: usize = 8_192;

fn assert_within_budget(what: &str, mut big: TickLoad, mut small: TickLoad) {
    let (mut best_ratio, mut big_best, mut small_best) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..ATTEMPTS {
        let b = big.mean_tick_ns(WINDOWS);
        let s = small.mean_tick_ns(WINDOWS);
        big_best = big_best.min(b);
        small_best = small_best.min(s);
        best_ratio = best_ratio.min(b / s);
    }
    // Unoptimized builds measure rustc -O0 and the debug assertions in
    // the roll, not the algorithm; keep a loose sanity bound so the guard
    // still runs the code. A walk over 16 384 residents against 256
    // touched tasks would read ~60x.
    let bound = if cfg!(debug_assertions) {
        MAX_RATIO * 5.0
    } else {
        MAX_RATIO
    };
    eprintln!("{what}: {big_best:.0} ns vs {small_best:.0} ns, {best_ratio:.2}x");
    assert!(
        best_ratio <= bound,
        "{what}: tick {big_best:.0} ns vs {small_best:.0} ns without, {best_ratio:.2}x \
         (limit {bound:.0}x) — did a walk over the task population come back?"
    );
}

#[test]
fn parked_residents_do_not_move_an_idle_tick() {
    assert_within_budget(
        "16384 parked holders + 256 touched, idle",
        TickLoad::new(RESIDENTS, TOUCHED, false),
        TickLoad::new(0, TOUCHED, false),
    );
}

#[test]
fn parked_residents_do_not_move_an_overloaded_tick() {
    assert_within_budget(
        "16384 parked holders + 256 touched, overloaded",
        TickLoad::new(RESIDENTS, TOUCHED, true),
        TickLoad::new(0, TOUCHED, true),
    );
}

#[test]
fn tasks_retired_inside_the_window_cost_the_tick_nothing() {
    assert_within_budget(
        "8192 create->free pairs per window",
        TickLoad::new(0, TOUCHED, false).with_churn(CHURN),
        TickLoad::new(0, TOUCHED, false),
    );
}
