//! Lifecycle scaling guard: a request costs what it does, not who else is
//! registered.
//!
//! Every verb of a request looks its task up by `TaskId`, and retiring it
//! unwinds the policy index's slot map. With 16 384 parked residents those
//! tables are large; with a hash that spread consecutive ids badly (or a
//! per-request walk over the population) the request would slow down
//! with them. This guard runs the `steady_emit` request script on the
//! system clock with 16 384 parked MEMORY holders and with none, and holds
//! the cost ratio to 1.5×.
//!
//! Built like `tick_scaling.rs`: a *paired ratio* measured in-process —
//! both populations in the same process, interleaved attempts, minimum
//! ratio wins — so hardware speed cancels out; the numeric bound only
//! binds in optimized builds, a debug build still exercises both sides.

use std::sync::Arc;

use atropos_bench::requestload::RequestLoad;
use atropos_sim::SystemClock;

/// Maximum allowed `request(big) ÷ request(small)` in optimized builds.
const MAX_RATIO: f64 = 1.5;
/// Interleaved measurement attempts; the minimum paired ratio is used.
const ATTEMPTS: u32 = 12;
/// Requests averaged per attempt and side.
const REQUESTS: u32 = 4_096;

const RESIDENTS: usize = 16_384;

#[test]
fn parked_residents_do_not_move_a_request() {
    let clock = Arc::new(SystemClock::new());
    let big = RequestLoad::new(clock.clone(), RESIDENTS);
    let small = RequestLoad::new(clock, 0);
    let (mut best_ratio, mut big_best, mut small_best) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..ATTEMPTS {
        let b = big.mean_request_ns(REQUESTS);
        let s = small.mean_request_ns(REQUESTS);
        big_best = big_best.min(b);
        small_best = small_best.min(s);
        best_ratio = best_ratio.min(b / s);
    }
    for (load, residents) in [(&big, RESIDENTS), (&small, 0)] {
        let rt = load.runtime();
        assert_eq!(rt.task_count(), residents, "requests must retire");
        assert_eq!(rt.stats().ignored_events, 0);
    }
    let bound = if cfg!(debug_assertions) {
        MAX_RATIO * 3.0
    } else {
        MAX_RATIO
    };
    eprintln!("{RESIDENTS} parked residents: {big_best:.0} ns vs {small_best:.0} ns per request, {best_ratio:.2}x");
    assert!(
        best_ratio <= bound,
        "request {big_best:.0} ns with {RESIDENTS} residents vs {small_best:.0} ns without, \
         {best_ratio:.2}x (limit {bound:.1}x) — does a request pay for the population?"
    );
}
