//! Soak: a runtime left on for 100 000 windows holds constant state.
//!
//! One runtime on the idle [`TickLoad`] — 1 024 parked residents, 64
//! tasks touched every window, 64 create→free pairs per window — is
//! ticked for 100 000 windows. Every 10 000 windows the test reads the
//! process RSS (`VmRSS` in `/proc/self/status`, which is in kB where
//! `statm` counts pages of a size std cannot ask for) and the
//! `debug_snapshot()` sizes (tasks, resources, canceled keys). The sizes
//! must not move, and RSS may grow by less than 8 MB from the first
//! checkpoint to the last.
//!
//! A structure that grows per window fails at the first checkpoint past
//! the bound instead of running the machine out of memory: the unbounded
//! window series this replaced grew ≈ 10 KB per window here, ≈ 100 MB per
//! checkpoint. The checkpoints are printed; run with `--nocapture` to see
//! them.

use atropos_bench::tickload::TickLoad;

const WINDOWS: u64 = 100_000;
const EVERY: u64 = 10_000;
const MAX_RSS_GROWTH_MB: f64 = 8.0;

/// Resident set size in MB, `None` where `/proc` is absent.
fn rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[test]
fn a_long_run_holds_constant_state() {
    let Some(_) = rss_mb() else {
        eprintln!("SKIPPED bounded_state: /proc/self/status has no VmRSS here");
        return;
    };
    let mut load = TickLoad::new(1_024, 64, false).with_churn(64);
    let sizes = |load: &TickLoad| {
        let snap = load.runtime().debug_snapshot();
        (
            snap.tasks.len(),
            snap.resources.len(),
            snap.cancel.canceled_keys.len(),
        )
    };
    let mut first: Option<(f64, (usize, usize, usize))> = None;
    for w in 1..=WINDOWS {
        load.window();
        if w % EVERY != 0 {
            continue;
        }
        let rss = rss_mb().expect("VmRSS was readable at the start");
        let now = sizes(&load);
        println!(
            "bounded_state window {w:>6}: rss {rss:7.1} MB, tasks {}, resources {}, canceled_keys {}",
            now.0, now.1, now.2
        );
        let (rss0, sizes0) = *first.get_or_insert((rss, now));
        assert_eq!(
            now, sizes0,
            "window {w}: snapshot sizes (tasks, resources, canceled_keys) moved"
        );
        assert!(
            rss - rss0 < MAX_RSS_GROWTH_MB,
            "window {w}: RSS grew {:.1} MB since window {EVERY} (limit {MAX_RSS_GROWTH_MB} MB)",
            rss - rss0
        );
    }
}
