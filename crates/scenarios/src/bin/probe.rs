//! Diagnostic probe: all 16 cases under NoControl vs Atropos, one row per
//! case — the fastest way to eyeball calibration after changing a case or
//! a framework default. `--quick` shortens the runs; `--episodes` runs
//! the Atropos side under the decision-trace observer and dumps each
//! case's folded episode log (why every cancellation was issued) after
//! the table.
//!
//! ```console
//! $ cargo run --release -p atropos-scenarios --bin probe
//! $ cargo run --release -p atropos-scenarios --bin probe -- --quick --episodes
//! ```

use atropos_scenarios::{
    all_cases, calibrate, run_atropos_case, run_with, ControllerKind, RunConfig,
};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let episodes = std::env::args().any(|a| a == "--episodes");
    let rc = if quick {
        RunConfig::quick(42)
    } else {
        RunConfig::full(42)
    };
    let cases = all_cases();
    let results = atropos_scenarios::runner::parallel_map(cases, |case| {
        let baseline = calibrate(&case, &rc);
        let none = run_with(&case, ControllerKind::None, &rc, &baseline);
        let (atr, run) = run_atropos_case(&case, ControllerKind::Atropos, &rc, &baseline, episodes);
        let log = atropos_obs::render_episodes(&run.episodes());
        (case.id, baseline, none, atr, log)
    });
    println!(
        "{:<5} {:>9} {:>8} | {:>6} {:>8} | {:>6} {:>8} {:>7} {:>5} {:>5}",
        "case",
        "base_qps",
        "base_p99",
        "n.tput",
        "n.p99",
        "a.tput",
        "a.p99",
        "a.drop",
        "canc",
        "retr"
    );
    for (id, b, n, a, _) in &results {
        println!(
            "{:<5} {:>9.0} {:>7.1}ms | {:>6.2} {:>8.1} | {:>6.2} {:>8.1} {:>6.3}% {:>5} {:>5}",
            id,
            b.summary.throughput_qps(),
            b.summary.p99_ns as f64 / 1e6,
            n.normalized.throughput,
            n.normalized.p99,
            a.normalized.throughput,
            a.normalized.p99,
            a.normalized.drop_rate * 100.0,
            a.summary.canceled,
            a.summary.retried
        );
    }
    if episodes {
        for (id, _, _, _, log) in &results {
            if log.is_empty() {
                println!("\n{id}: no decision episodes");
            } else {
                println!("\n{id}: decision episodes");
                for line in log.lines() {
                    println!("  {line}");
                }
            }
        }
    }
}
