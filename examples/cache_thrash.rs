//! Buffer-pool thrashing (case c5 / the Figure 2 mechanism): rare dump
//! queries sweep the whole dataset through the pool, evicting the hot
//! working set, so every lightweight query starts missing.
//!
//! Shows the per-window throughput timeline with and without Atropos, so
//! you can watch the dump hit at ~2.5 s and the recovery (or lack of it).
//!
//! Run with: `cargo run --release --example cache_thrash`

use atropos::AtroposConfig;
use atropos_app::apps::minidb::{MiniDb, MiniDbConfig};
use atropos_app::glue::AtroposController;
use atropos_app::ids::ClassId;
use atropos_app::server::{ServerMetrics, SimServer};
use atropos_app::workload::WorkloadSpec;
use atropos_app::NoControl;
use atropos_sim::SimTime;

fn workload(db: &MiniDb) -> WorkloadSpec {
    WorkloadSpec::new(
        vec![
            db.point_select(0.65),
            db.row_update(0.35),
            db.dump(0.0, 120_000), // ~2 GB sweep
        ],
        8_000.0,
    )
    .inject(SimTime::from_millis(2_500), ClassId(2))
    .inject(SimTime::from_millis(5_500), ClassId(2))
}

fn timeline(label: &str, m: &ServerMetrics) {
    println!(
        "\n{label}: completed={} canceled={} dropped={}",
        m.completed, m.canceled, m.dropped
    );
    println!("  t(s)  tput(kQPS)  p99(ms)");
    for w in m.series.windows().filter(|w| w.start % 500_000_000 == 0) {
        // One row per 0.5 s (windows are 100 ms wide).
        let t = w.start as f64 / 1e9;
        if t < 1.0 {
            continue;
        }
        println!(
            "  {:4.1}  {:9.1}  {:7.2}",
            t,
            w.throughput_qps(100_000_000) / 1000.0,
            w.latency.p99() as f64 / 1e6
        );
    }
}

fn main() {
    let duration = SimTime::from_secs(9);
    let warmup = SimTime::from_secs(1);

    let db = MiniDb::new(MiniDbConfig::default());
    let uncontrolled = SimServer::new(db.server_config(), workload(&db), Box::new(NoControl))
        .run(duration, warmup);
    timeline("uncontrolled", &uncontrolled);

    let db = MiniDb::new(MiniDbConfig::default());
    let mitigated = SimServer::new_with(db.server_config(), workload(&db), |clock, groups| {
        Box::new(AtroposController::new(
            AtroposConfig::default().with_slo_ns(3_000_000),
            clock,
            groups,
            true,
        ))
    })
    .run(duration, warmup);
    timeline("with atropos", &mitigated);

    println!(
        "\nthroughput kept: uncontrolled {:.0}%, atropos {:.0}%",
        uncontrolled.completed as f64 / mitigated.completed.max(1) as f64 * 100.0,
        100.0
    );
}
