#![warn(missing_docs)]

//! Benchmark harness for the Atropos reproduction.
//!
//! Two kinds of benchmarks live here:
//!
//! - the `repro` binary (`cargo run --release -p atropos-bench --bin repro
//!   -- all`) regenerates every figure and table of the paper's evaluation
//!   through the scenario harness and writes the results to `results/`,
//! - criterion microbenches (`cargo bench`) measure the real cost of the
//!   framework's hot paths: the tracing APIs in sampled vs precise mode,
//!   the policy index at scale, accounting window rollups, and
//!   the simulator substrate itself.

pub mod capacity;
pub mod indexload;
pub mod requestload;
pub mod scaling;
pub mod tickload;

pub use atropos_scenarios::experiments::{all_ids, run_by_id, ExpOptions, ExpReport};

/// Writes a report's JSON payload under `dir`, creating it if needed.
///
/// Returns the path written.
pub fn save_report(
    dir: &std::path::Path,
    report: &ExpReport,
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", report.id));
    let pretty = serde_json::to_string_pretty(&report.data)?;
    std::fs::write(&path, pretty)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_report_writes_json() {
        let dir = std::env::temp_dir().join("atropos-bench-test");
        let report = ExpReport {
            id: "unit".into(),
            title: "t".into(),
            text: "x".into(),
            data: serde_json::json!({"k": 1}),
        };
        let path = save_report(&dir, &report).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"k\": 1"));
        std::fs::remove_file(path).ok();
    }
}
