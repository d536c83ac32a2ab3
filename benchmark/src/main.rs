//! The repo's end-to-end benchmark. See README.md beside this package for
//! the workloads, the metric catalogue and the contract with BENCHMARK.json.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark --seed <n> [--seconds <s>]     every workload, untraced then traced,
//!                                          each in a process of its own
//! benchmark --list                         the metric catalogue
//! ```
//!
//! A run prints every metric it measured by name and unit, then the notes and
//! failed checks, and as its last line the result object the driver reads:
//! the end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. It exits 1 if an output check failed.

mod catalog;
mod outcome;
mod port;
mod resident;
mod schedule;
mod serving;
mod simtable;
mod spans;
mod stats;
mod steady;

use std::process::ExitCode;

use catalog::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use outcome::{peak_rss_mb, Args, Outcome};
use serving::Substrate;

const DEFAULT_SECONDS: f64 = 20.0;

struct Cli {
    workload: Option<String>,
    list: bool,
    args: Args,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        list: false,
        args: Args {
            seed: 42,
            seconds: DEFAULT_SECONDS,
            trace: false,
        },
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--list" => cli.list = true,
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.args.seconds > 0.0 && cli.args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                cli.args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn list() {
    for w in &WORKLOADS {
        println!("workload\t{}\t\t\t{}", w.name, w.why);
    }
    for (kind, metrics) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        for m in metrics {
            println!("{kind}\t{}\t{}\t{}\t{}", m.name, m.unit, m.better, m.note);
        }
    }
}

fn run_workload(name: &str, args: Args) -> Option<Outcome> {
    Some(match name {
        "convoy_thread" => serving::run(Substrate::Thread, args),
        "scan_async" => serving::run(Substrate::Async, args),
        "resident_decide" => resident::run(args),
        "steady_emit" => steady::run(args),
        "sim_table2" => simtable::run(args),
        _ => return None,
    })
}

/// The driver's result object: `metrics` holds exactly `wanted`, a layer the
/// workload bypasses reading 0.
fn result_line(out: &Outcome, wanted: &[Metric], correct: bool) -> String {
    let metrics: Vec<String> = wanted
        .iter()
        .map(|m| {
            let value = out.metrics.get(m.name).copied().unwrap_or(0.0);
            format!(
                r#""{}": {{"value": {value}, "unit": "{}"}}"#,
                m.name, m.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn one(name: &str, args: Args) -> ExitCode {
    let cores = std::thread::available_parallelism().map_or(0, |p| p.get());
    println!(
        "# workload {name} seed {} seconds {} trace {} cores {cores}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let Some(mut out) = run_workload(name, args) else {
        eprintln!("unknown workload {name}; --list names them");
        return ExitCode::from(2);
    };
    out.set("peak_rss_mb", peak_rss_mb());
    if let (true, Some(&rate)) = (args.trace, out.metrics.get("work_per_s")) {
        out.set("bench.work_per_s_traced", rate);
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        if let Some(value) = out.metrics.get(m.name) {
            println!("{:<34} {value:>16.4} {}", m.name, m.unit);
        }
    }
    for m in &END_TO_END {
        let value = out.metrics.get(m.name).copied();
        out.check(value.is_some_and(|v| v > 0.0), || {
            format!("end-to-end metric {} is missing or zero", m.name)
        });
    }
    for note in &out.notes {
        println!("note: {note}");
    }
    for error in &out.errors {
        println!("error: {error}");
    }
    let correct = out.errors.is_empty();
    let wanted = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    println!("{}", result_line(&out, wanted, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `core.decision_hash` a run printed, if its workload has one.
fn printed_decision_hash(stdout: &str) -> Option<&str> {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("core.decision_hash"))?;
    line.split_whitespace().nth(1)
}

/// Every workload, untraced then traced, each in a fresh process so its
/// `peak_rss_mb` is its own. Where decisions are deterministic
/// (`resident_decide`, `sim_table2`) the two runs must print one hash.
fn all(args: Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let mut failed = Vec::new();
    for w in &WORKLOADS {
        let mut hashes = Vec::new();
        for trace in ["0", "1"] {
            let run = std::process::Command::new(&exe)
                .args(["--workload", w.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .stderr(std::process::Stdio::inherit())
                .output()
                .expect("re-exec the benchmark");
            let stdout = String::from_utf8_lossy(&run.stdout);
            print!("{stdout}");
            hashes.push(printed_decision_hash(&stdout).map(str::to_string));
            if !run.status.success() {
                failed.push(format!("{} --trace {trace}", w.name));
            }
        }
        if hashes[0] != hashes[1] {
            failed.push(format!(
                "{}: core.decision_hash {:?} untraced, {:?} traced",
                w.name, hashes[0], hashes[1]
            ));
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if cli.list {
        list();
        return ExitCode::SUCCESS;
    }
    match &cli.workload {
        Some(name) => one(name, cli.args),
        None => all(cli.args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let c = cli(&[
            "--workload",
            "steady_emit",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload.as_deref(), Some("steady_emit"));
        assert_eq!((c.args.seed, c.args.seconds, c.args.trace), (9, 10.0, true));
        assert!(cli(&["--trace", "2"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--bogus"]).is_err());
        assert!(run_workload("nope", c.args).is_none());
    }

    #[test]
    fn finds_the_decision_hash_a_run_printed() {
        let stdout = "work_per_s   1.0 1/s\ncore.decision_hash     123456789.0000 count\n";
        assert_eq!(printed_decision_hash(stdout), Some("123456789.0000"));
        assert_eq!(printed_decision_hash("work_per_s 1.0 1/s\n"), None);
    }

    #[test]
    fn result_line_carries_exactly_the_wanted_metrics() {
        let mut out = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        out.set("setup_s", 0.5);
        out.set("core.emit.calls", 3.0);
        let line = result_line(&out, &END_TO_END, true);
        assert!(line.starts_with(r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}, "#));
        assert!(!line.contains("core.emit.calls"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        let layers = result_line(&out, &PER_LAYER, false);
        assert!(layers.contains(r#""core.emit.calls": {"value": 3, "unit": "count"}"#));
        assert!(layers.contains(r#""core.tick.calls": {"value": 0, "unit": "count"}"#));
        assert_eq!(layers.matches("\"value\"").count(), PER_LAYER.len());
    }
}
