//! Long-soak chaos driver.
//!
//! Runs seeded fault plans through the scripted scenarios with every
//! invariant checked after every tick, and exits nonzero with a seed +
//! minimized plan on the first violation.
//!
//! ```text
//! chaos [--scenario lock_hog|buffer_scan|ticket_queue|all|async_live] [--seed N]
//!       [--plans N] [--load N] [--quiet-only] [--episodes]
//! ```
//!
//! `--scenario async_live` soaks the wall-clock async substrate behind
//! armed fault plans instead of the scripted virtual-clock scenarios
//! (plan `i` exercises scenario family `i % 3`), validating the quiesced
//! invariants after every run.
//!
//! `--episodes` dumps each run's folded decision episodes (why every
//! cancellation was issued) — the flight recorder's audit trail.
//!
//! The base seed defaults to `$CHAOS_SEED` (so CI can randomize per run),
//! then 42. Plan `i` uses seed `base + i`. The chosen base seed is always
//! printed, so any CI failure is replayable with `--seed`.

use std::process::ExitCode;

use atropos_chaos::{run_async_scenario, run_checked, FaultPlan};
use atropos_substrate::ScenarioFamily;

struct Args {
    scenarios: Vec<ScenarioFamily>,
    async_live: bool,
    seed: u64,
    plans: u64,
    load: u64,
    quiet_only: bool,
    episodes: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scenarios: ScenarioFamily::ALL.to_vec(),
        async_live: false,
        seed: std::env::var("CHAOS_SEED")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(42),
        plans: 100,
        load: 1,
        quiet_only: false,
        episodes: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--scenario" => {
                let v = value("--scenario")?;
                args.scenarios = match v.as_str() {
                    "lock_hog" | "lock-hog" => vec![ScenarioFamily::LockHog],
                    "buffer_scan" | "buffer-scan" => vec![ScenarioFamily::BufferScan],
                    "ticket_queue" | "ticket-queue" => vec![ScenarioFamily::TicketQueue],
                    "all" => ScenarioFamily::ALL.to_vec(),
                    "async_live" | "async-live" => {
                        args.async_live = true;
                        vec![]
                    }
                    other => return Err(format!("unknown scenario {other:?}")),
                };
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--plans" => {
                args.plans = value("--plans")?
                    .parse()
                    .map_err(|e| format!("--plans: {e}"))?
            }
            "--load" => {
                args.load = value("--load")?
                    .parse()
                    .map_err(|e| format!("--load: {e}"))?
            }
            "--quiet-only" => args.quiet_only = true,
            "--episodes" => args.episodes = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("chaos: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "chaos soak: base seed {} | {} plan(s) per scenario | load x{} | scenarios: {}",
        args.seed,
        args.plans,
        args.load,
        if args.async_live {
            "async_live".to_string()
        } else {
            args.scenarios
                .iter()
                .map(|s| s.name())
                .collect::<Vec<_>>()
                .join(",")
        }
    );
    if args.async_live {
        return soak_async(&args);
    }
    let mut runs = 0u64;
    for scenario in &args.scenarios {
        for i in 0..args.plans {
            let seed = args.seed.wrapping_add(i);
            let plan = if args.quiet_only {
                FaultPlan::quiet(seed)
            } else {
                FaultPlan::sample(seed)
            };
            match run_checked(*scenario, &plan, args.load) {
                Ok(out) => {
                    runs += 1;
                    if args.episodes && !out.episodes.is_empty() {
                        println!("  {} seed {} decision episodes:", scenario.name(), seed);
                        for line in atropos_obs::render_episodes(&out.episodes).lines() {
                            println!("    {line}");
                        }
                    }
                    if i == 0 || (i + 1) % 25 == 0 {
                        println!(
                            "  {} seed {} ok: {} faults armed, {} ticks, {} candidates, \
                             hog_canceled={}",
                            scenario.name(),
                            seed,
                            plan.faults.len(),
                            out.ticks,
                            out.candidates,
                            out.hog_canceled
                        );
                    }
                }
                Err(report) => {
                    eprintln!("chaos: FAILED after {runs} clean runs\n{report}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    println!("chaos soak: all {runs} runs clean");
    ExitCode::SUCCESS
}

/// The async fault leg: wall-clock async runs behind armed plans, the
/// quiesced invariants validated after each. Plan `i` (seed `base + i`)
/// exercises scenario family `i % 3`.
fn soak_async(args: &Args) -> ExitCode {
    let mut runs = 0u64;
    for i in 0..args.plans {
        let seed = args.seed.wrapping_add(i);
        let plan = if args.quiet_only {
            FaultPlan::quiet(seed)
        } else {
            FaultPlan::sample(seed)
        };
        let family = ScenarioFamily::ALL[(i % 3) as usize];
        let out = run_async_scenario(family, &plan);
        if let Some(v) = &out.violation {
            eprintln!(
                "chaos: async_live {} seed {seed} FAILED after {runs} clean runs: {v}\n\
                 replay: cargo run -p atropos-chaos --bin chaos -- \
                 --scenario async_live --seed {seed} --plans 1",
                family.name()
            );
            return ExitCode::FAILURE;
        }
        if out.leaked_tasks > 0 {
            eprintln!(
                "chaos: async_live {} seed {seed}: {} task scope(s) leaked",
                family.name(),
                out.leaked_tasks
            );
            return ExitCode::FAILURE;
        }
        runs += 1;
        if args.episodes && !out.report.episodes.is_empty() {
            println!(
                "  async_live {} seed {seed} decision episodes:",
                family.name()
            );
            for line in atropos_obs::render_episodes(&out.report.episodes).lines() {
                println!("    {line}");
            }
        }
        if i == 0 || (i + 1) % 25 == 0 {
            println!(
                "  async_live {} seed {seed} ok: {} faults armed, {} ticks, {} served, \
                 {} cancel(s) issued",
                family.name(),
                plan.faults.len(),
                out.report.ticks,
                out.report.victim.count,
                out.report.canceled_keys.len()
            );
        }
    }
    println!("chaos soak: all {runs} async runs clean");
    ExitCode::SUCCESS
}
