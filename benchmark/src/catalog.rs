//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction, and — for a layer metric — the end-to-end metric it should
//! move and where. `BENCHMARK.json` restates the names, units and directions;
//! a unit test keeps the two in step.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "convoy_thread",
        why: "open loop 500 rps on the thread server with lock-hog culprits: LOCK blame and token cancellation do the work, the emit path almost none",
    },
    Workload {
        name: "scan_async",
        why: "same load on the async executor with buffer-scan culprits: MEMORY blame from evictions, cancel = future drop, a misblamed victim is really dropped",
    },
    Workload {
        name: "resident_decide",
        why: "core alone on a virtual clock, 16384 resident tasks and a hog every 4th window: tick/index/policy own the wall time, live/async/appsim are bypassed",
    },
    Workload {
        name: "steady_emit",
        why: "healthy app, closed-loop producers against a 10 ms ticker at 0 then 16384 resident tasks: emit/ingest/lifecycle dominate, policy never runs",
    },
    Workload {
        name: "sim_table2",
        why: "the 16 Table 2 cases, calibrate + Atropos, single thread on the virtual clock: the only workload where appsim, simcore, glue and descriptors do the work",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// What the number is; for a layer metric, also which end-to-end metric
    /// it should move and on which workload.
    pub note: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        note,
    }
}

/// Reported by every workload with `--trace 0`. The four generic slots mean,
/// per workload, what README.md tabulates.
pub const END_TO_END: [Metric; 6] = [
    m("setup_s", "s", "lower", "median of the run's set-ups: build the program's stack and warm it up"),
    m("peak_rss_mb", "MB", "lower", "VmHWM of the benchmark process at exit"),
    m("work_per_s", "1/s", "higher", "useful work per wall second: victims inside the SLO | windows | requests (0 resident) | simulated requests"),
    m("latency_p50_ms", "ms", "lower", "median: victim latency from due time | overloaded tick(), median segment | request at 16384 resident | geomean of the cases' p50 (virtual)"),
    m("latency_tail_ms", "ms", "lower", "tail: median latency of the victims that missed the SLO | overloaded tick() p90, median segment | request p99.99 at 16384 resident | the median case's p99 (virtual)"),
    m("goal_met_pct", "%", "higher", "share of offered work that met its goal: victims inside the SLO | short tasks done in their own window | requests neither cancelled nor ignored | mean normalized throughput"),
];

/// Reported by every workload with `--trace 1`; 0 where a layer is bypassed.
pub const PER_LAYER: [Metric; 74] = [
    m("core.emit.calls", "count", "lower", "get/free/slow_by/progress/unit_*/record_drop calls -> work_per_s on steady_emit; no movement predicted on the serving workloads (sleep-bound) or resident_decide (<10% of wall)"),
    m("core.emit.busy_ms", "ms", "lower", "wall time inside those calls -> work_per_s on steady_emit"),
    m("core.emit.ns_per_call", "ns", "lower", "busy / calls -> work_per_s on steady_emit"),
    m("core.lifecycle.calls", "count", "lower", "create_cancel/free_cancel calls -> work_per_s on steady_emit"),
    m("core.lifecycle.busy_ms", "ms", "lower", "wall time inside them, waiting on the global lock included -> work_per_s on steady_emit"),
    m("core.lifecycle.ns_per_call", "ns", "lower", "busy / calls -> work_per_s, latency_p50_ms on steady_emit"),
    m("core.lifecycle.p99_us", "us", "lower", "p99 of one call: the stall behind a tick -> latency_tail_ms on steady_emit"),
    m("core.tick.calls", "count", "higher", "tick() calls"),
    m("core.tick.busy_ms", "ms", "lower", "wall time inside tick() -> work_per_s on resident_decide"),
    m("core.tick.wall_share_pct", "%", "lower", "tick busy / measured wall: who owns the 16k-task floor on resident_decide"),
    m("core.tick.idle_p50_us", "us", "lower", "tick() with outcome Idle -> latency_tail_ms on steady_emit (16384 resident)"),
    m("core.tick.idle_p99_us", "us", "lower", "same, p99"),
    m("core.tick.overload_p50_us", "us", "lower", "tick() with outcome Regular/ResourceOverload, initiator callback excluded -> latency_p50_ms, work_per_s on resident_decide"),
    m("core.tick.overload_p99_us", "us", "lower", "same, p99 -> latency_tail_ms on resident_decide"),
    m("core.tick.late_p99_us", "us", "lower", "tick start-to-start interval beyond the period -> cancel.time_to_cancel_p50_ms on the serving workloads"),
    m("core.tick.candidate_share_pct", "%", "lower", "overloaded ticks / ticks"),
    m("core.cancel.issued", "count", "lower", "cancellations the runtime issued"),
    m("core.cancel.delivered", "count", "lower", "cancel(key) calls that reached the application's initiator"),
    m("core.cancel.precision_pct", "%", "higher", "culprit keys / issued -> goal_met_pct on scan_async"),
    m("core.cancel.deliver_us", "us", "lower", "median time inside the application's initiator"),
    m("core.stats.ignored_events", "count", "lower", "events the runtime ignored or shed"),
    m("core.stats.mid_window_flushes", "count", "lower", "ingest drains forced between ticks"),
    m("core.decision_hash", "count", "lower", "FNV-1a of the ordered cancelled keys, mod 1e9: equal seeds must give equal values on resident_decide and sim_table2"),
    m("stage.queue_p50_ms", "ms", "lower", "culprit due -> create_cancel seen at the port -> cancel.time_to_release_*"),
    m("stage.queue_p80_ms", "ms", "lower", "same, p80"),
    m("stage.detect_p50_ms", "ms", "lower", "create_cancel -> start of the first overloaded tick -> cancel.time_to_cancel_p50_ms, latency_tail_ms"),
    m("stage.detect_p80_ms", "ms", "lower", "same, p80"),
    m("stage.decide_p50_ms", "ms", "lower", "that tick's start -> cancel(key) entry -> cancel.time_to_cancel_p50_ms"),
    m("stage.decide_p80_ms", "ms", "lower", "same, p80"),
    m("stage.unwind_p50_ms", "ms", "lower", "cancel(key) entry -> culprit's free_cancel returned -> cancel.time_to_release_*"),
    m("stage.unwind_p80_ms", "ms", "lower", "same, p80"),
    m("stage.drain_p50_ms", "ms", "lower", "release -> last victim due before it retired -> latency_tail_ms"),
    m("stage.drain_p80_ms", "ms", "lower", "same, p80"),
    m("cancel.episodes", "count", "higher", "culprit episodes measured"),
    m("cancel.time_to_cancel_p50_ms", "ms", "lower", "culprit handler start -> initiator delivery (= detect + decide) -> latency_tail_ms on the serving workloads"),
    m("cancel.time_to_release_p50_ms", "ms", "lower", "culprit due -> culprit retired, resource back (= queue + detect + decide + unwind)"),
    m("cancel.time_to_release_p80_ms", "ms", "lower", "same, p80: the highest percentile ~48 episodes support"),
    m("victim.p50_ms", "ms", "lower", "victim latency from due time in the traced run"),
    m("victim.p99_ms", "ms", "lower", "same, p99"),
    m("victim.slo_miss_pct", "%", "lower", "victims offered that finished after the 10 ms SLO, were dropped, or never finished"),
    m("victim.dropped", "count", "lower", "victims cancelled by misblame (counted as SLO misses, not failures)"),
    m("live.queue_wait_p50_us", "us", "lower", "due -> worker pickup on convoy_thread -> latency_tail_ms"),
    m("live.queue_wait_p99_us", "us", "lower", "same, p99"),
    m("live.service_p50_us", "us", "lower", "create_cancel -> free_cancel minus port calls on convoy_thread -> latency_p50_ms"),
    m("live.service_p99_us", "us", "lower", "same, p99"),
    m("live.port_calls_per_request", "count", "lower", "port calls per victim on convoy_thread"),
    m("async-live.queue_wait_p50_us", "us", "lower", "due -> admission on scan_async -> latency_tail_ms"),
    m("async-live.queue_wait_p99_us", "us", "lower", "same, p99"),
    m("async-live.service_p50_us", "us", "lower", "create_cancel -> free_cancel minus port calls on scan_async -> latency_p50_ms"),
    m("async-live.service_p99_us", "us", "lower", "same, p99"),
    m("async-live.port_calls_per_request", "count", "lower", "port calls per victim on scan_async"),
    m("obs.events_recorded", "count", "lower", "decision events the flight recorder took"),
    m("obs.events_dropped", "count", "lower", "decision events it dropped or overwrote"),
    m("obs.episodes", "count", "lower", "decision episodes folded at the end of the run"),
    m("obs.drain_ms", "ms", "lower", "time to drain and fold them"),
    m("workload.parse_ms", "ms", "lower", "first descriptor lookup (parses the corpus) -> setup_s"),
    m("scenarios.calibrate_ms", "ms", "lower", "wall time in calibrate() over the sweep -> work_per_s on sim_table2"),
    m("scenarios.run_ms", "ms", "lower", "wall time in the Atropos runs over the sweep -> work_per_s on sim_table2"),
    m("appsim.glue.calls", "count", "lower", "controller hooks the sim server invoked"),
    m("appsim.glue.busy_ms", "ms", "lower", "time in those hooks minus time in the port -> work_per_s on sim_table2"),
    m("appsim.server.busy_ms", "ms", "lower", "Atropos-run wall minus hooks: the sim server and simcore -> work_per_s on sim_table2"),
    m("appsim.requests", "count", "higher", "simulated client requests offered over the sweep"),
    m("simcore.trace_events", "count", "lower", "resource trace events the sim servers emitted"),
    m("sim.norm_throughput_mean", "ratio", "higher", "mean over the 16 cases of throughput / calibrated baseline (Fig. 10)"),
    m("sim.norm_p99_geomean", "ratio", "lower", "geomean over the 16 cases of p99 / calibrated baseline (Fig. 10)"),
    m("sim.cases_under_0.9", "count", "lower", "cases whose normalized throughput fell under 0.9 (each is a failed operation)"),
    m("emit.requests_per_s_r16k", "1/s", "higher", "same with 16384 resident tasks: idle ticks stealing the global lock"),
    m("emit.request_p50_us_r0", "us", "lower", "median request with 0 resident tasks"),
    m("decide.hogs_cancelled_pct", "%", "higher", "hogs cancelled by the first tick after they arrived"),
    m("decide.misblames", "count", "lower", "cancellations delivered for a task that was not a hog"),
    m("bench.generator_late_p99_us", "us", "lower", "how late the open-loop generator offered a request"),
    m("bench.spans", "count", "lower", "spans written to results/benchmark/<workload>.spans.json"),
    m("bench.work_per_s_traced", "1/s", "higher", "work_per_s of this traced run (windows/s on resident_decide, requests/s at 0 resident on steady_emit, …); against the untraced one it gives the tracing overhead"),
    m("bench.threads", "count", "lower", "threads in the process while load was offered"),
];

pub fn is_end_to_end(name: &str) -> bool {
    END_TO_END.iter().any(|m| m.name == name)
}

pub fn is_per_layer(name: &str) -> bool {
    PER_LAYER.iter().any(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name": "..."` values of `BENCHMARK.json`, in file order. The
    /// file is flat enough that a scan beats depending on a JSON parser.
    fn json_names(text: &str) -> Vec<String> {
        text.split("\"name\":")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json_and_the_naming_rule() {
        let text = include_str!("../../BENCHMARK.json");
        let ours: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert_eq!(json_names(text), ours);
        let mut seen = std::collections::HashSet::new();
        for name in &ours {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16 && matches!(m.better, "lower" | "higher"));
            let entry = format!(
                r#""name": "{}", "unit": "{}", "better": "{}""#,
                m.name, m.unit, m.better
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && text.contains(w.why), "{}", w.name);
        }
    }

    #[test]
    fn readme_lists_every_name() {
        let readme = include_str!("../README.md");
        let names = WORKLOADS.iter().map(|w| w.name);
        let metrics = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name);
        for name in names.chain(metrics) {
            assert!(readme.contains(&format!("| `{name}` |")), "{name}");
        }
    }
}
