//! Workspace-level integration tests: the whole stack from workload
//! generation through the Atropos runtime to cancellation and reporting,
//! exercised across crates exactly the way the benchmark harness uses it.

use atropos_scenarios::{all_cases, calibrate, run_with, ControllerKind, RunConfig};

fn rc() -> RunConfig {
    RunConfig::quick(7)
}

#[test]
fn every_case_baseline_is_healthy() {
    let config = rc();
    let results = atropos_scenarios::runner::parallel_map(all_cases(), |case| {
        let b = calibrate(&case, &config);
        (case.id, case.base_qps, b)
    });
    for (id, base_qps, b) in results {
        let tput = b.summary.throughput_qps();
        assert!(
            tput > base_qps * 0.95,
            "{id}: baseline throughput {tput:.0} below offered {base_qps}"
        );
        assert_eq!(b.summary.dropped, 0, "{id}: baseline dropped requests");
        assert!(b.slo_ns > b.summary.p99_ns, "{id}: SLO below baseline p99");
    }
}

#[test]
fn atropos_mitigates_every_case() {
    let config = rc();
    let results = atropos_scenarios::runner::parallel_map(all_cases(), |case| {
        let b = calibrate(&case, &config);
        let none = run_with(&case, ControllerKind::None, &config, &b);
        let atropos = run_with(&case, ControllerKind::Atropos, &config, &b);
        (case.id, none, atropos)
    });
    for (id, none, atropos) in results {
        // The uncontrolled run must actually be degraded — otherwise the
        // case reproduces nothing. c2, c9 and c15 accumulate their noisy
        // requests gradually (weighted arrivals of multi-second holders)
        // and only develop within the full-length runs; the full-config
        // fidelity tests in `crates/scenarios` cover them.
        let slow_building = id == "c2" || id == "c9" || id == "c15";
        assert!(
            slow_building || none.normalized.throughput < 0.97 || none.normalized.p99 > 3.0,
            "{id}: uncontrolled run not degraded (tput {:.2}, p99 {:.1})",
            none.normalized.throughput,
            none.normalized.p99
        );
        // Throughput within 8% of baseline and never materially worse
        // than uncontrolled.
        assert!(
            atropos.normalized.throughput > 0.9,
            "{id}: atropos kept only {:.2} of baseline throughput",
            atropos.normalized.throughput
        );
        assert!(
            atropos.normalized.throughput >= none.normalized.throughput - 0.05,
            "{id}: atropos ({:.2}) worse than uncontrolled ({:.2})",
            atropos.normalized.throughput,
            none.normalized.throughput
        );
        // Targeted cancellation, minimal drops (paper: <0.01%; we allow
        // an order of safety margin for the compressed timeline).
        assert!(
            atropos.normalized.drop_rate < 0.005,
            "{id}: drop rate {:.4}",
            atropos.normalized.drop_rate
        );
        // Tail latency no worse than the uncontrolled run.
        assert!(
            atropos.normalized.p99 <= none.normalized.p99 * 1.5 + 2.0,
            "{id}: atropos p99 {:.1} vs uncontrolled {:.1}",
            atropos.normalized.p99,
            none.normalized.p99
        );
    }
}

#[test]
fn atropos_beats_every_comparison_system_on_average() {
    // A coarse version of Figure 9's headline: averaged over a sample of
    // cases, Atropos' normalized throughput exceeds each alternative's.
    let config = rc();
    let picks = ["c1", "c5", "c9", "c12", "c16"];
    let cases: Vec<_> = all_cases()
        .into_iter()
        .filter(|c| picks.contains(&c.id))
        .collect();
    let kinds = ControllerKind::comparison_set();
    let results = atropos_scenarios::runner::parallel_map(cases, |case| {
        let b = calibrate(&case, &config);
        kinds
            .iter()
            .map(|&k| run_with(&case, k, &config, &b).normalized.throughput)
            .collect::<Vec<_>>()
    });
    let n = results.len() as f64;
    let mut avgs = vec![0.0f64; kinds.len()];
    for r in &results {
        for (i, v) in r.iter().enumerate() {
            avgs[i] += v / n;
        }
    }
    let atropos = avgs[0];
    for (i, k) in kinds.iter().enumerate().skip(1) {
        assert!(
            atropos > avgs[i],
            "Atropos avg {:.2} not above {} avg {:.2}",
            atropos,
            k.label(),
            avgs[i]
        );
    }
    assert!(atropos > 0.9, "Atropos average {atropos:.2}");
}

#[test]
fn policy_ablation_multi_objective_never_loses_badly() {
    let config = rc();
    let picks = ["c1", "c11"];
    let cases: Vec<_> = all_cases()
        .into_iter()
        .filter(|c| picks.contains(&c.id))
        .collect();
    let results = atropos_scenarios::runner::parallel_map(cases, |case| {
        let b = calibrate(&case, &config);
        let multi = run_with(&case, ControllerKind::Atropos, &config, &b);
        let heur = run_with(&case, ControllerKind::AtroposHeuristic, &config, &b);
        (case.id, multi, heur)
    });
    for (id, multi, heur) in results {
        assert!(
            multi.normalized.throughput >= heur.normalized.throughput - 0.05,
            "{id}: multi-objective {:.2} vs heuristic {:.2}",
            multi.normalized.throughput,
            heur.normalized.throughput
        );
    }
}

#[test]
fn metrics_snapshot_is_internally_consistent_across_cases() {
    // Every case run under the decision-trace observer must produce a
    // metrics snapshot whose counters satisfy the structural relations
    // the pipeline guarantees: at most one detection per tick, a blame
    // preceding every policy cancel, and a histogram that accounts for
    // exactly the completed cancellations. `consistency_errors` encodes
    // those relations; this asserts them end-to-end rather than on
    // synthetic events. With `E2E_METRICS_OUT=<dir>` set, each case's
    // snapshot is also written as JSON (the CI build artifact).
    let config = rc();
    let out_dir = std::env::var("E2E_METRICS_OUT").ok();
    let results = atropos_scenarios::runner::parallel_map(all_cases(), |case| {
        let b = calibrate(&case, &config);
        let run = atropos_scenarios::run_atropos_observed(&case, &config, &b);
        (case.id, run.metrics, run.episodes.len())
    });
    for (id, m, n_episodes) in results {
        let errs = m.consistency_errors();
        assert!(errs.is_empty(), "{id}: inconsistent metrics: {errs:?}");
        assert!(m.ticks > 0, "{id}: observer saw no ticks");
        assert!(m.detections <= m.ticks, "{id}: detections > ticks");
        assert!(m.blames <= m.detections, "{id}: blames > detections");
        assert!(
            m.cancels_issued_policy <= m.blames,
            "{id}: policy cancels {} > blames {}",
            m.cancels_issued_policy,
            m.blames
        );
        let hist: u64 = m.time_to_cancel_buckets.iter().sum();
        assert_eq!(
            hist, m.cancels_completed,
            "{id}: TTC histogram holds {hist} samples but {} cancels completed",
            m.cancels_completed
        );
        if m.cancels_issued_policy + m.cancels_issued_operator > 0 {
            assert!(n_episodes > 0, "{id}: cancels issued but no episodes");
        }
        // The exporters must render every relation-bearing counter.
        let text = m.prometheus_text();
        for metric in [
            "atropos_ticks",
            "atropos_detections",
            "atropos_cancels_issued",
            "atropos_tick_phase_ns_count{phase=\"roll\"}",
        ] {
            assert!(text.contains(metric), "{id}: {metric} missing:\n{text}");
        }
        if let Some(dir) = &out_dir {
            std::fs::create_dir_all(dir).expect("create E2E_METRICS_OUT dir");
            let path = std::path::Path::new(dir).join(format!("{id}_metrics.json"));
            std::fs::write(&path, m.to_json()).expect("write metrics snapshot");
        }
    }
}

#[test]
fn runs_are_deterministic_for_equal_seeds() {
    let case = all_cases().into_iter().next().expect("c1");
    let config = rc();
    let b1 = calibrate(&case, &config);
    let b2 = calibrate(&case, &config);
    assert_eq!(b1.summary.completed, b2.summary.completed);
    assert_eq!(b1.summary.p99_ns, b2.summary.p99_ns);
    let r1 = run_with(&case, ControllerKind::Atropos, &config, &b1);
    let r2 = run_with(&case, ControllerKind::Atropos, &config, &b2);
    assert_eq!(r1.summary.completed, r2.summary.completed);
    assert_eq!(r1.summary.canceled, r2.summary.canceled);
    assert_eq!(r1.summary.p99_ns, r2.summary.p99_ns);
}

#[test]
fn different_seeds_still_mitigate() {
    let case = all_cases().into_iter().next().expect("c1");
    for seed in [1u64, 99, 2026] {
        let config = RunConfig::quick(seed);
        let b = calibrate(&case, &config);
        let r = run_with(&case, ControllerKind::Atropos, &config, &b);
        assert!(
            r.normalized.throughput > 0.9,
            "seed {seed}: kept only {:.2}",
            r.normalized.throughput
        );
    }
}
