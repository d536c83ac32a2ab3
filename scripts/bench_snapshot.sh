#!/usr/bin/env bash
# Runs the tracing and policy criterion benches and distills the
# BENCHRESULT lines into BENCH_trace.json, the perf trajectory record
# later PRs compare against; then runs the live-harness smoke bench and
# distills it into BENCH_live.json; then sweeps the capacity_smoke
# descriptor's offered-load ramp into BENCH_capacity.json (knee rps per
# substrate, static vs adaptive controller delta).
#
# Usage: scripts/bench_snapshot.sh [output.json] [live_output.json] [capacity.json]
#
# Each bench harness prints one machine-readable line per benchmark:
#   BENCHRESULT {"id":"group/name","ns_per_iter":X,"iters":N[,"elements_per_sec":Y]}

set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_trace.json}"
live_out="${2:-BENCH_live.json}"
capacity_out="${3:-BENCH_capacity.json}"
raw="$(mktemp)"
live_raw="$(mktemp)"
trap 'rm -f "$raw" "$live_raw"' EXIT

# Runs one bench and appends its BENCHRESULT lines to $2. Fails the whole
# script (so no partial BENCH_*.json is ever written) if the bench binary
# fails to build/run or emits no results.
run_bench() {
    local bench="$1" dest="$2" lines
    echo "== cargo bench --bench $bench" >&2
    if ! lines="$(cargo bench -p atropos-bench --bench "$bench" | tee /dev/stderr)"; then
        echo "error: cargo bench --bench $bench failed" >&2
        exit 1
    fi
    if ! grep '^BENCHRESULT ' <<<"$lines" >>"$dest"; then
        echo "error: bench $bench emitted no BENCHRESULT lines" >&2
        exit 1
    fi
}

run_bench tracing "$raw"
run_bench policy "$raw"
run_bench live "$live_raw"
run_bench async_live "$live_raw"

python3 - "$raw" "$out" <<'PY'
import json
import os
import sys

raw_path, out_path = sys.argv[1], sys.argv[2]
rows = {}
with open(raw_path) as f:
    for line in f:
        if line.startswith("BENCHRESULT "):
            rec = json.loads(line[len("BENCHRESULT "):])
            rows[rec["id"]] = rec


def ns(bench_id):
    return rows[bench_id]["ns_per_iter"] if bench_id in rows else None


def eps(bench_id):
    return rows.get(bench_id, {}).get("elements_per_sec")


def ratio(num, den):
    return round(num / den, 2) if num and den else None


contended = {
    "lockfree": {
        ts: {t: eps(f"contended_ingest/lockfree/{ts}/{t}threads") for t in (1, 4, 8)}
        for ts in ("sampled", "precise")
    }
}

lockfree_push_ns = ns("ingest_emit/lockfree_push")
steady_system = ns("tracing/steady_request/system_clock")
steady_virtual = ns("tracing/steady_request/virtual_clock")
drain = rows.get("tick_drain/emit_and_drain_1024", {})
drain_ns_per_event = round(drain["ns_per_iter"] / 1024, 2) if drain else None

cores = os.cpu_count()

# Multi-core emit-phase scaling curves (persistent producer teams, emit
# phase only, background drainer — see atropos_bench::scaling). Parallel
# efficiency eps(N)/(N*eps(1)) only means anything when each producer
# (plus the drainer) can have its own core, so every entry carries a
# degenerate flag; the ingest_scaling guard test applies the same gate.
PRODUCER_COUNTS = (1, 2, 4, 8)
emit_scaling = {"cores": cores, "degenerate_below_producers_plus_one_cores": True}
base = eps("emit_scaling/lockfree/1producers")
curve = {}
for n in PRODUCER_COUNTS:
    e = eps(f"emit_scaling/lockfree/{n}producers")
    curve[f"{n}_producers"] = {
        "events_per_sec": e,
        "efficiency_vs_1": (
            round(e / (n * base), 3) if e and base else None
        ),
        "degenerate": cores is None or cores < n + 1,
    }
emit_scaling["lockfree"] = curve

notes = (
    "Measured on a {}-core container. The figure that matters here is "
    "emit_path_ns_per_event.lockfree_push: per-event work on the "
    "producer-visible path is a bounded append — a wait-free seqlock-cell "
    "claim — and shares no lock at all (producers serialize only on their "
    "own lane's cursor). The history that led here (direct apply under the "
    "global lock 77 ns, stripe-locked append 24.8 ns, lock-free 17.2 ns) "
    "is kept in CHANGES.md."
).format(cores)
if cores is None or cores < 2:
    notes += (
        " With a single core no lock is ever actually contended and no "
        "two producers ever run in parallel (they timeslice instead of "
        "colliding), so every contended_* and emit_scaling figure below "
        "is marked degenerate: they say nothing about parallel "
        "efficiency. Regenerate "
        "on a multi-core host for meaningful scaling curves."
    )

snapshot = {
    "schema": "bench_trace/v5",
    "hardware": {"cores": cores},
    "contended_ingest_events_per_sec": contended,
    # Degenerate when cores < 2: a single core cannot create contention,
    # so these figures measure timeslicing.
    "contended_degenerate": cores is None or cores < 2,
    # Per-event work on the producer-visible path: a bounded lane append.
    "emit_path_ns_per_event": {"lockfree_push": lockfree_push_ns},
    "emit_scaling": emit_scaling,
    "tick_drain": {
        "ns_per_event": drain_ns_per_event,
        "events_per_sec": eps("tick_drain/emit_and_drain_1024"),
    },
    "single_thread_api_ns": {
        k.split("/", 1)[1]: ns(k)
        for k in rows
        if k.startswith("tracing/")
    },
    # One whole steady_emit request (create, start, 8 get/free pairs,
    # progress, finish, free) on the system clock and on a virtual one
    # whose reads cost next to nothing: the difference is the clock's
    # share of a request.
    "steady_request": {
        "system_clock_ns": steady_system,
        "virtual_clock_ns": steady_virtual,
        "clock_share_pct": (
            round(100 * (1 - steady_virtual / steady_system), 1)
            if steady_system and steady_virtual
            else None
        ),
    },
    "policy_index_ns": {
        k.split("/", 1)[1]: ns(k) for k in rows if k.startswith("policy_index/")
    },
    # Where a tick's time goes, from the runtime's in-tree phase timer:
    # mean ns per tick and phase with 1k/4k/16k parked MEMORY holders
    # around 256 touched tasks (atropos_bench::tickload). The section
    # carries its own core count: it may be re-recorded apart from the
    # rest of this file.
    "tick_phases": {
        "hardware": {"cores": cores},
        "touched_tasks": 256,
        **{
            kind: {
                str(n): {
                    part: ns(f"tick_phases/{kind}/{n}/{part}")
                    for part in (
                        "tick", "drain", "roll", "detect", "refresh", "select", "actuate"
                    )
                }
                for n in (1024, 4096, 16384)
            }
            for kind in ("idle", "overloaded")
        },
    },
    # Scaling record for the policy index: selection for each policy kind
    # at 16384 busy tasks over 1024 (the policy_scaling guard test holds
    # it <= 64x; linear is 16x), and the delta refresh showing
    # steady-state tick cost tracking the visit set, not the population.
    "policy_scaling": {
        "select_16384_vs_1024": {
            kind: ratio(
                ns(f"policy_index/select/{kind}/16384"),
                ns(f"policy_index/select/{kind}/1024"),
            )
            for kind in ("multi_objective", "heuristic", "current_usage")
        },
        "full_build_vs_delta_refresh_16384_k16": ratio(
            ns("policy_index/full_build/16384"), ns("policy_index/delta_refresh/16")
        ),
    },
    "notes": notes,
}

with open(out_path, "w") as f:
    json.dump(snapshot, f, indent=2)
    f.write("\n")
print(f"wrote {out_path}", file=sys.stderr)
PY

python3 - "$live_raw" "$live_out" <<'PY'
import json
import os
import sys

raw_path, out_path = sys.argv[1], sys.argv[2]
rows = {}
with open(raw_path) as f:
    for line in f:
        if line.startswith("BENCHRESULT "):
            rec = json.loads(line[len("BENCHRESULT "):])
            rows[rec["id"]] = rec


def ns(bench_id):
    return rows[bench_id]["ns_per_iter"] if bench_id in rows else None


cores = os.cpu_count()
baseline_p99 = ns("live/victim_p99/no_control")
atropos_p99 = ns("live/victim_p99/atropos")
async_baseline_p99 = ns("async_live/victim_p99/no_control")
async_atropos_p99 = ns("async_live/victim_p99/atropos")
snapshot = {
    # v3: the round-trips below measure the serving core's one `Gate`
    # (thread: `block_on(gate.acquire(..))`; async: the same future spawned
    # on the inline executor), not the two per-substrate lock types v2
    # measured.
    "schema": "bench_live/v3",
    "hardware": {"cores": cores},
    "traced_lock_roundtrip_ns": ns("live/traced_lock_roundtrip"),
    "victim_p99_ns": {"no_control": baseline_p99, "atropos": atropos_p99},
    "victim_p99_improvement": (
        round(baseline_p99 / atropos_p99, 2) if baseline_p99 and atropos_p99 else None
    ),
    "time_to_cancel_ns": ns("live/time_to_cancel"),
    # Same overload on the future-drop substrate: cancellation is an
    # executor-delivered future drop instead of a cooperative token flip.
    "async_live": {
        "spawned_lock_roundtrip_ns": ns("async_live/spawned_lock_roundtrip"),
        "victim_p99_ns": {
            "no_control": async_baseline_p99,
            "atropos": async_atropos_p99,
        },
        "victim_p99_improvement": (
            round(async_baseline_p99 / async_atropos_p99, 2)
            if async_baseline_p99 and async_atropos_p99
            else None
        ),
        "time_to_cancel_ns": ns("async_live/time_to_cancel"),
    },
    "notes": (
        "Wall-clock smoke runs of the atropos-live (thread) and "
        "atropos-async (future-drop) harnesses (a ~500 req/s 4-worker "
        "server with one lock-hog culprit): victim p99 with the convoy "
        "running to the stop flag vs cut short by a supervised "
        "cancellation. Auto-detected a {}-core host; absolute numbers are "
        "scheduling-sensitive, the improvement ratios are the stable "
        "signal. traced_lock_roundtrip_ns is an uncontended acquire + "
        "release of the shared Gate driven by block_on: two short critical "
        "sections on the gate's state where the thread-only lock it "
        "replaced did one try_lock (v2 recorded 155 ns on 1 core; the "
        "same-host movement when the Gate went in was 131 -> 166 ns). A "
        "victim request does two of them against a ~360 us p50."
    ).format(cores),
}

with open(out_path, "w") as f:
    json.dump(snapshot, f, indent=2)
    f.write("\n")
print(f"wrote {out_path}", file=sys.stderr)
PY

# Capacity sweep: the capacity binary writes the final JSON itself
# (schema bench_capacity/v1); set -e fails the script if the sweep dies.
# The validation pass after it fails loud if the payload is missing the
# knee curves or the static-vs-adaptive comparison, so a truncated or
# schema-drifted artifact can never pass silently.
echo "== capacity --workload capacity_smoke" >&2
cargo run --release -p atropos-bench --bin capacity -- \
    --workload capacity_smoke --quick --out "$capacity_out"

python3 - "$capacity_out" <<'PY'
import json
import sys

path = sys.argv[1]
snap = json.load(open(path))
if snap.get("schema") != "bench_capacity/v1":
    sys.exit(f"error: {path}: unexpected schema {snap.get('schema')!r}")
subs = snap.get("substrates") or []
if not subs:
    sys.exit(f"error: {path}: no substrate knee curves")
print(f"capacity knees ({snap['workload']}):", file=sys.stderr)
for curve in subs:
    for key in ("substrate", "knee_rps", "steps"):
        if key not in curve:
            sys.exit(f"error: {path}: substrate curve missing {key!r}")
    print(f"  {curve['substrate']:>7}: knee {curve['knee_rps']} rps "
          f"({len(curve['steps'])} steps)", file=sys.stderr)
avs = snap.get("adaptive_vs_static")
if avs is None:
    sys.exit(f"error: {path}: missing adaptive_vs_static section")
for key in ("best_static_knee_rps", "adaptive_knee_rps", "adaptive_delta_rps"):
    if key not in avs:
        sys.exit(f"error: {path}: adaptive_vs_static missing {key!r}")
print(f"  adaptive: knee {avs['adaptive_knee_rps']} rps "
      f"(best static {avs['best_static_knee_rps']}, "
      f"delta {avs['adaptive_delta_rps']})", file=sys.stderr)
print(f"wrote {path}", file=sys.stderr)
PY
