//! `steady_emit`: what the runtime costs an application when nothing is
//! wrong (Fig. 14). Closed-loop producers run instrumented requests against a
//! 10 ms ticker on the system clock — first with no resident tasks, then with
//! 16 384 — and no culprit ever appears, so policy never runs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use atropos::{AtroposConfig, AtroposRuntime, ResourceId, ResourceType, TaskKey, Ticker};
use atropos_sim::{Clock, SystemClock};
use atropos_substrate::{CancelFn, RuntimePort};

use crate::outcome::{proc_status, Args, Outcome};
use crate::port::{BenchPort, PortTotals};
use crate::resident::RESIDENT;
use crate::spans::{self, Span, NO_PARENT};
use crate::stats::{self, Hist};

const TICK_PERIOD: Duration = Duration::from_millis(10);
/// Segments per phase, each on a runtime of its own, so that one process's
/// luck with heap and hash layout is averaged over; a phase's rate is its
/// median segment.
const SEGMENTS: u32 = 5;
/// Set-ups timed before the phases (a runtime of each kind, ≈8 ms the pair);
/// `setup_s` is their median.
const SETUPS: usize = 25;
/// `get`/`free` pairs per request, spread over the three resources.
const PAIRS: usize = 8;
/// Traced, one request in this many is spanned (as four blocks).
const SPAN_EVERY: u64 = 64;

/// One runtime with its resources, ready for a segment.
struct Bed {
    rt: Arc<AtroposRuntime>,
    clock: Arc<SystemClock>,
    rids: [ResourceId; 3],
    cancels: Arc<AtomicU64>,
}

fn set_up(clock: &Arc<SystemClock>, resident: u64) -> Bed {
    let rt = Arc::new(AtroposRuntime::new(AtroposConfig::default(), clock.clone()));
    let rids = [
        rt.register_resource("table_lock", ResourceType::Lock),
        rt.register_resource("buffer_pool", ResourceType::Memory),
        rt.register_resource("tickets", ResourceType::Queue),
    ];
    let cancels = Arc::new(AtomicU64::new(0));
    let seen = cancels.clone();
    let port: &dyn RuntimePort = &*rt;
    port.install_initiator(Arc::new(CancelFn(move |_key: TaskKey| {
        seen.fetch_add(1, Relaxed);
    })));
    for i in 0..resident {
        let t = rt.create_cancel(Some(i));
        rt.get_resource(t, rids[1], 1);
    }
    Bed {
        rt,
        clock: clock.clone(),
        rids,
        cancels,
    }
}

/// What one phase (all its segments) measured.
#[derive(Default)]
struct Phase {
    rates: Vec<f64>,
    requests: u64,
    latency: Hist,
    port: PortTotals,
    spans: Vec<Span>,
    ignored: u64,
    cancels: u64,
    threads: Option<u64>,
    wall_ns: u64,
}

fn run_phase(
    clock: &Arc<SystemClock>,
    resident: u64,
    producers: usize,
    seconds: f64,
    trace: bool,
) -> Phase {
    let mut phase = Phase::default();
    let segment = Duration::from_secs_f64(seconds / f64::from(SEGMENTS));
    for _ in 0..SEGMENTS {
        run_segment(
            &mut phase,
            set_up(clock, resident),
            producers,
            segment,
            trace,
        );
    }
    phase
}

fn run_segment(phase: &mut Phase, bed: Bed, producers: usize, length: Duration, trace: bool) {
    let bench_port = trace.then(|| {
        Arc::new(BenchPort::new(
            bed.rt.clone(),
            bed.clock.clone(),
            true,
            None,
        ))
    });
    let port: Arc<dyn RuntimePort> = match &bench_port {
        Some(p) => p.clone(),
        None => bed.rt.clone(),
    };
    let stop = AtomicBool::new(false);
    let counters: Vec<AtomicU64> = (0..producers).map(|_| AtomicU64::new(0)).collect();
    let tick_port = port.clone();
    let mut ticker = Ticker::spawn_fn(move || tick_port.tick(), TICK_PERIOD, |_| {});
    let from_ns = bed.clock.now_ns();
    std::thread::scope(|s| {
        let handles: Vec<_> = counters
            .iter()
            .map(|done| {
                let (port, bed, stop, latency) = (&port, &bed, &stop, &phase.latency);
                s.spawn(move || produce(port, bed, stop, done, latency, trace))
            })
            .collect();
        let total = || counters.iter().map(|c| c.load(Relaxed)).sum::<u64>();
        let (at, seen) = (Instant::now(), total());
        std::thread::sleep(length);
        let count = total();
        phase
            .rates
            .push((count - seen) as f64 / at.elapsed().as_secs_f64());
        phase.threads = proc_status("Threads:");
        stop.store(true, Relaxed);
        for h in handles {
            spans::append(&mut phase.spans, h.join().expect("producer panicked"));
        }
    });
    ticker.stop();
    phase.wall_ns += bed.clock.now_ns() - from_ns;
    phase.requests += counters.iter().map(|c| c.load(Relaxed)).sum::<u64>();
    phase.ignored += bed.rt.stats().ignored_events;
    phase.cancels += bed.cancels.load(Relaxed);
    if let Some(port) = bench_port {
        phase.port.absorb(port.report());
    }
}

/// One producer: requests back to back until told to stop. Each request is
/// timed from the end of the one before it.
fn produce(
    port: &Arc<dyn RuntimePort>,
    bed: &Bed,
    stop: &AtomicBool,
    done: &AtomicU64,
    latency: &Hist,
    trace: bool,
) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut n = 0u64;
    let mut last = bed.clock.now_ns();
    while !stop.load(Relaxed) {
        let spanned = trace && n.is_multiple_of(SPAN_EVERY);
        let mut marks = [0u64; 3];
        let mut mark = |i: usize| {
            if spanned {
                marks[i] = bed.clock.now_ns();
            }
        };
        let t = port.create_cancel(None);
        mark(0);
        port.unit_started(t);
        for i in 0..PAIRS {
            let rid = bed.rids[i % 3];
            port.get(t, rid, 1);
            port.free(t, rid, 1);
        }
        port.progress(t, 1, 1);
        mark(1);
        port.unit_finished(t);
        mark(2);
        port.free_cancel(t);
        let now = bed.clock.now_ns();
        latency.record(now - last);
        if spanned {
            let request = spans.len() as u32;
            let edges = [last, marks[0], marks[1], marks[2], now];
            let span = |name, i: usize, parent| Span {
                name,
                start_ns: edges[i],
                end_ns: edges[i + 1],
                parent,
                key: n,
            };
            spans.push(Span {
                end_ns: now,
                ..span("request", 0, NO_PARENT)
            });
            spans.push(span("bench.create", 0, request));
            spans.push(span("bench.emit_burst", 1, request));
            spans.push(span("bench.finish", 2, request));
            spans.push(span("bench.free", 3, request));
        }
        last = now;
        n += 1;
        done.store(n, Relaxed);
    }
    spans
}

pub fn run(args: Args) -> Outcome {
    let mut out = Outcome::default();
    let producers =
        std::thread::available_parallelism().map_or(1, |p| p.get().saturating_sub(1).max(1));
    let clock = Arc::new(SystemClock::new());

    // A set-up is one runtime of each kind, built and not torn down.
    let setups: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let begun = Instant::now();
            let beds = (set_up(&clock, 0), set_up(&clock, RESIDENT));
            let took = begun.elapsed().as_secs_f64();
            drop(beds);
            took
        })
        .collect();
    out.set("setup_s", stats::median(&setups));

    let r0 = run_phase(&clock, 0, producers, args.seconds / 2.0, args.trace);
    let r16k = run_phase(&clock, RESIDENT, producers, args.seconds / 2.0, args.trace);

    out.attempted = r0.requests + r16k.requests;
    // A healthy request the runtime cancelled, or an event it ignored or
    // shed, is a failed operation.
    let (ignored, cancels) = (r0.ignored + r16k.ignored, r0.cancels + r16k.cancels);
    out.failed = ignored + cancels;
    out.check(ignored + cancels == 0, || {
        format!("healthy load, yet {ignored} events ignored and {cancels} cancels delivered")
    });
    // Producers + ticker + this thread.
    let budget = producers as u64 + 2;
    if let Some(threads) = r16k.threads {
        out.set("bench.threads", threads as f64);
        out.check(threads <= budget, || {
            format!("{threads} threads exceed the stated budget of {budget}")
        });
    }

    let (rate_r0, rate_r16k) = (stats::median(&r0.rates), stats::median(&r16k.rates));
    out.set("work_per_s", rate_r0);
    out.set("emit.requests_per_s_r16k", rate_r16k);
    out.set("emit.request_p50_us_r0", r0.latency.percentile(50.0) / 1e3);
    out.set("latency_p50_ms", r16k.latency.percentile(50.0) / 1e6);
    out.set("latency_tail_ms", r16k.latency.percentile(99.99) / 1e6);
    out.set(
        "goal_met_pct",
        100.0 * (out.attempted - out.failed.min(out.attempted)) as f64
            / out.attempted.max(1) as f64,
    );
    out.set("core.stats.ignored_events", ignored as f64);
    out.set("core.cancel.delivered", cancels as f64);
    out.notes.push(format!(
        "{producers} producer(s); r0 {} requests, r16k {} requests ({} beyond p99.99)",
        r0.requests,
        r16k.requests,
        r16k.requests / 10_000
    ));

    if args.trace {
        // Emit and lifecycle cost from the bare phase, where nothing else
        // contends; the stall behind a tick, and the ticks, from the crowded.
        r0.port.set_call_metrics(&mut out);
        out.set("core.lifecycle.p99_us", r16k.port.lifecycle_p99_us());
        let period = TICK_PERIOD.as_nanos() as u64;
        r16k.port
            .set_tick_metrics(r16k.wall_ns, Some(period), &mut out);

        let mut spans = Vec::new();
        for phase in [r0, r16k] {
            let mut phase_spans = phase.spans;
            phase.port.push_tick_spans(&mut phase_spans, &[]);
            spans::append(&mut spans, phase_spans);
        }
        out.write_spans("steady_emit", &spans);
    }
    out
}
