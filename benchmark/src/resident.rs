//! `resident_decide`: the runtime alone, driven window by window on a virtual
//! clock the benchmark advances. 16 384 resident tasks each pin one buffer
//! page; every 10 ms window 256 short tasks take the table lock in turn; every
//! fourth window a hog takes it and convoys them until it is cancelled. Each
//! window is emit → advance clock → `tick()` → react to delivered cancels —
//! the shape of `chaos::scenario`'s lock-hog script, scaled to ROADMAP item
//! 1's "16k resident, ≤256 active".

use std::sync::{Arc, Mutex};
use std::time::Instant;

use atropos::{AtroposConfig, AtroposRuntime, ResourceId, ResourceType, TaskId, TaskKey};
use atropos_sim::{Clock, SimRng, SimTime, SystemClock, VirtualClock};
use atropos_substrate::{CancelFn, RuntimePort};

use crate::outcome::{decision_hash, ms, Args, Outcome};
use crate::port::{BenchPort, PortTotals};
use crate::spans::{Span, NO_PARENT};
use crate::stats;

pub const RESIDENT: u64 = 16_384;
const SHORT_PER_WINDOW: u64 = 256;
const HOG_EVERY: u64 = 4;
const WINDOW_NS: u64 = 10_000_000;
const US: u64 = 1_000;
/// Hog-free windows before measurement: the detector's history.
const WARM_WINDOWS: u64 = 16;
/// Windows per segment; `work_per_s` is the median segment's rate.
const SEGMENT_WINDOWS: u64 = 400;
/// Windows run per second asked for. The work is fixed by `--seconds`, not by
/// how fast it goes, so memory, decisions and the hash compare across commits
/// (≈0.9 s of wall per second asked on the 2-core reference host).
const WINDOWS_PER_SECOND: f64 = 300.0;

const RESIDENT_KEY_BASE: u64 = 1 << 32;
const HOG_KEY_BASE: u64 = 1 << 40;

struct Blocked {
    task: TaskId,
    key: u64,
}

/// The scripted application: what it has in flight and what it counted.
pub struct World {
    clock: VirtualClock,
    port: Arc<dyn RuntimePort>,
    delivered: Arc<Mutex<Vec<u64>>>,
    lock: ResourceId,
    rng: SimRng,
    window: u64,
    next_key: u64,
    hogs: u64,
    /// The hog in flight: its task, its key, the window it arrived in.
    hog: Option<(TaskId, u64, u64)>,
    blocked: Vec<Blocked>,
    // Tallies.
    pub cancelled_keys: Vec<u64>,
    hogs_cancelled_at_once: u64,
    misblames: u64,
    short_offered: u64,
    short_in_window: u64,
}

fn config() -> AtroposConfig {
    AtroposConfig {
        // One window: a hog every fourth window is never rate-limited.
        cancel_min_interval_ns: WINDOW_NS,
        ..AtroposConfig::default()
    }
}

impl World {
    /// Builds the runtime (behind `wrap`), its resident population, and runs
    /// the warm-up windows.
    pub fn set_up(
        seed: u64,
        wrap: impl FnOnce(Arc<AtroposRuntime>) -> Arc<dyn RuntimePort>,
    ) -> (Arc<AtroposRuntime>, World) {
        let clock = VirtualClock::new();
        let rt = Arc::new(AtroposRuntime::new(config(), Arc::new(clock.clone())));
        let port = wrap(rt.clone());
        let lock = port.register_resource("table_lock", ResourceType::Lock);
        let pool = port.register_resource("buffer_pool", ResourceType::Memory);
        let delivered = Arc::new(Mutex::new(Vec::new()));
        let sink = delivered.clone();
        port.install_initiator(Arc::new(CancelFn(move |key: TaskKey| {
            sink.lock().expect("delivery sink poisoned").push(key.0)
        })));
        for i in 0..RESIDENT {
            let t = port.create_cancel(Some(RESIDENT_KEY_BASE + i));
            port.get(t, pool, 1);
        }
        let mut world = World {
            clock,
            port,
            delivered,
            lock,
            rng: SimRng::new(seed),
            window: 0,
            next_key: 0,
            hogs: 0,
            hog: None,
            blocked: Vec::new(),
            cancelled_keys: Vec::new(),
            hogs_cancelled_at_once: 0,
            misblames: 0,
            short_offered: 0,
            short_in_window: 0,
        };
        for _ in 0..WARM_WINDOWS {
            world.emit_window(false);
            world.tick();
        }
        world.short_offered = 0;
        world.short_in_window = 0;
        (rt, world)
    }

    fn at(&self, ns: u64) {
        self.clock.advance_to(SimTime::from_nanos(ns));
    }

    fn finish(&self, task: TaskId) {
        self.port.unit_finished(task);
        self.port.free_cancel(task);
    }

    /// Everything the application does in one window, up to the tick.
    fn emit_window(&mut self, with_hog: bool) {
        let start = self.window * WINDOW_NS;
        // React to what the last tick delivered: a cancelled hog releases
        // the lock at once, a misblamed victim gives up.
        let newly = std::mem::take(&mut *self.delivered.lock().expect("delivery sink poisoned"));
        for key in newly {
            self.cancelled_keys.push(key);
            match self.hog {
                Some((task, hog_key, born)) if hog_key == key => {
                    self.at(start + US);
                    self.port.free(task, self.lock, 1);
                    self.finish(task);
                    self.hog = None;
                    self.hogs_cancelled_at_once += u64::from(self.window == born + 1);
                }
                _ => {
                    self.misblames += 1;
                    if let Some(i) = self.blocked.iter().position(|b| b.key == key) {
                        let b = self.blocked.remove(i);
                        self.at(start + US);
                        self.finish(b.task);
                    }
                }
            }
        }
        // With the hog gone the convoy drains early in the window.
        if self.hog.is_none() && !self.blocked.is_empty() {
            for (i, b) in std::mem::take(&mut self.blocked).into_iter().enumerate() {
                let t0 = start + 10 * US + i as u64 * US;
                self.at(t0);
                self.port.get(b.task, self.lock, 1);
                self.at(t0 + US);
                self.port.free(b.task, self.lock, 1);
                self.finish(b.task);
            }
        }
        // The hog arrives after a seeded share of the window's short tasks:
        // enough before it that throughput collapses rather than stops.
        let hog_after = with_hog.then(|| 16 + self.rng.below(112));
        let arrivals_from = start + 500 * US;
        for i in 0..SHORT_PER_WINDOW {
            let t0 = arrivals_from + i * 35 * US;
            self.at(t0);
            if hog_after == Some(i) && self.hog.is_none() {
                let key = HOG_KEY_BASE + self.hogs;
                self.hogs += 1;
                let hog = self.port.create_cancel(Some(key));
                self.port.unit_started(hog);
                self.port.progress(hog, 1, 100);
                self.port.get(hog, self.lock, 1);
                self.hog = Some((hog, key, self.window));
            }
            let key = self.next_key;
            self.next_key += 1;
            self.short_offered += 1;
            let task = self.port.create_cancel(Some(key));
            self.port.unit_started(task);
            if self.hog.is_some() {
                self.port.slow_by(task, self.lock, 1);
                self.blocked.push(Blocked { task, key });
            } else {
                self.port.get(task, self.lock, 1);
                self.at(t0 + 20 * US);
                self.port.free(task, self.lock, 1);
                self.port.progress(task, 1, 1);
                self.finish(task);
                self.short_in_window += 1;
            }
        }
    }

    fn tick(&mut self) -> bool {
        self.window += 1;
        self.at(self.window * WINDOW_NS);
        self.port.tick() != atropos::TickOutcome::Idle
    }

    /// One measured window; returns `(tick wall ns, overloaded)`.
    fn step(&mut self, wall: &SystemClock) -> (u64, bool) {
        self.emit_window(self.window.is_multiple_of(HOG_EVERY));
        let t0 = wall.now_ns();
        let overloaded = self.tick();
        (wall.now_ns() - t0, overloaded)
    }
}

/// Runs `windows` measured windows and returns the ordered cancelled keys —
/// what the untraced/traced determinism test compares.
#[cfg(test)]
pub fn cancelled_keys(seed: u64, windows: u64, trace: bool) -> Vec<u64> {
    let wall = Arc::new(SystemClock::new());
    let (_rt, mut world) = World::set_up(seed, |rt| match trace {
        true => Arc::new(BenchPort::new(rt, wall.clone(), true, None)),
        false => rt,
    });
    for _ in 0..windows {
        world.step(&wall);
    }
    world.cancelled_keys
}

pub fn run(args: Args) -> Outcome {
    let mut out = Outcome::default();
    let wall = Arc::new(SystemClock::new());

    // One fresh world per segment (seeded seed, seed + 1, …): every segment
    // is a set-up to take the median of, memory does not grow with the run,
    // and one process's luck with heap and hash layout is averaged over.
    let segments = (args.seconds * WINDOWS_PER_SECOND / SEGMENT_WINDOWS as f64).ceil() as u64;
    let segments = segments.max(1);
    let windows = segments * SEGMENT_WINDOWS;
    let (mut setups, mut rates) = (Vec::new(), Vec::new());
    let mut idle = Vec::new();
    let (mut tick_p50, mut tick_p90, mut overloaded_ticks) = (Vec::new(), Vec::new(), 0);
    let mut window_spans = Vec::new();
    let mut port = PortTotals::default();
    let mut tally = Tally::default();
    let mut measured_ns = 0;
    for segment in 0..segments {
        let begun = Instant::now();
        let mut bench_port = None;
        let (rt, mut world) = World::set_up(args.seed.wrapping_add(segment), |rt| {
            if !args.trace {
                return rt;
            }
            let port = Arc::new(BenchPort::new(rt, wall.clone(), true, None));
            bench_port = Some(port.clone());
            port
        });
        setups.push(begun.elapsed().as_secs_f64());

        let mut overloaded = Vec::new();
        let seg_from = wall.now_ns();
        for _ in 0..SEGMENT_WINDOWS {
            let w0 = wall.now_ns();
            let (tick_ns, was_overloaded) = world.step(&wall);
            match was_overloaded {
                true => overloaded.push(ms(tick_ns)),
                false => idle.push(ms(tick_ns)),
            }
            if args.trace {
                window_spans.push((w0, wall.now_ns()));
            }
        }
        let seg_ns = wall.now_ns() - seg_from;
        measured_ns += seg_ns;
        rates.push(SEGMENT_WINDOWS as f64 / (seg_ns as f64 / 1e9));
        let ticks = stats::sorted(overloaded);
        tick_p50.push(stats::percentile(&ticks, 50.0));
        tick_p90.push(stats::percentile(&ticks, 90.0));
        overloaded_ticks += ticks.len();

        tally.add(&world, rt.stats());
        if let Some(bench_port) = bench_port {
            let mut report = bench_port.report();
            // Ticks of the measured windows only (set-up ran warm-up ticks).
            report.ticks.retain(|t| t.start_ns >= seg_from);
            port.absorb(report);
        }
    }
    out.set("setup_s", stats::median(&setups));

    let hogs = windows / HOG_EVERY;
    out.attempted = tally.short_offered + hogs;
    // A hog not cancelled by the tick of its own window is a failed operation.
    let late_hogs = hogs - tally.hogs_cancelled_at_once.min(hogs);
    out.failed = late_hogs;
    out.check(late_hogs == 0, || {
        format!(
            "{late_hogs} of {hogs} hogs were not cancelled by the first tick after they arrived"
        )
    });
    out.check(tally.ignored_events == 0, || {
        format!(
            "the runtime ignored {} emitted events",
            tally.ignored_events
        )
    });

    out.set("work_per_s", stats::median(&rates));
    // Per segment, the median and — 100 overloaded ticks supporting no more —
    // the p90; over the segments, the median of each. Pooled, the tail is set
    // by whichever segments a neighbour on this shared host slowed down.
    out.set("latency_p50_ms", stats::median(&tick_p50));
    out.set("latency_tail_ms", stats::median(&tick_p90));
    out.notes.push(format!(
        "latency_*_ms: medians over {segments} segments of {} overloaded ticks each",
        overloaded_ticks / segments as usize
    ));
    out.set(
        "goal_met_pct",
        100.0 * tally.short_in_window as f64 / tally.short_offered as f64,
    );
    out.set(
        "decide.hogs_cancelled_pct",
        100.0 * tally.hogs_cancelled_at_once as f64 / hogs as f64,
    );
    out.set("decide.misblames", tally.misblames as f64);
    out.set("core.cancel.issued", tally.issued as f64);
    out.set("core.cancel.delivered", tally.cancelled_keys.len() as f64);
    out.set(
        "core.cancel.precision_pct",
        100.0 * tally.hogs_cancelled_at_once as f64 / tally.issued.max(1) as f64,
    );
    out.set("core.stats.ignored_events", tally.ignored_events as f64);
    out.set(
        "core.stats.mid_window_flushes",
        tally.mid_window_flushes as f64,
    );
    out.set(
        "core.decision_hash",
        decision_hash(tally.cancelled_keys.iter().copied()),
    );
    out.notes.push(format!(
        "{windows} windows in {segments} segments, {hogs} hogs, idle tick p50 {:.3} ms over {} ticks",
        stats::median(&idle),
        idle.len()
    ));

    if args.trace {
        port.set_tick_metrics(measured_ns, None, &mut out);
        port.set_call_metrics(&mut out);

        // `bench.window` ⊃ `core.tick` ⊃ `core.cancel.deliver`.
        let mut spans: Vec<Span> = window_spans
            .iter()
            .map(|&(start_ns, end_ns)| Span {
                name: "bench.window",
                start_ns,
                end_ns,
                parent: NO_PARENT,
                key: 0,
            })
            .collect();
        let windows: Vec<_> = (0..).zip(window_spans.iter().map(|w| w.1)).collect();
        port.push_tick_spans(&mut spans, &windows);
        out.write_spans("resident_decide", &spans);
    }
    out
}

/// What the segments' worlds counted, summed.
#[derive(Default)]
struct Tally {
    cancelled_keys: Vec<u64>,
    hogs_cancelled_at_once: u64,
    misblames: u64,
    short_offered: u64,
    short_in_window: u64,
    issued: u64,
    ignored_events: u64,
    mid_window_flushes: u64,
}

impl Tally {
    fn add(&mut self, world: &World, stats: atropos::RuntimeStats) {
        self.cancelled_keys.extend(&world.cancelled_keys);
        self.hogs_cancelled_at_once += world.hogs_cancelled_at_once;
        self.misblames += world.misblames;
        self.short_offered += world.short_offered;
        self.short_in_window += world.short_in_window;
        self.issued += stats.cancel.issued;
        self.ignored_events += stats.ignored_events;
        self.mid_window_flushes += stats.mid_window_flushes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_repeat_exactly_traced_or_not_and_follow_the_seed() {
        let plain = cancelled_keys(7, 24, false);
        assert_eq!(plain.len(), 6, "one hog per fourth window: {plain:?}");
        assert!(plain.iter().all(|k| *k >= HOG_KEY_BASE));
        assert_eq!(plain, cancelled_keys(7, 24, true));
        assert_eq!(
            decision_hash(plain.clone()),
            decision_hash(cancelled_keys(7, 24, true))
        );
        assert_ne!(decision_hash(plain), decision_hash([HOG_KEY_BASE]));
    }
}
