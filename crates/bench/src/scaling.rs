//! Multi-producer emit-phase measurement harness.
//!
//! Shared by the `emit_scaling` criterion group (`benches/tracing.rs`)
//! and the scaling-efficiency regression guard
//! (`tests/ingest_scaling.rs`) so both measure exactly the same thing:
//! the **emit phase only** — N persistent producer threads released by a
//! barrier, each appending a fixed burst of records, timed until the
//! last one finishes. Thread spawn cost is paid once at team
//! construction (not per measurement), and the tick-side drain runs on a
//! separate [`BackgroundDrainer`] thread so queues never saturate but
//! drain work is never inside the timed region's critical path the way a
//! serial post-burst drain would be.
//!
//! Producer `p` emits on `TaskId(p)`, so up to the queue count
//! producers land on distinct lanes (the same task→lane mask the runtime
//! uses) and the measurement reflects the per-producer independence the
//! lock-free path is designed for.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use atropos::ids::{ResourceId, TaskId};
use atropos::lockfree::LockFreeIngest;
use atropos::trace::{EventKind, PushOutcome};

/// Records each producer emits per measured burst. Large enough that
/// the two barrier crossings per burst are noise against the push work.
pub const BURST: u64 = 32_768;

/// Emits one record for producer `p`; sheds (never blocks or spins on
/// the consumer) if the sink is full.
fn emit(sink: &LockFreeIngest, p: u64, i: u64) {
    if let PushOutcome::Full(r) = sink.push(TaskId(p), ResourceId(0), 1, EventKind::Get, i) {
        sink.force_push(r);
    }
}

/// N persistent producer threads parked on a barrier, released for one
/// burst at a time. Construction spawns the threads; [`burst`] runs one
/// synchronized emit phase; dropping the team stops and joins them.
///
/// [`burst`]: ProducerTeam::burst
pub struct ProducerTeam {
    go: Arc<Barrier>,
    done: Arc<Barrier>,
    stop: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ProducerTeam {
    /// Spawns `producers` threads emitting into `sink`.
    pub fn new(producers: u64, sink: Arc<LockFreeIngest>) -> Self {
        let go = Arc::new(Barrier::new(producers as usize + 1));
        let done = Arc::new(Barrier::new(producers as usize + 1));
        let stop = Arc::new(AtomicBool::new(false));
        let handles = (0..producers)
            .map(|p| {
                let go = Arc::clone(&go);
                let done = Arc::clone(&done);
                let stop = Arc::clone(&stop);
                let sink = sink.clone();
                std::thread::spawn(move || loop {
                    go.wait();
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    for i in 1..=BURST {
                        emit(&sink, p, i);
                    }
                    done.wait();
                })
            })
            .collect();
        Self {
            go,
            done,
            stop,
            handles,
        }
    }

    /// Releases every producer for one burst and returns when the last
    /// one finishes — the interval callers time.
    pub fn burst(&self) {
        self.go.wait();
        self.done.wait();
    }
}

impl Drop for ProducerTeam {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.go.wait();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A continuous tick-side consumer on its own thread: drains the sink in
/// a loop so producers always find room, the way the runtime's periodic
/// tick would under sustained load. Dropping it stops and joins the
/// thread.
pub struct BackgroundDrainer {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl BackgroundDrainer {
    /// Starts draining `sink` until dropped.
    pub fn start(sink: Arc<LockFreeIngest>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    if sink.drain().is_empty() {
                        std::thread::yield_now();
                    }
                }
                // One last sweep so nothing is left pending for the next
                // measurement against the same sink.
                sink.drain();
            })
        };
        Self {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for BackgroundDrainer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Builds the sink geometry both the bench and the guard use: 8 lanes
/// (so every producer count up to 8 gets its own lane) sized deep enough
/// that a burst rarely sheds while the drainer keeps up.
pub fn new_sink() -> Arc<LockFreeIngest> {
    Arc::new(LockFreeIngest::new(8, 1 << 13))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn team_bursts_conserve_records() {
        // No drainer here, so the burst overruns the lanes and sheds;
        // conservation (drained + shed == emitted) must still hold.
        let sink = new_sink();
        let team = ProducerTeam::new(2, sink.clone());
        team.burst();
        drop(team);
        let drained = sink.drain().len() as u64;
        assert_eq!(drained + sink.take_overflow_dropped(), 2 * BURST);
    }

    #[test]
    fn background_drainer_keeps_up_and_stops() {
        let sink = new_sink();
        let drainer = BackgroundDrainer::start(sink.clone());
        let team = ProducerTeam::new(2, sink.clone());
        for _ in 0..3 {
            team.burst();
        }
        drop(team);
        drop(drainer);
        assert_eq!(sink.pending(), 0, "final sweep left records behind");
    }
}
