//! The Figure 6b wait→hold protocol of [`Gate`], as one table run under
//! both drivers a gate has: `block_on` on real threads (the thread shell)
//! and the executor polled inline (the async shell).
//!
//! Rows are the two resource shapes — a LOCK (one permit) and a QUEUE
//! (here three) — and the two paths through an acquire: uncontended emits
//! `get` + `free` and nothing else; contended emits `slow_by` exactly once
//! when the wait begins, then `get` at the handover and `free` on release.
//! Events are counted from outside, through probe middleware.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use atropos::{AtroposConfig, AtroposRuntime, TaskId};
use atropos_async::{yield_now, Executor};
use atropos_live::{block_on, Gate};
use atropos_sim::SystemClock;
use atropos_substrate::{ProbePort, RuntimePort};

/// Takes every permit of `gate` (one task each), queues `waiter` — if
/// there is one — behind them, releases, and lets the waiter through.
type Driver = fn(gate: Arc<Gate>, holders: Vec<TaskId>, waiter: Option<TaskId>);

fn on_threads(gate: Arc<Gate>, holders: Vec<TaskId>, waiter: Option<TaskId>) {
    let gate = &*gate;
    let held: Vec<_> = holders.iter().map(|&t| block_on(gate.acquire(t))).collect();
    assert_eq!(gate.available(), 0);
    std::thread::scope(|s| {
        let w = waiter.map(|t| s.spawn(move || drop(block_on(gate.acquire(t)))));
        // Release only once the waiter is provably parked in the queue.
        while gate.waiters() < w.iter().len() {
            std::thread::yield_now();
        }
        drop(held);
    });
}

fn inline(gate: Arc<Gate>, holders: Vec<TaskId>, waiter: Option<TaskId>) {
    let ex = Executor::inline();
    let release = Arc::new(AtomicBool::new(false));
    for t in holders {
        let (g, r) = (gate.clone(), release.clone());
        ex.spawn(async move {
            let _permit = g.acquire(t).await;
            while !r.load(Ordering::SeqCst) {
                yield_now().await;
            }
        });
        // Earlier holders are in the run queue too, spinning.
        let before = gate.available();
        while gate.available() == before {
            assert!(ex.poll_one());
        }
    }
    assert_eq!(gate.available(), 0);
    if let Some(t) = waiter {
        let g = gate.clone();
        ex.spawn(async move { drop(g.acquire(t).await) });
        while gate.waiters() == 0 {
            assert!(ex.poll_one());
        }
    }
    release.store(true, Ordering::SeqCst);
    while ex.live_tasks() > 0 {
        assert!(ex.poll_one(), "deadlock: tasks parked with no wake");
    }
}

#[test]
fn gate_speaks_the_wait_hold_protocol_under_both_drivers() {
    let drivers: [(&str, Driver); 2] = [("block_on", on_threads), ("inline", inline)];
    type Make = fn(Arc<dyn RuntimePort>) -> Gate;
    let shapes: [(&str, usize, Make); 2] = [
        ("lock", 1, |p| Gate::lock(p, "l")),
        ("queue", 3, |p| Gate::queue(p, "q", 3)),
    ];
    for (driver_name, driver) in drivers {
        for (shape, permits, make) in shapes {
            let case = format!("{shape} under {driver_name}");
            let rt = Arc::new(AtroposRuntime::new(
                AtroposConfig::default(),
                Arc::new(SystemClock::new()),
            ));
            let probe = Arc::new(ProbePort::new(rt.clone()));
            let gate = Arc::new(make(probe.clone()));
            let task = || rt.create_cancel(None);
            let events = || {
                let c = probe.counts();
                (c.slows, c.gets, c.frees)
            };

            let holders = || (0..permits).map(|_| task()).collect();
            let n = permits as u64;

            // Uncontended: every permit taken and returned, no wait.
            driver(gate.clone(), holders(), None);
            assert_eq!(events(), (0, n, n), "{case}: uncontended is get + free");

            // Contended: one waiter behind a full house.
            driver(gate.clone(), holders(), Some(task()));
            assert_eq!(
                events(),
                (1, 2 * n + 1, 2 * n + 1),
                "{case}: contended is slow_by once + get + free"
            );
            assert_eq!((gate.available(), gate.waiters()), (permits, 0), "{case}");
        }
    }
}
