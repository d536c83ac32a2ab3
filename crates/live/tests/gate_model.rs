//! Model-based property test for [`Gate`], in the style of
//! `core/tests/lockfree_model.rs`: the model is the specification, the
//! gate is the implementation under test.
//!
//! A proptest op-sequence — start an acquire, poll one, drop a pending
//! one, drop a permit — drives a gate of capacity 1 (a LOCK) or n (a
//! QUEUE) against a counter model. After every op:
//!
//! - `available + live permits == capacity`, and the gate's own
//!   `available()` / `waiters()` agree with the model;
//! - exactly one `free` per `get` and none without: `frees == gets − live
//!   permits`, with `gets`/`frees`/`slow_by`s counted from outside through
//!   probe middleware;
//! - `slow_by` at most once per acquire: the model charges it only on an
//!   acquire's first contended poll, and the totals must match;
//! - no lost baton: whenever a permit is free with acquires queued, the
//!   front one has been woken since it last polled.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use atropos::{AtroposConfig, AtroposRuntime};
use atropos_live::{Acquire, Gate, Permit};
use atropos_sim::SystemClock;
use atropos_substrate::{ProbePort, RuntimePort};
use proptest::prelude::*;

/// One step; `slot` picks which of the concurrent acquirers it applies
/// to (a step that does not fit the slot's state is a no-op).
#[derive(Debug, Clone, Copy)]
enum Op {
    Start { slot: usize },
    Poll { slot: usize },
    DropPending { slot: usize },
    Release { slot: usize },
}

const SLOTS: usize = 6;

/// Polls are listed twice and drops of a pending acquire are the rare
/// case, so sequences spend their time with the gate full and a queue
/// behind it — where the handover logic is.
fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..SLOTS).prop_map(|slot| Op::Start { slot }),
        (0..SLOTS).prop_map(|slot| Op::Start { slot }),
        (0..SLOTS).prop_map(|slot| Op::Poll { slot }),
        (0..SLOTS).prop_map(|slot| Op::Poll { slot }),
        (0..SLOTS).prop_map(|slot| Op::Poll { slot }),
        (0..SLOTS).prop_map(|slot| Op::Release { slot }),
        (0..SLOTS).prop_map(|slot| Op::Release { slot }),
        (0..SLOTS).prop_map(|slot| Op::DropPending { slot }),
    ]
}

/// A waker that records that it was woken.
#[derive(Default)]
struct Woken(AtomicBool);

impl Wake for Woken {
    fn wake(self: Arc<Self>) {
        self.0.store(true, Ordering::SeqCst);
    }
}

enum Slot<'a> {
    Empty,
    Pending {
        fut: Pin<Box<Acquire<'a>>>,
        woken: Arc<Woken>,
        /// In the waiter queue (polled at least once while contended).
        waiting: bool,
    },
    /// Held for its destructor: dropping the slot releases.
    Held(#[allow(dead_code)] Permit<'a>),
}

/// The specification: a counter, a FIFO of waiting slots, event totals.
struct Model {
    available: usize,
    waiters: VecDeque<usize>,
    slows: u64,
    gets: u64,
    frees: u64,
}

proptest! {
    #[test]
    fn gate_matches_counter_model(
        capacity in 1usize..4,
        ops in prop::collection::vec(op_strategy(), 1..400),
    ) {
        let rt = Arc::new(AtroposRuntime::new(
            AtroposConfig::default(),
            Arc::new(SystemClock::new()),
        ));
        let probe = Arc::new(ProbePort::new(rt.clone()));
        let port: Arc<dyn RuntimePort> = probe.clone();
        let gate = if capacity == 1 {
            Gate::lock(port, "l")
        } else {
            Gate::queue(port, "q", capacity)
        };
        let tasks: Vec<_> = (0..SLOTS).map(|_| rt.create_cancel(None)).collect();
        let mut slots: Vec<Slot<'_>> = (0..SLOTS).map(|_| Slot::Empty).collect();
        let mut model = Model {
            available: capacity,
            waiters: VecDeque::new(),
            slows: 0,
            gets: 0,
            frees: 0,
        };

        for op in ops {
            match op {
                Op::Start { slot } => {
                    if matches!(slots[slot], Slot::Empty) {
                        slots[slot] = Slot::Pending {
                            fut: Box::pin(gate.acquire(tasks[slot])),
                            woken: Arc::default(),
                            waiting: false,
                        };
                    }
                }
                Op::Poll { slot } => {
                    let Slot::Pending { fut, woken, waiting } = &mut slots[slot] else {
                        continue;
                    };
                    woken.0.store(false, Ordering::SeqCst);
                    let waker = Waker::from(woken.clone());
                    let polled = fut.as_mut().poll(&mut Context::from_waker(&waker));
                    // Barging is allowed: any poll that finds a permit takes it.
                    prop_assert_eq!(polled.is_ready(), model.available > 0);
                    match polled {
                        Poll::Ready(permit) => {
                            model.available -= 1;
                            model.gets += 1;
                            model.waiters.retain(|&w| w != slot);
                            slots[slot] = Slot::Held(permit);
                        }
                        Poll::Pending if !*waiting => {
                            *waiting = true;
                            model.slows += 1;
                            model.waiters.push_back(slot);
                        }
                        Poll::Pending => {}
                    }
                }
                Op::DropPending { slot } => {
                    if matches!(slots[slot], Slot::Pending { .. }) {
                        slots[slot] = Slot::Empty;
                        model.waiters.retain(|&w| w != slot);
                    }
                }
                Op::Release { slot } => {
                    if matches!(slots[slot], Slot::Held(_)) {
                        slots[slot] = Slot::Empty;
                        model.available += 1;
                        model.frees += 1;
                    }
                }
            }

            let held = slots.iter().filter(|s| matches!(s, Slot::Held(_))).count();
            prop_assert_eq!(model.available + held, capacity);
            prop_assert_eq!(gate.available(), model.available);
            prop_assert_eq!(gate.waiters(), model.waiters.len());
            let seen = probe.counts();
            prop_assert_eq!(
                (seen.slows, seen.gets, seen.frees),
                (model.slows, model.gets, model.frees),
                "events diverged after {:?}", op
            );
            prop_assert_eq!(model.frees, model.gets - held as u64);
            if model.available > 0 {
                if let Some(&front) = model.waiters.front() {
                    let Slot::Pending { woken, .. } = &slots[front] else {
                        unreachable!("a queued slot is pending");
                    };
                    prop_assert!(
                        woken.0.load(Ordering::SeqCst),
                        "lost baton after {:?}: permit free, front waiter {} not woken",
                        op, front
                    );
                }
            }
        }
    }
}
