//! The traced resources: real primitives wired to the substrate port.
//!
//! Each owns one resource registered through an `Arc<dyn RuntimePort>`
//! and emits the Figure 6b events at the natural points of its own
//! operation. Because emission goes through the port rather than a
//! concrete runtime handle, any middleware stacked over the runtime
//! (fault injection, probes) observes this traffic too:
//!
//! - [`Gate`] (LOCK with one permit, QUEUE with n): `slow_by` once when a
//!   wait begins, `get` at the wait→hold transition, `free` on permit
//!   drop — the one place in the workspace that speaks this protocol for
//!   a wall-clock substrate,
//! - [`LruBuffer`] (MEMORY): `get` per page loaded, `free` charged to the
//!   evicted page's *owner*, `slow_by` (evictions caused) charged to the
//!   evictor — the attribution that lets the estimator see who is sweeping
//!   the pool.
//!
//! These are the live counterparts of `appsim`'s virtual `lock.rs`,
//! `ticket.rs` and `bufferpool.rs`: same protocol, real waiting.
//!
//! ## Waiting is the caller's business
//!
//! [`Gate::acquire`] is a future and the waiter queue holds wakers, so the
//! gate does not know how its caller waits: a thread worker drives it with
//! [`block_on`] (the waker unparks the thread), the async executor polls
//! it as part of a request future (the waker requeues the task).
//!
//! ## The RAII hold-release argument
//!
//! Where cancellation is future drop nothing ever resumes a canceled task
//! to let it unwind, so release cannot live in request code — it lives
//! **entirely in destructors**, which run when the dropped future's locals
//! are destroyed:
//!
//! - a held [`Permit`] emits exactly one `free` and wakes the front
//!   waiter, whether the task completed, unwound or was dropped
//!   mid-`await`;
//! - a *pending* [`Acquire`] that is dropped removes its own waiter entry
//!   and emits nothing (it acquired nothing) — and, if a permit is free,
//!   re-wakes the front waiter so a wake "swallowed" by the dropped task
//!   is never lost.
//!
//! That last clause is the abort-during-wake race: a release may wake
//! waiter A just before A's task is aborted. A's acquire is dropped
//! without re-polling, so A passes the baton on. Exactly-once `free`
//! holds because only a constructed permit emits `free`, and a permit is
//! constructed at most once per `get`.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::future::Future;
use std::pin::{pin, Pin};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;

use atropos::{ResourceId, ResourceType, TaskId};
use atropos_substrate::RuntimePort;
use parking_lot::Mutex;

struct GateState {
    available: usize,
    next_wait: u64,
    /// FIFO of waiting acquires: a stable id (so a dropped acquire removes
    /// exactly its own entry) plus the waker of its most recent poll.
    waiters: VecDeque<(u64, Waker)>,
}

impl GateState {
    fn remove(&mut self, id: u64) {
        self.waiters.retain(|(w, _)| *w != id);
    }

    /// The waker that must hear that a permit is free, if one is.
    fn baton(&self) -> Option<Waker> {
        if self.available == 0 {
            return None;
        }
        self.waiters.front().map(|(_, w)| w.clone())
    }
}

/// A counted wait→hold resource reporting to Atropos: a LOCK is the
/// one-permit case ([`Gate::lock`]), a QUEUE of concurrency tickets the
/// n-permit case ([`Gate::queue`]). It guards a critical *section*, not
/// data.
pub struct Gate {
    port: Arc<dyn RuntimePort>,
    rid: ResourceId,
    st: Mutex<GateState>,
}

impl Gate {
    fn new(port: Arc<dyn RuntimePort>, name: &str, rtype: ResourceType, permits: usize) -> Self {
        let rid = port.register_resource(name, rtype);
        Self {
            port,
            rid,
            st: Mutex::new(GateState {
                available: permits,
                next_wait: 0,
                waiters: VecDeque::new(),
            }),
        }
    }

    /// Registers a LOCK resource named `name`: one permit.
    pub fn lock(port: Arc<dyn RuntimePort>, name: &str) -> Self {
        Self::new(port, name, ResourceType::Lock, 1)
    }

    /// Registers a QUEUE resource named `name` with `permits` tickets (the
    /// bounded worker/connection-pool analog).
    pub fn queue(port: Arc<dyn RuntimePort>, name: &str, permits: usize) -> Self {
        Self::new(port, name, ResourceType::Queue, permits)
    }

    /// Acquires one permit on behalf of `task`. An uncontended acquire
    /// emits only `get`; a contended one emits `slow_by` once when the
    /// wait begins (the §3.2 wait→hold protocol).
    pub fn acquire(&self, task: TaskId) -> Acquire<'_> {
        Acquire {
            gate: self,
            task,
            wait_id: None,
        }
    }

    /// Permits currently free.
    pub fn available(&self) -> usize {
        self.st.lock().available
    }

    /// Acquires currently queued.
    pub fn waiters(&self) -> usize {
        self.st.lock().waiters.len()
    }
}

/// Future returned by [`Gate::acquire`].
pub struct Acquire<'a> {
    gate: &'a Gate,
    task: TaskId,
    /// Our entry in the waiter queue while we wait; `None` before the
    /// first contended poll and again once a permit is taken.
    wait_id: Option<u64>,
}

impl<'a> Future for Acquire<'a> {
    type Output = Permit<'a>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let gate = self.gate;
        let mut st = gate.st.lock();
        if st.available > 0 {
            st.available -= 1;
            if let Some(id) = self.wait_id.take() {
                st.remove(id);
            }
            // With several permits, two releases can both have woken us
            // while we were the front: the one we leave goes to the next.
            let next = st.baton();
            drop(st);
            gate.port.get(self.task, gate.rid, 1);
            if let Some(w) = next {
                w.wake();
            }
            return Poll::Ready(Permit {
                gate,
                task: self.task,
            });
        }
        match self.wait_id {
            Some(id) => {
                // Woken but lost the race (or spurious): refresh the waker.
                if let Some((_, w)) = st.waiters.iter_mut().find(|(w, _)| *w == id) {
                    w.clone_from(cx.waker());
                }
            }
            None => {
                let id = st.next_wait;
                st.next_wait += 1;
                st.waiters.push_back((id, cx.waker().clone()));
                self.wait_id = Some(id);
                drop(st);
                gate.port.slow_by(self.task, gate.rid, 1);
            }
        }
        Poll::Pending
    }
}

impl Drop for Acquire<'_> {
    fn drop(&mut self) {
        let Some(id) = self.wait_id else {
            return; // never waited, or a permit exists and release is its job
        };
        let mut st = self.gate.st.lock();
        st.remove(id);
        // Pass the baton: a release may have woken *us* just before the
        // drop; if a permit is free the next waiter must hear about it.
        let next = st.baton();
        drop(st);
        if let Some(w) = next {
            w.wake();
        }
    }
}

/// RAII permit of a [`Gate`]; emits `free` and wakes the front waiter on
/// drop — including the drop performed by an abort.
pub struct Permit<'a> {
    gate: &'a Gate,
    task: TaskId,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut st = self.gate.st.lock();
        st.available += 1;
        let next = st.baton();
        drop(st);
        self.gate.port.free(self.task, self.gate.rid, 1);
        if let Some(w) = next {
            w.wake();
        }
    }
}

struct Unpark(Thread);

impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.0.unpark();
    }
}

/// Drives `fut` to completion on the calling thread, parking between
/// polls — the thread substrate's whole waiting primitive. The waker is
/// cached per thread, so a future that never waits allocates nothing.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    thread_local! {
        static WAKER: Waker = Waker::from(Arc::new(Unpark(std::thread::current())));
    }
    let mut fut = pin!(fut);
    WAKER.with(|waker| {
        let mut cx = Context::from_waker(waker);
        loop {
            if let Poll::Ready(out) = fut.as_mut().poll(&mut cx) {
                return out;
            }
            // A stale unpark only costs one extra poll.
            std::thread::park();
        }
    })
}

/// What one [`LruBuffer::access`] batch did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessStats {
    /// Pages found resident.
    pub hits: u64,
    /// Pages loaded (and attributed to the accessing task).
    pub misses: u64,
    /// Resident pages evicted to make room.
    pub evictions: u64,
}

struct LruState {
    /// page -> (owner task, last-touch tick)
    pages: HashMap<u64, (TaskId, u64)>,
    /// (last-touch tick, page), oldest first.
    order: BTreeSet<(u64, u64)>,
    tick: u64,
}

/// A bounded LRU page cache with per-page owner attribution, reported as
/// a MEMORY resource.
pub struct LruBuffer {
    port: Arc<dyn RuntimePort>,
    rid: ResourceId,
    capacity: usize,
    state: Mutex<LruState>,
}

impl LruBuffer {
    /// Registers a MEMORY resource named `name` holding up to `capacity`
    /// pages.
    pub fn new(port: Arc<dyn RuntimePort>, name: &str, capacity: usize) -> Self {
        let rid = port.register_resource(name, ResourceType::Memory);
        Self {
            port,
            rid,
            capacity: capacity.max(1),
            state: Mutex::new(LruState {
                pages: HashMap::new(),
                order: BTreeSet::new(),
                tick: 0,
            }),
        }
    }

    /// Touches `pages` on behalf of `task`: hits are re-ranked, misses
    /// load the page (attributed to `task`), evicting LRU pages when full.
    ///
    /// Emits `get(task, misses)` for the loads, `free(owner, n)` for each
    /// former owner's evicted pages, and `slow_by(task, evictions)` for
    /// the eviction pressure the access caused.
    pub fn access(&self, task: TaskId, pages: &[u64]) -> AccessStats {
        let mut stats = AccessStats::default();
        let mut freed_by_owner: HashMap<TaskId, u64> = HashMap::new();
        {
            let mut st = self.state.lock();
            for &page in pages {
                st.tick += 1;
                let tick = st.tick;
                if let Some((owner, old_tick)) = st.pages.get(&page).copied() {
                    st.order.remove(&(old_tick, page));
                    st.order.insert((tick, page));
                    st.pages.insert(page, (owner, tick));
                    stats.hits += 1;
                    continue;
                }
                if st.pages.len() >= self.capacity {
                    if let Some(&(victim_tick, victim_page)) = st.order.iter().next() {
                        st.order.remove(&(victim_tick, victim_page));
                        if let Some((owner, _)) = st.pages.remove(&victim_page) {
                            *freed_by_owner.entry(owner).or_default() += 1;
                        }
                        stats.evictions += 1;
                    }
                }
                st.order.insert((tick, page));
                st.pages.insert(page, (task, tick));
                stats.misses += 1;
            }
        }
        if stats.misses > 0 {
            self.port.get(task, self.rid, stats.misses);
        }
        for (owner, n) in freed_by_owner {
            self.port.free(owner, self.rid, n);
        }
        if stats.evictions > 0 {
            self.port.slow_by(task, self.rid, stats.evictions);
        }
        stats
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.state.lock().pages.len()
    }

    /// True if no pages are resident.
    pub fn is_empty(&self) -> bool {
        self.state.lock().pages.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atropos::{AtroposConfig, AtroposRuntime};
    use atropos_sim::SystemClock;

    fn runtime() -> Arc<AtroposRuntime> {
        Arc::new(AtroposRuntime::new(
            AtroposConfig::default(),
            Arc::new(SystemClock::new()),
        ))
    }

    #[test]
    fn lru_attributes_evictions_to_owners() {
        let rt = runtime();
        let buf = LruBuffer::new(rt.clone(), "pool", 4);
        let resident = rt.create_cancel(None);
        let scanner = rt.create_cancel(None);
        let warm = buf.access(resident, &[1, 2, 3, 4]);
        assert_eq!(warm.misses, 4);
        assert_eq!(warm.evictions, 0);
        // A scan over 4 cold pages sweeps the resident set.
        let scan = buf.access(scanner, &[10, 11, 12, 13]);
        assert_eq!(scan.misses, 4);
        assert_eq!(scan.evictions, 4);
        assert_eq!(buf.len(), 4);
        // Re-touching the original pages now misses (they were evicted).
        let again = buf.access(resident, &[1, 2]);
        assert_eq!(again.hits, 0);
        assert_eq!(again.misses, 2);
    }

    #[test]
    fn lru_hits_refresh_recency() {
        let rt = runtime();
        let buf = LruBuffer::new(rt.clone(), "pool", 2);
        let t = rt.create_cancel(None);
        buf.access(t, &[1, 2]);
        buf.access(t, &[1]); // 1 is now most recent
        let s = buf.access(t, &[3]); // must evict 2, not 1
        assert_eq!(s.evictions, 1);
        assert_eq!(buf.access(t, &[1]).hits, 1);
    }
}
