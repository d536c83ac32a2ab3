//! Lock-free per-producer trace ingest with epoch-based drain (§3.2 hot
//! path; DESIGN.md §16).
//!
//! [`LockFreeIngest`] is the runtime's emit-side buffer: tracing calls
//! append a compact record to one of N task-sharded bounded lock-free
//! rings ([`RecordQueue`]) instead of taking the runtime's global lock
//! and updating per-task accounting inline. Producers never take a lock,
//! never allocate, and never wait for the drainer: an emit is one CAS to
//! claim a slot, four relaxed word stores, and one release store to
//! publish. The records are replayed into the accounting state at the
//! next drain point (`tick`, `stats`, `free_cancel`,
//! `register_resource`), where the runtime holds its state lock anyway.
//! The drain is
//! *epoch-based*: the tick-time drainer advances an epoch, snapshots every
//! queue's claim cursor, and harvests exactly the records claimed before
//! the boundary — so a drain is bounded work even while producers keep
//! appending, and records emitted mid-drain simply belong to the next
//! epoch.
//!
//! The whole structure is safe Rust: each ring cell is a seqlock-stamped
//! group of atomic words (the idiom of the flight recorder's ring in
//! `obs/src/ring.rs`, minus its `try_lock`), so no `UnsafeCell` is needed
//! to move a [`TraceRecord`] across threads.
//!
//! # Ordering contract
//!
//! Synchronization rests entirely on each cell's sequence stamp; the
//! `head`/`tail` cursors are bounds, not publication.
//!
//! - Producer claim: `seq` is loaded `Acquire`. Observing `seq == pos`
//!   means the consumer's recycle store of the previous lap is visible,
//!   i.e. the consumer has finished *reading* the cell's previous record
//!   before we overwrite it.
//! - Producer publish: the four record words are stored `Relaxed`, then
//!   `seq` is stored `Release` with `pos + 1`. The release fence orders
//!   the data stores before the stamp.
//! - Consumer read: `seq` is loaded `Acquire`; only a cell stamped
//!   `pos + 1` is read (relaxed data loads, made visible by the
//!   acquire/release pair on `seq`). A claimed-but-unpublished cell stops
//!   the harvest — the drainer never spins on a preempted producer.
//! - Consumer recycle: `seq` is stored `Release` with `pos + ring_len`,
//!   handing the cell to the producer one lap ahead.
//! - The `head` CAS that claims a slot is `Relaxed`: cell exclusivity
//!   comes from the `seq` protocol, the cursor only arbitrates *which*
//!   position a producer claims.
//!
//! Per-shard FIFO follows from claim order: concurrent pushes to one
//! queue get distinct, ordered positions, and the single consumer
//! harvests positions in order. A task maps to one queue for its whole
//! life, so per-task emit order — the only order replay is sensitive to
//! (the accounting state is task-local, and
//! [`BatchStamper`](crate::trace::BatchStamper) makes stamps independent
//! of cross-queue order) — is preserved structurally. When
//! each producer thread drives its own tasks (the steady state the name
//! "per-producer" describes: sequential task ids spread producers across
//! queues), the claim CAS never contends and the push is wait-free; two
//! producers sharing a queue degrade to lock-free, never to blocking.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::ids::{ResourceId, TaskId};
use crate::trace::{EventKind, PushOutcome, TraceRecord};

/// A `head`/`tail` cursor on its own cache lines so producers claiming
/// slots never false-share with the drainer's harvest cursor.
#[repr(align(128))]
struct PaddedCounter(AtomicU64);

/// One ring cell: a seqlock stamp plus the four words of a
/// [`TraceRecord`]. The stamp cycles `pos` (free) → `pos + 1`
/// (published) → `pos + ring_len` (free for the next lap).
struct Cell {
    seq: AtomicU64,
    now: AtomicU64,
    task: AtomicU64,
    amount: AtomicU64,
    /// `rid` in the low 32 bits, [`EventKind`] discriminant above.
    meta: AtomicU64,
}

fn encode_kind(kind: EventKind) -> u64 {
    match kind {
        EventKind::Get => 0,
        EventKind::Free => 1,
        EventKind::SlowBy => 2,
    }
}

fn decode_kind(bits: u64) -> EventKind {
    match bits {
        0 => EventKind::Get,
        1 => EventKind::Free,
        _ => EventKind::SlowBy,
    }
}

/// A bounded MPSC ring of [`TraceRecord`]s: lock-free multi-producer
/// push, single-consumer harvest (the drainer, serialized by the
/// runtime's state lock).
#[repr(align(128))]
pub struct RecordQueue {
    cells: Box<[Cell]>,
    /// `cells.len() - 1`; the ring length is a power of two.
    mask: u64,
    /// Logical capacity: `push` reports [`PushOutcome::Full`] once
    /// `head - tail` reaches this, which may be below the physical ring
    /// length (the configured capacity need not be a power of two).
    capacity: u64,
    /// Next claim position (producers CAS).
    head: PaddedCounter,
    /// Next harvest position (consumer-only store, producer-read for the
    /// capacity bound).
    tail: PaddedCounter,
}

impl RecordQueue {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let len = capacity.next_power_of_two();
        Self {
            cells: (0..len)
                .map(|i| Cell {
                    seq: AtomicU64::new(i as u64),
                    now: AtomicU64::new(0),
                    task: AtomicU64::new(0),
                    amount: AtomicU64::new(0),
                    meta: AtomicU64::new(0),
                })
                .collect(),
            mask: (len - 1) as u64,
            capacity: capacity as u64,
            head: PaddedCounter(AtomicU64::new(0)),
            tail: PaddedCounter(AtomicU64::new(0)),
        }
    }

    /// Claims a slot and publishes `rec`; hands `rec` back when the queue
    /// holds `capacity` unharvested records.
    fn push(&self, rec: TraceRecord) -> PushOutcome {
        let mut pos = self.head.0.load(Ordering::Relaxed);
        loop {
            if pos.wrapping_sub(self.tail.0.load(Ordering::Acquire)) >= self.capacity {
                return PushOutcome::Full(rec);
            }
            let cell = &self.cells[(pos & self.mask) as usize];
            let seq = cell.seq.load(Ordering::Acquire);
            if seq == pos {
                match self.head.0.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        cell.now.store(rec.now, Ordering::Relaxed);
                        cell.task.store(rec.task.0, Ordering::Relaxed);
                        cell.amount.store(rec.amount, Ordering::Relaxed);
                        cell.meta.store(
                            rec.rid.0 as u64 | encode_kind(rec.kind) << 32,
                            Ordering::Relaxed,
                        );
                        cell.seq.store(pos + 1, Ordering::Release);
                        return PushOutcome::Buffered;
                    }
                    Err(current) => pos = current,
                }
            } else if seq < pos {
                // Physical lap: the consumer has not recycled this cell
                // yet (only reachable when capacity == ring length).
                return PushOutcome::Full(rec);
            } else {
                // Another producer claimed this position; re-read.
                pos = self.head.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Harvests published records in claim order, up to (not including)
    /// position `upto`, appending to `out`. Stops early at a
    /// claimed-but-unpublished cell (a producer between claim and
    /// publish); those records stay for the next epoch. Single consumer
    /// only.
    fn harvest_upto(&self, upto: u64, out: &mut Vec<TraceRecord>) {
        let mut pos = self.tail.0.load(Ordering::Relaxed);
        // `<`, not `!=`: a boundary from an epoch the consumer already
        // drained past is a no-op, never a lap-long walk.
        while pos < upto {
            let cell = &self.cells[(pos & self.mask) as usize];
            if cell.seq.load(Ordering::Acquire) != pos + 1 {
                break;
            }
            out.push(TraceRecord {
                now: cell.now.load(Ordering::Relaxed),
                task: TaskId(cell.task.load(Ordering::Relaxed)),
                amount: cell.amount.load(Ordering::Relaxed),
                rid: ResourceId(cell.meta.load(Ordering::Relaxed) as u32),
                kind: decode_kind(cell.meta.load(Ordering::Relaxed) >> 32),
            });
            cell.seq
                .store(pos + self.cells.len() as u64, Ordering::Release);
            pos += 1;
        }
        self.tail.0.store(pos, Ordering::Release);
    }

    /// Records claimed and not yet harvested (exact when quiescent,
    /// approximate under concurrent producers).
    fn len(&self) -> u64 {
        let tail = self.tail.0.load(Ordering::Acquire);
        self.head.0.load(Ordering::Acquire).saturating_sub(tail)
    }
}

/// The claim-cursor snapshot taken by [`LockFreeIngest::begin_epoch`]:
/// the harvest boundary of one drain epoch.
#[derive(Debug)]
pub struct EpochBoundary {
    epoch: u64,
    heads: Box<[u64]>,
}

impl EpochBoundary {
    /// The epoch this boundary closed (1 for the first drain).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// Task-sharded lock-free ingest queues with epoch-based drain.
///
/// Outward contract: bounded task-sharded buffers, per-task FIFO,
/// [`PushOutcome::Full`] hand-back at the logical capacity, overflow
/// accounting. On a forced push into a still-full queue the *new* record
/// is shed (counted, dropped) — a producer cannot pop a lock-free ring
/// the single consumer owns. Single-threaded the runtime always flushes
/// before forcing, so nothing is ever shed there.
pub struct LockFreeIngest {
    queues: Box<[RecordQueue]>,
    /// Completed-drain counter; [`LockFreeIngest::begin_epoch`] advances
    /// it and stamps the boundary it returns.
    epoch: AtomicU64,
    overflow_dropped: AtomicU64,
    capacity: usize,
}

impl std::fmt::Debug for LockFreeIngest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockFreeIngest")
            .field("queues", &self.queues.len())
            .field("capacity", &self.capacity)
            .field("epoch", &self.epochs())
            .field("pending", &self.pending())
            .finish()
    }
}

impl LockFreeIngest {
    /// Creates at least `queues` rings of `capacity` records each. The
    /// queue count rounds up to a power of two so queue selection is a
    /// mask instead of an integer division on the emit path; the ring
    /// length rounds up internally while `capacity` stays the exact
    /// `Full` threshold.
    pub fn new(queues: usize, capacity: usize) -> Self {
        let queues = queues.max(1).next_power_of_two();
        let capacity = capacity.max(1);
        Self {
            queues: (0..queues).map(|_| RecordQueue::new(capacity)).collect(),
            epoch: AtomicU64::new(0),
            overflow_dropped: AtomicU64::new(0),
            capacity,
        }
    }

    #[inline]
    fn queue_for(&self, task: TaskId) -> &RecordQueue {
        // Task ids are assigned sequentially, so masking the low bits
        // spreads concurrent tasks evenly across queues, and a task keeps
        // its queue for life (per-task FIFO is per-queue FIFO).
        &self.queues[task.0 as usize & (self.queues.len() - 1)]
    }

    /// Appends one tracing call to its task's queue; lock-free, and
    /// wait-free when the queue has a single active producer.
    pub fn push(
        &self,
        task: TaskId,
        rid: ResourceId,
        amount: u64,
        kind: EventKind,
        now: u64,
    ) -> PushOutcome {
        self.queue_for(task).push(TraceRecord {
            now,
            task,
            rid,
            amount,
            kind,
        })
    }

    /// Best-effort append after a `Full` hand-back: retries the push and,
    /// if the queue is still full (a concurrent producer refilled it
    /// mid-flush, or the drainer is busy), sheds `rec` into the overflow
    /// count. Never blocks, never touches the consumer side.
    pub fn force_push(&self, rec: TraceRecord) {
        if let PushOutcome::Full(_) = self.queue_for(rec.task).push(rec) {
            self.overflow_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Opens a drain epoch: advances the epoch counter and snapshots
    /// every queue's claim cursor. [`LockFreeIngest::harvest`] collects
    /// exactly the records claimed before this boundary, so one drain is
    /// bounded work no matter how fast producers keep appending.
    pub fn begin_epoch(&self) -> EpochBoundary {
        EpochBoundary {
            epoch: self.epoch.fetch_add(1, Ordering::AcqRel) + 1,
            heads: self
                .queues
                .iter()
                .map(|q| q.head.0.load(Ordering::Acquire))
                .collect(),
        }
    }

    /// Harvests queue `i` up to `boundary`, appending the records in
    /// emit order to `out`. Must only run under the runtime's state lock
    /// (single consumer); see [`RecordQueue::harvest_upto`] for the
    /// early-stop contract at unpublished cells.
    pub fn harvest(&self, i: usize, boundary: &EpochBoundary, out: &mut Vec<TraceRecord>) {
        self.queues[i].harvest_upto(boundary.heads[i], out);
    }

    /// Completed drain epochs.
    pub fn epochs(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Empties every queue through one epoch and returns the records,
    /// grouped by queue with each queue in emit order (tests and benches;
    /// the runtime harvests per queue into its scratch buffer instead).
    pub fn drain(&self) -> Vec<TraceRecord> {
        let boundary = self.begin_epoch();
        let mut out = Vec::new();
        for i in 0..self.queues.len() {
            self.harvest(i, &boundary, &mut out);
        }
        out
    }

    /// Takes (and resets) the count of records shed by overflow since the
    /// last call.
    pub fn take_overflow_dropped(&self) -> u64 {
        self.overflow_dropped.swap(0, Ordering::Relaxed)
    }

    /// Records buffered and not yet harvested across all queues.
    pub fn pending(&self) -> usize {
        self.queues.iter().map(|q| q.len() as usize).sum()
    }

    /// Number of queues.
    pub fn queue_count(&self) -> usize {
        self.queues.len()
    }

    /// Per-queue record capacity (the exact `Full` threshold).
    pub fn queue_capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(task: u64, now: u64) -> TraceRecord {
        TraceRecord {
            now,
            task: TaskId(task),
            rid: ResourceId(0),
            amount: 1,
            kind: EventKind::Get,
        }
    }

    #[test]
    fn roundtrips_every_field() {
        let ing = LockFreeIngest::new(1, 8);
        for (i, kind) in [EventKind::Get, EventKind::Free, EventKind::SlowBy]
            .into_iter()
            .enumerate()
        {
            ing.push(
                TaskId(7),
                ResourceId(i as u32 + 40),
                i as u64 + 3,
                kind,
                100 + i as u64,
            );
        }
        let recs = ing.drain();
        assert_eq!(recs.len(), 3);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.task, TaskId(7));
            assert_eq!(r.rid, ResourceId(i as u32 + 40));
            assert_eq!(r.amount, i as u64 + 3);
            assert_eq!(r.now, 100 + i as u64);
        }
        assert_eq!(recs[0].kind, EventKind::Get);
        assert_eq!(recs[1].kind, EventKind::Free);
        assert_eq!(recs[2].kind, EventKind::SlowBy);
    }

    #[test]
    fn full_queue_hands_the_record_back_at_exact_capacity() {
        // Capacity 9 rounds the ring to 16 cells, but Full must trigger
        // at the *logical* capacity.
        let ing = LockFreeIngest::new(1, 9);
        for i in 0..9u64 {
            assert!(matches!(
                ing.push(TaskId(0), ResourceId(0), 1, EventKind::Get, i),
                PushOutcome::Buffered
            ));
        }
        let handed = match ing.push(TaskId(0), ResourceId(0), 1, EventKind::Get, 99) {
            PushOutcome::Full(r) => r,
            other => panic!("expected Full, got {other:?}"),
        };
        assert_eq!(handed.now, 99);
        assert_eq!(ing.pending(), 9);
        // force_push on a still-full queue sheds the new record.
        ing.force_push(handed);
        assert_eq!(ing.take_overflow_dropped(), 1);
        assert_eq!(ing.drain().len(), 9);
        // After the drain the queue has room again.
        ing.force_push(rec(0, 100));
        assert_eq!(ing.take_overflow_dropped(), 0);
        assert_eq!(ing.pending(), 1);
    }

    #[test]
    fn ring_wraps_across_many_epochs() {
        let ing = LockFreeIngest::new(2, 4);
        let mut total = 0u64;
        for round in 0..50u64 {
            for i in 0..4u64 {
                ing.push(
                    TaskId(i % 2),
                    ResourceId(0),
                    1,
                    EventKind::Get,
                    round * 10 + i,
                );
            }
            total += ing.drain().len() as u64;
        }
        assert_eq!(total, 200);
        assert_eq!(ing.epochs(), 50);
        assert_eq!(ing.pending(), 0);
    }

    #[test]
    fn records_pushed_after_the_boundary_wait_for_the_next_epoch() {
        let ing = LockFreeIngest::new(1, 64);
        ing.push(TaskId(0), ResourceId(0), 1, EventKind::Get, 1);
        ing.push(TaskId(0), ResourceId(0), 1, EventKind::Get, 2);
        let boundary = ing.begin_epoch();
        // Emitted mid-drain: claimed after the snapshot.
        ing.push(TaskId(0), ResourceId(0), 1, EventKind::Get, 3);
        let mut out = Vec::new();
        ing.harvest(0, &boundary, &mut out);
        assert_eq!(out.iter().map(|r| r.now).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(ing.pending(), 1);
        assert_eq!(ing.drain().len(), 1);
    }

    #[test]
    fn tasks_spread_across_queues_and_keep_fifo() {
        let ing = LockFreeIngest::new(4, 64);
        for i in 0..40u64 {
            ing.push(TaskId(i % 5), ResourceId(0), 1, EventKind::Get, i);
        }
        let recs = ing.drain();
        assert_eq!(recs.len(), 40);
        for task in 0..5u64 {
            let nows: Vec<u64> = recs
                .iter()
                .filter(|r| r.task == TaskId(task))
                .map(|r| r.now)
                .collect();
            assert_eq!(nows.len(), 8);
            assert!(
                nows.windows(2).all(|w| w[0] < w[1]),
                "task {task}: {nows:?}"
            );
        }
    }

    #[test]
    fn concurrent_producers_conserve_and_keep_per_producer_fifo() {
        use std::sync::Arc;
        let ing = Arc::new(LockFreeIngest::new(8, 1 << 14));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let ing = Arc::clone(&ing);
                s.spawn(move || {
                    for i in 0..5_000u64 {
                        match ing.push(TaskId(t), ResourceId(0), 1, EventKind::Get, i) {
                            PushOutcome::Buffered => {}
                            PushOutcome::Full(r) => ing.force_push(r),
                        }
                    }
                });
            }
        });
        let recs = ing.drain();
        assert_eq!(recs.len() as u64 + ing.take_overflow_dropped(), 20_000);
        for task in 0..4u64 {
            let mine: Vec<_> = recs.iter().filter(|r| r.task == TaskId(task)).collect();
            assert_eq!(mine.len(), 5_000);
            for w in mine.windows(2) {
                assert!(w[0].now < w[1].now, "producer {task} reordered");
            }
        }
    }
}
