//! Event tracing and timestamp sampling (§3.2).
//!
//! Each tracing API call records a `(value, rscType, eventType)` tuple with
//! a timestamp. Under normal load the recorded *stamp* is sampled: events
//! inside one fixed interval share the interval's quantized stamp. When the
//! detector sees a potential overload it switches to precise per-event
//! stamps for accurate wait/hold measurement, and back once the overload
//! clears.
//!
//! Sampling shares the stamp, not the clock read:
//! [`AtroposRuntime`](crate::AtroposRuntime)'s tracing calls read the clock
//! once per event in both modes, and the stamp is chosen at drain time. A
//! `SystemClock` read costs ≈ 30–35 ns; the 18 reads of a steady request
//! (16 of them trace events) are ≈ 45 % of its cost (`BENCH_trace.json`
//! `steady_request`, 2-core x86-64 Xeon). A cheaper source, such as the
//! paper's rdtsc, needs `unsafe`, architecture-specific code and
//! calibration; it is not attempted here.

use serde::{Deserialize, Serialize};

use crate::ids::{ResourceId, TaskId};

/// The three resource operations of the paper's unified abstraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// `getResource`: the task acquired `amount` units.
    Get,
    /// `freeResource`: the task released `amount` units.
    Free,
    /// `slowByResource`: the task was delayed by the resource (began
    /// waiting for a lock/queue slot, or caused `amount` evictions).
    SlowBy,
}

/// Timestamping mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimestampMode {
    /// Normal load: events in one sampling interval share the interval's
    /// quantized stamp.
    Sampled,
    /// Potential overload: every event is stamped with its own reading.
    Precise,
}

/// Assigns timestamps to trace events according to the current mode.
#[derive(Debug, Clone)]
pub struct TimestampPolicy {
    mode: TimestampMode,
    interval_ns: u64,
    last_sample: u64,
    clock_reads: u64,
}

impl TimestampPolicy {
    /// Creates a policy in [`TimestampMode::Sampled`] mode.
    pub fn new(interval_ns: u64) -> Self {
        Self {
            mode: TimestampMode::Sampled,
            interval_ns: interval_ns.max(1),
            last_sample: 0,
            clock_reads: 0,
        }
    }

    /// Current mode.
    pub fn mode(&self) -> TimestampMode {
        self.mode
    }

    /// Switches mode (driven by the detector).
    pub fn set_mode(&mut self, mode: TimestampMode) {
        self.mode = mode;
    }

    /// Produces the timestamp to record for an event occurring at `now`.
    ///
    /// In `Sampled` mode the returned timestamp only advances when `now`
    /// has moved a full interval past the last sample, so events within an
    /// interval share a timestamp; in `Precise` mode it is `now` itself.
    pub fn stamp(&mut self, now: u64) -> u64 {
        match self.mode {
            TimestampMode::Precise => {
                self.clock_reads += 1;
                self.last_sample = now;
                now
            }
            TimestampMode::Sampled => {
                if now >= self.last_sample + self.interval_ns || self.clock_reads == 0 {
                    self.clock_reads += 1;
                    // Quantize to the interval grid so the shared stamp is
                    // stable regardless of which event triggered the sample.
                    self.last_sample = now - now % self.interval_ns;
                }
                self.last_sample
            }
        }
    }

    /// Number of distinct stamps issued: one per sampled interval touched,
    /// one per precise event. The runtime reads the clock on every event
    /// regardless, so this counts the samples the paper's design would
    /// have read (§5.5 overhead), not reads performed.
    pub fn clock_reads(&self) -> u64 {
        self.clock_reads
    }

    /// Starts a batch replay of buffered events (see [`BatchStamper`]).
    pub fn begin_batch(&self) -> BatchStamper {
        BatchStamper {
            mode: self.mode,
            interval_ns: self.interval_ns,
            last0: self.last_sample,
            first_ever: self.clock_reads == 0,
            threshold: self.last_sample.saturating_add(self.interval_ns),
            records: 0,
            max_now: 0,
            intervals: Vec::new(),
        }
    }

    /// Folds a finished batch back into the policy: the state afterwards
    /// is exactly what stamping the batch's events one by one (in global
    /// time order) would have left behind.
    pub fn commit_batch(&mut self, batch: BatchStamper) {
        if batch.records == 0 {
            return;
        }
        debug_assert_eq!(self.mode, batch.mode, "mode changed during a batch");
        match batch.mode {
            TimestampMode::Precise => {
                self.clock_reads += batch.records;
                self.last_sample = batch.max_now;
            }
            TimestampMode::Sampled => {
                let mut intervals = batch.intervals;
                intervals.sort_unstable();
                intervals.dedup();
                self.clock_reads += intervals.len() as u64;
                if batch.first_ever || batch.max_now >= batch.threshold {
                    self.last_sample = batch.max_now - batch.max_now % self.interval_ns;
                }
            }
        }
    }
}

/// Order-free replay stamping for one batch of buffered events.
///
/// Over a time-monotone event sequence — which single-threaded emission
/// is — the sequential [`TimestampPolicy::stamp`] recurrence collapses to
/// a closed form that depends only on the policy state at batch start:
///
/// - precise mode: `stamp(now) = now`;
/// - sampled mode: `stamp(now) = last0` while `now` is still inside the
///   interval open at batch start, and the interval-quantized `now`
///   otherwise (always the latter if the policy has never sampled).
///
/// No stamp depends on the *other* events in the batch, so a drain can
/// replay each ingest queue independently — no global merge or sort —
/// and still assign every event exactly the stamp sequential per-event
/// application would have. [`TimestampPolicy::commit_batch`] then advances
/// the policy to the sequential end state (last sample from the batch
/// maximum, `clock_reads` from the distinct intervals touched).
///
/// Under concurrent producers per-queue sequences are still monotone
/// per thread, but no total time order exists in the first place; the
/// closed form then just picks one valid serialization.
#[derive(Debug)]
pub struct BatchStamper {
    mode: TimestampMode,
    interval_ns: u64,
    last0: u64,
    first_ever: bool,
    threshold: u64,
    records: u64,
    max_now: u64,
    /// Sampled intervals touched; deduped against the previous push so it
    /// stays one entry per interval per queue, then fully deduped at
    /// commit.
    intervals: Vec<u64>,
}

impl BatchStamper {
    /// Returns the stamp for an event emitted at `now`.
    #[inline]
    pub fn stamp(&mut self, now: u64) -> u64 {
        self.records += 1;
        if now > self.max_now {
            self.max_now = now;
        }
        match self.mode {
            TimestampMode::Precise => now,
            TimestampMode::Sampled => {
                if self.first_ever || now >= self.threshold {
                    let q = now - now % self.interval_ns;
                    if self.intervals.last() != Some(&q) {
                        self.intervals.push(q);
                    }
                    q
                } else {
                    self.last0
                }
            }
        }
    }
}

/// One buffered tracing call, pending replay into the accounting state.
///
/// `now` is the raw clock reading at emit time; the shared-vs-precise
/// timestamp (the [`TimestampPolicy`] stamp) is assigned at drain time by
/// [`BatchStamper`], which produces the same stamps sequential
/// per-event application would have.
/// There is deliberately no sequence number: replay needs only per-task
/// emit order, which the queue's FIFO order preserves (a task always
/// maps to the same queue), and a global sequence would put a shared
/// atomic back on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Clock reading at emit time (ns).
    pub now: u64,
    /// Emitting task.
    pub task: TaskId,
    /// Referenced resource.
    pub rid: ResourceId,
    /// Units acquired / released / evicted.
    pub amount: u64,
    /// Which tracing API was called.
    pub kind: EventKind,
}

/// Result of [`LockFreeIngest::push`](crate::lockfree::LockFreeIngest::push).
#[derive(Debug)]
pub enum PushOutcome {
    /// The record was appended to its task's queue.
    Buffered,
    /// The queue is at capacity; the record is handed back so the caller
    /// can either flush the buffers and retry or shed load
    /// ([`LockFreeIngest::force_push`](crate::lockfree::LockFreeIngest::force_push)).
    Full(TraceRecord),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precise_mode_returns_now() {
        let mut p = TimestampPolicy::new(1000);
        p.set_mode(TimestampMode::Precise);
        assert_eq!(p.stamp(123), 123);
        assert_eq!(p.stamp(456), 456);
        assert_eq!(p.clock_reads(), 2);
    }

    #[test]
    fn sampled_mode_shares_timestamps_within_interval() {
        let mut p = TimestampPolicy::new(1000);
        let t0 = p.stamp(100);
        let t1 = p.stamp(500);
        let t2 = p.stamp(999);
        assert_eq!(t0, t1);
        assert_eq!(t1, t2);
        assert_eq!(p.clock_reads(), 1);
    }

    #[test]
    fn sampled_mode_advances_after_interval() {
        let mut p = TimestampPolicy::new(1000);
        let t0 = p.stamp(100);
        let t1 = p.stamp(1500);
        assert!(t1 > t0);
        assert_eq!(t1, 1000); // quantized to the grid
        assert_eq!(p.clock_reads(), 2);
    }

    #[test]
    fn sampled_stamp_is_monotonic() {
        let mut p = TimestampPolicy::new(777);
        let mut last = 0;
        for now in (0..100_000).step_by(137) {
            let s = p.stamp(now);
            assert!(s >= last);
            assert!(s <= now);
            last = s;
        }
    }

    #[test]
    fn mode_switch_roundtrip_keeps_monotonicity() {
        let mut p = TimestampPolicy::new(1000);
        let a = p.stamp(100);
        p.set_mode(TimestampMode::Precise);
        let b = p.stamp(150);
        p.set_mode(TimestampMode::Sampled);
        let c = p.stamp(160);
        assert!(a <= b);
        // After returning to sampled mode the stamp may reuse the last
        // sample but never exceeds now.
        assert!(c <= 160);
    }

    #[test]
    fn zero_interval_is_clamped() {
        let mut p = TimestampPolicy::new(0);
        let _ = p.stamp(5);
        let _ = p.stamp(6);
        assert!(p.clock_reads() >= 1);
    }

    #[test]
    fn sampled_mode_reads_clock_far_less_often() {
        let mut sampled = TimestampPolicy::new(1_000_000); // 1 ms
        let mut precise = TimestampPolicy::new(1_000_000);
        precise.set_mode(TimestampMode::Precise);
        for now in (0..10_000_000u64).step_by(1000) {
            sampled.stamp(now);
            precise.stamp(now);
        }
        assert!(sampled.clock_reads() * 100 <= precise.clock_reads());
    }

    /// The closed-form batch stamper must agree with the sequential
    /// policy on every monotone emission sequence — per-record stamps,
    /// final sample state, and clock-read count — even when records are
    /// replayed stripe by stripe instead of in global time order.
    #[test]
    fn batch_stamper_matches_sequential_policy() {
        const INTERVAL: u64 = 1_000;
        const STRIPES: usize = 4;
        // A deterministic monotone `now` sequence with interval-internal
        // clusters, exact boundary hits, and long gaps.
        let mut nows = Vec::new();
        let mut now = 0u64;
        for i in 0u64..400 {
            now += match i % 7 {
                0 => 0,        // duplicate timestamps
                1..=3 => 37,   // intra-interval steps
                4 => INTERVAL, // exactly one interval
                5 => 13,
                _ => 2_481, // multi-interval jump
            };
            nows.push(now);
        }
        // Exercise both modes and mid-stream switches, batching 100
        // records at a time (mode is constant within a batch, as in the
        // runtime, where mode only changes at the drain point). The
        // precise→sampled case matters: it leaves a last sample that is
        // not interval-aligned.
        use TimestampMode::{Precise, Sampled};
        let schedules: [&[TimestampMode]; 4] = [
            &[Sampled, Sampled, Sampled, Sampled],
            &[Sampled, Precise, Precise, Precise],
            &[Sampled, Precise, Sampled, Sampled],
            &[Precise, Sampled, Precise, Sampled],
        ];
        for schedule in schedules {
            let mut seq_policy = TimestampPolicy::new(INTERVAL);
            let mut batch_policy = TimestampPolicy::new(INTERVAL);
            for (chunk_idx, chunk) in nows.chunks(100).enumerate() {
                seq_policy.set_mode(schedule[chunk_idx]);
                batch_policy.set_mode(schedule[chunk_idx]);
                let expected: Vec<u64> = chunk.iter().map(|&n| seq_policy.stamp(n)).collect();
                // Replay stripe by stripe: stripe s gets every STRIPES-th
                // record, so cross-stripe order is maximally shuffled
                // while per-stripe order stays monotone.
                let mut got = vec![0u64; chunk.len()];
                let mut stamper = batch_policy.begin_batch();
                for s in 0..STRIPES {
                    for (j, &n) in chunk.iter().enumerate() {
                        if j % STRIPES == s {
                            got[j] = stamper.stamp(n);
                        }
                    }
                }
                batch_policy.commit_batch(stamper);
                assert_eq!(got, expected, "stamps diverged in chunk {chunk_idx}");
                assert_eq!(
                    batch_policy.clock_reads(),
                    seq_policy.clock_reads(),
                    "clock reads diverged in chunk {chunk_idx}"
                );
            }
        }
    }

    #[test]
    fn empty_batch_leaves_policy_untouched() {
        let mut p = TimestampPolicy::new(1_000);
        p.stamp(5_500);
        let before_reads = p.clock_reads();
        let stamper = p.begin_batch();
        p.commit_batch(stamper);
        assert_eq!(p.clock_reads(), before_reads);
        assert_eq!(p.stamp(5_600), 5_000);
    }
}
