//! A GC-managed heap with stop-the-world pauses.
//!
//! Models case c11: an Elasticsearch nested aggregation that retains a
//! large fraction of the heap, pushing occupancy over the GC threshold so
//! collections fire constantly and every collection pauses the world.
//! Allocations retain `live` bytes (freed explicitly or at request end)
//! and generate `garbage` proportional to the allocation; GC reclaims the
//! garbage but not live bytes — so one hog holding live memory makes GC
//! both frequent *and* ineffective.

use crate::ids::RequestId;
use std::collections::HashMap;

/// Heap parameters.
#[derive(Debug, Clone)]
pub struct HeapConfig {
    /// Heap capacity in bytes.
    pub capacity: u64,
    /// GC triggers when `live + garbage` exceeds this fraction.
    pub gc_threshold: f64,
    /// Fixed pause per collection (ns).
    pub gc_pause_base_ns: u64,
    /// Additional pause per live megabyte (ns).
    pub gc_pause_per_mb_ns: u64,
    /// Garbage generated per allocated byte.
    pub garbage_factor: f64,
}

impl Default for HeapConfig {
    fn default() -> Self {
        Self {
            capacity: 4 << 30, // 4 GB
            gc_threshold: 0.85,
            gc_pause_base_ns: 20_000_000, // 20 ms
            gc_pause_per_mb_ns: 50_000,
            garbage_factor: 1.5,
        }
    }
}

/// Result of an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocOutcome {
    /// If a collection fired, its stop-the-world pause (ns).
    pub gc_pause_ns: Option<u64>,
    /// Garbage bytes reclaimed by that collection.
    pub reclaimed: u64,
}

/// The heap.
#[derive(Debug)]
pub struct Heap {
    cfg: HeapConfig,
    live: u64,
    garbage: u64,
    per_req: HashMap<RequestId, u64>,
    gc_count: u64,
}

impl Heap {
    /// Creates an empty heap.
    pub fn new(cfg: HeapConfig) -> Self {
        Self {
            cfg,
            live: 0,
            garbage: 0,
            per_req: HashMap::new(),
            gc_count: 0,
        }
    }

    /// Current occupancy (live + garbage).
    pub fn used(&self) -> u64 {
        self.live + self.garbage
    }

    /// Live bytes.
    pub fn live(&self) -> u64 {
        self.live
    }

    /// Collections so far.
    pub fn gc_count(&self) -> u64 {
        self.gc_count
    }

    fn maybe_gc(&mut self) -> (Option<u64>, u64) {
        let threshold = (self.cfg.capacity as f64 * self.cfg.gc_threshold) as u64;
        if self.used() <= threshold {
            return (None, 0);
        }
        self.gc_count += 1;
        let reclaimed = self.garbage;
        self.garbage = 0;
        let pause = self.cfg.gc_pause_base_ns + self.cfg.gc_pause_per_mb_ns * (self.live >> 20);
        (Some(pause), reclaimed)
    }

    /// Allocates `bytes` for `req`; may trigger a collection.
    pub fn alloc(&mut self, req: RequestId, bytes: u64) -> AllocOutcome {
        self.live += bytes;
        *self.per_req.entry(req).or_insert(0) += bytes;
        self.garbage += (bytes as f64 * self.cfg.garbage_factor) as u64;
        let (gc_pause_ns, reclaimed) = self.maybe_gc();
        AllocOutcome {
            gc_pause_ns,
            reclaimed,
        }
    }

    /// Frees up to `bytes` of `req`'s retained memory; returns the amount
    /// actually freed.
    pub fn free(&mut self, req: RequestId, bytes: u64) -> u64 {
        let held = self.per_req.get_mut(&req);
        let Some(held) = held else { return 0 };
        let freed = bytes.min(*held);
        *held -= freed;
        if *held == 0 {
            self.per_req.remove(&req);
        }
        self.live = self.live.saturating_sub(freed);
        freed
    }

    /// Releases everything `req` retained (request end / cancellation).
    pub fn release_all(&mut self, req: RequestId) -> u64 {
        let held = self.per_req.remove(&req).unwrap_or(0);
        self.live = self.live.saturating_sub(held);
        held
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap(capacity: u64) -> Heap {
        Heap::new(HeapConfig {
            capacity,
            gc_threshold: 0.5,
            gc_pause_base_ns: 1_000,
            gc_pause_per_mb_ns: 100,
            garbage_factor: 1.0,
        })
    }

    const R: RequestId = RequestId(1);
    const R2: RequestId = RequestId(2);

    #[test]
    fn alloc_tracks_live_and_garbage() {
        let mut h = heap(1 << 30);
        let out = h.alloc(R, 1 << 20);
        assert_eq!(out.gc_pause_ns, None);
        assert_eq!(h.live(), 1 << 20);
        assert_eq!(h.used(), 2 << 20); // garbage_factor = 1
        assert_eq!(h.release_all(R), 1 << 20);
    }

    #[test]
    fn gc_fires_over_threshold_and_clears_garbage() {
        let mut h = heap(4 << 20); // threshold = 2 MB
        let out = h.alloc(R, 2 << 20); // used = 4 MB > 2 MB
        assert!(out.gc_pause_ns.is_some());
        assert_eq!(h.gc_count(), 1);
        assert_eq!(h.used(), 2 << 20); // garbage gone, live remains
    }

    #[test]
    fn gc_pause_grows_with_live_bytes() {
        let mut big = heap(4 << 20);
        let p1 = big.alloc(R, 2 << 20).gc_pause_ns.unwrap();
        let mut bigger = heap(8 << 20);
        bigger.alloc(R, 3 << 20);
        let p2 = bigger.alloc(R, 3 << 20).gc_pause_ns.unwrap();
        assert!(p2 > p1);
    }

    #[test]
    fn live_hog_makes_gc_frequent() {
        // With most of the heap live, even small allocations re-trigger GC:
        // the c11 signature.
        let mut h = heap(4 << 20);
        h.alloc(R, 2 << 20); // hog retains 2 MB (= threshold)
        let mut gcs = 0;
        for _ in 0..10 {
            if h.alloc(R2, 4 << 10).gc_pause_ns.is_some() {
                gcs += 1;
            }
            h.release_all(R2);
        }
        assert_eq!(gcs, 10);
    }

    #[test]
    fn free_is_bounded_by_retained() {
        let mut h = heap(1 << 30);
        h.alloc(R, 100);
        assert_eq!(h.free(R, 40), 40);
        assert_eq!(h.free(R, 100), 60);
        assert_eq!(h.free(R, 10), 0);
        assert_eq!(h.live(), 0);
    }

    #[test]
    fn release_all_clears_request() {
        let mut h = heap(1 << 30);
        h.alloc(R, 500);
        h.alloc(R2, 300);
        assert_eq!(h.release_all(R), 500);
        assert_eq!(h.live(), 300);
        assert_eq!(h.release_all(R), 0);
    }
}
