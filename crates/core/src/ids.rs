//! Identifiers for cancellable tasks and application resources, and the
//! hasher for tables keyed by the ones the runtime assigns.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

/// Framework-assigned identifier of a cancellable task.
///
/// Task ids are unique for the lifetime of a runtime; freeing a task does
/// not recycle its id.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct TaskId(pub u64);

/// Developer-provided key identifying a task to the *application*.
///
/// This is what the cancellation initiator receives — e.g. the MySQL thread
/// id passed to `sql_kill` in the paper's Figure 7. If the developer does
/// not provide a key, the framework generates one (paper §3.1).
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct TaskKey(pub u64);

/// Identifier of a registered application resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ResourceId(pub u32);

impl ResourceId {
    /// Index into per-task resource stat vectors.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The kinds of application resource Atropos unifies (paper §3.2).
///
/// - `Lock`: resources protected by synchronization primitives (table
///   locks, undo-log mutexes, WAL, document/index locks),
/// - `Memory`: application-managed pools and caches (buffer pool, query
///   cache, heap),
/// - `Queue`: application-managed task queues (InnoDB tickets, worker
///   pools),
/// - `System`: system resources (CPU, IO) attributed to tasks — the paper
///   traces these with cgroups; our simulator reports them through the same
///   wait/use event protocol as `Lock`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResourceType {
    /// Synchronization resources (wait → acquire → release).
    Lock,
    /// Memory resources (acquire/release units, evictions as slow events).
    Memory,
    /// Queue resources (wait in queue → start executing → finish).
    Queue,
    /// System resources (CPU, IO) traced with the wait/use protocol.
    System,
}

impl ResourceType {
    /// All resource types, for exhaustive iteration in tests and benches.
    pub const ALL: [ResourceType; 4] = [
        ResourceType::Lock,
        ResourceType::Memory,
        ResourceType::Queue,
        ResourceType::System,
    ];
}

impl std::fmt::Display for ResourceType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ResourceType::Lock => "LOCK",
            ResourceType::Memory => "MEMORY",
            ResourceType::Queue => "QUEUE",
            ResourceType::System => "SYSTEM",
        };
        f.write_str(s)
    }
}

/// Hasher for keys the runtime assigns itself — [`TaskId`]s and
/// policy-index slots, dense counters no application chooses — so flooding
/// resistance buys nothing and SipHash is pure cost on the request path.
///
/// One multiply-and-rotate step per word (the FxHash recurrence). The odd
/// multiplier carries consecutive keys into the top 7 bits, where
/// hashbrown takes its probe tag from, and keeps the low bits a
/// permutation of the key's, so `n` consecutive ids land in `n` distinct
/// buckets of any table with at least `n`. Identity hashing would leave
/// every tag 0.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IdHasher(u64);

impl IdHasher {
    const MUL: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::MUL);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
}

/// A map keyed by runtime-assigned ids; see [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A set of runtime-assigned ids; see [`IdHasher`].
pub(crate) type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_enum_names() {
        assert_eq!(ResourceType::Lock.to_string(), "LOCK");
        assert_eq!(ResourceType::Memory.to_string(), "MEMORY");
        assert_eq!(ResourceType::Queue.to_string(), "QUEUE");
        assert_eq!(ResourceType::System.to_string(), "SYSTEM");
    }

    #[test]
    fn all_contains_each_variant_once() {
        let mut set = std::collections::HashSet::new();
        for t in ResourceType::ALL {
            assert!(set.insert(t));
        }
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn resource_id_index_roundtrip() {
        assert_eq!(ResourceId(7).index(), 7);
    }

    /// What hashbrown needs from the hash of 65 536 consecutive task ids:
    /// the top 7 bits (the probe tag) take every value, and the low 16
    /// bits (the bucket of a 2^16 table) are a permutation.
    #[test]
    fn consecutive_ids_spread_over_tags_and_buckets() {
        use std::hash::BuildHasher;
        const N: u64 = 1 << 16;
        let build = BuildHasherDefault::<IdHasher>::default();
        let mut tags = HashSet::new();
        let mut buckets = vec![false; N as usize];
        for id in 1..=N {
            let h = build.hash_one(TaskId(id));
            tags.insert(h >> 57);
            buckets[(h % N) as usize] = true;
        }
        assert_eq!(tags.len(), 128, "top-7-bit tags in use");
        assert!(
            buckets.iter().all(|&b| b),
            "low 16 bits are not a permutation"
        );
    }
}
