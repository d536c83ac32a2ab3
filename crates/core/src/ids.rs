//! Identifiers for cancellable tasks and application resources.

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
}
