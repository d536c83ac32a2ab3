//! The policy index's bench geometry: a [`TaskTable`] driving a
//! [`PolicyIndex`] over seven LOCKs, outside any runtime.
//!
//! Shared by the `policy_index/*` records (`benches/policy.rs`) and the
//! policy scaling guard (`tests/policy_scaling.rs`), so the guard measures
//! exactly the workload the recorded figures describe.

use atropos::policy::PolicyIndex;
use atropos::resource::ResourceRegistry;
use atropos::task::{TaskRecord, TaskTable};
use atropos::{ResourceType, TaskId, TaskKey};

/// Registered resources, all LOCKs.
pub const N_RESOURCES: usize = 7;

/// One population and the index it drives.
pub struct IndexLoad {
    /// The registry the terms are derived against.
    pub reg: ResourceRegistry,
    /// The tasks and their visit set.
    pub tasks: TaskTable,
    /// The index under test.
    pub index: PolicyIndex,
}

impl IndexLoad {
    /// `n` tasks, rolled once at 1 ms. The first `busy` keep an open unit
    /// and held LOCK units (every third also waits on the next LOCK), so
    /// they stay in the visit set and every window re-derives them; the
    /// rest touch a LOCK once, release it, and park after two rolls.
    pub fn new(n: usize, busy: usize) -> Self {
        let mut reg = ResourceRegistry::new();
        for i in 0..N_RESOURCES {
            reg.register(format!("r{i}"), ResourceType::Lock);
        }
        let mut index = PolicyIndex::new();
        index.reset(N_RESOURCES);
        let mut tasks = TaskTable::new(0);
        for i in 0..n {
            let mut t = TaskRecord::new(TaskId(i as u64), TaskKey(i as u64), N_RESOURCES);
            if i < busy {
                t.on_unit_start(0);
                t.usage[i % N_RESOURCES].on_get(10, 1 + (i as u64 % 5));
                if i % 3 == 0 {
                    t.usage[(i + 1) % N_RESOURCES].on_slow(20, 1);
                }
            } else {
                t.usage[i % N_RESOURCES].on_get(10, 1);
                t.usage[i % N_RESOURCES].on_free(20, 1);
            }
            tasks.insert(t);
        }
        tasks.roll(1_000_000);
        IndexLoad { reg, tasks, index }
    }

    /// A settled index over `n` busy tasks: what a candidate tick
    /// selects from when every resident is contending.
    pub fn settled(n: usize) -> Self {
        let mut load = Self::new(n, n);
        load.refresh();
        load
    }

    /// A candidate tick's refresh: parks the steady tasks, re-derives the
    /// visited ones and settles the index.
    pub fn refresh(&mut self) {
        self.tasks.refresh(&mut self.index, &self.reg, true);
    }
}
