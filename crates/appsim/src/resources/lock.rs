//! Shared/exclusive locks with FIFO wait queues.
//!
//! Models the synchronization resources of Table 2: table locks, backup
//! flush locks, undo-log mutexes, WAL locks, document/index/KV locks.
//! Grants are strictly FIFO (no barging): an acquisition only succeeds
//! immediately if it is compatible with the holders *and* nobody is
//! queued, which is what turns one long holder into a convoy — the paper's
//! case 2 dynamics.

use std::collections::VecDeque;

use crate::ids::{LockId, RequestId};
use crate::op::LockMode;

/// Result of an acquisition attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireResult {
    /// The lock was granted immediately.
    Granted,
    /// The requester was placed in the FIFO wait queue.
    Queued,
}

#[derive(Debug, Default)]
struct LockState {
    holders: Vec<(RequestId, LockMode)>,
    waiters: VecDeque<(RequestId, LockMode)>,
}

impl LockState {
    fn compatible(&self, mode: LockMode) -> bool {
        match mode {
            LockMode::Exclusive => self.holders.is_empty(),
            LockMode::Shared => self.holders.iter().all(|(_, m)| *m == LockMode::Shared),
        }
    }

    /// Grants queued waiters that are now compatible; returns their ids.
    fn drain_grants(&mut self) -> Vec<RequestId> {
        let mut granted = Vec::new();
        while let Some(&(req, mode)) = self.waiters.front() {
            if self.compatible(mode) {
                self.waiters.pop_front();
                self.holders.push((req, mode));
                granted.push(req);
            } else {
                break;
            }
        }
        granted
    }
}

/// A namespace of shared/exclusive FIFO locks.
#[derive(Debug, Default)]
pub struct LockManager {
    locks: Vec<LockState>,
}

impl LockManager {
    /// Creates a manager with `n` locks (ids `0..n`).
    pub fn new(n: usize) -> Self {
        Self {
            locks: (0..n).map(|_| LockState::default()).collect(),
        }
    }

    /// Number of locks.
    pub fn len(&self) -> usize {
        self.locks.len()
    }

    /// True if the manager has no locks.
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }

    fn state(&mut self, lock: LockId) -> &mut LockState {
        &mut self.locks[lock.0 as usize]
    }

    /// Attempts to acquire `lock` for `req`.
    pub fn acquire(&mut self, lock: LockId, req: RequestId, mode: LockMode) -> AcquireResult {
        let s = self.state(lock);
        if s.waiters.is_empty() && s.compatible(mode) {
            s.holders.push((req, mode));
            AcquireResult::Granted
        } else {
            s.waiters.push_back((req, mode));
            AcquireResult::Queued
        }
    }

    /// Releases `lock` held by `req`; returns requests granted as a
    /// result (they should be resumed by the caller).
    pub fn release(&mut self, lock: LockId, req: RequestId) -> Vec<RequestId> {
        let s = self.state(lock);
        s.holders.retain(|(r, _)| *r != req);
        s.drain_grants()
    }

    /// Removes `req` from the wait queue of `lock` (cancellation while
    /// blocked). Returns newly granted requests: removing a queued
    /// exclusive waiter can unblock compatible waiters behind it.
    pub fn remove_waiter(&mut self, lock: LockId, req: RequestId) -> Vec<RequestId> {
        let s = self.state(lock);
        let before = s.waiters.len();
        s.waiters.retain(|(r, _)| *r != req);
        if s.waiters.len() == before {
            return Vec::new();
        }
        s.drain_grants()
    }

    /// Current holders of `lock`.
    pub fn holders(&self, lock: LockId) -> Vec<RequestId> {
        self.locks[lock.0 as usize]
            .holders
            .iter()
            .map(|(r, _)| *r)
            .collect()
    }

    /// Length of the wait queue of `lock`.
    pub fn queue_len(&self, lock: LockId) -> usize {
        self.locks[lock.0 as usize].waiters.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> LockManager {
        LockManager::new(2)
    }
    const L: LockId = LockId(0);

    #[test]
    fn shared_holders_coexist() {
        let mut m = mgr();
        assert_eq!(
            m.acquire(L, RequestId(1), LockMode::Shared),
            AcquireResult::Granted
        );
        assert_eq!(
            m.acquire(L, RequestId(2), LockMode::Shared),
            AcquireResult::Granted
        );
        assert_eq!(m.holders(L).len(), 2);
    }

    #[test]
    fn exclusive_excludes_everyone() {
        let mut m = mgr();
        assert_eq!(
            m.acquire(L, RequestId(1), LockMode::Exclusive),
            AcquireResult::Granted
        );
        assert_eq!(
            m.acquire(L, RequestId(2), LockMode::Shared),
            AcquireResult::Queued
        );
        assert_eq!(
            m.acquire(L, RequestId(3), LockMode::Exclusive),
            AcquireResult::Queued
        );
        assert_eq!(m.queue_len(L), 2);
    }

    #[test]
    fn release_grants_fifo_batch_of_shared() {
        let mut m = mgr();
        m.acquire(L, RequestId(1), LockMode::Exclusive);
        m.acquire(L, RequestId(2), LockMode::Shared);
        m.acquire(L, RequestId(3), LockMode::Shared);
        m.acquire(L, RequestId(4), LockMode::Exclusive);
        let granted = m.release(L, RequestId(1));
        assert_eq!(granted, vec![RequestId(2), RequestId(3)]);
        assert_eq!(m.queue_len(L), 1); // the exclusive still waits
    }

    #[test]
    fn no_barging_past_queued_exclusive() {
        // Shared holder + queued exclusive: a new shared request must queue
        // behind the exclusive (this is the convoy that makes the backup
        // lock case block all writers *and* readers).
        let mut m = mgr();
        m.acquire(L, RequestId(1), LockMode::Shared);
        m.acquire(L, RequestId(2), LockMode::Exclusive);
        assert_eq!(
            m.acquire(L, RequestId(3), LockMode::Shared),
            AcquireResult::Queued
        );
        let granted = m.release(L, RequestId(1));
        assert_eq!(granted, vec![RequestId(2)]);
        let granted = m.release(L, RequestId(2));
        assert_eq!(granted, vec![RequestId(3)]);
    }

    #[test]
    fn remove_waiter_can_unblock_followers() {
        let mut m = mgr();
        m.acquire(L, RequestId(1), LockMode::Shared);
        m.acquire(L, RequestId(2), LockMode::Exclusive);
        m.acquire(L, RequestId(3), LockMode::Shared);
        // Cancel the queued exclusive: the shared waiter behind it becomes
        // compatible with the shared holder.
        let granted = m.remove_waiter(L, RequestId(2));
        assert_eq!(granted, vec![RequestId(3)]);
    }

    #[test]
    fn remove_unknown_waiter_is_noop() {
        let mut m = mgr();
        m.acquire(L, RequestId(1), LockMode::Exclusive);
        assert!(m.remove_waiter(L, RequestId(9)).is_empty());
    }

    #[test]
    fn release_without_waiters_grants_nothing() {
        let mut m = mgr();
        m.acquire(L, RequestId(1), LockMode::Exclusive);
        assert!(m.release(L, RequestId(1)).is_empty());
        assert!(m.holders(L).is_empty());
    }

    #[test]
    fn locks_are_independent() {
        let mut m = mgr();
        m.acquire(LockId(0), RequestId(1), LockMode::Exclusive);
        assert_eq!(
            m.acquire(LockId(1), RequestId(2), LockMode::Exclusive),
            AcquireResult::Granted
        );
    }
}
