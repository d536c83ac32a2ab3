//! Decide: the periodic detection → estimation → policy → cancellation
//! driver (Algorithm 1).
//!
//! One [`AtroposRuntime::tick`] closes the accounting window, asks the
//! detector for an overload candidate, runs the estimator to find
//! bottlenecked resources, classifies regular vs. resource overload, and
//! hands the policy's selected victim to the cancel manager. Cancellation
//! *plumbing* (initiators, scopes, operator kills) lives in `actuate.rs`.

use super::{AtroposRuntime, Inner, TickOutcome};
use crate::cancel::CancelDecision;
use crate::detect::OverloadSignal;
use crate::estimator::bottlenecked;
use crate::ids::{IdSet, ResourceType, TaskId, TaskKey};
use crate::phase::{PhaseTimer, TickPhase};
use crate::record::{CancelOrigin, DecisionEvent, RecorderHandle};
use crate::task::{TaskState, TaskTable};
use crate::trace::TimestampMode;

impl AtroposRuntime {
    /// Runs one detection → estimation → policy → cancellation cycle.
    ///
    /// Call this periodically (the detector window is the natural period).
    /// Without a recorder attached its cost follows the visit set — the
    /// tasks something happened to since the last tick, or that hold or
    /// wait on something timed — not the registered population.
    pub fn tick(&self) -> TickOutcome {
        let now = self.clock.now_ns();
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let mut timer = PhaseTimer::start();
        // The tick is the principal drain point: buffered events are
        // replayed before the windows roll, so detection, estimation and
        // policy all see the same accounting state per-event application
        // would have produced.
        inner.drain_ingest(&self.ingest);
        timer.lap(&mut inner.phases, TickPhase::Drain);
        // Ticks racing for the lock may have read their clocks out of
        // order; windows never close backwards.
        let now = now.max(inner.tasks.last_roll_ns());
        inner.stats.ticks += 1;
        // The recorder handle borrows a local clone of the Arc so emission
        // can interleave with mutable access to the rest of the state.
        let sink = inner.recorder.clone();
        let rec = RecorderHandle::new(sink.as_deref(), inner.stats.ticks);
        let in_flight = inner.tasks.roll(now);
        timer.lap(&mut inner.phases, TickPhase::Roll);
        let signal = inner.detector.evaluate_recorded(now, in_flight, &rec);
        timer.lap(&mut inner.phases, TickPhase::Detect);
        let candidate = matches!(signal, OverloadSignal::Candidate { .. });
        // The index produces decisions bit-identical to a fresh
        // `estimate` + `select_naive` (enforced by the differential
        // suites) without re-deriving every task.
        inner
            .tasks
            .refresh(&mut inner.policy_index, &inner.resources, candidate);
        // The full snapshot is owed to whoever calls `last_estimate()`;
        // nothing the tick does reads it.
        inner.estimate_stale |= candidate;
        timer.lap(&mut inner.phases, TickPhase::Refresh);
        let outcome = if candidate {
            inner.stats.candidates += 1;
            // Potential overload: switch to precise timestamps (§3.2).
            inner.ts.set_mode(TimestampMode::Precise);
            let outcome = inner.decide(now, &rec, &mut timer);
            inner.cancel.on_window(now, true);
            outcome
        } else {
            inner.ts.set_mode(TimestampMode::Sampled);
            inner.cancel.on_window(now, false);
            TickOutcome::Idle
        };
        if inner.stats.cancel != inner.cancel.stats() {
            inner.stats.cancel = inner.cancel.stats();
        }
        outcome
    }
}

impl Inner {
    /// The candidate half of a tick, on a settled index: classify the
    /// overload, select a victim, hand it to the cancel manager.
    fn decide(&mut self, now: u64, rec: &RecorderHandle, timer: &mut PhaseTimer) -> TickOutcome {
        let hot = bottlenecked(
            self.policy_index.resources(),
            self.cfg.detector.min_contention,
        );
        if hot.is_empty() {
            timer.lap(&mut self.phases, TickPhase::Select);
            self.stats.regular_overloads += 1;
            rec.emit(|tick| DecisionEvent::RegularOverload { tick });
            if let Some(hook) = &self.regular_overload_hook {
                hook();
            }
            timer.lap(&mut self.phases, TickPhase::Actuate);
            return TickOutcome::RegularOverload;
        }
        self.stats.resource_overloads += 1;
        let hottest = self.policy_index.resources()[hot[0].index()].rtype;
        let type_idx = match hottest {
            ResourceType::Lock => 0,
            ResourceType::Memory => 1,
            ResourceType::Queue => 2,
            ResourceType::System => 3,
        };
        self.stats.overloads_by_type[type_idx] += 1;
        if rec.enabled() {
            // The explanation pass: the ranking costs a sort and a
            // dominance walk over every candidate, so it runs only with a
            // recorder attached.
            for &rid in &hot {
                let r = &self.policy_index.resources()[rid.index()];
                rec.emit(|tick| DecisionEvent::ResourceScored {
                    tick,
                    resource: r.id,
                    rtype: r.rtype,
                    contention: r.contention,
                    weight: r.weight,
                    wait_ns: r.wait_ns,
                    hold_ns: r.hold_ns,
                });
            }
            for s in self.policy_index.ranked() {
                rec.emit(|tick| DecisionEvent::CandidateRanked {
                    tick,
                    task: s.task,
                    key: s.key,
                    score: s.score,
                });
            }
        }
        let selection = self.policy_index.select(self.cfg.policy);
        if let (Some(s), true) = (selection, rec.enabled()) {
            let hot0 = hot[0];
            let victims_waiting = self
                .tasks
                .iter()
                .filter(|t| {
                    t.id != s.task
                        && t.usage
                            .get(hot0.index())
                            .is_some_and(|u| u.total_wait_ns > 0)
                })
                .count() as u64;
            let terms = self.policy_index.gain_terms(s.task);
            rec.emit(|tick| DecisionEvent::BlameAssigned {
                tick,
                resource: hot0,
                task: s.task,
                key: s.key,
                score: s.score,
                terms,
                victims_waiting,
            });
        }
        timer.lap(&mut self.phases, TickPhase::Select);
        let (canceled, decision) = match selection {
            Some(s) => {
                let background = self.tasks.get(s.task).is_some_and(|t| t.background);
                let d = self.cancel.request_cancel_recorded(
                    now,
                    s.key,
                    background,
                    CancelOrigin::Policy,
                    rec,
                );
                if d == CancelDecision::Issued {
                    // Only now was the initiator invoked: a rate-limited
                    // or already-canceled request leaves the task
                    // `Running`.
                    if let Some(t) = self.touch(s.task) {
                        t.state = TaskState::CancelRequested;
                    }
                    // Distributed extension: propagate the root
                    // cancellation to all descendant tasks.
                    let keys = descendant_keys(&self.tasks, s.task);
                    if !keys.is_empty() {
                        self.cancel.propagate(&keys);
                    }
                }
                ((d == CancelDecision::Issued).then_some(s.key), Some(d))
            }
            None => (None, None),
        };
        timer.lap(&mut self.phases, TickPhase::Actuate);
        TickOutcome::ResourceOverload {
            resources: hot,
            canceled,
            decision,
        }
    }
}

/// Collects the keys of every descendant of `root` (excluding the root),
/// breadth-first and cycle-safe.
fn descendant_keys(tasks: &TaskTable, root: TaskId) -> Vec<TaskKey> {
    let mut out = Vec::new();
    let mut seen = IdSet::default();
    seen.insert(root);
    let mut frontier = vec![root];
    while let Some(id) = frontier.pop() {
        let Some(rec) = tasks.get(id) else { continue };
        for &child in &rec.children {
            if seen.insert(child) {
                if let Some(c) = tasks.get(child) {
                    out.push(c.key);
                }
                frontier.push(child);
            }
        }
    }
    out
}
