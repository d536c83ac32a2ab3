//! Decide: the periodic detection → estimation → policy → cancellation
//! driver (Algorithm 1).
//!
//! One [`AtroposRuntime::tick`] closes the accounting window, asks the
//! detector for an overload candidate, runs the estimator to find
//! bottlenecked resources, classifies regular vs. resource overload, and
//! hands the policy's selected victim to the cancel manager. Cancellation
//! *plumbing* (initiators, scopes, operator kills) lives in `actuate.rs`.

use std::collections::HashMap;

use super::{AtroposRuntime, Inner, TickOutcome};
use crate::cancel::CancelDecision;
use crate::detect::OverloadSignal;
use crate::ids::{ResourceType, TaskId, TaskKey};
use crate::record::{CancelOrigin, DecisionEvent, RecorderHandle};
use crate::task::{TaskRecord, TaskState};
use crate::trace::TimestampMode;

impl AtroposRuntime {
    /// Runs one detection → estimation → policy → cancellation cycle.
    ///
    /// Call this periodically (the detector window is the natural period).
    pub fn tick(&self) -> TickOutcome {
        let now = self.clock.now_ns();
        // The tick is the principal drain point: buffered events are
        // replayed before the windows roll, so detection, estimation and
        // policy all see the same accounting state per-event application
        // would have produced.
        let mut inner = self.lock_drained();
        inner.stats.ticks += 1;
        // The recorder handle borrows a local clone of the Arc so emission
        // can interleave with mutable access to the rest of the state.
        let sink = inner.recorder.clone();
        let rec = RecorderHandle::new(sink.as_deref(), inner.stats.ticks);
        // Close the accounting window on every task (quiescent tasks
        // short-circuit inside `roll_window`), counting in-flight work in
        // the same pass.
        let mut in_flight = 0u64;
        for t in inner.tasks.values_mut() {
            t.roll_window(now);
            if t.is_active() {
                in_flight += 1;
            }
        }
        let signal = inner.detector.evaluate_recorded(now, in_flight, &rec);
        let outcome = match signal {
            OverloadSignal::Ok => {
                inner.ts.set_mode(TimestampMode::Sampled);
                inner.cancel.on_window(now, false);
                TickOutcome::Idle
            }
            OverloadSignal::Candidate { .. } => {
                inner.stats.candidates += 1;
                // Potential overload: switch to precise timestamps (§3.2).
                inner.ts.set_mode(TimestampMode::Precise);
                // The index produces decisions bit-identical to a fresh
                // `estimate` + `select_naive` (enforced by the differential
                // suites) without re-deriving every task.
                // The previous window's snapshot is overwritten in place
                // (it goes back into `last_estimate` below), so a candidate
                // tick allocates nothing per task.
                let mut snapshot = inner.last_estimate.take().unwrap_or_default();
                {
                    let Inner {
                        policy_index,
                        tasks,
                        resources,
                        cfg,
                        ..
                    } = &mut *inner;
                    policy_index.refresh(tasks, resources, cfg);
                    policy_index.materialize(&mut snapshot);
                }
                let hot = snapshot.bottlenecked(inner.cfg.detector.min_contention);
                let outcome = if hot.is_empty() {
                    inner.stats.regular_overloads += 1;
                    rec.emit(|tick| DecisionEvent::RegularOverload { tick });
                    if let Some(hook) = &inner.regular_overload_hook {
                        hook();
                    }
                    TickOutcome::RegularOverload
                } else {
                    inner.stats.resource_overloads += 1;
                    let hottest = snapshot.resources[hot[0].index()].rtype;
                    let type_idx = match hottest {
                        ResourceType::Lock => 0,
                        ResourceType::Memory => 1,
                        ResourceType::Queue => 2,
                        ResourceType::System => 3,
                    };
                    inner.stats.overloads_by_type[type_idx] += 1;
                    if rec.enabled() {
                        // The explanation pass: score/rank events cost real
                        // work (an extra Algorithm-1 evaluation), so they
                        // run only with a recorder attached.
                        for &rid in &hot {
                            let r = &snapshot.resources[rid.index()];
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
                        for s in crate::policy::ranked(&snapshot) {
                            rec.emit(|tick| DecisionEvent::CandidateRanked {
                                tick,
                                task: s.task,
                                key: s.key,
                                score: s.score,
                            });
                        }
                    }
                    let (canceled, decision) = match inner.policy_index.select(inner.cfg.policy) {
                        Some(s) => {
                            if rec.enabled() {
                                let hot0 = hot[0];
                                let victims_waiting = inner
                                    .tasks
                                    .values()
                                    .filter(|t| {
                                        t.id != s.task
                                            && t.usage
                                                .get(hot0.index())
                                                .is_some_and(|u| u.total_wait_ns > 0)
                                    })
                                    .count()
                                    as u64;
                                let terms = inner.policy_index.gain_terms(s.task);
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
                            let (background, origin) = inner
                                .tasks
                                .get(&s.task)
                                .map(|t| (t.background, t.origin))
                                .unwrap_or((false, None));
                            if let Some(t) = inner.tasks.get_mut(&s.task) {
                                t.state = TaskState::CancelRequested;
                            }
                            let d = inner.cancel.request_cancel_recorded(
                                now,
                                s.key,
                                background,
                                CancelOrigin::Policy,
                                &rec,
                            );
                            if d == CancelDecision::Issued {
                                // Cross-node blame (§4): a canceled proxy
                                // task is attributed to its remote root.
                                if let Some(origin) = origin {
                                    inner.remote_blame.push(crate::task::RemoteBlame {
                                        local_key: s.key,
                                        origin,
                                        at_ns: now,
                                    });
                                }
                                // Distributed extension: propagate the root
                                // cancellation to all descendant tasks.
                                let keys = descendant_keys(&inner.tasks, s.task);
                                if !keys.is_empty() {
                                    inner.cancel.propagate(&keys);
                                }
                            }
                            ((d == CancelDecision::Issued).then_some(s.key), Some(d))
                        }
                        None => (None, None),
                    };
                    TickOutcome::ResourceOverload {
                        resources: hot,
                        canceled,
                        decision,
                    }
                };
                inner.last_estimate = Some(snapshot);
                inner.cancel.on_window(now, true);
                outcome
            }
        };
        if inner.stats.cancel != inner.cancel.stats() {
            inner.stats.cancel = inner.cancel.stats();
        }
        outcome
    }
}

/// Collects the keys of every descendant of `root` (excluding the root),
/// breadth-first and cycle-safe.
fn descendant_keys(tasks: &HashMap<TaskId, TaskRecord>, root: TaskId) -> Vec<TaskKey> {
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::new();
    seen.insert(root);
    let mut frontier = vec![root];
    while let Some(id) = frontier.pop() {
        let Some(rec) = tasks.get(&id) else { continue };
        for &child in &rec.children {
            if seen.insert(child) {
                if let Some(c) = tasks.get(&child) {
                    out.push(c.key);
                }
                frontier.push(child);
            }
        }
    }
    out
}
