//! Open-loop load generation.
//!
//! Arrivals are paced against the wall clock on a fixed schedule: request
//! `n` is *due* at `start + n * interarrival` whether or not the server
//! keeps up (the open-loop discipline the paper's clients use — backlog
//! shows up as queueing latency rather than silently thinning the load).
//! A rare culprit request is injected on its own schedule: once at
//! `culprit_after`, then every `culprit_every` if configured.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use atropos_sim::Clock;

use crate::harness::LiveConfig;
use crate::server::{Request, RequestClass};

/// Key range reserved for culprit requests, so reports and logs can tell
/// the classes apart at a glance. Stays far below the runtime's
/// auto-generated key region (`1 << 63`).
pub const CULPRIT_KEY_BASE: u64 = 1 << 40;

/// Runs the generator until `stop` is raised, handing each request —
/// stamped on `clock` — to `submit`, whatever serves it (a work queue, a
/// task pool, a tier's front door). Victims are keyed `0..`, culprits
/// `CULPRIT_KEY_BASE..`. Returns the number of requests offered
/// (accepted by `submit`).
pub fn generate(
    cfg: &LiveConfig,
    clock: &dyn Clock,
    stop: &AtomicBool,
    mut submit: impl FnMut(Request) -> bool,
) -> u64 {
    let start = Instant::now();
    let mut offered = 0u64;
    let mut seq = 0u64;
    let mut culprit_seq = 0u64;
    let mut next_culprit = Some(cfg.culprit_after);
    let mut offer = |class, key| {
        let enqueued_ns = clock.now_ns();
        offered += u64::from(submit(Request {
            class,
            key,
            enqueued_ns,
        }));
    };
    while !stop.load(Ordering::Acquire) {
        let due = cfg.interarrival * seq as u32;
        let elapsed = start.elapsed();
        if due > elapsed {
            std::thread::sleep(due - elapsed);
            if stop.load(Ordering::Acquire) {
                break;
            }
        }
        if let Some(at) = next_culprit {
            if start.elapsed() >= at {
                offer(
                    RequestClass::Culprit(cfg.culprit_kind),
                    CULPRIT_KEY_BASE + culprit_seq,
                );
                culprit_seq += 1;
                next_culprit = cfg.culprit_every.map(|every| at + every);
            }
        }
        offer(RequestClass::Normal, seq);
        seq += 1;
    }
    offered
}

#[cfg(test)]
mod tests {
    use super::*;
    use atropos_sim::SystemClock;
    use std::time::Duration;

    #[test]
    fn generator_paces_and_injects_culprits() {
        let cfg = LiveConfig {
            interarrival: Duration::from_millis(2),
            culprit_after: Duration::from_millis(10),
            culprit_every: Some(Duration::from_millis(30)),
            ..LiveConfig::default()
        };
        let stop = AtomicBool::new(false);
        let mut sent = Vec::new();
        let offered = std::thread::scope(|s| {
            let gen = s.spawn(|| {
                generate(&cfg, &SystemClock::new(), &stop, |req| {
                    sent.push(req);
                    true
                })
            });
            std::thread::sleep(Duration::from_millis(80));
            stop.store(true, Ordering::Release);
            gen.join().unwrap()
        });
        // ~40 normals over 80 ms at 2 ms spacing, plus 2-3 culprits.
        assert!(offered >= 20, "offered only {offered}");
        assert_eq!(offered, sent.len() as u64);
        let culprits: Vec<_> = sent
            .iter()
            .filter(|r| matches!(r.class, RequestClass::Culprit(_)))
            .collect();
        assert!(culprits.iter().all(|r| r.key >= CULPRIT_KEY_BASE));
        assert!(sent.len() - culprits.len() >= 20);
        assert!((2..=4).contains(&culprits.len()), "culprits: {culprits:?}");
    }
}
