//! End-to-end wall-clock tests for the async substrate: Atropos detects a
//! lock-hog convoy among queued continuations, cancels the culprit by
//! **dropping its future** through the abort registry, and victim tail
//! latency recovers — plus the drop-safety contracts that make future-drop
//! cancellation sound (exactly-once `Free`, no double-free under
//! abort-during-wake races) and the shutdown-ordering regression for the
//! executor-owned supervisor ticker.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use atropos::ticker::Ticker;
use atropos::{AtroposConfig, AtroposRuntime};
use atropos_async::{run, Executor};
use atropos_live::{live_atropos_config, ControlMode, Gate, LiveConfig, CULPRIT_KEY_BASE};
use atropos_sim::SystemClock;
use atropos_substrate::{ProbePort, RuntimePort, ScenarioFamily};

fn overload_config() -> LiveConfig {
    LiveConfig {
        workers: 4,
        run_for: Duration::from_millis(1800),
        interarrival: Duration::from_millis(2),
        culprit_after: Duration::from_millis(400),
        culprit_every: None,
        culprit_kind: ScenarioFamily::LockHog,
        culprit_hold: Duration::from_millis(1200),
        checkpoint: Duration::from_millis(1),
        tick_period: Duration::from_millis(50),
        ..LiveConfig::default()
    }
}

/// The async mirror of the thread substrate's headline test. Margins are
/// identical and deliberately generous (see `live_overload.rs`): the
/// structural contrast — a 1.2 s convoy vs a convoy cut short within a
/// few 50 ms detector windows — dwarfs scheduling noise.
#[test]
fn atropos_aborts_async_culprit_and_victim_p99_recovers() {
    // Baseline first: the convoy runs to completion, nothing aborts.
    let baseline = run(overload_config(), ControlMode::NoControl);
    assert_eq!(baseline.culprits_started, 1, "exactly one culprit injected");
    assert_eq!(baseline.culprits_canceled, 0, "nothing aborts unsupervised");
    assert_eq!(baseline.cancellations_delivered, 0);
    assert!(baseline.time_to_cancel.is_none());
    assert_eq!(baseline.ticks, 0);
    assert!(
        baseline.victim.p99_ns >= 400_000_000,
        "baseline convoy too mild: victim p99 {} ns",
        baseline.victim.p99_ns
    );

    // Same workload under Atropos: the installed initiator is the abort
    // registry — cancellation is future drop, no cooperative token exists
    // anywhere in this substrate.
    let controlled = run(
        overload_config(),
        ControlMode::Atropos(live_atropos_config()),
    );
    assert_eq!(controlled.culprits_started, 1);
    assert!(
        controlled.ticks >= 10,
        "supervisor ticked {}",
        controlled.ticks
    );
    assert!(
        controlled.culprits_canceled >= 1,
        "culprit future not dropped: {:?}",
        controlled.runtime.cancel
    );
    assert!(controlled.cancellations_delivered >= 1);
    assert!(controlled.runtime.cancel.issued >= 1);

    // Decision-trace contract, same as every substrate: only culprit keys
    // were ever canceled, and the first cancel targeted the culprit.
    assert!(!controlled.canceled_keys.is_empty());
    assert!(
        controlled
            .canceled_keys
            .iter()
            .all(|&k| k >= CULPRIT_KEY_BASE),
        "non-culprit key canceled: {:?}",
        controlled.canceled_keys
    );

    // The decision trace explains the run.
    assert!(!controlled.episodes.is_empty(), "no decision episodes");
    assert!(
        controlled
            .episodes
            .iter()
            .any(|e| e.outcome == "issued" && e.canceled_key.is_some()),
        "no episode explains the issued cancellation:\n{}",
        atropos_obs::render_episodes(&controlled.episodes)
    );
    assert_eq!(
        controlled.metrics.cancels_issued_policy + controlled.metrics.cancels_issued_operator,
        controlled.runtime.cancel.issued,
        "observer missed issued cancels"
    );
    assert!(controlled.metrics.consistency_errors().is_empty());
    assert!(baseline.episodes.iter().all(|e| e.outcome != "issued"));

    // Detection + abort delivery within a handful of detector windows.
    let ttc = controlled
        .time_to_cancel
        .expect("a delivered abort records time-to-cancel");
    assert!(ttc <= Duration::from_secs(1), "slow cancel: {ttc:?}");

    // The headline: tail latency recovers ≥2x.
    assert!(
        baseline.victim.p99_ns >= 2 * controlled.victim.p99_ns,
        "victim p99 did not recover: baseline {} ns vs atropos {} ns",
        baseline.victim.p99_ns,
        controlled.victim.p99_ns
    );

    // Both runs drained their full backlog. In the controlled run the
    // culprit never completes normally, but its dropped future still
    // settles through the task scope — and no victim was aborted (checked
    // above via the key discipline), so every victim was measured.
    assert_eq!(
        baseline.offered,
        baseline.victim.count + baseline.culprits_started
    );
    assert_eq!(
        controlled.offered,
        controlled.victim.count + controlled.culprits_started
    );
}

fn probed_stack() -> (Arc<AtroposRuntime>, Arc<ProbePort>, Arc<dyn RuntimePort>) {
    let rt = Arc::new(AtroposRuntime::new(
        AtroposConfig::default(),
        Arc::new(SystemClock::new()),
    ));
    let probe = Arc::new(ProbePort::new(rt.clone()));
    let port: Arc<dyn RuntimePort> = probe.clone();
    (rt, probe, port)
}

/// Satellite: aborting a task that *holds* a lock gate must release it
/// via permit drop and emit the matching `Free` exactly once — observed
/// from outside through counting middleware, so a double-free in the
/// guard path cannot hide.
#[test]
fn abort_releases_held_lock_with_exactly_one_free() {
    let (_rt, probe, port) = probed_stack();
    let lock = Arc::new(Gate::lock(port.clone(), "table_lock"));
    let task = port.create_cancel(Some(1));
    let ex = Executor::inline();
    let l = lock.clone();
    let handle = ex.spawn(async move {
        let _g = l.acquire(task).await;
        std::future::pending::<()>().await;
    });
    assert!(ex.poll_one()); // acquires, parks forever
    assert_eq!(lock.available(), 0);
    assert_eq!(probe.counts().gets, 1);
    assert_eq!(probe.counts().frees, 0);

    assert!(handle.abort());
    assert_eq!(
        probe.counts().frees,
        0,
        "abort only flags; the worker performs the drop"
    );
    assert!(ex.poll_one()); // drop site: guard releases
    assert_eq!(lock.available(), 1, "permit drop released the lock");
    assert_eq!(probe.counts().frees, 1, "exactly one Free");

    // Nothing that happens later may free again: second abort, stray
    // polls, executor shutdown.
    assert!(!handle.abort());
    assert!(!ex.poll_one());
    ex.shutdown();
    assert_eq!(probe.counts().frees, 1, "no double-free after shutdown");
    assert_eq!(probe.counts().gets, 1);
}

/// Satellite: the abort-during-wake race. A release wakes waiter A just
/// before A is aborted; A's acquire future is dropped without re-polling.
/// The contract: A emits no `Free` (it never held), the baton passes to
/// waiter B, and the get/free ledger stays exactly balanced.
#[test]
fn abort_during_wake_race_emits_no_double_free() {
    let (_rt, probe, port) = probed_stack();
    let lock = Arc::new(Gate::lock(port.clone(), "table_lock"));
    let ex = Executor::inline();
    let holder_task = port.create_cancel(Some(1));
    let a_task = port.create_cancel(Some(2));
    let b_task = port.create_cancel(Some(3));

    let l = lock.clone();
    let holder = ex.spawn(async move {
        let _g = l.acquire(holder_task).await;
        std::future::pending::<()>().await;
    });
    let l = lock.clone();
    let waiter_a = ex.spawn(async move {
        let _g = l.acquire(a_task).await;
        std::future::pending::<()>().await;
    });
    let l = lock.clone();
    let done_b = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let d = done_b.clone();
    ex.spawn(async move {
        let _g = l.acquire(b_task).await;
        d.store(true, Ordering::SeqCst);
    });
    assert!(ex.poll_one()); // holder acquires
    assert!(ex.poll_one()); // A queues (slow_by)
    assert!(ex.poll_one()); // B queues (slow_by)
    assert_eq!(lock.waiters(), 2);
    let before = probe.counts();
    assert_eq!((before.gets, before.frees, before.slows), (1, 0, 2));

    // Release by aborting the holder: the guard drop wakes A...
    assert!(holder.abort());
    assert!(ex.poll_one()); // holder dropped → Free #1 → A woken
                            // ...and A is aborted before it can re-poll: the race window.
    assert!(waiter_a.abort());
    let mut budget = 0;
    while !done_b.load(Ordering::SeqCst) {
        assert!(ex.poll_one(), "baton lost: B never woken");
        budget += 1;
        assert!(budget < 16, "executor spinning");
    }
    while ex.poll_one() {}
    ex.shutdown();

    let after = probe.counts();
    // Holder: get+free. A: slow_by only — dropped while waiting, no get,
    // so no free. B: slow_by, then get+free through its guard.
    assert_eq!(after.gets, 2, "holder and B acquired");
    assert_eq!(after.frees, 2, "exactly one Free per Get — no double-free");
    assert_eq!(after.slows, 2);
    assert_eq!(lock.available(), 1);
}

/// Satellite regression (mirror of the core ticker test): the async
/// harness hands `Ticker::spawn_fn` a closure that owns a port clone and
/// ticks through the middleware stack while the executor runs. `stop()`
/// must join the supervisor before the harness tears the executor down —
/// the closure's port clone must be released by the join, no tick may be
/// observed after stop, and a late abort-driven guard drop on the
/// executor must still reach the runtime safely after the ticker is gone.
#[test]
fn executor_owned_ticker_stop_joins_before_teardown() {
    let rt = Arc::new(AtroposRuntime::new(
        AtroposConfig::default(),
        Arc::new(SystemClock::new()),
    ));
    let port: Arc<dyn RuntimePort> = rt.clone();
    let ex = Executor::new(1);
    let lock = Arc::new(Gate::lock(port.clone(), "table_lock"));
    let task = port.create_cancel(Some(1));
    let l = lock.clone();
    let handle = ex.spawn(async move {
        let _g = l.acquire(task).await;
        std::future::pending::<()>().await;
    });
    let deadline = Instant::now() + Duration::from_secs(5);
    while lock.available() == 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(lock.available(), 0);

    let before = Arc::strong_count(&rt);
    let tick_port = port.clone();
    let mut ticker = Ticker::spawn_fn(move || tick_port.tick(), Duration::from_millis(1), |_| {});
    while ticker.ticks() < 3 {
        std::thread::sleep(Duration::from_millis(1));
    }
    ticker.stop();
    // A joined stop released the closure (and its port clone): the
    // strong count is back to what it was before the ticker existed.
    assert_eq!(
        Arc::strong_count(&rt),
        before,
        "ticker thread still holds the port after stop()"
    );
    let after = rt.stats().ticks;
    std::thread::sleep(Duration::from_millis(10));
    assert_eq!(rt.stats().ticks, after, "tick observed after stop()");
    ticker.stop(); // idempotent

    // The executor outlives the ticker: a late abort still unwinds the
    // hold through the port with no supervisor running.
    assert!(handle.abort());
    let deadline = Instant::now() + Duration::from_secs(5);
    while lock.available() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(lock.available(), 1, "late permit drop reached the runtime");
    ex.shutdown();
    drop(ticker);
    drop(port);
    drop(lock); // the lock held the last port clone
    assert_eq!(Arc::strong_count(&rt), 1);
}
