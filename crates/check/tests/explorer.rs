//! End-to-end tests of the deterministic interleaving explorer: it must find
//! a planted deadlock and a planted lost update within a bounded number of
//! schedules, report task panics as schedule failures, and reproduce every
//! failure from the printed seed (or recorded choice trace), also when the
//! failure aborts the process.
//!
//! These tests use the always-compiled [`masort_check::checked`] primitives
//! directly, so they run in every build mode — no `--cfg masort_check`
//! required.

use masort_check::checked::atomic::{AtomicUsize, Ordering};
use masort_check::checked::{thread, Mutex};
use masort_check::explore::{explore_exhaustive, explore_random, replay, replay_trace, Options};
use std::process::Command;
use std::sync::Arc;

fn opts(schedules: usize) -> Options {
    Options {
        schedules,
        seed: 0xD15C_0BA1,
        max_steps: 50_000,
    }
}

/// Classic ABBA deadlock: two tasks acquire the same two locks in opposite
/// orders. Most interleavings complete; the explorer must find the one where
/// each task holds one lock and wants the other.
fn abba_model() {
    let a = Arc::new(Mutex::new(0u32));
    let b = Arc::new(Mutex::new(0u32));
    let t1 = {
        let a = Arc::clone(&a);
        let b = Arc::clone(&b);
        thread::spawn(move || {
            let ga = a.lock();
            let mut gb = b.lock();
            *gb += *ga;
        })
    };
    let t2 = {
        let a = Arc::clone(&a);
        let b = Arc::clone(&b);
        thread::spawn(move || {
            let gb = b.lock();
            let mut ga = a.lock();
            *ga += *gb;
        })
    };
    let _ = t1.join();
    let _ = t2.join();
}

/// Unsynchronised read-modify-write on a shared counter: two tasks each do
/// `load` then `store(v + 1)`, so an interleaving exists where one update is
/// lost and the final assertion fails.
fn lost_update_model() {
    let n = Arc::new(AtomicUsize::new(0));
    let tasks: Vec<_> = (0..2)
        .map(|_| {
            let n = Arc::clone(&n);
            thread::spawn(move || {
                let v = n.load(Ordering::SeqCst);
                n.store(v + 1, Ordering::SeqCst);
            })
        })
        .collect();
    for t in tasks {
        t.join().expect("task panicked");
    }
    assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
}

/// The fixed protocol: the same counter bumped with an atomic `fetch_add`.
fn correct_counter_model() {
    let n = Arc::new(AtomicUsize::new(0));
    let tasks: Vec<_> = (0..2)
        .map(|_| {
            let n = Arc::clone(&n);
            thread::spawn(move || {
                n.fetch_add(1, Ordering::SeqCst);
            })
        })
        .collect();
    for t in tasks {
        t.join().expect("task panicked");
    }
    assert_eq!(n.load(Ordering::SeqCst), 2);
}

#[test]
fn random_walk_finds_the_abba_deadlock_and_the_seed_replays_it() {
    let failure = explore_random(&opts(100), abba_model)
        .expect_err("the explorer must find the ABBA deadlock within 100 schedules");
    assert!(
        failure.message.contains("deadlock detected"),
        "unexpected failure: {failure}"
    );
    let seed = failure.seed.expect("random-walk failures carry a seed");

    // The printed seed reproduces the exact interleaving...
    let replayed = replay(seed, &opts(1), abba_model).expect_err("the seed must replay");
    assert!(
        replayed.message.contains("deadlock detected"),
        "replay diverged: {replayed}"
    );
    // ...and so does the recorded choice trace.
    let retraced =
        replay_trace(failure.trace.clone(), &opts(1), abba_model).expect_err("trace must replay");
    assert!(retraced.message.contains("deadlock detected"));
}

#[test]
fn random_walk_finds_the_lost_update() {
    let failure = explore_random(&opts(100), lost_update_model)
        .expect_err("the explorer must find the lost update within 100 schedules");
    assert!(
        failure.message.contains("lost update"),
        "unexpected failure: {failure}"
    );
    let seed = failure.seed.expect("random-walk failures carry a seed");
    let replayed = replay(seed, &opts(1), lost_update_model).expect_err("the seed must replay");
    assert!(replayed.message.contains("lost update"));
}

#[test]
fn exhaustive_enumeration_finds_the_abba_deadlock() {
    let failure = explore_exhaustive(&opts(500), abba_model)
        .expect_err("bounded-exhaustive search must find the ABBA deadlock");
    assert!(failure.message.contains("deadlock detected"));
    assert!(
        failure.seed.is_none(),
        "exhaustive failures replay by trace"
    );
    let replayed =
        replay_trace(failure.trace.clone(), &opts(1), abba_model).expect_err("trace must replay");
    assert!(replayed.message.contains("deadlock detected"));
}

#[test]
fn correct_model_passes_every_schedule() {
    let explored = explore_random(&opts(50), correct_counter_model)
        .expect("the fetch_add protocol has no failing interleaving");
    assert_eq!(explored.schedules, 50);
}

#[test]
fn task_panic_is_reported_not_poison_cascaded() {
    // A task panics while holding a checked lock; the schedule must fail
    // with *that* panic, and a sibling task locking afterwards must recover
    // the poison rather than add an `unwrap` panic of its own.
    let failure = explore_random(&opts(1), || {
        let m = Arc::new(Mutex::new(0u32));
        let t = {
            let m = Arc::clone(&m);
            thread::spawn(move || {
                let _g = m.lock();
                panic!("boom while holding the lock");
            })
        };
        let _ = t.join();
        *m.lock() += 1;
    })
    .expect_err("the planted panic must fail the schedule");
    assert!(
        failure.message.contains("boom while holding the lock"),
        "unexpected failure: {failure}"
    );
}

/// A task holds a value whose destructor takes a checked lock, and waits for
/// a lock nobody releases, when the root task fails. Unwinding out of the
/// aborted schedule, the destructor needs the scheduler: the process aborts.
fn aborting_model() {
    struct LocksOnDrop(Arc<Mutex<u32>>);
    impl Drop for LocksOnDrop {
        fn drop(&mut self) {
            *self.0.lock() += 1;
        }
    }
    let (gate, started) = (Arc::new(Mutex::new(0u32)), Arc::new(AtomicUsize::new(0)));
    std::mem::forget(gate.lock());
    let waiter = {
        let (gate, started) = (Arc::clone(&gate), Arc::clone(&started));
        thread::spawn(move || {
            let _held = LocksOnDrop(Arc::new(Mutex::new(0)));
            started.store(1, Ordering::SeqCst);
            *gate.lock() += 1;
        })
    };
    while started.load(Ordering::SeqCst) == 0 {}
    std::mem::forget(waiter);
    panic!("the model fails with a lock-taking destructor held");
}

/// The child process of the test below: explore [`aborting_model`], or
/// replay one seed of it, as `MASORT_CHECK_ABORT_CHILD` says (`explore` or
/// the seed); nothing when it is not set.
#[test]
#[ignore = "aborts its process; run as a child by a_schedule_that_aborts_in_an_unwind_names_its_seed"]
fn aborting_schedule_child() {
    let Ok(mode) = std::env::var("MASORT_CHECK_ABORT_CHILD") else {
        return;
    };
    let _ = match mode.strip_prefix("0x") {
        Some(seed) => replay(
            u64::from_str_radix(seed, 16).unwrap(),
            &opts(1),
            aborting_model,
        ),
        None => explore_random(&opts(10), aborting_model).map(drop),
    };
}

#[test]
fn a_schedule_that_aborts_in_an_unwind_names_its_seed() {
    // The line the child writes before it aborts.
    let abort_line = |mode: &str| {
        let out = Command::new(std::env::current_exe().unwrap())
            .args([
                "aborting_schedule_child",
                "--exact",
                "--ignored",
                "--nocapture",
            ])
            .env("MASORT_CHECK_ABORT_CHILD", mode)
            .output()
            .expect("run the test binary");
        assert!(!out.status.success(), "{mode}: the child did not abort");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let prefix = "masort-check: schedule aborted during an unwind";
        match stderr.lines().find(|line| line.starts_with(prefix)) {
            Some(line) => line.to_string(),
            None => panic!("{mode}: no abort line in {stderr}"),
        }
    };
    let explored = abort_line("explore");
    assert!(explored.contains("lock-taking destructor"), "{explored}");
    let seed = explored
        .split("(replay with seed ")
        .nth(1)
        .and_then(|rest| rest.split(')').next())
        .unwrap_or_else(|| panic!("no seed in {explored}"));
    assert_eq!(abort_line(seed), explored, "the seed replays the failure");
}
