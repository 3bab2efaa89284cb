//! Poison-recovery regression tests for the shim: a thread that panics while
//! holding a shim lock must not cascade `PoisonError` unwraps into every
//! other user of that lock. The shim recovers poison internally — guards are
//! returned directly and the data (plain counters throughout masort) stays
//! usable.

use masort_check::sync::{Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn mutex_poison_is_recovered() {
    let m = Arc::new(Mutex::new(vec![1]));
    let m2 = Arc::clone(&m);
    let holder = std::thread::spawn(move || {
        let _g = m2.lock();
        panic!("holder panicked with the lock held");
    });
    assert!(holder.join().is_err());

    // The shim recovers the poison: no unwrap panic, data intact.
    let mut g = m.lock();
    g.push(2);
    assert_eq!(*g, vec![1, 2]);
}

#[test]
fn condvar_wait_timeout_survives_a_poisoned_mutex() {
    let pair = Arc::new((Mutex::new(false), Condvar::new()));
    let pair2 = Arc::clone(&pair);
    let holder = std::thread::spawn(move || {
        let _g = pair2.0.lock();
        panic!("poisoning the condvar's mutex");
    });
    assert!(holder.join().is_err());

    let (lock, cv) = &*pair;
    let g = lock.lock();
    let (g, timed_out) = cv.wait_timeout(g, Duration::from_millis(10));
    assert!(timed_out, "nobody notifies; the wait must time out cleanly");
    assert!(!*g);
}

#[test]
fn try_lock_recovers_poison_too() {
    let m = Mutex::new(0u32);
    let payload = catch_unwind(AssertUnwindSafe(|| {
        let _g = m.lock();
        panic!("poison");
    }));
    assert!(payload.is_err());
    let g = m.try_lock().expect("uncontended try_lock must succeed");
    assert_eq!(*g, 0);
}
