//! Deterministic model tests of masort's real concurrent components, run
//! under the interleaving explorer. Compiled only with the checked shim
//! active:
//!
//! ```text
//! RUSTFLAGS="--cfg masort_check" cargo test -p masort-check --test models
//! ```
//!
//! Each model keeps all shared state inside explorer tasks (a sort spawns no
//! thread of its own) and uses tiny in-memory inputs so a schedule is a few
//! thousand scheduling decisions at most.
#![cfg(masort_check)]

use masort_broker::{JobOutput, SortRequest, SortService, SortTicket};
use masort_check::explore::{explore_random, Options};
use masort_core::prelude::*;
use masort_core::sync::thread;
use masort_core::verify::assert_sorted_permutation;
use std::sync::Arc;

fn opts(schedules: usize) -> Options {
    Options {
        schedules,
        seed: 0x0DE1_CA7E,
        max_steps: 500_000,
    }
}

fn tuples(n: usize, salt: u64) -> Vec<Tuple> {
    (0..n)
        .map(|i| Tuple::synthetic((i as u64).wrapping_mul(7919).wrapping_add(salt) % 97, 64))
        .collect()
}

/// `MemoryBudget`: an owner (the broker) re-targeting through one clone of
/// the handle while the sort reports holdings through another. Every
/// interleaving must preserve the budget invariant (checked by the debug
/// assert inside `budget.rs` on every operation) and converge: once the sort
/// reports zero, nothing is held, no shrink request can still be pending
/// against an empty holding, and the target is the last one set.
#[test]
fn budget_retarget_races_holding_reports() {
    explore_random(&opts(25), || {
        let budget = MemoryBudget::new(16);
        let setter = {
            let budget = budget.clone();
            thread::spawn(move || {
                for (i, t) in [8usize, 2, 12].into_iter().enumerate() {
                    budget.set_target(t, i as f64);
                }
            })
        };
        let reporter = {
            let budget = budget.clone();
            thread::spawn(move || {
                for (i, h) in [4usize, 6, 1, 0].into_iter().enumerate() {
                    budget.record_held(h, 10.0 + i as f64);
                }
            })
        };
        setter.join().expect("setter panicked");
        reporter.join().expect("reporter panicked");
        assert_eq!(budget.held(), 0);
        assert!(!budget.shrink_pending(), "no shortage with zero held");
        assert_eq!(budget.target(), 12, "the last target set stands");
    })
    .expect("no interleaving may break the budget");
}

/// Redeem `ticket` on an explorer task of its own and check its result
/// against `input`.
fn caller(ticket: SortTicket, input: Vec<Tuple>) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        let output = ticket.wait().expect("sort failed");
        assert_sorted_permutation(&input, &output.into_sorted_vec().expect("read sort"));
    })
}

/// The broker under concurrent admission, completion and pool resizing: two
/// tiny sorts, each run by the task that redeems it, while another task
/// shrinks and re-grows the page pool. Every interleaving must deliver both
/// sorted outputs and leave the service consistent (the resize may
/// suspend/repartition jobs but never wedge or corrupt them).
#[test]
fn broker_resize_races_admission_and_completion() {
    explore_random(&opts(10), || {
        let svc = Arc::new(SortService::builder().pool_pages(12).workers(2).build());
        let cfg = SortConfig::default()
            .with_page_size(256)
            .with_tuple_size(64)
            .with_memory_pages(4);
        let in1 = tuples(24, 1);
        let in2 = tuples(24, 2);
        let t1 = svc
            .submit(SortRequest::tuples(cfg.clone(), in1.clone()).min_pages(2))
            .expect("submit 1");
        let t2 = svc
            .submit(SortRequest::tuples(cfg, in2.clone()).min_pages(2))
            .expect("submit 2");
        let c1 = caller(t1, in1);
        let resizer = {
            let svc = Arc::clone(&svc);
            thread::spawn(move || {
                svc.resize_pool(6);
                svc.resize_pool(16);
            })
        };
        let c2 = caller(t2, in2);
        c1.join().expect("sort 1 panicked");
        c2.join().expect("sort 2 panicked");
        resizer.join().expect("resizer panicked");
        if let Ok(svc) = Arc::try_unwrap(svc) {
            let stats = svc.shutdown();
            assert_eq!(stats.completed, 2);
        }
    })
    .expect("no interleaving may wedge or corrupt the broker");
}

/// One admission slot and a pool of eight pages: a job with a minimum of
/// eight holds the whole pool, so the next such request fits only once it
/// is released.
fn whole_pool_request(svc: &SortService, input: &[Tuple]) -> SortTicket {
    pool_request(svc, input, 8)
}

fn pool_request(svc: &SortService, input: &[Tuple], min_pages: usize) -> SortTicket {
    let cfg = SortConfig::default()
        .with_page_size(256)
        .with_tuple_size(64)
        .with_memory_pages(4);
    svc.submit(SortRequest::tuples(cfg, input.to_vec()).min_pages(min_pages))
        .expect("submit")
}

/// Redeem `ticket` on an explorer task of its own, take one page of the
/// result and stop pulling: the task returns the output, parked at its root,
/// with the page it took.
fn stalled_caller(ticket: SortTicket) -> thread::JoinHandle<(JobOutput, Vec<Tuple>)> {
    thread::spawn(move || {
        let mut output = ticket.wait().expect("sort");
        let page = output.next_page().expect("page").expect("a first page");
        (output, page.tuples())
    })
}

/// A parked root holds the minimum a waiting request needs, and its
/// consumer, having taken one page, does not pull again. Each job is run by
/// the task that redeems it, in either order: the caller still in line
/// must settle the other's root to be admitted, and a schedule that leaves
/// it parked shows up as a deadlock. Both results arrive whole and in order.
#[test]
fn a_queued_request_is_admitted_past_a_parked_root_nobody_pulls() {
    explore_random(&opts(20), || {
        let svc = SortService::builder().pool_pages(8).workers(1).build();
        let (in1, in2) = (tuples(24, 3), tuples(24, 4));
        let stalled = stalled_caller(whole_pool_request(&svc, &in1));
        let reader = caller(whole_pool_request(&svc, &in2), in2);
        reader.join().expect("sort 2 panicked");
        let (out1, mut got) = stalled.join().expect("sort 1 panicked");
        got.extend(out1.map(|t| t.expect("tuple")));
        assert_sorted_permutation(&in1, &got);
        let stats = svc.shutdown();
        assert_eq!((stats.completed, stats.leaked_pages), (2, 0));
    })
    .expect("no interleaving may keep a queued request behind a parked root");
}

/// Two callers wait for admission behind a job that holds the whole pool's
/// minimum, while a third task grows the pool and shrinks it back. The
/// job's own caller stops pulling after one page and waits for the two, so
/// nothing wakes them but the job reaching its root (a free admission slot,
/// and a parked root to settle) or its release: a schedule that loses that
/// wake-up shows up as a deadlock. Every result arrives whole and in order.
#[test]
fn callers_in_line_behind_a_pool_holder_are_woken_while_the_pool_is_resized() {
    explore_random(&opts(20), || {
        let svc = Arc::new(SortService::builder().pool_pages(8).workers(1).build());
        let inputs = [tuples(24, 7), tuples(24, 8), tuples(24, 9)];
        let holder = stalled_caller(whole_pool_request(&svc, &inputs[0]));
        let callers = [1, 2].map(|i| caller(pool_request(&svc, &inputs[i], 4), inputs[i].clone()));
        let resizer = {
            let svc = Arc::clone(&svc);
            thread::spawn(move || {
                svc.resize_pool(12);
                svc.resize_pool(8);
            })
        };
        for c in callers {
            c.join().expect("a caller panicked");
        }
        let (output, mut got) = holder.join().expect("the holder panicked");
        got.extend(output.map(|t| t.expect("tuple")));
        assert_sorted_permutation(&inputs[0], &got);
        resizer.join().expect("resizer panicked");
        let svc = Arc::try_unwrap(svc).expect("every task joined");
        let stats = svc.shutdown();
        assert_eq!((stats.completed, stats.leaked_pages), (3, 0));
    })
    .expect("no interleaving may leave a caller in line for good");
}

/// The ways out of a parked root racing each other: one job's consumer
/// pulls to the last page while the admission of a second asks for its
/// settle; the second, run by a task of its own, is cancelled by another
/// task — unredeemed, in line, sorting or parked, wherever the schedule puts
/// it — and its output dropped. Each job is released exactly once, and no
/// page leaks.
#[test]
fn a_cancel_a_drop_a_settle_and_the_last_pull_release_a_job_once() {
    explore_random(&opts(20), || {
        let svc = SortService::builder().pool_pages(8).workers(1).build();
        let input = tuples(24, 5);
        let a = whole_pool_request(&svc, &input);
        let b = Arc::new(whole_pool_request(&svc, &input));
        let reader = thread::spawn(move || a.wait().expect("sort a").into_sorted_vec());
        let redeemer = {
            let b = Arc::clone(&b);
            thread::spawn(move || drop(b.wait()))
        };
        let canceller = thread::spawn(move || {
            b.cancel();
        });
        let sorted = reader.join().expect("reader panicked");
        assert_sorted_permutation(&input, &sorted.expect("read sort a"));
        redeemer.join().expect("redeemer panicked");
        canceller.join().expect("canceller panicked");
        let stats = svc.stats();
        assert_eq!(stats.completed + stats.cancelled, 2, "{stats:?}");
        assert_eq!((stats.failed, stats.leaked_pages), (0, 0));
        assert_eq!(svc.live_jobs(), 0);
    })
    .expect("no interleaving may release a job twice or leak a page");
}
