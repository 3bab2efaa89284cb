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

use masort_broker::{SortRequest, SortService};
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

/// The broker under concurrent admission, completion and pool resizing: two
/// tiny sorts run while another task shrinks and re-grows the page pool.
/// Every interleaving must deliver both sorted outputs and leave the service
/// consistent (the resize may suspend/repartition jobs but never wedge or
/// corrupt them).
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
        let resizer = {
            let svc = Arc::clone(&svc);
            thread::spawn(move || {
                svc.resize_pool(6);
                svc.resize_pool(16);
            })
        };
        let t2 = svc
            .submit(SortRequest::tuples(cfg, in2.clone()).min_pages(2))
            .expect("submit 2");
        let r1 = t1.wait().expect("sort 1 failed");
        let r2 = t2.wait().expect("sort 2 failed");
        assert_sorted_permutation(&in1, &r1.into_sorted_vec().expect("read sort 1"));
        assert_sorted_permutation(&in2, &r2.into_sorted_vec().expect("read sort 2"));
        resizer.join().expect("resizer panicked");
        if let Ok(svc) = Arc::try_unwrap(svc) {
            let stats = svc.shutdown();
            assert_eq!(stats.completed, 2);
        }
    })
    .expect("no interleaving may wedge or corrupt the broker");
}

/// A service with one worker and the smallest geometry that still makes a
/// result longer than the hand-off: 4 tuples to a page, 6 pages to a result.
fn one_worker_service(stall: std::time::Duration) -> SortService {
    SortService::builder()
        .pool_pages(8)
        .workers(1)
        .suspension_wait(stall)
        .build()
}

fn tiny_cfg() -> SortConfig {
    SortConfig::default()
        .with_page_size(256)
        .with_tuple_size(64)
        .with_memory_pages(4)
}

fn sorted_keys(input: &[Tuple]) -> Vec<u64> {
    let mut keys: Vec<u64> = input.iter().map(|t| t.key).collect();
    keys.sort_unstable();
    keys
}

/// Pull an output page by page to its end: the keys that arrived and the
/// error that ended them early, if one did.
fn pull_all(output: &mut masort_broker::JobOutput) -> (Vec<u64>, Option<SortError>) {
    let mut keys = Vec::new();
    loop {
        match output.next_page() {
            Ok(Some(page)) => keys.extend(page.iter().map(|t| t.key)),
            Ok(None) => return (keys, None),
            Err(e) => return (keys, Some(e)),
        }
    }
}

const NEVER: std::time::Duration = std::time::Duration::from_secs(3600);

/// The hand-off between the worker executing a job's last merge step and
/// the ticket holder, with a second request arriving while the first
/// consumer is not reading and a shutdown behind it. One worker, so the
/// second request can only ever run if the first job's worker stops waiting
/// for its consumer: an interleaving that leaves it parked with the request
/// queued shows up as a deadlock (or, spinning on its poll, as the step
/// bound). Every page must arrive exactly once and in order on both
/// outputs, through whichever mix of streamed and settled pages the schedule
/// produced, and each grant must be released exactly once.
#[test]
fn hand_off_never_parks_a_worker_in_front_of_a_queued_request() {
    explore_random(&opts(20), || {
        let svc = one_worker_service(NEVER);
        let (in1, in2) = (tuples(24, 3), tuples(24, 4));
        let t1 = svc
            .submit(SortRequest::tuples(tiny_cfg(), in1.clone()))
            .expect("submit 1");
        let reader = thread::spawn(move || {
            // Redeems, takes one page, and stops until told to go on.
            let mut out1 = t1.wait().expect("sort 1 failed");
            let first = out1.next_page().expect("page").expect("a first page");
            (out1, first)
        });
        let t2 = svc
            .submit(SortRequest::tuples(tiny_cfg(), in2.clone()))
            .expect("submit 2");
        let (keys2, err2) = pull_all(&mut t2.wait().expect("sort 2 failed"));
        assert!(err2.is_none(), "{err2:?}");
        assert_eq!(keys2, sorted_keys(&in2));

        let (mut out1, first) = reader.join().expect("reader panicked");
        let stats = svc.shutdown();
        assert_eq!((stats.completed, stats.leaked_pages), (2, 0));
        // Read after the service is gone: hand-off pages, then the settled
        // remainder on this thread.
        let mut keys1: Vec<u64> = first.iter().map(|t| t.key).collect();
        let (rest, err1) = pull_all(&mut out1);
        assert!(err1.is_none(), "{err1:?}");
        keys1.extend(rest);
        assert_eq!(keys1, sorted_keys(&in1));
    })
    .expect("no interleaving may park a worker in front of a queued request");
}

/// The same hand-off with its other three ways out racing the pump: a
/// cancel through the ticket, a consumer that hangs up half way, and the
/// stall timeout (a zero `suspension_wait`, so the worker settles the first
/// time it finds its consumer behind). Whatever arrives is a prefix of the
/// sorted result — whole unless cancelled — and every job's grant goes back
/// exactly once.
#[test]
fn hand_off_cancel_hang_up_and_stall_release_exactly_once() {
    explore_random(&opts(20), || {
        let svc = one_worker_service(std::time::Duration::ZERO);
        let input = tuples(24, 5);
        let expected = sorted_keys(&input);
        let submit = || {
            svc.submit(SortRequest::tuples(tiny_cfg(), input.clone()))
                .expect("submit")
        };

        // Stall: the consumer is a task like any other, so some schedules
        // have it keep up and others have the worker settle under it.
        let (keys, err) = pull_all(&mut submit().wait().expect("sort failed"));
        assert!(err.is_none(), "{err:?}");
        assert_eq!(keys, expected);

        // Cancel, landing wherever the schedule puts it: queued, sorting,
        // at the root, or after the end.
        let ticket = submit();
        let took_effect = ticket.cancel();
        match ticket.wait() {
            Ok(mut output) => {
                let (keys, err) = pull_all(&mut output);
                assert_eq!(keys[..], expected[..keys.len()], "not a prefix");
                match err {
                    None => assert_eq!(keys.len(), expected.len()),
                    Some(e) => assert!(took_effect && matches!(e, SortError::Cancelled), "{e}"),
                }
            }
            Err(e) => assert!(took_effect && matches!(e, SortError::Cancelled), "{e}"),
        }

        // Hang-up after two pages; `finish` waits for the release.
        let mut output = submit().wait().expect("sort failed");
        let mut keys = Vec::new();
        for _ in 0..2 {
            let page = output.next_page().expect("page").expect("two pages exist");
            keys.extend(page.iter().map(|t| t.key));
        }
        assert_eq!(keys[..], expected[..keys.len()]);
        let report = output.finish();
        assert_eq!(report.outcome.split.total_tuples(), 24);
        assert_eq!(svc.live_jobs(), 0, "finish() returned before the release");

        let stats = svc.shutdown();
        assert_eq!(stats.completed + stats.cancelled, 3);
        assert_eq!((stats.failed, stats.leaked_pages), (0, 0));
    })
    .expect("no interleaving may leak a grant or a page of the result");
}
