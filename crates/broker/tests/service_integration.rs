//! The acceptance scenario for the broker subsystem: many concurrent sorts
//! through one [`SortService`] on a pool smaller than their combined demand,
//! with pool resizes thrown in mid-flight.
//!
//! We verify that
//! * every output stream is a correctly sorted permutation of its input,
//! * every admitted job received at least its guaranteed minimum,
//! * at least one mid-flight reallocation occurred (observed through
//!   [`MemoryBudget::version`](masort_core::MemoryBudget::version) deltas
//!   surfaced as [`JobReport::reallocations`]),
//! * the service aggregates are consistent with what the tickets report.

use masort_broker::prelude::*;
use masort_core::verify::{is_key_permutation, is_sorted};
use masort_core::{SortConfig, Tuple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

const JOBS: usize = 10;
const POOL: usize = 24;

fn random_tuples(n: usize, seed: u64) -> Vec<Tuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Tuple::synthetic(rng.gen::<u64>(), 64))
        .collect()
}

fn cfg() -> SortConfig {
    // 512 B pages of 64 B tuples; each job would like 16 pages, so ten jobs
    // demand 160 pages against a 24-page pool — heavy contention.
    SortConfig::default()
        .with_page_size(512)
        .with_tuple_size(64)
        .with_memory_pages(16)
}

#[test]
fn concurrent_sorts_under_contention() {
    let service = SortService::builder().pool_pages(POOL).workers(4).build();

    let inputs: Vec<Vec<Tuple>> = (0..JOBS)
        .map(|i| random_tuples(8_000, 0xACCE97 + i as u64))
        .collect();
    let tickets: Vec<SortTicket> = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            service
                .submit(
                    SortRequest::tuples(cfg(), input.clone())
                        .priority(1 + (i as u32 % 3))
                        .min_pages(2),
                )
                .unwrap_or_else(|e| panic!("submit {i} failed: {e}"))
        })
        .collect();

    // Each ticket is redeemed on a thread of its own, so the sorts overlap.
    // Shrink and re-grow the global pool while they are in flight: every
    // live budget must move.
    let reports = std::thread::scope(|s| {
        let callers: Vec<_> = tickets
            .iter()
            .enumerate()
            .map(|(i, ticket)| {
                s.spawn(move || {
                    let mut output = ticket
                        .wait()
                        .unwrap_or_else(|e| panic!("job {i} failed: {e}"));
                    let streamed: Vec<Tuple> = output
                        .by_ref()
                        .collect::<Result<_, _>>()
                        .unwrap_or_else(|e| panic!("job {i} stream failed: {e}"));
                    (streamed, output.finish())
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(5));
        service.resize_pool(12);
        std::thread::sleep(Duration::from_millis(5));
        service.resize_pool(36);
        callers
            .into_iter()
            .map(|caller| caller.join().expect("caller panicked"))
            .collect::<Vec<_>>()
    });

    let mut total_reallocations = 0u64;
    let mut total_delay_samples = 0u64;
    for (i, ((streamed, report), input)) in reports.into_iter().zip(&inputs).enumerate() {
        assert!(
            report.initial_grant >= 2,
            "job {i} admitted below its guaranteed minimum (got {})",
            report.initial_grant
        );
        total_reallocations += report.reallocations;
        total_delay_samples += report.outcome.delays.len() as u64;

        assert!(is_sorted(&streamed), "job {i} output not sorted");
        assert!(
            is_key_permutation(input, &streamed),
            "job {i} lost or duplicated tuples"
        );
    }

    assert!(
        total_reallocations >= 1,
        "no job observed a mid-flight reallocation \
         ({total_delay_samples} delay samples)"
    );

    let stats = service.shutdown();
    assert_eq!(stats.submitted, JOBS as u64);
    assert_eq!(stats.completed, JOBS as u64);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.total_reallocations, total_reallocations);
    assert_eq!(stats.total_delay_samples, total_delay_samples);
    assert!(
        stats.rebalances >= (2 * JOBS + 2) as u64,
        "every admission, completion and resize rebalances (got {})",
        stats.rebalances
    );
    assert!(stats.peak_live >= 2, "sorts never overlapped");
}

#[test]
fn mixed_priorities_under_contention() {
    // Same contention scenario, but priorities span the full range — the
    // broker must not care.
    let service = SortService::builder().pool_pages(20).workers(4).build();
    let inputs: Vec<Vec<Tuple>> = (0..8)
        .map(|i| random_tuples(4_000, 0xD15C + i as u64))
        .collect();
    let tickets: Vec<SortTicket> = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            let req = SortRequest::tuples(cfg(), input.clone())
                .priority(1 + i as u32)
                .min_pages(2);
            service.submit(req).unwrap()
        })
        .collect();
    for (i, (ticket, input)) in tickets.into_iter().zip(&inputs).enumerate() {
        let sorted = ticket.wait().unwrap().into_sorted_vec().unwrap();
        assert!(is_sorted(&sorted), "job {i}");
        assert!(is_key_permutation(input, &sorted), "job {i}");
    }
    let stats = service.shutdown();
    assert_eq!(stats.completed, 8);
}
