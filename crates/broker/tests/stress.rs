//! Stress test: a storm of concurrent submissions racing with pool resizes.
//!
//! CI runs this in release mode (`cargo test --release -p masort-broker
//! --test stress`); in debug it runs a reduced load so `cargo test -q` stays
//! fast.

use masort_broker::prelude::*;
use masort_core::verify::{is_key_permutation, is_sorted};
use masort_core::{SortConfig, SortError, Tuple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[cfg(debug_assertions)]
const JOBS: usize = 24;
#[cfg(not(debug_assertions))]
const JOBS: usize = 96;

#[test]
fn submission_storm_with_concurrent_resizes() {
    let service = Arc::new(SortService::builder().pool_pages(32).workers(6).build());

    // A "buffer manager" thread wobbles the pool the whole time.
    let stop = Arc::new(AtomicBool::new(false));
    let resizer = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let sizes = [16usize, 48, 20, 64, 14, 40];
            let mut i = 0;
            while !stop.load(Ordering::Relaxed) {
                service.resize_pool(sizes[i % sizes.len()]);
                i += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            // Leave the pool generous so queued work drains quickly.
            service.resize_pool(64);
            i
        })
    };

    // Several submitter threads race their submissions.
    let mut submitters = Vec::new();
    for t in 0..3u64 {
        let service = Arc::clone(&service);
        submitters.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(0x57AE55 + t);
            let mut results = Vec::new();
            for j in 0..JOBS / 3 {
                let n = rng.gen_range(500usize..4_000);
                let input: Vec<Tuple> = (0..n)
                    .map(|_| Tuple::synthetic(rng.gen::<u64>(), 64))
                    .collect();
                let cfg = SortConfig::default()
                    .with_page_size(512)
                    .with_tuple_size(64)
                    .with_memory_pages(rng.gen_range(4usize..16));
                let ticket = service
                    .submit(
                        SortRequest::tuples(cfg, input.clone())
                            .priority(rng.gen_range(1u32..10))
                            .min_pages(rng.gen_range(1usize..4)),
                    )
                    .unwrap_or_else(|e| panic!("submitter {t} job {j}: {e}"));
                results.push((input, ticket));
            }
            // Redeem each ticket on a thread of its own, so the sorts race
            // each other and the resizes; every sort must be correct.
            let outcomes = std::thread::scope(|s| {
                let callers: Vec<_> = results
                    .iter()
                    .map(|(input, ticket)| {
                        s.spawn(move || match ticket.wait() {
                            Ok(output) => {
                                let sorted = output.into_sorted_vec().unwrap();
                                Ok(is_sorted(&sorted) && is_key_permutation(input, &sorted))
                            }
                            Err(e) => Err(e),
                        })
                    })
                    .collect();
                callers
                    .into_iter()
                    .map(|caller| caller.join().expect("caller panicked"))
                    .collect::<Vec<_>>()
            });
            let mut starved = 0usize;
            for (i, outcome) in outcomes.into_iter().enumerate() {
                match outcome {
                    Ok(correct) => assert!(correct, "submitter {t} job {i}"),
                    // A resize can legitimately doom a queued request whose
                    // minimum no longer fits; nothing else may fail.
                    Err(SortError::BudgetStarved { .. }) => starved += 1,
                    Err(e) => panic!("submitter {t} job {i}: unexpected error {e}"),
                }
            }
            starved
        }));
    }

    let mut total_starved = 0usize;
    for s in submitters {
        total_starved += s.join().expect("submitter panicked");
    }
    stop.store(true, Ordering::Relaxed);
    let resizes = resizer.join().expect("resizer panicked");
    assert!(resizes >= 2, "the pool never actually wobbled");

    let service = Arc::into_inner(service).expect("all clones joined");
    let stats = service.shutdown();
    let jobs = (JOBS / 3 * 3) as u64;
    assert_eq!(stats.submitted, jobs);
    assert_eq!(stats.completed + stats.rejected, jobs);
    assert_eq!(stats.rejected, total_starved as u64);
    assert_eq!(stats.failed, 0);
    assert!(
        stats.rebalances as usize >= 2 * (jobs as usize - total_starved),
        "every admission and completion must rebalance"
    );
}
