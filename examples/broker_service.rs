//! Many sorts, one memory pool: the broker subsystem end to end.
//!
//! A `SortService` runs eight concurrent sorts on four worker threads
//! against a 32-page global pool — far less than their combined demand — while
//! the main thread plays "operator" and resizes the pool mid-flight. The
//! service's memory broker re-divides the pool on every admission, completion
//! and resize, so each sort's memory genuinely fluctuates while it runs, exactly
//! as in the paper but on real threads.
//!
//! Run with:
//! ```text
//! cargo run --release --example broker_service
//! ```

use memory_adaptive_sort::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn main() -> Result<(), SortError> {
    let service = SortService::builder().pool_pages(32).workers(4).build();

    let cfg = SortConfig::default()
        .with_tuple_size(128)
        .with_memory_pages(24) // what each sort would like
        .with_algorithm("repl6,opt,split".parse().unwrap());

    let mut rng = StdRng::seed_from_u64(7);
    let mut tickets = Vec::new();
    for job in 0..8u32 {
        let tuples: Vec<Tuple> = (0..120_000)
            .map(|_| Tuple::synthetic(rng.gen::<u64>(), 128))
            .collect();
        let priority = 1 + job % 4; // a mixed-priority workload
        let ticket = service.submit(
            SortRequest::tuples(cfg.clone(), tuples)
                .priority(priority)
                .min_pages(3),
        )?;
        tickets.push((priority, ticket));
    }

    // The "operator": steal half the pool while the sorts run, then return
    // double. Every live sort's budget moves immediately.
    std::thread::sleep(Duration::from_millis(20));
    service.resize_pool(16);
    std::thread::sleep(Duration::from_millis(20));
    service.resize_pool(64);

    println!("job  prio  grant  reallocs  delays  queued(ms)  ran(ms)");
    for (priority, ticket) in tickets {
        // Resolves when the sort is down to its last merge step. Stream the
        // result off that step and check it on the fly.
        let mut output = ticket.wait()?;
        let mut previous = 0u64;
        let mut count = 0usize;
        for tuple in output.by_ref() {
            let tuple = tuple?;
            assert!(tuple.key >= previous, "output out of order");
            previous = tuple.key;
            count += 1;
        }
        assert_eq!(count, 120_000);
        // The job's books, closed when its grant went back to the pool.
        let report = output.finish();
        println!(
            "{:>3}  {:>4}  {:>5}  {:>8}  {:>6}  {:>10.2}  {:>7.2}",
            report.job,
            priority,
            report.initial_grant,
            report.reallocations,
            report.outcome.delays.len(),
            report.queued_for * 1e3,
            report.ran_for * 1e3,
        );
    }

    let stats = service.shutdown();
    println!(
        "\n{} sorts completed; {} rebalances; peak {} live; \
         {} mid-flight reallocations total",
        stats.completed, stats.rebalances, stats.peak_live, stats.total_reallocations,
    );
    Ok(())
}
