//! A sort whose memory allocation is changed **while it runs** by another
//! thread — the situation the paper is about. A "DBMS" thread repeatedly
//! steals most of the sorter's pages (a high-priority transaction arrives)
//! and later gives them back; the sort keeps running and stays correct, and
//! the budget records how quickly the sorter honoured each shortage.
//!
//! Run with:
//! ```text
//! cargo run --release --example fluctuating_budget
//! ```

use memory_adaptive_sort::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn main() -> Result<(), SortError> {
    let mut rng = StdRng::seed_from_u64(42);
    let tuples: Vec<Tuple> = (0..300_000)
        .map(|_| Tuple::synthetic(rng.gen::<u64>(), 128))
        .collect();
    let input_copy = tuples.clone();

    let cfg = SortConfig::default()
        .with_tuple_size(128)
        .with_memory_pages(64)
        .with_algorithm("repl6,opt,split".parse().unwrap());
    let budget = MemoryBudget::new(cfg.memory_pages);

    // The "buffer manager": every 2 ms a higher-priority transaction takes
    // ~80 % of the sorter's memory for 2 ms, then releases it again.
    let dbms_budget = budget.clone();
    let dbms = std::thread::spawn(move || {
        let start = std::time::Instant::now();
        let mut steals = 0u32;
        while start.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(2));
            dbms_budget.set_target(12, start.elapsed().as_secs_f64());
            std::thread::sleep(Duration::from_millis(2));
            dbms_budget.set_target(64, start.elapsed().as_secs_f64());
            steals += 1;
            // Stop once the sorter has finished (it reports held = 0 twice in
            // a row only at the very end; simply bound the loop by time).
            if dbms_budget.held() == 0 && steals > 5 {
                break;
            }
        }
        steals
    });

    // The budget moves under the sort, so `run()` finishes the whole merge
    // itself instead of parking the final step for the reader (a parked step
    // would answer the buffer manager only when the reader next pulls).
    // `finish()` has the final statistics in either case.
    let mut stream = SortJob::builder()
        .config(cfg)
        .tuples(tuples)
        .budget(budget)
        .build()?
        .run()?
        .into_stream();
    let sorted = stream.by_ref().collect::<Result<Vec<_>, _>>()?;
    let outcome = stream.finish();
    let steals = dbms.join().unwrap();
    masort_core::verify::assert_sorted_permutation(&input_copy, &sorted);

    println!("sorted {} tuples while the budget fluctuated", sorted.len());
    println!("memory steal/give-back cycles : {steals}");
    println!("runs formed                   : {}", outcome.runs_formed());
    println!(
        "merge steps executed          : {}",
        outcome.merge.steps_executed
    );
    println!(
        "dynamic splits / combines     : {} / {}",
        outcome.merge.splits, outcome.merge.combines
    );
    println!("shortages honoured            : {}", outcome.delays.len());
    println!(
        "mean split-phase delay        : {:.3} ms",
        outcome.mean_split_delay() * 1e3
    );
    println!(
        "wall time                     : {:.3} s",
        outcome.response_time
    );
    Ok(())
}
