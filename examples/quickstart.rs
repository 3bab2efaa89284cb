//! Quickstart: sort a dataset that does not fit in the memory you give the
//! sorter, using the paper's recommended algorithm (`repl6,opt,split`), and
//! print the statistics the sorter collected along the way.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use memory_adaptive_sort::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), SortError> {
    // 200k tuples of 256 bytes = ~50 MB of data, sorted with only 48 pages
    // (384 KB) of memory.
    let mut rng = StdRng::seed_from_u64(7);
    let tuples: Vec<Tuple> = (0..200_000)
        .map(|_| Tuple::synthetic(rng.gen::<u64>(), 256))
        .collect();

    let cfg = SortConfig::default()
        .with_memory_pages(48)
        .with_algorithm(AlgorithmSpec::recommended());
    println!("algorithm      : {}", cfg.algorithm);
    println!(
        "memory         : {} pages of {} bytes",
        cfg.memory_pages, cfg.page_size
    );
    println!(
        "input          : {} tuples ({} MB)",
        tuples.len(),
        tuples.len() * 256 / (1 << 20)
    );

    let completion = SortJob::builder()
        .config(cfg)
        .tuples(tuples)
        .build()?
        .run()?;
    println!("runs formed    : {}", completion.outcome.runs_formed());

    // `run()` stopped with the merge down to its final step; the stream
    // executes that step, so the 50 MB are never written out sorted nor held
    // in memory — one page of merged tuples is buffered at a time.
    let mut stream = completion.into_stream();
    let mut count = 0usize;
    let mut previous = 0u64;
    for tuple in stream.by_ref() {
        let tuple = tuple?;
        assert!(tuple.key >= previous);
        previous = tuple.key;
        count += 1;
    }
    println!("streamed       : {count} tuples in sorted order");

    let outcome = stream.finish();
    println!("merge steps    : {}", outcome.merge.steps_executed);
    println!(
        "pages written  : {}",
        outcome.split.pages_written + outcome.merge.pages_written
    );
    println!("wall time      : {:.3} s", outcome.response_time);
    Ok(())
}
