//! Partition-parallel sort experiment: tuples/sec vs compute-worker count at
//! fixed memory budgets.
//!
//! The same relation is sorted end to end (split + merge) once per worker
//! count, at each budget. The budget is the *total* grant: workers obey
//! `MemoryBudget::child` shares of it, so more workers means shorter runs and
//! a wider final merge — the speedup reported is the honest whole-sort
//! speedup, not just the split phase's.
//!
//! Environment knobs:
//! `MASORT_PAR_PAGES` (input pages, default 2000),
//! `MASORT_PAR_WORKERS` (comma-separated, default `1,2,4`),
//! `MASORT_PAR_BUDGETS` (comma-separated total pages, default `32,64`),
//! `MASORT_PAR_ALGO` (default `repl6,opt,split`),
//! `MASORT_PAR_REPS` (default 3, fastest repetition is reported).

use masort_bench::{env_usize, env_usize_list, f, print_table};
use masort_core::prelude::*;
use std::time::Instant;

struct Outcome {
    secs: f64,
    tuples: usize,
    runs_formed: usize,
}

fn run_sort(cfg: &SortConfig, pages: usize, workers: usize) -> Outcome {
    let source = GenSource::new(pages, cfg.tuples_per_page(), cfg.tuple_size, 0xBEEF);
    let tuples = pages * cfg.tuples_per_page();
    let t0 = Instant::now();
    let completion = SortJob::builder()
        .config(cfg.clone())
        .cpu_threads(workers)
        .input(source)
        .build()
        .expect("valid config")
        .run()
        .expect("sort");
    let runs_formed = completion.outcome.runs_formed();
    // Collecting executes the final merge step, so it is on the clock.
    let sorted = completion.into_sorted_vec().expect("collect");
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(sorted.len(), tuples, "sort lost tuples");
    assert!(
        sorted.windows(2).all(|w| w[0].key <= w[1].key),
        "output not sorted"
    );
    Outcome {
        secs,
        tuples,
        runs_formed,
    }
}

fn best_of(reps: usize, cfg: &SortConfig, pages: usize, workers: usize) -> Outcome {
    let mut best: Option<Outcome> = None;
    for _ in 0..reps.max(1) {
        let o = run_sort(cfg, pages, workers);
        if best.as_ref().is_none_or(|b| o.secs < b.secs) {
            best = Some(o);
        }
    }
    best.expect("at least one repetition")
}

fn main() {
    let pages = env_usize("MASORT_PAR_PAGES", 2000);
    let workers = env_usize_list("MASORT_PAR_WORKERS", &[1, 2, 4]);
    let budgets = env_usize_list("MASORT_PAR_BUDGETS", &[32, 64]);
    let reps = env_usize("MASORT_PAR_REPS", 3);
    let algo: AlgorithmSpec = std::env::var("MASORT_PAR_ALGO")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(AlgorithmSpec::recommended);

    eprintln!(
        "parallel sort experiment — {pages} pages, algo {algo}, workers {workers:?}, \
         budgets {budgets:?}, best of {reps} (host has {} core(s))",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let mut rows = Vec::new();
    let mut summaries = Vec::new();
    for &budget in &budgets {
        let cfg = SortConfig::default()
            .with_memory_pages(budget)
            .with_algorithm(algo);
        // Measure every worker count first; the baseline is the rate at the
        // *smallest* measured count (1 unless the knob excludes it), so the
        // reported ratios are well-defined regardless of the list's order.
        let measured: Vec<(usize, Outcome, f64)> = workers
            .iter()
            .map(|&w| {
                let o = best_of(reps, &cfg, pages, w);
                let rate = o.tuples as f64 / o.secs.max(1e-9);
                (w, o, rate)
            })
            .collect();
        let (base_workers, base_rate) = measured
            .iter()
            .min_by_key(|(w, _, _)| *w)
            .map(|(w, _, rate)| (*w, *rate))
            .expect("at least one worker count");
        let mut best_ratio: f64 = 0.0;
        for (w, o, rate) in &measured {
            let ratio = rate / base_rate.max(1e-9);
            if *w > base_workers {
                best_ratio = best_ratio.max(ratio);
            }
            rows.push(vec![
                budget.to_string(),
                w.to_string(),
                f(o.secs * 1e3, 1),
                f(rate / 1e6, 2),
                o.runs_formed.to_string(),
                if *w == base_workers {
                    String::new()
                } else {
                    f(ratio, 2)
                },
            ]);
        }
        summaries.push((budget, base_workers, best_ratio));
    }
    print_table(
        "exp_parallel: tuples/sec vs split-phase workers at a fixed total budget",
        &[
            "budget (pages)",
            "workers",
            "sort (ms)",
            "Mtuples/sec",
            "runs",
            "speedup",
        ],
        &rows,
    );
    for (budget, base_workers, ratio) in summaries {
        println!(
            "speedup at budget {budget}: {ratio:.2}x tuples/sec \
             (best parallel / {base_workers} worker(s))"
        );
    }
}
