//! Integration tests of the simulation harness: small-scale versions of the
//! paper's headline results must reproduce their qualitative shape.
//!
//! These run at a reduced scale (1-4 MB relations) so they are fast even in
//! debug builds; the full-scale numbers live in `EXPERIMENTS.md` and are
//! regenerated by the `masort-bench` binaries.

use masort_core::env::CountingEnv;
use masort_core::verify::{assert_sorted_permutation, collect_run};
use masort_core::{SortConfig, SortJob, Tuple};
use masort_dbsim::driver::{run_one_join, run_one_sort, run_sort_stream};
use masort_dbsim::{SimConfig, WorkloadConfig};

fn cfg(alg: &str, relation_mb: f64, memory_mb: f64) -> SimConfig {
    SimConfig::default()
        .with_relation_mb(relation_mb)
        .with_memory_mb(memory_mb)
        .with_algorithm(alg.parse().unwrap())
}

fn avg_response(c: &SimConfig, n: usize, seed: u64) -> f64 {
    run_sort_stream(c, n, seed)
        .iter()
        .map(|r| r.response_time)
        .sum::<f64>()
        / n as f64
}

#[test]
fn block_writes_reduce_split_phase_cost() {
    // Table 5 shape: repl1 pays many more seeks than repl6.
    let none = WorkloadConfig::none();
    let r1 = run_one_sort(&cfg("repl1,opt,split", 2.0, 0.1).with_workload(none), 1);
    let r6 = run_one_sort(&cfg("repl6,opt,split", 2.0, 0.1).with_workload(none), 1);
    assert!(r1.split_avg_page_io > 1.5 * r6.split_avg_page_io);
    assert!(r1.split_duration > 1.5 * r6.split_duration);
}

#[test]
fn more_memory_means_fewer_runs_and_faster_sorts() {
    // Figure 5 / Table 6 shape.
    let none = WorkloadConfig::none();
    let small = run_one_sort(&cfg("quick,opt,susp", 2.0, 0.05).with_workload(none), 2);
    let large = run_one_sort(&cfg("quick,opt,susp", 2.0, 0.4).with_workload(none), 2);
    assert!(large.runs_formed < small.runs_formed);
    assert!(large.merge_steps <= small.merge_steps);
    assert!(large.response_time < small.response_time);
}

#[test]
fn replacement_selection_runs_are_longer_than_quicksort_runs() {
    let none = WorkloadConfig::none();
    let quick = run_one_sort(&cfg("quick,opt,susp", 2.0, 0.1).with_workload(none), 3);
    let repl = run_one_sort(&cfg("repl1,opt,susp", 2.0, 0.1).with_workload(none), 3);
    assert!(
        (repl.runs_formed as f64) < 0.75 * quick.runs_formed as f64,
        "replacement selection ({}) should produce clearly fewer runs than quicksort ({})",
        repl.runs_formed,
        quick.runs_formed
    );
}

#[test]
fn adaptation_strategy_ordering_under_contention() {
    // Figure 6 shape: susp slower than split; page between (allow ties).
    let workload = WorkloadConfig {
        lambda_small: 2.0,
        mu_small: 0.8,
        mem_thres: 0.3,
        lambda_large: 0.25,
        mu_large: 3.0,
    };
    let n = 3;
    let susp = avg_response(
        &cfg("repl6,opt,susp", 2.0, 0.1).with_workload(workload),
        n,
        5,
    );
    let page = avg_response(
        &cfg("repl6,opt,page", 2.0, 0.1).with_workload(workload),
        n,
        5,
    );
    let split = avg_response(
        &cfg("repl6,opt,split", 2.0, 0.1).with_workload(workload),
        n,
        5,
    );
    assert!(split < susp, "split {split:.1}s must beat susp {susp:.1}s");
    assert!(
        split <= page * 1.05,
        "split {split:.1}s should not lose to page {page:.1}s"
    );
    assert!(page < susp, "page {page:.1}s must beat susp {susp:.1}s");
}

#[test]
fn fluctuation_magnitude_hurts_paging_more_than_splitting() {
    // Figures 10/11 shape.
    let n = 2;
    let base_split = avg_response(&cfg("repl6,opt,split", 2.0, 0.1), n, 9);
    let base_page = avg_response(&cfg("repl6,opt,page", 2.0, 0.1), n, 9);
    let big = WorkloadConfig::large_magnitude();
    let big_split = avg_response(&cfg("repl6,opt,split", 2.0, 0.1).with_workload(big), n, 9);
    let big_page = avg_response(&cfg("repl6,opt,page", 2.0, 0.1).with_workload(big), n, 9);
    assert!(
        big_split >= base_split * 0.9,
        "larger fluctuations should not speed things up"
    );
    assert!(big_page >= base_page * 0.9);
    let split_growth = big_split / base_split;
    let page_growth = big_page / base_page;
    assert!(
        page_growth > split_growth * 0.9,
        "paging should suffer at least comparably from large fluctuations \
         (page x{page_growth:.2} vs split x{split_growth:.2})"
    );
}

#[test]
fn join_reproduces_sort_trade_offs() {
    // Section 6: susp is also the worst strategy for sort-merge joins.
    let workload = WorkloadConfig {
        lambda_small: 2.0,
        mu_small: 0.8,
        mem_thres: 0.3,
        lambda_large: 0.25,
        mu_large: 3.0,
    };
    let c = |alg: &str| {
        SimConfig::default()
            .with_memory_mb(0.1)
            .with_algorithm(alg.parse().unwrap())
            .with_workload(workload)
    };
    let susp = run_one_join(&c("repl6,opt,susp"), 128, 96, 3).response_time;
    let split = run_one_join(&c("repl6,opt,split"), 128, 96, 3).response_time;
    assert!(
        split < susp,
        "join with split ({split:.1}s) must beat susp ({susp:.1}s)"
    );
}

#[test]
fn sort_stream_metrics_are_reproducible_for_a_seed() {
    let c = cfg("repl6,opt,split", 1.0, 0.0625);
    let a = run_sort_stream(&c, 2, 77);
    let b = run_sort_stream(&c, 2, 77);
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.runs_formed, y.runs_formed);
        assert!((x.response_time - y.response_time).abs() < 1e-9);
    }
}

#[test]
fn a_lone_run_is_still_copied_by_the_materialising_sort() {
    // The materialising finish (`SortCompletion::finish_into_run`, under
    // every simulated sort) returns its result as a run of its own. A relation that forms a single run is
    // copied into it by the root step, so the merge writes exactly what run
    // formation wrote, as the paper's cost model charges it.
    for alg in ["quick,opt,split", "repl6,opt,susp", "nat6,naive,page"] {
        let cfg = SortConfig::default()
            .with_page_size(512)
            .with_tuple_size(64)
            .with_memory_pages(64)
            .with_algorithm(alg.parse().unwrap());
        let tuples: Vec<Tuple> = (0..200u64)
            .map(|k| Tuple::synthetic(k.wrapping_mul(0x9e37_79b9_7f4a_7c15), 64))
            .collect();
        let mut done = SortJob::builder()
            .config(cfg)
            .tuples(tuples.clone())
            .env(CountingEnv::new())
            .build()
            .and_then(SortJob::run_to_root)
            .unwrap();
        let out = done.finish_into_run().unwrap();
        let outcome = &done.outcome;
        assert_eq!(outcome.runs_formed(), 1, "{alg}");
        assert!(outcome.split.pages_written > 0, "{alg}");
        assert_eq!(
            outcome.merge.pages_written, outcome.split.pages_written,
            "{alg}: the lone run must be copied into the output run"
        );
        assert_sorted_permutation(&tuples, &collect_run(&mut done.store, out).unwrap());
    }
}
