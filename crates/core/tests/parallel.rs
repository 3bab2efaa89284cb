//! Partition-parallel sorting: output equivalence with the single-threaded
//! engine across every algorithm combination, and the budget-hierarchy
//! invariants under concurrent re-targeting.
//!
//! `MASORT_THREADS` (default 4) selects the worker count for the
//! whole-engine round-trip tests, so CI can run the suite pinned to 1 (the
//! single-thread fast path) and to 4 (the parallel path) and catch a
//! regression in either.

use masort_core::prelude::*;
use masort_core::verify::{assert_sorted_permutation, assert_sorted_permutation_by};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

fn env_threads() -> usize {
    std::env::var("MASORT_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(4)
}

fn random_tuples(n: usize, seed: u64) -> Vec<Tuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Tuple::synthetic(rng.gen::<u64>(), 64))
        .collect()
}

fn small_cfg(mem: usize, spec: AlgorithmSpec) -> SortConfig {
    SortConfig::default()
        .with_page_size(512)
        .with_tuple_size(64)
        .with_memory_pages(mem)
        .with_algorithm(spec)
}

fn sort_with_workers(cfg: SortConfig, tuples: Vec<Tuple>, workers: usize) -> Vec<Tuple> {
    SortJob::builder()
        .config(cfg)
        .cpu_threads(workers)
        .tuples(tuples)
        .build()
        .unwrap()
        .run()
        .unwrap()
        .into_sorted_vec()
        .unwrap()
}

/// The acceptance property: for every algorithm combination and both
/// directions, the parallel sort's output tuple sequence is identical to the
/// single-threaded one, for worker counts 1, 2 and 4.
#[test]
fn parallel_output_equals_single_threaded_for_every_algorithm() {
    let input = random_tuples(3_000, 4242);
    for spec in AlgorithmSpec::all(4) {
        for descending in [false, true] {
            let mut cfg = small_cfg(6, spec);
            if descending {
                cfg = cfg.descending();
            }
            let reference = sort_with_workers(cfg.clone(), input.clone(), 1);
            assert_sorted_permutation_by(&input, &reference, &cfg.order);
            for workers in [2usize, 4] {
                let parallel = sort_with_workers(cfg.clone(), input.clone(), workers);
                assert!(
                    parallel == reference,
                    "{spec} desc={descending}: {workers}-worker output diverged \
                     from the single-threaded sequence"
                );
            }
        }
    }
}

/// The suite-wide knob: a representative set of round trips at the
/// CI-selected worker count (1 and 4 in the workflow).
#[test]
fn env_selected_worker_count_round_trips() {
    let workers = env_threads();
    let input = random_tuples(5_000, 7);
    for spec in [
        AlgorithmSpec::recommended(),
        "quick,naive,page".parse().unwrap(),
        "repl1,opt,susp".parse().unwrap(),
    ] {
        let sorted = sort_with_workers(small_cfg(8, spec), input.clone(), workers);
        assert_sorted_permutation(&input, &sorted);
    }
}

#[test]
fn parallel_sort_spills_to_a_file_store_with_io_pipeline() {
    let workers = env_threads();
    let input = random_tuples(6_000, 99);
    let completion = SortJob::builder()
        .config(small_cfg(8, AlgorithmSpec::recommended()))
        .cpu_threads(workers)
        .io_pipeline(8)
        .io_threads(2)
        .tuples(input.clone())
        .store(FileStore::in_temp_dir().unwrap())
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(completion.outcome.runs_formed() >= 1);
    let sorted = completion.into_sorted_vec().unwrap();
    assert_sorted_permutation(&input, &sorted);
}

#[test]
fn boxed_sources_sort_in_parallel_through_the_locked_fallback() {
    let input = random_tuples(4_000, 55);
    let cfg = small_cfg(6, AlgorithmSpec::recommended());
    let boxed: Box<dyn InputSource + Send> =
        Box::new(VecSource::from_tuples(input.clone(), cfg.tuples_per_page()));
    let sorted = SortJob::builder()
        .config(cfg)
        .cpu_threads(4)
        .input(boxed)
        .build()
        .unwrap()
        .run()
        .unwrap()
        .into_sorted_vec()
        .unwrap();
    assert_sorted_permutation(&input, &sorted);
}

#[test]
fn generated_sources_split_without_changing_the_relation() {
    let cfg = SortConfig::default().with_memory_pages(8);
    let run = |workers: usize| -> Vec<u64> {
        SortJob::builder()
            .config(cfg.clone())
            .cpu_threads(workers)
            .input(GenSource::new(40, cfg.tuples_per_page(), 256, 3))
            .build()
            .unwrap()
            .run()
            .unwrap()
            .into_sorted_vec()
            .unwrap()
            .into_iter()
            .map(|t| t.key)
            .collect()
    };
    let reference = run(1);
    assert_eq!(reference.len(), 40 * cfg.tuples_per_page());
    assert_eq!(run(2), reference);
    assert_eq!(run(4), reference);
}

#[test]
fn custom_sources_run_single_threaded_through_unsplit() {
    // A user-defined InputSource with no PartitionableSource impl still has a
    // SortJob path: wrap it in Unsplit, which always declines to split.
    struct Counting(u64);
    impl InputSource for Counting {
        fn next_page(&mut self) -> SortResult<Option<Page>> {
            if self.0 == 0 {
                return Ok(None);
            }
            self.0 -= 1;
            Ok(Some(Page::from_tuples(vec![Tuple::synthetic(self.0, 64)])))
        }
    }
    let sorted = SortJob::builder()
        .config(small_cfg(4, AlgorithmSpec::recommended()))
        .cpu_threads(4) // requested, but the source declines: sequential path
        .input(masort_core::Unsplit(Counting(100)))
        .build()
        .unwrap()
        .run()
        .unwrap()
        .into_sorted_vec()
        .unwrap();
    assert_eq!(sorted.len(), 100);
    assert!(sorted.windows(2).all(|w| w[0].key <= w[1].key));
}

#[test]
fn budget_shrinks_mid_parallel_sort_are_honoured() {
    // A real concurrent wobbler against a 4-worker sort: output stays a
    // sorted permutation and the shrink delays are visible on the root.
    let input = random_tuples(30_000, 23);
    let budget = MemoryBudget::new(32);
    let wobbler = {
        let budget = budget.clone();
        std::thread::spawn(move || {
            for step in 0..60 {
                std::thread::sleep(std::time::Duration::from_micros(300));
                let target = if step % 2 == 0 { 6 } else { 40 };
                budget.set_target(target, step as f64);
            }
        })
    };
    let completion = SortJob::builder()
        .config(small_cfg(32, AlgorithmSpec::recommended()))
        .cpu_threads(4)
        .budget(budget)
        .tuples(input.clone())
        .build()
        .unwrap()
        .run()
        .unwrap();
    wobbler.join().unwrap();
    let sorted = completion.into_sorted_vec().unwrap();
    assert_sorted_permutation(&input, &sorted);
}

/// The budget-hierarchy invariant under a concurrent `set_target` wobbler:
/// after quiescence the sum of the child holdings matches the root's
/// aggregate and fits under the root target, and the shrink delays the
/// workers incurred are visible at the root.
///
/// The two sides overlap by construction, not by luck: the wobbler starts
/// once every worker has reported a holding, follows each move by waiting
/// for every worker to report again, and the workers go on until they have
/// seen its last move.
#[test]
fn budget_hierarchy_invariants_under_concurrent_wobbler() {
    let workers = 4usize;
    let root = MemoryBudget::new(64);
    let children: Vec<MemoryBudget> = (0..workers)
        .map(|_| root.child(1.0 / workers as f64))
        .collect();
    let reports: Arc<Vec<AtomicUsize>> =
        Arc::new((0..workers).map(|_| AtomicUsize::new(0)).collect());
    let wobbled = Arc::new(AtomicBool::new(false));

    let wobbler = {
        let (root, reports, wobbled) = (root.clone(), Arc::clone(&reports), Arc::clone(&wobbled));
        std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(17);
            let mut seen = vec![0usize; reports.len()];
            for step in 0..300usize {
                // Every worker has reported since the previous move (before
                // the first one: at all).
                for (seen, reported) in seen.iter_mut().zip(reports.iter()) {
                    while reported.load(Ordering::SeqCst) == *seen {
                        std::thread::yield_now();
                    }
                    *seen = reported.load(Ordering::SeqCst);
                }
                // Never below `workers` pages, so per-child floors cannot
                // oversubscribe the root.
                root.set_target(rng.gen_range(16..64usize), step as f64);
            }
            wobbled.store(true, Ordering::SeqCst);
        })
    };

    let worker_handles: Vec<_> = children
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, child)| {
            let (reports, wobbled) = (Arc::clone(&reports), Arc::clone(&wobbled));
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + i as u64);
                for step in 0usize.. {
                    // Read before reporting: the report that follows a `true`
                    // comes after the wobbler's last move.
                    let last = wobbled.load(Ordering::SeqCst);
                    // Sometimes lag behind a shrink (hold more than the
                    // current target) so real delay samples are produced when
                    // the holding later drops to target.
                    let target = child.target();
                    let held = if step % 3 == 0 {
                        target + rng.gen_range(0..4usize)
                    } else {
                        target.saturating_sub(rng.gen_range(0..2usize))
                    };
                    child.record_held(held, step as f64);
                    reports[i].fetch_add(1, Ordering::SeqCst);
                    if last {
                        break;
                    }
                    // More threads than cores must not starve the wobbler.
                    std::thread::yield_now();
                }
            })
        })
        .collect();

    wobbler.join().unwrap();
    for h in worker_handles {
        h.join().unwrap();
    }

    // Quiescence: every worker settles at (or below) its final target.
    for (i, child) in children.iter().enumerate() {
        child.record_held(child.target(), 1_000.0 + i as f64);
    }
    let child_sum: usize = children.iter().map(MemoryBudget::held).sum();
    assert_eq!(
        root.held(),
        child_sum,
        "root aggregate must equal the sum of child holdings"
    );
    assert!(
        child_sum <= root.target(),
        "after quiescence the children ({child_sum} pages) must fit the \
         root target ({})",
        root.target()
    );
    assert!(!root.shrink_pending());
    for child in &children {
        assert!(!child.shrink_pending());
        assert_eq!(child.delay_count(), 0, "samples aggregate at the root");
    }
    assert!(
        root.delay_count() > 0,
        "worker shrink delays must be visible at the root"
    );
}

#[test]
fn single_threaded_job_stats_are_unchanged_by_the_parallel_engine() {
    // cpu_threads(1) must take the exact legacy path: one contiguous input,
    // sequential run formation, identical stats shape (pages read equals the
    // paginated input size, runs formed as before).
    let input = random_tuples(2_560, 5);
    let completion = SortJob::builder()
        .config(small_cfg(8, AlgorithmSpec::recommended()))
        .cpu_threads(1)
        .tuples(input.clone())
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(completion.outcome.split.pages_read, 2_560 / 8);
    assert!(completion.outcome.runs_formed() >= 2);
    let sorted = completion.into_sorted_vec().unwrap();
    assert_sorted_permutation(&input, &sorted);
}
