//! The final merge step, streamed: `SortedStream` executes the root of the
//! merge tree instead of reading back a run the root wrote.
//!
//! * Identity: the streamed output equals the `settle()`d output — the root
//!   run into a stored run first, then read back — tuple for tuple, across
//!   all 18 algorithm combinations x ascending/descending/normalized-key
//!   orders,
//!   with adaptive (descending, read-backwards) runs among the root's
//!   inputs.
//! * Adaptation during the drain: for each of the three merge adaptations, a
//!   second thread takes the budget from 64 pages to 3 and wobbles it while
//!   the consumer is mid-stream; the sort reacts the way the paper says it
//!   does and the output is still the sorted input.
//! * What an owner that drives the root itself builds on (the broker's
//!   worker): `settle()` after k pages were pulled continues the stream
//!   where the pulls stopped, and `checkpoint()` answers a shrink — or a
//!   cancel — without producing a page.

use memory_adaptive_sort::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn random_tuples(n: usize, seed: u64) -> Vec<Tuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Tuple::synthetic(rng.gen::<u64>() >> 8, 64))
        .collect()
}

/// 8 tuples per page.
fn cfg(spec: AlgorithmSpec, mem: usize) -> SortConfig {
    SortConfig::default()
        .with_page_size(512)
        .with_tuple_size(64)
        .with_memory_pages(mem)
        .with_algorithm(spec)
}

/// `input` as records for `by_normalized_key(10)`: each key's eight bytes
/// lead a 56-byte payload, and every tenth record is followed by a twin
/// that only the tie bytes (`payload[8..10]`) tell apart — so ranks tie
/// while whole keys stay unique.
fn with_twins(input: &[Tuple]) -> Vec<Tuple> {
    input
        .iter()
        .enumerate()
        .flat_map(|(i, t)| {
            let mut payload = t.key.to_be_bytes().to_vec();
            payload.resize(56, 0);
            let record = Tuple::new(t.key, payload.clone());
            payload[9] = 1;
            std::iter::once(record).chain((i % 10 == 0).then(|| Tuple::new(t.key, payload)))
        })
        .collect()
}

fn run(cfg: SortConfig, input: &[Tuple]) -> SortCompletion<MemStore> {
    SortJob::builder()
        .config(cfg)
        .tuples(input.to_vec())
        .build()
        .unwrap()
        .run()
        .unwrap()
}

#[test]
fn streamed_output_equals_settled_output_across_the_matrix() {
    // Ascending and descending stretches between noise, so natural-run
    // formation emits natural and reversed runs next to ordinary ones.
    let mut input = random_tuples(1_500, 42);
    input[300..700].sort_unstable_by_key(|t| t.key);
    input[900..1200].sort_unstable_by_key(|t| std::cmp::Reverse(t.key));

    // Whole keys are unique under every order (the normalized input's twins
    // tie on rank only), so tuple-for-tuple identity is well-defined.
    let orders = [
        ("asc", SortOrder::ascending(), input.clone()),
        ("desc", SortOrder::descending(), input.clone()),
        (
            "normalized",
            SortOrder::by_normalized_key(10),
            with_twins(&input),
        ),
    ];
    let mut cases = 0;
    let mut reversed_at_the_root = 0;
    let mut roots_after_preliminary_steps = 0;
    for mut spec in AlgorithmSpec::all(6) {
        // `replN` → `natN`: reversed runs only come out of natural formation.
        if let RunFormation::ReplacementSelect { block_pages } = spec.formation {
            spec.formation = RunFormation::natural(block_pages);
        }
        for (name, order, input) in &orders {
            // 12 pages: the replacement-selection formations' runs all
            // fit one step, quicksort's need preliminary steps first.
            let cfg = cfg(spec, 12).with_order(*order);
            let case = format!("{spec} {name}");

            let completion = run(cfg.clone(), input);
            let at_run = completion.outcome.clone();
            let mut stream = completion.into_stream();
            let streamed: Vec<Tuple> = stream.by_ref().map(Result::unwrap).collect();
            let done = stream.finish();

            let settled = run(cfg, input).settle().unwrap();
            let merge = settled.outcome.merge.clone();
            let read_back = settled.into_sorted_vec().unwrap();

            assert_eq!(streamed, read_back, "{case}: outputs diverged");
            assert!(order.is_sorted(&streamed), "{case}: not sorted");
            assert_eq!(streamed.len(), input.len(), "{case}");
            // Same merge, except that only settling writes the result.
            assert_eq!(done.merge.steps_executed, merge.steps_executed, "{case}");
            assert_eq!(done.merge.tuples_output, merge.tuples_output, "{case}");
            assert_eq!(done.merge.pages_read, merge.pages_read, "{case}");
            if at_run.runs_formed() > 1 {
                assert!(done.merge.pages_written < merge.pages_written, "{case}");
            }

            cases += 1;
            let eager = at_run.merge.steps_executed > 0;
            roots_after_preliminary_steps += usize::from(eager);
            let reversed = |r: &RunMeta| r.dir == RunDirection::Reversed;
            reversed_at_the_root += usize::from(!eager && at_run.split.runs.iter().any(reversed));
        }
    }
    assert_eq!(cases, 18 * 3);
    assert!(reversed_at_the_root >= 6, "{reversed_at_the_root}");
    assert!(
        roots_after_preliminary_steps >= 6,
        "{roots_after_preliminary_steps}"
    );
}

/// Drain a 40-run sort while another thread moves its budget, and return the
/// finished sort's statistics.
///
/// The wobbler first takes the budget down to 3 pages — the consumer waits
/// for that — and keeps it there until the sort has given the pages back
/// (`held() <= 3`): a handshake that guarantees the adaptation under test
/// happens, whatever the scheduler does. After that it cycles
/// 64 -> 16 -> 3 freely until told to stop.
fn drain_under_a_wobbling_budget(adaptation: MergeAdaptation) -> SortOutcome {
    let spec = AlgorithmSpec::new(RunFormation::repl(6), MergePolicy::Optimized, adaptation);
    let input = random_tuples(40_000, 7);
    let budget = MemoryBudget::new(64);
    let completion = SortJob::builder()
        .config(cfg(spec, 64))
        .tuples(input.clone())
        .budget(budget.clone())
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(completion.outcome.runs_formed() > 16);
    assert_eq!(
        completion.outcome.merge.steps_executed, 0,
        "64 pages fit every run: the whole merge is the stream's to execute"
    );

    let (start, started) = mpsc::channel::<()>();
    let (shrink, shrunk) = mpsc::channel::<()>();
    let stop = Arc::new(AtomicBool::new(false));
    let wobbler = {
        let (budget, stop) = (budget.clone(), Arc::clone(&stop));
        std::thread::spawn(move || {
            started.recv().unwrap();
            let clock = std::time::Instant::now();
            budget.set_target(3, clock.elapsed().as_secs_f64());
            shrink.send(()).unwrap();
            while budget.held() > 3 {
                std::thread::yield_now();
            }
            let mut moves = 1usize;
            while !stop.load(Ordering::SeqCst) {
                for target in [64, 16, 3] {
                    budget.set_target(target, clock.elapsed().as_secs_f64());
                    moves += 1;
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            // Leave the memory with the sort, so a suspended merge resumes.
            budget.set_target(64, clock.elapsed().as_secs_f64());
            moves
        })
    };

    let mut stream = completion.into_stream();
    let mut sorted: Vec<Tuple> = stream.by_ref().take(1_000).map(Result::unwrap).collect();
    assert!(budget.held() > 16, "mid-stream the root holds its buffers");
    start.send(()).unwrap();
    shrunk.recv().unwrap();
    sorted.extend(stream.by_ref().map(Result::unwrap));
    stop.store(true, Ordering::SeqCst);
    let moves = wobbler.join().unwrap();

    assert!(moves > 1);
    masort_core::verify::assert_sorted_permutation(&input, &sorted);
    assert_eq!(budget.held(), 0);
    let done = stream.finish();
    assert!(
        done.delays.iter().any(|d| d.phase == SortPhase::Merge),
        "the shrink to 3 pages was answered during the drain"
    );
    done
}

#[test]
fn dynamic_splitting_adapts_while_the_stream_is_drained() {
    let done = drain_under_a_wobbling_budget(MergeAdaptation::DynamicSplitting);
    assert!(done.merge.splits >= 1, "{:?}", done.merge);
    assert!(done.merge.pages_written > 0, "preliminary steps write runs");
    assert!(done.merge.steps_executed >= 2);
}

#[test]
fn paging_adapts_while_the_stream_is_drained() {
    let done = drain_under_a_wobbling_budget(MergeAdaptation::Paging);
    assert!(done.merge.extra_paging_reads > 0, "{:?}", done.merge);
    assert_eq!(done.merge.pages_written, 0, "paging never splits the root");
}

#[test]
fn suspension_adapts_while_the_stream_is_drained() {
    let done = drain_under_a_wobbling_budget(MergeAdaptation::Suspension);
    assert!(done.merge.suspended_time > 0.0, "{:?}", done.merge);
    assert!(done.merge.refetched_pages > 0);
    assert_eq!(
        done.merge.pages_written, 0,
        "suspension never splits the root"
    );
}

/// A 30-run sort on a budget the test keeps a handle on, parked at its root.
fn parked(
    adaptation: MergeAdaptation,
    order: &SortOrder,
    input: &[Tuple],
) -> (MemoryBudget, SortCompletion<MemStore>) {
    let spec = AlgorithmSpec::new(RunFormation::repl(6), MergePolicy::Optimized, adaptation);
    let budget = MemoryBudget::new(48);
    let completion = SortJob::builder()
        .config(cfg(spec, 48).with_order(*order))
        .tuples(input.to_vec())
        .budget(budget.clone())
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(completion.outcome.runs_formed() > 8);
    assert!(budget.held() > 8, "parked with its buffers");
    (budget, completion)
}

#[test]
fn settling_after_k_pages_continues_the_stream_where_it_stopped() {
    let input = random_tuples(6_000, 11);
    for adaptation in [
        MergeAdaptation::DynamicSplitting,
        MergeAdaptation::Paging,
        MergeAdaptation::Suspension,
    ] {
        for order in [SortOrder::ascending(), SortOrder::descending()] {
            // The un-settled stream, page by page.
            let (_, mut whole) = parked(adaptation, &order, &input);
            let mut pages: Vec<Vec<Tuple>> = Vec::new();
            while let Some(page) = whole.next_page().unwrap() {
                pages.push(page.tuples());
            }
            let reference: Vec<Tuple> = pages.concat();
            assert!(order.is_sorted(&reference));
            assert_eq!(reference.len(), input.len());

            for k in [0, 1, pages.len() / 2, pages.len() - 1, pages.len()] {
                let case = format!("{adaptation:?} {order:?} k={k}");
                let (budget, mut sort) = parked(adaptation, &order, &input);
                let mut output = Vec::new();
                for _ in 0..k {
                    output.extend(sort.next_page().unwrap().expect("k pages exist").tuples());
                }
                let settled = sort.settle().unwrap();
                assert_eq!(budget.held(), 0, "{case}: settle gives every page back");
                let merge = &settled.outcome.merge;
                assert_eq!(merge.tuples_output as usize, input.len(), "{case}");
                // Only what had not been pulled went through the store.
                let left = pages.len() - k;
                assert!(
                    (left..=left + 1).contains(&merge.pages_written),
                    "{case}: {} pages written for {left} left",
                    merge.pages_written
                );
                output.extend(settled.into_sorted_vec().unwrap());
                assert_eq!(output, reference, "{case}: settled tail diverged");
            }
        }
    }
}

#[test]
fn a_checkpoint_answers_a_shrink_without_a_page_being_pulled() {
    let input = random_tuples(6_000, 12);
    for adaptation in [
        MergeAdaptation::DynamicSplitting,
        MergeAdaptation::Paging,
        MergeAdaptation::Suspension,
    ] {
        let (budget, mut sort) = parked(adaptation, &SortOrder::ascending(), &input);
        sort.checkpoint().unwrap();
        assert!(budget.held() > 8, "{adaptation:?}: nothing to answer yet");

        // The owner wants all but three pages back from a root whose
        // consumer is not pulling.
        budget.set_target(3, 1.0);
        assert!(budget.shrink_pending());
        sort.checkpoint().unwrap();
        assert!(budget.held() <= 3, "{adaptation:?}: held {}", budget.held());
        assert!(!budget.shrink_pending(), "{adaptation:?}");
        // Idempotent while nothing moves, and nothing was produced.
        sort.checkpoint().unwrap();
        assert!(budget.held() <= 3, "{adaptation:?}");

        // The memory comes back; the stream picks up as if never parked.
        budget.set_target(48, 2.0);
        let mut stream = sort.into_stream();
        let sorted: Vec<Tuple> = stream.by_ref().map(Result::unwrap).collect();
        masort_core::verify::assert_sorted_permutation(&input, &sorted);
        let done = stream.finish();
        assert_eq!(done.merge.tuples_output as usize, input.len());
        let answered = done.delays.iter().filter(|d| d.phase == SortPhase::Merge);
        assert_eq!(
            answered.count(),
            1,
            "{adaptation:?}: one shrink, one sample"
        );
        match adaptation {
            MergeAdaptation::DynamicSplitting => assert!(done.merge.splits >= 1),
            // Gave everything back without waiting for it to return, and
            // refetched its buffers when it did.
            MergeAdaptation::Suspension => {
                assert!(done.merge.suspended_time > 0.0);
                assert!(done.merge.refetched_pages > 0);
            }
            MergeAdaptation::Paging => {}
        }
    }
}

#[test]
fn a_cancelled_budget_fails_the_checkpoint_and_closes_the_sort() {
    let input = random_tuples(6_000, 13);
    let (budget, mut sort) = parked(
        MergeAdaptation::DynamicSplitting,
        &SortOrder::ascending(),
        &input,
    );
    budget.cancel();
    assert!(matches!(sort.checkpoint(), Err(SortError::Cancelled)));
    assert_eq!(budget.held(), 0);
    assert!(
        sort.next_page().unwrap().is_none(),
        "closed: nothing to yield"
    );
}
