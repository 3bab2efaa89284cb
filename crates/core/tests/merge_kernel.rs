//! The merge kernel (loser tree over cached ranks, gallop batch moves) against
//! a reference written here: a naive `BinaryHeap` k-way merge that pops and
//! pushes one tuple at a time. Across every algorithm combination and sort
//! order, a whole sort must emit the reference's tuple sequence. (The same
//! check under mid-merge budget wobbles is a unit test of the executor,
//! `kernel_survives_mid_merge_wobbles`; what the kernel *charges* per tuple
//! is pinned by the simulator's golden file, `tests/simulation_golden.rs`.)

use masort_core::env::CountingEnv;
use masort_core::normalized_prefix;
use masort_core::prelude::*;
use masort_core::verify::collect_run;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reference k-way merge of runs already sorted under `order`: a binary heap
/// of `(composite, run index)` heads, one pop and one push per tuple. Ties go
/// to the lower run index.
fn naive_merge(order: &SortOrder, runs: Vec<Vec<Tuple>>) -> Vec<Tuple> {
    let mut runs: Vec<_> = runs.into_iter().map(|r| r.into_iter().peekable()).collect();
    let mut heap = BinaryHeap::new();
    for (i, run) in runs.iter_mut().enumerate() {
        if let Some(head) = run.peek() {
            heap.push(Reverse((order.composite_of(head), i)));
        }
    }
    let mut out = Vec::new();
    while let Some(Reverse((_, i))) = heap.pop() {
        out.push(runs[i].next().expect("heap entry for an exhausted run"));
        if let Some(head) = runs[i].peek() {
            heap.push(Reverse((order.composite_of(head), i)));
        }
    }
    out
}

/// Reference sort: cut the input into short chunks, sort each by the order's
/// composite, merge them with [`naive_merge`].
fn naive_sort(order: &SortOrder, input: &[Tuple]) -> Vec<Tuple> {
    let runs = input
        .chunks(137)
        .map(|chunk| {
            let mut run = chunk.to_vec();
            run.sort_by_key(|t| order.composite_of(t));
            run
        })
        .collect();
    naive_merge(order, runs)
}

/// `actual` must be the reference's sequence. Both must ascend in the order's
/// composite; tuples that tie there (distinct records with one whole key)
/// may come out in either order, so each tie group is compared as a set.
fn assert_matches_reference(order: &SortOrder, actual: &[Tuple], reference: &[Tuple], what: &str) {
    assert!(order.is_sorted(actual), "{what}: output not sorted");
    assert!(order.is_sorted(reference), "{what}: reference not sorted");
    let canonical = |tuples: &[Tuple]| {
        let mut pairs: Vec<(u128, u64, Vec<u8>)> = tuples
            .iter()
            .map(|t| {
                let bytes = match &t.payload {
                    Payload::Bytes(b) => b.clone(),
                    Payload::Synthetic(_) => Vec::new(),
                };
                (order.composite_of(t), t.key, bytes)
            })
            .collect();
        pairs.sort_unstable();
        pairs
    };
    assert_eq!(
        canonical(actual),
        canonical(reference),
        "{what}: output diverged from the naive merge"
    );
}

fn random_tuples(n: usize, seed: u64) -> Vec<Tuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    // A small key domain mixes plenty of rank ties into every merge, which is
    // where gallop bounds (strict vs inclusive) matter.
    (0..n)
        .map(|_| Tuple::synthetic(rng.gen_range(0..2_000u64), 64))
        .collect()
}

/// Records for `by_normalized_key(10)` whose 8-byte prefixes collide (40 of
/// them) while key bytes 8..10, read from the payload, differ: rank ties
/// among distinct records, where the gallop must stay conservative
/// (`rank_is_exact() == false`). Bytes 10..14 number the records.
fn normalized_tuples(n: usize, seed: u64) -> Vec<Tuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n as u32)
        .map(|i| {
            let mut record = [0u8; 56];
            record[..8].copy_from_slice(&rng.gen_range(0..40u64).to_be_bytes());
            record[8..10].copy_from_slice(&rng.gen_range(0..300u16).to_be_bytes());
            record[10..14].copy_from_slice(&i.to_be_bytes());
            Tuple::new(normalized_prefix(&record), record.to_vec())
        })
        .collect()
}

fn small_cfg(mem: usize, spec: AlgorithmSpec) -> SortConfig {
    SortConfig::default()
        .with_page_size(512)
        .with_tuple_size(64)
        .with_memory_pages(mem)
        .with_algorithm(spec)
}

/// For all 18 algorithm combinations × {ascending, descending, normalized
/// key}: a whole sort through the engine equals the reference sort.
#[test]
fn kernel_output_matches_naive_merge_for_every_algorithm_and_order() {
    for (i, spec) in AlgorithmSpec::all(4).into_iter().enumerate() {
        let seed = 31 + i as u64;
        let orders = [
            ("asc", SortOrder::ascending(), random_tuples(2_000, seed)),
            ("desc", SortOrder::descending(), random_tuples(2_000, seed)),
            (
                "normalized",
                SortOrder::by_normalized_key(10),
                normalized_tuples(2_000, seed),
            ),
        ];
        for (name, order, input) in orders {
            let mut done = SortJob::builder()
                .config(small_cfg(6, spec).with_order(order))
                .tuples(input.clone())
                .env(CountingEnv::new())
                .build()
                .and_then(SortJob::run_to_root)
                .unwrap();
            let output_run = done.finish_into_run().unwrap();
            let sorted = collect_run(&mut done.store, output_run).unwrap();
            let outcome = &done.outcome;
            assert_matches_reference(
                &order,
                &sorted,
                &naive_sort(&order, &input),
                &format!("{spec} ({name})"),
            );
            assert!(outcome.merge.tuples_output >= input.len() as u64);
        }
    }
}

/// A whole sort through a `SortJob`, whose root step is streamed to the
/// consumer instead of written: every algorithm combination (and a normalized
/// key order) must equal the reference sort.
#[test]
fn kernel_output_matches_naive_merge_through_a_streamed_root() {
    let input = random_tuples(4_000, 5);
    let sort = |spec: AlgorithmSpec, order: &SortOrder, input: &[Tuple]| {
        SortJob::builder()
            .config(small_cfg(10, spec))
            .order(*order)
            .tuples(input.to_vec())
            .build()
            .unwrap()
            .run()
            .unwrap()
            .into_sorted_vec()
            .unwrap()
    };
    let ascending = SortOrder::ascending();
    let ascending_reference = naive_sort(&ascending, &input);
    for spec in AlgorithmSpec::all(4) {
        assert_matches_reference(
            &ascending,
            &sort(spec, &ascending, &input),
            &ascending_reference,
            &format!("{spec}"),
        );
    }
    let normalized = SortOrder::by_normalized_key(10);
    let input = normalized_tuples(4_000, 5);
    assert_matches_reference(
        &normalized,
        &sort(AlgorithmSpec::recommended(), &normalized, &input),
        &naive_sort(&normalized, &input),
        "normalized key",
    );
}
