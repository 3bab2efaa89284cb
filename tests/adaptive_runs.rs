//! Natural-run formation (`natN`), end to end: every replacement-selection
//! algorithm combination produces the *bit-identical* sorted output under
//! `natN` as under its classic `replN` counterpart — across ascending,
//! descending and normalized-key orders — while descending (reversed) runs
//! round-trip through the file store.

use memory_adaptive_sort::core::GenOrder;
use memory_adaptive_sort::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_tuples(n: usize, seed: u64) -> Vec<Tuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Tuple::synthetic(rng.gen::<u64>() >> 8, 64))
        .collect()
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

fn cfg(spec: AlgorithmSpec) -> SortConfig {
    SortConfig::default()
        .with_page_size(512)
        .with_tuple_size(64)
        .with_memory_pages(5)
        .with_algorithm(spec)
}

/// `replN,p,a` → `natN,p,a`; formations without a natural-run variant → `None`.
fn natural_counterpart(spec: AlgorithmSpec) -> Option<AlgorithmSpec> {
    match spec.formation {
        RunFormation::ReplacementSelect { block_pages } => Some(AlgorithmSpec {
            formation: RunFormation::natural(block_pages),
            ..spec
        }),
        _ => None,
    }
}

fn sort_with(base: SortConfig, order: &SortOrder, input: &[Tuple]) -> Vec<Tuple> {
    SortJob::builder()
        .config(base.with_order(*order))
        .tuples(input.to_vec())
        .build()
        .unwrap()
        .run()
        .unwrap()
        .into_sorted_vec()
        .unwrap()
}

/// Natural-run formation changes run boundaries, run directions and fan-in —
/// never the output. Exercised over the 12 replacement-selection combinations
/// (`repl1`/`repl6` x 2 policies x 3 adaptations) x 3 sort orders.
#[test]
fn natural_output_is_bit_identical_across_the_matrix() {
    // A mix of presorted stretches and noise so natural formation actually
    // detects natural runs instead of degenerating to the classic path.
    let mut input = random_tuples(1_500, 42);
    input[300..700].sort_unstable_by_key(|t| t.key);
    input[900..1200].sort_unstable_by_key(|t| std::cmp::Reverse(t.key));

    // Whole keys are unique under every order (the normalized input's twins
    // tie on rank only), so bit-identity is well-defined.
    let orders = [
        ("asc", SortOrder::ascending(), input.clone()),
        ("desc", SortOrder::descending(), input.clone()),
        (
            "normalized",
            SortOrder::by_normalized_key(10),
            with_twins(&input),
        ),
    ];
    let pairs: Vec<(AlgorithmSpec, AlgorithmSpec)> = AlgorithmSpec::all(6)
        .into_iter()
        .filter_map(|classic| Some((classic, natural_counterpart(classic)?)))
        .collect();
    assert_eq!(pairs.len(), 12);
    for (classic_spec, natural_spec) in pairs {
        for (name, order, input) in &orders {
            let classic = sort_with(cfg(classic_spec), order, input);
            let natural = sort_with(cfg(natural_spec), order, input);
            assert_eq!(
                classic, natural,
                "{natural_spec} diverged from {classic_spec}: {name}"
            );
        }
    }
}

/// A fully presorted input collapses to a single natural run; a fully
/// reversed one to a single *descending* run — which the stream reads
/// back-to-front straight from the file store: the sorted stream is intact
/// and nothing is copied into a second, forward run.
#[test]
fn reversed_input_round_trips_through_the_file_store() {
    let base = cfg(AlgorithmSpec::natural());
    let tpp = base.tuples_per_page();
    let input = GenSource::new(120, tpp, 64, 9).with_order(GenOrder::Reversed);
    let completion = SortJob::builder()
        .config(base)
        .input(input)
        .store(FileStore::in_temp_dir().unwrap())
        .build()
        .unwrap()
        .run()
        .unwrap();
    let split = completion.outcome.split.clone();
    assert_eq!(split.run_count(), 1, "reversed input should be one run");
    assert!(split.natural_tuples > 0, "order detection never engaged");
    let mut stream = completion.into_stream();
    let sorted: Vec<Tuple> = stream.by_ref().map(Result::unwrap).collect();
    assert_eq!(sorted.len(), 120 * tpp);
    assert!(sorted.windows(2).all(|w| w[0].key <= w[1].key));
    assert_eq!(stream.finish().merge.pages_written, 0);
}

/// Natural-run statistics surface through the job outcome — and stay zero
/// under `repl6`, so classic runs are observably classic.
#[test]
fn natural_run_statistics_reach_the_outcome() {
    let mut input = random_tuples(3_000, 11);
    input.sort_unstable_by_key(|t| t.key);
    for spec in [AlgorithmSpec::natural(), AlgorithmSpec::recommended()] {
        let adaptive = spec == AlgorithmSpec::natural();
        let completion = SortJob::builder()
            .config(cfg(spec))
            .tuples(input.clone())
            .build()
            .unwrap()
            .run()
            .unwrap();
        let split = &completion.outcome.split;
        if adaptive {
            assert!(split.natural_runs >= 1, "no natural runs");
            assert!(split.natural_tuples > input.len() / 2);
            assert!(split.max_run_tuples() >= split.min_run_tuples());
            assert!(split.avg_run_tuples() > 0.0);
        } else {
            assert_eq!(split.natural_runs, 0);
            assert_eq!(split.natural_tuples, 0);
        }
        assert_eq!(split.total_tuples(), input.len());
    }
}
