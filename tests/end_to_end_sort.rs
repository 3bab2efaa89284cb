//! Workspace-level integration tests: every algorithm combination sorts
//! correctly end-to-end, including while its memory budget fluctuates, in
//! ascending and descending order, materialised and streamed, against both
//! the in-memory and the file-backed store.

use memory_adaptive_sort::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_tuples(n: usize, seed: u64) -> Vec<Tuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Tuple::synthetic(rng.gen::<u64>() >> 8, 64))
        .collect()
}

fn small_cfg(mem: usize, spec: AlgorithmSpec) -> SortConfig {
    SortConfig::default()
        .with_page_size(512)
        .with_tuple_size(64)
        .with_memory_pages(mem)
        .with_algorithm(spec)
}

#[test]
fn all_18_algorithms_sort_correctly() {
    let input = random_tuples(4_000, 1);
    for spec in AlgorithmSpec::all(6) {
        let sorted = SortJob::builder()
            .config(small_cfg(7, spec))
            .tuples(input.clone())
            .build()
            .unwrap()
            .run()
            .unwrap()
            .into_sorted_vec()
            .unwrap();
        masort_core::verify::assert_sorted_permutation(&input, &sorted);
    }
}

#[test]
fn concurrent_budget_fluctuation_preserves_correctness() {
    let input = random_tuples(30_000, 2);
    for alg in ["repl6,opt,split", "quick,opt,page", "repl1,naive,susp"] {
        let spec: AlgorithmSpec = alg.parse().unwrap();
        let cfg = small_cfg(32, spec);
        let budget = MemoryBudget::new(cfg.memory_pages);
        let b = budget.clone();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = stop.clone();
        let fluctuator = std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
                i += 1;
                let target = match i % 4 {
                    0 => 3,
                    1 => 40,
                    2 => 10,
                    _ => 24,
                };
                b.set_target(target, i as f64);
                std::thread::sleep(std::time::Duration::from_micros(300));
            }
        });

        let sorted = SortJob::builder()
            .config(cfg)
            .tuples(input.clone())
            .budget(budget)
            .build()
            .unwrap()
            .run()
            .unwrap()
            .into_sorted_vec()
            .unwrap();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        fluctuator.join().unwrap();
        masort_core::verify::assert_sorted_permutation(&input, &sorted);
    }
}

#[test]
fn file_store_backed_sort_survives_fluctuation() {
    let input = random_tuples(8_000, 3);
    let cfg = small_cfg(10, AlgorithmSpec::recommended());
    let budget = MemoryBudget::new(cfg.memory_pages);
    let b = budget.clone();
    let handle = std::thread::spawn(move || {
        for i in 0..200u64 {
            b.set_target(if i % 2 == 0 { 4 } else { 16 }, i as f64);
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
    });
    let sorted = SortJob::builder()
        .config(cfg)
        .tuples(input.clone())
        .store(FileStore::in_temp_dir().unwrap())
        .budget(budget)
        .build()
        .unwrap()
        .run()
        .unwrap()
        .into_sorted_vec()
        .unwrap();
    handle.join().unwrap();
    masort_core::verify::assert_sorted_permutation(&input, &sorted);
}

#[test]
fn tiny_memory_floor_still_sorts() {
    // Even a budget of zero pages (the DBMS took everything) must not wedge
    // the sort: it keeps a minimal working set and completes.
    let input = random_tuples(2_000, 4);
    for alg in ["repl6,opt,split", "quick,opt,split"] {
        let mut done = SortJob::builder()
            .config(small_cfg(1, alg.parse().unwrap()))
            .tuples(input.clone())
            .budget(MemoryBudget::new(0))
            .build()
            .and_then(SortJob::run_to_root)
            .unwrap();
        let output_run = done.finish_into_run().unwrap();
        let sorted = masort_core::verify::collect_run(&mut done.store, output_run).unwrap();
        masort_core::verify::assert_sorted_permutation(&input, &sorted);
    }
}

#[test]
fn outcome_statistics_are_consistent() {
    let input = random_tuples(6_000, 5);
    let cfg = small_cfg(6, AlgorithmSpec::recommended());
    let completion = SortJob::builder()
        .config(cfg)
        .tuples(input.clone())
        .build()
        .unwrap()
        .run()
        .unwrap();
    let mut stream = completion.into_stream();
    let sorted: Vec<Tuple> = stream.by_ref().map(Result::unwrap).collect();
    let outcome = stream.finish();
    assert_eq!(sorted.len(), input.len());
    assert_eq!(outcome.split.total_tuples(), input.len());
    assert!(outcome.merge.steps_executed >= 1);
    assert!(outcome.split.pages_written >= outcome.runs_formed());
    assert!(outcome.response_time >= outcome.split.duration());
}

// ---------------------------------------------------------------------------
// Descending-order sorts, end to end, with both stores.
// ---------------------------------------------------------------------------

#[test]
fn descending_sort_end_to_end_mem_store() {
    let input = random_tuples(5_000, 6);
    let order = SortOrder::descending();
    for spec in [
        AlgorithmSpec::recommended(),
        "quick,naive,susp".parse().unwrap(),
        "repl1,opt,page".parse().unwrap(),
    ] {
        let sorted = SortJob::builder()
            .config(small_cfg(6, spec))
            .descending()
            .tuples(input.clone())
            .build()
            .unwrap()
            .run()
            .unwrap()
            .into_sorted_vec()
            .unwrap();
        masort_core::verify::assert_sorted_permutation_by(&input, &sorted, &order);
        assert!(sorted.first().unwrap().key >= sorted.last().unwrap().key);
    }
}

#[test]
fn descending_sort_end_to_end_file_store() {
    let input = random_tuples(4_000, 7);
    let order = SortOrder::descending();
    let sorted = SortJob::builder()
        .config(small_cfg(5, AlgorithmSpec::recommended()))
        .descending()
        .tuples(input.clone())
        .store(FileStore::in_temp_dir().unwrap())
        .build()
        .unwrap()
        .run()
        .unwrap()
        .into_sorted_vec()
        .unwrap();
    masort_core::verify::assert_sorted_permutation_by(&input, &sorted, &order);
}

// ---------------------------------------------------------------------------
// Streamed (non-materialised) sorts, end to end, with both stores.
// ---------------------------------------------------------------------------

#[test]
fn streamed_sort_end_to_end_mem_store() {
    let input = random_tuples(6_000, 8);
    let completion = SortJob::builder()
        .config(small_cfg(6, AlgorithmSpec::recommended()))
        .tuples(input.clone())
        .build()
        .unwrap()
        .run()
        .unwrap();
    let mut previous = 0u64;
    let mut count = 0usize;
    for tuple in completion.into_stream() {
        let tuple = tuple.unwrap();
        assert!(tuple.key >= previous, "stream out of order");
        previous = tuple.key;
        count += 1;
    }
    assert_eq!(count, input.len());
}

#[test]
fn streamed_sort_end_to_end_file_store() {
    let input = random_tuples(5_000, 9);
    let completion = SortJob::builder()
        .config(small_cfg(5, AlgorithmSpec::recommended()))
        .tuples(input.clone())
        .store(FileStore::in_temp_dir().unwrap())
        .build()
        .unwrap()
        .run()
        .unwrap();
    let mut previous = 0u64;
    let mut count = 0usize;
    let mut stream = completion.into_stream();
    for tuple in stream.by_ref() {
        let tuple = tuple.unwrap();
        assert!(tuple.key >= previous, "stream out of order");
        previous = tuple.key;
        count += 1;
    }
    assert_eq!(count, input.len());
    // Five pages cannot merge every run at once: preliminary steps moved
    // some tuples before the root moved them all.
    let outcome = stream.finish();
    assert!(outcome.merge.steps_executed >= 2);
    assert!(outcome.merge.tuples_output as usize > input.len());
}

/// A user-defined `InputSource` goes to `.input(..)` as it is, bare or boxed.
#[test]
fn a_user_defined_input_source_has_a_sort_job_path() {
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
    fn sorted_keys<I: InputSource>(input: I) -> Vec<u64> {
        let job = SortJob::builder()
            .config(small_cfg(4, AlgorithmSpec::recommended()))
            .input(input);
        let sorted = job.build().unwrap().run().unwrap().into_sorted_vec();
        sorted.unwrap().iter().map(|t| t.key).collect()
    }
    let expected: Vec<u64> = (0..100).collect();
    assert_eq!(sorted_keys(Counting(100)), expected);
    let boxed: Box<dyn InputSource + Send> = Box::new(Counting(100));
    assert_eq!(sorted_keys(boxed), expected);
}

// ---------------------------------------------------------------------------
// Error paths surface as SortError, not panics.
// ---------------------------------------------------------------------------

#[test]
fn invalid_configs_fail_at_build() {
    let mut zero_mem = small_cfg(4, AlgorithmSpec::recommended());
    zero_mem.memory_pages = 0;
    assert!(matches!(
        SortJob::builder().config(zero_mem).build(),
        Err(SortError::InvalidConfig(_))
    ));

    let mut big_tuple = small_cfg(4, AlgorithmSpec::recommended());
    big_tuple.tuple_size = big_tuple.page_size * 2;
    assert!(matches!(
        SortJob::builder().config(big_tuple).build(),
        Err(SortError::InvalidConfig(_))
    ));
}

/// A sort aimed at a directory that is gone reports an I/O error: its
/// store's file cannot be made there. Once made, the file has no name, so a
/// directory removed under a sort's store no longer fails the sort.
#[test]
fn sort_into_removed_directory_reports_io_error() {
    let dir = std::env::temp_dir().join(format!("masort-e2e-gone-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = random_tuples(2_000, 10);
    let sort = |store: FileStore| -> SortResult<Vec<Tuple>> {
        SortJob::builder()
            .config(small_cfg(4, AlgorithmSpec::recommended()))
            .tuples(input.clone())
            .store(store)
            .build()?
            .run()?
            .into_sorted_vec()
    };
    let store = FileStore::new(&dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let sorted = sort(store).unwrap();
    masort_core::verify::assert_sorted_permutation(&input, &sorted);
    let err = FileStore::new(&dir)
        .map_err(SortError::from)
        .and_then(sort)
        .unwrap_err();
    assert!(matches!(err, SortError::Io(_)), "got {err:?}");
}

/// How a record is stored must not matter to what comes out: every payload
/// kind the record format distinguishes — synthetic (header only), inline,
/// empty, longer than the record's inline area (kept outside the record), and
/// all of them on one page — sorted under every kind of order, through the
/// file store's codec, equals what `sort_unstable` makes of the same tuples.
/// Keys are distinct (under the normalized-key order: distinct up to the tie
/// bytes), so the oracle's order is the only one.
#[test]
fn output_equals_the_oracle_for_every_payload_kind_and_order() {
    // 64-byte tuples: a record inlines up to 56 payload bytes.
    let payload_of = |kind: &str, i: usize, key: u64| -> Payload {
        let bytes = |len: usize| {
            let mut b = key.to_be_bytes().to_vec();
            b.resize(len, (key % 251) as u8);
            Payload::Bytes(b)
        };
        match (kind, i % 4) {
            ("synthetic", _) | ("mixed", 0) => Payload::Synthetic(56),
            ("inline", _) | ("mixed", 1) => bytes(40),
            ("empty", _) | ("mixed", 2) => Payload::Bytes(Vec::new()),
            ("overflow", _) | ("mixed", 3) => bytes(200),
            other => unreachable!("{other:?}"),
        }
    };
    let orders: [(&str, SortOrder); 3] = [
        ("asc", SortOrder::ascending()),
        ("desc", SortOrder::descending()),
        ("normalized", SortOrder::by_normalized_key(10)),
    ];
    for kind in ["synthetic", "inline", "empty", "overflow", "mixed"] {
        for (order_name, order) in &orders {
            let mut rng = StdRng::seed_from_u64(17);
            let mut input: Vec<Tuple> = (0..1_500)
                .map(|i| {
                    // Distinct keys, in random order.
                    let key = (rng.gen::<u64>() >> 16 << 16) | i as u64;
                    Tuple {
                        key,
                        payload: payload_of(kind, i, key),
                    }
                })
                .collect();
            if *order_name == "normalized" {
                // Twins that only the tie bytes (payload[8..10]) tell apart.
                for i in 0..200 {
                    if let Payload::Bytes(b) = &input[i].payload {
                        if b.len() >= 10 {
                            let mut twin = input[i].clone();
                            let Payload::Bytes(b) = &mut twin.payload else {
                                unreachable!()
                            };
                            b[9] = b[9].wrapping_add(1);
                            input.push(twin);
                        }
                    }
                }
            }
            let mut oracle = input.clone();
            oracle.sort_unstable_by(|a, b| order.cmp(a, b));

            for alg in ["nat6,opt,split", "repl1,naive,page", "quick,opt,susp"] {
                let cfg = small_cfg(6, alg.parse().unwrap()).with_order(*order);
                let completion = SortJob::builder()
                    .config(cfg)
                    .tuples(input.clone())
                    .store(FileStore::in_temp_dir().unwrap())
                    .build()
                    .unwrap()
                    .run()
                    .unwrap();
                assert!(completion.outcome.runs_formed() > 4);
                let sorted = completion.into_sorted_vec().unwrap();
                assert!(sorted == oracle, "{kind} {order_name} {alg}");
            }
        }
    }
}
