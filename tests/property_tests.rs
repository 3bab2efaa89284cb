//! Property-style tests over the core invariants, driven by a seeded
//! generator (the offline environment has no `proptest`, so cases are
//! enumerated deterministically — every failure reproduces from its seed):
//!
//! * every algorithm combination produces a sorted permutation of its input,
//!   for random inputs and scripted budget fluctuations, ascending and
//!   descending;
//! * a streamed sort (`SortedStream` executing the root merge step) yields
//!   exactly the sequence a materialising sort writes to its output run, for
//!   random inputs across all algorithm combinations, including descending
//!   order;
//! * replacement-selection runs are individually sorted and cover the input;
//! * merge planning respects its fan-in bounds and both policies always use
//!   the same number of steps;
//! * the sort-merge join finds exactly the matches a nested-loop join finds,
//!   also under a normalized key whose bytes past the eighth tell records
//!   apart.

use masort_core::merge::plan::{preliminary_fan_in, StaticPlanSummary};
use masort_core::{normalized_prefix, verify};
use memory_adaptive_sort::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;

/// A scripted environment that changes the budget after every N CPU charges,
/// cycling through a list of targets — a deterministic stand-in for a DBMS
/// taking and returning memory at arbitrary points.
struct ScriptedBudgetEnv {
    clock: f64,
    charges: u64,
    period: u64,
    targets: Vec<usize>,
    next: usize,
}

impl ScriptedBudgetEnv {
    fn new(period: u64, targets: Vec<usize>) -> Self {
        ScriptedBudgetEnv {
            clock: 0.0,
            charges: 0,
            period: period.max(1),
            targets,
            next: 0,
        }
    }
}

impl masort_core::SortEnv for ScriptedBudgetEnv {
    fn now(&self) -> f64 {
        self.clock
    }
    fn charge_cpu(&mut self, _op: masort_core::CpuOp, count: u64) {
        self.charges += count;
        self.clock += count as f64 * 1e-6;
    }
    fn poll(&mut self, budget: &MemoryBudget) {
        if !self.targets.is_empty() && self.charges / self.period >= self.next as u64 {
            let t = self.targets[self.next % self.targets.len()];
            budget.set_target(t, self.clock);
            self.next += 1;
        }
    }
    fn wait_for_pages(&mut self, budget: &MemoryBudget, pages: usize) -> bool {
        // Force the budget up (the "DBMS" returns memory) so suspension can
        // always resume.
        budget.set_target(pages, self.clock);
        true
    }
}

fn arbitrary_algorithm(rng: &mut StdRng) -> AlgorithmSpec {
    let formation = match rng.gen_range(0usize..4) {
        0 => RunFormation::Quicksort,
        1 => RunFormation::repl(1),
        2 => RunFormation::repl(4),
        _ => RunFormation::natural(4),
    };
    let policy = if rng.gen_range(0usize..2) == 0 {
        MergePolicy::Naive
    } else {
        MergePolicy::Optimized
    };
    let adaptation = match rng.gen_range(0usize..3) {
        0 => MergeAdaptation::Suspension,
        1 => MergeAdaptation::Paging,
        _ => MergeAdaptation::DynamicSplitting,
    };
    AlgorithmSpec::new(formation, policy, adaptation)
}

fn arbitrary_tuples(rng: &mut StdRng, max: usize, key_bits: u32) -> Vec<Tuple> {
    let n = rng.gen_range(0usize..max.max(1));
    let mask = if key_bits >= 64 {
        u64::MAX
    } else {
        (1u64 << key_bits) - 1
    };
    (0..n)
        .map(|_| Tuple::synthetic(rng.gen::<u64>() & mask, 64))
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
fn algorithm_spec_display_fromstr_round_trips_for_all_combinations() {
    // Satellite property: `AlgorithmSpec` survives a Display -> FromStr round
    // trip for every `X1,X2,X3` combination — all three in-memory methods
    // (with randomized `replN` block sizes), both merge policies, all three
    // adaptation strategies — plus the natural-run (`natN`) and
    // adaptive-replacement (`adapt`) extensions.
    let mut cases = 0usize;
    let mut crosses = Vec::new();
    for policy in [MergePolicy::Naive, MergePolicy::Optimized] {
        for adaptation in [
            MergeAdaptation::Suspension,
            MergeAdaptation::Paging,
            MergeAdaptation::DynamicSplitting,
        ] {
            crosses.push((policy, adaptation));
        }
    }
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0xA160 + seed);
        let block = rng.gen_range(1usize..512);
        let mut specs = AlgorithmSpec::all(block);
        specs.extend(
            crosses
                .iter()
                .map(|&(p, a)| AlgorithmSpec::new(RunFormation::natural(block), p, a)),
        );
        for spec in specs {
            let text = spec.to_string();
            let parsed: AlgorithmSpec = text
                .parse()
                .unwrap_or_else(|e| panic!("`{text}` failed to parse: {e}"));
            assert_eq!(parsed, spec, "round trip changed `{text}`");
            assert_eq!(parsed.to_string(), text, "second Display diverged");
            cases += 1;
        }
    }
    // `adapt` (default bounds) round-trips with every policy x adaptation.
    for &(policy, adaptation) in &crosses {
        let spec = AlgorithmSpec::new(RunFormation::adaptive(), policy, adaptation);
        let parsed: AlgorithmSpec = spec.to_string().parse().unwrap();
        assert_eq!(parsed, spec);
        cases += 1;
    }
    assert_eq!(cases, 32 * (18 + 6) + 6);

    // Fuzz the parser with mangled variants: it must reject or round-trip,
    // never panic or accept something that re-displays differently.
    let mut rng = StdRng::seed_from_u64(0xF022);
    let fragments = [
        "quick",
        "repl",
        "repl1",
        "repl0",
        "nat",
        "nat6",
        "nat0",
        "natX",
        "adapt",
        "naive",
        "opt",
        "susp",
        "page",
        "split",
        "",
        " ",
        "quack",
        "replX",
        "9999999999999999999999",
    ];
    for _ in 0..500 {
        let n = rng.gen_range(0usize..5);
        let s: Vec<&str> = (0..n)
            .map(|_| fragments[rng.gen_range(0usize..fragments.len())])
            .collect();
        let text = s.join(",");
        if let Ok(spec) = text.parse::<AlgorithmSpec>() {
            let canonical = spec.to_string();
            let reparsed: AlgorithmSpec = canonical.parse().unwrap();
            assert_eq!(reparsed, spec, "`{text}` -> `{canonical}` not stable");
        }
    }
}

#[test]
fn sort_is_a_sorted_permutation_under_fluctuation() {
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x50F7 + case);
        let input = arbitrary_tuples(&mut rng, 2_000, 32);
        let spec = arbitrary_algorithm(&mut rng);
        let mem = rng.gen_range(1usize..12);
        let period = rng.gen_range(50u64..2_000);
        let targets: Vec<usize> = (0..rng.gen_range(1usize..6))
            .map(|_| rng.gen_range(0usize..16))
            .collect();
        let order = if rng.gen_range(0usize..2) == 0 {
            SortOrder::ascending()
        } else {
            SortOrder::descending()
        };

        let mut done = SortJob::builder()
            .config(small_cfg(mem, spec).with_order(order))
            .tuples(input.clone())
            .env(ScriptedBudgetEnv::new(period, targets))
            .budget(MemoryBudget::new(mem))
            .build()
            .and_then(SortJob::run_to_root)
            .unwrap_or_else(|e| panic!("case {case} ({spec}) failed: {e}"));
        let output_run = done
            .finish_into_run()
            .unwrap_or_else(|e| panic!("case {case} ({spec}) failed: {e}"));
        let sorted = verify::collect_run(&mut done.store, output_run).unwrap();
        assert!(
            verify::is_sorted_by(&sorted, &order),
            "case {case} ({spec}, {order:?}) produced unsorted output"
        );
        assert!(
            verify::is_key_permutation(&input, &sorted),
            "case {case} ({spec}) lost or duplicated tuples"
        );
    }
}

#[test]
fn sorted_stream_matches_collect_run_for_all_algorithms() {
    // The satellite property: for random inputs, streaming the sort off its
    // root merge step yields exactly the sequence a materialising sort of the
    // same input writes to its output run, for every algorithm combination —
    // ascending *and* descending.
    let mut case = 0u64;
    for spec in AlgorithmSpec::all(4) {
        for order in [SortOrder::ascending(), SortOrder::descending()] {
            case += 1;
            let mut rng = StdRng::seed_from_u64(0x57AE + case);
            let input = arbitrary_tuples(&mut rng, 3_000, 64);
            let mem = rng.gen_range(3usize..10);
            let cfg = small_cfg(mem, spec).with_order(order);

            let mut done = SortJob::builder()
                .config(cfg.clone())
                .tuples(input.clone())
                .build()
                .and_then(SortJob::run_to_root)
                .unwrap();
            let output_run = done.finish_into_run().unwrap();
            let collected = verify::collect_run(&mut done.store, output_run).unwrap();

            let streamed: Vec<Tuple> = SortJob::builder()
                .config(cfg)
                .tuples(input.clone())
                .build()
                .unwrap()
                .run()
                .unwrap()
                .into_stream()
                .collect::<Result<_, _>>()
                .unwrap();
            assert_eq!(
                streamed.len(),
                collected.len(),
                "{spec} {order:?}: stream length diverged"
            );
            assert_eq!(
                streamed, collected,
                "{spec} {order:?}: stream sequence diverged from collect_run"
            );
            assert!(verify::is_sorted_by(&streamed, &order));
            assert!(verify::is_key_permutation(&input, &streamed));
        }
    }
    assert_eq!(case, 36, "18 algorithm combinations x 2 directions");
}

#[test]
fn split_phase_runs_are_sorted_and_cover_input() {
    for case in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(0x5917 + case);
        let input = arbitrary_tuples(&mut rng, 3_000, 64);
        let block = rng.gen_range(1usize..8);
        let mem = rng.gen_range(2usize..10);
        let cfg = small_cfg(
            mem,
            AlgorithmSpec::new(
                RunFormation::repl(block),
                MergePolicy::Optimized,
                MergeAdaptation::DynamicSplitting,
            ),
        );
        let budget = MemoryBudget::new(mem);
        let mut env = masort_core::env::CountingEnv::new();
        let mut source = VecSource::from_tuples(input.clone(), cfg.tuples_per_page());
        let mut store = MemStore::new();
        let stats =
            masort_core::run_formation::form_runs(&cfg, &budget, &mut source, &mut store, &mut env)
                .unwrap();
        let mut all = Vec::new();
        for run in &stats.runs {
            let tuples = verify::collect_run(&mut store, run.id).unwrap();
            assert!(
                verify::is_sorted(&tuples),
                "case {case}: run {} not sorted",
                run.id
            );
            assert_eq!(tuples.len(), run.tuples);
            all.extend(tuples);
        }
        assert!(verify::is_key_permutation(&input, &all), "case {case}");
    }
}

#[test]
fn merge_planning_invariants() {
    for case in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0x914A + case);
        let n = rng.gen_range(0usize..400);
        let m = rng.gen_range(3usize..64);
        let runs: Vec<usize> = (0..n).map(|i| 1 + (i * 31 % 17)).collect();
        let naive = StaticPlanSummary::plan(&runs, m, MergePolicy::Naive).unwrap();
        let opt = StaticPlanSummary::plan(&runs, m, MergePolicy::Optimized).unwrap();
        assert_eq!(naive.step_count(), opt.step_count(), "n={n} m={m}");
        assert!(
            opt.preliminary_pages() <= naive.preliminary_pages(),
            "n={n} m={m}"
        );
        for policy in [MergePolicy::Naive, MergePolicy::Optimized] {
            if let Some(f) = preliminary_fan_in(n, m, policy).unwrap() {
                assert!(f >= 2, "n={n} m={m}");
                assert!(f < m, "n={n} m={m}");
                assert!(f <= n, "n={n} m={m}");
            } else {
                assert!(n <= (m - 1).max(2), "n={n} m={m}");
            }
        }
    }
}

#[test]
fn join_matches_nested_loop() {
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0x901A + case);
        let left: Vec<Tuple> = (0..rng.gen_range(0usize..800))
            .map(|_| Tuple::synthetic(rng.gen_range(0u64..200), 64))
            .collect();
        let right: Vec<Tuple> = (0..rng.gen_range(0usize..800))
            .map(|_| Tuple::synthetic(rng.gen_range(0u64..200), 64))
            .collect();
        let mem = rng.gen_range(3usize..10);
        let expected = verify::nested_loop_match_count(&left, &right);
        let cfg = small_cfg(mem, AlgorithmSpec::recommended());
        let outcome = SortMergeJoin::new(cfg)
            .join_vecs_count(left, right)
            .unwrap();
        assert_eq!(outcome.matches, expected, "case {case}");
    }
}

#[test]
fn descending_join_matches_nested_loop() {
    // The join machinery is order-agnostic: matching on equal whole keys
    // under a descending order finds exactly the same pairs.
    for case in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0xDE5C + case);
        let left: Vec<Tuple> = (0..rng.gen_range(1usize..500))
            .map(|_| Tuple::synthetic(rng.gen_range(0u64..100), 64))
            .collect();
        let right: Vec<Tuple> = (0..rng.gen_range(1usize..500))
            .map(|_| Tuple::synthetic(rng.gen_range(0u64..100), 64))
            .collect();
        let expected = verify::nested_loop_match_count(&left, &right);
        let cfg = small_cfg(5, AlgorithmSpec::recommended()).with_order(SortOrder::descending());
        let outcome = SortMergeJoin::new(cfg)
            .join_vecs_count(left, right)
            .unwrap();
        assert_eq!(outcome.matches, expected, "case {case}");
    }
}

#[test]
fn normalized_key_join_matches_on_the_whole_key() {
    // Records whose first eight key bytes collide often and whose bytes
    // 8..10 (read from the payload) tell twins apart: a join matching on the
    // 8-byte rank alone would pair records whose whole keys differ.
    let record = |rng: &mut StdRng| {
        let mut key = [0u8; 10];
        key[..8].copy_from_slice(&rng.gen_range(0u64..30).to_be_bytes());
        key[8..].copy_from_slice(&rng.gen_range(0u16..4).to_be_bytes());
        let mut payload = key.to_vec();
        payload.resize(56, 0xAB);
        Tuple::new(normalized_prefix(&key), payload)
    };
    let key_bytes = |t: &Tuple| match &t.payload {
        Payload::Bytes(b) => b[..10].to_vec(),
        Payload::Synthetic(_) => unreachable!("every record has bytes"),
    };
    let normalized = SortOrder::by_normalized_key(10);
    for order in [normalized, normalized.reversed()] {
        for case in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(0x10B7 + case);
            let left: Vec<Tuple> = (0..rng.gen_range(1usize..400))
                .map(|_| record(&mut rng))
                .collect();
            let right: Vec<Tuple> = (0..rng.gen_range(1usize..400))
                .map(|_| record(&mut rng))
                .collect();
            let count = |equal: &dyn Fn(&Tuple, &Tuple) -> bool| {
                let pairs = left.iter().flat_map(|l| right.iter().map(move |r| (l, r)));
                pairs.filter(|(l, r)| equal(l, r)).count()
            };
            let expected = count(&|l, r| order.cmp(l, r) == Ordering::Equal);
            assert!(expected < count(&|l, r| l.key == r.key), "case {case}");
            let cfg = small_cfg(5, AlgorithmSpec::recommended()).with_order(order);
            let pairs = SortMergeJoin::new(cfg).join_vecs(left, right).unwrap();
            assert_eq!(pairs.len(), expected, "{order:?} case {case}");
            assert!(
                pairs.iter().all(|(l, r)| key_bytes(l) == key_bytes(r)),
                "{order:?} case {case}"
            );
        }
    }
}
