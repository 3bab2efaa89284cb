//! Properties of the batched merge kernel: with gallop batch moves on
//! (`SortConfig::merge_batch`, the default) or off, a sort must produce the
//! **identical tuple sequence**, identical split/merge statistics, and
//! identical CPU charges — across every algorithm combination, sort order,
//! worker count, and under mid-merge budget wobbles that force dynamic
//! splits, suspensions and paging faults.

use masort_core::env::CountingEnv;
use masort_core::merge::exec::{execute_merge, ExecParams};
use masort_core::prelude::*;
use masort_core::tuple::paginate;
use masort_core::verify::collect_run;
use masort_core::{MergeStats, RunMeta, SplitStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_tuples(n: usize, seed: u64) -> Vec<Tuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    // A small key domain mixes plenty of rank ties into every merge, which is
    // where batched vs per-tuple selection could diverge on tie-breaking.
    (0..n)
        .map(|_| Tuple::synthetic(rng.gen_range(0..2_000u64), 64))
        .collect()
}

fn small_cfg(mem: usize, spec: AlgorithmSpec) -> SortConfig {
    SortConfig::default()
        .with_page_size(512)
        .with_tuple_size(64)
        .with_memory_pages(mem)
        .with_algorithm(spec)
}

/// Run one full sort on a [`CountingEnv`] and return the output key
/// sequence, the stats, and the per-op CPU charge totals.
fn sort_counted(
    cfg: SortConfig,
    order: SortOrder,
    tuples: Vec<Tuple>,
    batch: bool,
) -> (Vec<u64>, SplitStats, MergeStats, Vec<(CpuOp, u64)>) {
    let cfg = cfg.with_order(order).with_merge_batch(batch);
    let budget = MemoryBudget::new(cfg.memory_pages);
    let sorter = ExternalSorter::new(cfg.clone());
    let mut input = VecSource::from_tuples(tuples, cfg.tuples_per_page());
    let mut store = MemStore::new();
    let mut env = CountingEnv::new();
    let (output_run, outcome) = sorter
        .sort(&mut input, &mut store, &mut env, &budget)
        .unwrap();
    let keys = collect_run(&mut store, output_run)
        .unwrap()
        .into_iter()
        .map(|t| t.key)
        .collect();
    let mut charges: Vec<(CpuOp, u64)> = env.charges.into_iter().collect();
    charges.sort_by_key(|&(op, _)| format!("{op:?}"));
    (keys, outcome.split, outcome.merge, charges)
}

/// For all 18 algorithm combinations × {ascending, descending, custom key}:
/// batched and per-tuple kernels must be indistinguishable — same tuple
/// sequence, same stats, same CPU charges.
#[test]
fn batched_kernel_is_bit_identical_to_per_tuple_path() {
    for (i, spec) in AlgorithmSpec::all(4).into_iter().enumerate() {
        let orders: Vec<(&str, SortOrder)> = vec![
            ("asc", SortOrder::ascending()),
            ("desc", SortOrder::descending()),
            (
                "custom",
                SortOrder::by_key(|t| (t.key % 97) << 8 | (t.key & 0xFF)),
            ),
        ];
        for (name, order) in orders {
            let input = random_tuples(2_000, 31 + i as u64);
            let cfg = small_cfg(6, spec);
            let (keys_b, split_b, merge_b, charges_b) =
                sort_counted(cfg.clone(), order.clone(), input.clone(), true);
            let (keys_n, split_n, merge_n, charges_n) = sort_counted(cfg, order, input, false);
            assert_eq!(keys_b, keys_n, "{spec} ({name}): output diverged");
            assert_eq!(split_b, split_n, "{spec} ({name}): split stats diverged");
            assert_eq!(merge_b, merge_n, "{spec} ({name}): merge stats diverged");
            assert_eq!(
                charges_b, charges_n,
                "{spec} ({name}): CPU charges diverged"
            );
        }
    }
}

/// An environment that applies a scripted sequence of budget changes, each
/// firing once the clock passes its timestamp (the clock advances on CPU
/// charges), so shrink/grow wobbles land at identical charge totals in both
/// kernels.
struct ScriptedEnv {
    clock: f64,
    script: Vec<(f64, usize)>,
    next: usize,
}

impl SortEnv for ScriptedEnv {
    fn now(&self) -> f64 {
        self.clock
    }
    fn charge_cpu(&mut self, _op: CpuOp, count: u64) {
        self.clock += count as f64 * 5e-5;
    }
    fn charge_extra_read(&mut self, pages: usize) {
        self.clock += pages as f64 * 1e-3;
    }
    fn poll(&mut self, budget: &MemoryBudget) {
        while self.next < self.script.len() && self.script[self.next].0 <= self.clock {
            budget.set_target(self.script[self.next].1, self.clock);
            self.next += 1;
        }
    }
    fn wait_for_pages(&mut self, budget: &MemoryBudget, pages: usize) -> bool {
        while self.next < self.script.len() {
            let (at, target) = self.script[self.next];
            self.clock = self.clock.max(at);
            budget.set_target(target, self.clock);
            self.next += 1;
            if target >= pages {
                return true;
            }
        }
        false
    }
}

fn make_runs(n_runs: usize, avg_pages: usize, seed: u64) -> (MemStore, Vec<RunMeta>) {
    let tpp = 8;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = MemStore::new();
    let mut metas = Vec::new();
    for _ in 0..n_runs {
        let pages = rng.gen_range(1..=avg_pages * 2);
        let mut tuples: Vec<Tuple> = (0..pages * tpp)
            .map(|_| Tuple::synthetic(rng.gen_range(0..500u64), 64))
            .collect();
        tuples.sort_unstable_by_key(|t| t.key);
        let run = store.create_run().unwrap();
        for p in paginate(tuples, tpp) {
            store.append_page(run, p).unwrap();
        }
        metas.push(store.meta(run));
    }
    (store, metas)
}

/// Mid-merge shrink/grow wobblers: the budget collapses (forcing dynamic
/// splits / suspension refetches / paging faults mid-merge) and recovers
/// (forcing growth switches and step combining). The batched kernel must
/// match the per-tuple path tuple for tuple, stat for stat, and end at the
/// identical simulated clock.
#[test]
fn batched_kernel_survives_mid_merge_wobbles_identically() {
    for adaptation in [
        MergeAdaptation::DynamicSplitting,
        MergeAdaptation::Suspension,
        MergeAdaptation::Paging,
    ] {
        let mut results = Vec::new();
        for batch in [true, false] {
            let (mut store, metas) = make_runs(10, 4, 77);
            let cfg = small_cfg(
                12,
                AlgorithmSpec::new(RunFormation::repl(4), MergePolicy::Optimized, adaptation),
            );
            let budget = MemoryBudget::new(12);
            let mut env = ScriptedEnv {
                clock: 0.0,
                script: vec![(0.02, 5), (0.2, 14), (0.5, 4), (0.9, 16)],
                next: 0,
            };
            let params = ExecParams {
                policy: MergePolicy::Optimized,
                adaptation,
                min_pages: 3,
                io_depth: 0,
                batch,
            };
            let (out, stats) =
                execute_merge(&cfg, &budget, &metas, &mut store, &mut env, params).unwrap();
            let keys: Vec<u64> = collect_run(&mut store, out)
                .unwrap()
                .into_iter()
                .map(|t| t.key)
                .collect();
            results.push((keys, stats, env.clock));
        }
        let (batched, naive) = (&results[0], &results[1]);
        assert_eq!(batched.0, naive.0, "{adaptation:?}: output diverged");
        // Clocks agree to floating-point associativity (one charge call of
        // count n vs n calls of count 1 round differently in the last ulps).
        let mut b = batched.1.clone();
        let mut n = naive.1.clone();
        assert!(
            (b.finished_at - n.finished_at).abs() < 1e-9 && (batched.2 - naive.2).abs() < 1e-9,
            "{adaptation:?}: final clocks diverged ({} vs {})",
            batched.2,
            naive.2
        );
        b.finished_at = 0.0;
        n.finished_at = 0.0;
        b.suspended_time = 0.0;
        n.suspended_time = 0.0;
        assert!(
            (batched.1.suspended_time - naive.1.suspended_time).abs() < 1e-9,
            "{adaptation:?}: suspended time diverged"
        );
        assert_eq!(b, n, "{adaptation:?}: merge stats diverged");
        // The wobble must actually have exercised the adaptation machinery.
        match adaptation {
            MergeAdaptation::DynamicSplitting => {
                assert!(batched.1.splits >= 1, "no split — wobble misconfigured")
            }
            MergeAdaptation::Suspension => assert!(batched.1.refetched_pages > 0),
            MergeAdaptation::Paging => assert!(batched.1.extra_paging_reads > 0),
        }
    }
}

/// Partition-parallel split phases (1/2/4 workers) feed the same merge
/// kernel; batched and per-tuple paths must agree for every algorithm
/// combination at every worker count (and for a custom key order).
#[test]
fn batched_kernel_matches_per_tuple_path_across_worker_counts() {
    let input = random_tuples(4_000, 5);
    let sort_keys = |spec: AlgorithmSpec, order: SortOrder, workers: usize, batch: bool| {
        SortJob::builder()
            .config(small_cfg(10, spec))
            .order(order)
            .cpu_threads(workers)
            .merge_batch(batch)
            .tuples(input.clone())
            .build()
            .unwrap()
            .run()
            .unwrap()
            .into_sorted_vec()
            .unwrap()
            .into_iter()
            .map(|t| t.key)
            .collect::<Vec<u64>>()
    };
    for workers in [1usize, 2, 4] {
        for spec in AlgorithmSpec::all(4) {
            let batched = sort_keys(spec, SortOrder::ascending(), workers, true);
            let naive = sort_keys(spec, SortOrder::ascending(), workers, false);
            assert_eq!(
                batched, naive,
                "{spec}: batched ≠ per-tuple at {workers} worker(s)"
            );
            let as_tuples: Vec<Tuple> = batched.iter().map(|&k| Tuple::synthetic(k, 64)).collect();
            let input_keys: Vec<Tuple> =
                input.iter().map(|t| Tuple::synthetic(t.key, 64)).collect();
            masort_core::verify::assert_sorted_permutation(&input_keys, &as_tuples);
        }
        // Custom-key order through the parallel path, too.
        let order = SortOrder::by_key(|t| t.key % 613);
        let batched = sort_keys(AlgorithmSpec::recommended(), order.clone(), workers, true);
        let naive = sort_keys(AlgorithmSpec::recommended(), order, workers, false);
        assert_eq!(
            batched, naive,
            "custom key: batched ≠ per-tuple at {workers} worker(s)"
        );
    }
}

/// The I/O pipeline (block reads + read-ahead) composes with the batched
/// kernel: staged pages promote into the rank cache and gallop batches keep
/// the output identical to the synchronous per-tuple reference.
#[test]
fn batched_kernel_composes_with_io_pipeline() {
    let input = random_tuples(4_000, 91);
    let reference: Vec<u64> = SortJob::builder()
        .config(small_cfg(24, AlgorithmSpec::recommended()))
        .merge_batch(false)
        .tuples(input.clone())
        .build()
        .unwrap()
        .run()
        .unwrap()
        .into_sorted_vec()
        .unwrap()
        .into_iter()
        .map(|t| t.key)
        .collect();
    let piped: Vec<u64> = SortJob::builder()
        .config(small_cfg(24, AlgorithmSpec::recommended()))
        .merge_batch(true)
        .io_pipeline(4)
        .io_threads(2)
        .store(FileStore::in_temp_dir().unwrap())
        .tuples(input)
        .build()
        .unwrap()
        .run()
        .unwrap()
        .into_sorted_vec()
        .unwrap()
        .into_iter()
        .map(|t| t.key)
        .collect();
    assert_eq!(reference, piped);
}
