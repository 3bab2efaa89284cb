//! Unit tests of the merge executor.

use super::*;
use crate::config::{MergeAdaptation, MergePolicy, RunFormation};
use crate::env::{CountingEnv, CpuOp};
use crate::order::SortOrder;
use crate::store::MemStore;
use crate::tuple::{paginate, Payload, Tuple};
use crate::verify::{assert_sorted_permutation, collect_run};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Merge `runs` into a single sorted output run, adapting to memory
/// fluctuations according to `params`: `begin_streaming_merge` followed by
/// the root step run into a fresh output run (a lone run is copied too).
fn execute_merge<S: RunStore, E: SortEnv>(
    cfg: &SortConfig,
    budget: &MemoryBudget,
    runs: &[RunMeta],
    store: &mut S,
    env: &mut E,
    params: ExecParams,
) -> SortResult<(RunId, MergeStats)> {
    let mut st = begin_streaming_merge(cfg, budget, runs, store, env, params)?;
    let mut exec = Exec::over(cfg, budget, store, env, &mut st);
    let output = exec.finish_into_run()?;
    exec.end_phase();
    Ok((output, st.stats))
}

/// Build `n_runs` sorted runs of random lengths in a fresh store and
/// return the metadata plus the flattened input tuples.
fn make_runs(n_runs: usize, avg_pages: usize, seed: u64) -> (MemStore, Vec<RunMeta>, Vec<Tuple>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = MemStore::new();
    let mut metas = Vec::new();
    let mut all = Vec::new();
    let tpp = 8;
    for _ in 0..n_runs {
        let pages = rng.gen_range(1..=avg_pages * 2);
        let mut tuples: Vec<Tuple> = (0..pages * tpp)
            .map(|_| Tuple::synthetic(rng.gen::<u64>() >> 16, 64))
            .collect();
        tuples.sort_unstable_by_key(|t| t.key);
        all.extend(tuples.clone());
        let run = store.create_run().unwrap();
        for p in paginate(tuples, tpp) {
            store.append_page(run, p).unwrap();
        }
        metas.push(store.meta(run));
    }
    (store, metas, all)
}

fn cfg_with_mem(pages: usize) -> SortConfig {
    // 8 tuples per page to keep tests fast.
    SortConfig::default()
        .with_page_size(512)
        .with_tuple_size(64)
        .with_memory_pages(pages)
}

fn params(policy: MergePolicy, adaptation: MergeAdaptation) -> ExecParams {
    ExecParams {
        policy,
        adaptation,
        min_pages: 3,
    }
}

/// Merge the runs of `make_runs` with `mem` pages, check that the output run
/// holds their tuples sorted, and return the merge statistics.
fn merge_checked(
    (mut store, metas, input): (MemStore, Vec<RunMeta>, Vec<Tuple>),
    mem: usize,
    env: &mut impl SortEnv,
    params: ExecParams,
) -> MergeStats {
    let budget = MemoryBudget::new(mem);
    let merged = execute_merge(&cfg_with_mem(mem), &budget, &metas, &mut store, env, params);
    let (out, stats) = merged.unwrap();
    assert_sorted_permutation(&input, &collect_run(&mut store, out).unwrap());
    stats
}

/// `n_runs` sorted runs of `pages` pages each, keys drawn from `0..domain`,
/// appended to `store`: their metadata and their tuples.
fn make_side(
    store: &mut MemStore,
    rng: &mut StdRng,
    n_runs: usize,
    pages: usize,
    domain: u64,
) -> (Vec<RunMeta>, Vec<Tuple>) {
    let tpp = 8;
    let mut metas = Vec::new();
    let mut all = Vec::new();
    for _ in 0..n_runs {
        let mut tuples: Vec<Tuple> = (0..pages * tpp)
            .map(|_| Tuple::synthetic(rng.gen_range(0..domain), 64))
            .collect();
        tuples.sort_unstable_by_key(|t| t.key);
        all.extend(tuples.clone());
        let run = store.create_run().unwrap();
        for p in paginate(tuples, tpp) {
            store.append_page(run, p).unwrap();
        }
        metas.push(store.meta(run));
    }
    (metas, all)
}

#[test]
fn single_step_merge_with_ample_memory() {
    let stats = merge_checked(
        make_runs(6, 3, 1),
        16,
        &mut CountingEnv::new(),
        params(MergePolicy::Optimized, MergeAdaptation::DynamicSplitting),
    );
    assert_eq!(stats.steps_executed, 1);
    assert_eq!(stats.splits, 0);
}

#[test]
fn insufficient_memory_triggers_preliminary_steps() {
    let stats = merge_checked(
        make_runs(10, 3, 2),
        8,
        &mut CountingEnv::new(),
        params(MergePolicy::Optimized, MergeAdaptation::DynamicSplitting),
    );
    assert!(stats.splits >= 1);
    assert!(stats.steps_executed >= 2);
}

#[test]
fn all_adaptations_and_policies_produce_sorted_output() {
    for adaptation in [
        MergeAdaptation::Suspension,
        MergeAdaptation::Paging,
        MergeAdaptation::DynamicSplitting,
    ] {
        for policy in [MergePolicy::Naive, MergePolicy::Optimized] {
            let mut env = CountingEnv::new();
            merge_checked(make_runs(12, 2, 3), 6, &mut env, params(policy, adaptation));
        }
    }
}

#[test]
fn empty_and_single_run_edge_cases() {
    let mut env = CountingEnv::new();
    let nothing = (MemStore::new(), Vec::new(), Vec::new());
    let stats = merge_checked(nothing, 8, &mut env, ExecParams::default());
    assert_eq!(stats.steps_executed, 0);
    merge_checked(make_runs(1, 4, 9), 8, &mut env, ExecParams::default());
}

/// An environment that applies a scripted sequence of budget changes, each
/// firing once the clock passes its timestamp (clock advances on CPU
/// charges).
struct ScriptedEnv {
    clock: f64,
    script: Vec<(f64, usize)>,
    next: usize,
    /// `CpuOp::CopyTuple` charges seen.
    copies: u64,
}

impl ScriptedEnv {
    fn new(script: Vec<(f64, usize)>) -> Self {
        ScriptedEnv {
            clock: 0.0,
            script,
            next: 0,
            copies: 0,
        }
    }
}

impl SortEnv for ScriptedEnv {
    fn now(&self) -> f64 {
        self.clock
    }
    fn charge_cpu(&mut self, op: CpuOp, count: u64) {
        self.clock += count as f64 * 5e-5;
        if op == CpuOp::CopyTuple {
            self.copies += count;
        }
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
        // Jump the clock forward to the next scripted growth that
        // satisfies the request.
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

#[test]
fn dynamic_splitting_survives_shrink_and_grow_mid_merge() {
    // Shrink hard early, grow back later, shrink again.
    let mut env = ScriptedEnv::new(vec![(0.02, 5), (0.2, 14), (0.5, 4), (0.9, 16)]);
    let stats = merge_checked(
        make_runs(10, 4, 7),
        12,
        &mut env,
        params(MergePolicy::Optimized, MergeAdaptation::DynamicSplitting),
    );
    assert!(stats.splits >= 1, "expected at least one dynamic split");
    assert!(stats.switches >= 1);
}

#[test]
fn paging_and_suspension_survive_fluctuations() {
    for adaptation in [MergeAdaptation::Paging, MergeAdaptation::Suspension] {
        let mut env = ScriptedEnv::new(vec![(0.01, 4), (0.3, 12), (0.6, 5), (0.8, 12)]);
        let params = params(MergePolicy::Optimized, adaptation);
        let stats = merge_checked(make_runs(9, 3, 11), 10, &mut env, params);
        if adaptation == MergeAdaptation::Paging {
            assert!(stats.extra_paging_reads > 0, "paging should have faulted");
        } else {
            assert!(
                stats.refetched_pages > 0,
                "suspension should have refetched"
            );
        }
    }
}

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

/// `actual` must be the reference's sequence. Both must ascend in the order's
/// composite; tuples that tie there may come out in either order, so each tie
/// group is compared as a set.
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

/// `n_runs` sorted runs of random lengths with keys from `0..500`, so rank
/// ties run through every merge step.
fn make_tied_runs(n_runs: usize, avg_pages: usize, seed: u64) -> (MemStore, Vec<RunMeta>) {
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
/// (forcing growth switches and step combining). The kernel must still emit
/// the reference merge of the same runs, and charge one tuple copy per tuple
/// it moved, however long its batches were.
#[test]
fn kernel_survives_mid_merge_wobbles() {
    let order = SortOrder::ascending();
    for adaptation in [
        MergeAdaptation::DynamicSplitting,
        MergeAdaptation::Suspension,
        MergeAdaptation::Paging,
    ] {
        let (mut store, metas) = make_tied_runs(10, 4, 77);
        let runs: Vec<Vec<Tuple>> = metas
            .iter()
            .map(|m| collect_run(&mut store, m.id).unwrap())
            .collect();
        let cfg = cfg_with_mem(12).with_algorithm(AlgorithmSpec::new(
            RunFormation::repl(4),
            MergePolicy::Optimized,
            adaptation,
        ));
        let budget = MemoryBudget::new(12);
        let mut env = ScriptedEnv::new(vec![(0.02, 5), (0.2, 14), (0.5, 4), (0.9, 16)]);
        let params = params(MergePolicy::Optimized, adaptation);
        let (out, stats) =
            execute_merge(&cfg, &budget, &metas, &mut store, &mut env, params).unwrap();
        let merged = collect_run(&mut store, out).unwrap();
        assert_matches_reference(
            &order,
            &merged,
            &naive_merge(&order, runs),
            &format!("{adaptation:?}"),
        );
        assert_eq!(
            env.copies, stats.tuples_output,
            "{adaptation:?}: copies are charged per tuple moved"
        );
        // The wobble must actually have exercised the adaptation machinery.
        match adaptation {
            MergeAdaptation::DynamicSplitting => {
                assert!(stats.splits >= 1, "no split — wobble misconfigured")
            }
            MergeAdaptation::Suspension => assert!(stats.refetched_pages > 0),
            MergeAdaptation::Paging => assert!(stats.extra_paging_reads > 0),
        }
    }
}

#[test]
fn growth_lets_dynamic_splitting_combine_steps() {
    // Start with too little memory (forcing an immediate split), then grow
    // so the sort switches back to the final step and absorbs the child.
    let stats = merge_checked(
        make_runs(12, 3, 13),
        5,
        &mut ScriptedEnv::new(vec![(0.05, 20)]),
        params(MergePolicy::Optimized, MergeAdaptation::DynamicSplitting),
    );
    assert!(stats.splits >= 1);
    assert!(
        stats.combines >= 1,
        "growth should have let the sort combine steps (combines = {})",
        stats.combines
    );
}

#[test]
fn join_merge_with_many_tiny_runs_and_fluctuation() {
    // Regression test: lots of single-page runs on both sides exhaust
    // constantly during the join, so input indices are invalidated all the
    // time; combined with a fluctuating budget this used to hit an
    // out-of-bounds pop in `produce_unit_join`.
    let mut rng = StdRng::seed_from_u64(99);
    let mut store = MemStore::new();
    let (left_metas, left_all) = make_side(&mut store, &mut rng, 30, 1, 40);
    let (right_metas, right_all) = make_side(&mut store, &mut rng, 25, 1, 40);
    let expected = crate::verify::nested_loop_match_count(&left_all, &right_all);

    let cfg = cfg_with_mem(5);
    let budget = MemoryBudget::new(5);
    let mut env = ScriptedEnv::new(vec![(0.001, 3), (0.01, 12), (0.05, 4), (0.2, 20)]);
    let mut seen = 0u64;
    let stats = execute_join_merge(
        &cfg,
        &budget,
        &left_metas,
        &right_metas,
        &mut store,
        &mut env,
        params(MergePolicy::Optimized, MergeAdaptation::DynamicSplitting),
        &mut |_l, _r| seen += 1,
    )
    .unwrap();
    assert_eq!(stats.join_matches, expected);
    assert_eq!(seen, expected);
}

#[test]
fn join_merge_counts_matches_correctly() {
    // Keys drawn from a small domain so duplicates and matches are common.
    let mut rng = StdRng::seed_from_u64(5);
    let mut store = MemStore::new();
    let (left_metas, left_all) = make_side(&mut store, &mut rng, 5, 3, 200);
    let (right_metas, right_all) = make_side(&mut store, &mut rng, 4, 2, 200);
    let expected = crate::verify::nested_loop_match_count(&left_all, &right_all);

    let cfg = cfg_with_mem(6);
    let budget = MemoryBudget::new(6);
    let mut env = CountingEnv::new();
    let mut seen = 0u64;
    let stats = execute_join_merge(
        &cfg,
        &budget,
        &left_metas,
        &right_metas,
        &mut store,
        &mut env,
        params(MergePolicy::Optimized, MergeAdaptation::DynamicSplitting),
        &mut |_l, _r| seen += 1,
    )
    .unwrap();
    assert_eq!(stats.join_matches, expected);
    assert_eq!(seen, expected);
    assert!(stats.splits >= 1, "6 pages cannot hold 9 runs + output");
}
