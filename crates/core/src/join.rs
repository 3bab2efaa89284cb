//! Memory-adaptive sort-merge joins (paper §6).
//!
//! A sort-merge join runs the split phase over *both* relations (any of the
//! three in-memory sorting methods applies unchanged), then merges the runs of
//! both relations concurrently, joining tuples with equal keys as they stream
//! by. When the combined run count exceeds the available buffers, preliminary
//! merge steps are created — each restricted to the runs of a single relation,
//! choosing the relation that minimises the work (or, when one relation has
//! too few runs, the relation with more runs, so no extra steps appear).
//! All three merge-phase adaptation strategies apply. The root step writes no
//! run — matched pairs go straight to the caller's callback, the way a
//! streaming sort's root hands its tuples to [`crate::SortedStream`].

use crate::budget::{DelaySample, MemoryBudget, SortPhase};
use crate::config::SortConfig;
use crate::env::{RealEnv, SortEnv};
use crate::error::SortResult;
use crate::input::{InputSource, VecSource};
use crate::merge::exec::{execute_join_merge, ExecParams, MergeStats};
use crate::run_formation::{form_runs, SplitStats};
use crate::store::{MemStore, RunStore};
use crate::tuple::Tuple;

/// The result of a complete memory-adaptive sort-merge join.
#[derive(Debug)]
pub struct JoinOutcome {
    /// Number of joined pairs produced: pairs whose whole keys are equal
    /// under the configured [`crate::order::SortOrder`] (the stored key and,
    /// for a normalized key longer than eight bytes, its tie bytes).
    pub matches: u64,
    /// Split-phase statistics for the left relation.
    pub left_split: SplitStats,
    /// Split-phase statistics for the right relation.
    pub right_split: SplitStats,
    /// Merge/join-phase statistics.
    pub merge: MergeStats,
    /// Total response time in environment seconds.
    pub response_time: f64,
    /// Delay samples recorded by the memory budget during the join.
    pub delays: Vec<DelaySample>,
}

impl JoinOutcome {
    /// Total number of sorted runs formed across both relations.
    pub fn runs_formed(&self) -> usize {
        self.left_split.run_count() + self.right_split.run_count()
    }
}

/// A configurable, memory-adaptive sort-merge join operator.
#[derive(Clone, Debug)]
pub struct SortMergeJoin {
    cfg: SortConfig,
}

impl SortMergeJoin {
    /// Create a join operator with the given configuration. The algorithm
    /// combination (`X1,X2,X3`) applies to both the split and merge phases,
    /// exactly as for external sorts.
    pub fn new(cfg: SortConfig) -> Self {
        SortMergeJoin { cfg }
    }

    /// The operator's configuration.
    pub fn config(&self) -> &SortConfig {
        &self.cfg
    }

    /// Join `left` and `right`, invoking `on_match` for every pair of tuples
    /// with equal whole keys (composite keys under the configured
    /// [`crate::order::SortOrder`]).
    ///
    /// The configuration is validated first (`SortError::InvalidConfig`),
    /// like every other entry point that executes a [`SortConfig`] — the
    /// config constructors themselves accept any value.
    pub fn join<S, L, R, E, F>(
        &self,
        left: &mut L,
        right: &mut R,
        store: &mut S,
        env: &mut E,
        budget: &MemoryBudget,
        mut on_match: F,
    ) -> SortResult<JoinOutcome>
    where
        S: RunStore,
        L: InputSource,
        R: InputSource,
        E: SortEnv,
        F: FnMut(&Tuple, &Tuple),
    {
        self.cfg.validate()?;
        let started = env.now();
        budget.set_phase(SortPhase::Split);
        let left_split = form_runs(&self.cfg, budget, left, store, env)?;
        let right_split = form_runs(&self.cfg, budget, right, store, env)?;

        budget.set_phase(SortPhase::Merge);
        let params = ExecParams::from_algorithm(&self.cfg.algorithm);
        let merge = execute_join_merge(
            &self.cfg,
            budget,
            &left_split.runs,
            &right_split.runs,
            store,
            env,
            params,
            &mut on_match,
        )?;

        Ok(JoinOutcome {
            matches: merge.join_matches,
            left_split,
            right_split,
            response_time: env.now() - started,
            merge,
            delays: budget.take_delays(),
        })
    }

    /// Convenience wrapper: join two in-memory tuple vectors and return the
    /// joined key pairs, using an in-memory store and the wall-clock
    /// environment.
    pub fn join_vecs(
        &self,
        left: Vec<Tuple>,
        right: Vec<Tuple>,
    ) -> SortResult<Vec<(Tuple, Tuple)>> {
        let budget = MemoryBudget::new(self.cfg.memory_pages);
        let tpp = self.cfg.tuples_per_page();
        let mut l = VecSource::from_tuples(left, tpp);
        let mut r = VecSource::from_tuples(right, tpp);
        let mut store = MemStore::new();
        let mut env = RealEnv::new();
        let mut out = Vec::new();
        self.join(&mut l, &mut r, &mut store, &mut env, &budget, |a, b| {
            out.push((a.clone(), b.clone()));
        })?;
        Ok(out)
    }

    /// Convenience wrapper returning only the match count and statistics.
    pub fn join_vecs_count(&self, left: Vec<Tuple>, right: Vec<Tuple>) -> SortResult<JoinOutcome> {
        let budget = MemoryBudget::new(self.cfg.memory_pages);
        let tpp = self.cfg.tuples_per_page();
        let mut l = VecSource::from_tuples(left, tpp);
        let mut r = VecSource::from_tuples(right, tpp);
        let mut store = MemStore::new();
        let mut env = RealEnv::new();
        self.join(&mut l, &mut r, &mut store, &mut env, &budget, |_, _| {})
    }
}

impl Default for SortMergeJoin {
    fn default() -> Self {
        SortMergeJoin::new(SortConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AlgorithmSpec;
    use crate::verify::nested_loop_match_count;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tuples_with_domain(n: usize, domain: u64, seed: u64) -> Vec<Tuple> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Tuple::synthetic(rng.gen_range(0..domain), 64))
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
    fn join_validates_the_config_like_the_other_entry_points() {
        let cfg = small_cfg(6, AlgorithmSpec::recommended()).with_tuple_size(0);
        let err = SortMergeJoin::new(cfg).join_vecs_count(Vec::new(), Vec::new());
        assert!(
            matches!(err, Err(crate::error::SortError::InvalidConfig(_))),
            "{err:?}"
        );
    }

    #[test]
    fn join_matches_nested_loop_for_every_algorithm() {
        let left = tuples_with_domain(1500, 400, 1);
        let right = tuples_with_domain(1200, 400, 2);
        let expected = nested_loop_match_count(&left, &right);
        for spec in AlgorithmSpec::all(4) {
            let join = SortMergeJoin::new(small_cfg(6, spec));
            let outcome = join.join_vecs_count(left.clone(), right.clone()).unwrap();
            assert_eq!(
                outcome.matches, expected,
                "algorithm {spec} produced the wrong number of matches"
            );
        }
    }

    #[test]
    fn join_pairs_have_equal_keys() {
        let left = tuples_with_domain(600, 50, 3);
        let right = tuples_with_domain(700, 50, 4);
        let join = SortMergeJoin::default();
        let join = SortMergeJoin::new(small_cfg(8, join.config().algorithm));
        let pairs = join.join_vecs(left.clone(), right.clone()).unwrap();
        assert!(!pairs.is_empty());
        assert!(pairs.iter().all(|(a, b)| a.key == b.key));
        assert_eq!(pairs.len() as u64, nested_loop_match_count(&left, &right));
    }

    #[test]
    fn disjoint_keys_produce_no_matches() {
        let left: Vec<Tuple> = (0..500u64).map(|k| Tuple::synthetic(k * 2, 64)).collect();
        let right: Vec<Tuple> = (0..500u64)
            .map(|k| Tuple::synthetic(k * 2 + 1, 64))
            .collect();
        let join = SortMergeJoin::new(small_cfg(5, AlgorithmSpec::recommended()));
        let outcome = join.join_vecs_count(left, right).unwrap();
        assert_eq!(outcome.matches, 0);
        assert!(outcome.runs_formed() >= 2);
    }

    #[test]
    fn empty_relations() {
        let join = SortMergeJoin::new(small_cfg(5, AlgorithmSpec::recommended()));
        assert_eq!(
            join.join_vecs_count(Vec::new(), Vec::new())
                .unwrap()
                .matches,
            0
        );
        let right = tuples_with_domain(100, 10, 9);
        assert_eq!(join.join_vecs_count(Vec::new(), right).unwrap().matches, 0);
    }

    #[test]
    fn skewed_duplicate_heavy_join() {
        // Many duplicates on both sides stress the group-buffering logic.
        let left: Vec<Tuple> = (0..800u64).map(|k| Tuple::synthetic(k % 5, 64)).collect();
        let right: Vec<Tuple> = (0..900u64).map(|k| Tuple::synthetic(k % 7, 64)).collect();
        let expected = nested_loop_match_count(&left, &right);
        let join = SortMergeJoin::new(small_cfg(6, AlgorithmSpec::recommended()));
        let outcome = join.join_vecs_count(left, right).unwrap();
        assert_eq!(outcome.matches, expected);
        assert!(
            outcome.merge.splits >= 1,
            "small memory should force preliminary steps"
        );
    }
}
