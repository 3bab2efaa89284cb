//! Drivers that run complete external sorts / sort-merge joins inside the
//! simulated database system and collect the paper's metrics.

use crate::config::SimConfig;
use crate::env::SimEnv;
use crate::input::SimRelationSource;
use crate::store::SimRunStore;
use crate::system::{SharedSystem, SimSystem};
use masort_core::{AlgorithmSpec, SortJob, SortMergeJoin, SortOutcome, SortPhase};

/// Metrics gathered for one simulated external sort.
#[derive(Clone, Debug)]
pub struct SortRunMetrics {
    /// The algorithm combination that executed.
    pub algorithm: AlgorithmSpec,
    /// End-to-end response time (simulated seconds).
    pub response_time: f64,
    /// Split-phase duration (simulated seconds).
    pub split_duration: f64,
    /// Number of sorted runs the split phase produced.
    pub runs_formed: usize,
    /// Number of merge steps that actually executed.
    pub merge_steps: usize,
    /// Mean delay (seconds) memory requests experienced during the split phase.
    pub mean_split_delay: f64,
    /// Maximum delay (seconds) during the split phase.
    pub max_split_delay: f64,
    /// Mean delay (seconds) during the merge phase.
    pub mean_merge_delay: f64,
    /// Average disk time per page moved during the split phase (seconds),
    /// the metric of paper Table 5.
    pub split_avg_page_io: f64,
}

impl SortRunMetrics {
    fn from_outcome(cfg: &SimConfig, sys: &SharedSystem, outcome: &SortOutcome) -> Self {
        let sysb = sys.borrow();
        SortRunMetrics {
            algorithm: cfg.algorithm,
            response_time: outcome.response_time,
            split_duration: outcome.split.duration(),
            runs_formed: outcome.runs_formed(),
            merge_steps: outcome.merge.steps_executed,
            mean_split_delay: outcome.mean_split_delay(),
            max_split_delay: outcome.max_split_delay(),
            mean_merge_delay: outcome.mean_merge_delay(),
            split_avg_page_io: sysb.metrics.split_avg_page_time(),
        }
    }
}

/// Metrics gathered for one simulated sort-merge join.
#[derive(Clone, Debug)]
pub struct JoinMetrics {
    /// The algorithm combination that executed.
    pub algorithm: AlgorithmSpec,
    /// End-to-end response time (simulated seconds).
    pub response_time: f64,
    /// Join result pairs produced.
    pub matches: u64,
    /// Runs formed across both relations.
    pub runs_formed: usize,
}

/// Execute one external sort inside an existing simulated system (the clock,
/// disk heads and outstanding competing requests carry over — this is how a
/// stream of sorts shares the machine, as in the paper's Source module).
///
/// The sort is a [`SortJob`] over the simulated input, store and environment,
/// obeying the simulated buffer manager's budget — which may stand at zero
/// pages when the sort is submitted (the sort then waits for memory, as in
/// the paper). It runs to its root and finishes into one stored run, so the
/// merge writes its result as the paper's cost model charges it. Simulated
/// components cannot actually fail, so errors are impossible here.
pub(crate) fn run_sort_in_system(cfg: &SimConfig, sys: &SharedSystem, seed: u64) -> SortRunMetrics {
    sys.borrow_mut().reset_sort_counters();
    sys.borrow_mut().refresh_budget();
    let budget = sys.borrow().budget.clone();
    let _ = budget.take_delays();
    budget.set_phase(SortPhase::Split);

    let sort_cfg = cfg.sort_config();
    let input = SimRelationSource::new(
        sys.clone(),
        cfg.relation_pages(),
        cfg.tuples_per_page(),
        sort_cfg.tuple_size,
        seed ^ 0x5eed_f00d,
    );
    let mut done = SortJob::builder()
        .config(sort_cfg)
        .input(input)
        .store(SimRunStore::new(sys.clone()))
        .env(SimEnv::new(sys.clone()))
        .budget(budget)
        .build()
        .and_then(SortJob::run_to_root)
        .expect("simulated stores and inputs are infallible");
    done.finish_into_run()
        .expect("simulated stores and inputs are infallible");
    SortRunMetrics::from_outcome(cfg, sys, &done.outcome)
}

/// Run a single external sort in a fresh simulated system.
pub fn run_one_sort(cfg: &SimConfig, seed: u64) -> SortRunMetrics {
    let sys = SimSystem::new(cfg, seed).shared();
    run_sort_in_system(cfg, &sys, seed)
}

/// Run a stream of `n` external sorts back to back in one simulated system
/// (a new sort is submitted as soon as the previous one completes, paper §4.1)
/// and return the per-sort metrics.
pub fn run_sort_stream(cfg: &SimConfig, n: usize, seed: u64) -> Vec<SortRunMetrics> {
    let sys = SimSystem::new(cfg, seed).shared();
    (0..n)
        .map(|i| run_sort_in_system(cfg, &sys, seed.wrapping_add(1 + i as u64 * 7919)))
        .collect()
}

/// Run one memory-adaptive sort-merge join of two synthetic relations of
/// `left_pages` and `right_pages` pages inside a fresh simulated system.
pub fn run_one_join(
    cfg: &SimConfig,
    left_pages: usize,
    right_pages: usize,
    seed: u64,
) -> JoinMetrics {
    let sys = SimSystem::new(cfg, seed).shared();
    sys.borrow_mut().refresh_budget();
    let budget = sys.borrow().budget.clone();
    budget.set_phase(SortPhase::Split);

    let mut env = SimEnv::new(sys.clone());
    let mut store = SimRunStore::new(sys.clone());
    // Restrict the key domain so the join produces a meaningful number of
    // matches (foreign-key-like joins).
    let sort_cfg = cfg.sort_config();
    let (tpp, tuple_size) = (cfg.tuples_per_page(), sort_cfg.tuple_size);
    let domain = ((left_pages + right_pages) * tpp) as u64;
    let mut left = SimRelationSource::new(sys.clone(), left_pages, tpp, tuple_size, seed ^ 0xaaaa)
        .with_key_domain(domain);
    let mut right =
        SimRelationSource::new(sys.clone(), right_pages, tpp, tuple_size, seed ^ 0xbbbb)
            .with_key_domain(domain);
    let join = SortMergeJoin::new(sort_cfg);
    let outcome = join
        .join(
            &mut left,
            &mut right,
            &mut store,
            &mut env,
            &budget,
            |_, _| {},
        )
        .expect("simulated stores and inputs are infallible");
    JoinMetrics {
        algorithm: cfg.algorithm,
        response_time: outcome.response_time,
        matches: outcome.matches,
        runs_formed: outcome.runs_formed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadConfig;
    use masort_core::{MergeAdaptation, MergePolicy, RunFormation, SortJob};

    /// A small configuration so debug-mode tests stay fast: 1 MB relation,
    /// 0.05 MB of memory.
    fn tiny(algorithm: &str) -> SimConfig {
        SimConfig::default()
            .with_relation_mb(1.0)
            .with_memory_mb(0.0625)
            .with_algorithm(algorithm.parse().unwrap())
    }

    #[test]
    fn one_sort_produces_sane_metrics() {
        let cfg = tiny("repl6,opt,split").with_workload(WorkloadConfig::none());
        let m = run_one_sort(&cfg, 1);
        assert!(m.response_time > 0.0);
        assert!(m.split_duration > 0.0);
        assert!(
            m.runs_formed >= 2,
            "1 MB with 8 pages of memory needs several runs"
        );
        assert!(m.merge_steps >= 1);
        assert!(m.split_avg_page_io > 0.0);
        assert_eq!(m.algorithm.formation, RunFormation::repl(6));
    }

    #[test]
    fn stream_of_sorts_advances_one_system() {
        let cfg = tiny("quick,opt,split");
        let ms = run_sort_stream(&cfg, 3, 7);
        assert_eq!(ms.len(), 3);
        assert!(ms.iter().all(|m| m.response_time > 0.0));
    }

    #[test]
    fn repl1_is_slower_than_repl6_without_fluctuation() {
        // Table 5 / Figure 5 shape: excessive seeks make repl1 much slower.
        let r1 = run_one_sort(
            &tiny("repl1,opt,split").with_workload(WorkloadConfig::none()),
            3,
        );
        let r6 = run_one_sort(
            &tiny("repl6,opt,split").with_workload(WorkloadConfig::none()),
            3,
        );
        assert!(
            r1.split_duration > r6.split_duration * 1.3,
            "repl1 split {} should clearly exceed repl6 split {}",
            r1.split_duration,
            r6.split_duration
        );
        assert!(r1.split_avg_page_io > r6.split_avg_page_io);
    }

    #[test]
    fn suspension_is_slower_than_dynamic_splitting_under_fluctuation() {
        // Figure 6 shape: susp is the worst adaptation strategy.
        let workload = WorkloadConfig {
            lambda_small: 2.0,
            mu_small: 0.8,
            mem_thres: 0.4,
            lambda_large: 0.3,
            mu_large: 3.0,
        };
        let susp: f64 = (0..3)
            .map(|i| {
                run_one_sort(&tiny("repl6,opt,susp").with_workload(workload), 10 + i).response_time
            })
            .sum::<f64>()
            / 3.0;
        let split: f64 = (0..3)
            .map(|i| {
                run_one_sort(&tiny("repl6,opt,split").with_workload(workload), 10 + i).response_time
            })
            .sum::<f64>()
            / 3.0;
        assert!(
            susp > split,
            "suspension ({susp:.1} s) should be slower than dynamic splitting ({split:.1} s)"
        );
    }

    #[test]
    fn quick_has_larger_split_delays_than_repl6() {
        // Figure 9 shape: Quicksort responds to shortages much more slowly.
        let workload = WorkloadConfig {
            lambda_small: 2.0,
            mu_small: 0.8,
            mem_thres: 0.4,
            lambda_large: 0.2,
            mu_large: 2.0,
        };
        // Use the paper's memory size (0.3 MB = 38 pages) so Quicksort has a
        // full memory load to sort and write before it can release anything.
        let base = |alg: &str| {
            SimConfig::default()
                .with_relation_mb(2.0)
                .with_memory_mb(0.3)
                .with_algorithm(alg.parse().unwrap())
                .with_workload(workload)
        };
        let mean = |alg: &str| -> f64 {
            (0..3)
                .map(|i| run_one_sort(&base(alg), 50 + i).mean_split_delay)
                .sum::<f64>()
                / 3.0
        };
        let quick = mean("quick,opt,split");
        let repl6 = mean("repl6,opt,split");
        assert!(
            quick > repl6,
            "quick mean split delay {quick} should exceed repl6's {repl6}"
        );
    }

    #[test]
    fn sort_job_builder_drives_simulated_components() {
        // The production entry point composes with the simulation substrate:
        // a SortJob owning a SimRelationSource, SimRunStore and SimEnv.
        let cfg = tiny("repl6,opt,split").with_workload(WorkloadConfig::none());
        let sys = SimSystem::new(&cfg, 21).shared();
        sys.borrow_mut().refresh_budget();
        let budget = sys.borrow().budget.clone();
        let input = SimRelationSource::new(
            sys.clone(),
            cfg.relation_pages(),
            cfg.tuples_per_page(),
            cfg.sort_config().tuple_size,
            77,
        );
        let completion = SortJob::builder()
            .config(cfg.sort_config())
            .input(input)
            .store(SimRunStore::new(sys.clone()))
            .env(SimEnv::new(sys.clone()))
            .budget(budget)
            .build()
            .expect("sim config is valid")
            .run()
            .expect("simulated sort cannot fail");
        assert!(completion.outcome.runs_formed() >= 2);
        let mut streamed = 0usize;
        let mut last = 0u64;
        for t in completion.into_stream() {
            let t = t.unwrap();
            assert!(t.key >= last);
            last = t.key;
            streamed += 1;
        }
        assert_eq!(streamed, cfg.relation_pages() * cfg.tuples_per_page());
        assert!(sys.borrow().clock > 0.0, "streaming charged simulated time");
    }

    #[test]
    fn join_runs_and_counts_matches() {
        let cfg = SimConfig::default()
            .with_memory_mb(0.0625)
            .with_algorithm(AlgorithmSpec::new(
                RunFormation::repl(6),
                MergePolicy::Optimized,
                MergeAdaptation::DynamicSplitting,
            ))
            .with_workload(WorkloadConfig::none());
        let m = run_one_join(&cfg, 64, 48, 11);
        assert!(m.response_time > 0.0);
        assert!(m.runs_formed >= 2);
        // Keys are drawn from a bounded domain so real matches occur.
        assert!(m.matches > 0);
    }
}
