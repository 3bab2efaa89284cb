//! The end-to-end external sorter: split phase + merge phase.
//!
//! [`ExternalSorter`] is the low-level engine: the caller supplies the input,
//! store, environment and budget explicitly, and [`sort`](ExternalSorter::sort)
//! *materialises* the result — the root merge step writes one output run and
//! the call returns its id. Most applications should use the
//! [`SortJob`](crate::job::SortJob) builder instead, which owns those pieces,
//! validates the configuration, and *streams* the result: its final merge
//! step hands sorted tuples straight to the consumer and writes no run at all
//! (see [`crate::stream`]; a job whose budget moved under it settles instead,
//! see [`crate::job`]).

use crate::budget::{DelaySample, MemoryBudget, SortPhase};
use crate::config::SortConfig;
use crate::env::SortEnv;
use crate::error::SortResult;
use crate::input::InputSource;
use crate::merge::exec::{
    begin_streaming_merge, execute_merge, ExecParams, MergeState, MergeStats,
};
use crate::run_formation::{form_runs, SplitStats};
use crate::store::{RunId, RunStore};
use masort_trace::EventKind;

/// The statistics of an external sort.
///
/// Where the sorted tuples are is not part of it: a materialising
/// [`ExternalSorter::sort`] returns the output run's id next to the outcome,
/// a streaming [`SortJob`](crate::job::SortJob) has no output run.
#[derive(Clone, Debug, Default)]
pub struct SortOutcome {
    /// Split-phase statistics (runs formed, duration, shrink events, ...).
    pub split: SplitStats,
    /// Merge-phase statistics (steps, splits/combines, I/O, ...).
    pub merge: MergeStats,
    /// Total response time in environment seconds.
    pub response_time: f64,
    /// Delay samples recorded by the memory budget during this sort.
    pub delays: Vec<DelaySample>,
}

impl SortOutcome {
    /// Number of sorted runs the split phase produced.
    pub fn runs_formed(&self) -> usize {
        self.split.run_count()
    }

    /// Mean delay (seconds) experienced by memory-shrink requests during the
    /// split phase.
    pub fn mean_split_delay(&self) -> f64 {
        mean_delay(&self.delays, SortPhase::Split)
    }

    /// Maximum delay (seconds) experienced by memory-shrink requests during
    /// the split phase.
    pub fn max_split_delay(&self) -> f64 {
        self.delays
            .iter()
            .filter(|d| d.phase == SortPhase::Split)
            .map(DelaySample::delay)
            .fold(0.0, f64::max)
    }

    /// Mean delay (seconds) experienced by memory-shrink requests during the
    /// merge phase.
    pub fn mean_merge_delay(&self) -> f64 {
        mean_delay(&self.delays, SortPhase::Merge)
    }
}

fn mean_delay(delays: &[DelaySample], phase: SortPhase) -> f64 {
    let relevant: Vec<f64> = delays
        .iter()
        .filter(|d| d.phase == phase)
        .map(DelaySample::delay)
        .collect();
    if relevant.is_empty() {
        0.0
    } else {
        relevant.iter().sum::<f64>() / relevant.len() as f64
    }
}

/// A configurable, memory-adaptive external sorter (the low-level engine).
///
/// The sorter is stateless between sorts; all per-sort state lives in the
/// store, environment and budget supplied to [`sort`](Self::sort).
#[derive(Clone, Debug)]
pub struct ExternalSorter {
    cfg: SortConfig,
}

impl ExternalSorter {
    /// Create a sorter with the given configuration.
    pub fn new(cfg: SortConfig) -> Self {
        ExternalSorter { cfg }
    }

    /// The sorter's configuration.
    pub fn config(&self) -> &SortConfig {
        &self.cfg
    }

    /// Run a full external sort of `input`, storing runs (including the final
    /// output run) in `store`, charging costs to `env`, and obeying `budget`.
    /// Returns the id of the output run — the fully sorted relation, inside
    /// `store` — and the sort's statistics.
    ///
    /// The configuration is validated first (`SortError::InvalidConfig`), so
    /// this low-level entry point enforces the same invariants as
    /// `SortJob::builder().build()` — the config constructors themselves
    /// accept any value.
    ///
    /// On error the store may be left holding partially written runs; callers
    /// that reuse stores across sorts should delete them (or drop the store).
    pub fn sort<S, I, E>(
        &self,
        input: &mut I,
        store: &mut S,
        env: &mut E,
        budget: &MemoryBudget,
    ) -> SortResult<(RunId, SortOutcome)>
    where
        S: RunStore,
        I: InputSource,
        E: SortEnv,
    {
        self.cfg.validate()?;
        let started = env.now();
        self.enter_split(store, env, budget);
        let phases = form_runs(&self.cfg, budget, input, store, env).and_then(|split| {
            self.enter_merge(env, budget);
            let (output_run, merge) = execute_merge(
                &self.cfg,
                budget,
                &split.runs,
                store,
                env,
                self.merge_params(),
            )?;
            Ok((output_run, split, merge))
        });
        let (output_run, split, merge) = flush_after(phases, store, env, budget)?;
        env.trace().emit(EventKind::PhaseEnd { phase: "merge" });
        let outcome = SortOutcome {
            split,
            merge,
            response_time: env.now() - started,
            delays: budget.take_delays(),
        };
        Ok((output_run, outcome))
    }

    /// The front of a *streaming* sort, which is what `SortJob::run` does:
    /// form the runs, run (and write) whatever preliminary merge steps the
    /// budget demands right now, and stop with the merge tree down to its
    /// root step. The returned [`MergeState`] is that root, untouched — its
    /// consumer pulls the sorted tuples out of it, so no output run is ever
    /// written — and the outcome describes the sort up to this point (the
    /// merge phase is still open: no `PhaseEnd` yet).
    pub(crate) fn begin<S, I, E>(
        &self,
        input: &mut I,
        store: &mut S,
        env: &mut E,
        budget: &MemoryBudget,
    ) -> SortResult<(SortOutcome, MergeState)>
    where
        S: RunStore,
        I: InputSource,
        E: SortEnv,
    {
        self.cfg.validate()?;
        let started = env.now();
        self.enter_split(store, env, budget);
        let phases = form_runs(&self.cfg, budget, input, store, env).and_then(|split| {
            self.enter_merge(env, budget);
            let root = begin_streaming_merge(
                &self.cfg,
                budget,
                &split.runs,
                store,
                env,
                self.merge_params(),
            )?;
            Ok((split, root))
        });
        let (split, root) = flush_after(phases, store, env, budget)?;
        let merge = root.stats().clone();
        let outcome = SortOutcome {
            split,
            // Measured to the same instant as `merge.finished_at`, so whoever
            // finishes the merge can extend it by the time that passed since.
            response_time: merge.finished_at - started,
            merge,
            delays: budget.take_delays(),
        };
        Ok((outcome, root))
    }

    /// Enter the split phase.
    fn enter_split<S: RunStore, E: SortEnv>(&self, store: &mut S, env: &E, budget: &MemoryBudget) {
        // The store shares the environment's observability handle so its run
        // and I/O events land on the same span as the sort's phase events.
        let trace = env.trace();
        if trace.is_enabled() {
            store.attach_trace(trace.clone());
        }
        budget.set_phase(SortPhase::Split);
        trace.emit(EventKind::PhaseStart { phase: "split" });
    }

    fn enter_merge<E: SortEnv>(&self, env: &E, budget: &MemoryBudget) {
        let trace = env.trace();
        trace.emit(EventKind::PhaseEnd { phase: "split" });
        budget.set_phase(SortPhase::Merge);
        trace.emit(EventKind::PhaseStart { phase: "merge" });
    }

    fn merge_params(&self) -> ExecParams {
        ExecParams::from_algorithm(&self.cfg.algorithm)
    }
}

/// Flush the store after the phases ran, **on success and error paths
/// alike** — a store that buffers its appends (see [`RunStore::flush`]) may
/// still hold some, and a deferred write failure must surface as the sort's
/// error instead of being dropped with the store. A phase error takes
/// precedence over a flush error.
fn flush_after<T, S: RunStore, E: SortEnv>(
    phases: SortResult<T>,
    store: &mut S,
    env: &E,
    budget: &MemoryBudget,
) -> SortResult<T> {
    let flushed = store.flush();
    phases.and_then(|ok| flushed.map(|_| ok)).inspect_err(|_| {
        // A failed (or cancelled) sort holds no buffers — everything it had
        // is dropped with its locals on unwind from the phase functions.
        // Record that, so owners auditing the budget for leaked pages (e.g.
        // a broker's post-release check) see zero rather than the last
        // checkpoint's stale count.
        budget.record_held(0, env.now());
    })
}

impl Default for ExternalSorter {
    fn default() -> Self {
        ExternalSorter::new(SortConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AlgorithmSpec, MergeAdaptation, MergePolicy, RunFormation};
    use crate::env::{CountingEnv, RealEnv};
    use crate::error::SortError;
    use crate::input::VecSource;
    use crate::job::SortJob;
    use crate::store::{FileStore, MemStore};
    use crate::tuple::Tuple;
    use crate::verify::{assert_sorted_permutation, collect_run};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    fn sort_via_job(cfg: SortConfig, tuples: Vec<Tuple>) -> Vec<Tuple> {
        SortJob::builder()
            .config(cfg)
            .tuples(tuples)
            .build()
            .unwrap()
            .run()
            .unwrap()
            .into_sorted_vec()
            .unwrap()
    }

    #[test]
    fn sort_job_sorts_with_every_algorithm_combination() {
        let input = random_tuples(3000, 99);
        for spec in AlgorithmSpec::all(4) {
            let cfg = small_cfg(6, spec);
            let sorted = sort_via_job(cfg, input.clone());
            assert_sorted_permutation(&input, &sorted);
        }
    }

    #[test]
    fn sort_outcome_reports_runs_and_steps() {
        let input = random_tuples(4000, 5);
        let cfg = small_cfg(6, AlgorithmSpec::recommended());
        let completion = SortJob::builder()
            .config(cfg)
            .tuples(input.clone())
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(completion.outcome.runs_formed() > 1);
        let mut stream = completion.into_stream();
        let sorted: Vec<Tuple> = stream.by_ref().map(Result::unwrap).collect();
        assert_sorted_permutation(&input, &sorted);
        let outcome = stream.finish();
        assert!(outcome.merge.steps_executed >= 1);
        assert!(outcome.response_time >= outcome.split.duration());
    }

    #[test]
    fn sort_with_file_store_round_trips() {
        let input = random_tuples(2000, 17);
        let cfg = small_cfg(5, AlgorithmSpec::recommended());
        let sorter = ExternalSorter::new(cfg.clone());
        let budget = MemoryBudget::new(cfg.memory_pages);
        let mut source = VecSource::from_tuples(input.clone(), cfg.tuples_per_page());
        let mut store = FileStore::in_temp_dir().unwrap();
        let mut env = CountingEnv::new();
        let (output_run, _) = sorter
            .sort(&mut source, &mut store, &mut env, &budget)
            .unwrap();
        let sorted = collect_run(&mut store, output_run).unwrap();
        assert_sorted_permutation(&input, &sorted);
    }

    #[test]
    fn low_level_sort_validates_the_config_too() {
        // The config constructors accept any value; the low-level entry point
        // must enforce the same invariants as `SortJob::build` rather than
        // silently sorting with garbage geometry.
        let cfg = small_cfg(5, AlgorithmSpec::recommended()).with_tuple_size(0);
        let sorter = ExternalSorter::new(cfg.clone());
        let budget = MemoryBudget::new(cfg.memory_pages);
        let mut source = VecSource::from_pages(Vec::new());
        let mut store = MemStore::new();
        let mut env = CountingEnv::new();
        let err = sorter.sort(&mut source, &mut store, &mut env, &budget);
        assert!(matches!(err, Err(SortError::InvalidConfig(_))), "{err:?}");
        let cfg = small_cfg(
            5,
            AlgorithmSpec::new(
                RunFormation::repl(0),
                MergePolicy::Optimized,
                MergeAdaptation::DynamicSplitting,
            ),
        );
        let err = ExternalSorter::new(cfg).sort(&mut source, &mut store, &mut env, &budget);
        assert!(matches!(err, Err(SortError::InvalidConfig(_))), "{err:?}");
    }

    #[test]
    fn budget_shrink_from_another_thread_is_respected() {
        // A real concurrent shrink: the sorting thread keeps going and the
        // result stays correct.
        let input = random_tuples(20_000, 23);
        let cfg = small_cfg(32, AlgorithmSpec::recommended());
        let sorter = ExternalSorter::new(cfg.clone());
        let budget = MemoryBudget::new(cfg.memory_pages);
        let b2 = budget.clone();
        let handle = std::thread::spawn(move || {
            for step in 0..50 {
                std::thread::sleep(std::time::Duration::from_micros(200));
                let target = if step % 2 == 0 { 4 } else { 40 };
                b2.set_target(target, step as f64);
            }
        });
        let mut source = VecSource::from_tuples(input.clone(), cfg.tuples_per_page());
        let mut store = MemStore::new();
        let mut env = RealEnv::new();
        let (output_run, _) = sorter
            .sort(&mut source, &mut store, &mut env, &budget)
            .unwrap();
        handle.join().unwrap();
        let sorted = collect_run(&mut store, output_run).unwrap();
        assert_sorted_permutation(&input, &sorted);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let cfg = small_cfg(4, AlgorithmSpec::recommended());
        let sorted = sort_via_job(cfg, Vec::new());
        assert!(sorted.is_empty());
    }

    #[test]
    fn already_sorted_and_reverse_sorted_inputs() {
        let asc: Vec<Tuple> = (0..2000u64).map(|k| Tuple::synthetic(k, 64)).collect();
        let desc: Vec<Tuple> = (0..2000u64)
            .rev()
            .map(|k| Tuple::synthetic(k, 64))
            .collect();
        for spec in [
            AlgorithmSpec::recommended(),
            AlgorithmSpec::new(
                RunFormation::Quicksort,
                MergePolicy::Naive,
                MergeAdaptation::Paging,
            ),
        ] {
            let cfg = small_cfg(5, spec);
            assert_sorted_permutation(&asc, &sort_via_job(cfg.clone(), asc.clone()));
            assert_sorted_permutation(&desc, &sort_via_job(cfg, desc.clone()));
        }
    }

    #[test]
    fn duplicate_keys_are_preserved() {
        let input: Vec<Tuple> = (0..3000u64).map(|k| Tuple::synthetic(k % 10, 64)).collect();
        let cfg = small_cfg(5, AlgorithmSpec::recommended());
        let sorted = sort_via_job(cfg, input.clone());
        assert_sorted_permutation(&input, &sorted);
    }

    #[test]
    fn cancelled_budget_aborts_the_split_phase_with_zero_held_pages() {
        for spec in [
            AlgorithmSpec::new(
                RunFormation::Quicksort,
                MergePolicy::Optimized,
                MergeAdaptation::DynamicSplitting,
            ),
            AlgorithmSpec::recommended(), // replacement selection
        ] {
            let cfg = small_cfg(4, spec);
            let sorter = ExternalSorter::new(cfg.clone());
            let budget = MemoryBudget::new(cfg.memory_pages);
            budget.cancel();
            let mut source =
                VecSource::from_tuples(random_tuples(2_000, 41), cfg.tuples_per_page());
            let mut store = MemStore::new();
            let mut env = CountingEnv::new();
            let err = sorter
                .sort(&mut source, &mut store, &mut env, &budget)
                .unwrap_err();
            assert!(matches!(err, SortError::Cancelled), "{err:?}");
            assert_eq!(budget.held(), 0, "cancelled sorts must release everything");
        }
    }

    #[test]
    fn cancel_during_the_merge_phase_aborts_at_the_next_checkpoint() {
        // An environment that pulls the trigger the first time it is polled
        // after the sort enters the merge phase: the split phase completes
        // normally and the merge aborts at its first adaptivity checkpoint.
        struct CancelOnMerge {
            inner: CountingEnv,
        }
        impl SortEnv for CancelOnMerge {
            fn now(&self) -> f64 {
                self.inner.now()
            }
            fn charge_cpu(&mut self, op: CpuOp, count: u64) {
                self.inner.charge_cpu(op, count)
            }
            fn poll(&mut self, budget: &MemoryBudget) {
                if budget.phase() == crate::budget::SortPhase::Merge {
                    budget.cancel();
                }
            }
            fn wait_for_pages(&mut self, budget: &MemoryBudget, pages: usize) -> bool {
                self.inner.wait_for_pages(budget, pages)
            }
        }
        use crate::env::CpuOp;
        let cfg = small_cfg(4, AlgorithmSpec::recommended());
        let sorter = ExternalSorter::new(cfg.clone());
        let budget = MemoryBudget::new(cfg.memory_pages);
        let mut source = VecSource::from_tuples(random_tuples(4_000, 43), cfg.tuples_per_page());
        let mut store = MemStore::new();
        let mut env = CancelOnMerge {
            inner: CountingEnv::new(),
        };
        let err = sorter
            .sort(&mut source, &mut store, &mut env, &budget)
            .unwrap_err();
        assert!(matches!(err, SortError::Cancelled), "{err:?}");
        assert_eq!(budget.held(), 0);
    }

    #[test]
    fn error_paths_still_flush_the_store() {
        // A store whose reads always fail makes the merge phase error out
        // while a buffering store may still hold appends; the sorter must
        // flush it before propagating so deferred write failures cannot be
        // dropped silently with the store.
        use crate::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        struct FlushCountingStore {
            inner: MemStore,
            flushes: Arc<AtomicUsize>,
        }
        impl RunStore for FlushCountingStore {
            fn create_run(&mut self) -> SortResult<RunId> {
                self.inner.create_run()
            }
            fn append_page(&mut self, run: RunId, page: crate::tuple::Page) -> SortResult<()> {
                self.inner.append_page(run, page)
            }
            fn read_page(&mut self, run: RunId, _idx: usize) -> SortResult<crate::tuple::Page> {
                Err(SortError::corrupt(run, "simulated read failure"))
            }
            fn flush(&mut self) -> SortResult<()> {
                self.flushes.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
            fn run_pages(&self, run: RunId) -> usize {
                self.inner.run_pages(run)
            }
            fn run_tuples(&self, run: RunId) -> usize {
                self.inner.run_tuples(run)
            }
            fn delete_run(&mut self, run: RunId) -> SortResult<()> {
                self.inner.delete_run(run)
            }
        }
        let flushes = Arc::new(AtomicUsize::new(0));
        let mut store = FlushCountingStore {
            inner: MemStore::new(),
            flushes: Arc::clone(&flushes),
        };
        let cfg = small_cfg(4, AlgorithmSpec::recommended());
        let sorter = ExternalSorter::new(cfg.clone());
        let budget = MemoryBudget::new(cfg.memory_pages);
        let mut source = VecSource::from_tuples(random_tuples(2_000, 31), cfg.tuples_per_page());
        let mut env = CountingEnv::new();
        let err = sorter
            .sort(&mut source, &mut store, &mut env, &budget)
            .unwrap_err();
        assert!(matches!(err, SortError::CorruptRun { .. }), "{err:?}");
        assert_eq!(
            flushes.load(Ordering::SeqCst),
            1,
            "the error path must flush the store before propagating"
        );
    }
}
