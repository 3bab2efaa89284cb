//! The front half of every external sort — split phase, then the merge
//! phase down to its root step — and the statistics a sort reports.
//!
//! [`SortJob`](crate::job::SortJob) is the entry point: its
//! [`run_to_root`](crate::job::SortJob::run_to_root) runs this half, and the
//! [`SortCompletion`](crate::job::SortCompletion) it returns executes the
//! root — streaming the sorted tuples straight to the consumer (see
//! [`crate::stream`]), or materialising them into one output run with
//! [`finish_into_run`](crate::job::SortCompletion::finish_into_run).

use crate::budget::{DelaySample, MemoryBudget, SortPhase};
use crate::config::SortConfig;
use crate::env::SortEnv;
use crate::error::SortResult;
use crate::input::InputSource;
use crate::merge::exec::{begin_streaming_merge, ExecParams, MergeState, MergeStats};
use crate::run_formation::{form_runs, SplitStats};
use crate::store::RunStore;
use masort_trace::EventKind;

/// The statistics of an external sort.
///
/// Where the sorted tuples are is not part of it: a streamed sort has no
/// output run, and a materialising
/// [`finish_into_run`](crate::job::SortCompletion::finish_into_run) returns
/// the run's id.
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

/// The front of every sort: form the runs, run (and write) whatever
/// preliminary merge steps the budget demands right now, and stop with the
/// merge tree down to its root step. The returned [`MergeState`] is that
/// root, untouched, and the outcome describes the sort up to this point (the
/// merge phase is still open: no `PhaseEnd` yet). This is the body of
/// [`SortJob::run_to_root`](crate::job::SortJob::run_to_root); the
/// [`SortCompletion`](crate::job::SortCompletion) it returns executes the
/// root.
pub(crate) fn begin<S, I, E>(
    cfg: &SortConfig,
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
    let started = env.now();
    // The store shares the environment's observability handle so its run
    // and I/O events land on the same span as the sort's phase events.
    let trace = env.trace();
    if trace.is_enabled() {
        store.attach_trace(trace.clone());
    }
    budget.set_phase(SortPhase::Split);
    trace.emit(EventKind::PhaseStart { phase: "split" });
    let phases = form_runs(cfg, budget, input, store, env).and_then(|split| {
        trace.emit(EventKind::PhaseEnd { phase: "split" });
        budget.set_phase(SortPhase::Merge);
        trace.emit(EventKind::PhaseStart { phase: "merge" });
        let params = ExecParams::from_algorithm(&cfg.algorithm);
        let root = begin_streaming_merge(cfg, budget, &split.runs, store, env, params)?;
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::{AlgorithmSpec, MergeAdaptation, MergePolicy, RunFormation};
    use crate::env::{CountingEnv, RealEnv};
    use crate::error::SortError;
    use crate::job::SortJob;
    use crate::store::{FileStore, MemStore, RunId};
    use crate::tuple::Tuple;
    use crate::verify::{assert_sorted_permutation, collect_run};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::RefCell;
    use std::rc::Rc;

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

    /// The materialising sort: run to the root, finish into one stored run,
    /// and read that run back.
    fn sort_into_run<S: RunStore, E: SortEnv>(
        cfg: SortConfig,
        input: Vec<Tuple>,
        store: S,
        env: E,
        budget: &MemoryBudget,
    ) -> SortResult<(Vec<Tuple>, SortOutcome)> {
        let mut done = SortJob::builder()
            .config(cfg)
            .tuples(input)
            .store(store)
            .env(env)
            .budget(budget.clone())
            .build()?
            .run_to_root()?;
        let out = done.finish_into_run()?;
        let sorted = collect_run(&mut done.store, out)?;
        Ok((sorted, std::mem::take(&mut done.outcome)))
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
        let budget = MemoryBudget::new(cfg.memory_pages);
        let store = FileStore::in_temp_dir().unwrap();
        let (sorted, _) =
            sort_into_run(cfg, input.clone(), store, CountingEnv::new(), &budget).unwrap();
        assert_sorted_permutation(&input, &sorted);
    }

    #[test]
    fn low_level_sort_validates_the_config_too() {
        // The config constructors accept any value; the materialising sort
        // must be refused the same garbage geometry and algorithm as any
        // other job, before anything sorts.
        let budget = MemoryBudget::new(5);
        let cfg = small_cfg(5, AlgorithmSpec::recommended()).with_tuple_size(0);
        let sort = |cfg| sort_into_run(cfg, Vec::new(), MemStore::new(), RealEnv::new(), &budget);
        let err = sort(cfg);
        assert!(matches!(err, Err(SortError::InvalidConfig(_))), "{err:?}");
        let cfg = small_cfg(
            5,
            AlgorithmSpec::new(
                RunFormation::repl(0),
                MergePolicy::Optimized,
                MergeAdaptation::DynamicSplitting,
            ),
        );
        let err = sort(cfg);
        assert!(matches!(err, Err(SortError::InvalidConfig(_))), "{err:?}");
    }

    #[test]
    fn budget_shrink_from_another_thread_is_respected() {
        // A real concurrent shrink: the sorting thread keeps going and the
        // result stays correct.
        let input = random_tuples(20_000, 23);
        let cfg = small_cfg(32, AlgorithmSpec::recommended());
        let budget = MemoryBudget::new(cfg.memory_pages);
        let b2 = budget.clone();
        let handle = std::thread::spawn(move || {
            for step in 0..50 {
                std::thread::sleep(std::time::Duration::from_micros(200));
                let target = if step % 2 == 0 { 4 } else { 40 };
                b2.set_target(target, step as f64);
            }
        });
        let (sorted, _) =
            sort_into_run(cfg, input.clone(), MemStore::new(), RealEnv::new(), &budget).unwrap();
        handle.join().unwrap();
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
            let budget = MemoryBudget::new(cfg.memory_pages);
            budget.cancel();
            let input = random_tuples(2_000, 41);
            let err = sort_into_run(cfg, input, MemStore::new(), CountingEnv::new(), &budget)
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
        let budget = MemoryBudget::new(cfg.memory_pages);
        let env = CancelOnMerge {
            inner: CountingEnv::new(),
        };
        let input = random_tuples(4_000, 43);
        let err = sort_into_run(cfg, input, MemStore::new(), env, &budget).unwrap_err();
        assert!(matches!(err, SortError::Cancelled), "{err:?}");
        assert_eq!(budget.held(), 0);
    }

    /// When the reads of a [`FailingReads`] store fail.
    #[derive(Clone, Copy, Default)]
    pub(crate) enum FailReads {
        #[default]
        Always,
        /// Only once an append has followed the first read, so the root has
        /// written at least a page of its output run.
        AfterRootAppend,
        Never,
    }

    /// A `MemStore` whose reads fail as `fail` says, logging appends, reads
    /// and flushes. Clones share the store and the log, so a test keeps both
    /// after the sort has taken its copy.
    #[derive(Clone, Default)]
    pub(crate) struct FailingReads {
        fail: FailReads,
        shared: Rc<RefCell<(MemStore, Vec<&'static str>)>>,
    }

    impl FailingReads {
        pub(crate) fn new(fail: FailReads) -> Self {
            FailingReads {
                fail,
                ..Default::default()
            }
        }

        fn log(&self) -> Vec<&'static str> {
            self.shared.borrow().1.clone()
        }

        pub(crate) fn live_runs(&self) -> usize {
            self.shared.borrow().0.live_runs()
        }
    }

    impl RunStore for FailingReads {
        fn create_run(&mut self) -> SortResult<RunId> {
            self.shared.borrow_mut().0.create_run()
        }
        fn append_page(&mut self, run: RunId, page: crate::tuple::Page) -> SortResult<()> {
            let (store, log) = &mut *self.shared.borrow_mut();
            log.push("append");
            store.append_page(run, page)
        }
        fn read_page(&mut self, run: RunId, idx: usize) -> SortResult<crate::tuple::Page> {
            let (store, log) = &mut *self.shared.borrow_mut();
            let mut merging = log.iter().skip_while(|e| **e != "read").skip(1);
            let fails = match self.fail {
                FailReads::Always => true,
                FailReads::AfterRootAppend => merging.any(|e| *e == "append"),
                FailReads::Never => false,
            };
            if fails {
                return Err(SortError::corrupt(run, "simulated read failure"));
            }
            log.push("read");
            store.read_page(run, idx)
        }
        fn flush(&mut self) -> SortResult<()> {
            self.shared.borrow_mut().1.push("flush");
            Ok(())
        }
        fn run_pages(&self, run: RunId) -> usize {
            self.shared.borrow().0.run_pages(run)
        }
        fn run_tuples(&self, run: RunId) -> usize {
            self.shared.borrow().0.run_tuples(run)
        }
        fn delete_run(&mut self, run: RunId) -> SortResult<()> {
            self.shared.borrow_mut().0.delete_run(run)
        }
    }

    /// Sort 2 000 tuples into `store`; the result, and the pages the budget
    /// shows as held afterwards.
    fn sort_into<S: RunStore>(cfg: &SortConfig, store: S) -> (SortResult<SortOutcome>, usize) {
        let budget = MemoryBudget::new(cfg.memory_pages);
        let input = random_tuples(2_000, 31);
        let sorted = sort_into_run(cfg.clone(), input, store, CountingEnv::new(), &budget);
        (sorted.map(|(_, outcome)| outcome), budget.held())
    }

    #[test]
    fn error_paths_still_flush_the_store() {
        // A store whose reads always fail makes the merge phase error out
        // while a buffering store may still hold appends; the sorter must
        // flush it before propagating so deferred write failures cannot be
        // dropped silently with the store.
        let store = FailingReads::new(FailReads::Always);
        let cfg = small_cfg(4, AlgorithmSpec::recommended());
        let (sorted, _) = sort_into(&cfg, store.clone());
        let err = sorted.unwrap_err();
        assert!(matches!(err, SortError::CorruptRun { .. }), "{err:?}");
        assert_eq!(
            store.log().iter().filter(|e| **e == "flush").count(),
            1,
            "the error path must flush the store before propagating"
        );
    }

    #[test]
    fn a_read_failure_in_the_root_step_still_flushes_and_releases() {
        // Ample memory: the runs fit one merge step, so the root is the only
        // step the merge runs, and the failing read is the root's.
        let cfg = small_cfg(16, AlgorithmSpec::recommended());
        let merge = sort_into(&cfg, MemStore::new()).0.unwrap().merge;
        assert_eq!((merge.steps_executed, merge.splits), (1, 0), "{merge:?}");

        let store = FailingReads::new(FailReads::AfterRootAppend);
        let (sorted, held) = sort_into(&cfg, store.clone());
        let err = sorted.unwrap_err();
        assert!(matches!(err, SortError::CorruptRun { .. }), "{err:?}");
        let log = &store.log();
        let first_read = log.iter().position(|e| *e == "read").unwrap();
        let last_append = log.iter().rposition(|e| *e == "append").unwrap();
        assert!(
            last_append > first_read,
            "the root appended before the read failed"
        );
        assert_eq!(
            log.last(),
            Some(&"flush"),
            "a flush follows the last append"
        );
        assert_eq!(held, 0, "a failed root holds no pages");
    }
}
