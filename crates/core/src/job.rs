//! The builder-driven entry point: configure a sort once, run it, then stream
//! or collect the result.
//!
//! ```
//! use masort_core::prelude::*;
//!
//! let tuples: Vec<Tuple> = (0..10_000u64)
//!     .map(|i| Tuple::synthetic(i.wrapping_mul(0x9E3779B97F4A7C15), 256))
//!     .collect();
//!
//! let completion = SortJob::builder()
//!     .config(SortConfig::default().with_memory_pages(16))
//!     .tuples(tuples)
//!     .build()?
//!     .run()?;
//! println!("runs formed: {}", completion.outcome.runs_formed());
//!
//! // The stream *is* the final merge step: tuples come off the merge, no
//! // sorted copy of the relation is ever written or held.
//! for tuple in completion.into_stream() {
//!     let tuple = tuple?;
//!     // ... feed downstream operator ...
//!     let _ = tuple.key;
//! }
//! # Ok::<(), masort_core::SortError>(())
//! ```
//!
//! A job owns its input, store, environment and budget, with sensible
//! defaults ([`MemStore`], [`RealEnv`], a fixed budget of
//! `config.memory_pages`), and validates the configuration at
//! [`build`](SortJobBuilder::build) time — before any data moves.
//!
//! [`run`](SortJob::run) does the split phase and whatever preliminary merge
//! steps the budget demands, and returns a [`SortCompletion`] as soon as the
//! merge tree is down to its root step. That root is then executed by the
//! consumer: [`into_stream`](SortCompletion::into_stream) yields its output
//! tuple by tuple, still polling the budget and adapting between pages, or
//! [`settle`](SortCompletion::settle) runs it into one stored run first, for
//! owners that must give the sort's memory back before anybody reads.
//! [`finish_into_run`](SortCompletion::finish_into_run) is the paper's
//! materialising sort: the root runs into one output run that stays in the
//! store for the caller.
//!
//! A parked root pins its merge buffers until the consumer pulls again. That
//! is harmless on a budget nobody moves; on one that *was* moved while the
//! sort ran, somebody is waiting on the sort's answers, so `run` does not
//! park: it settles the merge itself (every shrink answered from the sorting
//! thread, at page granularity) and returns a completion that holds one
//! stored run and none of the budget's pages. An owner that stays with the
//! root — pulling it page by page
//! ([`next_page`](SortCompletion::next_page)) and running its
//! [`checkpoint`](SortCompletion::checkpoint) whenever it cannot pull — has
//! no such problem and enters through
//! [`run_to_root`](SortJob::run_to_root), which always parks.

use crate::budget::MemoryBudget;
use crate::config::SortConfig;
use crate::env::{RealEnv, SortEnv};
use crate::error::SortResult;
use crate::input::{InputSource, VecSource};
use crate::merge::exec::{Exec, MergeState};
use crate::order::SortOrder;
use crate::sorter::{begin, SortOutcome};
use crate::store::{MemStore, RunId, RunStore};
use crate::stream::SortedStream;
use crate::tuple::{Page, Tuple};
use masort_trace::EventKind;

/// Conversion of a builder input into a concrete [`InputSource`] at
/// [`build`](SortJobBuilder::build) time, once the configuration is final.
///
/// Every [`InputSource`] converts to itself; [`TupleInput`] (produced by
/// [`SortJobBuilder::tuples`]) paginates with the *final* page geometry, so
/// the order of `tuples()` and `config()` calls does not matter.
pub trait IntoInputSource {
    /// The input source this converts into.
    type Source: InputSource;
    /// Perform the conversion using the job's final configuration.
    fn into_input_source(self, cfg: &SortConfig) -> Self::Source;
}

impl<I: InputSource> IntoInputSource for I {
    type Source = I;
    fn into_input_source(self, _cfg: &SortConfig) -> I {
        self
    }
}

/// An in-memory tuple vector awaiting pagination with the job's final page
/// geometry. Created by [`SortJobBuilder::tuples`].
#[derive(Debug)]
pub struct TupleInput(Vec<Tuple>);

impl IntoInputSource for TupleInput {
    type Source = VecSource;
    fn into_input_source(self, cfg: &SortConfig) -> VecSource {
        VecSource::from_tuples(self.0, cfg.tuples_per_page())
    }
}

/// A fully configured, validated external sort, ready to run.
///
/// Construct one with [`SortJob::builder`]. The job owns its input source,
/// run store, environment and memory budget; [`run`](Self::run) consumes the
/// job and returns a [`SortCompletion`] that hands the store back for
/// streaming.
#[derive(Debug)]
pub struct SortJob<I, S, E> {
    cfg: SortConfig,
    input: I,
    store: S,
    env: E,
    budget: MemoryBudget,
}

impl SortJob<VecSource, MemStore, RealEnv> {
    /// Start building a job with the default configuration
    /// ([`SortConfig::default`], which runs `nat6,opt,split`), an empty
    /// input, an in-memory store, the wall-clock environment, and a fixed
    /// budget of `config.memory_pages` pages.
    pub fn builder() -> SortJobBuilder<TupleInput, MemStore, RealEnv> {
        SortJobBuilder {
            cfg: SortConfig::default(),
            input: TupleInput(Vec::new()),
            store: MemStore::new(),
            env: RealEnv::new(),
            budget: None,
        }
    }
}

impl<I, S, E> SortJob<I, S, E>
where
    I: InputSource,
    S: RunStore,
    E: SortEnv,
{
    /// The job's configuration.
    pub fn config(&self) -> &SortConfig {
        &self.cfg
    }

    /// Execute the sort up to its final merge step: form the runs, run the
    /// preliminary merge steps the budget demands, and return once the merge
    /// tree is down to its root. Consuming the returned [`SortCompletion`]
    /// executes that root.
    ///
    /// If the budget's target was moved while this call ran, the root is
    /// executed here as well ([`SortCompletion::settle`]): whoever moves a
    /// budget waits for the sort to follow, and a parked root follows only
    /// when its consumer next pulls. An owner that keeps driving the root
    /// itself — pulling pages, or running its
    /// [`checkpoint`](SortCompletion::checkpoint) while it cannot — calls
    /// [`run_to_root`](Self::run_to_root) instead.
    pub fn run(self) -> SortResult<SortCompletion<S, E>> {
        let moves_before = self.budget.version();
        let completion = self.run_to_root()?;
        if completion.budget.version() == moves_before {
            Ok(completion)
        } else {
            completion.settle()
        }
    }

    /// [`run`](Self::run) without its settling rule: whatever happened to
    /// the budget meanwhile, the sort stops with its root step parked and
    /// nothing sorted written. This is for a caller that answers for the
    /// budget while the root is parked — one that runs the root's
    /// [`checkpoint`](SortCompletion::checkpoint) whenever it moves the
    /// budget between pulls, as a broker does.
    pub fn run_to_root(mut self) -> SortResult<SortCompletion<S, E>> {
        let (outcome, root) = begin(
            &self.cfg,
            &mut self.input,
            &mut self.store,
            &mut self.env,
            &self.budget,
        )?;
        Ok(SortCompletion {
            outcome,
            store: self.store,
            env: self.env,
            cfg: self.cfg,
            budget: self.budget,
            root,
        })
    }
}

/// A sort that is done but for its final merge step, which the consumer of
/// this value executes.
///
/// The sort's runs are in [`store`](Self::store) and the root of its merge
/// tree is parked in here, holding the pages the budget shows as held.
/// Nothing sorted has been written: a sort that formed a single run streams
/// that very run, and an empty input has no run at all. (The exception is a
/// [settled](Self::settle) completion — asked for, or returned by
/// [`SortJob::run`] because the budget moved under the sort — whose root
/// reads the one run the merge was finished into.) Dropping the
/// completion (or the stream made from it) at any point deletes every run of
/// the sort and returns its pages to the budget.
#[derive(Debug)]
pub struct SortCompletion<S: RunStore, E: SortEnv = RealEnv> {
    /// Statistics as of the last time the sort stopped: when
    /// [`SortJob::run`] returned, or when [`settle`](Self::settle) finished
    /// the merge. ([`SortedStream::finish`] reports the final ones of a
    /// streamed sort.)
    pub outcome: SortOutcome,
    /// The store the sort executes against (owns its runs).
    pub store: S,
    env: E,
    cfg: SortConfig,
    budget: MemoryBudget,
    /// The merge tree, stopped with its root step active.
    root: MergeState,
}

impl<S: RunStore, E: SortEnv> SortCompletion<S, E> {
    /// Stream the sorted result: the iterator executes the final merge step,
    /// yielding tuples as the merge produces them. The budget is polled and
    /// the configured adaptation applied between pages, exactly as during
    /// [`SortJob::run`].
    pub fn into_stream(self) -> SortedStream<S, E> {
        SortedStream::new(self)
    }

    /// Materialise the sorted result as a vector (convenience for small
    /// relations; prefer [`into_stream`](Self::into_stream) for big ones).
    pub fn into_sorted_vec(self) -> SortResult<Vec<Tuple>> {
        self.into_stream().collect()
    }

    /// Finish the merge *now*, into one stored run, and hand back a
    /// completion that streams that run: a fan-in-1 root that pins none of
    /// the budget's pages (it reads through a fixed allowance of its own —
    /// the merge's three-page minimum — as any run reader must) and that no
    /// later move of the budget can reach. [`outcome`](Self::outcome) then
    /// covers the whole merge and the merge phase is over.
    ///
    /// This is for owners that lend the sort its memory and want it back
    /// before the result is read — a broker must not let a client that
    /// stopped reading pin granted pages. It costs the write and the re-read
    /// of the result that [`into_stream`](Self::into_stream) avoids; a sort
    /// that is already down to a single stored run (or none) settles for
    /// free. Pages already pulled with [`next_page`](Self::next_page) stay
    /// pulled: only the remainder is settled, and what the completion yields
    /// afterwards continues where the pulls stopped.
    pub fn settle(mut self) -> SortResult<Self> {
        self.exec().settle()?;
        // A buffering store's deferred write failures surface here, not at
        // the first read.
        self.store.flush()?;
        if self.exec().end_phase() {
            self.merge_phase_ended();
        }
        // What is left reads one run through buffers of its own: a fixed
        // budget that a fan-in-1 root fits in and nobody else holds.
        self.budget = MemoryBudget::new(self.root.min_pages());
        Ok(self)
    }

    /// Run the rest of the merge, the root step included, into one fresh
    /// output run in [`store`](Self::store) and return its id: the
    /// materialising finish of the paper's sort. A lone run is copied too,
    /// so the merge writes what the cost model charges. The run is the
    /// caller's — dropping the completion afterwards leaves it in the store
    /// — and [`outcome`](Self::outcome) then covers the whole sort.
    ///
    /// On error the sort is closed: its runs, the half-written output run
    /// included, are deleted and its pages returned.
    pub fn finish_into_run(&mut self) -> SortResult<RunId> {
        let finished = self.exec().finish_into_run();
        // A buffering store's deferred write failures are the sort's too; a
        // merge error takes precedence.
        let flushed = self.store.flush();
        match finished.and_then(|run| flushed.map(|_| run)) {
            Ok(run) => {
                if self.exec().end_phase() {
                    self.merge_phase_ended();
                }
                Ok(run)
            }
            Err(e) => {
                self.close();
                Err(e)
            }
        }
    }

    /// The next sealed page of sorted records off the root merge step;
    /// `None` when the sort is exhausted. Exhaustion and errors both close
    /// the sort: runs deleted, pages back, [`outcome`](Self::outcome) final.
    /// ([`into_stream`](Self::into_stream) is this, tuple by tuple.)
    pub fn next_page(&mut self) -> SortResult<Option<Page>> {
        let page = self.exec().next_root_page();
        if !matches!(page, Ok(Some(_))) {
            self.close();
        }
        page
    }

    /// What the merge does between two pages, without the page: poll the
    /// budget and apply the configured adaptation, so that a root whose
    /// consumer cannot take another page right now still answers a shrink —
    /// by splitting, paging, or giving every buffer back — instead of
    /// sitting on its pages until the next pull. An error (cancellation
    /// included) closes the sort.
    pub fn checkpoint(&mut self) -> SortResult<()> {
        let result = self.exec().idle_checkpoint();
        if result.is_err() {
            self.close();
        }
        result
    }

    /// Delete every run the sort still has, return its pages, and — unless
    /// [`settle`](Self::settle) already did — end the merge phase.
    /// Idempotent; nothing can be streamed afterwards.
    pub(crate) fn close(&mut self) {
        if self.exec().close() {
            self.merge_phase_ended();
        }
    }

    fn exec(&mut self) -> Exec<'_, S, E> {
        Exec::over(
            &self.cfg,
            &self.budget,
            &mut self.store,
            &mut self.env,
            &mut self.root,
        )
    }

    fn merge_phase_ended(&mut self) {
        let merge = self.root.stats().clone();
        self.outcome.response_time += merge.finished_at - self.outcome.merge.finished_at;
        self.outcome.merge = merge;
        self.outcome.delays.extend(self.budget.take_delays());
        self.env
            .trace()
            .emit(EventKind::PhaseEnd { phase: "merge" });
    }
}

impl<S: RunStore, E: SortEnv> Drop for SortCompletion<S, E> {
    fn drop(&mut self) {
        self.close();
    }
}

/// Builder for [`SortJob`]. See [`SortJob::builder`].
#[derive(Debug)]
pub struct SortJobBuilder<I, S, E> {
    cfg: SortConfig,
    input: I,
    store: S,
    env: E,
    budget: Option<MemoryBudget>,
}

impl<I, S, E> SortJobBuilder<I, S, E>
where
    I: IntoInputSource,
    S: RunStore,
    E: SortEnv,
{
    fn replace_input<I2: IntoInputSource>(self, input: I2) -> SortJobBuilder<I2, S, E> {
        SortJobBuilder {
            cfg: self.cfg,
            input,
            store: self.store,
            env: self.env,
            budget: self.budget,
        }
    }

    /// Replace the whole configuration.
    pub fn config(mut self, cfg: SortConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Override the algorithm combination.
    pub fn algorithm(mut self, algorithm: crate::config::AlgorithmSpec) -> Self {
        self.cfg.algorithm = algorithm;
        self
    }

    /// Override the output order (direction and normalized key length).
    pub fn order(mut self, order: SortOrder) -> Self {
        self.cfg.order = order;
        self
    }

    /// Shorthand for a descending sort on [`Tuple::key`].
    pub fn descending(self) -> Self {
        self.order(SortOrder::descending())
    }

    /// Sort the given input source.
    pub fn input<I2: InputSource>(self, input: I2) -> SortJobBuilder<I2, S, E> {
        self.replace_input(input)
    }

    /// Sort an in-memory vector of tuples. Pagination happens at
    /// [`build`](Self::build) with the final page geometry, so `tuples()`
    /// and [`config`](Self::config) may be called in either order.
    pub fn tuples(self, tuples: Vec<Tuple>) -> SortJobBuilder<TupleInput, S, E> {
        self.replace_input(TupleInput(tuples))
    }

    /// Store runs in `store` instead of the default in-memory store (e.g. a
    /// [`crate::FileStore`] for genuinely external sorts).
    pub fn store<S2: RunStore>(self, store: S2) -> SortJobBuilder<I, S2, E> {
        SortJobBuilder {
            cfg: self.cfg,
            input: self.input,
            store,
            env: self.env,
            budget: self.budget,
        }
    }

    /// Execute in `env` instead of the default wall-clock environment.
    pub fn env<E2: SortEnv>(self, env: E2) -> SortJobBuilder<I, S, E2> {
        SortJobBuilder {
            cfg: self.cfg,
            input: self.input,
            store: self.store,
            env,
            budget: self.budget,
        }
    }

    /// Obey `budget` instead of a private fixed budget of
    /// `config.memory_pages` pages. Hand a clone to the component that grows
    /// and shrinks the sort's memory.
    pub fn budget(mut self, budget: MemoryBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Validate the configuration and produce a runnable [`SortJob`].
    ///
    /// Fails with [`SortError::InvalidConfig`](crate::SortError::InvalidConfig)
    /// on unusable configurations (zero memory pages, a tuple bigger than a
    /// page, a zero block size). A supplied budget may stand at zero pages —
    /// a buffer manager with nothing to give yet: the sort works in its
    /// minimal working set and grows when pages are granted.
    pub fn build(self) -> SortResult<SortJob<I::Source, S, E>> {
        let SortJobBuilder {
            cfg,
            input,
            store,
            env,
            budget,
        } = self;
        cfg.validate()?;
        let budget = budget.unwrap_or_else(|| MemoryBudget::new(cfg.memory_pages));
        let input = input.into_input_source(&cfg);
        Ok(SortJob {
            cfg,
            input,
            store,
            env,
            budget,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AlgorithmSpec;
    use crate::error::SortError;
    use crate::store::FileStore;
    use crate::verify::{assert_sorted_permutation, assert_sorted_permutation_by};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tuples(n: usize, seed: u64) -> Vec<Tuple> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Tuple::synthetic(rng.gen::<u64>(), 64))
            .collect()
    }

    fn small_cfg(mem: usize) -> SortConfig {
        SortConfig::default()
            .with_page_size(512)
            .with_tuple_size(64)
            .with_memory_pages(mem)
    }

    #[test]
    fn builder_runs_natural_formation_unless_given_a_config() {
        // One default: the builder's is `SortConfig::default()`'s, whose
        // algorithm `config::tests::default_config_matches_paper` pins.
        assert_eq!(
            SortJob::builder().build().unwrap().config(),
            &SortConfig::default()
        );
    }

    #[test]
    fn builder_defaults_sort_in_memory() {
        let input = random_tuples(2_000, 1);
        let sorted = SortJob::builder()
            .config(small_cfg(6))
            .tuples(input.clone())
            .build()
            .unwrap()
            .run()
            .unwrap()
            .into_sorted_vec()
            .unwrap();
        assert_sorted_permutation(&input, &sorted);
    }

    #[test]
    fn tuples_before_config_paginate_with_final_geometry() {
        // Pagination is deferred to build(), so the call order of tuples()
        // and config() must not matter: 512 B pages of 64 B tuples hold 8
        // tuples, so 80 tuples must arrive as 10 input pages either way.
        let input = random_tuples(80, 12);
        for tuples_first in [true, false] {
            let b = SortJob::builder();
            let b = if tuples_first {
                b.tuples(input.clone()).config(small_cfg(4))
            } else {
                b.config(small_cfg(4)).tuples(input.clone())
            };
            let completion = b.build().unwrap().run().unwrap();
            assert_eq!(
                completion.outcome.split.pages_read, 10,
                "tuples_first={tuples_first}: pagination used the wrong geometry"
            );
            let sorted = completion.into_sorted_vec().unwrap();
            assert_sorted_permutation(&input, &sorted);
        }
    }

    #[test]
    fn builder_with_file_store_and_stream() {
        let input = random_tuples(1_500, 2);
        let completion = SortJob::builder()
            .config(small_cfg(5))
            .tuples(input.clone())
            .store(FileStore::in_temp_dir().unwrap())
            .build()
            .unwrap()
            .run()
            .unwrap();
        let mut count = 0usize;
        let mut last = 0u64;
        for t in completion.into_stream() {
            let t = t.unwrap();
            assert!(t.key >= last);
            last = t.key;
            count += 1;
        }
        assert_eq!(count, input.len());
    }

    #[test]
    fn builder_descending_order() {
        let input = random_tuples(2_500, 3);
        let completion = SortJob::builder()
            .config(small_cfg(6))
            .descending()
            .tuples(input.clone())
            .build()
            .unwrap()
            .run()
            .unwrap();
        let order = SortOrder::descending();
        let sorted = completion.into_sorted_vec().unwrap();
        assert_sorted_permutation_by(&input, &sorted, &order);
        assert!(sorted.first().unwrap().key >= sorted.last().unwrap().key);
    }

    #[test]
    fn build_rejects_zero_memory_pages() {
        let mut cfg = small_cfg(4);
        cfg.memory_pages = 0;
        let err = SortJob::builder().config(cfg).build().unwrap_err();
        assert!(matches!(err, SortError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("memory_pages"));
    }

    #[test]
    fn build_rejects_tuple_larger_than_page() {
        let mut cfg = small_cfg(4);
        cfg.tuple_size = 4096;
        cfg.page_size = 512;
        let err = SortJob::builder().config(cfg).build().unwrap_err();
        assert!(matches!(err, SortError::InvalidConfig(_)));
        assert!(err.to_string().contains("page_size"));
    }

    #[test]
    fn external_budget_is_shared() {
        let budget = MemoryBudget::new(8);
        let job = SortJob::builder()
            .config(small_cfg(8))
            .tuples(random_tuples(500, 9))
            .budget(budget.clone())
            .build()
            .unwrap();
        budget.set_target(4, 0.0);
        assert_eq!(job.budget.target(), 4);
        let completion = job.run().unwrap();
        assert_eq!(completion.outcome.split.total_tuples(), 500);
        // Moved before the sort began, not under it: the root is parked.
        assert!(budget.held() > 0);
        drop(completion);
        assert_eq!(budget.held(), 0);
    }

    #[test]
    fn a_settled_completion_is_out_of_the_budgets_reach() {
        use crate::config::{MergeAdaptation, MergePolicy, RunFormation};
        for adaptation in [
            MergeAdaptation::DynamicSplitting,
            MergeAdaptation::Suspension,
            MergeAdaptation::Paging,
        ] {
            let spec =
                AlgorithmSpec::new(RunFormation::repl(6), MergePolicy::Optimized, adaptation);
            let input = random_tuples(3_000, 21);
            let budget = MemoryBudget::new(16);
            let mut settled = SortJob::builder()
                .config(small_cfg(16).with_algorithm(spec))
                .tuples(input.clone())
                .budget(budget.clone())
                .build()
                .unwrap()
                .run()
                .unwrap()
                .settle()
                .unwrap();
            assert!(settled.outcome.runs_formed() > 4, "{adaptation:?}");
            assert_eq!(budget.held(), 0, "{adaptation:?}");
            let allowance = settled.budget.clone();
            assert_eq!(allowance.target(), 3, "{adaptation:?}");
            let at_settle = settled.root.stats().clone();

            // The owner takes every page away. A root still listening to
            // this budget would split, page, or suspend for good.
            budget.set_target(0, 0.0);
            let mut sorted = Vec::new();
            while let Some(page) = settled.next_page().unwrap() {
                assert_eq!(budget.held(), 0, "{adaptation:?}");
                assert!(allowance.held() <= 3, "{adaptation:?}");
                sorted.extend(page.tuples());
            }
            assert_sorted_permutation(&input, &sorted);
            let now = settled.root.stats();
            let adaptations = |m: &crate::merge::MergeStats| {
                (
                    (m.splits, m.combines, m.switches, m.pages_written),
                    (m.extra_paging_reads, m.refetched_pages, m.suspended_time),
                )
            };
            assert_eq!(adaptations(now), adaptations(&at_settle), "{adaptation:?}");
            assert_eq!(allowance.version(), 0, "{adaptation:?}");
        }
    }

    #[test]
    fn the_materialised_run_is_the_callers_and_a_failed_finish_leaves_none() {
        use crate::sorter::tests::{FailReads, FailingReads};
        // Ample memory: the root is the only merge step, so with
        // `AfterRootAppend` the failing read is the finish's own.
        let finish = |fail| {
            let store = FailingReads::new(fail);
            let budget = MemoryBudget::new(16);
            let mut done = SortJob::builder()
                .config(small_cfg(16))
                .tuples(random_tuples(2_000, 31))
                .store(store.clone())
                .budget(budget.clone())
                .build()
                .unwrap()
                .run_to_root()
                .unwrap();
            let finished = done.finish_into_run();
            assert_eq!(budget.held(), 0);
            (finished, done, store)
        };

        let (finished, done, store) = finish(FailReads::Never);
        let out = finished.unwrap();
        assert_eq!(store.live_runs(), 1);
        drop(done);
        assert_eq!(store.live_runs(), 1, "the output run outlives the sort");
        assert_eq!(store.run_tuples(out), 2_000);

        let (finished, _done, store) = finish(FailReads::AfterRootAppend);
        assert!(matches!(finished, Err(SortError::CorruptRun { .. })));
        assert_eq!(store.live_runs(), 0, "the half-written output run is gone");
    }

    #[test]
    fn algorithm_and_memory_shorthands() {
        let input = random_tuples(1_000, 11);
        let job = SortJob::builder()
            .config(small_cfg(7))
            .algorithm(AlgorithmSpec::recommended())
            .tuples(input.clone())
            .build()
            .unwrap();
        assert_eq!(job.config().memory_pages, 7);
        let sorted = job.run().unwrap().into_sorted_vec().unwrap();
        assert_sorted_permutation(&input, &sorted);
    }
}
