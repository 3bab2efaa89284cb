//! Streaming the sorted result: the stream *is* the final merge step.
//!
//! [`SortJob::run`](crate::job::SortJob::run) stops with the merge tree down
//! to its root step. [`SortedStream`] executes that root on demand: every
//! time its buffer runs dry it does what the merge loop does between pages —
//! poll the budget, adapt (suspend, page, or split off and run preliminary
//! steps), merge about a page — and yields the tuples of the page the root
//! sealed, building each [`Tuple`] only as it is handed out. The root writes
//! no run, so the relation is never stored sorted and never re-read: each
//! tuple is written once (into its formed run, or into a preliminary step's
//! output) and read once per merge level, which is the two page-trips per
//! input page a one-pass merge owes.
//!
//! While the stream lives the sort holds its merge buffers (the budget shows
//! them as held, and takes them back through the configured adaptation); when
//! it ends — drained, dropped early, or failed — every run of the sort is
//! deleted and the held pages drop to zero.
//!
//! There is one stream implementation. A
//! [settled](crate::job::SortCompletion::settle) sort — one whose merge was
//! finished into a stored run, on request or because its budget moved under
//! it — streams through the same code: its root has a single input and
//! buffers of its own instead of the budget's.

use crate::env::{RealEnv, SortEnv};
use crate::error::SortError;
use crate::job::SortCompletion;
use crate::sorter::SortOutcome;
use crate::store::RunStore;
use crate::tuple::{Page, Tuple};

/// An iterator over the tuples of a sort, in sort order, produced by running
/// the sort's final merge step.
///
/// Yields `Result<Tuple, SortError>` so that I/O failures, corrupt run files
/// and cancellation surface mid-stream instead of panicking; after the first
/// error the stream fuses (returns `None` forever).
///
/// However the stream ends — fully drained, dropped after a few tuples (a
/// `LIMIT` downstream), or fused on an error — the sort's runs are deleted
/// from the store, its pages go back to the budget, and the merge phase's
/// closing trace event is emitted.
///
/// Obtain one from
/// [`SortCompletion::into_stream`](crate::job::SortCompletion::into_stream).
#[derive(Debug)]
pub struct SortedStream<S: RunStore, E: SortEnv = RealEnv> {
    sort: SortCompletion<S, E>,
    /// The page of merged records being handed out, and the next one's index.
    page: Page,
    at: usize,
    yielded: usize,
}

impl<S: RunStore, E: SortEnv> SortedStream<S, E> {
    pub(crate) fn new(sort: SortCompletion<S, E>) -> Self {
        SortedStream {
            sort,
            page: Page::new(),
            at: 0,
            yielded: 0,
        }
    }

    /// End the stream (wherever it stands) and return the sort's final
    /// statistics: the whole merge phase including the root step this stream
    /// executed, every delay sample, and the response time up to now.
    pub fn finish(mut self) -> SortOutcome {
        self.sort.close();
        std::mem::take(&mut self.sort.outcome)
    }
}

impl<S: RunStore, E: SortEnv> Iterator for SortedStream<S, E> {
    type Item = Result<Tuple, SortError>;

    fn next(&mut self) -> Option<Self::Item> {
        while self.at == self.page.len() {
            match self.sort.next_page() {
                Ok(Some(page)) => (self.page, self.at) = (page, 0),
                // Exhausted, or closed by an earlier error.
                Ok(None) => return None,
                Err(e) => return Some(Err(e)),
            }
        }
        self.at += 1;
        self.yielded += 1;
        Some(Ok(self.page.get(self.at - 1)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let total = self.sort.outcome.split.total_tuples();
        let buffered = self.page.len() - self.at;
        (buffered, Some(total.saturating_sub(self.yielded)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::MemoryBudget;
    use crate::config::{AlgorithmSpec, SortConfig};
    use crate::error::SortResult;
    use crate::input::{InputSource, VecSource};
    use crate::job::SortJob;
    use crate::store::{FileStore, MemStore, RunId};
    use crate::sync::atomic::{AtomicUsize, Ordering};
    use crate::verify::assert_sorted_permutation;
    use masort_trace::{EventKind, Recorder, SpanId, Trace};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;
    use std::path::{Path, PathBuf};
    use std::sync::Arc;

    fn random_tuples(n: usize, seed: u64) -> Vec<Tuple> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Tuple::synthetic(rng.gen::<u64>(), 64))
            .collect()
    }

    /// 8 tuples per page.
    fn cfg(mem: usize) -> SortConfig {
        SortConfig::default()
            .with_page_size(512)
            .with_tuple_size(64)
            .with_memory_pages(mem)
            .with_algorithm(AlgorithmSpec::recommended())
    }

    /// Files in the directory of a `FileStore` that is still alive.
    fn run_files(dir: &Path) -> usize {
        std::fs::read_dir(dir).unwrap().count()
    }

    fn merge_phase_ends(trace: &Trace) -> usize {
        trace
            .recorder()
            .unwrap()
            .events_for(SpanId::SERVICE)
            .iter()
            .filter(|e| matches!(e.kind, EventKind::PhaseEnd { phase: "merge" }))
            .count()
    }

    /// A `FileStore` whose page reads fail once `ok_reads` of them succeeded,
    /// and whose count of live runs outlives it.
    #[derive(Debug)]
    struct ProbedStore {
        inner: FileStore,
        ok_reads: usize,
        live: HashSet<RunId>,
        live_runs: Arc<AtomicUsize>,
    }

    impl RunStore for ProbedStore {
        fn create_run(&mut self) -> SortResult<RunId> {
            let run = self.inner.create_run()?;
            self.live.insert(run);
            self.live_runs.store(self.live.len(), Ordering::SeqCst);
            Ok(run)
        }
        fn append_page(&mut self, run: RunId, page: Page) -> SortResult<()> {
            self.inner.append_page(run, page)
        }
        fn read_page(&mut self, run: RunId, idx: usize) -> SortResult<Page> {
            match self.ok_reads.checked_sub(1) {
                Some(left) => {
                    self.ok_reads = left;
                    self.inner.read_page(run, idx)
                }
                None => Err(SortError::corrupt(run, "simulated read failure")),
            }
        }
        fn run_pages(&self, run: RunId) -> usize {
            self.inner.run_pages(run)
        }
        fn run_tuples(&self, run: RunId) -> usize {
            self.inner.run_tuples(run)
        }
        fn delete_run(&mut self, run: RunId) -> SortResult<()> {
            self.live.remove(&run);
            self.live_runs.store(self.live.len(), Ordering::SeqCst);
            self.inner.delete_run(run)
        }
    }

    /// What stays observable of a file-backed sort of `n` random tuples once
    /// its completion has been consumed.
    struct Rig {
        input: Vec<Tuple>,
        budget: MemoryBudget,
        trace: Trace,
        dir: PathBuf,
        live_runs: Arc<AtomicUsize>,
    }

    /// An input that moves the sort's budget as it is read: each
    /// `(page, target)` takes effect when input page `page` is served.
    struct MovingInput {
        pages: VecSource,
        served: usize,
        budget: MemoryBudget,
        moves: Vec<(usize, usize)>,
    }

    impl InputSource for MovingInput {
        fn next_page(&mut self) -> SortResult<Option<Page>> {
            for &(_, target) in self.moves.iter().filter(|m| m.0 == self.served) {
                self.budget.set_target(target, 0.0);
            }
            self.served += 1;
            self.pages.next_page()
        }
    }

    /// Sort up to where `run()` stops; reads start failing after `ok_reads`.
    fn rig(n: usize, mem: usize, ok_reads: usize) -> (Rig, SortCompletion<ProbedStore>) {
        rig_moving(n, mem, ok_reads, Vec::new(), false)
    }

    /// [`rig`], with the budget moved during run formation, stopped by
    /// `run()` or (`to_root`) by `run_to_root()`.
    fn rig_moving(
        n: usize,
        mem: usize,
        ok_reads: usize,
        moves: Vec<(usize, usize)>,
        to_root: bool,
    ) -> (Rig, SortCompletion<ProbedStore>) {
        let input = random_tuples(n, n as u64);
        let budget = MemoryBudget::new(mem);
        let trace = Trace::enabled(Recorder::new());
        let store = FileStore::in_temp_dir().unwrap();
        let dir = store.dir().to_path_buf();
        let live_runs = Arc::new(AtomicUsize::new(0));
        let job = SortJob::builder()
            .config(cfg(mem))
            .input(MovingInput {
                pages: VecSource::from_tuples(input.clone(), cfg(mem).tuples_per_page()),
                served: 0,
                budget: budget.clone(),
                moves,
            })
            .store(ProbedStore {
                inner: store,
                ok_reads,
                live: HashSet::new(),
                live_runs: Arc::clone(&live_runs),
            })
            .env(RealEnv::new().with_trace(trace.clone()))
            .budget(budget.clone())
            .build()
            .unwrap();
        let completion = if to_root {
            job.run_to_root()
        } else {
            job.run()
        }
        .unwrap();
        let rig = Rig {
            input,
            budget,
            trace,
            dir,
            live_runs,
        };
        (rig, completion)
    }

    impl Rig {
        /// What every way out of a stream must leave behind. (The run count
        /// is the store's own: once the stream is gone so is the `FileStore`,
        /// which deletes its files regardless.)
        fn assert_cleaned_up(&self) {
            assert_eq!(self.live_runs.load(Ordering::SeqCst), 0, "runs left");
            assert_eq!(self.budget.held(), 0, "pages still held");
            assert_eq!(merge_phase_ends(&self.trace), 1);
        }
    }

    #[test]
    fn run_stops_at_the_root_and_the_stream_executes_it() {
        let (rig, completion) = rig(4_000, 32, usize::MAX);
        // 32 pages hold every run plus an output buffer: no eager step ran,
        // nothing sorted has been written or read yet, the phase is open.
        let at_run = completion.outcome.clone();
        assert!(at_run.runs_formed() > 1);
        assert_eq!(at_run.merge.steps_executed, 0);
        assert_eq!(at_run.merge.tuples_output, 0);
        assert!(at_run.merge.started_at <= at_run.merge.finished_at);
        assert!(at_run.merge.started_at >= at_run.split.finished_at);
        assert!(rig.budget.held() > 1, "the parked root holds its buffers");
        assert_eq!(run_files(&rig.dir), at_run.runs_formed());
        assert_eq!(merge_phase_ends(&rig.trace), 0);

        let mut stream = completion.into_stream();
        let sorted: Vec<Tuple> = stream.by_ref().map(Result::unwrap).collect();
        assert_sorted_permutation(&rig.input, &sorted);
        assert_eq!(sorted.len(), 4_000);
        assert!(stream.next().is_none());
        assert_eq!(run_files(&rig.dir), 0);
        assert_eq!(rig.budget.held(), 0);
        assert_eq!(merge_phase_ends(&rig.trace), 1);

        // One merge step that read every run page once and wrote nothing.
        let done = stream.finish();
        assert_eq!(done.merge.steps_executed, 1);
        assert_eq!(done.merge.tuples_output, 4_000);
        assert_eq!(done.merge.pages_read, done.split.pages_written);
        assert_eq!(done.merge.pages_written, 0);
        assert!(done.merge.finished_at > at_run.merge.finished_at);
        assert!(done.response_time > at_run.response_time);
        assert_eq!(merge_phase_ends(&rig.trace), 1, "finish() ended it twice");
    }

    #[test]
    fn a_budget_moved_under_the_sort_makes_run_settle_instead_of_parking() {
        // 750 input pages; the budget dips to 8 pages and is back at 32 long
        // before the merge starts, where every run fits one step again.
        let moves = vec![(100, 8), (200, 32)];
        let (rig, completion) = rig_moving(6_000, 32, usize::MAX, moves, false);
        let at_run = completion.outcome.clone();
        assert!(at_run.runs_formed() > 4);
        // Whoever moved the budget must not wait on this sort's consumer:
        // the merge is over, written, and holds nothing.
        assert_eq!(rig.budget.held(), 0);
        assert_eq!(merge_phase_ends(&rig.trace), 1);
        assert_eq!(run_files(&rig.dir), 1);
        assert_eq!(at_run.merge.tuples_output, 6_000);
        assert_eq!(at_run.merge.pages_written, 750);
        assert!(at_run.merge.steps_executed >= 1);

        let mut stream = completion.into_stream();
        let sorted: Vec<Tuple> = stream.by_ref().map(Result::unwrap).collect();
        assert_sorted_permutation(&rig.input, &sorted);
        assert_eq!(stream.finish().merge, at_run.merge);
        rig.assert_cleaned_up();
    }

    #[test]
    fn run_to_root_parks_whatever_happened_to_the_budget() {
        // The same sort under the same moves, entered by the owner that
        // keeps driving the root: nothing is settled on its behalf.
        let moves = vec![(100, 8), (200, 32)];
        let (rig, completion) = rig_moving(6_000, 32, usize::MAX, moves, true);
        let at_root = completion.outcome.clone();
        assert_eq!(at_root.runs_formed(), run_files(&rig.dir));
        assert!(rig.budget.held() > 1, "the parked root holds its buffers");
        assert_eq!(merge_phase_ends(&rig.trace), 0);
        assert_eq!(at_root.merge.tuples_output, 0);
        assert_eq!(at_root.merge.pages_written, 0);
        assert_eq!(at_root.delays.len(), 1, "the dip was answered in the split");

        let mut stream = completion.into_stream();
        let sorted: Vec<Tuple> = stream.by_ref().map(Result::unwrap).collect();
        assert_sorted_permutation(&rig.input, &sorted);
        assert_eq!(stream.finish().merge.pages_written, 0);
        rig.assert_cleaned_up();
    }

    #[test]
    fn a_single_run_is_streamed_as_it_lies() {
        // The whole input fits in memory: one run, which the stream reads
        // directly instead of copying it through a 1-input merge step.
        let (rig, completion) = rig(100, 32, usize::MAX);
        assert_eq!(completion.outcome.runs_formed(), 1);
        assert_eq!(run_files(&rig.dir), 1);
        let mut stream = completion.into_stream();
        let sorted: Vec<Tuple> = stream.by_ref().map(Result::unwrap).collect();
        assert_sorted_permutation(&rig.input, &sorted);
        assert_eq!(run_files(&rig.dir), 0);
        let done = stream.finish();
        assert_eq!(done.merge.pages_written, 0);
        assert_eq!(done.merge.pages_read, done.split.pages_written);
    }

    #[test]
    fn empty_input_creates_no_run_and_streams_nothing() {
        let (rig, completion) = rig(0, 8, usize::MAX);
        assert_eq!(completion.outcome.runs_formed(), 0);
        assert_eq!(run_files(&rig.dir), 0, "no output run to create");
        let mut stream = completion.into_stream();
        assert!(stream.next().is_none());
        assert_eq!(stream.size_hint(), (0, Some(0)));
        assert_eq!(run_files(&rig.dir), 0);
        assert_eq!(stream.finish().merge.pages_written, 0);
        rig.assert_cleaned_up();
    }

    #[test]
    fn a_fully_drained_stream_cleans_up() {
        let (rig, completion) = rig(3_000, 32, usize::MAX);
        let mut stream = completion.into_stream();
        assert_eq!(stream.by_ref().count(), 3_000);
        assert_eq!(run_files(&rig.dir), 0);
        rig.assert_cleaned_up();
    }

    #[test]
    fn a_stream_dropped_early_cleans_up() {
        // A `LIMIT 10` consumer.
        let (rig, completion) = rig(3_000, 32, usize::MAX);
        let runs = completion.outcome.runs_formed();
        let mut stream = completion.into_stream();
        let first: Vec<u64> = stream.by_ref().take(10).map(|t| t.unwrap().key).collect();
        assert!(first.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(
            run_files(&rig.dir),
            runs,
            "inputs live while the merge does"
        );
        assert!(rig.budget.held() > 0);
        // `finish` is a drop that reports: the same clean-up, plus the books.
        let done = stream.finish();
        assert_eq!(
            done.merge.tuples_output, 16,
            "two pages of 8 cover 10 tuples"
        );
        assert!(done.merge.pages_read >= runs, "partial reads are accounted");
        rig.assert_cleaned_up();
    }

    #[test]
    fn a_completion_dropped_unread_cleans_up() {
        let (rig, completion) = rig(3_000, 32, usize::MAX);
        assert!(rig.budget.held() > 0);
        drop(completion);
        rig.assert_cleaned_up();
    }

    #[test]
    fn a_mid_stream_error_fuses_the_stream_and_cleans_up() {
        // Each of the runs gets its first page read; a later read fails.
        let (rig, completion) = rig(3_000, 32, 40);
        let mut stream = completion.into_stream();
        let mut yielded = 0;
        let err = loop {
            match stream.next().expect("the failure comes before the end") {
                Ok(_) => yielded += 1,
                Err(e) => break e,
            }
        };
        assert!(matches!(err, SortError::CorruptRun { .. }), "{err:?}");
        assert!(yielded > 0 && yielded < 3_000);
        assert!(stream.next().is_none(), "stream must fuse after an error");
        assert!(stream.next().is_none());
        assert_eq!(run_files(&rig.dir), 0);
        rig.assert_cleaned_up();
    }

    #[test]
    fn a_shrink_mid_stream_splits_the_root_and_the_stream_goes_on() {
        let (rig, completion) = rig(6_000, 32, usize::MAX);
        let runs = completion.outcome.runs_formed();
        assert!(runs > 4);
        let mut stream = completion.into_stream();
        let mut sorted: Vec<Tuple> = stream.by_ref().take(500).map(Result::unwrap).collect();
        // Take the memory away while the root is mid-merge: the next refill
        // must split it, run the preliminary step into a run, and resume.
        rig.budget.set_target(3, 0.0);
        sorted.extend(stream.by_ref().take(500).map(Result::unwrap));
        assert!(rig.budget.held() <= 3);
        rig.budget.set_target(32, 0.0);
        sorted.extend(stream.by_ref().map(Result::unwrap));
        assert_sorted_permutation(&rig.input, &sorted);
        let done = stream.finish();
        assert!(done.merge.splits >= 1, "{:?}", done.merge);
        assert!(done.merge.pages_written > 0, "child steps still write runs");
        assert!(done.merge.steps_executed >= 2);
        assert_eq!(done.delays.len(), 1, "one shrink, one delay sample");
        rig.assert_cleaned_up();
    }

    #[test]
    fn cancelling_the_budget_mid_stream_ends_it_with_cancelled() {
        let (rig, completion) = rig(3_000, 32, usize::MAX);
        let mut stream = completion.into_stream();
        assert_eq!(stream.by_ref().take(100).filter(Result::is_ok).count(), 100);
        rig.budget.cancel();
        let rest: Vec<_> = stream.by_ref().collect();
        assert!(matches!(rest.last(), Some(Err(SortError::Cancelled))));
        assert!(
            rest.len() <= cfg(32).tuples_per_page(),
            "only the buffered page"
        );
        rig.assert_cleaned_up();
    }

    #[test]
    fn settle_finishes_the_merge_and_frees_the_budget_before_any_read() {
        let (rig, completion) = rig(4_000, 32, usize::MAX);
        let streamed = {
            let (_, twin) = self::rig(4_000, 32, usize::MAX);
            twin.into_sorted_vec().unwrap()
        };
        let settled = completion.settle().unwrap();
        // The merge is over and nothing of the grant is pinned, though not a
        // tuple has been read: what is left is one stored run.
        assert_eq!(rig.budget.held(), 0);
        assert_eq!(merge_phase_ends(&rig.trace), 1);
        assert_eq!(run_files(&rig.dir), 1);
        let merge = settled.outcome.merge.clone();
        assert_eq!(merge.steps_executed, 1);
        assert_eq!(merge.tuples_output, 4_000);
        assert!(merge.pages_written >= 4_000 / 8);

        let mut stream = settled.into_stream();
        let sorted: Vec<Tuple> = stream.by_ref().map(Result::unwrap).collect();
        assert_eq!(sorted, streamed, "settled output == streamed output");
        assert_eq!(rig.budget.held(), 0, "reading a settled run pins nothing");
        assert_eq!(stream.finish().merge, merge, "the books closed at settle");
        rig.assert_cleaned_up();
    }

    #[test]
    fn settling_a_single_run_or_an_empty_sort_is_free() {
        for n in [100, 0] {
            let (rig, completion) = rig(n, 32, usize::MAX);
            let settled = completion.settle().unwrap();
            assert_eq!(settled.outcome.merge.pages_written, 0);
            assert_eq!(settled.outcome.merge.pages_read, 0);
            assert_eq!(rig.budget.held(), 0);
            let sorted = settled.into_sorted_vec().unwrap();
            assert_sorted_permutation(&rig.input, &sorted);
        }
    }

    #[test]
    fn a_failed_settle_cleans_up_too() {
        let (rig, completion) = rig(3_000, 32, 40);
        let err = completion.settle().unwrap_err();
        assert!(matches!(err, SortError::CorruptRun { .. }), "{err:?}");
        rig.assert_cleaned_up();
    }

    #[test]
    fn size_hint_upper_bound_tracks_remaining() {
        let input = random_tuples(50, 3);
        let mut stream = SortJob::builder()
            .config(cfg(4))
            .tuples(input)
            .store(MemStore::new())
            .build()
            .unwrap()
            .run()
            .unwrap()
            .into_stream();
        assert_eq!(stream.size_hint(), (0, Some(50)));
        stream.next();
        let (lower, upper) = stream.size_hint();
        assert_eq!(upper, Some(49));
        assert!((1..=49).contains(&lower));
        assert_eq!(stream.by_ref().count(), 49);
        assert_eq!(stream.size_hint(), (0, Some(0)));
    }
}
