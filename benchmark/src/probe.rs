//! The harness's wrappers around the sort's input source and run store.
//!
//! They sit where the sort calls out to its neighbours, so they can count
//! every page that crosses, time each crossing when a rep is traced, and —
//! for `file_wobble` — move the memory budget on a schedule counted in pages
//! of progress rather than in seconds, which is what makes that workload's
//! schedule and every one of its counts repeat exactly.

use crate::trace::{Span, SpanTree};
use masort_core::{
    BlockReadJob, InputSource, IoPool, MemoryBudget, Page, RunId, RunMeta, RunStore, SortResult,
};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Page and call counts at the two boundaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub decode_pages: usize,
    pub append_calls: usize,
    pub append_pages: usize,
    pub read_calls: usize,
    pub read_pages: usize,
    /// Most run pages alive in the store at once.
    pub peak_live_pages: usize,
    /// Downward budget moves the wobble schedule issued.
    pub shrink_requests: usize,
}

/// Toggle a budget between `hi` and `lo` pages every `period` pages of
/// progress (input pages served plus run pages read).
#[derive(Debug)]
pub struct Wobble {
    pub budget: MemoryBudget,
    pub hi: usize,
    pub lo: usize,
    pub period: usize,
}

struct State {
    tree: SpanTree,
    counts: Counts,
    live_pages: usize,
    wobble: Option<Wobble>,
    progress: usize,
}

/// Shared handle of one rep's wrappers. `Arc<Mutex<_>>` rather than
/// `Rc<RefCell<_>>` so the wrappers stay `Send` wherever the wrapped source
/// and store are.
#[derive(Clone)]
pub struct Probe {
    clock: Instant,
    timed: bool,
    state: Arc<Mutex<State>>,
}

impl Probe {
    /// `clock` must be the origin the sort's environment uses, so wrapper
    /// spans and the sort's own phase timestamps share one time line.
    pub fn new(clock: Instant, timed: bool, wobble: Option<Wobble>) -> Self {
        Probe {
            clock,
            timed,
            state: Arc::new(Mutex::new(State {
                tree: SpanTree::default(),
                counts: Counts::default(),
                live_pages: 0,
                wobble,
                progress: 0,
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("probe mutex is never held across a panic")
    }

    pub fn now(&self) -> f64 {
        self.clock.elapsed().as_secs_f64()
    }

    /// Run `call`; when this rep is traced, record it as a span.
    pub fn span<T>(&self, name: &'static str, call: impl FnOnce() -> T) -> T {
        if !self.timed {
            return call();
        }
        let start = self.now();
        let value = call();
        let end = self.now();
        self.lock().tree.push(Span {
            name,
            start,
            end,
            parent: None,
            job: 0,
        });
        value
    }

    /// Account `pages` of progress in the locked `state` and move the budget
    /// when the wobble schedule says so. The clock is read only then, so an
    /// untraced rep of a fixed-budget workload never reads it here.
    fn progress(&self, state: &mut State, pages: usize) {
        let Some(wobble) = &state.wobble else {
            return;
        };
        let before = state.progress / wobble.period;
        state.progress += pages;
        for step in before + 1..=state.progress / wobble.period {
            // Odd steps shrink, even steps restore.
            let target = if step % 2 == 1 { wobble.lo } else { wobble.hi };
            state.counts.shrink_requests += usize::from(target == wobble.lo);
            wobble.budget.set_target(target, self.now());
        }
    }

    /// Stop moving the budget (the sort is over; draining reads on).
    pub fn stop_wobble(&self) {
        self.lock().wobble = None;
    }

    pub fn counts(&self) -> Counts {
        self.lock().counts
    }

    /// Take the spans recorded so far.
    pub fn take_tree(&self) -> SpanTree {
        std::mem::take(&mut self.lock().tree)
    }
}

/// An [`InputSource`] that reports every page it serves.
pub struct ProbedSource<I> {
    inner: I,
    probe: Probe,
}

impl<I> ProbedSource<I> {
    pub fn new(inner: I, probe: Probe) -> Self {
        ProbedSource { inner, probe }
    }
}

impl<I: InputSource> InputSource for ProbedSource<I> {
    fn next_page(&mut self) -> SortResult<Option<Page>> {
        let page = self
            .probe
            .span("gensort.decode", || self.inner.next_page())?;
        if page.is_some() {
            let mut state = self.probe.lock();
            state.counts.decode_pages += 1;
            self.probe.progress(&mut state, 1);
        }
        Ok(page)
    }

    fn total_pages(&self) -> Option<usize> {
        self.inner.total_pages()
    }

    fn total_tuples(&self) -> Option<usize> {
        self.inner.total_tuples()
    }
}

/// A [`RunStore`] that reports every page that goes in or out. It forwards
/// every method the trait has except `attach_trace` (whose argument type
/// lives in a crate the harness does not depend on), so the store behaves
/// exactly as it would unwrapped.
pub struct ProbedStore<S> {
    pub inner: S,
    probe: Probe,
}

impl<S> ProbedStore<S> {
    pub fn new(inner: S, probe: Probe) -> Self {
        ProbedStore { inner, probe }
    }
}

impl<S: RunStore> ProbedStore<S> {
    fn appended(&mut self, pages: usize) {
        let mut state = self.probe.lock();
        state.counts.append_calls += 1;
        state.counts.append_pages += pages;
        state.live_pages += pages;
        state.counts.peak_live_pages = state.counts.peak_live_pages.max(state.live_pages);
    }

    fn read(&mut self, pages: usize) {
        let mut state = self.probe.lock();
        state.counts.read_calls += 1;
        state.counts.read_pages += pages;
        self.probe.progress(&mut state, pages);
    }
}

impl<S: RunStore> RunStore for ProbedStore<S> {
    fn create_run(&mut self) -> SortResult<RunId> {
        self.inner.create_run()
    }

    fn append_page(&mut self, run: RunId, page: Page) -> SortResult<()> {
        self.probe
            .span("store.append", || self.inner.append_page(run, page))?;
        self.appended(1);
        Ok(())
    }

    fn append_block(&mut self, run: RunId, pages: Vec<Page>) -> SortResult<()> {
        let n = pages.len();
        self.probe
            .span("store.append", || self.inner.append_block(run, pages))?;
        self.appended(n);
        Ok(())
    }

    fn read_page(&mut self, run: RunId, idx: usize) -> SortResult<Page> {
        let page = self
            .probe
            .span("store.read", || self.inner.read_page(run, idx))?;
        self.read(1);
        Ok(page)
    }

    fn read_page_with_scratch(
        &mut self,
        run: RunId,
        idx: usize,
        scratch: &mut Vec<u8>,
    ) -> SortResult<Page> {
        let page = self.probe.span("store.read", || {
            self.inner.read_page_with_scratch(run, idx, scratch)
        })?;
        self.read(1);
        Ok(page)
    }

    fn read_block(&mut self, run: RunId, start: usize, len: usize) -> SortResult<Vec<Page>> {
        let pages = self
            .probe
            .span("store.read", || self.inner.read_block(run, start, len))?;
        self.read(pages.len());
        Ok(pages)
    }

    fn block_read_job(&mut self, run: RunId, start: usize, len: usize) -> Option<BlockReadJob> {
        // The job itself runs on a background thread, outside any span; the
        // pages still count as read.
        let job = self.inner.block_read_job(run, start, len)?;
        self.read(len);
        Some(job)
    }

    fn attach_io_pool(&mut self, pool: IoPool) {
        self.inner.attach_io_pool(pool)
    }

    fn io_pool(&self) -> Option<IoPool> {
        self.inner.io_pool()
    }

    fn flush(&mut self) -> SortResult<()> {
        self.probe.span("store.flush", || self.inner.flush())
    }

    fn set_write_coalescing(&mut self, pages: usize) {
        self.inner.set_write_coalescing(pages)
    }

    fn run_pages(&self, run: RunId) -> usize {
        self.inner.run_pages(run)
    }

    fn run_tuples(&self, run: RunId) -> usize {
        self.inner.run_tuples(run)
    }

    fn delete_run(&mut self, run: RunId) -> SortResult<()> {
        let pages = self.inner.run_pages(run);
        self.probe
            .span("store.delete", || self.inner.delete_run(run))?;
        let mut state = self.probe.lock();
        state.live_pages = state.live_pages.saturating_sub(pages);
        Ok(())
    }

    fn meta(&self, run: RunId) -> RunMeta {
        self.inner.meta(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use masort_core::{MemStore, Tuple};

    fn page() -> Page {
        Page::from_tuples(vec![Tuple::synthetic(1, 64)])
    }

    #[test]
    fn store_wrapper_counts_pages_and_tracks_the_live_peak() {
        let probe = Probe::new(Instant::now(), true, None);
        let mut store = ProbedStore::new(MemStore::new(), probe.clone());
        let a = store.create_run().unwrap();
        store.append_block(a, vec![page(), page(), page()]).unwrap();
        let b = store.create_run().unwrap();
        store.append_page(b, page()).unwrap();
        store.read_page(a, 0).unwrap();
        store.delete_run(a).unwrap();
        store.append_page(b, page()).unwrap();

        let counts = probe.counts();
        assert_eq!(counts.append_calls, 3);
        assert_eq!(counts.append_pages, 5);
        assert_eq!(counts.read_pages, 1);
        assert_eq!(counts.peak_live_pages, 4);
        let tree = probe.take_tree();
        assert_eq!(tree.durations_ms("store.append").len(), 3);
        assert_eq!(tree.durations_ms("store.delete").len(), 1);
    }

    #[test]
    fn untimed_probe_counts_but_records_no_spans() {
        let probe = Probe::new(Instant::now(), false, None);
        let mut store = ProbedStore::new(MemStore::new(), probe.clone());
        let run = store.create_run().unwrap();
        store.append_page(run, page()).unwrap();
        assert_eq!(probe.counts().append_pages, 1);
        assert!(probe.take_tree().spans.is_empty());
    }

    #[test]
    fn wobble_toggles_on_page_counts_not_on_time() {
        let budget = MemoryBudget::new(8);
        let probe = Probe::new(
            Instant::now(),
            false,
            Some(Wobble {
                budget: budget.clone(),
                hi: 8,
                lo: 2,
                period: 4,
            }),
        );
        let mut targets = Vec::new();
        for _ in 0..5 {
            probe.progress(&mut probe.lock(), 3);
            targets.push(budget.target());
        }
        // Progress 3, 6, 9, 12, 15 crosses 4, 8 and 12.
        assert_eq!(targets, [8, 2, 8, 2, 2]);
        assert_eq!(probe.counts().shrink_requests, 2);
        probe.stop_wobble();
        probe.progress(&mut probe.lock(), 100);
        assert_eq!(budget.target(), 2);
    }
}
