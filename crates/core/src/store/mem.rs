//! [`MemStore`]: runs held in memory.

use super::{RunId, RunStore};
use crate::error::{SortError, SortResult};
use crate::tuple::Page;
use masort_trace::EventKind;
use std::collections::HashMap;

/// A [`RunStore`] that keeps every run in memory.
#[derive(Debug, Default)]
pub struct MemStore {
    runs: HashMap<RunId, Vec<Page>>,
    tuple_counts: HashMap<RunId, usize>,
    next: RunId,
    pages_written: usize,
    pages_read: usize,
    bytes_written: usize,
    bytes_read: usize,
    trace: masort_trace::Trace,
}

impl MemStore {
    /// Create an empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total pages appended over the store's lifetime (for tests/metrics).
    pub fn pages_written(&self) -> usize {
        self.pages_written
    }

    /// Total pages read over the store's lifetime (for tests/metrics).
    pub fn pages_read(&self) -> usize {
        self.pages_read
    }

    /// Total tuple bytes appended over the store's lifetime. Accounted from
    /// each page's cached byte total ([`Page::bytes`]), so the bookkeeping is
    /// O(1) per append instead of a walk over the page.
    pub fn bytes_written(&self) -> usize {
        self.bytes_written
    }

    /// Total tuple bytes read over the store's lifetime (cached-total
    /// accounting, like [`bytes_written`](Self::bytes_written)).
    pub fn bytes_read(&self) -> usize {
        self.bytes_read
    }

    /// Number of runs currently stored.
    pub fn live_runs(&self) -> usize {
        self.runs.len()
    }
}

impl RunStore for MemStore {
    fn create_run(&mut self) -> SortResult<RunId> {
        let id = self.next;
        self.next += 1;
        self.runs.insert(id, Vec::new());
        self.tuple_counts.insert(id, 0);
        self.trace.emit(EventKind::RunCreate { run: id.into() });
        Ok(id)
    }

    fn append_page(&mut self, run: RunId, page: Page) -> SortResult<()> {
        let count = self
            .tuple_counts
            .get_mut(&run)
            .ok_or(SortError::UnknownRun(run))?;
        self.pages_written += 1;
        self.bytes_written += page.bytes();
        *count += page.len();
        self.runs
            .get_mut(&run)
            .ok_or(SortError::UnknownRun(run))?
            .push(page);
        self.trace.emit(EventKind::IoWrite {
            run: run.into(),
            pages: 1,
        });
        Ok(())
    }

    fn read_page(&mut self, run: RunId, idx: usize) -> SortResult<Page> {
        let pages = self.runs.get(&run).ok_or(SortError::UnknownRun(run))?;
        let page = pages.get(idx).ok_or_else(|| {
            SortError::corrupt(run, format!("page {idx} out of range ({})", pages.len()))
        })?;
        self.pages_read += 1;
        self.bytes_read += page.bytes();
        let page = page.clone();
        self.trace.emit(EventKind::IoRead {
            run: run.into(),
            pages: 1,
        });
        Ok(page)
    }

    fn run_pages(&self, run: RunId) -> usize {
        self.runs.get(&run).map_or(0, Vec::len)
    }

    fn run_tuples(&self, run: RunId) -> usize {
        self.tuple_counts.get(&run).copied().unwrap_or(0)
    }

    fn delete_run(&mut self, run: RunId) -> SortResult<()> {
        if self.runs.remove(&run).is_some() {
            self.trace.emit(EventKind::RunDelete { run: run.into() });
        }
        self.tuple_counts.remove(&run);
        Ok(())
    }

    fn attach_trace(&mut self, trace: masort_trace::Trace) {
        self.trace = trace;
    }
}
