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
    trace: masort_trace::Trace,
}

impl MemStore {
    /// Create an empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of runs currently stored.
    #[cfg(test)]
    pub(crate) fn live_runs(&self) -> usize {
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
