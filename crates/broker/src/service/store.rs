//! Where a service job keeps its runs.

use masort_core::{FileStore, MemStore, Page, RunId, RunStore, SortResult};

/// Where a job's runs (and its output run) are stored.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RunStorage {
    /// Runs held in memory ([`MemStore`]); the default.
    #[default]
    InMemory,
    /// Runs spilled to a fresh temporary directory ([`FileStore`]) — a
    /// genuinely external sort. The directory is created when the job starts
    /// (not while it queues).
    TempDisk,
}

/// The run store a service job executes against: in-memory or a temporary
/// directory, behind one concrete type so every
/// [`JobReport`](crate::ticket::JobReport) streams the same way.
#[derive(Debug)]
pub enum ServiceStore {
    /// Runs held in memory.
    Mem(MemStore),
    /// Runs spilled to a temporary directory.
    Temp(FileStore),
}

impl ServiceStore {
    fn inner(&self) -> &dyn RunStore {
        match self {
            ServiceStore::Mem(s) => s,
            ServiceStore::Temp(s) => s,
        }
    }

    fn inner_mut(&mut self) -> &mut dyn RunStore {
        match self {
            ServiceStore::Mem(s) => s,
            ServiceStore::Temp(s) => s,
        }
    }
}

impl RunStore for ServiceStore {
    fn create_run(&mut self) -> SortResult<RunId> {
        self.inner_mut().create_run()
    }

    fn append_page(&mut self, run: RunId, page: Page) -> SortResult<()> {
        self.inner_mut().append_page(run, page)
    }

    fn append_block(&mut self, run: RunId, pages: Vec<Page>) -> SortResult<()> {
        self.inner_mut().append_block(run, pages)
    }

    fn read_page(&mut self, run: RunId, idx: usize) -> SortResult<Page> {
        self.inner_mut().read_page(run, idx)
    }

    fn attach_trace(&mut self, trace: masort_trace::Trace) {
        self.inner_mut().attach_trace(trace)
    }

    fn flush(&mut self) -> SortResult<()> {
        self.inner_mut().flush()
    }

    fn run_pages(&self, run: RunId) -> usize {
        self.inner().run_pages(run)
    }

    fn run_tuples(&self, run: RunId) -> usize {
        self.inner().run_tuples(run)
    }

    fn delete_run(&mut self, run: RunId) -> SortResult<()> {
        self.inner_mut().delete_run(run)
    }
}

pub(super) fn build_store(storage: RunStorage) -> SortResult<ServiceStore> {
    match storage {
        RunStorage::InMemory => Ok(ServiceStore::Mem(MemStore::new())),
        RunStorage::TempDisk => Ok(ServiceStore::Temp(FileStore::in_temp_dir()?)),
    }
}
