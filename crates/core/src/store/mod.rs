//! Run storage — where sorted runs live between the split and merge phases.
//!
//! The external sort never assumes anything about where its temporary runs are
//! kept: it talks to a [`RunStore`]. Three families of implementations exist:
//!
//! * [`MemStore`] — runs held in memory; the default for tests, examples and
//!   small inputs.
//! * [`FileStore`] — runs spilled to disk, for genuinely external sorts: in
//!   byte ranges of one unnamed temporary file per store, reused as runs are
//!   deleted (as the paper allocates every run from one temporary area).
//! * `SimRunStore` (in `masort-dbsim`) — runs that only exist as page counts
//!   plus key streams, with every access charged against the simulated disk
//!   model of the paper.
//!
//! Every data-moving operation returns `Result<_, SortError>`: [`FileStore`]
//! propagates real `io::Error`s, and decoding a damaged page surfaces
//! [`SortError::CorruptRun`](crate::error::SortError::CorruptRun) instead of
//! panicking.

use crate::error::SortResult;
use crate::tuple::Page;

mod file;
mod mem;

pub use file::FileStore;
pub use mem::MemStore;

/// What [`RunStore::block_read_job`] would return. No store produces one;
/// the name is kept only because the benchmark harness spells it.
pub type BlockReadJob = Box<dyn FnOnce() -> SortResult<Vec<Page>> + Send + 'static>;

/// The argument of [`RunStore::attach_io_pool`]. There is no background I/O
/// pool: the type has no value, so none can be attached. The name is kept
/// only because the benchmark harness spells it.
#[derive(Debug)]
pub enum IoPool {}

/// Identifier of a run within a [`RunStore`].
pub type RunId = u32;

/// Physical key order of a stored run's pages.
///
/// Classic run formation always writes runs in output order (`Forward`).
/// Adaptive (up/down) replacement selection additionally emits runs whose
/// ranks *descend* through the file (`Reversed`); the merge layer reads such
/// runs back-to-front so every cursor still presents an ascending rank
/// stream. The flag is pure metadata riding on [`RunMeta`] — page encodings
/// are identical either way, so forward and reversed runs coexist in one
/// store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RunDirection {
    /// Pages (and tuples within pages) are stored in output order.
    #[default]
    Forward,
    /// Pages and tuples are stored in reverse output order; read back-to-front.
    Reversed,
}

/// Summary information about a finished run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunMeta {
    /// The run's identifier.
    pub id: RunId,
    /// Number of pages in the run.
    pub pages: usize,
    /// Number of tuples in the run.
    pub tuples: usize,
    /// Physical key order of the stored pages.
    pub dir: RunDirection,
}

/// Abstract storage for sorted runs.
///
/// Implementations decide where pages live and what each access costs; the
/// sort algorithms only append pages in order during run formation /
/// preliminary merges and read pages (mostly sequentially per run) while
/// merging. All page movement is fallible; metadata queries
/// ([`run_pages`](Self::run_pages), [`run_tuples`](Self::run_tuples)) are
/// served from in-memory bookkeeping and report 0 for unknown runs.
pub trait RunStore {
    /// Create a new, empty run and return its id.
    fn create_run(&mut self) -> SortResult<RunId>;

    /// Append one page to the end of `run`.
    fn append_page(&mut self, run: RunId, page: Page) -> SortResult<()>;

    /// Append several pages at once (a *block write*). Implementations that
    /// model I/O cost should charge a single seek for the whole block.
    fn append_block(&mut self, run: RunId, pages: Vec<Page>) -> SortResult<()> {
        for p in pages {
            self.append_page(run, p)?;
        }
        Ok(())
    }

    /// Read page `idx` of `run`.
    fn read_page(&mut self, run: RunId, idx: usize) -> SortResult<Page>;

    /// Make every append accepted so far durable on the backing medium,
    /// surfacing any write error the store deferred. The stores in this
    /// workspace write through on every append, so theirs is the default
    /// no-op; a custom store that buffers relies on the sort calling this
    /// after its phases (on success and on error) and before a settled
    /// result is read.
    fn flush(&mut self) -> SortResult<()> {
        Ok(())
    }

    /// Attach an observability handle. Stores that support it start emitting
    /// run-lifecycle ([`RunCreate`](masort_trace::EventKind::RunCreate) /
    /// [`RunDelete`](masort_trace::EventKind::RunDelete)) and I/O
    /// (`IoRead` / `IoWrite`) events, one per store call; the default ignores
    /// the handle and stays silent.
    fn attach_trace(&mut self, _trace: masort_trace::Trace) {}

    /// Number of pages currently in `run` (0 for unknown runs).
    fn run_pages(&self, run: RunId) -> usize;

    /// Number of tuples currently in `run` (0 for unknown runs).
    fn run_tuples(&self, run: RunId) -> usize;

    /// Delete `run` and release its storage. Deleting an unknown run is not
    /// an error (deletes must be idempotent so cleanup paths can't fail).
    fn delete_run(&mut self, run: RunId) -> SortResult<()>;

    /// Metadata snapshot for `run`. Stores only track sizes, so the snapshot
    /// always reports [`RunDirection::Forward`]; run formation overrides the
    /// direction on the metadata it records in its statistics.
    fn meta(&self, run: RunId) -> RunMeta {
        RunMeta {
            id: run,
            pages: self.run_pages(run),
            tuples: self.run_tuples(run),
            dir: RunDirection::Forward,
        }
    }

    // -----------------------------------------------------------------
    // Pinned names. The sort calls none of the methods below and no store in
    // the workspace overrides one; each is kept, with the default that does
    // nothing beyond `read_page`, only because the benchmark harness's store
    // wrapper forwards it by name. They go with the next `[benchmark]` PR.
    // -----------------------------------------------------------------

    /// [`read_page`](Self::read_page) under a former name; `scratch` is
    /// ignored. Pinned (see above).
    fn read_page_with_scratch(
        &mut self,
        run: RunId,
        idx: usize,
        scratch: &mut Vec<u8>,
    ) -> SortResult<Page> {
        let _ = scratch;
        self.read_page(run, idx)
    }

    /// `len` calls of [`read_page`](Self::read_page) from page `start` on.
    /// Pinned (see above).
    fn read_block(&mut self, run: RunId, start: usize, len: usize) -> SortResult<Vec<Page>> {
        (start..start + len)
            .map(|idx| self.read_page(run, idx))
            .collect()
    }

    /// Always `None`: reads happen on the calling thread. Pinned (see above).
    fn block_read_job(&mut self, _run: RunId, _start: usize, _len: usize) -> Option<BlockReadJob> {
        None
    }

    /// Cannot be called: [`IoPool`] has no value. Pinned (see above).
    fn attach_io_pool(&mut self, _pool: IoPool) {}

    /// Always `None`. Pinned (see above).
    fn io_pool(&self) -> Option<IoPool> {
        None
    }

    /// Does nothing: every append is written through. Pinned (see above).
    fn set_write_coalescing(&mut self, _pages: usize) {}
}

/// Test-only helpers shared by error-path tests across modules.
#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use crate::error::SortError;

    /// A [`RunStore`] wrapper whose page reads always fail with
    /// [`SortError::CorruptRun`]; everything else delegates to a [`MemStore`].
    pub(crate) struct FailingReadStore {
        pub(crate) inner: MemStore,
    }

    impl RunStore for FailingReadStore {
        fn create_run(&mut self) -> SortResult<RunId> {
            self.inner.create_run()
        }
        fn append_page(&mut self, run: RunId, page: Page) -> SortResult<()> {
            self.inner.append_page(run, page)
        }
        fn read_page(&mut self, run: RunId, _idx: usize) -> SortResult<Page> {
            Err(SortError::corrupt(run, "simulated read failure"))
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
}

#[cfg(test)]
mod tests;
