//! Run storage — where sorted runs live between the split and merge phases.
//!
//! The external sort never assumes anything about where its temporary runs are
//! kept: it talks to a [`RunStore`]. Three families of implementations exist:
//!
//! * [`MemStore`] — runs held in memory; the default for tests, examples and
//!   small inputs.
//! * [`FileStore`] — runs spilled to temporary files on disk, for genuinely
//!   external sorts.
//! * `SimRunStore` (in `masort-dbsim`) — runs that only exist as page counts
//!   plus key streams, with every access charged against the simulated disk
//!   model of the paper.
//!
//! Every data-moving operation returns `Result<_, SortError>`: [`FileStore`]
//! propagates real `io::Error`s, and decoding a damaged run file surfaces
//! [`SortError::CorruptRun`] instead of panicking.

use crate::error::{SortError, SortResult};
use crate::tuple::Page;
use masort_trace::EventKind;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{IoSlice, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

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

// ---------------------------------------------------------------------------
// In-memory store
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// File-backed store
// ---------------------------------------------------------------------------

/// Read page `idx` of `run` — `len` bytes at `offset` of `file` — with one
/// positioned read (where the platform has it) and decode it. The page keeps
/// the buffer it was read into.
fn read_page_at(file: &File, run: RunId, idx: usize, offset: u64, len: usize) -> SortResult<Page> {
    let mut buf = vec![0u8; len];
    #[cfg(unix)]
    let read = std::os::unix::fs::FileExt::read_exact_at(file, &mut buf, offset);
    #[cfg(not(unix))]
    let read = {
        let mut file = file;
        file.seek(SeekFrom::Start(offset))
            .and_then(|_| std::io::Read::read_exact(&mut file, &mut buf))
    };
    read.map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            SortError::corrupt(run, format!("page {idx} truncated: expected {len} byte(s)"))
        } else {
            SortError::Io(e)
        }
    })?;
    Page::decode_shared(&Arc::new(buf), 0, len)
        .map_err(|detail| SortError::corrupt(run, format!("page {idx}: {detail}")))
}

/// Write `pages` back to back into `file` from `offset` on, as one gathered
/// write: every page goes out from where it lies (it is held as its wire
/// encoding). (One write per block, not per page: pages are not multiples of
/// the file system's block size, and every write boundary inside a block
/// costs a partial-block update.)
fn write_pages(file: &mut File, offset: u64, pages: &[Page]) -> std::io::Result<()> {
    let mut slices: Vec<IoSlice<'_>> = pages
        .iter()
        .map(|page| IoSlice::new(page.wire_bytes()))
        .collect();
    let mut rest = &mut slices[..];
    file.seek(SeekFrom::Start(offset))?;
    while !rest.is_empty() {
        match file.write_vectored(rest) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[derive(Debug)]
struct FileRun {
    file: File,
    /// (offset, encoded length) of each page.
    index: Vec<(u64, u32)>,
    tuples: usize,
    write_pos: u64,
    path: PathBuf,
}

/// A [`RunStore`] that spills each run into its own temporary file under a
/// caller-supplied directory.
///
/// Files are deleted when the run is deleted or when the store is dropped.
/// Every file operation propagates its `io::Error`; a run file that no longer
/// decodes (truncated, overwritten) surfaces [`SortError::CorruptRun`].
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
    runs: HashMap<RunId, FileRun>,
    next: RunId,
    own_dir: bool,
    /// Run files whose deletion failed; retried on later store operations and
    /// on drop so a transient unlink failure cannot orphan a file for good.
    trash: Vec<PathBuf>,
    /// Observability handle; disabled by default.
    trace: masort_trace::Trace,
    #[cfg(test)]
    fail_next_append: bool,
    #[cfg(test)]
    fail_next_delete: bool,
}

impl FileStore {
    /// Create a store that places run files inside `dir` (which must exist).
    pub fn new<P: AsRef<Path>>(dir: P) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        if !dir.is_dir() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("run directory {} does not exist", dir.display()),
            ));
        }
        Ok(FileStore {
            dir,
            runs: HashMap::new(),
            next: 0,
            own_dir: false,
            trash: Vec::new(),
            trace: masort_trace::Trace::disabled(),
            #[cfg(test)]
            fail_next_append: false,
            #[cfg(test)]
            fail_next_delete: false,
        })
    }

    /// Create a store in a fresh private directory under the system temp dir.
    pub fn in_temp_dir() -> std::io::Result<Self> {
        let mut dir = std::env::temp_dir();
        let unique = format!(
            "masort-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0)
        );
        dir.push(unique);
        std::fs::create_dir_all(&dir)?;
        let mut s = FileStore::new(&dir)?;
        s.own_dir = true;
        Ok(s)
    }

    /// Directory holding the run files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Always 0: every append is written before it returns, so no write is
    /// ever waited for. Kept only because the benchmark harness calls it;
    /// goes with the next `[benchmark]` PR.
    pub fn write_stall_seconds(&self) -> f64 {
        0.0
    }

    /// Retry deleting any run files whose earlier removal failed.
    fn sweep_trash(&mut self) {
        self.trash.retain(|path| match std::fs::remove_file(path) {
            Ok(()) => false,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
            Err(_) => true,
        });
    }

    /// The append path: one seek and one gathered write for `pages`, however
    /// many there are. On error the file is truncated back to where the
    /// write began (truncate-on-error), so no partially written page
    /// survives and the run stays usable.
    fn append_pages(&mut self, run: RunId, pages: Vec<Page>) -> SortResult<()> {
        #[cfg(test)]
        let injected_failure = std::mem::take(&mut self.fail_next_append);
        #[cfg(not(test))]
        let injected_failure = false;
        let r = self.runs.get_mut(&run).ok_or(SortError::UnknownRun(run))?;
        let start_offset = r.write_pos;
        let result = if injected_failure {
            Err(std::io::Error::other("injected write failure"))
        } else {
            write_pages(&mut r.file, start_offset, &pages)
        };
        if let Err(e) = result {
            let _ = r.file.set_len(start_offset);
            return Err(e.into());
        }
        for p in &pages {
            let len = p.wire_bytes().len();
            r.index.push((r.write_pos, len as u32));
            r.write_pos += len as u64;
            r.tuples += p.len();
        }
        self.trace.emit(EventKind::IoWrite {
            run: run.into(),
            pages: pages.len(),
        });
        Ok(())
    }
}

impl Drop for FileStore {
    fn drop(&mut self) {
        let ids: Vec<RunId> = self.runs.keys().copied().collect();
        for id in ids {
            let _ = self.delete_run(id);
        }
        self.sweep_trash();
        if self.own_dir {
            let _ = std::fs::remove_dir(&self.dir);
        }
    }
}

impl RunStore for FileStore {
    fn create_run(&mut self) -> SortResult<RunId> {
        self.sweep_trash();
        let id = self.next;
        let path = self.dir.join(format!("run-{id}.bin"));
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&path)?;
        self.next += 1;
        self.runs.insert(
            id,
            FileRun {
                file,
                index: Vec::new(),
                tuples: 0,
                write_pos: 0,
                path,
            },
        );
        self.trace.emit(EventKind::RunCreate { run: id.into() });
        Ok(id)
    }

    fn append_page(&mut self, run: RunId, page: Page) -> SortResult<()> {
        self.append_pages(run, vec![page])
    }

    fn append_block(&mut self, run: RunId, pages: Vec<Page>) -> SortResult<()> {
        if pages.is_empty() {
            return Ok(());
        }
        self.append_pages(run, pages)
    }

    fn read_page(&mut self, run: RunId, idx: usize) -> SortResult<Page> {
        let r = self.runs.get(&run).ok_or(SortError::UnknownRun(run))?;
        let &(offset, len) = r.index.get(idx).ok_or_else(|| {
            SortError::corrupt(
                run,
                format!("page {idx} out of range ({} page(s))", r.index.len()),
            )
        })?;
        let page = read_page_at(&r.file, run, idx, offset, len as usize)?;
        self.trace.emit(EventKind::IoRead {
            run: run.into(),
            pages: 1,
        });
        Ok(page)
    }

    fn run_pages(&self, run: RunId) -> usize {
        self.runs.get(&run).map_or(0, |r| r.index.len())
    }

    fn run_tuples(&self, run: RunId) -> usize {
        self.runs.get(&run).map_or(0, |r| r.tuples)
    }

    fn delete_run(&mut self, run: RunId) -> SortResult<()> {
        self.sweep_trash();
        if let Some(r) = self.runs.remove(&run) {
            drop(r.file);
            #[cfg(test)]
            let result = if std::mem::take(&mut self.fail_next_delete) {
                Err(std::io::Error::other("injected delete failure"))
            } else {
                std::fs::remove_file(&r.path)
            };
            #[cfg(not(test))]
            let result = std::fs::remove_file(&r.path);
            match result {
                // Deletes must stay idempotent: a file already removed behind
                // our back must not abort an otherwise-successful sort.
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    // Remember the file so a later operation (or drop) can
                    // retry instead of orphaning it.
                    self.trash.push(r.path);
                    return Err(e.into());
                }
                _ => {}
            }
            self.trace.emit(EventKind::RunDelete { run: run.into() });
        }
        Ok(())
    }

    fn attach_trace(&mut self, trace: masort_trace::Trace) {
        self.trace = trace;
    }
}

/// Test-only helpers shared by error-path tests across modules.
#[cfg(test)]
pub(crate) mod test_util {
    use super::*;

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
mod tests {
    use super::*;
    use crate::tuple::{paginate, Tuple};

    fn sample_pages() -> Vec<Page> {
        let tuples: Vec<Tuple> = (0..10).map(|k| Tuple::synthetic(k, 32)).collect();
        paginate(tuples, 4)
    }

    #[test]
    fn memstore_roundtrip() {
        let mut s = MemStore::new();
        let r = s.create_run().unwrap();
        for p in sample_pages() {
            s.append_page(r, p).unwrap();
        }
        assert_eq!(s.run_pages(r), 3);
        assert_eq!(s.run_tuples(r), 10);
        assert_eq!(s.read_page(r, 1).unwrap().tuples()[0].key, 4);
        let meta = s.meta(r);
        assert_eq!(meta.pages, 3);
        s.delete_run(r).unwrap();
        assert_eq!(s.run_pages(r), 0);
        assert_eq!(s.live_runs(), 0);
    }

    #[test]
    fn memstore_accounts_bytes_from_page_cache() {
        let mut s = MemStore::new();
        let r = s.create_run().unwrap();
        let pages = sample_pages();
        let total: usize = pages.iter().map(Page::bytes).sum();
        assert_eq!(total, 10 * 32, "ten 32-byte synthetic tuples");
        for p in pages {
            s.append_page(r, p).unwrap();
        }
        assert_eq!(s.bytes_written(), total);
        assert_eq!(s.bytes_read(), 0);
        for i in 0..3 {
            s.read_page(r, i).unwrap();
        }
        assert_eq!(s.bytes_read(), total);
    }

    #[test]
    fn memstore_block_append() {
        let mut s = MemStore::new();
        let r = s.create_run().unwrap();
        s.append_block(r, sample_pages()).unwrap();
        assert_eq!(s.run_pages(r), 3);
        assert_eq!(s.pages_written(), 3);
    }

    #[test]
    fn memstore_ids_are_unique() {
        let mut s = MemStore::new();
        let a = s.create_run().unwrap();
        let b = s.create_run().unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn memstore_unknown_run_errors() {
        let mut s = MemStore::new();
        assert!(matches!(
            s.append_page(42, Page::new()),
            Err(SortError::UnknownRun(42))
        ));
        assert!(matches!(s.read_page(42, 0), Err(SortError::UnknownRun(42))));
        // Deleting an unknown run is idempotent, not an error.
        assert!(s.delete_run(42).is_ok());
    }

    #[test]
    fn memstore_out_of_range_page_is_corrupt() {
        let mut s = MemStore::new();
        let r = s.create_run().unwrap();
        assert!(matches!(
            s.read_page(r, 3),
            Err(SortError::CorruptRun { .. })
        ));
    }

    #[test]
    fn filestore_roundtrip_synthetic_and_bytes() {
        let mut s = FileStore::in_temp_dir().unwrap();
        let r = s.create_run().unwrap();
        let page = Page::from_tuples(vec![
            Tuple::synthetic(11, 64),
            Tuple::new(7, vec![1, 2, 3, 4, 5]),
        ]);
        s.append_page(r, page.clone()).unwrap();
        s.append_page(r, Page::from_tuples(vec![Tuple::synthetic(99, 16)]))
            .unwrap();
        assert_eq!(s.run_pages(r), 2);
        assert_eq!(s.run_tuples(r), 3);
        let back = s.read_page(r, 0).unwrap();
        assert_eq!(back, page);
        let back2 = s.read_page(r, 1).unwrap();
        assert_eq!(back2.tuples()[0].key, 99);
    }

    #[test]
    fn filestore_delete_removes_file() {
        let mut s = FileStore::in_temp_dir().unwrap();
        let r = s.create_run().unwrap();
        s.append_page(r, Page::from_tuples(vec![Tuple::synthetic(1, 16)]))
            .unwrap();
        let path = s.dir().join(format!("run-{r}.bin"));
        assert!(path.exists());
        s.delete_run(r).unwrap();
        assert!(!path.exists());
    }

    #[test]
    fn filestore_missing_dir_errors() {
        assert!(FileStore::new("/definitely/not/a/real/dir/xyz").is_err());
    }

    #[test]
    fn filestore_many_runs_interleaved() {
        let mut s = FileStore::in_temp_dir().unwrap();
        let a = s.create_run().unwrap();
        let b = s.create_run().unwrap();
        for i in 0..5u64 {
            s.append_page(a, Page::from_tuples(vec![Tuple::synthetic(i, 32)]))
                .unwrap();
            s.append_page(b, Page::from_tuples(vec![Tuple::synthetic(100 + i, 32)]))
                .unwrap();
        }
        assert_eq!(s.read_page(a, 3).unwrap().tuples()[0].key, 3);
        assert_eq!(s.read_page(b, 2).unwrap().tuples()[0].key, 102);
    }

    #[test]
    fn truncated_page_yields_corrupt_run() {
        let mut s = FileStore::in_temp_dir().unwrap();
        let r = s.create_run().unwrap();
        let tuples: Vec<Tuple> = (0..8).map(|k| Tuple::new(k, vec![7u8; 40])).collect();
        s.append_page(r, Page::from_tuples(tuples)).unwrap();
        // Truncate the file mid-page behind the store's back.
        let path = s.dir().join(format!("run-{r}.bin"));
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(20).unwrap();
        match s.read_page(r, 0) {
            Err(SortError::CorruptRun { run, detail }) => {
                assert_eq!(run, r);
                assert!(detail.contains("truncated"), "detail: {detail}");
            }
            other => panic!("expected CorruptRun, got {other:?}"),
        }
    }

    #[test]
    fn garbage_bytes_yield_corrupt_run_not_panic() {
        let mut s = FileStore::in_temp_dir().unwrap();
        let r = s.create_run().unwrap();
        s.append_page(r, Page::from_tuples(vec![Tuple::new(1, vec![0u8; 64])]))
            .unwrap();
        // Overwrite the page with garbage of the same length.
        let path = s.dir().join(format!("run-{r}.bin"));
        let mut f = OpenOptions::new().write(true).open(&path).unwrap();
        f.write_all(&[0xFFu8; 77]).unwrap();
        f.sync_all().unwrap();
        assert!(matches!(
            s.read_page(r, 0),
            Err(SortError::CorruptRun { .. })
        ));
    }

    #[test]
    fn delete_run_tolerates_already_removed_file() {
        // Cleanup must stay idempotent: a run file removed behind the store's
        // back (tmp cleaner, crash recovery) must not abort the sort when the
        // merge deletes the consumed run.
        let mut s = FileStore::in_temp_dir().unwrap();
        let r = s.create_run().unwrap();
        s.append_page(r, Page::from_tuples(vec![Tuple::synthetic(1, 16)]))
            .unwrap();
        let path = s.dir().join(format!("run-{r}.bin"));
        std::fs::remove_file(&path).unwrap();
        assert!(s.delete_run(r).is_ok());
    }

    /// A page in the tuple-at-a-time encoding this crate used to write, and
    /// plain garbage, are both refused as the corruption they now are — by
    /// the one read path there is, naming the run and the page, never by a
    /// panic.
    #[test]
    fn old_format_and_garbage_pages_are_corrupt_run_on_every_read_path() {
        let mut s = FileStore::in_temp_dir().unwrap();
        let r = s.create_run().unwrap();
        let page = Page::from_tuples(vec![Tuple::new(5, vec![7u8; 4]), Tuple::synthetic(6, 64)]);
        let len = page.wire_bytes().len();
        s.append_page(r, page.clone()).unwrap();
        s.append_page(r, page).unwrap();
        // The old encoding by hand: count, then key | tag | length [| bytes]
        // per tuple; a bytes payload sized to fill the page's slot exactly.
        let mut classic = 2u32.to_le_bytes().to_vec();
        classic.extend_from_slice(&6u64.to_le_bytes());
        classic.push(0); // synthetic
        classic.extend_from_slice(&56u32.to_le_bytes());
        classic.extend_from_slice(&5u64.to_le_bytes());
        classic.push(1); // bytes
        let fill = len - classic.len() - 4;
        classic.extend_from_slice(&(fill as u32).to_le_bytes());
        classic.resize(len, 7);
        let path = s.dir().join(format!("run-{r}.bin"));
        for bad in [classic, vec![0xFFu8; len]] {
            let mut f = OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(len as u64)).unwrap();
            f.write_all(&bad).unwrap();
            f.sync_all().unwrap();
            match s.read_page(r, 1) {
                Err(SortError::CorruptRun { run, detail }) => {
                    assert_eq!(run, r);
                    assert!(detail.starts_with("page 1:"), "{detail}");
                }
                other => panic!("expected CorruptRun, got {other:?}"),
            }
            assert_eq!(s.read_page(r, 0).unwrap().len(), 2, "page 0 is intact");
        }
    }

    #[test]
    fn failed_sync_append_rolls_back_cleanly() {
        let mut s = FileStore::in_temp_dir().unwrap();
        let r = s.create_run().unwrap();
        s.append_page(r, Page::from_tuples(vec![Tuple::synthetic(1, 16)]))
            .unwrap();
        let len_before = std::fs::metadata(s.dir().join(format!("run-{r}.bin")))
            .unwrap()
            .len();

        s.fail_next_append = true;
        let err = s.append_block(r, sample_pages()).unwrap_err();
        assert!(matches!(err, SortError::Io(_)), "{err:?}");

        // No half-written page: index, tuple count and file length unchanged.
        assert_eq!(s.run_pages(r), 1);
        assert_eq!(s.run_tuples(r), 1);
        let len_after = std::fs::metadata(s.dir().join(format!("run-{r}.bin")))
            .unwrap()
            .len();
        assert_eq!(len_before, len_after);
        // The run stays usable: the next append lands and reads back fine.
        s.append_page(r, Page::from_tuples(vec![Tuple::synthetic(2, 16)]))
            .unwrap();
        assert_eq!(s.read_page(r, 1).unwrap().tuples()[0].key, 2);
        assert_eq!(s.read_page(r, 0).unwrap().tuples()[0].key, 1);
    }

    #[test]
    fn failed_delete_is_retried_not_orphaned() {
        let mut s = FileStore::in_temp_dir().unwrap();
        let r = s.create_run().unwrap();
        s.append_page(r, Page::from_tuples(vec![Tuple::synthetic(3, 16)]))
            .unwrap();
        let path = s.dir().join(format!("run-{r}.bin"));

        s.fail_next_delete = true;
        assert!(s.delete_run(r).is_err());
        // The run is gone from the store but its file survived the failed
        // unlink; the store remembers it...
        assert_eq!(s.run_pages(r), 0);
        assert!(path.exists());
        // ...and the next store operation retries the removal.
        let _ = s.create_run().unwrap();
        assert!(!path.exists(), "trash sweep must reclaim the orphan");
    }

    #[test]
    fn drop_reclaims_trashed_files() {
        let dir = std::env::temp_dir().join(format!(
            "masort-trash-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(1)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path;
        {
            let mut s = FileStore::new(&dir).unwrap();
            let r = s.create_run().unwrap();
            s.append_page(r, Page::from_tuples(vec![Tuple::synthetic(3, 16)]))
                .unwrap();
            path = s.dir().join(format!("run-{r}.bin"));
            s.fail_next_delete = true;
            assert!(s.delete_run(r).is_err());
            assert!(path.exists());
        }
        assert!(!path.exists(), "drop must sweep the trash");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The six required methods over a [`MemStore`], and nothing else.
    struct SixMethods(MemStore);

    impl RunStore for SixMethods {
        fn create_run(&mut self) -> SortResult<RunId> {
            self.0.create_run()
        }
        fn append_page(&mut self, run: RunId, page: Page) -> SortResult<()> {
            self.0.append_page(run, page)
        }
        fn read_page(&mut self, run: RunId, idx: usize) -> SortResult<Page> {
            self.0.read_page(run, idx)
        }
        fn run_pages(&self, run: RunId) -> usize {
            self.0.run_pages(run)
        }
        fn run_tuples(&self, run: RunId) -> usize {
            self.0.run_tuples(run)
        }
        fn delete_run(&mut self, run: RunId) -> SortResult<()> {
            self.0.delete_run(run)
        }
    }

    /// Counts the pages that cross into and out of `inner`; a pinned default
    /// reached through it is a failure.
    struct Counted<S> {
        inner: S,
        appended: usize,
        reads: usize,
    }

    impl<S: RunStore> RunStore for Counted<S> {
        fn create_run(&mut self) -> SortResult<RunId> {
            self.inner.create_run()
        }
        fn append_page(&mut self, run: RunId, page: Page) -> SortResult<()> {
            self.appended += 1;
            self.inner.append_page(run, page)
        }
        fn append_block(&mut self, run: RunId, pages: Vec<Page>) -> SortResult<()> {
            self.appended += pages.len();
            self.inner.append_block(run, pages)
        }
        fn read_page(&mut self, run: RunId, idx: usize) -> SortResult<Page> {
            self.reads += 1;
            self.inner.read_page(run, idx)
        }
        fn flush(&mut self) -> SortResult<()> {
            self.inner.flush()
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
        fn read_page_with_scratch(
            &mut self,
            _: RunId,
            _: usize,
            _: &mut Vec<u8>,
        ) -> SortResult<Page> {
            unreachable!("the sort called a pinned default")
        }
        fn read_block(&mut self, _: RunId, _: usize, _: usize) -> SortResult<Vec<Page>> {
            unreachable!("the sort called a pinned default")
        }
        fn block_read_job(&mut self, _: RunId, _: usize, _: usize) -> Option<BlockReadJob> {
            unreachable!("the sort called a pinned default")
        }
        fn attach_io_pool(&mut self, pool: IoPool) {
            // Compiles only while no pool can exist.
            match pool {}
        }
        fn io_pool(&self) -> Option<IoPool> {
            unreachable!("the sort called a pinned default")
        }
        fn set_write_coalescing(&mut self, _: usize) {
            unreachable!("the sort called a pinned default")
        }
    }

    /// The store contract a sort relies on is the six required methods: a
    /// store that implements nothing else sorts a spilling input under the
    /// builder's defaults, every page appended to a run is read back exactly
    /// once, with `read_page`, and no pinned name is ever called.
    #[test]
    fn a_six_method_store_sorts_with_one_page_read_per_page_appended() {
        let input: Vec<Tuple> = (0..6_000u64)
            .map(|i| Tuple::synthetic(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20, 256))
            .collect();
        let mut sort = crate::SortJob::builder()
            .tuples(input.clone())
            .store(Counted {
                inner: SixMethods(MemStore::new()),
                appended: 0,
                reads: 0,
            })
            .build()
            .unwrap()
            .run()
            .unwrap();
        let mut sorted = Vec::new();
        while let Some(page) = sort.next_page().unwrap() {
            sorted.extend(page);
        }
        crate::verify::assert_sorted_permutation(&input, &sorted);
        assert!(sort.outcome.runs_formed() > 1, "the input must spill");
        let input_pages = input.len() / crate::SortConfig::default().tuples_per_page();
        assert!(
            sort.store.appended >= input_pages,
            "every tuple went to a run"
        );
        assert_eq!(sort.store.reads, sort.store.appended);
        assert_eq!(sort.store.inner.0.live_runs(), 0);
    }

    #[test]
    fn create_run_in_removed_directory_errors() {
        let dir = std::env::temp_dir().join(format!("masort-gone-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut s = FileStore::new(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(s.create_run(), Err(SortError::Io(_))));
    }
}
