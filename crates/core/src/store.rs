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
use crate::io::{IoHandle, IoPool};
use crate::tuple::Page;
use masort_trace::EventKind;
use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{IoSlice, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// A one-shot batched read that can execute on a background thread: reads and
/// decodes a contiguous range of pages without touching the store again.
/// Produced by [`RunStore::block_read_job`].
pub type BlockReadJob = Box<dyn FnOnce() -> SortResult<Vec<Page>> + Send + 'static>;

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

    /// [`read_page`](Self::read_page) under its former name: a page keeps the
    /// buffer it was read into, so no store has a use for `scratch`. Kept
    /// only because the benchmark harness forwards it by name.
    fn read_page_with_scratch(
        &mut self,
        run: RunId,
        idx: usize,
        scratch: &mut Vec<u8>,
    ) -> SortResult<Page> {
        let _ = scratch;
        self.read_page(run, idx)
    }

    /// Read `len` consecutive pages of `run` starting at page `start` (a
    /// *block read*). Implementations that talk to real devices should issue
    /// a single seek and one contiguous transfer for the whole block; the
    /// default falls back to `len` individual page reads.
    fn read_block(&mut self, run: RunId, start: usize, len: usize) -> SortResult<Vec<Page>> {
        (start..start + len)
            .map(|idx| self.read_page(run, idx))
            .collect()
    }

    /// Package a block read as a job that can run on a background I/O thread
    /// ([`BlockReadJob`]), or `None` when this store can only read
    /// synchronously (the default). Stores that support it hand back a
    /// self-contained closure over an independent file handle, so the caller
    /// may keep using the store while the job executes.
    fn block_read_job(&mut self, _run: RunId, _start: usize, _len: usize) -> Option<BlockReadJob> {
        None
    }

    /// Attach a background I/O pool. Stores that support write-behind (e.g.
    /// [`FileStore`]) start completing `append_page`/`append_block` calls
    /// asynchronously; the default ignores the pool and stays synchronous.
    fn attach_io_pool(&mut self, _pool: IoPool) {}

    /// The background I/O pool previously attached with
    /// [`attach_io_pool`](Self::attach_io_pool), if the store kept one.
    /// Merge cursors use this to prefetch blocks on the store's own workers.
    fn io_pool(&self) -> Option<IoPool> {
        None
    }

    /// Wait until every buffered / in-flight write has reached the backing
    /// medium, surfacing any deferred write error. A no-op for synchronous
    /// stores (the default).
    fn flush(&mut self) -> SortResult<()> {
        Ok(())
    }

    /// Hint that the caller runs a pipelined sort: stores that support it
    /// coalesce small appends into block writes (one seek + one transfer per
    /// ~`pages` pages) even without a background pool. Appends may then be
    /// buffered; errors surface at the next read/flush with the run rolled
    /// back to its last durable prefix. The default ignores the hint.
    fn set_write_coalescing(&mut self, _pages: usize) {}

    /// Attach an observability handle. Stores that support it start emitting
    /// run-lifecycle ([`RunCreate`](masort_trace::EventKind::RunCreate) /
    /// [`RunDelete`](masort_trace::EventKind::RunDelete)) and I/O
    /// (`IoRead` / `IoWrite` / `IoStall`) events at block granularity; the
    /// default ignores the handle and stays silent.
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

    fn read_block(&mut self, run: RunId, start: usize, len: usize) -> SortResult<Vec<Page>> {
        let pages = self.runs.get(&run).ok_or(SortError::UnknownRun(run))?;
        let end = start + len;
        if end > pages.len() {
            return Err(SortError::corrupt(
                run,
                format!(
                    "block [{start}, {end}) out of range ({} page(s))",
                    pages.len()
                ),
            ));
        }
        self.pages_read += len;
        self.bytes_read += pages[start..end].iter().map(Page::bytes).sum::<usize>();
        self.trace.emit(EventKind::IoRead {
            run: run.into(),
            pages: len,
        });
        Ok(pages[start..end].to_vec())
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

/// Read the pages `entries` index — a contiguous block starting at page
/// `start` of `run` — with one positioned read (where the platform has it),
/// and decode them.
///
/// The block buffer moves behind an `Arc` exactly once; every page in the
/// block then *borrows* its record region out of that one shared allocation
/// (the zero-copy decode path), so a page read alone keeps the buffer it was
/// read into.
fn read_pages(
    file: &File,
    trace: &masort_trace::Trace,
    run: RunId,
    start: usize,
    entries: &[(u64, u32)],
) -> SortResult<Vec<Page>> {
    let first_off = entries[0].0;
    let total: usize = entries.iter().map(|&(_, l)| l as usize).sum();
    let mut buf = vec![0u8; total];
    #[cfg(unix)]
    let read = std::os::unix::fs::FileExt::read_exact_at(file, &mut buf, first_off);
    #[cfg(not(unix))]
    let read = {
        let mut file = file;
        file.seek(SeekFrom::Start(first_off))
            .and_then(|_| std::io::Read::read_exact(&mut file, &mut buf))
    };
    read.map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            SortError::corrupt(
                run,
                format!("block at page {start} truncated: expected {total} byte(s)"),
            )
        } else {
            SortError::Io(e)
        }
    })?;
    trace.emit(EventKind::IoRead {
        run: run.into(),
        pages: entries.len(),
    });
    let shared = Arc::new(buf);
    entries
        .iter()
        .enumerate()
        .map(|(i, &(off, len))| {
            Page::decode_shared(&shared, (off - first_off) as usize, len as usize)
                .map_err(|detail| SortError::corrupt(run, format!("page {}: {detail}", start + i)))
        })
        .collect()
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

/// One block write still in flight on the I/O pool, with everything needed to
/// roll the run back to its last durable prefix if the write fails.
#[derive(Debug)]
struct PendingWrite {
    handle: IoHandle<std::io::Result<()>>,
    start_offset: u64,
    index_from: usize,
    tuples_before: usize,
}

/// Roll `r` back to the durable prefix ending at `start_offset`
/// (truncate-on-error): the file is truncated there, the index and tuple
/// bookkeeping shrink to match, and any pages still queued for coalescing
/// (which would land even further out) are discarded.
fn rollback_run(r: &mut FileRun, start_offset: u64, index_from: usize, tuples_before: usize) {
    let _ = r.file.set_len(start_offset);
    r.index.truncate(index_from);
    r.tuples = tuples_before;
    r.write_pos = start_offset;
    r.queued.clear();
    r.queued_from = None;
}

#[derive(Debug)]
struct FileRun {
    file: File,
    /// (offset, encoded length) of each page. With write-behind the entries
    /// for queued/in-flight blocks are present but not yet durable; every
    /// read path drains [`FileRun::queued`] and [`FileRun::pending`] first.
    index: Vec<(u64, u32)>,
    tuples: usize,
    write_pos: u64,
    path: PathBuf,
    /// Pages accepted but not yet handed to the I/O pool: small appends are
    /// coalesced into one job per [`WRITE_COALESCE_PAGES`]-page block so the
    /// per-job overhead amortises across many pages.
    queued: Vec<Page>,
    /// Rollback bookkeeping for the first queued page, captured when the
    /// queue went from empty to non-empty.
    queued_from: Option<(u64, usize, usize)>,
    /// Outstanding write-behind blocks, oldest first.
    pending: VecDeque<PendingWrite>,
    /// Test hook: fail the next coalesced block when it is submitted.
    #[cfg(test)]
    poison_next_block: bool,
}

/// Bound on in-flight write-behind blocks per run; beyond it the appender
/// blocks until the backlog drains, so memory for encoded-but-unwritten
/// blocks stays bounded.
const MAX_INFLIGHT_WRITES: usize = 8;

/// Queued single-page appends are shipped to the pool once this many pages
/// accumulate (one job, one positioned write for the whole block).
const WRITE_COALESCE_PAGES: usize = 16;

/// Wait for every in-flight write of `r`. On the first failure the run is
/// rolled back to its last durable prefix: the file is truncated at the
/// failed block's start offset and the index/tuple bookkeeping shrinks to
/// match, so no half-written page is ever readable. Time spent blocked is
/// accumulated into `stall`.
fn drain_pending(r: &mut FileRun, stall: &mut f64) -> SortResult<()> {
    if r.pending.is_empty() {
        return Ok(());
    }
    let t0 = Instant::now();
    let mut failure: Option<(u64, usize, usize, std::io::Error)> = None;
    while let Some(p) = r.pending.pop_front() {
        let err = match p.handle.wait() {
            Some(Ok(())) => None,
            Some(Err(e)) => Some(e),
            None => Some(std::io::Error::other(
                "background I/O worker lost a write-behind block",
            )),
        };
        if let (Some(e), None) = (err, failure.as_ref()) {
            failure = Some((p.start_offset, p.index_from, p.tuples_before, e));
        }
    }
    *stall += t0.elapsed().as_secs_f64();
    if let Some((off, index_from, tuples_before, e)) = failure {
        // Later blocks past the failed one would sit beyond a hole; discard
        // them too rather than leave garbage readable.
        rollback_run(r, off, index_from, tuples_before);
        return Err(SortError::Io(e));
    }
    Ok(())
}

/// Wait for the oldest in-flight block only (backpressure without a full
/// barrier). A failure still triggers the full drain-and-rollback, since the
/// oldest block has the earliest offset.
fn wait_oldest_pending(r: &mut FileRun, stall: &mut f64) -> SortResult<()> {
    let Some(p) = r.pending.pop_front() else {
        return Ok(());
    };
    let t0 = Instant::now();
    let result = p.handle.wait();
    *stall += t0.elapsed().as_secs_f64();
    match result {
        Some(Ok(())) => Ok(()),
        other => {
            let e = match other {
                Some(Err(e)) => e,
                _ => std::io::Error::other("background I/O worker lost a write-behind block"),
            };
            // Oldest block failed: everything at or beyond it must go. Wait
            // out the rest, then roll back to this block's origin.
            let _ = drain_pending(r, stall);
            rollback_run(r, p.start_offset, p.index_from, p.tuples_before);
            Err(SortError::Io(e))
        }
    }
}

/// Retire already-finished in-flight blocks without blocking. A completed
/// failure triggers the same full drain-and-rollback as a waited one.
fn reap_completed_pending(r: &mut FileRun, stall: &mut f64) -> SortResult<()> {
    while let Some(p) = r.pending.pop_front() {
        let err = match p.handle.try_wait() {
            Ok(Ok(())) => continue,
            Err(Some(handle)) => {
                // Still running: put it back and stop reaping.
                r.pending.push_front(PendingWrite {
                    handle,
                    start_offset: p.start_offset,
                    index_from: p.index_from,
                    tuples_before: p.tuples_before,
                });
                return Ok(());
            }
            Ok(Err(e)) => e,
            Err(None) => std::io::Error::other("background I/O worker lost a write-behind block"),
        };
        let _ = drain_pending(r, stall);
        rollback_run(r, p.start_offset, p.index_from, p.tuples_before);
        return Err(SortError::Io(err));
    }
    Ok(())
}

/// Flush `r`'s queued pages as one coalesced block: on the pool when one is
/// available (write-behind), synchronously otherwise. No-op when nothing is
/// queued.
fn flush_queued(r: &mut FileRun, pool: Option<&IoPool>, stall: &mut f64) -> SortResult<()> {
    if r.queued.is_empty() {
        return Ok(());
    }
    #[cfg(unix)]
    if let Some(pool) = pool {
        return submit_queued(r, pool, stall);
    }
    #[cfg(not(unix))]
    let _ = pool; // positioned writes (pwrite) are unix-only
    let (start_offset, index_from, tuples_before) = r
        .queued_from
        .take()
        .expect("queued pages always record their rollback origin");
    let pages = std::mem::take(&mut r.queued);
    #[cfg(test)]
    let poisoned = std::mem::take(&mut r.poison_next_block);
    #[cfg(not(test))]
    let poisoned = false;
    let result = (|| -> std::io::Result<()> {
        if poisoned {
            return Err(std::io::Error::other("injected write failure"));
        }
        write_pages(&mut r.file, start_offset, &pages)
    })();
    match result {
        Ok(()) => Ok(()),
        Err(e) => {
            rollback_run(r, start_offset, index_from, tuples_before);
            Err(e.into())
        }
    }
}

/// Hand `r`'s queued pages to the pool as one coalesced block write,
/// enforcing the in-flight bound. No-op when nothing is queued.
#[cfg(unix)]
fn submit_queued(r: &mut FileRun, pool: &IoPool, stall: &mut f64) -> SortResult<()> {
    if r.queued.is_empty() {
        return Ok(());
    }
    reap_completed_pending(r, stall)?;
    if r.pending.len() >= MAX_INFLIGHT_WRITES {
        wait_oldest_pending(r, stall)?;
    }
    let (start_offset, index_from, tuples_before) = r
        .queued_from
        .take()
        .expect("queued pages always record their rollback origin");
    let pages = std::mem::take(&mut r.queued);
    #[cfg(test)]
    let poisoned = std::mem::take(&mut r.poison_next_block);
    #[cfg(not(test))]
    let poisoned = false;
    let file = match r.file.try_clone() {
        Ok(f) => f,
        Err(e) => {
            // Cannot ship the block: discard it entirely (truncate-on-error).
            rollback_run(r, start_offset, index_from, tuples_before);
            return Err(e.into());
        }
    };
    let handle = pool.submit(move || -> std::io::Result<()> {
        if poisoned {
            return Err(std::io::Error::other("injected write failure"));
        }
        // One positioned write needs one buffer; a page's on-disk form is
        // the bytes it is held as.
        let buf = pages
            .iter()
            .map(Page::wire_bytes)
            .collect::<Vec<_>>()
            .concat();
        use std::os::unix::fs::FileExt;
        file.write_all_at(&buf, start_offset)
    });
    r.pending.push_back(PendingWrite {
        handle,
        start_offset,
        index_from,
        tuples_before,
    });
    Ok(())
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
    /// Background I/O pool for write-behind; `None` keeps all I/O synchronous.
    pool: Option<IoPool>,
    /// Coalesce appends into blocks of about this many pages (0 = write
    /// through on every append, the classic behaviour).
    coalesce_pages: usize,
    /// Seconds spent blocked waiting for write-behind blocks to land.
    write_stall: f64,
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
            pool: None,
            coalesce_pages: 0,
            write_stall: 0.0,
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

    /// Seconds this store has spent blocked waiting on write-behind blocks
    /// (0 when no I/O pool is attached — synchronous writes are not stalls).
    pub fn write_stall_seconds(&self) -> f64 {
        self.write_stall
    }

    /// True when a background I/O pool is attached (write-behind active).
    pub fn has_io_pool(&self) -> bool {
        self.pool.is_some()
    }

    /// Retry deleting any run files whose earlier removal failed.
    fn sweep_trash(&mut self) {
        self.trash.retain(|path| match std::fs::remove_file(path) {
            Ok(()) => false,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
            Err(_) => true,
        });
    }

    /// Common append path: reserve index entries for `pages`, then either
    /// hand the encode+write to the I/O pool (write-behind) or encode and
    /// write synchronously as one contiguous block.
    fn append_pages(&mut self, run: RunId, pages: Vec<Page>) -> SortResult<()> {
        #[cfg(test)]
        let injected_failure = std::mem::take(&mut self.fail_next_append);
        #[cfg(not(test))]
        let injected_failure = false;
        let pool = self.pool.clone();
        let trace = self.trace.clone();
        let page_count = pages.len();
        // A pool implies block coalescing even if the caller never set an
        // explicit block size; without a pool, coalescing is opt-in.
        let coalesce = if pool.is_some() {
            self.coalesce_pages.max(WRITE_COALESCE_PAGES)
        } else {
            self.coalesce_pages
        };
        let Self {
            runs, write_stall, ..
        } = self;
        let r = runs.get_mut(&run).ok_or(SortError::UnknownRun(run))?;
        let stall_before = *write_stall;
        let start_offset = r.write_pos;
        let index_from = r.index.len();
        let tuples_before = r.tuples;
        let mut total = 0usize;
        let mut tuple_count = 0usize;
        for p in &pages {
            let len = p.wire_bytes().len();
            r.index.push((start_offset + total as u64, len as u32));
            total += len;
            tuple_count += p.len();
        }

        if coalesce > 0 {
            // Accept the pages into the coalescing queue; a block is flushed
            // (to the pool, or synchronously) once enough pages accumulate
            // or a read/flush drains the run. Bookkeeping is updated
            // optimistically — the rollback origin travels with the block.
            if r.queued.is_empty() {
                r.queued_from = Some((start_offset, index_from, tuples_before));
            }
            #[cfg(test)]
            {
                r.poison_next_block |= injected_failure;
            }
            r.queued.extend(pages);
            r.write_pos += total as u64;
            r.tuples += tuple_count;
            if r.queued.len() >= coalesce {
                flush_queued(r, pool.as_ref(), write_stall)?;
            }
            if trace.is_enabled() {
                trace.emit(EventKind::IoWrite {
                    run: run.into(),
                    pages: page_count,
                });
                let stalled = *write_stall - stall_before;
                if stalled > 0.0 {
                    trace.emit(EventKind::IoStall { seconds: stalled });
                }
            }
            return Ok(());
        }

        // Classic write-through path: one seek and one gathered write per
        // append call.
        let result = (|| -> std::io::Result<()> {
            if injected_failure {
                return Err(std::io::Error::other("injected write failure"));
            }
            write_pages(&mut r.file, start_offset, &pages)
        })();
        match result {
            Ok(()) => {
                r.write_pos += total as u64;
                r.tuples += tuple_count;
                trace.emit(EventKind::IoWrite {
                    run: run.into(),
                    pages: page_count,
                });
                Ok(())
            }
            Err(e) => {
                // Truncate-on-error: no partially written page survives.
                rollback_run(r, start_offset, index_from, tuples_before);
                Err(e.into())
            }
        }
    }

    /// Ship `run`'s queued pages and wait for its in-flight write-behind
    /// blocks (no-op when the run has no backlog).
    fn drain_run(&mut self, run: RunId) -> SortResult<()> {
        let Self {
            runs,
            write_stall,
            pool,
            trace,
            ..
        } = self;
        let stall_before = *write_stall;
        let result = match runs.get_mut(&run) {
            Some(r) => {
                flush_queued(r, pool.as_ref(), write_stall)?;
                drain_pending(r, write_stall)
            }
            None => Ok(()),
        };
        if trace.is_enabled() {
            let stalled = *write_stall - stall_before;
            if stalled > 0.0 {
                trace.emit(EventKind::IoStall { seconds: stalled });
            }
        }
        result
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
                queued: Vec::new(),
                queued_from: None,
                pending: VecDeque::new(),
                #[cfg(test)]
                poison_next_block: false,
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
        Ok(self.read_block(run, idx, 1)?.remove(0))
    }

    fn read_block(&mut self, run: RunId, start: usize, len: usize) -> SortResult<Vec<Page>> {
        if len == 0 {
            return Ok(Vec::new());
        }
        self.drain_run(run)?;
        let r = self.runs.get(&run).ok_or(SortError::UnknownRun(run))?;
        let entries = r.index.get(start..start + len).ok_or_else(|| {
            SortError::corrupt(
                run,
                format!(
                    "block [{start}, {}) out of range ({} page(s))",
                    start + len,
                    r.index.len()
                ),
            )
        })?;
        read_pages(&r.file, &self.trace, run, start, entries)
    }

    #[cfg(unix)]
    fn block_read_job(&mut self, run: RunId, start: usize, len: usize) -> Option<BlockReadJob> {
        if len == 0 {
            return None;
        }
        // In-flight writes must land before an independent handle reads the
        // range; a drain failure is delivered through the job itself.
        if let Err(e) = self.drain_run(run) {
            return Some(Box::new(move || Err(e)));
        }
        let trace = self.trace.clone();
        let r = self.runs.get(&run)?;
        let entries = r.index.get(start..start + len)?.to_vec();
        let file = r.file.try_clone().ok()?;
        Some(Box::new(move || {
            read_pages(&file, &trace, run, start, &entries)
        }))
    }

    fn attach_io_pool(&mut self, pool: IoPool) {
        self.pool = Some(pool);
    }

    fn io_pool(&self) -> Option<IoPool> {
        self.pool.clone()
    }

    fn set_write_coalescing(&mut self, pages: usize) {
        self.coalesce_pages = pages;
    }

    fn flush(&mut self) -> SortResult<()> {
        let Self {
            runs,
            write_stall,
            pool,
            trace,
            ..
        } = self;
        let stall_before = *write_stall;
        let mut first_err = None;
        for r in runs.values_mut() {
            if let Err(e) = flush_queued(r, pool.as_ref(), write_stall) {
                first_err.get_or_insert(e);
            }
            if let Err(e) = drain_pending(r, write_stall) {
                first_err.get_or_insert(e);
            }
        }
        if trace.is_enabled() {
            let stalled = *write_stall - stall_before;
            if stalled > 0.0 {
                trace.emit(EventKind::IoStall { seconds: stalled });
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
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
            // In-flight writes keep their own cloned handle to the (soon
            // unlinked) inode, so they finish harmlessly; no need to wait.
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
        s.read_page(r, 0).unwrap();
        s.read_block(r, 1, 2).unwrap();
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
    /// every read path, naming the run and the page, never by a panic.
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
            let job = s.block_read_job(r, 0, 2).expect("FileStore supports jobs");
            for (via, result) in [
                ("read_page", s.read_page(r, 1).map(|p| vec![p])),
                ("read_block", s.read_block(r, 0, 2)),
                ("block_read_job", job()),
            ] {
                match result {
                    Err(SortError::CorruptRun { run, detail }) => {
                        assert_eq!(run, r, "{via}");
                        assert!(detail.starts_with("page 1:"), "{via}: {detail}");
                    }
                    other => panic!("{via}: expected CorruptRun, got {other:?}"),
                }
            }
            assert_eq!(s.read_page(r, 0).unwrap().len(), 2, "page 0 is intact");
        }
    }

    #[test]
    fn memstore_read_block_matches_page_reads() {
        let mut s = MemStore::new();
        let r = s.create_run().unwrap();
        for p in sample_pages() {
            s.append_page(r, p).unwrap();
        }
        let block = s.read_block(r, 0, 3).unwrap();
        assert_eq!(block.len(), 3);
        for (i, page) in block.iter().enumerate() {
            assert_eq!(*page, s.read_page(r, i).unwrap());
        }
        assert!(matches!(
            s.read_block(r, 2, 2),
            Err(SortError::CorruptRun { .. })
        ));
    }

    #[test]
    fn filestore_read_block_matches_page_reads() {
        let mut s = FileStore::in_temp_dir().unwrap();
        let r = s.create_run().unwrap();
        let mut pages = sample_pages();
        pages.push(Page::from_tuples(vec![Tuple::new(77, vec![9u8; 21])]));
        for p in &pages {
            s.append_page(r, p.clone()).unwrap();
        }
        let block = s.read_block(r, 1, 3).unwrap();
        assert_eq!(block.len(), 3);
        for (i, page) in block.iter().enumerate() {
            assert_eq!(*page, s.read_page(r, 1 + i).unwrap());
        }
        assert!(s.read_block(r, 0, pages.len() + 1).is_err());
        assert!(s.read_block(r, 0, 0).unwrap().is_empty());
    }

    #[test]
    fn filestore_block_read_job_runs_off_thread() {
        let mut s = FileStore::in_temp_dir().unwrap();
        let r = s.create_run().unwrap();
        for p in sample_pages() {
            s.append_page(r, p).unwrap();
        }
        let job = s.block_read_job(r, 0, 3).expect("FileStore supports jobs");
        // The job is self-contained: mutate nothing and run it on a pool.
        let pool = IoPool::new(1);
        let pages = pool.submit(job).wait().unwrap().unwrap();
        assert_eq!(pages.len(), 3);
        assert_eq!(pages[1], s.read_page(r, 1).unwrap());
    }

    #[test]
    fn filestore_write_behind_round_trips() {
        let mut s = FileStore::in_temp_dir().unwrap();
        s.attach_io_pool(IoPool::new(2));
        let r = s.create_run().unwrap();
        let all = sample_pages();
        s.append_block(r, all.clone()).unwrap();
        s.append_page(r, Page::from_tuples(vec![Tuple::new(5, vec![1, 2, 3])]))
            .unwrap();
        // Metadata reflects in-flight blocks immediately.
        assert_eq!(s.run_pages(r), all.len() + 1);
        // Reads drain the backlog first, so they see the written data.
        assert_eq!(s.read_page(r, 0).unwrap(), all[0]);
        let block = s.read_block(r, 0, all.len() + 1).unwrap();
        assert_eq!(block[all.len()].tuples()[0].key, 5);
        s.flush().unwrap();
        assert_eq!(s.run_tuples(r), 11);
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
    fn failed_write_behind_append_rolls_back_on_next_access() {
        let mut s = FileStore::in_temp_dir().unwrap();
        s.attach_io_pool(IoPool::new(1));
        let r = s.create_run().unwrap();
        s.append_page(r, Page::from_tuples(vec![Tuple::synthetic(1, 16)]))
            .unwrap();
        s.flush().unwrap();

        s.fail_next_append = true;
        // The failure is asynchronous: the append itself succeeds...
        s.append_block(r, sample_pages()).unwrap();
        // ...and a follow-up block queued behind it must be discarded too
        // (it would sit beyond the hole left by the failed block).
        s.append_page(r, Page::from_tuples(vec![Tuple::synthetic(9, 16)]))
            .unwrap();
        // ...and surfaces at the next access, after which the run has been
        // rolled back to its last durable prefix.
        let err = s.read_page(r, 2).unwrap_err();
        assert!(matches!(err, SortError::Io(_)), "{err:?}");
        assert_eq!(s.run_pages(r), 1);
        assert_eq!(s.run_tuples(r), 1);
        assert_eq!(s.read_page(r, 0).unwrap().tuples()[0].key, 1);
        let disk_len = std::fs::metadata(s.dir().join(format!("run-{r}.bin")))
            .unwrap()
            .len();
        let durable = Page::from_tuples(vec![Tuple::synthetic(1, 16)]);
        assert_eq!(
            disk_len,
            durable.wire_bytes().len() as u64,
            "file truncated to the durable prefix"
        );
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

    #[test]
    fn create_run_in_removed_directory_errors() {
        let dir = std::env::temp_dir().join(format!("masort-gone-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut s = FileStore::new(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(s.create_run(), Err(SortError::Io(_))));
    }
}
