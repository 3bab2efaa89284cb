//! [`FileStore`]: every run of a store in byte ranges of one unnamed file.

use super::{RunId, RunStore};
use crate::error::{SortError, SortResult};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::tuple::Page;
use masort_trace::EventKind;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{IoSlice, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

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

/// A store file's name, where it could not be unlinked while open: removed
/// once the file is closed (this field drops after the file).
#[derive(Debug)]
struct Leftover(Option<PathBuf>);

impl Drop for Leftover {
    fn drop(&mut self) {
        if let Some(path) = self.0.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[derive(Debug, Default)]
struct FileRun {
    /// (offset, encoded length) of each page.
    index: Vec<(u64, u32)>,
    tuples: usize,
}

/// A [`RunStore`] that keeps every run in byte ranges of one temporary file.
///
/// The file is created in a caller-supplied directory and unlinked straight
/// after it is opened, so it has no name on disk: its space goes back to the
/// file system when the store drops, however the process ends. A deleted
/// run's ranges go on a free list that later appends reuse (first fit), so
/// the file stays near the largest set of runs live at once. Every file
/// operation propagates its `io::Error`; a page that no longer decodes
/// (truncated, overwritten) surfaces [`SortError::CorruptRun`].
#[derive(Debug)]
pub struct FileStore {
    file: File,
    runs: HashMap<RunId, FileRun>,
    next: RunId,
    /// Freed `[start, stop)` byte ranges, sorted and never adjacent.
    free: Vec<(u64, u64)>,
    /// Where the allocated part of the file ends.
    end: u64,
    /// Observability handle; disabled by default.
    trace: masort_trace::Trace,
    _name: Leftover,
    #[cfg(test)]
    pub(super) fail_next_append: bool,
}

impl FileStore {
    /// Create a store whose file lives in `dir` (which must exist), opened
    /// under the fresh name `masort-{pid}-{n}.runs` (`n` a process-wide
    /// counter; a name that is taken moves on to the next `n`) and unlinked
    /// at once.
    pub fn new<P: AsRef<Path>>(dir: P) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let (file, path) = loop {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let path = dir
                .as_ref()
                .join(format!("masort-{}-{n}.runs", std::process::id()));
            match OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(file) => break (file, path),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        };
        // A platform that cannot unlink an open file keeps the name until
        // the store drops.
        let name = std::fs::remove_file(&path).err().map(|_| path);
        Ok(FileStore {
            file,
            runs: HashMap::new(),
            next: 0,
            free: Vec::new(),
            end: 0,
            trace: masort_trace::Trace::disabled(),
            _name: Leftover(name),
            #[cfg(test)]
            fail_next_append: false,
        })
    }

    /// [`new`](Self::new) in the system's temporary directory.
    pub fn in_temp_dir() -> std::io::Result<Self> {
        Self::new(std::env::temp_dir())
    }

    /// Always 0: every append is written before it returns, so no write is
    /// ever waited for. Kept only because the benchmark harness calls it;
    /// goes with the next `[benchmark]` PR.
    pub fn write_stall_seconds(&self) -> f64 {
        0.0
    }

    /// The store's file, for tests that damage its bytes.
    #[cfg(test)]
    pub(super) fn file(&self) -> &File {
        &self.file
    }

    /// Take `len` bytes from the first free range they fit in, or from the
    /// end of the file.
    fn allocate(&mut self, len: u64) -> u64 {
        let Some(i) = self.free.iter().position(|&(a, b)| b - a >= len) else {
            self.end += len;
            return self.end - len;
        };
        self.free[i].0 += len;
        let (start, stop) = self.free[i];
        if start == stop {
            self.free.remove(i);
        }
        start - len
    }

    /// Give back `len` bytes at `start`, merged with the free ranges they
    /// touch; a range that reaches the end moves the end back instead.
    fn release(&mut self, mut start: u64, len: u64) {
        let mut stop = start + len;
        let mut i = self.free.partition_point(|r| r.0 < start);
        if self.free.get(i).is_some_and(|r| r.0 == stop) {
            stop = self.free.remove(i).1;
        }
        if i > 0 && self.free[i - 1].1 == start {
            i -= 1;
            start = self.free.remove(i).0;
        }
        if stop == self.end {
            self.end = start;
        } else {
            self.free.insert(i, (start, stop));
        }
    }
}

impl RunStore for FileStore {
    fn create_run(&mut self) -> SortResult<RunId> {
        let id = self.next;
        self.next += 1;
        self.runs.insert(id, FileRun::default());
        self.trace.emit(EventKind::RunCreate { run: id.into() });
        Ok(id)
    }

    fn append_page(&mut self, run: RunId, page: Page) -> SortResult<()> {
        self.append_block(run, vec![page])
    }

    /// One seek and one gathered write for `pages`, however many there are,
    /// into a range allocated for them. On error the range goes back to the
    /// free list and the run's index is untouched, so no partially written
    /// page is ever read.
    fn append_block(&mut self, run: RunId, pages: Vec<Page>) -> SortResult<()> {
        if pages.is_empty() {
            return Ok(());
        }
        if !self.runs.contains_key(&run) {
            return Err(SortError::UnknownRun(run));
        }
        let len: u64 = pages.iter().map(|p| p.wire_bytes().len() as u64).sum();
        let start = self.allocate(len);
        #[cfg(test)]
        let result = if std::mem::take(&mut self.fail_next_append) {
            Err(std::io::Error::other("injected write failure"))
        } else {
            write_pages(&mut self.file, start, &pages)
        };
        #[cfg(not(test))]
        let result = write_pages(&mut self.file, start, &pages);
        if let Err(e) = result {
            self.release(start, len);
            return Err(e.into());
        }
        let r = self.runs.entry(run).or_default();
        let mut offset = start;
        for p in &pages {
            let len = p.wire_bytes().len();
            r.index.push((offset, len as u32));
            offset += len as u64;
            r.tuples += p.len();
        }
        self.trace.emit(EventKind::IoWrite {
            run: run.into(),
            pages: pages.len(),
        });
        Ok(())
    }

    fn read_page(&mut self, run: RunId, idx: usize) -> SortResult<Page> {
        let r = self.runs.get(&run).ok_or(SortError::UnknownRun(run))?;
        let &(offset, len) = r.index.get(idx).ok_or_else(|| {
            SortError::corrupt(
                run,
                format!("page {idx} out of range ({} page(s))", r.index.len()),
            )
        })?;
        let page = read_page_at(&self.file, run, idx, offset, len as usize)?;
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

    /// Returns the run's pages to the free list; no file operation, so it
    /// cannot fail.
    fn delete_run(&mut self, run: RunId) -> SortResult<()> {
        if let Some(r) = self.runs.remove(&run) {
            for (offset, len) in r.index {
                self.release(offset, u64::from(len));
            }
            self.trace.emit(EventKind::RunDelete { run: run.into() });
        }
        Ok(())
    }

    fn attach_trace(&mut self, trace: masort_trace::Trace) {
        self.trace = trace;
    }
}
