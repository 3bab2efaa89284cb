//! [`FileStore`]: each run spilled into its own temporary file.

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
    pub(super) fail_next_append: bool,
    #[cfg(test)]
    pub(super) fail_next_delete: bool,
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

    /// Create a store in a fresh private directory under the system temp dir,
    /// named `masort-{pid}-{nanos}-{n}` with `n` a process-wide counter. The
    /// directory is made with `create_dir`, so it is new: a name that is
    /// taken is skipped for the next `n`, and no two stores share a directory.
    pub fn in_temp_dir() -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        loop {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let name = format!("masort-{}-{nanos:x}-{n}", std::process::id());
            let dir = std::env::temp_dir().join(name);
            match std::fs::create_dir(&dir) {
                Ok(()) => {
                    let mut s = FileStore::new(&dir)?;
                    s.own_dir = true;
                    return Ok(s);
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
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
