//! Unit tests of the run stores and of the [`RunStore`] contract.

use super::*;
use crate::error::SortError;
use crate::tuple::{paginate, Tuple};
use std::fs::OpenOptions;
use std::io::{Seek, SeekFrom, Write};

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
    fn read_page_with_scratch(&mut self, _: RunId, _: usize, _: &mut Vec<u8>) -> SortResult<Page> {
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
        sorted.extend(page.tuples());
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
