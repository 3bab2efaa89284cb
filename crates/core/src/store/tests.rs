//! Unit tests of the run stores and of the [`RunStore`] contract.

use super::*;
use crate::error::SortError;
use crate::tuple::{paginate, Tuple};
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

/// One page holding one synthetic tuple keyed `k`.
fn one(k: u64) -> Page {
    Page::from_tuples(vec![Tuple::synthetic(k, 16)])
}

fn file_len(s: &FileStore) -> u64 {
    s.file().metadata().unwrap().len()
}

/// A deleted run's bytes are taken by the next append that fits: the same
/// bytes appended again do not grow the file, and deletes are idempotent.
#[test]
fn a_deleted_runs_space_is_reused() {
    let mut s = FileStore::in_temp_dir().unwrap();
    let (keep, r) = (s.create_run().unwrap(), s.create_run().unwrap());
    s.append_page(keep, one(0)).unwrap();
    s.append_block(r, sample_pages()).unwrap();
    let len = file_len(&s);
    s.delete_run(r).unwrap();
    s.delete_run(r).unwrap();
    assert!(matches!(s.read_page(r, 0), Err(SortError::UnknownRun(_))));
    let again = s.create_run().unwrap();
    s.append_block(again, sample_pages()).unwrap();
    assert_eq!(file_len(&s), len, "the file grew");
    assert_eq!(s.read_page(again, 2).unwrap().tuples()[0].key, 8);
    assert_eq!(s.read_page(keep, 0).unwrap().tuples()[0].key, 0);
}

/// A delete takes the run out of the store: it reads and appends as an
/// unknown run, counts no pages or tuples, and the runs beside it in the
/// file read as before.
#[test]
fn filestore_delete_removes_file() {
    let mut s = FileStore::in_temp_dir().unwrap();
    let runs: Vec<RunId> = (0..3).map(|_| s.create_run().unwrap()).collect();
    for &r in &runs {
        s.append_page(r, one(r.into())).unwrap();
    }
    let r = runs[1];
    s.delete_run(r).unwrap();
    assert!(matches!(s.read_page(r, 0), Err(SortError::UnknownRun(x)) if x == r));
    assert!(matches!(
        s.append_page(r, one(9)),
        Err(SortError::UnknownRun(_))
    ));
    assert_eq!((s.run_pages(r), s.run_tuples(r)), (0, 0));
    assert_eq!(s.read_page(runs[0], 0).unwrap(), one(0));
    assert_eq!(s.read_page(runs[2], 0).unwrap(), one(2));
}

/// Cleanup stays idempotent: a run whose bytes were cut from the file
/// behind the store's back, or that was deleted already, still deletes,
/// and the store goes on working.
#[test]
fn delete_run_tolerates_already_removed_file() {
    let mut s = FileStore::in_temp_dir().unwrap();
    let r = s.create_run().unwrap();
    s.append_block(r, sample_pages()).unwrap();
    s.file().set_len(0).unwrap();
    assert!(s.delete_run(r).is_ok());
    assert!(s.delete_run(r).is_ok());
    let again = s.create_run().unwrap();
    s.append_block(again, sample_pages()).unwrap();
    assert_eq!(s.read_page(again, 2).unwrap().tuples()[0].key, 8);
}

/// Freed ranges merge with their free neighbours, so no freed byte is left
/// in a piece too small to use: three one-page runs deleted out of order
/// between two live ones take a three-page append without growing the file.
#[test]
fn freed_ranges_merge_so_no_space_is_orphaned() {
    let mut s = FileStore::in_temp_dir().unwrap();
    let runs: Vec<RunId> = (0..5).map(|_| s.create_run().unwrap()).collect();
    for &r in &runs {
        s.append_page(r, one(r.into())).unwrap();
    }
    let len = file_len(&s);
    for i in [2, 1, 3] {
        s.delete_run(runs[i]).unwrap();
    }
    let r = s.create_run().unwrap();
    s.append_block(r, (5..8).map(one).collect()).unwrap();
    assert_eq!(file_len(&s), len, "the file grew");
    for (idx, k) in (5..8).enumerate() {
        assert_eq!(s.read_page(r, idx).unwrap(), one(k));
    }
    assert_eq!(s.read_page(runs[0], 0).unwrap(), one(0));
    assert_eq!(s.read_page(runs[4], 0).unwrap(), one(4));
}

/// How many open descriptors of this process lead to files in `dir` that
/// no longer have a name.
fn unnamed_files_in(dir: &std::path::Path) -> usize {
    let dir = std::fs::canonicalize(dir).unwrap();
    std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
        .filter(|target| {
            target.starts_with(&dir) && target.to_string_lossy().ends_with(" (deleted)")
        })
        .count()
}

/// Dropping the store gives its file's space back: the one descriptor that
/// held the unnamed file closes with the store.
#[test]
fn drop_reclaims_trashed_files() {
    let dir = std::env::temp_dir().join(format!("masort-drop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut s = FileStore::new(&dir).unwrap();
    let (r, gone) = (s.create_run().unwrap(), s.create_run().unwrap());
    s.append_block(r, sample_pages()).unwrap();
    s.append_page(gone, one(3)).unwrap();
    s.delete_run(gone).unwrap();
    assert_eq!(unnamed_files_in(&dir), 1);
    drop(s);
    assert_eq!(unnamed_files_in(&dir), 0, "the store's file outlived it");
    std::fs::remove_dir(&dir).unwrap();
}

#[test]
fn filestore_missing_dir_errors() {
    let err = FileStore::new("/definitely/not/a/real/dir/xyz").unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
}

/// The store's file has no name from the moment the store exists, so
/// nothing is left to clean up however the process ends, and removing its
/// directory does not disturb the store.
#[test]
fn a_store_leaves_no_name_in_its_directory() {
    let dir = std::env::temp_dir().join(format!("masort-unnamed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut s = FileStore::new(&dir).unwrap();
    let r = s.create_run().unwrap();
    s.append_block(r, sample_pages()).unwrap();
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    std::fs::remove_dir(&dir).unwrap();
    s.append_page(r, one(5)).unwrap();
    assert_eq!(s.read_page(r, 3).unwrap().tuples()[0].key, 5);
}

/// Stores made at once write their first page at offset 0 of their own
/// files: had two shared one, one would read the other's key.
#[test]
fn filestores_made_at_once_get_distinct_files() {
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|k| {
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let mut s = FileStore::in_temp_dir().unwrap();
                let r = s.create_run().unwrap();
                s.append_page(r, one(k)).unwrap();
                (s, r, k)
            })
        })
        .collect();
    for handle in handles {
        let (mut s, r, k) = handle.join().unwrap();
        assert_eq!(s.read_page(r, 0).unwrap().tuples()[0].key, k);
    }
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
    s.file().set_len(20).unwrap();
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
    let mut f = s.file();
    f.seek(SeekFrom::Start(0)).unwrap();
    f.write_all(&[0xFFu8; 77]).unwrap();
    assert!(matches!(
        s.read_page(r, 0),
        Err(SortError::CorruptRun { .. })
    ));
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
    for bad in [classic, vec![0xFFu8; len]] {
        let mut f = s.file();
        f.seek(SeekFrom::Start(len as u64)).unwrap();
        f.write_all(&bad).unwrap();
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

/// A failed append changes nothing that can be read: the run keeps its
/// index, every other run reads back the same pages (the shared file is
/// never cut back), and the range the write was given — here a deleted
/// run's — goes back to the free list, where the next append finds it.
#[test]
fn failed_sync_append_rolls_back_cleanly() {
    let mut s = FileStore::in_temp_dir().unwrap();
    let runs: Vec<RunId> = (0..3).map(|_| s.create_run().unwrap()).collect();
    for &r in &runs {
        s.append_page(r, one(r.into())).unwrap();
    }
    s.delete_run(runs[1]).unwrap();
    let (a, c) = (runs[0], runs[2]);
    let len = file_len(&s);
    s.fail_next_append = true;
    let err = s.append_page(a, one(7)).unwrap_err();
    assert!(matches!(err, SortError::Io(_)), "{err:?}");
    assert_eq!((s.run_pages(a), s.run_tuples(a)), (1, 1));
    assert_eq!(s.read_page(a, 0).unwrap(), one(0));
    assert_eq!(s.read_page(c, 0).unwrap(), one(2));
    s.append_page(c, one(8)).unwrap();
    assert_eq!(file_len(&s), len, "the hole was reused");
    assert_eq!(s.read_page(c, 1).unwrap(), one(8));
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

/// A store failure is the sort's: an append that fails ends the whole sort
/// in [`SortError::Io`].
#[test]
fn an_append_failure_surfaces_as_io_error_through_a_sort() {
    let mut store = FileStore::in_temp_dir().unwrap();
    store.fail_next_append = true;
    let err = crate::SortJob::builder()
        .config(crate::SortConfig::default().with_memory_pages(4))
        .tuples(
            (0..2_000)
                .map(|k| Tuple::synthetic(k * 7 % 2_000, 64))
                .collect(),
        )
        .store(store)
        .build()
        .unwrap()
        .run()
        .unwrap_err();
    assert!(matches!(err, SortError::Io(_)), "{err:?}");
}

/// Reuse keeps the file at the sort's live set: a sort whose merge runs
/// preliminary steps, and splits its root under a budget that keeps moving,
/// ends with a file no longer than 1.05 times the most run bytes it held at
/// once (from the store's events: pages written, less the runs deleted).
#[test]
fn a_wobbled_sorts_file_stays_at_its_peak_live_run_bytes() {
    use masort_trace::{EventKind, Recorder, SpanId, Trace};
    let input: Vec<Tuple> = (0..12_000u64)
        .map(|i| Tuple::synthetic(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16, 64))
        .collect();
    let budget = crate::MemoryBudget::new(24);
    let trace = Trace::enabled(Recorder::new());
    let cfg = crate::SortConfig::default().with_page_size(512);
    let mut sort = crate::SortJob::builder()
        .config(cfg.with_tuple_size(64).with_memory_pages(24))
        .tuples(input.clone())
        .store(FileStore::in_temp_dir().unwrap())
        .env(crate::RealEnv::new().with_trace(trace.clone()))
        .budget(budget.clone())
        .build()
        .unwrap()
        .run_to_root()
        .unwrap();
    // A live run's first page is full: the most bytes a page takes.
    let runs = &sort.outcome.split.runs;
    let first = runs.iter().find_map(|r| sort.store.read_page(r.id, 0).ok());
    let full = first.unwrap().wire_bytes().len();
    let mut sorted = Vec::new();
    while let Some(page) = sort.next_page().unwrap() {
        sorted.extend(page.tuples());
        if sorted.len().is_multiple_of(160) {
            let low = sorted.len() % 320 == 160;
            budget.set_target(if low { 6 } else { 24 }, 0.0);
        }
    }
    crate::verify::assert_sorted_permutation(&input, &sorted);
    let merge = &sort.outcome.merge;
    assert!(merge.steps_executed >= 3 && merge.splits >= 1, "{merge:?}");
    let (mut runs, mut live, mut peak) = (std::collections::HashMap::new(), 0, 0);
    for e in trace.recorder().unwrap().events_for(SpanId::SERVICE) {
        match e.kind {
            EventKind::IoWrite { run, pages } => {
                *runs.entry(run).or_insert(0) += pages;
                live += pages;
                peak = peak.max(live);
            }
            EventKind::RunDelete { run } => live -= runs.remove(&run).unwrap_or(0),
            _ => {}
        }
    }
    let len = file_len(&sort.store);
    let bound = (peak * full) as u64 * 105 / 100;
    assert!(len <= bound, "file {len} B, peak {peak} pages of {full} B");
}
