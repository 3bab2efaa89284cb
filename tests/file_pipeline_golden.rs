//! Golden file for the real pipeline's bytes: a gensort file is read, its
//! runs are formed and spilled to a `FileStore`, merged, and streamed off the
//! root, and what crosses the `RunStore` boundary is counted page by page.
//! For `nat6,opt,split`, `repl6` and `quick` on random, 90 %-sorted and
//! reversed inputs, a progress-keyed budget wobble, and one sort at the
//! benchmark harness's geometry, the runs formed, the store's page and byte
//! counts, the merge's steps, splits and combines, the pages streamed from
//! the root and a hash of the output must reproduce
//! `tests/golden/file_pipeline.txt` exactly.
//!
//! The counts are taken at the store boundary, so how `FileStore` lays its
//! runs out on disk cannot move them; a change to what is written or read
//! can.
//!
//! To regenerate after an *intended* change to the pipeline's I/O:
//! `MASORT_BLESS=1 cargo test --test file_pipeline_golden`, then review.

use memory_adaptive_sort::core::{gensort_order, record_bytes, GensortFileSource};
use memory_adaptive_sort::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

const RECORD_BYTES: usize = 100;

/// A gensort record on a run page: its 8-byte key, a 4-byte descriptor and
/// the 100-byte record, at a fixed stride after a 16-byte page header. (The
/// page's encoding is not public, so its length is computed here.)
fn encoded_len(page: &Page) -> usize {
    16 + page.len() * (8 + 4 + RECORD_BYTES)
}

/// Key bytes 0..8 carry the generated key, so the input's order profile is
/// the file's; bytes 8..10 and the payload are a function of the position.
fn write_input(path: &Path, order: GenOrder, pages: usize, per_page: usize, seed: u64) -> u64 {
    let mut source = GenSource::new(pages, per_page, 64, seed).with_order(order);
    let mut bytes = Vec::with_capacity(pages * per_page * RECORD_BYTES);
    let mut i = 0u64;
    while let Some(page) = source.next_page().unwrap() {
        for t in page.tuples() {
            let fill = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8;
            bytes.extend_from_slice(&t.key.to_be_bytes());
            bytes.extend_from_slice(&(i as u16).to_be_bytes());
            bytes.extend(std::iter::repeat_n(fill, RECORD_BYTES - 10));
            i += 1;
        }
    }
    std::fs::write(path, bytes).unwrap();
    i
}

/// Moves the budget between `hi` and `lo` every `period` pages of progress
/// (input pages served plus run pages read), as the harness's `file_wobble`
/// does, so where the moves land does not depend on the clock.
struct Wobble {
    budget: MemoryBudget,
    hi: usize,
    lo: usize,
    period: usize,
    progress: AtomicUsize,
    stopped: AtomicBool,
}

impl Wobble {
    fn advance(&self, pages: usize) {
        if self.stopped.load(Ordering::Relaxed) {
            return;
        }
        let before = self.progress.fetch_add(pages, Ordering::Relaxed);
        for step in before / self.period + 1..=(before + pages) / self.period {
            let target = if step % 2 == 1 { self.lo } else { self.hi };
            self.budget.set_target(target, 0.0);
        }
    }
}

struct Wobbled<I> {
    inner: I,
    wobble: Option<Arc<Wobble>>,
}

impl<I: InputSource> InputSource for Wobbled<I> {
    fn next_page(&mut self) -> SortResult<Option<Page>> {
        if let Some(w) = &self.wobble {
            w.advance(1);
        }
        self.inner.next_page()
    }
}

/// Per run: pages and encoded bytes appended, pages and bytes read.
#[derive(Default)]
struct RunCounts {
    pages_in: usize,
    bytes_in: usize,
    pages_out: usize,
    bytes_out: usize,
}

/// Counts what crosses the `RunStore` boundary, per run.
struct Counting<S> {
    inner: S,
    runs: BTreeMap<RunId, RunCounts>,
    wobble: Option<Arc<Wobble>>,
}

impl<S: RunStore> Counting<S> {
    fn appended(&mut self, run: RunId, pages: &[Page]) {
        let c = self.runs.entry(run).or_default();
        c.pages_in += pages.len();
        c.bytes_in += pages.iter().map(encoded_len).sum::<usize>();
    }
}

impl<S: RunStore> RunStore for Counting<S> {
    fn create_run(&mut self) -> SortResult<RunId> {
        let run = self.inner.create_run()?;
        self.runs.entry(run).or_default();
        Ok(run)
    }
    fn append_page(&mut self, run: RunId, page: Page) -> SortResult<()> {
        self.appended(run, std::slice::from_ref(&page));
        self.inner.append_page(run, page)
    }
    fn append_block(&mut self, run: RunId, pages: Vec<Page>) -> SortResult<()> {
        self.appended(run, &pages);
        self.inner.append_block(run, pages)
    }
    fn read_page(&mut self, run: RunId, idx: usize) -> SortResult<Page> {
        if let Some(w) = &self.wobble {
            w.advance(1);
        }
        let page = self.inner.read_page(run, idx)?;
        let c = self.runs.entry(run).or_default();
        c.pages_out += 1;
        c.bytes_out += encoded_len(&page);
        Ok(page)
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
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Removes the test's input files, however the test ends.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Row {
    name: String,
    cfg: SortConfig,
    order: GenOrder,
    input_pages: usize,
    /// `(lo, period)`: wobble the budget down to `lo` pages and back.
    wobble: Option<(usize, usize)>,
}

fn golden_line(dir: &Path, row: &Row) -> String {
    let per_page = row.cfg.tuples_per_page();
    let input = dir.join(format!("{}.gensort", row.name.replace('/', "-")));
    let records = write_input(&input, row.order, row.input_pages, per_page, 7);
    let budget = MemoryBudget::new(row.cfg.memory_pages);
    let wobble = row.wobble.map(|(lo, period)| {
        Arc::new(Wobble {
            budget: budget.clone(),
            hi: row.cfg.memory_pages,
            lo,
            period,
            progress: AtomicUsize::new(0),
            stopped: AtomicBool::new(false),
        })
    });
    let source = GensortFileSource::open(&input, per_page).unwrap();
    let mut sort = SortJob::builder()
        .config(row.cfg.clone())
        .order(gensort_order())
        .input(Wobbled {
            inner: source,
            wobble: wobble.clone(),
        })
        .store(Counting {
            inner: FileStore::in_temp_dir().unwrap(),
            runs: BTreeMap::new(),
            wobble: wobble.clone(),
        })
        .budget(budget)
        .build()
        .unwrap()
        .run()
        .unwrap();
    if let Some(w) = &wobble {
        w.stopped.store(true, Ordering::Relaxed);
    }
    let mut streamed = 0usize;
    let mut out = 0u64;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut last: Option<Vec<u8>> = None;
    while let Some(page) = sort.next_page().unwrap() {
        streamed += 1;
        for t in page.tuples() {
            let record = record_bytes(&t).unwrap();
            if let Some(prev) = &last {
                assert!(prev[..10] <= record[..10], "{}: out of order", row.name);
            }
            hash = fnv1a(hash, record);
            last = Some(record.to_vec());
            out += 1;
        }
    }
    assert_eq!(out, records, "{}: records lost", row.name);

    let outcome = &sort.outcome;
    let (split, merge) = (&outcome.split, &outcome.merge);
    let counts = sort.store.runs.values();
    let sum = |f: fn(&RunCounts) -> usize| counts.clone().map(f).sum::<usize>();
    let (pages_in, bytes_in) = (sum(|c| c.pages_in), sum(|c| c.bytes_in));
    let (pages_out, bytes_out) = (sum(|c| c.pages_out), sum(|c| c.bytes_out));
    let run_pages: Vec<String> = split.runs.iter().map(|r| r.pages.to_string()).collect();
    let mut line = String::new();
    write!(
        line,
        "{} {} runs={} run_pages=[{}] store_runs={} pages_w={pages_in} pages_r={pages_out} \
         bytes_w={bytes_in} bytes_r={bytes_out} run_bytes_per_input_byte={:.4} steps={} \
         splits={} combines={} refetched={} streamed={streamed} hash={hash:016x}",
        row.name,
        row.cfg.algorithm,
        split.run_count(),
        run_pages.join(","),
        sort.store.runs.len(),
        (bytes_in + bytes_out) as f64 / (records as usize * RECORD_BYTES) as f64,
        merge.steps_executed,
        merge.splits,
        merge.combines,
        merge.refetched_pages,
    )
    .unwrap();
    line
}

fn rows() -> Vec<Row> {
    // 4 KiB pages of 108-byte tuples: 37 gensort records a page.
    let small = |algorithm: &str, mem: usize| {
        SortConfig::default()
            .with_page_size(4096)
            .with_tuple_size(RECORD_BYTES + 8)
            .with_memory_pages(mem)
            .with_algorithm(algorithm.parse().unwrap())
    };
    let orders = [
        ("random", GenOrder::Random),
        ("sorted90", GenOrder::PartiallySorted { presortedness: 0.9 }),
        ("reversed", GenOrder::Reversed),
    ];
    let mut rows = Vec::new();
    for algorithm in ["nat6,opt,split", "repl6,opt,split", "quick,opt,split"] {
        for (shape, order) in orders {
            rows.push(Row {
                name: format!("{shape}/{}", algorithm.split(',').next().unwrap()),
                cfg: small(algorithm, 8),
                order,
                input_pages: 120,
                wobble: None,
            });
        }
    }
    // The budget toggles 24 <-> 6 pages every 20 pages of progress: dynamic
    // splits during the merge, and preliminary steps.
    rows.push(Row {
        name: "wobble/nat6".into(),
        cfg: small("nat6,opt,split", 24),
        order: GenOrder::Random,
        input_pages: 160,
        wobble: Some((6, 20)),
    });
    // The harness's geometry (32 KiB pages, 108-byte tuples) in a grant that
    // merges every run in one pass: run bytes per input byte is the run half
    // of the harness's `io_amp`.
    rows.push(Row {
        name: "harness/random".into(),
        cfg: SortJob::builder()
            .build()
            .unwrap()
            .config()
            .clone()
            .with_page_size(32 * 1024)
            .with_tuple_size(RECORD_BYTES + 8)
            .with_memory_pages(16),
        order: GenOrder::Random,
        input_pages: 96,
        wobble: None,
    });
    rows
}

#[test]
fn file_pipeline_matches_golden() {
    let dir = TempDir(std::env::temp_dir().join(format!(
        "masort-golden-{}-file-pipeline",
        std::process::id()
    )));
    std::fs::create_dir_all(&dir.0).unwrap();
    let mut actual = String::new();
    for row in rows() {
        actual.push_str(&golden_line(&dir.0, &row));
        actual.push('\n');
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/file_pipeline.txt");
    if std::env::var_os("MASORT_BLESS").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap();
    for (want, got) in golden.lines().zip(actual.lines()) {
        assert_eq!(got, want, "the pipeline's I/O changed");
    }
    assert_eq!(actual, golden, "golden file and row list differ in length");
}
