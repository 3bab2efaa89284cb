//! Tuple-layout experiment: owned pages vs the dense arena layout on a
//! gensort-format `FileStore` sort.
//!
//! The rig generates a deterministic gensort input file (100-byte records,
//! 10-byte memcmp keys), then sorts it twice through the full external-sort
//! pipeline — run formation, then the adaptive merge whose final step streams
//! straight into the output file — once per page layout:
//!
//! * `owned` — the classic layout: every tuple is an individually allocated
//!   `Vec<u8>` payload, pages are `Vec<Tuple>`.
//! * `dense` — the arena layout: fixed-stride records in one contiguous byte
//!   region per page, decoded zero-copy from the I/O block and moved between
//!   merge inputs and outputs as raw byte ranges.
//!
//! Both sorts stream their output through [`GensortWriter`] into a record
//! file, and the two files are asserted **byte-identical** — the layouts may
//! only differ in speed, never in result. The headline metric is
//! *merge-phase* tuples/sec: the merge is the layer the layout changes
//! (zero-copy block decode into borrowed record slices, arena-to-arena page
//! moves in preliminary steps), while the split phase parses the input into
//! owned tuples under either layout. The merge phase includes writing the
//! output file: its root step is executed by the loop that feeds the writer,
//! so there is no separate stream-out phase to time. The layout-neutral
//! split phase is timed and reported too — the whole-sort ratio is in the
//! JSON as `speedup_sort` — so the end-to-end picture stays visible next to
//! the headline.
//!
//! A machine-readable summary is written to `BENCH_layout.json` (override
//! with `MASORT_LAYOUT_JSON`, directory via `MASORT_BENCH_DIR`).
//!
//! Environment knobs:
//! `MASORT_LAYOUT_MB` (input size in MB, 1 MB = 10_000 records, default 1024),
//! `MASORT_LAYOUT_PAGE_KB` (page size in KB, default 32),
//! `MASORT_LAYOUT_MEM_PAGES` (sort memory in pages, default 512),
//! `MASORT_LAYOUT_IO_THREADS` (background I/O threads, 0 = synchronous,
//! default 2),
//! `MASORT_LAYOUT_REPS` (default 1, fastest repetition is reported),
//! `MASORT_LAYOUT_SEED` (default 42),
//! `MASORT_LAYOUT_DIR` (work dir, kept if set; default: fresh temp dir,
//! deleted afterwards),
//! `MASORT_LAYOUT_JSON` (output path, default `BENCH_layout.json`).

use masort_bench::{env_usize, f, print_table};
use masort_core::gensort::{
    generate_gensort_file, gensort_order, GensortFileSource, GensortWriter, GENSORT_RECORD_BYTES,
};
use masort_core::tuple::KEY_BYTES;
use masort_core::{
    AlgorithmSpec, FileStore, IoPool, MergeAdaptation, MergePolicy, PageLayout, RunFormation,
    RunStore, SortConfig, SortJob,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Records per "MB" of input (1 MB = 10^6 bytes of 100-byte records).
const RECORDS_PER_MB: usize = 1_000_000 / GENSORT_RECORD_BYTES;

struct Outcome {
    sort_s: f64,
    split_s: f64,
    merge_s: f64,
}

/// Sort `input` under `layout` and stream the result to `out_path`.
fn run_layout(input: &Path, out_path: &Path, work: &Path, layout: PageLayout) -> Outcome {
    // Quicksort run formation: memory-sized runs in one sort_unstable pass,
    // so the (layout-neutral) split phase doesn't drown the merge phase the
    // layouts actually differ in.
    let cfg = SortConfig::default()
        .with_algorithm(AlgorithmSpec::new(
            RunFormation::Quicksort,
            MergePolicy::Optimized,
            MergeAdaptation::DynamicSplitting,
        ))
        .with_page_size(env_usize("MASORT_LAYOUT_PAGE_KB", 32) * 1024)
        .with_tuple_size(GENSORT_RECORD_BYTES + KEY_BYTES)
        .with_memory_pages(env_usize("MASORT_LAYOUT_MEM_PAGES", 512))
        .with_layout(layout);
    let run_dir = work.join(format!("runs-{layout}"));
    std::fs::create_dir_all(&run_dir).expect("create run dir");
    let mut store = FileStore::new(&run_dir).expect("open run store");
    // Overlap run I/O with merge CPU, as a production deployment would
    // (`exp_io` measures this pipeline on its own).
    let io_threads = env_usize("MASORT_LAYOUT_IO_THREADS", 2);
    if io_threads > 0 {
        store.attach_io_pool(IoPool::new(io_threads));
        store.set_write_coalescing(16);
    }
    let source = GensortFileSource::open(input, cfg.tuples_per_page()).expect("open input");

    let t0 = Instant::now();
    let mut stream = SortJob::builder()
        .config(cfg)
        .order(gensort_order())
        .input(source)
        .store(store)
        .build()
        .expect("valid config")
        .run()
        .expect("sort")
        .into_stream();
    let mut writer = GensortWriter::create(out_path).expect("create output");
    for t in stream.by_ref() {
        writer
            .write_tuple(&t.expect("stream tuple"))
            .expect("write record");
    }
    writer.finish().expect("flush output");
    let sort_s = t0.elapsed().as_secs_f64();
    let outcome = stream.finish();

    let _ = std::fs::remove_dir_all(&run_dir);
    Outcome {
        sort_s,
        split_s: outcome.split.duration(),
        merge_s: outcome.merge.duration(),
    }
}

fn best_of(reps: usize, input: &Path, out: &Path, work: &Path, layout: PageLayout) -> Outcome {
    let mut best: Option<Outcome> = None;
    for _ in 0..reps.max(1) {
        let o = run_layout(input, out, work, layout);
        // Rank repetitions on the headline (merge-phase) time.
        if best.as_ref().is_none_or(|b| o.merge_s < b.merge_s) {
            best = Some(o);
        }
    }
    best.expect("at least one repetition")
}

fn main() {
    let mb = env_usize("MASORT_LAYOUT_MB", 1024);
    let records = mb.max(1) * RECORDS_PER_MB;
    let mem_pages = env_usize("MASORT_LAYOUT_MEM_PAGES", 512);
    let reps = env_usize("MASORT_LAYOUT_REPS", 1);
    let seed = env_usize("MASORT_LAYOUT_SEED", 42) as u64;
    let json_path = std::env::var("MASORT_LAYOUT_JSON")
        .map(PathBuf::from)
        .unwrap_or_else(|_| masort_bench::bench_output_path("BENCH_layout.json"));

    // Work dir: caller-provided (kept, input file reused) or private temp
    // (deleted at the end).
    let (work, keep_work) = match std::env::var("MASORT_LAYOUT_DIR") {
        Ok(d) if !d.is_empty() => (PathBuf::from(d), true),
        _ => {
            let mut dir = std::env::temp_dir();
            dir.push(format!(
                "masort-layout-{}-{:x}",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_nanos())
                    .unwrap_or(0)
            ));
            (dir, false)
        }
    };
    std::fs::create_dir_all(&work).expect("create work dir");

    eprintln!(
        "Tuple layout experiment — {records} records ({mb} MB), {mem_pages} memory pages, \
         best of {reps}"
    );

    let input = work.join("input.gensort");
    let want_len = (records * GENSORT_RECORD_BYTES) as u64;
    let have_len = std::fs::metadata(&input).map(|m| m.len()).unwrap_or(0);
    if have_len != want_len {
        let t0 = Instant::now();
        generate_gensort_file(&input, records, seed).expect("generate input");
        eprintln!(
            "generated {} in {:.1}s",
            input.display(),
            t0.elapsed().as_secs_f64()
        );
    } else {
        eprintln!("reusing {}", input.display());
    }

    let layouts = [
        ("owned", PageLayout::Owned),
        ("dense", PageLayout::dense_for_payload(GENSORT_RECORD_BYTES)),
    ];
    let mut outcomes = Vec::new();
    let mut out_files = Vec::new();
    for (name, layout) in layouts {
        let out = work.join(format!("out-{name}.gensort"));
        let o = best_of(reps, &input, &out, &work, layout);
        eprintln!(
            "{name}: sort {:.2}s ({:.2} Mtuples/s; split {:.2}s, merge {:.2}s)",
            o.sort_s,
            records as f64 / o.sort_s.max(1e-9) / 1e6,
            o.split_s,
            o.merge_s,
        );
        outcomes.push(o);
        out_files.push(out);
    }

    // The layouts must be an implementation detail: byte-identical output.
    let owned_out = std::fs::read(&out_files[0]).expect("read owned output");
    let dense_out = std::fs::read(&out_files[1]).expect("read dense output");
    let identical = owned_out == dense_out && owned_out.len() == want_len as usize;
    if !identical {
        eprintln!(
            "FAIL: outputs differ (owned {} bytes, dense {} bytes, expected {want_len})",
            owned_out.len(),
            dense_out.len()
        );
    }
    drop(owned_out);
    drop(dense_out);
    if !keep_work {
        let _ = std::fs::remove_dir_all(&work);
    }
    if !identical {
        std::process::exit(1);
    }
    eprintln!("outputs byte-identical across layouts ({want_len} bytes)");

    let merge_tps = |o: &Outcome| records as f64 / o.merge_s.max(1e-9);
    let sort_tps = |o: &Outcome| records as f64 / o.sort_s.max(1e-9);
    let speedup = merge_tps(&outcomes[1]) / merge_tps(&outcomes[0]).max(1e-9);
    let speedup_sort = sort_tps(&outcomes[1]) / sort_tps(&outcomes[0]).max(1e-9);
    let rows: Vec<Vec<String>> = layouts
        .iter()
        .zip(&outcomes)
        .map(|((name, _), o)| {
            vec![
                name.to_string(),
                f(o.split_s, 2),
                f(o.merge_s, 2),
                f(o.sort_s, 2),
                f(merge_tps(o) / 1e6, 3),
            ]
        })
        .collect();
    print_table(
        "exp_layout: owned vs dense tuple layout (gensort, FileStore)",
        &[
            "layout",
            "split (s)",
            "merge (s)",
            "sort (s)",
            "merge Mtuples/s",
        ],
        &rows,
    );
    println!(
        "speedup: {speedup:.2}x merge-phase tuples/sec (dense / owned; whole sort \
         {speedup_sort:.2}x), outputs byte-identical"
    );

    let json_rows: Vec<String> = layouts
        .iter()
        .zip(&outcomes)
        .map(|((name, _), o)| {
            format!(
                "    {{\"layout\": \"{name}\", \"sort_s\": {:.3}, \"split_s\": {:.3}, \
                 \"merge_s\": {:.3}, \"merge_tuples_per_sec\": {:.0}}}",
                o.sort_s,
                o.split_s,
                o.merge_s,
                merge_tps(o)
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"layout\",\n  \"mb\": {mb},\n  \"records\": {records},\n  \
         \"mem_pages\": {mem_pages},\n  \"reps\": {reps},\n  \"byte_identical\": true,\n  \
         \"speedup_metric\": \"merge_tuples_per_sec\",\n  \"speedup\": {speedup:.3},\n  \
         \"speedup_sort\": {speedup_sort:.3},\n  \"rows\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    // CI consumes this file (cat + artifact upload); failing to produce it
    // must fail the bench step here, where the cause is visible.
    match std::fs::write(&json_path, &json) {
        Ok(()) => eprintln!("wrote {}", json_path.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", json_path.display());
            std::process::exit(1);
        }
    }
}
