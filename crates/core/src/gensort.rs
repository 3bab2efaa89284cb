//! Adapters for the gensort / sortbenchmark.org record format.
//!
//! A gensort record is exactly 100 bytes: a 10-byte key followed by a 90-byte
//! payload, ordered by memcmp on the key. The adapters here map that format
//! onto the sort's tuple model so GB-scale benchmark files drive the real
//! [`crate::FileStore`] pipeline:
//!
//! * the tuple *key* is the [`normalized_prefix`] of the 10-byte record key —
//!   an order-preserving big-endian packing of its first eight bytes;
//! * the tuple *payload* is the whole 100-byte record, so the remaining two
//!   key bytes live at payload offsets 8..10 where the
//!   [`SortOrder::by_normalized_key`] tie-break reads them;
//! * [`gensort_order`] wires both together: rank comparisons decide on the
//!   8-byte prefix and only prefix collisions touch the record.
//!
//! Round trips are loss-free: a record in is byte-for-byte the record out
//! ([`record_bytes`]), so a sorted file can be checked against an oracle's
//! bytes.

use crate::error::{SortError, SortResult};
use crate::input::InputSource;
use crate::layout::{PayloadRef, TupleArena, RECORD_HEADER};
use crate::order::{normalized_prefix, SortOrder};
use crate::tuple::{Page, Payload, Tuple};
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

/// Size of one gensort record in bytes.
const GENSORT_RECORD_BYTES: usize = 100;

/// Size of a gensort record's key in bytes.
const GENSORT_KEY_BYTES: usize = 10;

/// Buffer in front of a gensort file being written: a 64 MB result leaves in
/// 61 `write` calls instead of the 7 813 of `BufWriter`'s 8 KiB default.
const WRITE_BUFFER_BYTES: usize = 1 << 20;

/// The sort order of the gensort benchmark: memcmp over the 10-byte record
/// key, realised as a normalized 8-byte prefix rank plus a 2-byte tie rank.
pub fn gensort_order() -> SortOrder {
    SortOrder::by_normalized_key(GENSORT_KEY_BYTES)
}

/// Convert one 100-byte gensort record into a tuple.
///
/// # Panics
///
/// Panics if `record` is not exactly 100 bytes long.
pub fn tuple_from_record(record: &[u8]) -> Tuple {
    assert_eq!(
        record.len(),
        GENSORT_RECORD_BYTES,
        "gensort records are exactly {GENSORT_RECORD_BYTES} bytes"
    );
    Tuple {
        key: normalized_prefix(&record[..GENSORT_KEY_BYTES]),
        payload: Payload::Bytes(record.to_vec()),
    }
}

/// The 100-byte gensort record carried by a tuple, or an error if the tuple
/// did not come from a gensort source.
pub fn record_bytes(t: &Tuple) -> SortResult<&[u8]> {
    match &t.payload {
        Payload::Bytes(b) if b.len() == GENSORT_RECORD_BYTES => Ok(b),
        other => Err(SortError::invalid_config(format!(
            "not a gensort tuple: payload holds {} byte(s), expected {GENSORT_RECORD_BYTES}",
            other.len()
        ))),
    }
}

/// An [`InputSource`] over a file of gensort records.
///
/// Each page is built in place: the records are read into one reused buffer and
/// copied from there into the page's record region, so no record is ever an
/// allocation of its own.
#[derive(Debug)]
pub struct GensortFileSource {
    file: File,
    /// The raw records of the page being built.
    buf: Vec<u8>,
    arena: TupleArena,
    tuples_per_page: usize,
    total_records: usize,
    read_records: usize,
}

impl GensortFileSource {
    /// Open `path` and serve its records as pages of `tuples_per_page`
    /// tuples. Fails if `tuples_per_page` is zero or the file length is not a
    /// whole number of records.
    pub fn open(path: &Path, tuples_per_page: usize) -> SortResult<Self> {
        if tuples_per_page == 0 {
            return Err(SortError::invalid_config(
                "a gensort source needs at least one tuple per page",
            ));
        }
        let file = File::open(path)?;
        let len = file.metadata()?.len() as usize;
        if !len.is_multiple_of(GENSORT_RECORD_BYTES) {
            return Err(SortError::invalid_config(format!(
                "gensort file {} is {len} bytes, not a multiple of {GENSORT_RECORD_BYTES}",
                path.display()
            )));
        }
        Ok(GensortFileSource {
            file,
            buf: Vec::new(),
            // A whole record is the payload, and sits inline.
            arena: TupleArena::with_capacity(RECORD_HEADER + GENSORT_RECORD_BYTES, tuples_per_page),
            tuples_per_page,
            total_records: len / GENSORT_RECORD_BYTES,
            read_records: 0,
        })
    }
}

impl InputSource for GensortFileSource {
    fn next_page(&mut self) -> SortResult<Option<Page>> {
        let n = self
            .tuples_per_page
            .min(self.total_records - self.read_records);
        if n == 0 {
            return Ok(None);
        }
        self.buf.resize(n * GENSORT_RECORD_BYTES, 0);
        self.file.read_exact(&mut self.buf)?;
        self.read_records += n;
        for record in self.buf.chunks_exact(GENSORT_RECORD_BYTES) {
            let key = normalized_prefix(&record[..GENSORT_KEY_BYTES]);
            self.arena.push_ref(key, PayloadRef::Bytes(record));
        }
        Ok(Some(self.arena.seal()))
    }

    fn total_pages(&self) -> Option<usize> {
        Some(self.total_records.div_ceil(self.tuples_per_page))
    }

    fn total_tuples(&self) -> Option<usize> {
        Some(self.total_records)
    }
}

/// Writes sorted tuples back out as a gensort record file.
#[derive(Debug)]
pub struct GensortWriter<W: Write> {
    inner: W,
    records: usize,
}

impl GensortWriter<BufWriter<File>> {
    /// Create (truncating) a gensort output file at `path`.
    pub fn create(path: &Path) -> SortResult<Self> {
        Ok(GensortWriter::new(create_buffered(path)?))
    }
}

impl<W: Write> GensortWriter<W> {
    /// Wrap an arbitrary writer.
    pub fn new(inner: W) -> Self {
        GensortWriter { inner, records: 0 }
    }

    /// Append one tuple's 100-byte record. Fails on tuples that did not come
    /// from a gensort source (wrong payload length or synthetic payloads).
    pub fn write_tuple(&mut self, t: &Tuple) -> SortResult<()> {
        self.inner.write_all(record_bytes(t)?)?;
        self.records += 1;
        Ok(())
    }

    /// Flush and return the number of records written.
    pub fn finish(mut self) -> SortResult<usize> {
        self.inner.flush()?;
        Ok(self.records)
    }
}

/// Create (truncating) `path` behind a [`WRITE_BUFFER_BYTES`] buffer.
fn create_buffered(path: &Path) -> SortResult<BufWriter<File>> {
    Ok(BufWriter::with_capacity(
        WRITE_BUFFER_BYTES,
        File::create(path)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Fill `buf` with bytes drawn from `rng`, eight at a time.
    fn fill_bytes<R: rand::Rng>(rng: &mut R, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        let tail = rng.next_u64().to_le_bytes();
        let n = rest.len();
        rest.copy_from_slice(&tail[..n]);
    }

    /// Minimal self-cleaning temp dir (the workspace has no tempfile crate).
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let mut dir = std::env::temp_dir();
            dir.push(format!(
                "masort-gensort-{tag}-{}-{:x}",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_nanos())
                    .unwrap_or(0)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn random_records(n: usize, seed: u64) -> Vec<[u8; GENSORT_RECORD_BYTES]> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut rec = [0u8; GENSORT_RECORD_BYTES];
                fill_bytes(&mut rng, &mut rec);
                rec
            })
            .collect()
    }

    #[test]
    fn record_round_trips_byte_for_byte() {
        for rec in random_records(64, 1) {
            let t = tuple_from_record(&rec);
            assert_eq!(record_bytes(&t).unwrap(), &rec[..]);
        }
    }

    #[test]
    fn composite_order_matches_memcmp_on_ten_byte_keys() {
        // The property the whole adapter rests on: comparing composites is
        // exactly comparing the 10-byte keys bytewise (the remaining 90
        // payload bytes never participate).
        let order = gensort_order();
        let recs = random_records(256, 2);
        // Add prefix-colliding pairs so the tie rank is actually exercised.
        let mut recs: Vec<[u8; GENSORT_RECORD_BYTES]> = recs;
        for i in 0..32 {
            let mut a = recs[i];
            let mut b = a;
            a[8] = 1;
            b[8] = 2;
            b[20] = a[20].wrapping_add(1); // differing payloads must not matter
            recs.push(a);
            recs.push(b);
        }
        for pair in recs.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            let (ta, tb) = (tuple_from_record(a), tuple_from_record(b));
            assert_eq!(
                order.composite_of(&ta).cmp(&order.composite_of(&tb)),
                a[..GENSORT_KEY_BYTES].cmp(&b[..GENSORT_KEY_BYTES]),
                "composite order disagrees with memcmp for keys {:?} / {:?}",
                &a[..GENSORT_KEY_BYTES],
                &b[..GENSORT_KEY_BYTES],
            );
        }
    }

    #[test]
    fn file_to_file_sort_writes_the_oracles_bytes() {
        // gensort file → pages → runs in a `FileStore` → merge → gensort
        // file, against `sort_unstable` over the same records. Pairs sharing
        // their first eight key bytes make the order depend on the tie rank;
        // all ten-byte keys are distinct, so the oracle's order is the only
        // one.
        let mut records = random_records(3_000, 42);
        for i in 0..64 {
            let mut twin = records[i];
            twin[9] = twin[9].wrapping_add(1);
            twin[50] = twin[50].wrapping_add(1);
            records.push(twin);
        }
        let dir = TempDir::new("roundtrip");
        let input_path = dir.path().join("input.gensort");
        std::fs::write(&input_path, records.concat()).unwrap();
        records.sort_unstable_by(|a, b| a[..GENSORT_KEY_BYTES].cmp(&b[..GENSORT_KEY_BYTES]));
        assert!(records
            .windows(2)
            .all(|w| w[0][..GENSORT_KEY_BYTES] < w[1][..GENSORT_KEY_BYTES]));
        let oracle = records.concat();

        for algorithm in ["nat6,opt,split", "repl1,naive,page", "quick,opt,susp"] {
            let cfg = crate::config::SortConfig::default()
                .with_page_size(4096)
                .with_tuple_size(GENSORT_RECORD_BYTES + crate::tuple::KEY_BYTES)
                .with_memory_pages(16)
                .with_algorithm(algorithm.parse().unwrap());
            let source = GensortFileSource::open(&input_path, cfg.tuples_per_page()).unwrap();
            let completion = crate::job::SortJob::builder()
                .config(cfg)
                .order(gensort_order())
                .input(source)
                .store(crate::store::FileStore::new(dir.path()).unwrap())
                .build()
                .unwrap()
                .run()
                .unwrap();
            assert!(completion.outcome.runs_formed() > 1, "{algorithm}");
            let out_path = dir.path().join("out.gensort");
            let mut writer = GensortWriter::create(&out_path).unwrap();
            for t in completion.into_stream() {
                writer.write_tuple(&t.unwrap()).unwrap();
            }
            assert_eq!(writer.finish().unwrap(), records.len());
            assert!(std::fs::read(&out_path).unwrap() == oracle, "{algorithm}");
        }
    }

    #[test]
    fn file_source_pages_are_dense_and_hold_the_records() {
        let dir = TempDir::new("dense");
        let path = dir.path().join("in.gensort");
        let records = random_records(10, 5);
        std::fs::write(&path, records.concat()).unwrap();
        let mut source = GensortFileSource::open(&path, 4).unwrap();
        assert_eq!(source.total_pages(), Some(3));
        let mut seen = 0;
        while let Some(page) = source.next_page().unwrap() {
            for t in page.tuples().iter() {
                assert_eq!(t, &tuple_from_record(&records[seen]));
                seen += 1;
            }
        }
        assert_eq!(seen, 10);
    }

    #[test]
    fn writer_rejects_non_gensort_tuples() {
        let mut w = GensortWriter::new(Vec::new());
        let bad = Tuple::synthetic(1, 100);
        assert!(matches!(
            w.write_tuple(&bad),
            Err(SortError::InvalidConfig(_))
        ));
        let short = Tuple {
            key: 0,
            payload: Payload::Bytes(vec![0u8; 10]),
        };
        assert!(matches!(
            w.write_tuple(&short),
            Err(SortError::InvalidConfig(_))
        ));
    }

    #[test]
    fn file_source_rejects_ragged_files_and_empty_pages() {
        let dir = TempDir::new("ragged");
        let p = dir.path().join("ragged.gensort");
        std::fs::write(&p, vec![0u8; 150]).unwrap();
        assert!(matches!(
            GensortFileSource::open(&p, 8),
            Err(SortError::InvalidConfig(_))
        ));
        std::fs::write(&p, vec![0u8; 200]).unwrap();
        assert!(matches!(
            GensortFileSource::open(&p, 0),
            Err(SortError::InvalidConfig(_))
        ));
        assert!(GensortFileSource::open(&p, 8).is_ok());
    }
}
