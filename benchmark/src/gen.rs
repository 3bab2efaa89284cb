//! The harness's own input generator and output verifier.
//!
//! Inputs are gensort-format records (100 bytes, the first 10 the key) drawn
//! from splitmix64, so the same `--seed` produces byte-identical inputs on
//! every commit no matter what the measured crates do to their own
//! generators. The verifier checks an output against a digest taken while the
//! input was written: record count, keys in order, and an order-independent
//! checksum of whole records.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

pub const RECORD_BYTES: usize = 100;
pub const KEY_BYTES: usize = 10;
pub type Key = [u8; KEY_BYTES];

/// splitmix64 (Steele, Lea & Flood): one add and three xor-shift-multiplies
/// per draw, and every seed is a good seed.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How the keys of an input are ordered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Every key byte uniform random.
    Random,
    /// Keys ascend with the record index, except that a seeded tenth of the
    /// positions carry a uniform-random key instead.
    Sorted90,
}

/// Yields the records of one input, in order.
pub struct RecordGen {
    rng: SplitMix64,
    shape: Shape,
    total: usize,
    index: usize,
    checksum: u64,
}

impl RecordGen {
    pub fn new(records: usize, seed: u64, shape: Shape) -> Self {
        RecordGen {
            rng: SplitMix64::new(seed),
            shape,
            total: records,
            index: 0,
            checksum: 0,
        }
    }

    /// Digest of the records yielded so far.
    pub fn digest(&self) -> Digest {
        Digest {
            records: self.index,
            checksum: self.checksum,
        }
    }

    /// Fill `record` with the next record; `false` when the input is done.
    pub fn next_into(&mut self, record: &mut [u8; RECORD_BYTES]) -> bool {
        if self.index == self.total {
            return false;
        }
        let mut words = record.chunks_exact_mut(8);
        for word in &mut words {
            word.copy_from_slice(&self.rng.next_u64().to_le_bytes());
        }
        let tail = words.into_remainder();
        let draw = self.rng.next_u64().to_le_bytes();
        tail.copy_from_slice(&draw[..tail.len()]);
        if self.shape == Shape::Sorted90 && !self.rng.next_u64().is_multiple_of(10) {
            // Spread the indices over the whole 64-bit prefix, big-endian so
            // byte order is numeric order; the last two key bytes stay random
            // and only break ties between equal prefixes.
            let prefix = ((self.index as u128) << 64) / self.total as u128;
            record[..8].copy_from_slice(&(prefix as u64).to_be_bytes());
        }
        self.index += 1;
        self.checksum = self.checksum.wrapping_add(record_hash(record));
        true
    }
}

/// Hash of one whole record. Summed (wrapping) over a file it gives a
/// checksum that does not depend on record order, so input and sorted output
/// must agree on it exactly when one is a permutation of the other.
pub fn record_hash(record: &[u8]) -> u64 {
    let mut h = record.len() as u64;
    let mut words = record.chunks_exact(8);
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        h = mix(h ^ w);
    }
    for (i, byte) in words.remainder().iter().enumerate() {
        h ^= u64::from(*byte) << (8 * i);
    }
    mix(h)
}

/// What set-up remembers about an input, for the verifier and the floors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Digest {
    pub records: usize,
    pub checksum: u64,
}

/// Running digest of a stream of records that must arrive in key order.
#[derive(Default)]
pub struct OrderedDigest {
    records: usize,
    checksum: u64,
    out_of_order: usize,
}

impl OrderedDigest {
    /// Account one record; `in_order` says whether it sorts at or after the
    /// record before it.
    pub fn push(&mut self, record: &[u8], in_order: bool) {
        self.records += 1;
        self.checksum = self.checksum.wrapping_add(record_hash(record));
        self.out_of_order += usize::from(!in_order);
    }

    /// Check the stream against the input's digest.
    pub fn check(&self, expect: &Digest) -> Result<(), String> {
        if self.records != expect.records {
            return Err(format!(
                "{} records out, {} in",
                self.records, expect.records
            ));
        }
        if self.out_of_order != 0 {
            return Err(format!("{} records out of key order", self.out_of_order));
        }
        if self.checksum != expect.checksum {
            return Err("record checksum differs from the input's".into());
        }
        Ok(())
    }
}

pub fn key_of(record: &[u8; RECORD_BYTES]) -> Key {
    record[..KEY_BYTES].try_into().expect("10-byte key")
}

/// Write an input file; returns its digest and its keys in file order (the
/// key-sort floor sorts those).
pub fn write_input(
    path: &Path,
    records: usize,
    seed: u64,
    shape: Shape,
) -> std::io::Result<(Digest, Vec<Key>)> {
    let mut gen = RecordGen::new(records, seed, shape);
    let mut out = BufWriter::with_capacity(1 << 20, File::create(path)?);
    let mut keys = Vec::with_capacity(records);
    let mut record = [0u8; RECORD_BYTES];
    while gen.next_into(&mut record) {
        keys.push(key_of(&record));
        out.write_all(&record)?;
    }
    out.flush()?;
    Ok((gen.digest(), keys))
}

/// Verify a sorted output file against the input's digest: same record
/// count, keys non-decreasing under 10-byte memcmp, same checksum.
pub fn verify_output(path: &Path, expect: &Digest) -> Result<(), String> {
    let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let len = file.metadata().map_err(|e| e.to_string())?.len() as usize;
    if len != expect.records * RECORD_BYTES {
        return Err(format!(
            "output is {len} bytes, expected {}",
            expect.records * RECORD_BYTES
        ));
    }
    let mut reader = BufReader::with_capacity(1 << 20, file);
    let mut digest = OrderedDigest::default();
    let mut previous: Key = [0; KEY_BYTES];
    let mut record = [0u8; RECORD_BYTES];
    for _ in 0..expect.records {
        reader.read_exact(&mut record).map_err(|e| e.to_string())?;
        let key = &record[..KEY_BYTES];
        digest.push(&record, previous[..] <= *key);
        previous.copy_from_slice(key);
    }
    digest.check(expect)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(n: usize, seed: u64, shape: Shape) -> Vec<[u8; RECORD_BYTES]> {
        let mut gen = RecordGen::new(n, seed, shape);
        let mut out = Vec::new();
        let mut record = [0u8; RECORD_BYTES];
        while gen.next_into(&mut record) {
            out.push(record);
        }
        out
    }

    #[test]
    fn generator_is_seed_deterministic() {
        for shape in [Shape::Random, Shape::Sorted90] {
            assert_eq!(records(500, 7, shape), records(500, 7, shape));
            assert_ne!(records(500, 7, shape), records(500, 8, shape));
        }
        // Pinned bytes (the first draw is splitmix64's reference output for
        // seed 1, 0x910a2dec89025cc1): inputs must not drift between commits.
        let first = records(1, 1, Shape::Random)[0];
        assert_eq!(
            first[..KEY_BYTES],
            [0xc1, 0x5c, 0x02, 0x89, 0xec, 0x2d, 0x0a, 0x91, 0x67, 0xec]
        );
    }

    #[test]
    fn sorted90_is_mostly_ascending() {
        let recs = records(10_000, 3, Shape::Sorted90);
        let descents = recs
            .windows(2)
            .filter(|w| w[0][..KEY_BYTES] > w[1][..KEY_BYTES])
            .count();
        // A random key among ascending ones makes at most two descents; a
        // tenth of the positions are random.
        assert!((500..2_500).contains(&descents), "{descents} descents");
    }

    #[test]
    fn checksum_is_order_independent_and_content_sensitive() {
        let recs = records(300, 11, Shape::Random);
        let sum = |rs: &[[u8; RECORD_BYTES]]| {
            rs.iter()
                .fold(0u64, |acc, r| acc.wrapping_add(record_hash(r)))
        };
        let mut reversed = recs.clone();
        reversed.reverse();
        assert_eq!(sum(&recs), sum(&reversed));
        let mut damaged = recs.clone();
        damaged[17][99] ^= 1;
        assert_ne!(sum(&recs), sum(&damaged));
        let mut duplicated = recs.clone();
        duplicated[5] = duplicated[6];
        assert_ne!(sum(&recs), sum(&duplicated));
    }

    #[test]
    fn ordered_digest_reports_each_kind_of_mismatch() {
        let recs = records(4, 5, Shape::Random);
        let mut sorted = recs.clone();
        sorted.sort();
        let expect = Digest {
            records: 4,
            checksum: recs
                .iter()
                .fold(0, |acc, r| acc.wrapping_add(record_hash(r))),
        };
        let feed = |rs: &[[u8; RECORD_BYTES]]| {
            let mut d = OrderedDigest::default();
            for (i, r) in rs.iter().enumerate() {
                d.push(r, i == 0 || rs[i - 1][..KEY_BYTES] <= r[..KEY_BYTES]);
            }
            d.check(&expect)
        };
        assert!(feed(&sorted).is_ok());
        assert!(feed(&sorted[..3]).unwrap_err().contains("records out"));
        let mut swapped = sorted.clone();
        swapped.swap(0, 3);
        assert!(feed(&swapped).unwrap_err().contains("key order"));
        let mut damaged = sorted.clone();
        damaged[2][50] ^= 0x80;
        assert!(feed(&damaged).unwrap_err().contains("checksum"));
    }
}
