//! Hardware floor rows: what this machine does with the same bytes when no
//! sort is involved. Context for `sort_mb_s`, measured during set-up on the
//! filesystem the workload will use.

use crate::gen::{Key, RECORD_BYTES};
use crate::stats::median;
use std::fs::File;
use std::hint::black_box;
use std::io::{Read, Write};
use std::path::Path;
use std::time::Instant;

/// Each floor is the median of this many measurements.
const FLOOR_REPS: usize = 3;
const CHUNK: usize = 1 << 20;
/// Copy this much per memcpy measurement: far past the per-core caches.
const MEMCPY_BYTES: usize = 64 << 20;

#[derive(Clone, Copy, Debug, Default)]
pub struct Floors {
    /// `copy_from_slice` of a buffer far larger than the per-core caches.
    pub memcpy_mb_s: f64,
    /// Volume ÷ (time to write it sequentially + time to read it back).
    pub file_rw_mb_s: f64,
    /// Record volume ÷ time to `sort_unstable` its 10-byte keys.
    pub key_sort_mb_s: f64,
}

impl Floors {
    /// The rate of a sort that did nothing but two write+read round trips of
    /// the volume (runs, then output) and one in-memory sort of the keys.
    pub fn implied_mb_s(&self) -> f64 {
        1.0 / (2.0 / self.file_rw_mb_s + 1.0 / self.key_sort_mb_s)
    }
}

fn median_rate(
    volume_bytes: usize,
    mut once: impl FnMut() -> std::io::Result<f64>,
) -> std::io::Result<f64> {
    let mut rates = Vec::with_capacity(FLOOR_REPS);
    for _ in 0..FLOOR_REPS {
        rates.push(volume_bytes as f64 / 1e6 / once()?);
    }
    Ok(median(&rates).expect("FLOOR_REPS > 0"))
}

/// Measure the floors for an input of `keys.len()` records, using `scratch`
/// (a file path on the workload's filesystem) for the file row.
pub fn measure(keys: &[Key], scratch: &Path) -> std::io::Result<Floors> {
    let volume = keys.len() * RECORD_BYTES;

    let src = vec![0x5Au8; MEMCPY_BYTES];
    let mut dst = vec![0u8; MEMCPY_BYTES];
    let memcpy_mb_s = median_rate(MEMCPY_BYTES, || {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        Ok(t.elapsed().as_secs_f64())
    })?;

    let mut chunk = vec![0xA5u8; CHUNK];
    let file_rw_mb_s = median_rate(volume, || {
        let t = Instant::now();
        let mut file = File::create(scratch)?;
        let mut left = volume;
        while left > 0 {
            let n = left.min(CHUNK);
            file.write_all(&chunk[..n])?;
            left -= n;
        }
        file.flush()?;
        drop(file);
        let mut file = File::open(scratch)?;
        let mut left = volume;
        while left > 0 {
            let n = left.min(CHUNK);
            file.read_exact(&mut chunk[..n])?;
            left -= n;
        }
        Ok(t.elapsed().as_secs_f64())
    })?;
    std::fs::remove_file(scratch)?;

    let key_sort_mb_s = median_rate(volume, || {
        let mut copy = keys.to_vec();
        let t = Instant::now();
        copy.sort_unstable();
        black_box(&copy);
        Ok(t.elapsed().as_secs_f64())
    })?;

    Ok(Floors {
        memcpy_mb_s,
        file_rw_mb_s,
        key_sort_mb_s,
    })
}
