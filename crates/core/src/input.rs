//! Input sources — where the pages of the relation being sorted come from.

use crate::error::SortResult;
use crate::layout::{TupleArena, MIN_DENSE_STRIDE};
use crate::tuple::{paginate, Page, Tuple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// A stream of input pages for the split phase.
///
/// Sources may know their total size in advance (helpful for planning and for
/// the simulator's relation placement) but are not required to. Producing a
/// page is fallible so that sources reading from files, sockets or other
/// operators can propagate real errors into the sort.
pub trait InputSource {
    /// Produce the next page: `Ok(None)` when the relation is exhausted.
    fn next_page(&mut self) -> SortResult<Option<Page>>;

    /// Total number of pages this source will produce, if known.
    fn total_pages(&self) -> Option<usize> {
        None
    }

    /// Total number of tuples this source will produce, if known.
    fn total_tuples(&self) -> Option<usize> {
        None
    }
}

impl<T: InputSource + ?Sized> InputSource for Box<T> {
    fn next_page(&mut self) -> SortResult<Option<Page>> {
        (**self).next_page()
    }

    fn total_pages(&self) -> Option<usize> {
        (**self).total_pages()
    }

    fn total_tuples(&self) -> Option<usize> {
        (**self).total_tuples()
    }
}

/// A transparent wrapper: `Unsplit(source)` is `source`.
///
/// Kept only because the end-to-end harness names it
/// (`benchmark/src/file.rs`), from when a sort's input had to say whether it
/// could be split across run-formation threads; it goes with the next
/// `[benchmark]` PR. Pass sources to `SortJob::builder().input(..)` bare.
///
/// ```
/// use masort_core::prelude::*;
/// use masort_core::Unsplit;
///
/// let sorted = SortJob::builder()
///     .input(Unsplit(GenSource::new(3, 8, 64, 1)))
///     .build()?
///     .run()?
///     .into_sorted_vec()?;
/// assert_eq!(sorted.len(), 24);
/// # Ok::<(), masort_core::SortError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Unsplit<I>(pub I);

impl<I: InputSource> InputSource for Unsplit<I> {
    fn next_page(&mut self) -> SortResult<Option<Page>> {
        self.0.next_page()
    }

    fn total_pages(&self) -> Option<usize> {
        self.0.total_pages()
    }

    fn total_tuples(&self) -> Option<usize> {
        self.0.total_tuples()
    }
}

/// An [`InputSource`] over an in-memory collection of pages.
#[derive(Debug, Clone)]
pub struct VecSource {
    pages: VecDeque<Page>,
    total_pages: usize,
    total_tuples: usize,
}

impl VecSource {
    /// Build a source from pre-paginated pages.
    pub fn from_pages(pages: Vec<Page>) -> Self {
        let total_tuples = pages.iter().map(Page::len).sum();
        VecSource {
            total_pages: pages.len(),
            total_tuples,
            pages: pages.into(),
        }
    }

    /// Build a source from a flat tuple vector, paginating it.
    pub fn from_tuples(tuples: Vec<Tuple>, tuples_per_page: usize) -> Self {
        Self::from_pages(paginate(tuples, tuples_per_page))
    }
}

impl InputSource for VecSource {
    fn next_page(&mut self) -> SortResult<Option<Page>> {
        Ok(self.pages.pop_front())
    }

    fn total_pages(&self) -> Option<usize> {
        Some(self.total_pages)
    }

    fn total_tuples(&self) -> Option<usize> {
        Some(self.total_tuples)
    }
}

/// Key-order profile of a [`GenSource`] relation: how much pre-existing
/// order the generated key stream carries. The default is fully random; the
/// other profiles exercise natural-run formation
/// ([`crate::RunFormation::NaturalSelect`]) from its best case (long ascending
/// stretches) to its adversarial case (sawtooth ramps shorter than memory).
///
/// Every profile consumes exactly **one** random draw per tuple.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum GenOrder {
    /// Uniformly-random 64-bit keys (the paper's synthetic relations).
    #[default]
    Random,
    /// A fraction `presortedness` of the tuples sit in globally ascending
    /// position; the rest are displaced to uniformly random *positions* in
    /// the same key range (so noise tuples are out of place, not out of
    /// scale). `0.0` is fully shuffled, `1.0` fully sorted.
    PartiallySorted {
        /// Fraction of tuples in sorted position, clamped to `[0, 1]`.
        presortedness: f64,
    },
    /// Strictly descending keys — the classic worst case for one-directional
    /// replacement selection, and the best case for down-run detection.
    Reversed,
    /// Keys ascend across `clusters` equal spans of the relation but are
    /// random within each span: global order with local disorder.
    Clustered {
        /// Number of ascending clusters (clamped to at least 1).
        clusters: usize,
    },
    /// Ascending ramps of `period` tuples that reset to the bottom of the
    /// key space — adversarial for run detection whenever `period` is
    /// shorter than the sort's memory.
    Sawtooth {
        /// Tuples per ramp (clamped to at least 2).
        period: usize,
    },
}

impl GenOrder {
    /// Map one random draw to this profile's key for global tuple `index`
    /// out of `total` tuples.
    fn key_for(self, draw: u64, index: usize, total: usize) -> u64 {
        // Position-derived keys keep the draw's high bits as tie noise so
        // keys stay (almost surely) distinct within a position.
        let noise = draw >> 32;
        match self {
            GenOrder::Random => draw,
            GenOrder::PartiallySorted { presortedness } => {
                let p = presortedness.clamp(0.0, 1.0);
                // Low bits of the draw decide sorted-vs-random; the key
                // itself reads the untouched upper bits.
                let frac = (draw % (1 << 20)) as f64 / (1u64 << 20) as f64;
                if frac < p {
                    ((index as u64) << 32) | noise
                } else {
                    // Displace to a random position *within* the key range:
                    // an out-of-scale key would sit at the heap maximum for
                    // a whole memory load and mask the surrounding order.
                    let h = draw.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let pos = (h >> 32) % total.max(1) as u64;
                    (pos << 32) | (h & 0xFFFF_FFFF)
                }
            }
            GenOrder::Reversed => (((total - 1 - index) as u64) << 32) | noise,
            GenOrder::Clustered { clusters } => {
                let width = total.div_ceil(clusters.max(1)).max(1);
                let cluster = (index / width) as u64;
                (cluster << 48) | (draw & 0xFFFF_FFFF_FFFF)
            }
            GenOrder::Sawtooth { period } => {
                let pos = (index % period.max(2)) as u64;
                (pos << 32) | noise
            }
        }
    }
}

/// A synthetic relation generator: `total_pages` pages of tuples with
/// uniformly-random 64-bit keys, each tuple `tuple_size` bytes nominally.
///
/// This mirrors the paper's synthetic relations (RelSize, TupleSize in
/// Table 2) and is deterministic for a given seed. [`GenSource::with_order`]
/// selects a different key-order profile ([`GenOrder`]) over the same
/// one-draw-per-tuple stream.
#[derive(Debug, Clone)]
pub struct GenSource {
    remaining: usize,
    total: usize,
    tuples_per_page: usize,
    tuple_size: usize,
    rng: StdRng,
    order: GenOrder,
    /// Index of the next tuple to generate (position-derived profiles).
    next_index: usize,
}

impl GenSource {
    /// Create a generator producing `total_pages` pages.
    pub fn new(total_pages: usize, tuples_per_page: usize, tuple_size: usize, seed: u64) -> Self {
        assert!(tuples_per_page > 0);
        GenSource {
            remaining: total_pages,
            total: total_pages,
            tuples_per_page,
            tuple_size,
            rng: StdRng::seed_from_u64(seed),
            order: GenOrder::Random,
            next_index: 0,
        }
    }

    /// Generate keys under `order` instead of fully random. Set this before
    /// consuming the source.
    pub fn with_order(mut self, order: GenOrder) -> Self {
        self.order = order;
        self
    }
}

impl InputSource for GenSource {
    fn next_page(&mut self) -> SortResult<Option<Page>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        // A synthetic record is its 12-byte header, whatever its nominal size.
        let mut page = TupleArena::with_capacity(MIN_DENSE_STRIDE, self.tuples_per_page);
        let total_tuples = self.total * self.tuples_per_page;
        for _ in 0..self.tuples_per_page {
            let key = self
                .order
                .key_for(self.rng.gen::<u64>(), self.next_index, total_tuples);
            self.next_index += 1;
            page.push(&Tuple::synthetic(key, self.tuple_size));
        }
        Ok(Some(page.seal()))
    }

    fn total_pages(&self) -> Option<usize> {
        Some(self.total)
    }

    fn total_tuples(&self) -> Option<usize> {
        Some(self.total * self.tuples_per_page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_source_yields_all_pages_in_order() {
        let tuples: Vec<Tuple> = (0..9).map(|k| Tuple::synthetic(k, 16)).collect();
        let mut s = VecSource::from_tuples(tuples, 4);
        assert_eq!(s.total_pages(), Some(3));
        assert_eq!(s.total_tuples(), Some(9));
        let mut keys = Vec::new();
        while let Some(p) = s.next_page().unwrap() {
            keys.extend(p.tuples().iter().map(|t| t.key));
        }
        assert_eq!(keys, (0..9).collect::<Vec<_>>());
        assert!(s.next_page().unwrap().is_none());
    }

    #[test]
    fn gen_source_is_deterministic_per_seed() {
        let collect = |seed| {
            let mut s = GenSource::new(3, 8, 256, seed);
            let mut keys = Vec::new();
            while let Some(p) = s.next_page().unwrap() {
                keys.extend(p.tuples().iter().map(|t| t.key));
            }
            keys
        };
        assert_eq!(collect(7), collect(7));
        assert_ne!(collect(7), collect(8));
        assert_eq!(collect(7).len(), 24);
    }

    #[test]
    fn gen_source_reports_totals() {
        let s = GenSource::new(10, 32, 256, 1);
        assert_eq!(s.total_pages(), Some(10));
        assert_eq!(s.total_tuples(), Some(320));
    }

    fn drain_keys<I: InputSource>(mut s: I) -> Vec<u64> {
        let mut keys = Vec::new();
        while let Some(p) = s.next_page().unwrap() {
            keys.extend(p.tuples().iter().map(|t| t.key));
        }
        keys
    }

    #[test]
    fn gen_order_profiles_have_their_shape() {
        let n = 8 * 64;
        let keys = |order| drain_keys(GenSource::new(8, 64, 256, 7).with_order(order));

        // Reversed: strictly descending.
        let rev = keys(GenOrder::Reversed);
        assert!(rev.windows(2).all(|w| w[0] > w[1]));

        // Partially sorted at 0.9: ~90% of adjacent pairs ascend.
        let part = keys(GenOrder::PartiallySorted { presortedness: 0.9 });
        let asc = part.windows(2).filter(|w| w[0] <= w[1]).count();
        assert!(asc > n * 7 / 10, "only {asc}/{n} ascending pairs");

        // Fully presorted: globally ascending.
        let sorted = keys(GenOrder::PartiallySorted { presortedness: 1.0 });
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));

        // Clustered: cluster ids ascend with position, disorder within.
        let clustered = keys(GenOrder::Clustered { clusters: 4 });
        let ids: Vec<u64> = clustered.iter().map(|k| k >> 48).collect();
        assert!(ids.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(ids.iter().filter(|&&c| c == 0).count(), n / 4);
        let first: Vec<u64> = clustered[..n / 4].to_vec();
        assert!(
            first.windows(2).any(|w| w[0] > w[1]),
            "clusters too orderly"
        );

        // Sawtooth: ascending inside each period, resets at boundaries.
        let saw = keys(GenOrder::Sawtooth { period: 16 });
        for (i, w) in saw.windows(2).enumerate() {
            if (i + 1) % 16 == 0 {
                assert!(w[0] > w[1], "no reset at {i}");
            } else {
                assert!(w[0] <= w[1], "ramp broken at {i}");
            }
        }
    }
}
