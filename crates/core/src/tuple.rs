//! Tuples and pages — the unit of data movement for the external sort.
//!
//! The paper models relations as sets of fixed-size tuples (256 bytes by
//! default) grouped into 8 KB pages. Library users may attach a real payload
//! to each tuple; the simulation harness uses a *synthetic* payload that only
//! records its nominal size so that multi-gigabyte workloads can be simulated
//! without materialising the bytes.
//!
//! A [`Page`] is a sealed region of fixed-stride records (see
//! [`crate::layout`]), however it was built: [`Page::from_tuples`] packs a
//! caller's tuples into one, and a page materialises tuples only on demand
//! ([`Page::tuples`]). Run formation, the store and the merge — its root
//! step included, which seals pages for its consumer like any other step —
//! read records where they lie ([`Page::record`]), so none of them builds a
//! [`Tuple`]; a stream builds one only as it hands it out.

pub use crate::layout::Page;

/// The payload carried by a [`Tuple`] in addition to its sort key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// A payload that occupies `size` bytes but whose contents are irrelevant
    /// (used by the simulation harness and synthetic workload generators).
    Synthetic(u32),
    /// A real payload.
    Bytes(Vec<u8>),
}

impl Payload {
    /// Number of payload bytes this payload accounts for.
    pub fn len(&self) -> usize {
        match self {
            Payload::Synthetic(n) => *n as usize,
            Payload::Bytes(b) => b.len(),
        }
    }

    /// True when the payload occupies no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::Synthetic(0)
    }
}

/// A single record: a 64-bit sort key plus an opaque payload.
///
/// Keys are compared as unsigned integers. Ties between equal keys are broken
/// arbitrarily (the sort is not stable, matching the paper's algorithms).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tuple {
    /// The sort key.
    pub key: u64,
    /// The carried payload.
    pub payload: Payload,
}

impl Tuple {
    /// Create a tuple with a real byte payload.
    pub fn new(key: u64, payload: Vec<u8>) -> Self {
        Tuple {
            key,
            payload: Payload::Bytes(payload),
        }
    }

    /// Create a tuple whose total nominal size is `tuple_size` bytes but whose
    /// payload bytes are not materialised. Used for synthetic workloads.
    pub fn synthetic(key: u64, tuple_size: usize) -> Self {
        let pay = tuple_size.saturating_sub(KEY_BYTES) as u32;
        Tuple {
            key,
            payload: Payload::Synthetic(pay),
        }
    }

    /// Total size of the tuple in bytes (key + payload).
    #[cfg(test)]
    pub(crate) fn size(&self) -> usize {
        KEY_BYTES + self.payload.len()
    }
}

/// Number of bytes occupied by the key.
pub const KEY_BYTES: usize = 8;

/// Split a flat vector of tuples into pages of at most `tuples_per_page`
/// tuples each, preserving order.
pub(crate) fn paginate(tuples: Vec<Tuple>, tuples_per_page: usize) -> Vec<Page> {
    assert!(tuples_per_page > 0, "tuples_per_page must be positive");
    let mut tuples = tuples.into_iter().peekable();
    let mut pages = Vec::with_capacity(tuples.len().div_ceil(tuples_per_page));
    while tuples.peek().is_some() {
        pages.push(Page::from_tuples(
            tuples.by_ref().take(tuples_per_page).collect(),
        ));
    }
    pages
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{PayloadRef, TupleArena, DENSE_HEADER, MIN_DENSE_STRIDE};
    use crate::store::{FileStore, RunStore};

    #[test]
    fn synthetic_tuple_size_matches_nominal() {
        let t = Tuple::synthetic(42, 256);
        assert_eq!(t.size(), 256);
        assert_eq!(t.payload.len(), 248);
    }

    #[test]
    fn synthetic_tuple_smaller_than_key_clamps() {
        let t = Tuple::synthetic(1, 4);
        assert_eq!(t.size(), KEY_BYTES);
    }

    #[test]
    fn real_payload_size() {
        let t = Tuple::new(7, vec![0u8; 100]);
        assert_eq!(t.size(), 108);
        assert!(!t.payload.is_empty());
    }

    #[test]
    fn page_push_and_bytes() {
        assert!(Page::new().is_empty());
        let mut arena = TupleArena::new(MIN_DENSE_STRIDE);
        arena.push(&Tuple::synthetic(3, 64));
        arena.push(&Tuple::synthetic(1, 64));
        let p = arena.seal();
        assert_eq!(p.len(), 2);
        assert_eq!(p.bytes(), 128);
        assert!(!p.is_sorted());
    }

    #[test]
    fn cached_bytes_track_push_and_from_tuples() {
        let tuples = vec![Tuple::synthetic(1, 64), Tuple::new(2, vec![0u8; 10])];
        let expect: usize = tuples.iter().map(Tuple::size).sum();
        let from = Page::from_tuples(tuples.clone());
        assert_eq!(from.bytes(), expect);
        let mut arena = TupleArena::new(64);
        tuples.iter().for_each(|t| arena.push(t));
        let pushed = arena.seal();
        assert_eq!(pushed.bytes(), expect);
        assert_eq!(pushed, from, "pages compare by tuples");
        assert_eq!(Page::new().bytes(), 0);
    }

    #[test]
    fn page_is_sorted_detects_order() {
        let p = Page::from_tuples(vec![
            Tuple::synthetic(1, 16),
            Tuple::synthetic(1, 16),
            Tuple::synthetic(5, 16),
        ]);
        assert!(p.is_sorted());
    }

    #[test]
    fn paginate_splits_evenly_and_keeps_order() {
        let tuples: Vec<Tuple> = (0..10).map(|k| Tuple::synthetic(k, 16)).collect();
        let pages = paginate(tuples, 4);
        assert_eq!(pages.len(), 3);
        assert_eq!(pages[0].len(), 4);
        assert_eq!(pages[1].len(), 4);
        assert_eq!(pages[2].len(), 2);
        let flat: Vec<u64> = pages
            .iter()
            .flat_map(|p| p.tuples().iter().map(|t| t.key).collect::<Vec<_>>())
            .collect();
        assert_eq!(flat, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "tuples_per_page")]
    fn paginate_rejects_zero_capacity() {
        paginate(vec![Tuple::synthetic(1, 16)], 0);
    }

    /// A page built from tuples is those tuples, whatever their payloads and
    /// whatever stride they end up at, in memory and through a store.
    #[test]
    fn from_tuples_round_trips_at_a_derived_stride() {
        let synthetic: Vec<Tuple> = (0..4).map(|k| Tuple::synthetic(k, 64)).collect();
        let empty: Vec<Tuple> = (0..4).map(|k| Tuple::new(k, Vec::new())).collect();
        let inline: Vec<Tuple> = (0..6).map(|k| Tuple::new(k, vec![k as u8; 12])).collect();
        let mut outlier = inline.clone();
        outlier.push(Tuple::new(9, vec![0xAB; 120])); // 10x the others' 12
        let mixed = vec![
            synthetic[1].clone(),
            empty[2].clone(),
            inline[3].clone(),
            outlier[6].clone(),
        ];
        let mut store = FileStore::in_temp_dir().unwrap();
        let run = store.create_run().unwrap();
        // Each case with the bytes it must keep outside its records.
        let cases = [
            (Vec::new(), 0),
            (synthetic, 0),
            (empty, 0),
            (inline, 0),
            (outlier, 120),
            (mixed, 120),
        ];
        for (i, (tuples, overflow)) in cases.iter().enumerate() {
            let page = Page::from_tuples(tuples.clone());
            assert_eq!(page.len(), tuples.len());
            assert_eq!(page.tuples(), *tuples, "case {i}");
            assert_eq!(page.bytes(), tuples.iter().map(Tuple::size).sum::<usize>());
            for (j, t) in tuples.iter().enumerate() {
                assert_eq!(page.record(j), (t.key, PayloadRef::from(&t.payload)));
            }
            // Equal-sized payloads lie inline; only the outlier leaves its record.
            assert_eq!(
                page.wire_bytes().len(),
                DENSE_HEADER + page.len() * page.stride() + overflow,
                "case {i}"
            );
            // The same tuples sealed at another stride are the same page.
            let mut arena = TupleArena::new(page.stride() + 9);
            tuples.iter().for_each(|t| arena.push(t));
            let other = arena.seal();
            assert_eq!(other, page);
            assert_eq!(other.bytes(), page.bytes());
            assert!(tuples.is_empty() || other.wire_bytes() != page.wire_bytes());
            // A store hands back the bytes it was given.
            store.append_page(run, page.clone()).unwrap();
            assert_eq!(
                store.read_page(run, i).unwrap().wire_bytes(),
                page.wire_bytes()
            );
        }
    }
}
