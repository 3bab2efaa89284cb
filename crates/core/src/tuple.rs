//! Tuples and pages — the unit of data movement for the external sort.
//!
//! The paper models relations as sets of fixed-size tuples (256 bytes by
//! default) grouped into 8 KB pages. Library users may attach a real payload
//! to each tuple; the simulation harness uses a *synthetic* payload that only
//! records its nominal size so that multi-gigabyte workloads can be simulated
//! without materialising the bytes.
//!
//! A [`Page`] has two physical representations behind one logical interface:
//! the **owned** form (`Vec<Tuple>`, every payload its own allocation) —
//! what a caller builds with [`Page::from_tuples`] — and the **dense** form (a
//! fixed-stride byte region from [`crate::layout`], materialising tuples only
//! on demand) — what every page the sort itself builds is. Code that does
//! not care reads tuples through [`Page::tuples`]; run formation reads
//! records through [`Page::record`], and the store and the merge kernel
//! branch on [`Page::as_dense`], so none of them builds a [`Tuple`].

use crate::layout::{DensePage, PayloadRef};
use std::borrow::Cow;

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
    pub fn size(&self) -> usize {
        KEY_BYTES + self.payload.len()
    }
}

/// Number of bytes occupied by the key.
pub const KEY_BYTES: usize = 8;

/// The physical representation behind a [`Page`].
#[derive(Clone, Debug)]
enum Repr {
    /// A vector of owned tuples (the classic representation).
    Owned(Vec<Tuple>),
    /// A dense fixed-stride record region (see [`crate::layout`]).
    Dense(DensePage),
}

/// A page: a bounded group of tuples, the unit of I/O.
///
/// The page caches its total byte size, maintained by [`Page::push`] and
/// [`Page::from_tuples`], so store accounting ([`Page::bytes`]) is O(1)
/// instead of a full walk over the tuples. Byte accounting is *logical*
/// (key + payload per tuple) in both representations, so budgets and merge
/// planning behave identically whichever representation a page has.
#[derive(Clone, Debug)]
pub struct Page {
    repr: Repr,
    /// Cached total of the tuples' logical sizes.
    bytes: usize,
}

impl Default for Page {
    fn default() -> Self {
        Page {
            repr: Repr::Owned(Vec::new()),
            bytes: 0,
        }
    }
}

/// Pages compare by their logical tuples; representation and the byte cache
/// are derived state.
impl PartialEq for Page {
    fn eq(&self, other: &Self) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Owned(a), Repr::Owned(b)) => a == b,
            (Repr::Dense(a), Repr::Dense(b)) => a == b,
            _ => self.len() == other.len() && self.tuples().iter().eq(other.tuples().iter()),
        }
    }
}
impl Eq for Page {}

impl Page {
    /// Create an empty page.
    pub fn new() -> Self {
        Page::default()
    }

    /// Create an empty page with room reserved for `n` tuples.
    pub fn with_capacity(n: usize) -> Self {
        Page {
            repr: Repr::Owned(Vec::with_capacity(n)),
            bytes: 0,
        }
    }

    /// Build a page directly from a vector of tuples.
    pub fn from_tuples(tuples: Vec<Tuple>) -> Self {
        let bytes = tuples.iter().map(Tuple::size).sum();
        Page {
            repr: Repr::Owned(tuples),
            bytes,
        }
    }

    /// Build a page from a dense record region.
    pub fn from_dense(dense: DensePage) -> Self {
        let bytes = dense.bytes();
        Page {
            repr: Repr::Dense(dense),
            bytes,
        }
    }

    /// The tuples stored in this page.
    ///
    /// Borrows the owned representation directly; a dense page materialises
    /// its tuples into the returned [`Cow`]. Hot paths that must not pay the
    /// materialisation use [`Page::as_dense`] instead.
    pub fn tuples(&self) -> Cow<'_, [Tuple]> {
        match &self.repr {
            Repr::Owned(tuples) => Cow::Borrowed(tuples),
            Repr::Dense(dense) => Cow::Owned(dense.to_tuples()),
        }
    }

    /// Consume the page, yielding its tuples (materialising a dense page).
    pub fn into_tuples(self) -> Vec<Tuple> {
        match self.repr {
            Repr::Owned(tuples) => tuples,
            Repr::Dense(dense) => dense.to_tuples(),
        }
    }

    /// Record `i` as its stored key and a borrowed payload, whichever the
    /// representation — no [`Tuple`] is built.
    #[inline]
    pub fn record(&self, i: usize) -> (u64, PayloadRef<'_>) {
        match &self.repr {
            Repr::Owned(tuples) => (tuples[i].key, PayloadRef::from(&tuples[i].payload)),
            Repr::Dense(dense) => (dense.key(i), dense.payload_ref(i)),
        }
    }

    /// The dense record region behind this page, when it has one.
    pub fn as_dense(&self) -> Option<&DensePage> {
        match &self.repr {
            Repr::Dense(dense) => Some(dense),
            Repr::Owned(_) => None,
        }
    }

    /// True when this page uses the dense representation.
    pub fn is_dense(&self) -> bool {
        matches!(self.repr, Repr::Dense(_))
    }

    /// Number of tuples in the page.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Owned(tuples) => tuples.len(),
            Repr::Dense(dense) => dense.len(),
        }
    }

    /// True when the page holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes occupied by the tuples in this page (cached; O(1)).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Append a tuple to the page.
    ///
    /// A dense page converts to the owned representation first — pushing is
    /// a build-time operation; sealed dense pages are immutable.
    pub fn push(&mut self, t: Tuple) {
        self.bytes += t.size();
        match &mut self.repr {
            Repr::Owned(tuples) => tuples.push(t),
            Repr::Dense(dense) => {
                let mut tuples = dense.to_tuples();
                tuples.push(t);
                self.repr = Repr::Owned(tuples);
            }
        }
    }

    /// True when tuples appear in non-decreasing key order.
    pub fn is_sorted(&self) -> bool {
        match &self.repr {
            Repr::Owned(tuples) => tuples.windows(2).all(|w| w[0].key <= w[1].key),
            Repr::Dense(dense) => (1..dense.len()).all(|i| dense.key(i - 1) <= dense.key(i)),
        }
    }
}

/// Split a flat vector of tuples into pages of at most `tuples_per_page`
/// tuples each, preserving order.
pub fn paginate(tuples: Vec<Tuple>, tuples_per_page: usize) -> Vec<Page> {
    assert!(tuples_per_page > 0, "tuples_per_page must be positive");
    let mut pages = Vec::with_capacity(tuples.len().div_ceil(tuples_per_page));
    let mut cur = Page::with_capacity(tuples_per_page);
    for t in tuples {
        cur.push(t);
        if cur.len() == tuples_per_page {
            pages.push(std::mem::replace(
                &mut cur,
                Page::with_capacity(tuples_per_page),
            ));
        }
    }
    if !cur.is_empty() {
        pages.push(cur);
    }
    pages
}

/// [`paginate`] into dense pages of the given record stride.
#[cfg(test)]
pub(crate) fn paginate_dense(
    tuples: Vec<Tuple>,
    tuples_per_page: usize,
    stride: usize,
) -> Vec<Page> {
    let mut arena = crate::layout::TupleArena::new(stride);
    tuples
        .chunks(tuples_per_page)
        .map(|chunk| {
            chunk.iter().for_each(|t| arena.push(t));
            Page::from_dense(arena.seal())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut p = Page::new();
        assert!(p.is_empty());
        p.push(Tuple::synthetic(3, 64));
        p.push(Tuple::synthetic(1, 64));
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
        let mut pushed = Page::with_capacity(2);
        for t in tuples {
            pushed.push(t);
        }
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

    #[test]
    fn dense_and_owned_pages_compare_logically() {
        let tuples: Vec<Tuple> = (0..5).map(|k| Tuple::new(k, vec![k as u8; 12])).collect();
        let owned = Page::from_tuples(tuples.clone());
        let dense = paginate_dense(tuples.clone(), 8, 24);
        assert_eq!(dense.len(), 1);
        assert!(dense[0].is_dense());
        assert_eq!(dense[0], owned, "representations compare by tuples");
        assert_eq!(dense[0].bytes(), owned.bytes());
        assert_eq!(dense[0].tuples().to_vec(), tuples);
        assert_eq!(dense[0].clone().into_tuples(), tuples);
        assert!(dense[0].is_sorted());
        for (i, t) in tuples.iter().enumerate() {
            let expect = (t.key, PayloadRef::from(&t.payload));
            assert_eq!(owned.record(i), expect);
            assert_eq!(dense[0].record(i), expect);
        }
    }

    #[test]
    fn pushing_into_a_dense_page_converts_it() {
        let mut page = paginate_dense(vec![Tuple::synthetic(1, 16)], 4, 20)
            .pop()
            .unwrap();
        assert!(page.is_dense());
        page.push(Tuple::synthetic(2, 16));
        assert!(!page.is_dense());
        assert_eq!(page.len(), 2);
        assert_eq!(page.bytes(), 32);
    }
}
