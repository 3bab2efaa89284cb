//! Sort ordering: a direction plus the length of the sort key in bytes.
//!
//! Every algorithm in this crate — run formation, merge cursors, dynamic
//! splitting, sort-merge join — orders records by a single `u64` *rank*
//! read from the stored key: for the default ascending order the rank is
//! simply [`Tuple::key`], and a descending order maps each key through
//! bitwise NOT (a strictly order-reversing bijection on `u64`). Because all
//! machinery compares ranks with plain `<=`, one code path serves every
//! ordering. To sort by something other than the stored key, compute it into
//! [`Tuple::key`] once, when the record is ingested ([`normalized_prefix`]
//! packs a byte key).
//!
//! ## Normalized keys longer than eight bytes
//!
//! [`SortOrder::by_normalized_key`] supports records whose sort key is a
//! byte string of up to 16 bytes (e.g. the 10-byte keys of the gensort
//! format): the caller stores the big-endian u64 of the first eight key
//! bytes in [`Tuple::key`] — an order-preserving fixed-width prefix the
//! algorithms compare memcmp-style — and the order derives a second u64
//! *tie rank* from the remaining key bytes of the payload. The hot paths
//! compare the prefix column first and consult the tie rank only through
//! the composite key ([`SortOrder::composite`]), so records are touched
//! beyond their prefix only when prefixes collide.

use crate::layout::PayloadRef;
use crate::tuple::{Page, Tuple};
use std::cmp::Ordering;

/// Widest normalized key (in bytes) representable by the prefix + tie-rank
/// pair: eight bytes in [`Tuple::key`] plus eight more from the payload.
pub const MAX_NORMALIZED_KEY: usize = 16;

/// Pack up to eight leading bytes of `key` into an order-preserving u64
/// (big-endian, left-aligned, zero-padded): `normalized_prefix(a) <
/// normalized_prefix(b)` whenever `a < b` bytewise. Callers building
/// normalized-key tuples store this in [`Tuple::key`].
pub fn normalized_prefix(key: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    let n = key.len().min(8);
    buf[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(buf)
}

/// Ascending or descending.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SortDirection {
    /// Smallest sort key first (the default).
    #[default]
    Ascending,
    /// Largest sort key first.
    Descending,
}

/// A complete ordering specification: a direction plus how many key bytes
/// lie past the eight in [`Tuple::key`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct SortOrder {
    direction: SortDirection,
    /// Key bytes past the stored eight, read from `payload[8..8 + tie_len]`
    /// (missing bytes read as 0); 0 for exact orders.
    tie_len: usize,
}

impl SortOrder {
    /// Ascending order on [`Tuple::key`] (the default).
    pub fn ascending() -> Self {
        SortOrder::default()
    }

    /// Descending order on [`Tuple::key`].
    pub fn descending() -> Self {
        SortOrder::default().reversed()
    }

    /// Ascending order on a normalized byte-string key of `key_len` bytes
    /// (1 ≤ `key_len` ≤ [`MAX_NORMALIZED_KEY`]).
    ///
    /// The tuple's [`Tuple::key`] must hold [`normalized_prefix`] of the key
    /// bytes, and — when `key_len > 8` — the payload must carry the full
    /// record with the key at its start, so the tie rank can read key bytes
    /// `8..key_len` from `payload[8..key_len]`.
    ///
    /// # Panics
    ///
    /// Panics when `key_len` is 0 or exceeds [`MAX_NORMALIZED_KEY`].
    pub fn by_normalized_key(key_len: usize) -> Self {
        assert!(
            (1..=MAX_NORMALIZED_KEY).contains(&key_len),
            "normalized key length {key_len} outside 1..={MAX_NORMALIZED_KEY}"
        );
        SortOrder {
            direction: SortDirection::Ascending,
            tie_len: key_len.saturating_sub(8),
        }
    }

    /// Reverse this order's direction.
    pub fn reversed(mut self) -> Self {
        self.direction = match self.direction {
            SortDirection::Ascending => SortDirection::Descending,
            SortDirection::Descending => SortDirection::Ascending,
        };
        self
    }

    /// This order's direction.
    pub fn direction(&self) -> SortDirection {
        self.direction
    }

    /// The *rank* of `t`: the value the algorithms actually compare.
    ///
    /// Ranks compare ascending regardless of the requested direction (a
    /// descending order negates the key bits), so `rank(a) <= rank(b)` iff
    /// `a` sorts no later than `b` on the stored key. Two tuples have equal
    /// ranks iff they have equal stored keys.
    #[inline]
    pub fn rank(&self, t: &Tuple) -> u64 {
        self.rank_from_key(t.key)
    }

    /// Materialise the ranks of `page`'s records into `out` (appending) in a
    /// single pass, one per record in page order.
    ///
    /// This is the merge kernel's rank cache: the direction mapping runs
    /// exactly once per promoted page, and every later gallop reads plain
    /// `u64`s from the resulting column.
    pub fn rank_column_into(&self, page: &Page, out: &mut Vec<u64>) {
        out.extend(page.keys().map(|k| self.rank_from_key(k)));
    }

    /// True when the rank alone totally determines this order — i.e. equal
    /// ranks mean order-equivalent tuples. False only for normalized keys
    /// longer than eight bytes, where a [`tie_rank`](Self::tie_rank) breaks
    /// prefix collisions; batch moves that steal rank-equal tuples must then
    /// stay conservative.
    #[inline]
    pub fn rank_is_exact(&self) -> bool {
        self.tie_len == 0
    }

    /// The tie rank of `t`: a second u64 compared after [`rank`](Self::rank).
    /// Always 0 for exact orders ([`rank_is_exact`](Self::rank_is_exact)).
    #[inline]
    pub fn tie_rank(&self, t: &Tuple) -> u64 {
        self.composite_of(t) as u64
    }

    /// The tie rank derived from raw payload bytes (missing bytes read as 0).
    /// This is the zero-copy twin of [`tie_rank`](Self::tie_rank): merge
    /// cursors feed it a borrowed payload slice.
    #[inline]
    pub fn tie_rank_bytes(&self, payload: &[u8]) -> u64 {
        if self.tie_len == 0 {
            return 0;
        }
        let mut buf = [0u8; 8];
        let tail = payload.get(8..).unwrap_or_default();
        let n = self.tie_len.min(tail.len());
        buf[..n].copy_from_slice(&tail[..n]);
        let x = u64::from_be_bytes(buf);
        match self.direction {
            SortDirection::Ascending => x,
            SortDirection::Descending => !x,
        }
    }

    /// Combine a rank and a tie rank into the single u128 the merge kernel's
    /// loser tree compares: ascending composite order is exactly
    /// `(rank, tie_rank)` lexicographic order. For exact orders the tie is 0
    /// and composite comparisons degenerate to rank comparisons.
    #[inline]
    pub fn composite(rank: u64, tie: u64) -> u128 {
        ((rank as u128) << 64) | tie as u128
    }

    /// The composite key of `t` (see [`composite`](Self::composite)).
    #[inline]
    pub fn composite_of(&self, t: &Tuple) -> u128 {
        self.composite_at(t.key, (&t.payload).into())
    }

    /// The composite key of one record from its stored key and its payload —
    /// a page slot's `(page.key(i), page.payload_ref(i))` or a tuple's
    /// fields. A synthetic payload reads as no bytes.
    #[inline]
    pub(crate) fn composite_at(&self, key: u64, payload: PayloadRef<'_>) -> u128 {
        let bytes = match payload {
            PayloadRef::Bytes(b) => b,
            PayloadRef::Synthetic(_) => &[],
        };
        Self::composite(self.rank_from_key(key), self.tie_rank_bytes(bytes))
    }

    /// Materialise the composite keys of `page`'s records into `out`
    /// (appending), one per record in page order — what run formation selects
    /// on. Records are read where they lie.
    pub fn composite_column_into(&self, page: &Page, out: &mut Vec<u128>) {
        out.extend((0..page.len()).map(|i| self.composite_at(page.key(i), page.payload_ref(i))));
    }

    /// The rank a *stored* key maps to under this order.
    #[inline]
    pub fn rank_from_key(&self, key: u64) -> u64 {
        match self.direction {
            SortDirection::Ascending => key,
            SortDirection::Descending => !key,
        }
    }

    /// Compare two tuples under this order (rank, then tie rank).
    #[inline]
    pub fn cmp(&self, a: &Tuple, b: &Tuple) -> Ordering {
        self.composite_of(a).cmp(&self.composite_of(b))
    }

    /// True if `tuples` is sorted according to this order.
    pub fn is_sorted(&self, tuples: &[Tuple]) -> bool {
        tuples
            .windows(2)
            .all(|w| self.cmp(&w[0], &w[1]) != Ordering::Greater)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Payload;

    fn t(k: u64) -> Tuple {
        Tuple::synthetic(k, 16)
    }

    #[test]
    fn ascending_rank_is_the_key() {
        let o = SortOrder::ascending();
        assert_eq!(o.rank(&t(5)), 5);
        assert_eq!(o.direction(), SortDirection::Ascending);
    }

    #[test]
    fn descending_rank_reverses_order() {
        let o = SortOrder::descending();
        assert!(o.rank(&t(10)) < o.rank(&t(3)));
        assert!(o.rank(&t(u64::MAX)) < o.rank(&t(0)));
        assert_eq!(o.rank(&t(7)), o.rank(&t(7)));
    }

    #[test]
    fn reversed_round_trips() {
        let o = SortOrder::ascending().reversed().reversed();
        assert_eq!(o.direction(), SortDirection::Ascending);
    }

    #[test]
    fn is_sorted_respects_direction() {
        let asc = vec![t(1), t(2), t(2), t(9)];
        let desc = vec![t(9), t(2), t(2), t(1)];
        assert!(SortOrder::ascending().is_sorted(&asc));
        assert!(!SortOrder::ascending().is_sorted(&desc));
        assert!(SortOrder::descending().is_sorted(&desc));
        assert!(!SortOrder::descending().is_sorted(&asc));
    }

    #[test]
    fn rank_column_matches_per_tuple_ranks() {
        let tuples: Vec<Tuple> = [3u64, 9, 1, 1, 0xFF07].iter().map(|&k| t(k)).collect();
        for order in [SortOrder::ascending(), SortOrder::descending()] {
            let mut col = Vec::new();
            order.rank_column_into(&Page::from_tuples(tuples.clone()), &mut col);
            let expect: Vec<u64> = tuples.iter().map(|t| order.rank(t)).collect();
            assert_eq!(col, expect, "{order:?}");
        }
    }

    #[test]
    fn composite_column_matches_per_tuple_composites() {
        let tuples: Vec<Tuple> = [
            b"aaaaaaaa\x00\x02",
            b"aaaaaaaa\x00\x01",
            b"zzzzzzzz\x09\x09",
        ]
        .iter()
        .map(|k| norm(&k[..]))
        .chain([Tuple::synthetic(7, 64), Tuple::new(3, Vec::new())])
        .collect();
        let page = Page::from_tuples(tuples.clone());
        for order in [
            SortOrder::ascending(),
            SortOrder::descending(),
            SortOrder::by_normalized_key(10),
            SortOrder::by_normalized_key(10).reversed(),
        ] {
            let expect: Vec<u128> = tuples.iter().map(|t| order.composite_of(t)).collect();
            let mut column = vec![0];
            order.composite_column_into(&page, &mut column);
            assert_eq!(column[1..], expect, "{order:?}");
        }
    }

    #[test]
    fn debug_shows_direction() {
        let s = format!("{:?}", SortOrder::descending());
        assert!(s.contains("Descending"));
    }

    /// Build a tuple the way a normalized-key adapter does: prefix in the
    /// stored key, full record (key bytes first) in the payload.
    fn norm(key: &[u8]) -> Tuple {
        Tuple::new(normalized_prefix(key), key.to_vec())
    }

    #[test]
    fn normalized_prefix_preserves_byte_order() {
        // Order-preserving, not strict: zero padding lets `"a"` and `"a\0"`
        // share a prefix, which the tie rank (or the caller's fixed-width
        // keys) disambiguates. `a <= b` bytewise must imply prefix(a) <=
        // prefix(b); equal-length keys of <= 8 bytes order strictly.
        let keys: [&[u8]; 7] = [
            b"",
            b"\x00",
            b"abc",
            b"abd",
            b"abcdefgh",
            b"abcdefghij",
            b"\xFF\xFF",
        ];
        for a in keys {
            for b in keys {
                if a <= b {
                    assert!(
                        normalized_prefix(a) <= normalized_prefix(b),
                        "{a:?} vs {b:?}"
                    );
                }
                if a.len() == b.len() && a.len() <= 8 {
                    assert_eq!(
                        normalized_prefix(a).cmp(&normalized_prefix(b)),
                        a.cmp(b),
                        "{a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn normalized_key_composite_orders_like_memcmp() {
        let order = SortOrder::by_normalized_key(10);
        assert!(!order.rank_is_exact());
        let keys: Vec<Vec<u8>> = vec![
            b"aaaaaaaa\x00\x01".to_vec(),
            b"aaaaaaaa\x00\x02".to_vec(),
            b"aaaaaaaa\xFF\x00".to_vec(),
            b"aaaaaaab\x00\x00".to_vec(),
            b"zzzzzzzz\x01\x01".to_vec(),
        ];
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate() {
                let (ta, tb) = (norm(a), norm(b));
                assert_eq!(
                    order.composite_of(&ta).cmp(&order.composite_of(&tb)),
                    i.cmp(&j),
                    "{a:?} vs {b:?}"
                );
                assert_eq!(order.cmp(&ta, &tb), i.cmp(&j));
            }
        }
        // Equal prefixes, different tie bytes: ranks collide, composites don't.
        let (ta, tb) = (norm(&keys[0]), norm(&keys[2]));
        assert_eq!(order.rank(&ta), order.rank(&tb));
        assert!(order.composite_of(&ta) < order.composite_of(&tb));
    }

    #[test]
    fn normalized_key_descending_reverses_composites() {
        let order = SortOrder::by_normalized_key(10).reversed();
        let small = norm(b"aaaaaaaa\x00\x01");
        let big = norm(b"aaaaaaaa\x00\x09");
        assert!(order.composite_of(&big) < order.composite_of(&small));
        assert!(order.is_sorted(&[big, small]));
    }

    #[test]
    fn short_normalized_keys_have_exact_ranks() {
        let order = SortOrder::by_normalized_key(8);
        assert!(order.rank_is_exact());
        assert_eq!(order.tie_rank(&norm(b"abcdefgh")), 0);
    }

    #[test]
    fn tie_rank_bytes_matches_tuple_tie_rank() {
        let order = SortOrder::by_normalized_key(12);
        let t = norm(b"aaaaaaaabcde");
        let Payload::Bytes(b) = &t.payload else {
            unreachable!()
        };
        assert_eq!(order.tie_rank_bytes(b), order.tie_rank(&t));
        // Truncated payloads zero-pad instead of panicking.
        assert_eq!(order.tie_rank_bytes(&[]), 0);
        assert_eq!(
            order.tie_rank_bytes(b"aaaaaaaab"),
            u64::from_be_bytes([b'b', 0, 0, 0, 0, 0, 0, 0])
        );
    }

    #[test]
    fn rank_from_key_matches_rank_for_plain_orders() {
        for order in [SortOrder::ascending(), SortOrder::descending()] {
            let tup = t(0xDEAD_BEEF);
            assert_eq!(order.rank_from_key(tup.key), order.rank(&tup));
        }
    }

    #[test]
    fn equality_distinguishes_tie_specs() {
        assert_eq!(SortOrder::ascending(), SortOrder::ascending());
        assert_ne!(SortOrder::ascending(), SortOrder::descending());
        assert_eq!(
            SortOrder::by_normalized_key(10),
            SortOrder::by_normalized_key(10)
        );
        assert_ne!(
            SortOrder::by_normalized_key(10),
            SortOrder::by_normalized_key(12)
        );
        assert_ne!(SortOrder::by_normalized_key(10), SortOrder::ascending());
        assert_eq!(SortOrder::by_normalized_key(8), SortOrder::ascending());
    }

    #[test]
    #[should_panic(expected = "normalized key length")]
    fn oversized_normalized_keys_are_rejected() {
        SortOrder::by_normalized_key(MAX_NORMALIZED_KEY + 1);
    }
}
