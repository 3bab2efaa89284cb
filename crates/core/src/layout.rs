//! How the sort holds a record: fixed-stride bytes, from the input page to
//! the page the consumer takes.
//!
//! One record format serves the input pages, run formation, the run pages
//! and the merge; a [`Tuple`] exists only where a caller hands one in
//! ([`Page::from_tuples`]) or takes one out:
//!
//! * a **record** is `key (8 bytes LE) | descriptor (4 bytes LE) | inline
//!   payload`, padded to a fixed stride
//!   ([`SortConfig::record_stride`](crate::SortConfig::record_stride)). A
//!   synthetic payload is its 12-byte header alone; a payload too long for
//!   the inline area lives outside the record.
//! * `RecordSlab` — the records run formation selects over: slots filled on
//!   insert, freed in any order and recycled, in fixed-size blocks that are
//!   never moved: the slab holds its high-water mark, to the block.
//! * [`TupleArena`] — an append-only arena of records, the page under
//!   construction; payloads that do not fit inline spill into a per-arena
//!   **overflow area** and the record stores their offset instead.
//! * [`Page`] — a sealed arena, the unit of I/O: one contiguous byte region
//!   plus a count, cheaply cloneable because the bytes live behind an `Arc`.
//!   A block read decodes *one* buffer and every page in the block borrows
//!   slices out of it (zero-copy); individual tuples are only materialised
//!   on demand.
//! * [`PayloadRef`] — a borrowed view of one record's payload, so hot paths
//!   can copy payload bytes arena-to-arena without constructing a
//!   [`Tuple`].
//!
//! The on-disk encoding of a page starts with the magic word `0xFFFF_FFFF`:
//! bytes that do not — a damaged file, or a page in the tuple-at-a-time
//! encoding this crate used to write — are refused as corrupt.

use crate::tuple::{Payload, Tuple, KEY_BYTES};
use std::collections::HashMap;
use std::sync::Arc;

/// Minimum record stride: key (8) + descriptor (4) + overflow offset (8).
/// Any payload fits at this stride by living outside the record; larger
/// strides inline correspondingly larger payloads.
pub const MIN_DENSE_STRIDE: usize = 20;

/// Byte offset of a record's payload area (key + descriptor).
pub(crate) const RECORD_HEADER: usize = KEY_BYTES + 4;

/// First word of an encoded page; [`Page::decode_shared`] refuses a page
/// without it.
pub(crate) const DENSE_MAGIC: u32 = u32::MAX;

/// Fixed bytes of a page's wire encoding before the record region:
/// magic, count, stride, overflow length (4 × u32).
pub(crate) const DENSE_HEADER: usize = 16;

const TAG_SHIFT: u32 = 30;
const LEN_MASK: u32 = (1 << TAG_SHIFT) - 1;
const TAG_INLINE: u32 = 0;
const TAG_OVERFLOW: u32 = 1;
const TAG_NOMINAL: u32 = 2;

/// Write one record into `rec` (a whole stride). A payload that does not fit
/// the inline area is handed back: the record then carries `overflow_at` (8
/// bytes LE) where the payload would start, and the caller keeps the bytes.
fn write_record<'p>(
    rec: &mut [u8],
    key: u64,
    payload: PayloadRef<'p>,
    overflow_at: u64,
) -> Option<&'p [u8]> {
    rec[..KEY_BYTES].copy_from_slice(&key.to_le_bytes());
    let (tag, len, spilled) = match payload {
        PayloadRef::Synthetic(n) => (TAG_NOMINAL, n, None),
        PayloadRef::Bytes(b) if b.len() <= rec.len() - RECORD_HEADER => {
            rec[RECORD_HEADER..RECORD_HEADER + b.len()].copy_from_slice(b);
            (TAG_INLINE, b.len() as u32, None)
        }
        PayloadRef::Bytes(b) => {
            rec[RECORD_HEADER..RECORD_HEADER + 8].copy_from_slice(&overflow_at.to_le_bytes());
            (TAG_OVERFLOW, b.len() as u32, Some(b))
        }
    };
    debug_assert!(len <= LEN_MASK, "payload size overflows the descriptor");
    let desc = (tag << TAG_SHIFT) | (len & LEN_MASK);
    rec[KEY_BYTES..RECORD_HEADER].copy_from_slice(&desc.to_le_bytes());
    spilled
}

/// The stored key of the record starting at `rec`.
#[inline]
fn record_key(rec: &[u8]) -> u64 {
    u64::from_le_bytes(rec[..KEY_BYTES].try_into().unwrap())
}

/// The descriptor word of the record starting at `rec`.
#[inline]
fn record_descriptor(rec: &[u8]) -> u32 {
    u32::from_le_bytes(rec[KEY_BYTES..RECORD_HEADER].try_into().unwrap())
}

/// Borrow the payload of the record starting at `rec`; `overflow` resolves
/// the 8-byte word and the length of a payload kept outside the record.
#[inline]
fn record_payload<'a>(
    rec: &'a [u8],
    overflow: impl FnOnce(u64, usize) -> &'a [u8],
) -> PayloadRef<'a> {
    let desc = record_descriptor(rec);
    let len = (desc & LEN_MASK) as usize;
    match desc >> TAG_SHIFT {
        TAG_INLINE => PayloadRef::Bytes(&rec[RECORD_HEADER..RECORD_HEADER + len]),
        TAG_OVERFLOW => {
            let word =
                u64::from_le_bytes(rec[RECORD_HEADER..RECORD_HEADER + 8].try_into().unwrap());
            PayloadRef::Bytes(overflow(word, len))
        }
        _ => PayloadRef::Synthetic(len as u32),
    }
}

/// A borrowed view of one record's payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PayloadRef<'a> {
    /// A synthetic payload of the given nominal size (no bytes exist).
    Synthetic(u32),
    /// Real payload bytes, borrowed from an arena or a decoded page.
    Bytes(&'a [u8]),
}

impl PayloadRef<'_> {
    /// Number of payload bytes this payload accounts for.
    pub fn len(&self) -> usize {
        match self {
            PayloadRef::Synthetic(n) => *n as usize,
            PayloadRef::Bytes(b) => b.len(),
        }
    }

    /// True when the payload occupies no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialise an owned [`Payload`].
    pub fn to_payload(self) -> Payload {
        match self {
            PayloadRef::Synthetic(n) => Payload::Synthetic(n),
            PayloadRef::Bytes(b) => Payload::Bytes(b.to_vec()),
        }
    }
}

impl<'a> From<&'a Payload> for PayloadRef<'a> {
    fn from(p: &'a Payload) -> Self {
        match p {
            Payload::Synthetic(n) => PayloadRef::Synthetic(*n),
            Payload::Bytes(b) => PayloadRef::Bytes(b),
        }
    }
}

/// An append-only arena of fixed-stride records with an overflow area.
///
/// Push tuples (or raw key/payload pairs) in order, then [`seal`](Self::seal)
/// the arena into a [`Page`]. Sealing hands the record buffer itself to
/// the page and leaves the arena empty; its next record starts a buffer of
/// the same size.
#[derive(Clone, Debug)]
pub struct TupleArena {
    stride: usize,
    /// The page under construction, laid out as its wire encoding: room for
    /// the header, then zero-filled record slots, the first `count` written.
    records: Vec<u8>,
    /// Size `records` is given when its first record arrives.
    room: usize,
    overflow: Vec<u8>,
    count: usize,
}

impl TupleArena {
    /// Create an arena with the given record stride.
    ///
    /// # Panics
    ///
    /// Panics when `stride < MIN_DENSE_STRIDE`.
    pub fn new(stride: usize) -> Self {
        Self::with_capacity(stride, 16)
    }

    /// [`new`](Self::new), with room for `records` records from the start
    /// (for callers that seal at a known page size).
    pub fn with_capacity(stride: usize, records: usize) -> Self {
        assert!(
            stride >= MIN_DENSE_STRIDE,
            "dense stride {stride} below minimum {MIN_DENSE_STRIDE}"
        );
        TupleArena {
            stride,
            records: Vec::new(),
            room: DENSE_HEADER + records.max(1) * stride,
            overflow: Vec::new(),
            count: 0,
        }
    }

    /// Number of records currently in the arena.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the arena holds no records.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The slots of the next `n` records, growing the buffer when they do
    /// not fit. Slots are handed out zero-filled, so a record shorter than
    /// its slot needs no padding written.
    fn slots(&mut self, n: usize) -> &mut [u8] {
        let at = DENSE_HEADER + self.count * self.stride;
        let end = at + n * self.stride;
        if end > self.records.len() {
            self.room = self.room.max(self.records.len() * 2).max(end);
            self.records.resize(self.room, 0);
        }
        &mut self.records[at..end]
    }

    /// Append a tuple by copying its key and payload into the arena.
    pub fn push(&mut self, t: &Tuple) {
        self.push_ref(t.key, PayloadRef::from(&t.payload));
    }

    /// Append a record from its parts, choosing inline vs overflow placement
    /// by payload length.
    pub fn push_ref(&mut self, key: u64, payload: PayloadRef<'_>) {
        let overflow_at = self.overflow.len() as u64;
        if let Some(bytes) = write_record(self.slots(1), key, payload, overflow_at) {
            self.overflow.extend_from_slice(bytes);
        }
        self.count += 1;
    }

    /// Append the records in `recs` — whole strides, as a `RecordSlab` slot
    /// or a page's record region holds them — verbatim: one `memcpy`, nothing
    /// decoded. Returns `false` (copying nothing) when `recs` is not whole
    /// records of this arena's stride or one of them keeps its payload
    /// outside itself; the caller falls back to per-record pushes.
    pub(crate) fn push_records(&mut self, recs: &[u8]) -> bool {
        if !recs.len().is_multiple_of(self.stride) {
            return false;
        }
        let spilled = |rec: &[u8]| record_descriptor(rec) >> TAG_SHIFT == TAG_OVERFLOW;
        if recs.chunks_exact(self.stride).any(spilled) {
            return false;
        }
        let n = recs.len() / self.stride;
        self.slots(n).copy_from_slice(recs);
        self.count += n;
        true
    }

    /// [`push_records`](Self::push_records) for the `n` records of `page`
    /// starting at record `from` (`false` also when the strides differ).
    pub(crate) fn extend_from_dense(&mut self, page: &Page, from: usize, n: usize) -> bool {
        if page.stride != self.stride || from + n > page.count {
            return false;
        }
        let start = page.records_at() + from * page.stride;
        self.push_records(&page.data[start..start + n * page.stride])
    }

    /// Seal the arena's contents into a [`Page`], leaving the arena empty
    /// for reuse. The buffer the records were written into becomes the
    /// page — header filled in, overflow area appended — so sealing copies no
    /// record, and neither does encoding the page later.
    pub fn seal(&mut self) -> Page {
        let mut data = std::mem::take(&mut self.records);
        data.resize(DENSE_HEADER + self.count * self.stride, 0);
        for (word, value) in [
            DENSE_MAGIC as usize,
            self.count,
            self.stride,
            self.overflow.len(),
        ]
        .into_iter()
        .enumerate()
        {
            data[word * 4..word * 4 + 4].copy_from_slice(&(value as u32).to_le_bytes());
        }
        data.extend_from_slice(&self.overflow);
        let page = Page {
            data: Arc::new(data),
            start: 0,
            overflow_len: self.overflow.len(),
            count: self.count,
            stride: self.stride,
        };
        self.overflow.clear();
        self.count = 0;
        page
    }
}

/// Prefetch every cache line `rec` touches; a no-op off x86-64.
#[inline]
pub(crate) fn prefetch(rec: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    for byte in rec.iter().step_by(64).chain(rec.last()) {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: a prefetch is a hint: it cannot fault or write, and the
        // address lies inside `rec`.
        unsafe { _mm_prefetch::<_MM_HINT_T0>((byte as *const u8).cast()) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = rec;
}

/// Slots per [`RecordSlab`] block: a power of two, for a shift and a mask.
pub(crate) const SLAB_BLOCK_SLOTS: usize = 1 << 8;

/// The records run formation selects over: fixed-stride slots, filled on
/// [`insert`](Self::insert) and recycled through a free list on
/// [`release`](Self::release), in blocks of `SLAB_BLOCK_SLOTS` that are
/// allocated as first needed and never copied into a larger buffer.
///
/// Slots hold the same records a [`TupleArena`] does. A payload longer than
/// the inline area is kept beside the slots, keyed by its slot (slots are
/// freed in any order, so an append-only overflow area would not do).
#[derive(Debug)]
pub(crate) struct RecordSlab {
    stride: usize,
    blocks: Vec<Box<[u8]>>,
    /// Slots handed out since the slab was made.
    next: u32,
    /// The last slot freed (`u32::MAX`: none); a free slot names the previous.
    free: u32,
    live: usize,
    pub(crate) spilled: HashMap<u32, Box<[u8]>>,
}

impl RecordSlab {
    /// Create an empty slab of `stride`-byte slots.
    ///
    /// # Panics
    ///
    /// Panics when `stride < MIN_DENSE_STRIDE`.
    pub fn new(stride: usize) -> Self {
        assert!(
            stride >= MIN_DENSE_STRIDE,
            "dense stride {stride} below minimum {MIN_DENSE_STRIDE}"
        );
        RecordSlab {
            stride,
            blocks: Vec::new(),
            next: 0,
            free: u32::MAX,
            live: 0,
            spilled: HashMap::new(),
        }
    }

    /// Number of occupied slots.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Copy a record into a free slot and return the slot.
    pub fn insert(&mut self, key: u64, payload: PayloadRef<'_>) -> u32 {
        let slot = if self.free != u32::MAX {
            let next = u32::from_le_bytes(self.record_bytes(self.free)[..4].try_into().unwrap());
            std::mem::replace(&mut self.free, next)
        } else {
            if (self.next as usize).is_multiple_of(SLAB_BLOCK_SLOTS) {
                let block = vec![0; SLAB_BLOCK_SLOTS * self.stride];
                self.blocks.push(block.into());
            }
            self.next += 1;
            self.next - 1
        };
        if let Some(bytes) = write_record(self.record_mut(slot), key, payload, 0) {
            self.spilled.insert(slot, bytes.into());
        }
        self.live += 1;
        slot
    }

    fn record_mut(&mut self, slot: u32) -> &mut [u8] {
        let at = slot as usize % SLAB_BLOCK_SLOTS * self.stride;
        &mut self.blocks[slot as usize / SLAB_BLOCK_SLOTS][at..at + self.stride]
    }

    /// The record in `slot` as it lies there: one stride of bytes.
    #[inline]
    pub fn record_bytes(&self, slot: u32) -> &[u8] {
        let at = slot as usize % SLAB_BLOCK_SLOTS * self.stride;
        &self.blocks[slot as usize / SLAB_BLOCK_SLOTS][at..at + self.stride]
    }

    /// The stored key of the record in `slot`.
    #[inline]
    pub fn key(&self, slot: u32) -> u64 {
        record_key(self.record_bytes(slot))
    }

    /// Borrow the payload of the record in `slot`.
    #[inline]
    pub fn payload_ref(&self, slot: u32) -> PayloadRef<'_> {
        record_payload(self.record_bytes(slot), |_, _| &self.spilled[&slot])
    }

    /// Free `slot` for reuse.
    pub fn release(&mut self, slot: u32) {
        if record_descriptor(self.record_bytes(slot)) >> TAG_SHIFT == TAG_OVERFLOW {
            self.spilled.remove(&slot);
        }
        let next = std::mem::replace(&mut self.free, slot);
        self.record_mut(slot)[..4].copy_from_slice(&next.to_le_bytes());
        self.live -= 1;
    }

    /// Move the records so that slot `i` holds what slot `order[i].1` held,
    /// where the slots of `order` permute the live slots `0..order.len()`: a
    /// cycle at a time, one record set aside, so no record is held twice,
    /// prefetching 16 records ahead along the cycle. Each slot of `order` is
    /// left naming its own index, which marks the records already moved.
    pub fn permute<K>(&mut self, order: &mut [(K, u32)]) {
        let mut spilled = std::mem::take(&mut self.spilled);
        if !spilled.is_empty() {
            let moved =
                |(i, (_, slot)): (usize, &(K, u32))| Some((i as u32, spilled.remove(slot)?));
            self.spilled = order.iter().enumerate().filter_map(moved).collect();
        }
        let (mut aside, mut moving) = (vec![0; self.stride], vec![0; self.stride]);
        for start in 0..order.len() as u32 {
            if order[start as usize].1 == start {
                continue;
            }
            aside.copy_from_slice(self.record_bytes(start));
            let (mut to, mut ahead) = (start, start);
            for _ in 0..16 {
                ahead = order[ahead as usize].1;
                prefetch(self.record_bytes(ahead));
            }
            let mut from = std::mem::replace(&mut order[to as usize].1, to);
            while from != start {
                ahead = order[ahead as usize].1;
                prefetch(self.record_bytes(ahead));
                moving.copy_from_slice(self.record_bytes(from));
                self.record_mut(to).copy_from_slice(&moving);
                to = from;
                from = std::mem::replace(&mut order[to as usize].1, to);
            }
            self.record_mut(to).copy_from_slice(&aside);
        }
    }

    /// Free the block that holds `slot`, whose records must all be released.
    pub fn free_block(&mut self, slot: u32) {
        self.blocks[slot as usize / SLAB_BLOCK_SLOTS] = Box::default();
    }
}

/// A page, the unit of I/O: `count` fixed-stride records plus an overflow
/// area, all borrowed from one reference-counted byte buffer, where they lie
/// exactly as on disk — header, records, overflow area — so a page is encoded
/// by writing its `wire_bytes` and decoded by pointing at them.
///
/// Cloning is cheap (it bumps the `Arc`), and pages decoded from the same
/// I/O block share the block's single allocation. A page is immutable; it is
/// built by [`TupleArena::seal`], or by [`Page::from_tuples`] when the caller
/// holds [`Tuple`]s.
#[derive(Clone, Debug)]
pub struct Page {
    data: Arc<Vec<u8>>,
    /// Where in `data` the page's wire encoding starts.
    start: usize,
    overflow_len: usize,
    count: usize,
    stride: usize,
}

impl Default for Page {
    fn default() -> Self {
        TupleArena::new(MIN_DENSE_STRIDE).seal()
    }
}

impl Page {
    /// Create an empty page.
    pub fn new() -> Self {
        Page::default()
    }

    /// Pack `tuples` into a page. The stride is derived from the tuples
    /// themselves — the record header plus the mean length of the real
    /// payloads — so equal-sized payloads all lie inline and an outlier goes
    /// to the overflow area. A builder that knows its stride pushes into a
    /// [`TupleArena`] instead.
    pub fn from_tuples(tuples: impl AsRef<[Tuple]>) -> Self {
        let tuples = tuples.as_ref();
        let real = || {
            tuples.iter().filter_map(|t| match &t.payload {
                Payload::Bytes(b) => Some(b.len()),
                Payload::Synthetic(_) => None,
            })
        };
        let (n, total) = real().fold((0, 0), |(n, sum), len| (n + 1, sum + len));
        let stride = (RECORD_HEADER + total.div_ceil(n.max(1))).max(MIN_DENSE_STRIDE);
        let mut arena = TupleArena::with_capacity(stride, tuples.len());
        // The outliers' overflow area, sized once.
        let spilled = real().filter(|&len| len > stride - RECORD_HEADER).sum();
        arena.overflow.reserve_exact(spilled);
        tuples.iter().for_each(|t| arena.push(t));
        arena.seal()
    }

    /// Number of records in the page.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the page holds no records.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The record stride.
    #[cfg(test)]
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// Logical bytes (key + payload per record) of the page's tuples,
    /// whatever the stride.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        (0..self.count)
            .map(|i| KEY_BYTES + self.record(i).1.len())
            .sum()
    }

    #[inline]
    fn records_at(&self) -> usize {
        self.start + DENSE_HEADER
    }

    /// The bytes of the page from the start of record `i` on.
    #[inline]
    fn record_at(&self, i: usize) -> &[u8] {
        &self.data[self.records_at() + i * self.stride..]
    }

    /// The stored key of record `i` (little-endian u64 at the record start).
    #[inline]
    pub(crate) fn key(&self, i: usize) -> u64 {
        record_key(self.record_at(i))
    }

    /// Iterate the stored keys in record order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.count).map(move |i| self.key(i))
    }

    /// Borrow the payload of record `i`.
    ///
    /// Decoding validates every descriptor up front, so this never reads out
    /// of bounds on pages that came from [`decode_shared`](Self::decode_shared)
    /// or a [`TupleArena`].
    #[inline]
    pub(crate) fn payload_ref(&self, i: usize) -> PayloadRef<'_> {
        record_payload(self.record_at(i), |off, len| {
            let at = self.records_at() + self.count * self.stride + off as usize;
            &self.data[at..at + len]
        })
    }

    /// Record `i` as its stored key and a borrowed payload — no [`Tuple`] is
    /// built.
    #[inline]
    pub fn record(&self, i: usize) -> (u64, PayloadRef<'_>) {
        (self.key(i), self.payload_ref(i))
    }

    /// Materialise record `i` as an owned [`Tuple`].
    pub fn get(&self, i: usize) -> Tuple {
        Tuple {
            key: self.key(i),
            payload: self.payload_ref(i).to_payload(),
        }
    }

    /// Materialise every record as an owned [`Tuple`]. Hot paths read
    /// [`record`](Self::record) instead.
    pub fn tuples(&self) -> Vec<Tuple> {
        (0..self.count).map(|i| self.get(i)).collect()
    }

    /// True when the stored keys appear in non-decreasing order.
    pub fn is_sorted(&self) -> bool {
        (1..self.count).all(|i| self.key(i - 1) <= self.key(i))
    }

    /// This page's wire encoding: magic, count, stride and overflow length
    /// (4 × u32 LE), the record region, the overflow area. It is what a
    /// [`FileStore`](crate::FileStore) writes and what an `INGEST` or `EGRESS`
    /// frame carries.
    pub fn wire_bytes(&self) -> &[u8] {
        let len = DENSE_HEADER + self.count * self.stride + self.overflow_len;
        &self.data[self.start..self.start + len]
    }

    /// What a page's 16-byte header states: how many records the page holds
    /// and how many bytes its wire encoding takes, header included. Nothing
    /// else of the header is checked here; [`decode_at`](Self::decode_at)
    /// checks the whole page.
    pub fn wire_len(header: &[u8; DENSE_HEADER]) -> (usize, u64) {
        let word = |i: usize| u32::from_le_bytes(header[i..i + 4].try_into().unwrap()) as u64;
        (
            word(4) as usize,
            DENSE_HEADER as u64 + word(4) * word(8) + word(12),
        )
    }

    /// Decode the page whose wire encoding starts at byte `start` of a shared
    /// buffer, borrowing it: the header gives the page's length, and the
    /// page is checked as a run page read from disk is (every descriptor,
    /// length and overflow offset). Bytes after the page are not looked at.
    pub fn decode_at(data: &Arc<Vec<u8>>, start: usize) -> Result<Self, String> {
        let rest = data.get(start..).unwrap_or(&[]);
        let header = rest.first_chunk().ok_or("page shorter than its header")?;
        let (_, len) = Self::wire_len(header);
        if len > rest.len() as u64 {
            return Err("page extends past the buffer".into());
        }
        Self::decode_shared(data, start, len as usize)
    }

    /// Decode a page that occupies `buf[start..start + len]` of a shared
    /// buffer, borrowing (not copying) the record region.
    ///
    /// Every record descriptor is validated here — lengths, tags and overflow
    /// offsets — so the accessors can index without bounds failures. Returns
    /// a human-readable description of the first problem found; the store
    /// wraps it into [`SortError::CorruptRun`](crate::SortError::CorruptRun).
    pub(crate) fn decode_shared(
        data: &Arc<Vec<u8>>,
        start: usize,
        len: usize,
    ) -> Result<Self, String> {
        if start + len > data.len() {
            return Err("page extends past the buffer".into());
        }
        let buf = &data[start..start + len];
        if len < DENSE_HEADER {
            return Err(format!("page shorter than its header: {len} bytes"));
        }
        if buf[..4] != DENSE_MAGIC.to_le_bytes() {
            return Err("missing page magic (damaged, or an old-format page)".into());
        }
        let word = |i: usize| u32::from_le_bytes(buf[i..i + 4].try_into().unwrap());
        let count = word(4) as usize;
        let stride = word(8) as usize;
        let overflow_len = word(12) as usize;
        if stride < RECORD_HEADER {
            return Err(format!("stride {stride} below record header"));
        }
        let records_len = count
            .checked_mul(stride)
            .ok_or_else(|| "record region overflows".to_string())?;
        let total = DENSE_HEADER
            .checked_add(records_len)
            .and_then(|t| t.checked_add(overflow_len))
            .ok_or_else(|| "page size overflows".to_string())?;
        if total != len {
            return Err(format!("page claims {total} bytes but occupies {len}"));
        }
        let page = Page {
            data: Arc::clone(data),
            start,
            overflow_len,
            count,
            stride,
        };
        for i in 0..count {
            let desc = record_descriptor(page.record_at(i));
            let plen = (desc & LEN_MASK) as usize;
            match desc >> TAG_SHIFT {
                TAG_INLINE => {
                    if plen > stride - RECORD_HEADER {
                        return Err(format!(
                            "record {i}: inline payload of {plen} bytes exceeds stride {stride}"
                        ));
                    }
                }
                TAG_OVERFLOW => {
                    if stride < MIN_DENSE_STRIDE {
                        return Err(format!(
                            "record {i}: overflow payload at stride {stride} (needs {MIN_DENSE_STRIDE})"
                        ));
                    }
                    let body = page.records_at() + i * stride + RECORD_HEADER;
                    let off = u64::from_le_bytes(page.data[body..body + 8].try_into().unwrap());
                    let end = off.checked_add(plen as u64);
                    if end.is_none_or(|e| e > overflow_len as u64) {
                        return Err(format!(
                            "record {i}: overflow slice {off}+{plen} exceeds slab of {overflow_len}"
                        ));
                    }
                }
                TAG_NOMINAL => {}
                _ => return Err(format!("record {i}: invalid payload tag")),
            }
        }
        Ok(page)
    }
}

/// Pages compare by their logical tuples; the stride and where a payload
/// lies are derived state.
impl PartialEq for Page {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count && (0..self.count).all(|i| self.record(i) == other.record(i))
    }
}
impl Eq for Page {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tuples() -> Vec<Tuple> {
        vec![
            Tuple::new(3, vec![1, 2, 3]),
            Tuple::new(1, Vec::new()),
            Tuple::synthetic(9, 256),
            Tuple::new(7, vec![0xAB; 64]), // spills at small strides
            Tuple::new(2, vec![5; 8]),
        ]
    }

    fn decode(buf: Vec<u8>) -> Result<Page, String> {
        let len = buf.len();
        Page::decode_shared(&Arc::new(buf), 0, len)
    }

    fn seal(tuples: &[Tuple], stride: usize) -> Page {
        let mut arena = TupleArena::new(stride);
        for t in tuples {
            arena.push(t);
        }
        arena.seal()
    }

    #[test]
    fn arena_round_trips_tuples_inline_and_overflow() {
        let tuples = sample_tuples();
        for stride in [MIN_DENSE_STRIDE, 32, 128] {
            let page = seal(&tuples, stride);
            assert_eq!(page.len(), tuples.len());
            assert_eq!(page.tuples(), tuples, "stride {stride}");
            let expect: usize = tuples.iter().map(Tuple::size).sum();
            assert_eq!(page.bytes(), expect);
            assert_eq!(
                page.keys().collect::<Vec<_>>(),
                tuples.iter().map(|t| t.key).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn seal_leaves_the_arena_reusable() {
        let mut arena = TupleArena::new(32);
        arena.push(&Tuple::new(1, vec![9; 4]));
        let first = arena.seal();
        assert!(arena.is_empty());
        arena.push(&Tuple::new(2, vec![8; 4]));
        let second = arena.seal();
        assert_eq!(first.len(), 1);
        assert_eq!(second.get(0).key, 2);
    }

    #[test]
    fn slab_holds_every_payload_kind_and_recycles_slots() {
        let tuples = sample_tuples();
        let mut slab = RecordSlab::new(MIN_DENSE_STRIDE);
        let slots: Vec<u32> = tuples
            .iter()
            .map(|t| slab.insert(t.key, PayloadRef::from(&t.payload)))
            .collect();
        assert_eq!(slab.live(), tuples.len());
        let mut arena = TupleArena::new(MIN_DENSE_STRIDE);
        for (t, &slot) in tuples.iter().zip(&slots) {
            assert_eq!(slab.key(slot), t.key);
            assert_eq!(slab.payload_ref(slot), PayloadRef::from(&t.payload));
            // A slot leaves as the bytes it is, unless its payload is elsewhere.
            let inline = !slab.spilled.contains_key(&slot);
            assert_eq!(arena.push_records(slab.record_bytes(slot)), inline);
            assert!(!inline || arena.seal().get(0) == *t);
        }
        assert!(!arena.push_records(&slab.record_bytes(slots[0])[1..]));
        // Freed in any order, slots come back before the slab grows — the one
        // that held a payload outside its record included.
        let spilled = slots[3];
        slab.release(spilled);
        slab.release(slots[0]);
        assert_eq!(slab.live(), tuples.len() - 2);
        assert!(slab.spilled.is_empty(), "a freed slot keeps no payload");
        let reused = [
            slab.insert(40, PayloadRef::Synthetic(9)),
            slab.insert(41, PayloadRef::Bytes(&[1; 30])),
        ];
        assert_eq!(reused, [slots[0], spilled]);
        assert_eq!(slab.payload_ref(spilled), PayloadRef::Bytes(&[1; 30]));
        assert_eq!(slab.insert(42, PayloadRef::Bytes(&[])), tuples.len() as u32);

        // Records leave through an arena exactly as they came in.
        let mut arena = TupleArena::new(MIN_DENSE_STRIDE);
        for &slot in &slots[1..3] {
            arena.push_ref(slab.key(slot), slab.payload_ref(slot));
        }
        assert_eq!(arena.seal().tuples(), tuples[1..3].to_vec());
    }

    #[test]
    fn wire_encoding_round_trips() {
        let tuples = sample_tuples();
        let page = seal(&tuples, 24);
        let buf = page.wire_bytes().to_vec();
        let decoded = decode(buf).unwrap();
        assert_eq!(decoded, page);
        assert_eq!(decoded.bytes(), page.bytes());
    }

    #[test]
    fn block_of_pages_shares_one_buffer() {
        let a = seal(&sample_tuples(), 24);
        let b = seal(&[Tuple::new(11, vec![7; 30])], 24);
        let mut buf = a.wire_bytes().to_vec();
        let split = buf.len();
        buf.extend_from_slice(b.wire_bytes());
        let shared = Arc::new(buf);
        let da = Page::decode_at(&shared, 0).unwrap();
        let db = Page::decode_at(&shared, split).unwrap();
        assert_eq!(da, a);
        assert_eq!(db, b);
        assert_eq!(Arc::strong_count(&shared), 3);
    }

    #[test]
    fn extend_from_dense_fast_path_and_fallbacks() {
        let inline_only: Vec<Tuple> = (0..6).map(|k| Tuple::new(k, vec![k as u8; 4])).collect();
        let page = seal(&inline_only, 24);
        let mut arena = TupleArena::new(24);
        assert!(arena.extend_from_dense(&page, 1, 4));
        let got = arena.seal();
        assert_eq!(got.tuples(), inline_only[1..5].to_vec());

        // Stride mismatch declines.
        let mut other = TupleArena::new(32);
        assert!(!other.extend_from_dense(&page, 0, 2));
        assert!(other.is_empty());

        // Overflow records decline.
        let spilling = seal(&[Tuple::new(1, vec![9; 64])], 24);
        let mut third = TupleArena::new(24);
        assert!(!third.extend_from_dense(&spilling, 0, 1));

        // Out-of-range declines.
        assert!(!third.extend_from_dense(&page, 4, 4));
    }

    #[test]
    fn decode_rejects_malformed_pages_without_panicking() {
        let page = seal(&sample_tuples(), 24);
        let good = page.wire_bytes().to_vec();

        // Truncation at every prefix length must error, never panic.
        for cut in 0..good.len() {
            assert!(
                decode(good[..cut].to_vec()).is_err(),
                "truncated to {cut} bytes decoded"
            );
            assert!(Page::decode_at(&Arc::new(good[..cut].to_vec()), 0).is_err());
        }

        // Overclaimed count.
        let mut bad = good.clone();
        bad[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(bad).is_err());

        // Undersized stride.
        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert!(decode(bad).is_err());

        // Overflow slab length larger than the buffer.
        let mut bad = good.clone();
        bad[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(bad).is_err());

        // Invalid tag on the first record.
        let mut bad = good.clone();
        bad[DENSE_HEADER + KEY_BYTES + 3] |= 0xC0;
        assert!(decode(bad).is_err());

        // Missing magic word.
        let mut bad = good.clone();
        bad[0] = 0;
        assert!(decode(bad).is_err());
    }

    #[test]
    #[should_panic(expected = "dense stride")]
    fn arena_rejects_tiny_strides() {
        TupleArena::new(MIN_DENSE_STRIDE - 1);
    }
}
