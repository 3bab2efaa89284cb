//! A read cursor over a stored run: one buffered page at a time, exactly as
//! the merge phase consumes its input runs. The cursor has one way to load:
//! when its buffer is empty it reads the run's next page with
//! [`RunStore::read_page`] on the merging thread, so the one page the merge
//! plan bills per input is all it ever holds.
//!
//! # The rank cache
//!
//! Whenever a page is promoted into the consumption buffer, the cursor
//! materialises a parallel column of `u64` *ranks*
//! ([`crate::SortOrder::rank_column_into`]) in one pass. For exact orders
//! every subsequent [`RunCursor::peek_composite`] is a plain array read — no
//! direction mapping — and because a run's pages are rank-sorted by
//! construction, the column is sorted, which lets the batched merge kernel
//! binary-search how far this cursor may advance before its head would lose
//! to a challenger ([`RunCursor::gallop_len`]) and move that whole slice at
//! once ([`RunCursor::take_batch_arena`]).

use crate::env::{CpuOp, SortEnv};
use crate::error::SortResult;
use crate::layout::TupleArena;
use crate::order::SortOrder;
use crate::store::{RunDirection, RunId, RunMeta, RunStore};
use crate::tuple::{Page, Tuple};

/// Cursor over a run held in a [`RunStore`], buffering one page of tuples.
///
/// A cursor created from metadata tagged [`RunDirection::Reversed`] reads the
/// run *back-to-front* — last page first, last tuple of each page first — so
/// a descending run from adaptive up/down replacement selection presents the
/// same ascending rank stream as any forward run. Everything downstream (the
/// loser tree, the cached rank column, gallop batch moves) is direction-blind.
#[derive(Debug)]
pub struct RunCursor {
    /// The run being read.
    pub run: RunId,
    /// Number of pages fetched from the store so far. For forward runs this
    /// is also the physical index of the next page to read; for backward
    /// runs the next physical page is `run_pages - 1 - next_page`.
    pub next_page: usize,
    /// Read the run back-to-front (the run is stored in reverse rank order).
    backward: bool,
    /// The currently buffered page. Its records stay where they lie in the
    /// buffer the page was read into until they leave the cursor.
    page: Page,
    /// Records of `page` consumed so far; a backward cursor indexes the page
    /// from its end.
    pos: usize,
    /// Rank column of the buffered page in consumption order, computed once
    /// at page promotion; `ranks[pos..]` is what is left and is sorted (runs
    /// are rank-ordered by construction).
    ranks: Vec<u64>,
    /// Total tuples consumed through this cursor.
    pub consumed: usize,
    /// Pages read through this cursor, one store read each.
    pub pages_read: usize,
    /// Seconds this cursor spent in store reads.
    pub io_stall: f64,
}

impl RunCursor {
    /// Create a cursor positioned at the beginning of `run`, reading forward.
    pub fn new(run: RunId) -> Self {
        Self::with_direction(run, RunDirection::Forward)
    }

    /// Create a cursor honouring the run's recorded direction: a
    /// [`RunDirection::Reversed`] run is consumed back-to-front.
    pub fn from_meta(meta: RunMeta) -> Self {
        Self::with_direction(meta.id, meta.dir)
    }

    fn with_direction(run: RunId, dir: RunDirection) -> Self {
        RunCursor {
            run,
            next_page: 0,
            backward: dir == RunDirection::Reversed,
            page: Page::new(),
            pos: 0,
            ranks: Vec::new(),
            consumed: 0,
            pages_read: 0,
            io_stall: 0.0,
        }
    }

    /// Unconsumed records of the buffered page.
    fn buffered(&self) -> usize {
        self.page.len() - self.pos
    }

    /// Physical index in the buffered page of the `i`-th record in
    /// consumption order.
    #[inline]
    fn index(&self, i: usize) -> usize {
        if self.backward {
            self.page.len() - 1 - i
        } else {
            i
        }
    }

    /// Promote `page` into the consumption buffer, materialising its rank
    /// column in one pass. A backward cursor flips only the column, so it is
    /// sorted in consumption order; the records are indexed from the back as
    /// they leave.
    fn promote(&mut self, order: &SortOrder, page: Page) {
        self.ranks.clear();
        order.rank_column_into(&page, &mut self.ranks);
        if self.backward {
            self.ranks.reverse();
        }
        self.page = page;
        self.pos = 0;
    }

    /// Load the next page into the buffer if the buffer is empty and more
    /// pages exist. Returns `Ok(true)` if at least one tuple is buffered
    /// after the call.
    pub fn ensure_loaded<S: RunStore, E: SortEnv>(
        &mut self,
        order: &SortOrder,
        store: &mut S,
        env: &mut E,
    ) -> SortResult<bool> {
        while self.buffered() == 0 {
            let total = store.run_pages(self.run);
            if self.next_page >= total {
                return Ok(false);
            }
            let phys = if self.backward {
                total - 1 - self.next_page
            } else {
                self.next_page
            };
            env.charge_cpu(CpuOp::StartIo, 1);
            let t0 = env.now();
            let page = store.read_page(self.run, phys)?;
            self.io_stall += env.now() - t0;
            self.pages_read += 1;
            self.next_page += 1;
            self.promote(order, page);
            // Empty pages are legal (loop again).
        }
        Ok(true)
    }

    /// Composite key (rank, then tie rank — see [`SortOrder::composite`]) of
    /// the next tuple, loading a page if necessary. For exact orders this is
    /// just the cached rank shifted into the high half; a normalized-key
    /// order reads the record's key and borrowed payload where they lie.
    pub fn peek_composite<S: RunStore, E: SortEnv>(
        &mut self,
        order: &SortOrder,
        store: &mut S,
        env: &mut E,
    ) -> SortResult<Option<u128>> {
        if !self.ensure_loaded(order, store, env)? {
            return Ok(None);
        }
        if order.rank_is_exact() {
            return Ok(Some(SortOrder::composite(self.ranks[self.pos], 0)));
        }
        let i = self.index(self.pos);
        Ok(Some(
            order.composite_at(self.page.key(i), self.page.payload_ref(i)),
        ))
    }

    /// Remove and return the next tuple, loading a page if necessary.
    pub fn pop<S: RunStore, E: SortEnv>(
        &mut self,
        order: &SortOrder,
        store: &mut S,
        env: &mut E,
    ) -> SortResult<Option<Tuple>> {
        if self.ensure_loaded(order, store, env)? {
            let t = self.page.get(self.index(self.pos));
            self.pos += 1;
            self.consumed += 1;
            Ok(Some(t))
        } else {
            Ok(None)
        }
    }

    /// How many buffered tuples this cursor may yield in one batch before its
    /// head rank would lose to a challenger of rank `bound` — i.e. the length
    /// of the leading slice with `rank < bound` (`rank <= bound` when
    /// `inclusive`, for the case where this cursor wins rank ties), capped at
    /// `max`. Found by binary search over the sorted cached rank column, so
    /// the cost is O(log page) per *batch* rather than one comparison per
    /// tuple. Returns 0 when nothing is buffered; with `bound == None` (no
    /// challenger — a fan-in of one) the whole buffered page qualifies.
    pub fn gallop_len(&self, bound: Option<u64>, inclusive: bool, max: usize) -> usize {
        let col = &self.ranks[self.pos..];
        let qualifying = match bound {
            None => col.len(),
            Some(b) => col.partition_point(|&r| r < b || (inclusive && r == b)),
        };
        qualifying.min(max)
    }

    /// Move the next `n` buffered tuples into an output arena (the batch
    /// counterpart of [`pop`](Self::pop), and one that builds no [`Tuple`];
    /// the caller sizes `n` with [`gallop_len`](Self::gallop_len), so no page
    /// load can be needed). A forward slice of a matching stride and no overflow
    /// payloads moves as one `memcpy` of its record region; anything else —
    /// a backward cursor's records leave in reverse physical order — moves
    /// record by record, verbatim where the record allows it.
    pub fn take_batch_arena(&mut self, n: usize, arena: &mut TupleArena) {
        debug_assert!(
            n <= self.buffered(),
            "take_batch_arena past the buffered page"
        );
        let page = &self.page;
        if self.backward || !arena.extend_from_dense(page, self.pos, n) {
            for i in (self.pos..self.pos + n).map(|i| self.index(i)) {
                if !arena.extend_from_dense(page, i, 1) {
                    arena.push_ref(page.key(i), page.payload_ref(i));
                }
            }
        }
        self.pos += n;
        self.consumed += n;
    }

    /// Remaining data in pages (buffered fraction counts as one page); used
    /// when picking the "shortest runs" for a preliminary merge step.
    pub fn remaining_pages<S: RunStore>(&self, store: &S) -> usize {
        let unread = store.run_pages(self.run).saturating_sub(self.next_page);
        unread + usize::from(self.buffered() > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::CountingEnv;
    use crate::store::MemStore;
    use crate::tuple::{paginate, Tuple};

    fn setup(n: usize, per_page: usize) -> (MemStore, RunId) {
        let mut s = MemStore::new();
        let r = s.create_run().unwrap();
        let tuples: Vec<Tuple> = (0..n as u64).map(|k| Tuple::synthetic(k, 16)).collect();
        for p in paginate(tuples, per_page) {
            s.append_page(r, p).unwrap();
        }
        (s, r)
    }

    #[test]
    fn cursor_streams_all_tuples_in_order() {
        let (mut store, run) = setup(10, 3);
        let mut env = CountingEnv::new();
        let asc = SortOrder::ascending();
        let mut c = RunCursor::new(run);
        let mut got = Vec::new();
        while let Some(t) = c.pop(&asc, &mut store, &mut env).unwrap() {
            got.push(t.key);
        }
        assert_eq!(got, (0..10).collect::<Vec<u64>>());
        assert_eq!(c.remaining_pages(&store), 0);
        assert_eq!(c.pages_read, 4);
        assert_eq!(c.consumed, 10);
    }

    #[test]
    fn peek_does_not_consume() {
        let (mut store, run) = setup(4, 2);
        let mut env = CountingEnv::new();
        let asc = SortOrder::ascending();
        let mut c = RunCursor::new(run);
        let head = SortOrder::composite;
        assert_eq!(
            c.peek_composite(&asc, &mut store, &mut env).unwrap(),
            Some(head(0, 0))
        );
        assert_eq!(
            c.peek_composite(&asc, &mut store, &mut env).unwrap(),
            Some(head(0, 0))
        );
        assert_eq!(c.pop(&asc, &mut store, &mut env).unwrap().unwrap().key, 0);
        assert_eq!(
            c.peek_composite(&asc, &mut store, &mut env).unwrap(),
            Some(head(1, 0))
        );
    }

    #[test]
    fn peek_composite_respects_descending_order() {
        let (mut store, run) = setup(3, 2);
        let mut env = CountingEnv::new();
        let desc = SortOrder::descending();
        let mut c = RunCursor::new(run);
        assert_eq!(
            c.peek_composite(&desc, &mut store, &mut env).unwrap(),
            Some(SortOrder::composite(!0u64, 0))
        );
    }

    #[test]
    fn remaining_pages_counts_buffered_page() {
        let (mut store, run) = setup(9, 3);
        let mut env = CountingEnv::new();
        let asc = SortOrder::ascending();
        let mut c = RunCursor::new(run);
        assert_eq!(c.remaining_pages(&store), 3);
        c.pop(&asc, &mut store, &mut env).unwrap();
        assert_eq!(c.remaining_pages(&store), 3); // 2 unread + partial buffer
        for _ in 0..3 {
            c.pop(&asc, &mut store, &mut env).unwrap();
        }
        assert_eq!(c.remaining_pages(&store), 2);
    }

    #[test]
    fn empty_run_is_immediately_exhausted() {
        let mut store = MemStore::new();
        let run = store.create_run().unwrap();
        let mut env = CountingEnv::new();
        let asc = SortOrder::ascending();
        let mut c = RunCursor::new(run);
        assert_eq!(c.remaining_pages(&store), 0);
        assert_eq!(c.peek_composite(&asc, &mut store, &mut env).unwrap(), None);
        assert_eq!(c.pop(&asc, &mut store, &mut env).unwrap(), None);
    }

    #[test]
    fn cursor_sees_pages_appended_after_creation() {
        // Dynamic splitting consumes a child's output run that grows while
        // the child executes; the cursor must pick up newly appended pages.
        let mut store = MemStore::new();
        let run = store.create_run().unwrap();
        let mut env = CountingEnv::new();
        let asc = SortOrder::ascending();
        let mut c = RunCursor::new(run);
        assert_eq!(c.pop(&asc, &mut store, &mut env).unwrap(), None);
        store
            .append_page(
                run,
                crate::tuple::Page::from_tuples(vec![Tuple::synthetic(5, 16)]),
            )
            .unwrap();
        assert_eq!(c.pop(&asc, &mut store, &mut env).unwrap().unwrap().key, 5);
    }

    #[test]
    fn store_errors_propagate_through_cursor() {
        let mut inner = MemStore::new();
        let mut env = CountingEnv::new();
        let run = inner.create_run().unwrap();
        inner
            .append_page(
                run,
                crate::tuple::Page::from_tuples(vec![Tuple::synthetic(1, 16)]),
            )
            .unwrap();
        let mut store = crate::store::test_util::FailingReadStore { inner };
        let asc = SortOrder::ascending();
        let mut c = RunCursor::new(run);
        // The run has pages, so the cursor must attempt the read and surface
        // the store's error through ensure_loaded / peek_composite / pop.
        assert!(matches!(
            c.ensure_loaded(&asc, &mut store, &mut env),
            Err(crate::error::SortError::CorruptRun { .. })
        ));
        assert!(matches!(
            c.peek_composite(&asc, &mut store, &mut env),
            Err(crate::error::SortError::CorruptRun { .. })
        ));
        assert!(matches!(
            c.pop(&asc, &mut store, &mut env),
            Err(crate::error::SortError::CorruptRun { .. })
        ));
    }

    // -- direction-aware (backward) consumption --------------------------

    /// A descending run (keys n-1..0) as pages.
    fn reversed_pages(n: usize, per_page: usize) -> Vec<Page> {
        paginate(
            (0..n as u64)
                .rev()
                .map(|k| Tuple::synthetic(k, 32))
                .collect(),
            per_page,
        )
    }

    /// Store `pages` as one run and return a cursor that reads it
    /// back-to-front.
    fn setup_reversed(pages: Vec<Page>) -> (MemStore, RunCursor) {
        let mut s = MemStore::new();
        let r = s.create_run().unwrap();
        s.append_block(r, pages).unwrap();
        let mut meta = s.meta(r);
        meta.dir = crate::store::RunDirection::Reversed;
        (s, RunCursor::from_meta(meta))
    }

    #[test]
    fn backward_cursor_streams_descending_run_ascending() {
        let (mut store, mut c) = setup_reversed(reversed_pages(10, 3));
        let mut env = CountingEnv::new();
        let asc = SortOrder::ascending();
        let mut got = Vec::new();
        while let Some(t) = c.pop(&asc, &mut store, &mut env).unwrap() {
            got.push(t.key);
        }
        assert_eq!(got, (0..10).collect::<Vec<u64>>());
        assert_eq!(c.remaining_pages(&store), 0);
        assert_eq!(c.pages_read, 4);
        assert_eq!(c.consumed, 10);
    }

    #[test]
    fn backward_cursor_peek_matches_pop() {
        let (mut store, mut c) = setup_reversed(reversed_pages(7, 2));
        let mut env = CountingEnv::new();
        let asc = SortOrder::ascending();
        for expect in 0..7u64 {
            assert_eq!(
                c.peek_composite(&asc, &mut store, &mut env).unwrap(),
                Some(SortOrder::composite(expect, 0))
            );
            assert_eq!(
                c.pop(&asc, &mut store, &mut env).unwrap().unwrap().key,
                expect
            );
        }
        assert_eq!(c.peek_composite(&asc, &mut store, &mut env).unwrap(), None);
    }

    #[test]
    fn backward_take_batch_dense_preserves_order() {
        let pages = reversed_pages(12, 6);
        let mut arena = TupleArena::new(pages[0].stride());
        let (mut store, mut c) = setup_reversed(pages);
        let mut env = CountingEnv::new();
        let asc = SortOrder::ascending();
        while c.ensure_loaded(&asc, &mut store, &mut env).unwrap() {
            // Drain the buffered page in two uneven batches to exercise
            // mid-page positions.
            let n = c.buffered();
            let first = n.div_ceil(2);
            c.take_batch_arena(first, &mut arena);
            c.take_batch_arena(n - first, &mut arena);
        }
        let got: Vec<u64> = arena.seal().keys().collect();
        assert_eq!(got, (0..12).collect::<Vec<u64>>());
    }

    #[test]
    fn backward_take_batch_arena_dense_preserves_order() {
        let pages = reversed_pages(9, 4);
        let mut arena = TupleArena::new(pages[0].stride());
        let (mut store, mut c) = setup_reversed(pages);
        let mut env = CountingEnv::new();
        let asc = SortOrder::ascending();
        while c.ensure_loaded(&asc, &mut store, &mut env).unwrap() {
            let n = c.buffered();
            c.take_batch_arena(n, &mut arena);
        }
        let got: Vec<u64> = arena.seal().keys().collect();
        assert_eq!(got, (0..9).collect::<Vec<u64>>());
    }

    /// A normalized-key order — the one order whose rank is not the whole
    /// key — reads its composites out of the same record region every other
    /// order does: under `by_normalized_key(10)` and its reverse, forward and
    /// backward cursors over pages of every payload kind (so some records
    /// keep their payload outside themselves, and some lack the tie bytes)
    /// peek each record's composite and yield, through each way a record can
    /// leave, the tuples sorted by composite.
    #[test]
    fn normalized_key_orders_stream_by_composite_in_both_directions() {
        // Three 8-byte prefixes shared by many records: ranks tie, and only
        // key bytes 8..10, read from the payload, tell the records apart.
        let tuples: Vec<Tuple> = (0..23u64)
            .map(|k| {
                let mut key = *b"prefix\0\0\0\0";
                key[7] = (k % 3) as u8;
                key[8..].copy_from_slice(&[(k % 5) as u8, k as u8]);
                let prefix = crate::order::normalized_prefix(&key);
                match k % 4 {
                    0 => Tuple::synthetic(prefix, 40),
                    1 => Tuple::new(prefix, Vec::new()),
                    2 => Tuple::new(prefix, key[..6].to_vec()),
                    _ => Tuple::new(prefix, [&key[..], &[k as u8; 80]].concat()),
                }
            })
            .collect();
        let normalized = SortOrder::by_normalized_key(10);
        for order in [normalized, normalized.reversed()] {
            let mut sorted = tuples.clone();
            sorted.sort_by_key(|t| order.composite_of(t));
            let composites: Vec<u128> = sorted.iter().map(|t| order.composite_of(t)).collect();
            assert!(sorted
                .windows(2)
                .any(|w| order.rank(&w[0]) == order.rank(&w[1])
                    && order.composite_of(&w[0]) != order.composite_of(&w[1])));
            for backward in [false, true] {
                let cursor = || {
                    let mut stored = sorted.clone();
                    if backward {
                        stored.reverse();
                    }
                    let mut s = MemStore::new();
                    let r = s.create_run().unwrap();
                    s.append_block(r, paginate(stored, 5)).unwrap();
                    let mut meta = s.meta(r);
                    if backward {
                        meta.dir = crate::store::RunDirection::Reversed;
                    }
                    (s, RunCursor::from_meta(meta))
                };
                let mut env = CountingEnv::new();
                let what = format!("{order:?} backward={backward}");

                let (mut store, mut c) = cursor();
                let (mut peeked, mut popped) = (Vec::new(), Vec::new());
                while let Some(head) = c.peek_composite(&order, &mut store, &mut env).unwrap() {
                    peeked.push(head);
                    popped.push(c.pop(&order, &mut store, &mut env).unwrap().unwrap());
                }
                assert_eq!(peeked, composites, "{what}");
                assert_eq!(popped, sorted, "{what}");

                for batch in [3, usize::MAX] {
                    let (mut store, mut c) = cursor();
                    let mut arena = TupleArena::new(32);
                    while c.ensure_loaded(&order, &mut store, &mut env).unwrap() {
                        let n = c.gallop_len(None, false, batch);
                        c.take_batch_arena(n, &mut arena);
                    }
                    assert_eq!(arena.seal().tuples(), sorted, "{what}");
                }
            }
        }
    }

    /// Property test: a descending run of random length, paginated with a
    /// random page size, written through a [`crate::FileStore`] (encode), read
    /// back and consumed through a reversed cursor — always yields the
    /// ascending stream.
    #[test]
    fn descending_runs_round_trip_through_file_store() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xD0C5);
        for trial in 0..20 {
            let n = rng.gen_range(1..400usize);
            let per_page = rng.gen_range(1..32usize);
            let dir = std::env::temp_dir()
                .join(format!("masort-revcursor-{}-{trial}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let mut store = crate::store::FileStore::new(&dir).unwrap();
            let run = store.create_run().unwrap();
            for p in reversed_pages(n, per_page) {
                store.append_page(run, p).unwrap();
            }
            let mut meta = store.meta(run);
            meta.dir = crate::store::RunDirection::Reversed;
            let mut c = RunCursor::from_meta(meta);
            let mut env = CountingEnv::new();
            let asc = SortOrder::ascending();
            let mut got = Vec::new();
            while let Some(t) = c.pop(&asc, &mut store, &mut env).unwrap() {
                got.push(t.key);
            }
            assert_eq!(
                got,
                (0..n as u64).collect::<Vec<u64>>(),
                "trial {trial}: n={n} per_page={per_page}"
            );
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn forward_meta_cursor_matches_plain_cursor() {
        let (mut store, run) = setup(10, 3);
        let mut env = CountingEnv::new();
        let asc = SortOrder::ascending();
        let mut c = RunCursor::from_meta(store.meta(run));
        let mut got = Vec::new();
        while let Some(t) = c.pop(&asc, &mut store, &mut env).unwrap() {
            got.push(t.key);
        }
        assert_eq!(got, (0..10).collect::<Vec<u64>>());
    }
}
