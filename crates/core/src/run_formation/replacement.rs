//! Replacement-selection run formation (`repl1` / `replN`).
//!
//! Input tuples are inserted into an ordered heap. Once memory is full, tuples
//! with the smallest keys that are still ≥ the last key written to the current
//! run are removed and written out, making room for more input. Tuples smaller
//! than the last output key are tagged for the *next* run; when the heap
//! contains only next-run tuples the current run is closed (paper §2.1).
//!
//! Writing happens in blocks of `block_pages` pages (`replN`): larger blocks
//! reduce disk seeks at the cost of slightly shorter runs, and they leave a
//! few free buffers lying around most of the time, which is what makes `replN`
//! so responsive to memory shortages (paper §5.2).
//!
//! # The selection structure
//!
//! The heap holds compact `(run_no, composite, slot)` entries over an
//! **arena** of tuples instead of the tuples themselves: composite keys
//! (rank, then tie rank — see [`SortOrder::composite`]) are computed once at
//! insertion (the merge kernel's cached-rank discipline), and every sift
//! moves a small packed entry rather than a full [`Tuple`] with its payload
//! vector. A binary heap — not the merge's loser tree
//! ([`crate::merge::select`]) — is the right tournament here because run
//! formation inserts whole input pages *between* pop streaks: a loser tree
//! only supports replaying its current winner, while this heap takes
//! unpaired O(log n) inserts in stride.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use std::collections::VecDeque;

use crate::budget::MemoryBudget;
use crate::config::{PageLayout, SortConfig};
use crate::env::{CpuOp, SortEnv};
use crate::error::SortResult;
use crate::input::InputSource;
use crate::order::SortOrder;
use crate::store::{RunDirection, RunId, RunStore};
use crate::tuple::{paginate_with, Tuple};

use super::SplitStats;

/// Compact heap entry: `(run_no, composite, slot)`, popped smallest-first
/// through [`Reverse`]. Ordering by (run number, composite) keeps the current
/// run's smallest tuple on top while next-run tuples sink below every
/// current-run one; the slot index breaks ties deterministically and locates
/// the tuple in the arena. The *composite* is the configured [`SortOrder`]'s
/// comparison value (`rank << 64 | tie_rank` — the tie half is zero except
/// for long normalized keys), so descending, custom-key and normalized-key
/// sorts all use the same heap.
type Entry = (u32, u128, u32);

/// The tuple arena behind the selection heap: slots are allocated on insert,
/// emptied on pop, and recycled through a free list so the arena's footprint
/// tracks the heap's population instead of growing without bound.
#[derive(Default)]
struct Arena {
    slots: Vec<Option<Tuple>>,
    free: Vec<u32>,
    live: usize,
}

impl Arena {
    fn insert(&mut self, tuple: Tuple) -> u32 {
        self.live += 1;
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(tuple);
                slot
            }
            None => {
                self.slots.push(Some(tuple));
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn take(&mut self, slot: u32) -> Tuple {
        self.live -= 1;
        self.free.push(slot);
        self.slots[slot as usize]
            .take()
            .expect("heap entry pointed at an empty arena slot")
    }
}

/// How the block-write size is chosen.
#[derive(Clone, Copy, Debug)]
enum BlockPolicy {
    /// A fixed number of pages per block write (`replN`).
    Fixed(usize),
    /// Track the current memory allocation: block ≈ target / 6, clamped to
    /// `[min, max]` pages (the paper's future-work extension).
    Adaptive { min: usize, max: usize },
}

impl BlockPolicy {
    fn block_pages(&self, target_pages: usize) -> usize {
        match *self {
            BlockPolicy::Fixed(n) => n.max(1),
            BlockPolicy::Adaptive { min, max } => (target_pages / 6).clamp(min.max(1), max.max(1)),
        }
    }
}

struct State<'a, S: RunStore> {
    store: &'a mut S,
    tpp: usize,
    block_tuples: usize,
    order: SortOrder,
    layout: PageLayout,
    heap: BinaryHeap<Reverse<Entry>>,
    arena: Arena,
    out_buf: Vec<Tuple>,
    current_run_no: u32,
    current_run_id: Option<RunId>,
    /// Composite key of the last tuple written to the current run.
    last_out: Option<u128>,
}

impl<'a, S: RunStore> State<'a, S> {
    fn in_memory_tuples(&self) -> usize {
        self.arena.live + self.out_buf.len()
    }

    fn in_memory_pages(&self) -> usize {
        self.in_memory_tuples().div_ceil(self.tpp)
    }

    /// Flush the output buffer (whatever it currently holds) as one block
    /// write to the current run.
    fn flush<E: SortEnv>(
        &mut self,
        env: &mut E,
        budget: &MemoryBudget,
        stats: &mut SplitStats,
    ) -> SortResult<()> {
        if self.out_buf.is_empty() {
            return Ok(());
        }
        let run = match self.current_run_id {
            Some(run) => run,
            None => {
                let run = self.store.create_run()?;
                self.current_run_id = Some(run);
                run
            }
        };
        let tuples = std::mem::take(&mut self.out_buf);
        env.charge_cpu(CpuOp::StartIo, 1);
        let pages = paginate_with(tuples, self.tpp, self.layout);
        stats.pages_written += pages.len();
        stats.block_writes += 1;
        self.store.append_block(run, pages)?;
        // The flushed buffers become available as soon as the block write
        // completes; unlike Quicksort, only as many pages as necessary are
        // written, which keeps replacement selection's delays short.
        budget.record_held(self.in_memory_pages(), env.now());
        Ok(())
    }

    /// Close the current run (flushing any buffered remainder first).
    fn close_run<E: SortEnv>(
        &mut self,
        env: &mut E,
        budget: &MemoryBudget,
        stats: &mut SplitStats,
    ) -> SortResult<()> {
        self.flush(env, budget, stats)?;
        if let Some(run) = self.current_run_id.take() {
            stats.runs.push(self.store.meta(run));
        }
        self.current_run_no += 1;
        self.last_out = None;
        Ok(())
    }

    /// Pop tuples of the current run into the output buffer until either the
    /// block is full, a run boundary is reached, or the heap is empty.
    /// Returns `true` if a run boundary was hit.
    fn emit<E: SortEnv>(&mut self, env: &mut E) -> bool {
        self.emit_up_to(env, self.block_tuples)
    }

    /// Like [`emit`](Self::emit) but with an explicit output-buffer limit;
    /// used when shedding memory, where the whole excess is popped before a
    /// single (asynchronous) block write is issued.
    fn emit_up_to<E: SortEnv>(&mut self, env: &mut E, limit_tuples: usize) -> bool {
        while self.out_buf.len() < limit_tuples {
            match self.heap.peek() {
                Some(Reverse((run_no, key, slot))) if *run_no == self.current_run_no => {
                    let (key, slot) = (*key, *slot);
                    self.heap.pop();
                    env.charge_cpu(CpuOp::HeapRemove, 1);
                    env.charge_cpu(CpuOp::CopyTuple, 1);
                    self.last_out = Some(key);
                    self.out_buf.push(self.arena.take(slot));
                }
                Some(_) => return true, // only next-run tuples remain
                None => return false,
            }
        }
        false
    }

    fn insert_page<E: SortEnv>(&mut self, env: &mut E, page: crate::tuple::Page) {
        env.charge_cpu(CpuOp::StartIo, 1);
        env.charge_cpu(CpuOp::HeapInsert, page.len() as u64);
        for tuple in page.into_tuples() {
            // Composite computed once per tuple (one `SortOrder` dispatch);
            // every later heap comparison reads the cached value from the
            // entry.
            let key = self.order.composite_of(&tuple);
            let run_no = match self.last_out {
                Some(last) if key < last => self.current_run_no + 1,
                _ => self.current_run_no,
            };
            let slot = self.arena.insert(tuple);
            self.heap.push(Reverse((run_no, key, slot)));
        }
    }
}

/// Execute the split phase with replacement selection and `block_pages`-page
/// block writes.
pub fn form_runs<S, I, E>(
    cfg: &SortConfig,
    budget: &MemoryBudget,
    input: &mut I,
    store: &mut S,
    env: &mut E,
    block_pages: usize,
) -> SortResult<SplitStats>
where
    S: RunStore,
    I: InputSource,
    E: SortEnv,
{
    form_runs_impl(
        cfg,
        budget,
        input,
        store,
        env,
        BlockPolicy::Fixed(block_pages),
    )
}

/// Execute the split phase with replacement selection whose block-write size
/// tracks the current memory allocation (the paper's future-work extension,
/// §7): roughly one sixth of the current target, clamped to
/// `[min_block, max_block]` pages.
pub fn form_runs_adaptive<S, I, E>(
    cfg: &SortConfig,
    budget: &MemoryBudget,
    input: &mut I,
    store: &mut S,
    env: &mut E,
    min_block: usize,
    max_block: usize,
) -> SortResult<SplitStats>
where
    S: RunStore,
    I: InputSource,
    E: SortEnv,
{
    form_runs_impl(
        cfg,
        budget,
        input,
        store,
        env,
        BlockPolicy::Adaptive {
            min: min_block,
            max: max_block.max(min_block),
        },
    )
}

fn form_runs_impl<S, I, E>(
    cfg: &SortConfig,
    budget: &MemoryBudget,
    input: &mut I,
    store: &mut S,
    env: &mut E,
    policy: BlockPolicy,
) -> SortResult<SplitStats>
where
    S: RunStore,
    I: InputSource,
    E: SortEnv,
{
    let tpp = cfg.tuples_per_page();
    let mut stats = SplitStats {
        started_at: env.now(),
        ..SplitStats::default()
    };
    let mut st = State {
        store,
        tpp,
        block_tuples: policy.block_pages(budget.target().max(1)) * tpp,
        order: cfg.order.clone(),
        layout: cfg.layout,
        heap: BinaryHeap::new(),
        arena: Arena::default(),
        out_buf: Vec::new(),
        current_run_no: 0,
        current_run_id: None,
        last_out: None,
    };
    budget.record_held(0, env.now());

    let mut exhausted = false;
    loop {
        env.poll(budget);
        if budget.is_cancelled() {
            budget.record_held(0, env.now());
            return Err(crate::error::SortError::Cancelled);
        }
        let target = budget.target().max(1);
        // Under the adaptive policy the block size follows the allocation.
        st.block_tuples = policy.block_pages(target) * tpp;
        let cap_tuples = target * tpp;
        let in_mem = st.in_memory_tuples();

        // --------------------------------------------------------------
        // Memory shortage: shed pages by emitting and flushing blocks until
        // the holding fits the new target (or nothing is left to shed).
        // Unlike Quicksort, only as much as necessary is written out.
        // --------------------------------------------------------------
        if in_mem > cap_tuples {
            stats.shrink_events += 1;
            while st.in_memory_tuples() > cap_tuples {
                // Pop the whole excess (CPU work only), then issue one block
                // write for it; the freed buffers are handed back as soon as
                // the write is issued.
                let excess = st.in_memory_tuples() - cap_tuples;
                let boundary = st.emit_up_to(env, st.out_buf.len() + excess);
                if !st.out_buf.is_empty() {
                    st.flush(env, budget, &mut stats)?;
                }
                if boundary {
                    st.close_run(env, budget, &mut stats)?;
                } else if st.heap.is_empty() {
                    break;
                }
            }
            budget.record_held(st.in_memory_pages(), env.now());
            continue;
        }

        // --------------------------------------------------------------
        // Absorb the next input page if it fits in the current target.
        // --------------------------------------------------------------
        if !exhausted && in_mem + tpp <= cap_tuples {
            match input.next_page()? {
                Some(page) => {
                    stats.pages_read += 1;
                    st.insert_page(env, page);
                    budget.record_held(st.in_memory_pages(), env.now());
                }
                None => exhausted = true,
            }
            continue;
        }

        // --------------------------------------------------------------
        // Memory is full (steady state) or the input is exhausted: emit.
        // --------------------------------------------------------------
        if st.heap.is_empty() {
            if exhausted {
                st.close_run(env, budget, &mut stats)?;
                break;
            }
            // Heap empty but a residual output buffer blocks the next page:
            // flush it and retry.
            if !st.out_buf.is_empty() {
                st.flush(env, budget, &mut stats)?;
            }
            continue;
        }

        let boundary = st.emit(env);
        if st.out_buf.len() >= st.block_tuples {
            st.flush(env, budget, &mut stats)?;
            budget.record_held(st.in_memory_pages(), env.now());
        } else if boundary {
            st.close_run(env, budget, &mut stats)?;
            budget.record_held(st.in_memory_pages(), env.now());
        } else {
            // Heap ran dry before filling a block; flush what we have so the
            // next input page can be absorbed.
            st.flush(env, budget, &mut stats)?;
            budget.record_held(st.in_memory_pages(), env.now());
        }
    }

    budget.record_held(0, env.now());
    stats.finished_at = env.now();
    Ok(stats)
}

// ---------------------------------------------------------------------------
// Natural-run (up/down) replacement selection — `RunFormation::NaturalSelect`
// ---------------------------------------------------------------------------
//
// The formation below keeps the classic algorithm's memory discipline (same
// arena, same fixed block size, same shedding) but changes *what a run is* in
// two ways:
//
// 1. **Trend-driven run directions**: each run is formed either ascending
//    (`Up`) or descending (`Down`), and the direction *follows the input*.
//    Run 0's direction is sniffed from the first input page; every later
//    run's direction is chosen from decayed ascending/descending arrival-
//    pair counters — descending-majority input gets `Down` runs, anything
//    else gets `Up`, so random and presorted input degenerate to the
//    classic one-directional algorithm (with its ~2·M expected run length)
//    while reversed input forms maximal descending runs. All selection
//    happens in a per-run *comparison space* — `cmp = composite` for
//    ascending runs and `cmp = !composite` for descending ones (bitwise NOT
//    is an order-reversing bijection on `u128`) — so the heap, the
//    `last_out` tagging rule and the emission order are direction-blind. A
//    descending run is written exactly as emitted (ranks physically
//    descending) and tagged [`RunDirection::Reversed`]; the merge reads it
//    back-to-front. Heap entries are immutable, so run r+1's direction must
//    be fixed when its first tuple is tagged — i.e. at the *start* of run r.
//    The policy therefore reacts to a trend reversal with one run of lag
//    (one memory-sized "lag run" at each direction change), which is
//    amortized away whenever ordered stretches are longer than memory.
//
// 2. **Natural-run detection** (the tail queue): tuples that continue the
//    input's current streak — `cmp` at least the tail's last value — append
//    to a FIFO in O(1) instead of paying two O(log M) heap operations. The
//    tail is an *independent* ascending sequence, not an extension of the
//    heap: emission pops the smaller of (heap top, tail front), and merging
//    two ascending streams keeps the output globally non-decreasing in
//    `cmp`. A tuple that breaks the streak first evicts up to
//    [`SPIKE_EVICT_LIMIT`] tail-tip elements into the heap — so an isolated
//    out-of-place "spike" costs one heap insert instead of ending the
//    streak — and falls back to the heap itself on a deeper break. Every
//    element pays at most one heap round-trip, exactly like the classic
//    algorithm, so random input stays at parity; on presorted, reversed or
//    clustered input almost every tuple takes the O(1) path, which is where
//    the measured speedups come from.

/// The direction of the run currently being formed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RunDir {
    Up,
    Down,
}

impl RunDir {
    /// Map a composite sort key into this run's comparison space. Bitwise NOT
    /// is an order-reversing bijection on `u128`, so descending runs reuse
    /// the ascending heap unchanged.
    fn cmp_of(self, composite: u128) -> u128 {
        match self {
            RunDir::Up => composite,
            RunDir::Down => !composite,
        }
    }

    fn meta(self) -> RunDirection {
        match self {
            RunDir::Up => RunDirection::Forward,
            RunDir::Down => RunDirection::Reversed,
        }
    }
}

struct OrderedState<'a, S: RunStore> {
    store: &'a mut S,
    tpp: usize,
    block_tuples: usize,
    order: SortOrder,
    layout: PageLayout,
    heap: BinaryHeap<Reverse<Entry>>,
    arena: Arena,
    /// Natural-run FIFO: the `(cmp, tuple)` ascending streak currently being
    /// detected at the input frontier, merged with the heap at emission.
    tail: VecDeque<(u128, Tuple)>,
    out_buf: Vec<Tuple>,
    current_run_no: u32,
    current_run_id: Option<RunId>,
    dir: RunDir,
    /// The direction the *next* run will sort in. Fixed at the start of the
    /// current run, because next-run heap entries are tagged in this space
    /// as they arrive and heap entries are immutable.
    next_dir: RunDir,
    dir_fixed: bool,
    /// Comparison-space value of the last tuple written to the current run.
    last_out: Option<u128>,
    /// Composite value of the previous input tuple — the reference point for
    /// the ascending/descending arrival-trend counters.
    last_composite: Option<u128>,
    /// Decayed count of ascending adjacent arrivals (halved once per input
    /// page, so the trend reflects the last couple of pages).
    up_pairs: u64,
    /// Decayed count of descending adjacent arrivals.
    down_pairs: u64,
    /// Tuples in the streak the tail is currently detecting. Unlike
    /// `tail.len()` this survives emission draining the front, so a streak
    /// is counted as a *natural run* exactly once — when it reaches one
    /// page. Reset whenever the streak breaks.
    streak_len: usize,
    /// Comparison value of the previous input tuple (current-run space),
    /// regardless of where it was routed — the reference point for
    /// arrival-order streak detection.
    last_in: Option<u128>,
    /// Consecutive ascending arrivals ending at the previous tuple. An empty
    /// tail only engages once this reaches [`STREAK_ENGAGE`], so random
    /// input (short arrival streaks) skips the tail entirely and pays just
    /// one comparison per tuple over the classic algorithm.
    arrival_streak: usize,
}

/// Ascending arrivals required before an empty tail engages. `2^-8` of
/// random pairs reach it (spurious engagement is negligible) while any
/// genuinely presorted stretch sails past it within a page.
const STREAK_ENGAGE: usize = 8;

/// How many tail-tip elements a streak-breaking tuple may push into the heap
/// before the tuple itself takes the heap path instead. One is enough for an
/// isolated out-of-place tuple; a small budget also absorbs short stutters
/// without letting a genuinely descending stretch churn the tail.
const SPIKE_EVICT_LIMIT: usize = 4;

impl<'a, S: RunStore> OrderedState<'a, S> {
    fn in_memory_tuples(&self) -> usize {
        self.arena.live + self.tail.len() + self.out_buf.len()
    }

    fn in_memory_pages(&self) -> usize {
        self.in_memory_tuples().div_ceil(self.tpp)
    }

    /// True when nothing of any run remains buffered in the selection
    /// structures (the heap may still hold next-run entries otherwise).
    fn selection_empty(&self) -> bool {
        self.heap.is_empty() && self.tail.is_empty()
    }

    /// Sniff run 0's direction from the first input page: count ascending vs
    /// descending adjacent rank pairs and start descending when the input
    /// leans that way. The direction must be fixed before any tuple is
    /// tagged, because heap entries are immutable once pushed.
    fn sniff_direction(&mut self, tuples: &[Tuple]) {
        self.dir_fixed = true;
        let (mut up, mut down) = (0usize, 0usize);
        let mut prev: Option<u128> = None;
        for t in tuples {
            let c = self.order.composite_of(t);
            if let Some(p) = prev {
                if c >= p {
                    up += 1;
                } else {
                    down += 1;
                }
            }
            prev = Some(c);
        }
        if down > up {
            self.dir = RunDir::Down;
        }
        // Until the first close there is no better signal for the next
        // run's space than run 0's own direction.
        self.next_dir = self.dir;
    }

    fn push_next_run<E: SortEnv>(&mut self, env: &mut E, cmp_next: u128, tuple: Tuple) {
        env.charge_cpu(CpuOp::HeapInsert, 1);
        let slot = self.arena.insert(tuple);
        self.heap
            .push(Reverse((self.current_run_no + 1, cmp_next, slot)));
    }

    fn insert_page<E: SortEnv>(
        &mut self,
        env: &mut E,
        page: crate::tuple::Page,
        stats: &mut SplitStats,
    ) {
        env.charge_cpu(CpuOp::StartIo, 1);
        let tuples = page.into_tuples();
        if !self.dir_fixed {
            self.sniff_direction(&tuples);
        }
        // Halve the trend counters once per page so the direction decision
        // reflects the last couple of pages, not the whole run.
        self.up_pairs >>= 1;
        self.down_pairs >>= 1;
        for tuple in tuples {
            let composite = self.order.composite_of(&tuple);
            if let Some(prev) = self.last_composite {
                if composite >= prev {
                    self.up_pairs += 1;
                } else {
                    self.down_pairs += 1;
                }
            }
            self.last_composite = Some(composite);
            let cmp = self.dir.cmp_of(composite);
            // Arrival-order streak tracking happens before routing so every
            // tuple — heap, tail or next-run — advances or breaks it.
            if self.last_in.is_some_and(|p| cmp < p) {
                self.arrival_streak = 0;
            } else {
                self.arrival_streak += 1;
            }
            self.last_in = Some(cmp);
            if matches!(self.last_out, Some(last) if cmp < last) {
                // Belongs to the next run, tagged in that run's (already
                // fixed) comparison space.
                self.push_next_run(env, self.next_dir.cmp_of(composite), tuple);
                continue;
            }
            // A streak-breaking tuple may evict a bounded number of
            // tail-tip "spikes" into the heap: an isolated out-of-place
            // tuple then costs one heap insert instead of ending the streak.
            let mut evicted = 0;
            while evicted < SPIKE_EVICT_LIMIT {
                match self.tail.back() {
                    Some(&(tail_last, _)) if cmp < tail_last => {
                        let (spike_cmp, spike) = self.tail.pop_back().expect("peeked");
                        env.charge_cpu(CpuOp::HeapInsert, 1);
                        let slot = self.arena.insert(spike);
                        self.heap
                            .push(Reverse((self.current_run_no, spike_cmp, slot)));
                        // The spike took the heap path after all.
                        stats.natural_tuples = stats.natural_tuples.saturating_sub(1);
                        self.streak_len = self.streak_len.saturating_sub(1);
                        evicted += 1;
                    }
                    _ => break,
                }
            }
            let continues_streak = match self.tail.back() {
                Some(&(tail_last, _)) => cmp >= tail_last,
                // Empty tail: current-run membership (`cmp ≥ last_out`) is
                // already established, but engage only for a proven arrival
                // streak — random input must not churn through the tail.
                None => self.arrival_streak >= STREAK_ENGAGE,
            };
            if continues_streak {
                // Natural-run fast path: O(1), no heap traffic.
                stats.natural_tuples += 1;
                self.streak_len += 1;
                if self.streak_len == self.tpp {
                    // A streak one page long counts as a detected natural
                    // run (shorter fragments are heap noise).
                    stats.natural_runs += 1;
                }
                env.charge_cpu(CpuOp::CopyTuple, 1);
                self.tail.push_back((cmp, tuple));
                continue;
            }
            self.streak_len = 0;
            env.charge_cpu(CpuOp::HeapInsert, 1);
            let slot = self.arena.insert(tuple);
            self.heap.push(Reverse((self.current_run_no, cmp, slot)));
        }
    }

    /// Pop the smallest current-run tuple (comparison space): the smaller of
    /// the heap's top and the tail's front. The heap's current-run prefix
    /// and the tail are each ascending in `cmp`, and a merge of two
    /// ascending streams is ascending — so emission stays non-decreasing
    /// without any cross-structure invariant.
    fn pop_current<E: SortEnv>(&mut self, env: &mut E) -> Option<(u128, Tuple)> {
        let heap_cur = match self.heap.peek() {
            Some(&Reverse((run_no, cmp, _))) if run_no == self.current_run_no => Some(cmp),
            _ => None,
        };
        let tail_front = self.tail.front().map(|&(cmp, _)| cmp);
        match (heap_cur, tail_front) {
            (Some(h), t) if t.is_none_or(|t| h <= t) => {
                let Some(Reverse((_, cmp, slot))) = self.heap.pop() else {
                    unreachable!("peeked a current-run entry");
                };
                env.charge_cpu(CpuOp::HeapRemove, 1);
                Some((cmp, self.arena.take(slot)))
            }
            (_, Some(_)) => self.tail.pop_front(),
            (_, None) => None,
        }
    }

    fn emit<E: SortEnv>(&mut self, env: &mut E) -> bool {
        self.emit_up_to(env, self.block_tuples)
    }

    /// Mirror of [`State::emit_up_to`]: pop current-run tuples into the
    /// output buffer up to `limit_tuples`; `true` means a run boundary.
    fn emit_up_to<E: SortEnv>(&mut self, env: &mut E, limit_tuples: usize) -> bool {
        while self.out_buf.len() < limit_tuples {
            match self.pop_current(env) {
                Some((cmp, tuple)) => {
                    env.charge_cpu(CpuOp::CopyTuple, 1);
                    self.last_out = Some(cmp);
                    self.out_buf.push(tuple);
                }
                // Only next-run tuples remain (boundary), or nothing at all.
                None => return !self.heap.is_empty(),
            }
        }
        false
    }

    fn flush<E: SortEnv>(
        &mut self,
        env: &mut E,
        budget: &MemoryBudget,
        stats: &mut SplitStats,
    ) -> SortResult<()> {
        if self.out_buf.is_empty() {
            return Ok(());
        }
        let run = match self.current_run_id {
            Some(run) => run,
            None => {
                let run = self.store.create_run()?;
                self.current_run_id = Some(run);
                run
            }
        };
        let tuples = std::mem::take(&mut self.out_buf);
        env.charge_cpu(CpuOp::StartIo, 1);
        let pages = paginate_with(tuples, self.tpp, self.layout);
        stats.pages_written += pages.len();
        stats.block_writes += 1;
        self.store.append_block(run, pages)?;
        budget.record_held(self.in_memory_pages(), env.now());
        Ok(())
    }

    fn close_run<E: SortEnv>(
        &mut self,
        env: &mut E,
        budget: &MemoryBudget,
        stats: &mut SplitStats,
    ) -> SortResult<()> {
        self.flush(env, budget, stats)?;
        if let Some(run) = self.current_run_id.take() {
            // The store only tracks sizes; the direction is ours to record.
            let mut meta = self.store.meta(run);
            meta.dir = self.dir.meta();
            env.trace().emit(masort_trace::EventKind::RunEmit {
                run: run.into(),
                tuples: meta.tuples as u64,
                reversed: meta.dir == RunDirection::Reversed,
            });
            stats.runs.push(meta);
        }
        self.current_run_no += 1;
        // The next run's space was fixed when its first tuple was tagged;
        // what the arrival trend decides *now* is the direction of the run
        // after it (one-run lag, see the module comment).
        self.dir = self.next_dir;
        self.next_dir = if self.down_pairs > self.up_pairs {
            RunDir::Down
        } else {
            RunDir::Up
        };
        self.last_out = None;
        self.streak_len = 0;
        // The comparison space may have changed; arrival history is stale.
        self.last_in = None;
        self.arrival_streak = 0;
        Ok(())
    }
}

/// Execute the split phase with natural-run (up/down) replacement selection
/// and `block_pages`-page block writes
/// ([`RunFormation::NaturalSelect`](crate::config::RunFormation::NaturalSelect)).
pub fn form_runs_ordered<S, I, E>(
    cfg: &SortConfig,
    budget: &MemoryBudget,
    input: &mut I,
    store: &mut S,
    env: &mut E,
    block_pages: usize,
) -> SortResult<SplitStats>
where
    S: RunStore,
    I: InputSource,
    E: SortEnv,
{
    let tpp = cfg.tuples_per_page();
    let mut stats = SplitStats {
        started_at: env.now(),
        ..SplitStats::default()
    };
    let mut st = OrderedState {
        store,
        tpp,
        block_tuples: block_pages.max(1) * tpp,
        order: cfg.order.clone(),
        layout: cfg.layout,
        heap: BinaryHeap::new(),
        arena: Arena::default(),
        tail: VecDeque::new(),
        out_buf: Vec::new(),
        current_run_no: 0,
        current_run_id: None,
        dir: RunDir::Up,
        next_dir: RunDir::Up,
        dir_fixed: false,
        last_out: None,
        last_composite: None,
        up_pairs: 0,
        down_pairs: 0,
        streak_len: 0,
        last_in: None,
        arrival_streak: 0,
    };
    budget.record_held(0, env.now());

    let mut exhausted = false;
    loop {
        env.poll(budget);
        if budget.is_cancelled() {
            budget.record_held(0, env.now());
            return Err(crate::error::SortError::Cancelled);
        }
        let cap_tuples = budget.target().max(1) * tpp;
        let in_mem = st.in_memory_tuples();

        // Memory shortage: shed exactly the excess, as the classic path does.
        if in_mem > cap_tuples {
            stats.shrink_events += 1;
            while st.in_memory_tuples() > cap_tuples {
                let excess = st.in_memory_tuples() - cap_tuples;
                let boundary = st.emit_up_to(env, st.out_buf.len() + excess);
                if !st.out_buf.is_empty() {
                    st.flush(env, budget, &mut stats)?;
                }
                if boundary {
                    st.close_run(env, budget, &mut stats)?;
                } else if st.selection_empty() {
                    break;
                }
            }
            budget.record_held(st.in_memory_pages(), env.now());
            continue;
        }

        // Absorb the next input page if it fits in the current target.
        if !exhausted && in_mem + tpp <= cap_tuples {
            match input.next_page()? {
                Some(page) => {
                    stats.pages_read += 1;
                    st.insert_page(env, page, &mut stats);
                    budget.record_held(st.in_memory_pages(), env.now());
                }
                None => exhausted = true,
            }
            continue;
        }

        // Memory full (steady state) or input exhausted: emit.
        if st.selection_empty() {
            if exhausted {
                st.close_run(env, budget, &mut stats)?;
                break;
            }
            if !st.out_buf.is_empty() {
                st.flush(env, budget, &mut stats)?;
            }
            continue;
        }

        let boundary = st.emit(env);
        if st.out_buf.len() >= st.block_tuples {
            st.flush(env, budget, &mut stats)?;
            budget.record_held(st.in_memory_pages(), env.now());
        } else if boundary {
            st.close_run(env, budget, &mut stats)?;
            budget.record_held(st.in_memory_pages(), env.now());
        } else {
            st.flush(env, budget, &mut stats)?;
            budget.record_held(st.in_memory_pages(), env.now());
        }
    }

    budget.record_held(0, env.now());
    stats.finished_at = env.now();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::CountingEnv;
    use crate::input::VecSource;
    use crate::store::MemStore;
    use crate::verify::collect_run;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tuples(n: usize, seed: u64) -> Vec<Tuple> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Tuple::synthetic(rng.gen::<u64>(), 256))
            .collect()
    }

    fn split(n_tuples: usize, mem: usize, block: usize) -> (SplitStats, MemStore) {
        let cfg = SortConfig::default().with_memory_pages(mem);
        let budget = MemoryBudget::new(mem);
        let mut input = VecSource::from_tuples(random_tuples(n_tuples, 7), cfg.tuples_per_page());
        let mut store = MemStore::new();
        let mut env = CountingEnv::new();
        let stats = form_runs(&cfg, &budget, &mut input, &mut store, &mut env, block).unwrap();
        (stats, store)
    }

    #[test]
    fn produces_sorted_runs_covering_all_tuples() {
        let n = 32 * 50;
        let (stats, mut store) = split(n, 8, 6);
        let mut total = 0;
        for r in &stats.runs {
            let t = collect_run(&mut store, r.id).unwrap();
            assert!(t.windows(2).all(|w| w[0].key <= w[1].key));
            total += t.len();
        }
        assert_eq!(total, n);
    }

    #[test]
    fn block_writes_issue_fewer_write_operations() {
        let n = 32 * 60;
        let (s1, _) = split(n, 8, 1);
        let (s6, _) = split(n, 8, 6);
        assert!(s6.block_writes * 3 < s1.block_writes);
        assert_eq!(s1.total_tuples(), n);
        assert_eq!(s6.total_tuples(), n);
    }

    #[test]
    fn shrink_mid_split_frees_memory_and_records_event() {
        let cfg = SortConfig::default().with_memory_pages(8);
        let tpp = cfg.tuples_per_page();
        let budget = MemoryBudget::new(8);
        let mut input = VecSource::from_tuples(random_tuples(32 * 30, 3), tpp);
        let mut store = MemStore::new();

        // An env that shrinks the budget to a single page once the clock passes 0.05 s.
        struct ShrinkingEnv {
            clock: f64,
            fired: bool,
        }
        impl SortEnv for ShrinkingEnv {
            fn now(&self) -> f64 {
                self.clock
            }
            fn charge_cpu(&mut self, _op: CpuOp, count: u64) {
                self.clock += count as f64 * 1e-4;
            }
            fn poll(&mut self, budget: &MemoryBudget) {
                if !self.fired && self.clock > 0.05 {
                    self.fired = true;
                    budget.set_target(1, self.clock);
                }
            }
            fn wait_for_pages(&mut self, _b: &MemoryBudget, _p: usize) -> bool {
                true
            }
        }
        let mut env = ShrinkingEnv {
            clock: 0.0,
            fired: false,
        };
        let stats = form_runs(&cfg, &budget, &mut input, &mut store, &mut env, 6).unwrap();
        assert!(env.fired);
        assert!(stats.shrink_events >= 1);
        assert_eq!(stats.total_tuples(), 32 * 30);
        // The shortage must have been satisfied (delay recorded, none pending).
        assert!(!budget.shrink_pending());
        assert!(budget.delay_count() >= 1);
    }

    #[test]
    fn runs_longer_than_memory_on_random_input() {
        let (stats, _) = split(32 * 80, 10, 1);
        assert!(stats.avg_run_pages() > 10.0 * 1.4);
    }

    #[test]
    fn degenerate_block_equal_to_memory_behaves_like_load_sort_store() {
        // When the block size equals the memory size the benefit of
        // replacement selection is lost: run length ≈ number of buffers
        // (paper §2.1).
        let (stats, _) = split(32 * 64, 8, 8);
        assert!(
            stats.avg_run_pages() < 12.0,
            "avg run pages {} should collapse towards memory size",
            stats.avg_run_pages()
        );
    }

    #[test]
    fn adaptive_block_produces_sorted_runs_and_scales_block_size() {
        let n = 32 * 60;
        let cfg_small = SortConfig::default().with_memory_pages(6);
        let cfg_big = SortConfig::default().with_memory_pages(60);
        let run = |cfg: &SortConfig| {
            let budget = MemoryBudget::new(cfg.memory_pages);
            let mut input = VecSource::from_tuples(random_tuples(n, 5), cfg.tuples_per_page());
            let mut store = MemStore::new();
            let mut env = CountingEnv::new();
            let stats =
                form_runs_adaptive(cfg, &budget, &mut input, &mut store, &mut env, 1, 32).unwrap();
            (stats, store)
        };
        let (small, mut small_store) = run(&cfg_small);
        let (big, mut big_store) = run(&cfg_big);
        assert_eq!(small.total_tuples(), n);
        assert_eq!(big.total_tuples(), n);
        for r in &small.runs {
            assert!(collect_run(&mut small_store, r.id)
                .unwrap()
                .windows(2)
                .all(|w| w[0].key <= w[1].key));
        }
        for r in &big.runs {
            assert!(collect_run(&mut big_store, r.id)
                .unwrap()
                .windows(2)
                .all(|w| w[0].key <= w[1].key));
        }
        // With 60 pages of memory the adaptive policy writes ~10-page blocks,
        // so it needs far fewer block writes per page written than with 6.
        let small_ratio = small.pages_written as f64 / small.block_writes as f64;
        let big_ratio = big.pages_written as f64 / big.block_writes as f64;
        assert!(
            big_ratio > small_ratio * 2.0,
            "bigger memory should mean bigger blocks ({big_ratio:.1} vs {small_ratio:.1} pages/write)"
        );
    }

    #[test]
    fn tiny_memory_still_completes() {
        let (stats, mut store) = split(32 * 5, 1, 1);
        assert_eq!(stats.total_tuples(), 32 * 5);
        for r in &stats.runs {
            let t = collect_run(&mut store, r.id).unwrap();
            assert!(t.windows(2).all(|w| w[0].key <= w[1].key));
        }
    }

    // -- natural-run (up/down) formation ---------------------------------

    fn split_ordered(tuples: Vec<Tuple>, mem: usize, block: usize) -> (SplitStats, MemStore) {
        let cfg = SortConfig::default().with_memory_pages(mem);
        let budget = MemoryBudget::new(mem);
        let mut input = VecSource::from_tuples(tuples, cfg.tuples_per_page());
        let mut store = MemStore::new();
        let mut env = CountingEnv::new();
        let stats =
            form_runs_ordered(&cfg, &budget, &mut input, &mut store, &mut env, block).unwrap();
        (stats, store)
    }

    /// Every run must be sorted in its recorded direction and the runs
    /// together must cover the input.
    fn assert_directed_runs_cover(stats: &SplitStats, store: &mut MemStore, expect: usize) {
        let mut total = 0;
        for r in &stats.runs {
            let t = collect_run(store, r.id).unwrap();
            match r.dir {
                RunDirection::Forward => {
                    assert!(
                        t.windows(2).all(|w| w[0].key <= w[1].key),
                        "forward run {} not ascending",
                        r.id
                    )
                }
                RunDirection::Reversed => {
                    assert!(
                        t.windows(2).all(|w| w[0].key >= w[1].key),
                        "reversed run {} not descending",
                        r.id
                    )
                }
            }
            assert_eq!(t.len(), r.tuples);
            total += t.len();
        }
        assert_eq!(total, expect, "ordered split lost or duplicated tuples");
    }

    #[test]
    fn ordered_mode_random_input_covers_all_tuples() {
        let n = 32 * 60;
        let (stats, mut store) = split_ordered(random_tuples(n, 7), 8, 6);
        assert_directed_runs_cover(&stats, &mut store, n);
        // On random input the trend policy keeps every run ascending, so
        // expected run length matches classic one-directional replacement
        // selection (~2x memory), comfortably above load-sort-store's 1x.
        assert!(
            stats.avg_run_pages() > 8.0,
            "avg run pages {} too short",
            stats.avg_run_pages()
        );
    }

    #[test]
    fn ordered_mode_presorted_input_is_one_forward_run() {
        let n = 32 * 30;
        let tuples: Vec<Tuple> = (0..n).map(|k| Tuple::synthetic(k as u64, 256)).collect();
        let (stats, mut store) = split_ordered(tuples, 4, 1);
        assert_eq!(stats.run_count(), 1);
        assert_eq!(stats.runs[0].dir, RunDirection::Forward);
        assert!(stats.natural_tuples >= n - 32, "tail path barely used");
        assert_directed_runs_cover(&stats, &mut store, n);
    }

    #[test]
    fn ordered_mode_reversed_input_is_one_reversed_run() {
        // The classic algorithm's worst case (memory-sized runs) becomes a
        // single descending run: direction sniffing picks Down for run 0 and
        // every tuple continues the streak.
        let n = 32 * 30;
        let tuples: Vec<Tuple> = (0..n)
            .rev()
            .map(|k| Tuple::synthetic(k as u64, 256))
            .collect();
        let (stats, mut store) = split_ordered(tuples, 4, 1);
        assert_eq!(stats.run_count(), 1, "reversed input should be one run");
        assert_eq!(stats.runs[0].dir, RunDirection::Reversed);
        assert_directed_runs_cover(&stats, &mut store, n);
    }

    #[test]
    fn ordered_mode_alternating_stretches_use_both_directions() {
        // Up-ramp then down-ramp, repeated, each stretch far longer than
        // memory (128 tuples): the trend policy follows the input with one
        // run of lag at each direction change, so each stretch costs at most
        // one big directed run plus one memory-sized lag run — far fewer
        // than the ~stretch/memory runs of one-directional selection.
        let stretch = 32 * 12;
        let mut tuples = Vec::new();
        for s in 0..4u64 {
            let ramp: Box<dyn Iterator<Item = u64>> = if s % 2 == 0 {
                Box::new(0..stretch)
            } else {
                Box::new((0..stretch).rev())
            };
            tuples.extend(ramp.map(|k| Tuple::synthetic(k, 256)));
        }
        let n = tuples.len();
        let (stats, mut store) = split_ordered(tuples, 4, 1);
        assert_directed_runs_cover(&stats, &mut store, n);
        assert!(
            stats.run_count() <= 10,
            "trend-following runs should absorb each stretch (got {} runs)",
            stats.run_count()
        );
        let reversed = stats
            .runs
            .iter()
            .filter(|r| r.dir == RunDirection::Reversed)
            .count();
        assert!(reversed >= 1, "descending stretches never got a Down run");
        assert!(
            reversed < stats.run_count(),
            "ascending stretches never got an Up run"
        );
    }

    #[test]
    fn ordered_mode_descending_sort_order_is_honoured() {
        // `dir` is relative to the configured order: with a descending
        // SortOrder, a Forward run is descending in raw keys.
        let n = 32 * 20;
        let cfg = SortConfig::default()
            .with_memory_pages(4)
            .with_order(SortOrder::descending());
        let budget = MemoryBudget::new(4);
        let mut input = VecSource::from_tuples(random_tuples(n, 9), cfg.tuples_per_page());
        let mut store = MemStore::new();
        let mut env = CountingEnv::new();
        let stats = form_runs_ordered(&cfg, &budget, &mut input, &mut store, &mut env, 1).unwrap();
        let mut total = 0;
        for r in &stats.runs {
            let t = collect_run(&mut store, r.id).unwrap();
            match r.dir {
                RunDirection::Forward => assert!(t.windows(2).all(|w| w[0].key >= w[1].key)),
                RunDirection::Reversed => assert!(t.windows(2).all(|w| w[0].key <= w[1].key)),
            }
            total += t.len();
        }
        assert_eq!(total, n);
    }

    #[test]
    fn ordered_mode_survives_shrink() {
        let cfg = SortConfig::default().with_memory_pages(8);
        let tpp = cfg.tuples_per_page();
        let budget = MemoryBudget::new(8);
        let mut input = VecSource::from_tuples(random_tuples(32 * 30, 3), tpp);
        let mut store = MemStore::new();
        struct ShrinkingEnv {
            clock: f64,
            fired: bool,
        }
        impl SortEnv for ShrinkingEnv {
            fn now(&self) -> f64 {
                self.clock
            }
            fn charge_cpu(&mut self, _op: CpuOp, count: u64) {
                self.clock += count as f64 * 1e-4;
            }
            fn poll(&mut self, budget: &MemoryBudget) {
                if !self.fired && self.clock > 0.05 {
                    self.fired = true;
                    budget.set_target(1, self.clock);
                }
            }
            fn wait_for_pages(&mut self, _b: &MemoryBudget, _p: usize) -> bool {
                true
            }
        }
        let mut env = ShrinkingEnv {
            clock: 0.0,
            fired: false,
        };
        let stats = form_runs_ordered(&cfg, &budget, &mut input, &mut store, &mut env, 6).unwrap();
        assert!(env.fired);
        assert!(stats.shrink_events >= 1);
        assert_eq!(stats.total_tuples(), 32 * 30);
        assert_directed_runs_cover(&stats, &mut store, 32 * 30);
    }
}
