//! Replacement-selection run formation (`repl1` / `replN`) and its
//! natural-run variant (`natN`).
//!
//! Input tuples are inserted into a priority queue ("the heap" below and in
//! the paper; see *The selection structure*). Once memory is full, tuples
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
//! "The heap" fixes *which* tuple leaves next, not what finds it. Here it is
//! a tournament over **sorted mini-runs** of compact `(run_no, rank, tie,
//! slot)` entries over a [`RecordSlab`]: the composite key (rank, then tie
//! rank — see [`SortOrder::composite`]) is computed once at insertion and the
//! record stays where it was copied. The main loop alternates "absorb N
//! pages" and "emit N pages", so pushes go to an unsorted batch, the first
//! peek or pop after a push streak sorts that batch once into a new mini-run,
//! and pops come off the merge phase's loser tree ([`crate::merge::select`])
//! over the mini-runs' heads — rebuilt when a mini-run is added, replayed per
//! pop. Entries are totally ordered, so the pop sequence is a binary heap's
//! (a test holds it to that) and the simulated `HeapInsert`/`HeapRemove`
//! charges — the paper's cost model — stay where they were; what changed is
//! the cost here: a sift through a 19 400-entry heap was 14 unpredictable
//! levels per record, 24 % of a file → file sort, where a tournament over a
//! few dozen mini-runs is 5. A mini-run is held in chunks, freed as they
//! empty, so popped entries' memory goes back while the mini-run lives, and
//! no batch of entries doubles on its way to one (see `Selection`'s fields).
//! Emission pops a page of slots, touching only entries, then copies their
//! records out in one prefetched gather: the slab outgrows L2 (19 400 slots
//! of 112 B on a 2 MB budget) and is read in key order, random slab order,
//! so a copy without the prefetch waits on a cache miss per record.
//!
//! # Natural runs
//!
//! `natN` keeps the classic algorithm's memory discipline (same slab, same
//! fixed block size, same shedding — one main loop serves both) but changes
//! *what a run is* in two ways:
//!
//! 1. **Trend-driven run directions**: each run is formed either ascending
//!    (`Up`) or descending (`Down`), and the direction *follows the input*.
//!    Run 0's direction is sniffed from the first input page; every later
//!    run's direction is chosen from decayed ascending/descending arrival-
//!    pair counters — descending-majority input gets `Down` runs, anything
//!    else gets `Up`, so random and presorted input degenerate to the
//!    classic one-directional algorithm (with its ~2·M expected run length)
//!    while reversed input forms maximal descending runs. All selection
//!    happens in a per-run *comparison space* — `cmp = composite` for
//!    ascending runs and `cmp = !composite` for descending ones (bitwise NOT
//!    is an order-reversing bijection on `u128`) — so the heap, the
//!    `last_out` tagging rule and the emission order are direction-blind. A
//!    descending run is written exactly as emitted (ranks physically
//!    descending) and tagged [`RunDirection::Reversed`]; the merge reads it
//!    back-to-front. Heap entries are immutable, so run r+1's direction must
//!    be fixed when its first tuple is tagged — i.e. at the *start* of run r.
//!    The policy therefore reacts to a trend reversal with one run of lag
//!    (one memory-sized "lag run" at each direction change), which is
//!    amortized away whenever ordered stretches are longer than memory.
//!
//! 2. **Natural-run detection** (the tail queue): tuples that continue the
//!    input's current streak — `cmp` at least the tail's last value — append
//!    to a FIFO in O(1) instead of paying two O(log M) heap operations. The
//!    tail is an *independent* ascending sequence, not an extension of the
//!    heap: emission pops the smaller of (heap top, tail front), and merging
//!    two ascending streams keeps the output globally non-decreasing in
//!    `cmp`. A tuple that breaks the streak first evicts up to
//!    `SPIKE_EVICT_LIMIT` tail-tip elements into the heap — so an isolated
//!    out-of-place "spike" costs one heap insert instead of ending the
//!    streak — and falls back to the heap itself on a deeper break. Every
//!    element pays at most one heap round-trip, exactly like the classic
//!    algorithm, so random input stays at parity; on presorted, reversed or
//!    clustered input almost every tuple takes the O(1) path, which is where
//!    the measured speedups come from.

use std::collections::VecDeque;

use crate::budget::MemoryBudget;
use crate::config::SortConfig;
use crate::env::{CpuOp, SortEnv};
use crate::error::SortResult;
use crate::input::InputSource;
use crate::layout::RecordSlab;
use crate::merge::select::{LoserTree, SelectKey};
use crate::order::SortOrder;
use crate::store::{RunDirection, RunId, RunStore};
use crate::tuple::Page;

use super::{OutBlock, SplitStats};

/// Selection entry `(run_no, rank, tie, slot)`, popped smallest-first.
/// Ordering by (run number, cmp) keeps the current run's smallest tuple first
/// while next-run tuples sort after every current-run one; the slot index
/// breaks ties deterministically and locates the record in the slab. `rank`
/// and `tie` are the halves of *cmp*: the configured [`SortOrder`]'s
/// composite (`rank << 64 | tie_rank` — the tie half is zero except for long
/// normalized keys) in the run's comparison space, so descending and
/// normalized-key sorts and runs of either direction all select the same
/// way. Kept apart they make the entry 24 bytes; as one `u128` it is 32.
type Entry = (u32, u64, u64, u32);

fn entry(run_no: u32, cmp: u128, slot: u32) -> Entry {
    (run_no, (cmp >> 64) as u64, cmp as u64, slot)
}

impl SelectKey for Entry {
    const EMPTY: Self = (u32::MAX, u64::MAX, u64::MAX, u32::MAX);
}

/// The head of a mini-run (see [`Selection`]'s `minis`).
fn head(mini: &[Vec<Entry>]) -> Option<Entry> {
    mini.last().and_then(|chunk| chunk.last()).copied()
}

/// The selection structure: a priority queue of [`Entry`] made of sorted
/// mini-runs (see the module docs).
#[derive(Default)]
struct Selection {
    /// Entries pushed since the last pop, unsorted, in pieces of a quarter
    /// of `cap` entries each: a batch is never copied into a larger buffer.
    pending: Vec<Vec<Entry>>,
    /// Entries pushed for a run after `run`, unsorted, in pieces likewise:
    /// nothing can pop them before everything else is gone, so they wait,
    /// and are then made one mini-run — the only one a closing run leaves.
    later: Vec<Vec<Entry>>,
    /// The records the memory target holds.
    cap: usize,
    /// The highest run number among `minis` and `pending`.
    run: u32,
    /// The mini-runs: each a batch sorted *descending* and cut into chunks,
    /// so its head is the last entry of its last chunk and a chunk's memory
    /// goes back when its last entry pops. Slot `i` of `tree` is keyed by
    /// `minis[i]`'s head.
    minis: Vec<Vec<Vec<Entry>>>,
    tree: LoserTree<Entry>,
    len: usize,
}

impl Selection {
    fn push(&mut self, entry: Entry) {
        self.len += 1;
        let batch = if entry.0 > self.run {
            &mut self.later
        } else {
            &mut self.pending
        };
        if batch.last().is_none_or(|p| p.len() == p.capacity()) {
            batch.push(Vec::with_capacity(self.cap.div_ceil(4).max(1)));
        }
        batch.last_mut().expect("a piece with room").push(entry);
    }

    /// Sort what was pushed since the last pop into mini-runs, a piece each —
    /// or, with nothing else left, what was pushed for later runs into one.
    fn settle(&mut self) {
        let later = self.pending.is_empty();
        if later && (!self.tree.is_empty() || self.later.is_empty()) {
            return;
        }
        if later {
            std::mem::swap(&mut self.pending, &mut self.later);
        }
        // About sqrt(n) chunks of sqrt(n) entries — to a power of two, so
        // that few sizes are ever asked of the allocator: what a mini-run
        // holds beyond its live entries is less than one chunk.
        let n = self.pending.iter().map(Vec::len).sum::<usize>();
        let chunk = 1 << n.ilog2().div_ceil(2);
        self.minis.retain(|mini| !mini.is_empty());
        for mut piece in std::mem::take(&mut self.pending) {
            piece.sort_unstable_by(|a, b| b.cmp(a));
            self.run = self.run.max(piece[0].0);
            self.minis
                .push(piece.chunks(chunk).map(<[Entry]>::to_vec).collect());
        }
        if later {
            // Nothing else is left: merge the pieces' mini-runs into one,
            // smallest first. A chunk that empties is reused for the merged
            // run if it is whole and freed if not: no entry is held twice.
            let (mut minis, mut spare) = (std::mem::take(&mut self.minis), Vec::new());
            let mut merged: Vec<Vec<Entry>> = Vec::with_capacity(n.div_ceil(chunk));
            for i in 0..n {
                if i % chunk == 0 {
                    merged.push(spare.pop().unwrap_or_else(|| Vec::with_capacity(chunk)));
                }
                let mini = minis.iter_mut().min_by_key(|m| (m.is_empty(), head(m)));
                let mini = mini.expect("a mini-run with the entry");
                let last = mini.last_mut().expect("a chunk with the entry");
                merged[i / chunk].extend(last.pop());
                let emptied = mini.pop_if(|c| c.is_empty());
                spare.extend(emptied.filter(|c| c.capacity() >= chunk));
            }
            merged.iter_mut().for_each(|c| c.reverse());
            merged.reverse();
            self.minis.push(merged);
        }
        let heads = self.minis.iter().map(|mini| head(mini));
        self.tree.rebuild(heads);
    }

    /// The smallest entry.
    fn peek(&mut self) -> Option<Entry> {
        self.settle();
        self.tree.winner().map(|(_, entry)| entry)
    }

    /// Remove and return the smallest entry.
    fn pop(&mut self) -> Option<Entry> {
        self.settle();
        let (slot, entry) = self.tree.winner()?;
        let mini = &mut self.minis[slot];
        let chunk = mini.last_mut().expect("the winning slot has a head");
        chunk.pop();
        if chunk.is_empty() {
            mini.pop();
        }
        self.tree.replay_winner(head(mini));
        self.len -= 1;
        Some(entry)
    }
}

/// How the block-write size is chosen.
#[derive(Clone, Copy, Debug)]
pub enum BlockPolicy {
    /// A fixed number of pages per block write (`replN`, `natN`).
    Fixed(usize),
    /// Track the current memory allocation: block ≈ target / 6, clamped to
    /// 1..=32 pages (`adapt`, the paper's future-work extension, §7).
    Adaptive,
}

impl BlockPolicy {
    fn block_pages(&self, target_pages: usize) -> usize {
        match *self {
            BlockPolicy::Fixed(n) => n.max(1),
            BlockPolicy::Adaptive => {
                (target_pages / 6).clamp(super::ADAPTIVE_MIN_BLOCK, super::ADAPTIVE_MAX_BLOCK)
            }
        }
    }
}

/// The direction of the run currently being formed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum RunDir {
    #[default]
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

/// What natural-run formation tracks on top of the classic state.
#[derive(Default)]
struct Natural {
    /// Natural-run FIFO: the `((rank, tie), slot)` ascending streak currently
    /// being detected at the input frontier, merged with the heap at
    /// emission — *cmp* in halves, 24 bytes an entry as in [`Entry`]. Once a
    /// streak is a page long it is given room for what memory holds.
    tail: VecDeque<((u64, u64), u32)>,
    dir: RunDir,
    /// The direction the *next* run will sort in. Fixed at the start of the
    /// current run, because next-run heap entries are tagged in this space
    /// as they arrive and heap entries are immutable.
    next_dir: RunDir,
    dir_fixed: bool,
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

impl Natural {
    /// Sniff run 0's direction from the first input page: count ascending vs
    /// descending adjacent rank pairs and start descending when the input
    /// leans that way. The direction must be fixed before any tuple is
    /// tagged, because heap entries are immutable once pushed.
    fn sniff_direction(&mut self, composites: &[u128]) {
        self.dir_fixed = true;
        let down = composites.windows(2).filter(|w| w[1] < w[0]).count();
        if down > composites.len().saturating_sub(1) - down {
            self.dir = RunDir::Down;
        }
        // Until the first close there is no better signal for the next
        // run's space than run 0's own direction.
        self.next_dir = self.dir;
    }

    /// The run just closed: move on to the direction fixed for the next one
    /// and choose the one after it.
    fn next_run(&mut self) {
        // The next run's space was fixed when its first tuple was tagged;
        // what the arrival trend decides *now* is the direction of the run
        // after it (one-run lag, see the module comment).
        self.dir = self.next_dir;
        self.next_dir = if self.down_pairs > self.up_pairs {
            RunDir::Down
        } else {
            RunDir::Up
        };
        self.streak_len = 0;
        // The comparison space may have changed; arrival history is stale.
        self.last_in = None;
        self.arrival_streak = 0;
    }
}

struct State<'a, S: RunStore> {
    store: &'a mut S,
    tpp: usize,
    block_tuples: usize,
    order: SortOrder,
    sel: Selection,
    slab: RecordSlab,
    /// Composite keys of the input page being inserted.
    composites: Vec<u128>,
    out: OutBlock,
    /// The slots popped for the page being gathered (one page's worth).
    slots: Vec<u32>,
    current_run_no: u32,
    current_run_id: Option<RunId>,
    /// Comparison-space value of the last tuple written to the current run.
    last_out: Option<u128>,
    /// `Some` under natural-run formation.
    natural: Option<Natural>,
}

impl<'a, S: RunStore> State<'a, S> {
    /// Tuples held: in the slab (heap and tail entries) and in the block
    /// being emitted.
    fn in_memory_tuples(&self) -> usize {
        self.slab.live() + self.out.len()
    }

    fn in_memory_pages(&self) -> usize {
        self.in_memory_tuples().div_ceil(self.tpp)
    }

    /// True when nothing of any run remains buffered in the selection
    /// structures (the block being emitted may still hold tuples).
    fn selection_empty(&self) -> bool {
        self.sel.len == 0 && self.natural.as_ref().is_none_or(|n| n.tail.is_empty())
    }

    /// Flush the block being emitted (whatever it currently holds) as one
    /// block write to the current run.
    fn flush<E: SortEnv>(
        &mut self,
        env: &mut E,
        budget: &MemoryBudget,
        stats: &mut SplitStats,
    ) -> SortResult<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        let run = match self.current_run_id {
            Some(run) => run,
            None => *self.current_run_id.insert(self.store.create_run()?),
        };
        env.charge_cpu(CpuOp::StartIo, 1);
        let pages = self.out.take_pages();
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
            // The store only tracks sizes; the direction is ours to record.
            let mut meta = self.store.meta(run);
            if let Some(natural) = &self.natural {
                meta.dir = natural.dir.meta();
            }
            env.trace().emit(masort_trace::EventKind::RunEmit {
                run: run.into(),
                tuples: meta.tuples as u64,
                reversed: meta.dir == RunDirection::Reversed,
            });
            stats.runs.push(meta);
        }
        self.current_run_no += 1;
        self.last_out = None;
        if let Some(natural) = &mut self.natural {
            natural.next_run();
        }
        Ok(())
    }

    /// Pop the smallest current-run tuple (comparison space): the smaller of
    /// the heap's top and the tail's front. The heap's current-run prefix
    /// and the tail are each ascending in `cmp`, and a merge of two
    /// ascending streams is ascending — so emission stays non-decreasing
    /// without any cross-structure invariant.
    fn pop_current<E: SortEnv>(&mut self, env: &mut E) -> Option<(u128, u32)> {
        let heap_cur = match self.sel.peek() {
            Some((run_no, rank, tie, _)) if run_no == self.current_run_no => {
                Some(SortOrder::composite(rank, tie))
            }
            _ => None,
        };
        let tail = self.natural.as_mut().map(|n| &mut n.tail);
        let tail_front = tail.as_ref().and_then(|t| t.front());
        let tail_front = tail_front.map(|&((rank, tie), _)| SortOrder::composite(rank, tie));
        match (heap_cur, tail_front) {
            (Some(h), t) if t.is_none_or(|t| h <= t) => {
                let (_, _, _, slot) = self.sel.pop().expect("peeked a current-run entry");
                env.charge_cpu(CpuOp::HeapRemove, 1);
                Some((h, slot))
            }
            (_, Some(t)) => tail.and_then(VecDeque::pop_front).map(|(_, s)| (t, s)),
            (_, None) => None,
        }
    }

    /// Pop tuples of the current run into the block being emitted until it
    /// holds `limit_tuples`, a run boundary is reached, or nothing is left to
    /// select. Returns `true` if a run boundary was hit. (The limit is one
    /// block in the steady state; when shedding memory the whole excess is
    /// popped before a single block write is issued.) Each round pops at
    /// most a page of slots, touching only selection entries, then gathers
    /// their records out of the slab.
    fn emit_up_to<E: SortEnv>(&mut self, env: &mut E, limit_tuples: usize) -> bool {
        while self.out.len() < limit_tuples {
            let round = (limit_tuples - self.out.len()).min(self.tpp);
            self.slots.clear();
            while self.slots.len() < round {
                let Some((cmp, slot)) = self.pop_current(env) else {
                    break;
                };
                env.charge_cpu(CpuOp::CopyTuple, 1);
                self.last_out = Some(cmp);
                self.slots.push(slot);
            }
            self.out.gather(&mut self.slab, self.slots.iter().copied());
            // Only next-run tuples remain (boundary), or nothing at all.
            if self.slots.len() < round {
                return self.sel.len > 0;
            }
        }
        false
    }

    fn insert_page<E: SortEnv>(&mut self, env: &mut E, page: Page, stats: &mut SplitStats) {
        env.charge_cpu(CpuOp::StartIo, 1);
        // Composites computed once per tuple (one `SortOrder` dispatch per
        // page); every later heap comparison reads the cached value from the
        // entry.
        self.composites.clear();
        self.order
            .composite_column_into(&page, &mut self.composites);
        if self.natural.is_some() {
            self.insert_natural(env, &page, stats);
            return;
        }
        env.charge_cpu(CpuOp::HeapInsert, page.len() as u64);
        for (i, &key) in self.composites.iter().enumerate() {
            let run_no = match self.last_out {
                Some(last) if key < last => self.current_run_no + 1,
                _ => self.current_run_no,
            };
            let (stored_key, payload) = page.record(i);
            let slot = self.slab.insert(stored_key, payload);
            self.sel.push(entry(run_no, key, slot));
        }
    }

    /// [`insert_page`](Self::insert_page) under natural-run formation: route
    /// each tuple to the next run, the tail or the heap.
    fn insert_natural<E: SortEnv>(&mut self, env: &mut E, page: &Page, stats: &mut SplitStats) {
        let State {
            natural: Some(nat),
            sel,
            slab,
            composites,
            ..
        } = self
        else {
            unreachable!("caller checked the formation is natural");
        };
        let (tpp, current_run_no, last_out) = (self.tpp, self.current_run_no, self.last_out);
        if !nat.dir_fixed {
            nat.sniff_direction(composites);
        }
        // Halve the trend counters once per page so the direction decision
        // reflects the last couple of pages, not the whole run.
        nat.up_pairs >>= 1;
        nat.down_pairs >>= 1;
        for (i, &composite) in composites.iter().enumerate() {
            if let Some(prev) = nat.last_composite {
                if composite >= prev {
                    nat.up_pairs += 1;
                } else {
                    nat.down_pairs += 1;
                }
            }
            nat.last_composite = Some(composite);
            let cmp = nat.dir.cmp_of(composite);
            // Arrival-order streak tracking happens before routing so every
            // tuple — heap, tail or next-run — advances or breaks it.
            if nat.last_in.is_some_and(|p| cmp < p) {
                nat.arrival_streak = 0;
            } else {
                nat.arrival_streak += 1;
            }
            nat.last_in = Some(cmp);
            let (stored_key, payload) = page.record(i);
            if matches!(last_out, Some(last) if cmp < last) {
                // Belongs to the next run, tagged in that run's (already
                // fixed) comparison space.
                env.charge_cpu(CpuOp::HeapInsert, 1);
                let slot = slab.insert(stored_key, payload);
                let cmp_next = nat.next_dir.cmp_of(composite);
                sel.push(entry(current_run_no + 1, cmp_next, slot));
                continue;
            }
            // A streak-breaking tuple may evict a bounded number of
            // tail-tip "spikes" into the heap: an isolated out-of-place
            // tuple then costs one heap insert instead of ending the streak.
            let mut evicted = 0;
            while evicted < SPIKE_EVICT_LIMIT {
                match nat.tail.back() {
                    Some(&((rank, tie), spike)) if cmp < SortOrder::composite(rank, tie) => {
                        nat.tail.pop_back();
                        env.charge_cpu(CpuOp::HeapInsert, 1);
                        sel.push((current_run_no, rank, tie, spike));
                        // The spike took the heap path after all.
                        stats.natural_tuples = stats.natural_tuples.saturating_sub(1);
                        nat.streak_len = nat.streak_len.saturating_sub(1);
                        evicted += 1;
                    }
                    _ => break,
                }
            }
            let continues_streak = match nat.tail.back() {
                Some(&((rank, tie), _)) => cmp >= SortOrder::composite(rank, tie),
                // Empty tail: current-run membership (`cmp ≥ last_out`) is
                // already established, but engage only for a proven arrival
                // streak — random input must not churn through the tail.
                None => nat.arrival_streak >= STREAK_ENGAGE,
            };
            if continues_streak {
                // Natural-run fast path: O(1), no heap traffic.
                stats.natural_tuples += 1;
                nat.streak_len += 1;
                if nat.streak_len == tpp {
                    // A streak one page long counts as a detected natural
                    // run (shorter fragments are heap noise).
                    stats.natural_runs += 1;
                    let room = sel.cap.saturating_sub(nat.tail.len());
                    nat.tail.reserve_exact(room);
                }
                env.charge_cpu(CpuOp::CopyTuple, 1);
                let slot = slab.insert(stored_key, payload);
                nat.tail.push_back((((cmp >> 64) as u64, cmp as u64), slot));
                continue;
            }
            nat.streak_len = 0;
            env.charge_cpu(CpuOp::HeapInsert, 1);
            sel.push(entry(current_run_no, cmp, slab.insert(stored_key, payload)));
        }
    }
}

/// Execute the split phase with replacement selection, writing blocks sized
/// by `block`: the classic algorithm (`replN`, `adapt`), or with `natural`
/// its natural-run variant (`natN`,
/// [`RunFormation::NaturalSelect`](crate::config::RunFormation::NaturalSelect)).
pub fn form_runs<S, I, E>(
    cfg: &SortConfig,
    budget: &MemoryBudget,
    input: &mut I,
    store: &mut S,
    env: &mut E,
    block: BlockPolicy,
    natural: bool,
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
        block_tuples: 0,
        order: cfg.order,
        sel: Selection::default(),
        slab: RecordSlab::new(cfg.record_stride()),
        composites: Vec::new(),
        out: OutBlock::new(cfg.record_stride(), tpp),
        slots: Vec::with_capacity(tpp),
        current_run_no: 0,
        current_run_id: None,
        last_out: None,
        natural: natural.then(Natural::default),
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
        st.block_tuples = block.block_pages(target) * tpp;
        let cap_tuples = target * tpp;
        st.sel.cap = cap_tuples;
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
                let boundary = st.emit_up_to(env, st.out.len() + excess);
                st.flush(env, budget, &mut stats)?;
                if boundary {
                    st.close_run(env, budget, &mut stats)?;
                } else if st.selection_empty() {
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
                    let oversized = page.len() > tpp;
                    st.insert_page(env, page, &mut stats);
                    debug_assert!(
                        oversized || st.slab.live() <= cap_tuples,
                        "the slab outgrew the budget it was filled under"
                    );
                    budget.record_held(st.in_memory_pages(), env.now());
                }
                None => exhausted = true,
            }
            continue;
        }

        // --------------------------------------------------------------
        // Memory is full (steady state) or the input is exhausted: emit.
        // --------------------------------------------------------------
        if st.selection_empty() {
            if exhausted {
                st.close_run(env, budget, &mut stats)?;
                break;
            }
            // Nothing to select but a residual block keeps the next page
            // out: flush it and retry.
            st.flush(env, budget, &mut stats)?;
            continue;
        }

        // A run boundary closes the run; otherwise the block is flushed —
        // full, or short because the selection ran dry, so that the next
        // input page can be absorbed.
        if st.emit_up_to(env, st.block_tuples) {
            st.close_run(env, budget, &mut stats)?;
        } else {
            st.flush(env, budget, &mut stats)?;
        }
        budget.record_held(st.in_memory_pages(), env.now());
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
    use crate::run_formation::tests::{assert_directed_runs_cover, random_tuples};
    use crate::store::MemStore;
    use crate::tuple::Tuple;
    use crate::verify::collect_run;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Form runs from `tuples` under `mem` pages, in `env`.
    fn split_in<E: SortEnv>(
        cfg: &SortConfig,
        tuples: Vec<Tuple>,
        env: &mut E,
        block: BlockPolicy,
        natural: bool,
    ) -> (SplitStats, MemStore, MemoryBudget) {
        let budget = MemoryBudget::new(cfg.memory_pages);
        let mut input = VecSource::from_tuples(tuples, cfg.tuples_per_page());
        let mut store = MemStore::new();
        let stats = form_runs(cfg, &budget, &mut input, &mut store, env, block, natural).unwrap();
        (stats, store, budget)
    }

    fn split(n_tuples: usize, mem: usize, block: usize) -> (SplitStats, MemStore) {
        let cfg = SortConfig::default().with_memory_pages(mem);
        let (block, mut env) = (BlockPolicy::Fixed(block), CountingEnv::new());
        let (stats, store, _) = split_in(&cfg, random_tuples(n_tuples, 7), &mut env, block, false);
        (stats, store)
    }

    /// Replacement selection over random keys (few of them: duplicates of
    /// `cmp` are common), absorbing nothing, one entry, a page or six at a
    /// time under a budget that sheds to a quarter and regrows every few
    /// steps: every peek and pop is a `BinaryHeap`'s, the mini-runs never hold
    /// more than 1.5x their live entries plus one batch (in fact about 1.06x),
    /// and each run closes on a single one.
    #[test]
    fn selection_pops_what_a_binary_heap_pops_and_gives_memory_back() {
        use std::{cmp::Reverse, collections::BinaryHeap};
        assert_eq!(std::mem::size_of::<Entry>(), 24);
        let mut rng = StdRng::seed_from_u64(0x5E1);
        for block in [1usize, 6] {
            let (mut sel, mut heap) = (Selection::default(), BinaryHeap::new());
            sel.cap = 64 * 32;
            let (mut run, mut last, mut closed) = (0u32, 0u128, 0);
            for step in 0..4000usize {
                let cap = if step / 7 % 2 == 0 { 64 } else { 16 } * 32;
                let batch = [0, 1, 32, 192][rng.gen_range(0usize..4)];
                for slot in 0..(batch as u32) * (sel.len + batch <= cap) as u32 {
                    let (rank, tie) = (rng.gen_range(0u64..512), rng.gen_range(0u64..3));
                    let cmp = SortOrder::composite(rank, tie);
                    let e = entry(run + (cmp < last) as u32, cmp, slot);
                    sel.push(e);
                    heap.push(Reverse(e));
                }
                // Emit a block — or everything the budget no longer covers.
                for _ in 0..sel.len.saturating_sub(cap).max(block * 32) {
                    let top = sel.peek();
                    assert_eq!(top, heap.peek().map(|e| e.0), "step {step}");
                    match top {
                        Some(e) if e.0 == run => {
                            assert_eq!(sel.pop(), heap.pop().map(|e| e.0), "step {step}");
                            last = SortOrder::composite(e.1, e.2);
                        }
                        Some(_) => {
                            assert_eq!(sel.minis.len(), 1, "run {run} closed on several");
                            (run, last, closed) = (run + 1, 0, closed + 1);
                            break;
                        }
                        None => break,
                    }
                }
                assert_eq!(sel.len, heap.len());
                let held: usize = sel.minis.iter().flatten().map(Vec::capacity).sum();
                let waiting = sel.pending.iter().chain(&sel.later).map(Vec::len);
                let live = sel.len - waiting.sum::<usize>();
                assert!(
                    held <= live * 3 / 2 + 192,
                    "step {step}: {held} held, {live} live"
                );
            }
            assert!(closed > 10, "block {block}: only {closed} runs closed");
        }
    }

    #[test]
    fn produces_sorted_runs_covering_all_tuples() {
        let n = 32 * 50;
        let (stats, mut store) = split(n, 8, 6);
        assert_directed_runs_cover(&stats, &mut store, n);
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

    /// Shrinks the budget to a single page once its clock (advanced by CPU
    /// charges) passes 0.05 s.
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

    #[test]
    fn shrink_mid_split_frees_memory_and_records_event() {
        for natural in [false, true] {
            let cfg = SortConfig::default().with_memory_pages(8);
            let mut env = ShrinkingEnv {
                clock: 0.0,
                fired: false,
            };
            let (stats, mut store, budget) = split_in(
                &cfg,
                random_tuples(32 * 30, 3),
                &mut env,
                BlockPolicy::Fixed(6),
                natural,
            );
            assert!(env.fired);
            assert!(stats.shrink_events >= 1);
            assert_directed_runs_cover(&stats, &mut store, 32 * 30);
            // The shortage must have been satisfied (delay recorded, none
            // pending).
            assert!(!budget.shrink_pending());
            assert!(!budget.take_delays().is_empty());
        }
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
            let (block, mut env) = (BlockPolicy::Adaptive, CountingEnv::new());
            let (stats, store, _) = split_in(cfg, random_tuples(n, 5), &mut env, block, false);
            (stats, store)
        };
        let (small, mut small_store) = run(&cfg_small);
        let (big, mut big_store) = run(&cfg_big);
        assert_directed_runs_cover(&small, &mut small_store, n);
        assert_directed_runs_cover(&big, &mut big_store, n);
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
        assert_directed_runs_cover(&stats, &mut store, 32 * 5);
    }

    // -- natural-run (up/down) formation ---------------------------------

    fn split_ordered(tuples: Vec<Tuple>, mem: usize, block: usize) -> (SplitStats, MemStore) {
        let cfg = SortConfig::default().with_memory_pages(mem);
        let (block, mut env) = (BlockPolicy::Fixed(block), CountingEnv::new());
        let (stats, store, _) = split_in(&cfg, tuples, &mut env, block, true);
        (stats, store)
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
        let (block, mut env) = (BlockPolicy::Fixed(1), CountingEnv::new());
        let (stats, mut store, _) = split_in(&cfg, random_tuples(n, 9), &mut env, block, true);
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
}
