//! The split phase: consuming the input relation and producing sorted runs
//! under a fluctuating memory budget.
//!
//! Three in-memory sorting methods are implemented (paper §2.1 / §3.1):
//!
//! * `quicksort` — fill memory, sort, write the whole run (`quick`);
//! * `replacement` — replacement selection, writing either one page at a
//!   time (`repl1`) or N-page blocks (`replN`), plus its natural-run variant
//!   (`natN`) that follows order already present in the input.
//!
//! All methods poll the [`MemoryBudget`] before every page they absorb and
//! react to shortages as described in the paper: Quicksort must sort and write
//! everything in memory before it can release a page, whereas replacement
//! selection only needs to emit enough pages (or hand over already-free
//! buffers) to satisfy the request.
//!
//! All methods hold their tuples the same way: an input page's records are
//! copied into the slots of one `RecordSlab`, selection works on small
//! `(composite key, slot)` entries, and emission copies records from their
//! slots into the page being built — once, as bytes, in one prefetched gather
//! per page. No [`Tuple`](crate::Tuple) exists between the input page and the
//! run page.

pub(crate) mod quicksort;
pub(crate) mod replacement;

use crate::budget::MemoryBudget;
use crate::config::{RunFormation, SortConfig};
use crate::env::SortEnv;
use crate::error::SortResult;
use crate::input::InputSource;
use crate::layout::{RecordSlab, TupleArena};
use crate::store::{RunMeta, RunStore};
use crate::tuple::Page;
use replacement::BlockPolicy;

/// How many records [`OutBlock::gather`] prefetches ahead of its copy.
const PREFETCH_AHEAD: usize = 8;

/// Prefetch every cache line `rec` touches; a no-op off x86-64.
#[inline]
fn prefetch(rec: &[u8]) {
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

/// The block of run pages being emitted: records are copied out of the slab
/// in output order and every `tuples_per_page` of them are sealed into one
/// page.
struct OutBlock {
    arena: TupleArena,
    tuples_per_page: usize,
    /// Sealed pages, each `tuples_per_page` records long.
    pages: Vec<Page>,
}

impl OutBlock {
    fn new(stride: usize, tuples_per_page: usize) -> Self {
        OutBlock {
            arena: TupleArena::with_capacity(stride, tuples_per_page),
            tuples_per_page,
            pages: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.pages.len() * self.tuples_per_page + self.arena.len()
    }

    fn is_empty(&self) -> bool {
        self.pages.is_empty() && self.arena.is_empty()
    }

    /// Move the records in `slots` out of `slab` to the end of the block, in
    /// order. Slots come in key order, which is random slab order, and the
    /// slab is larger than L2, so each record is prefetched
    /// [`PREFETCH_AHEAD`] records before it is copied.
    fn gather(&mut self, slab: &mut RecordSlab, slots: impl Iterator<Item = u32> + Clone) {
        let mut ahead = slots.clone();
        for slot in ahead.by_ref().take(PREFETCH_AHEAD) {
            prefetch(slab.record_bytes(slot));
        }
        for slot in slots {
            if let Some(next) = ahead.next() {
                prefetch(slab.record_bytes(next));
            }
            if !self.arena.push_records(slab.record_bytes(slot)) {
                self.arena.push_ref(slab.key(slot), slab.payload_ref(slot));
            }
            slab.release(slot);
            if self.arena.len() == self.tuples_per_page {
                self.pages.push(self.arena.seal());
            }
        }
    }

    /// The block's pages (the last one possibly short), leaving it empty.
    fn take_pages(&mut self) -> Vec<Page> {
        if !self.arena.is_empty() {
            self.pages.push(self.arena.seal());
        }
        std::mem::take(&mut self.pages)
    }
}

/// Statistics describing one completed split phase.
///
/// Compares with `==` so tests can assert two split phases behaved
/// identically.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SplitStats {
    /// The sorted runs produced, in creation order.
    pub runs: Vec<RunMeta>,
    /// Input pages consumed.
    pub pages_read: usize,
    /// Run pages written.
    pub pages_written: usize,
    /// Number of distinct block writes issued (for seek accounting insight).
    pub block_writes: usize,
    /// Environment time at which the split phase started.
    pub started_at: f64,
    /// Environment time at which the split phase finished.
    pub finished_at: f64,
    /// Number of times the method had to shed pages due to a memory shortage.
    pub shrink_events: usize,
    /// Natural-run streaks (at least a page long) detected in the input.
    /// Only [`RunFormation::NaturalSelect`] looks for them; 0 under every
    /// other formation.
    pub natural_runs: usize,
    /// Tuples absorbed through the O(1) natural-run path instead of the
    /// selection heap ([`RunFormation::NaturalSelect`] only).
    pub natural_tuples: usize,
}

impl SplitStats {
    /// Duration of the split phase in seconds.
    pub fn duration(&self) -> f64 {
        (self.finished_at - self.started_at).max(0.0)
    }

    /// Number of runs produced.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Average run length in pages (0 if no runs were produced).
    pub fn avg_run_pages(&self) -> f64 {
        if self.runs.is_empty() {
            0.0
        } else {
            self.runs.iter().map(|r| r.pages as f64).sum::<f64>() / self.runs.len() as f64
        }
    }

    /// Total tuples across all produced runs.
    pub fn total_tuples(&self) -> usize {
        self.runs.iter().map(|r| r.tuples).sum()
    }

    /// Shortest run in tuples (0 if no runs were produced).
    pub fn min_run_tuples(&self) -> usize {
        self.runs.iter().map(|r| r.tuples).min().unwrap_or(0)
    }

    /// Longest run in tuples (0 if no runs were produced).
    pub fn max_run_tuples(&self) -> usize {
        self.runs.iter().map(|r| r.tuples).max().unwrap_or(0)
    }

    /// Average run length in tuples (0 if no runs were produced).
    pub fn avg_run_tuples(&self) -> f64 {
        if self.runs.is_empty() {
            0.0
        } else {
            self.total_tuples() as f64 / self.runs.len() as f64
        }
    }
}

/// Run the split phase with the configured in-memory sorting method.
///
/// Returns the produced runs plus statistics. Empty inputs produce zero runs.
pub fn form_runs<S, I, E>(
    cfg: &SortConfig,
    budget: &MemoryBudget,
    input: &mut I,
    store: &mut S,
    env: &mut E,
) -> SortResult<SplitStats>
where
    S: RunStore,
    I: InputSource,
    E: SortEnv,
{
    match cfg.algorithm.formation {
        RunFormation::Quicksort => quicksort::form_runs(cfg, budget, input, store, env),
        RunFormation::ReplacementSelect { block_pages } => {
            let block = BlockPolicy::Fixed(block_pages);
            replacement::form_runs(cfg, budget, input, store, env, block, false)
        }
        RunFormation::NaturalSelect { block_pages } => {
            let block = BlockPolicy::Fixed(block_pages);
            replacement::form_runs(cfg, budget, input, store, env, block, true)
        }
        RunFormation::AdaptiveReplacement {
            min_block,
            max_block,
        } => {
            let block = BlockPolicy::Adaptive {
                min: min_block,
                max: max_block.max(min_block),
            };
            replacement::form_runs(cfg, budget, input, store, env, block, false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AlgorithmSpec;
    use crate::env::CountingEnv;
    use crate::input::VecSource;
    use crate::store::{MemStore, RunDirection};
    use crate::tuple::Tuple;
    use crate::verify::collect_run;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    pub(super) fn random_tuples(n: usize, seed: u64) -> Vec<Tuple> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Tuple::synthetic(rng.gen::<u64>(), 256))
            .collect()
    }

    fn run_split(
        formation: RunFormation,
        tuples: Vec<Tuple>,
        mem: usize,
    ) -> (SplitStats, MemStore) {
        let cfg = SortConfig::default()
            .with_memory_pages(mem)
            .with_algorithm(AlgorithmSpec {
                formation,
                ..AlgorithmSpec::recommended()
            });
        let budget = MemoryBudget::new(mem);
        let mut input = VecSource::from_tuples(tuples, cfg.tuples_per_page());
        let mut store = MemStore::new();
        let mut env = CountingEnv::new();
        let stats = form_runs(&cfg, &budget, &mut input, &mut store, &mut env).unwrap();
        (stats, store)
    }

    /// Every run must be sorted in its recorded direction and the runs
    /// together must cover the input.
    pub(super) fn assert_directed_runs_cover(
        stats: &SplitStats,
        store: &mut MemStore,
        expect: usize,
    ) {
        let mut total = 0;
        for r in &stats.runs {
            let t = collect_run(store, r.id).unwrap();
            let sorted = match r.dir {
                RunDirection::Forward => t.windows(2).all(|w| w[0].key <= w[1].key),
                RunDirection::Reversed => t.windows(2).all(|w| w[0].key >= w[1].key),
            };
            assert!(sorted, "{:?} run {} out of order", r.dir, r.id);
            assert_eq!(t.len(), r.tuples);
            total += t.len();
        }
        assert_eq!(total, expect, "split phase lost or duplicated tuples");
    }

    /// A gather is a sequence of takes: over inline, synthetic and spilled
    /// payloads it seals the pages that pushing the records one by one
    /// seals, and it leaves nothing in the slab.
    #[test]
    fn gather_seals_what_pushing_record_by_record_seals() {
        let mut rng = StdRng::seed_from_u64(0x6A7);
        for stride in [20, 24, 112] {
            let tuples: Vec<Tuple> = (0..200u64)
                .map(|k| match k % 3 {
                    0 => Tuple::new(k, vec![k as u8; 5]),
                    1 => Tuple::synthetic(k, 100),
                    _ => Tuple::new(k, vec![k as u8; 101]),
                })
                .collect();
            let mut slab = RecordSlab::new(stride);
            for (i, t) in tuples.iter().enumerate() {
                assert_eq!(slab.insert(t.key, (&t.payload).into()), i as u32);
            }
            let mut slots: Vec<u32> = (0..200).collect();
            for i in (1..slots.len()).rev() {
                slots.swap(i, rng.gen_range(0..=i));
            }
            let mut one_by_one = TupleArena::new(stride);
            let expect: Vec<Vec<u8>> = (slots.chunks(32))
                .map(|page| {
                    page.iter()
                        .for_each(|&s| one_by_one.push(&tuples[s as usize]));
                    one_by_one.seal().wire_bytes().to_vec()
                })
                .collect();
            let mut out = OutBlock::new(stride, 32);
            out.gather(&mut slab, slots[..45].iter().copied());
            out.gather(&mut slab, slots[45..].iter().copied());
            let pages = out.take_pages();
            let got: Vec<&[u8]> = pages.iter().map(Page::wire_bytes).collect();
            assert_eq!(got, expect, "stride {stride}");
            assert_eq!((slab.live(), slab.spilled.len()), (0, 0), "stride {stride}");
        }
    }

    #[test]
    fn quicksort_runs_are_memory_sized() {
        let (stats, mut store) = run_split(RunFormation::Quicksort, random_tuples(32 * 40, 42), 8);
        // 40 pages of input with 8 pages of memory => 5 runs of 8 pages.
        assert_eq!(stats.run_count(), 5);
        assert!(stats.runs.iter().all(|r| r.pages == 8));
        assert_directed_runs_cover(&stats, &mut store, 32 * 40);
    }

    #[test]
    fn replacement_selection_runs_are_about_twice_memory() {
        let (stats, mut store) = run_split(RunFormation::repl(1), random_tuples(32 * 64, 42), 8);
        assert_directed_runs_cover(&stats, &mut store, 32 * 64);
        let avg = stats.avg_run_pages();
        assert!(
            avg > 11.0 && avg < 21.0,
            "replacement selection avg run length {avg} pages should be ~2x memory (16)"
        );
        // And strictly fewer runs than quicksort would produce (64/8 = 8).
        assert!(stats.run_count() < 8);
    }

    #[test]
    fn block_writes_shorten_runs_slightly_but_fewer_seeks() {
        let (s1, _) = run_split(RunFormation::repl(1), random_tuples(32 * 64, 42), 8);
        let (s6, _) = run_split(RunFormation::repl(6), random_tuples(32 * 64, 42), 8);
        assert!(
            s6.block_writes < s1.block_writes,
            "block writes should reduce write operations"
        );
        assert!(s6.run_count() >= s1.run_count());
        // Only marginally more runs (paper: "only marginally more than repl1").
        assert!(s6.run_count() as f64 <= s1.run_count() as f64 * 2.0 + 1.0);
    }

    #[test]
    fn empty_input_produces_no_runs() {
        let (stats, _) = run_split(RunFormation::Quicksort, random_tuples(0, 42), 8);
        assert_eq!(stats.run_count(), 0);
        let (stats, _) = run_split(RunFormation::repl(6), random_tuples(0, 42), 8);
        assert_eq!(stats.run_count(), 0);
    }

    #[test]
    fn single_page_input_single_run() {
        for f in [
            RunFormation::Quicksort,
            RunFormation::repl(1),
            RunFormation::repl(6),
        ] {
            let (stats, mut store) = run_split(f, random_tuples(10, 42), 8);
            assert_eq!(stats.run_count(), 1, "formation {f:?}");
            assert_directed_runs_cover(&stats, &mut store, 10);
        }
    }

    #[test]
    fn one_page_of_memory_still_makes_progress() {
        for f in [RunFormation::Quicksort, RunFormation::repl(1)] {
            let (stats, mut store) = run_split(f, random_tuples(32 * 6, 42), 1);
            assert_directed_runs_cover(&stats, &mut store, 32 * 6);
            assert!(stats.run_count() >= 1);
        }
    }

    #[test]
    fn presorted_input_gives_single_replacement_run() {
        // Replacement selection on already-sorted input produces one run
        // regardless of memory size (every incoming key >= last output).
        let tuples = (0..32 * 20).map(|k| Tuple::synthetic(k, 256)).collect();
        let (stats, _) = run_split(RunFormation::repl(1), tuples, 4);
        assert_eq!(stats.run_count(), 1);
        assert_eq!(stats.runs[0].tuples, 32 * 20);
    }

    #[test]
    fn reverse_sorted_input_gives_memory_sized_replacement_runs() {
        // Worst case for replacement selection: every incoming key is smaller
        // than the last output, so runs are roughly memory-sized.
        let n = 32 * 20;
        let tuples = (0..n as u64).rev().map(|k| Tuple::synthetic(k, 256));
        let (stats, _) = run_split(RunFormation::repl(1), tuples.collect(), 4);
        assert!(
            stats.run_count() >= 4,
            "expected many runs, got {}",
            stats.run_count()
        );
        assert_eq!(stats.total_tuples(), n);
    }
}
