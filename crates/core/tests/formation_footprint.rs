//! Run formation holds about its grant: a sort of gensort-like records under
//! a 64-page grant of 32 KiB pages keeps its live heap, from the moment
//! `run()` starts to the moment it returns, within 1.6 times the grant's
//! bytes. What it holds beyond the grant is the slab's 112-byte stride on
//! 108 billed bytes, the 24-byte selection entries and the pages in flight;
//! nothing is held in a buffer that doubled past its contents, or twice while
//! one is copied into another. A counting global allocator measures it, so
//! this file holds one test and nothing runs beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use masort_core::{
    FileStore, InputSource, MemoryBudget, Page, PayloadRef, SortConfig, SortJob, SortResult,
    TupleArena,
};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds `GlobalAlloc`'s contract; counting touches only atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A buffer that grows may be copied into a new one, and both exist
        // meanwhile; one that shrinks is cut where it lies.
        if new_size > layout.size() {
            grew(new_size);
        }
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        if new_size <= layout.size() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const PAGE_BYTES: usize = 32 * 1024;
/// A gensort record: a 100-byte payload behind an 8-byte key.
const PAYLOAD: usize = 100;
const TUPLE_BYTES: usize = PAYLOAD + 8;
const GRANT_PAGES: usize = 64;
const INPUT_PAGES: usize = 256;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Gensort-like pages, each built when it is asked for: random keys, or
/// keys ascending over the whole key space of which a seeded tenth are made
/// random.
struct Gensort {
    cfg: SortConfig,
    sorted: bool,
    served: usize,
    next: u64,
    rng: u64,
}

impl InputSource for Gensort {
    fn next_page(&mut self) -> SortResult<Option<Page>> {
        if self.served == INPUT_PAGES {
            return Ok(None);
        }
        self.served += 1;
        let tpp = self.cfg.tuples_per_page();
        let mut arena = TupleArena::with_capacity(self.cfg.record_stride(), tpp);
        for _ in 0..tpp {
            self.next += u64::MAX / (INPUT_PAGES * tpp) as u64;
            let noise = splitmix(&mut self.rng);
            let key = if !self.sorted || noise.is_multiple_of(10) {
                splitmix(&mut self.rng)
            } else {
                self.next
            };
            arena.push_ref(key, PayloadRef::Bytes(&[key as u8; PAYLOAD]));
        }
        Ok(Some(arena.seal()))
    }
}

/// The live heap's peak during `run()`, above what was live when it was
/// called, as a multiple of the grant's bytes.
fn footprint(algorithm: &str, sorted: bool) -> f64 {
    let cfg = SortConfig::default()
        .with_page_size(PAGE_BYTES)
        .with_tuple_size(TUPLE_BYTES)
        .with_memory_pages(GRANT_PAGES);
    let input = Gensort {
        cfg: cfg.clone(),
        sorted,
        served: 0,
        next: 0,
        rng: 0x600D_5EED,
    };
    let job = SortJob::builder()
        .config(cfg)
        .algorithm(algorithm.parse().unwrap())
        .input(input)
        .store(FileStore::in_temp_dir().unwrap())
        .budget(MemoryBudget::new(GRANT_PAGES))
        .build()
        .unwrap();
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let sort = job.run().unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - baseline;
    assert!(sort.outcome.runs_formed() > 1, "the input must spill");
    peak as f64 / (GRANT_PAGES * PAGE_BYTES) as f64
}

#[test]
fn run_formation_holds_about_its_grant() {
    // Measured when this was written: 1.41 (nat6, random), 1.55 (nat6,
    // 90 % sorted: the natural-run tail's 32-byte entries come on top) and
    // 1.37 (quick, random). With the slab in one growing `Vec`, the batches
    // doubling and quick copying its memory load into the run's pages whole,
    // the three read 2.83, 2.94 and 3.15.
    for (algorithm, sorted) in [
        ("nat6,opt,split", false),
        ("nat6,opt,split", true),
        ("quick,opt,split", false),
    ] {
        let ratio = footprint(algorithm, sorted);
        eprintln!("{algorithm} sorted={sorted}: peak {ratio:.3} x the grant");
        assert!(
            ratio <= 1.6,
            "{algorithm} (sorted input: {sorted}) held {ratio:.3} x its grant"
        );
    }
}
