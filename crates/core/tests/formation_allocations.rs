//! Run formation's steady state allocates per page, not per buffer growth:
//! once the selection has settled, absorbing a page and emitting one costs
//! the same few allocations every time — the sealed run page, the entries'
//! mini-run chunks — and nothing sized by the records popped so far. A
//! counting global allocator measures it, so this file holds one test and
//! nothing runs beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use masort_core::{InputSource, MemoryBudget, Page, SortConfig, SortJob, SortResult, Tuple};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds `GlobalAlloc`'s contract; counting touches only an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocation count when the input handed out page `WARM_UP`, and when
/// it ran dry.
static AT_WARM_UP: AtomicUsize = AtomicUsize::new(0);
static AT_DRY: AtomicUsize = AtomicUsize::new(0);

const WARM_UP: usize = 100;

/// Input pages built before the sort starts, handed out without allocating.
struct Pages {
    pages: std::vec::IntoIter<Page>,
    served: usize,
}

impl InputSource for Pages {
    fn next_page(&mut self) -> SortResult<Option<Page>> {
        let now = ALLOCATIONS.load(Ordering::Relaxed);
        if self.served == WARM_UP {
            AT_WARM_UP.store(now, Ordering::Relaxed);
        }
        let page = self.pages.next();
        match page {
            Some(_) => self.served += 1,
            None => AT_DRY.store(now, Ordering::Relaxed),
        }
        Ok(page)
    }
}

#[test]
fn run_formation_allocates_per_page_not_per_buffer_growth() {
    const PAGES: usize = 400;
    const PER_PAGE: u64 = 64;
    // 64 records of 128 bytes a page, 32 pages of memory: the slab and the
    // selection fill during the first 32 pages; from then on every absorbed
    // page is matched by an emitted one.
    let cfg = SortConfig::default()
        .with_page_size(64 * 128)
        .with_tuple_size(128)
        .with_memory_pages(32);
    let pages: Vec<Page> = (0..PAGES as u64)
        .map(|p| {
            let tuples = (0..PER_PAGE).map(|i| {
                let key = (p * PER_PAGE + i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                Tuple::new(key, vec![key as u8; 100])
            });
            Page::from_tuples(tuples.collect::<Vec<_>>())
        })
        .collect();
    let input = Pages {
        pages: pages.into_iter(),
        served: 0,
    };
    let sort = SortJob::builder()
        .config(cfg)
        .algorithm("nat6,opt,split".parse().unwrap())
        .input(input)
        .budget(MemoryBudget::new(32))
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(sort.outcome.runs_formed() > 5, "the input must spill");
    // 1 998 allocations for the 300 pages past warm-up since the entry
    // batches wait in fixed-size pieces (2 207 while they grew by doubling);
    // a slot buffer allocated afresh each round adds about 5 a page.
    let steady = PAGES - WARM_UP;
    let allocations = AT_DRY.load(Ordering::Relaxed) - AT_WARM_UP.load(Ordering::Relaxed);
    assert!(
        allocations * 10 <= steady * 68,
        "{allocations} allocations for {steady} absorbed pages"
    );
}
