//! The root merge step builds no `Tuple`: a consumer that drains a sort page
//! by page allocates per page, not per record, even when every record
//! carries real payload bytes. A counting global allocator measures it, so
//! this file holds one test and nothing runs beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use masort_core::{MemoryBudget, SortConfig, SortJob, Tuple};

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

#[test]
fn draining_a_sort_page_by_page_allocates_per_page_not_per_record() {
    const RECORDS: u64 = 20_000;
    let input: Vec<Tuple> = (0..RECORDS)
        .map(|i| {
            let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            Tuple::new(key, vec![key as u8; 40])
        })
        .collect();
    // 16 records a page, 24 pages of memory: dozens of runs, one merge step.
    let budget = MemoryBudget::new(24);
    let mut sort = SortJob::builder()
        .config(
            SortConfig::default()
                .with_page_size(16 * 48)
                .with_tuple_size(48)
                .with_memory_pages(24),
        )
        .tuples(input)
        .budget(budget)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(sort.outcome.runs_formed() > 10, "the input must spill");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let (mut pages, mut records) = (0usize, 0usize);
    while let Some(page) = sort.next_page().unwrap() {
        pages += 1;
        records += page.len();
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(records as u64, RECORDS);
    assert!(
        allocations <= 4 * pages + 64,
        "{allocations} allocations for {pages} pages of {records} records"
    );
}
