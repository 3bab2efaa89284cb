//! The server's page paths allocate per frame, not per record: an `INGEST`
//! body is read into one buffer and its pages are decoded where they lie in
//! it, and sealed pages go out as `EGRESS` frames through one reused body.
//! A counting global allocator measures it, so this file holds one test and
//! nothing runs beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use masort_core::{Page, Tuple};
use masort_server::codec::{read_body, write_egress, write_frame};
use masort_server::Frame;

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

fn allocations_in(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn ingest_into_a_page_and_pages_to_egress_allocate_per_frame() {
    const FRAMES: usize = 50;
    const PER_FRAME: usize = 1_000;
    // Real payloads, so the `Frame` path would allocate once per record.
    let frames: Vec<Vec<Tuple>> = (0..FRAMES)
        .map(|f| {
            (0..PER_FRAME as u64)
                .map(|k| Tuple::new(k, vec![f as u8; 40 + (k % 3) as usize]))
                .collect()
        })
        .collect();
    let mut wire = Vec::new();
    for records in &frames {
        write_frame(&mut wire, &Frame::Ingest(records.clone())).unwrap();
    }

    // INGEST: the pages of a body borrow it, so a body whose pages are still
    // held is left to them and the next frame gets a buffer of its own.
    let mut reader = io::Cursor::new(&wire[..]);
    let (mut body, mut pages) = (Arc::new(Vec::new()), Vec::with_capacity(FRAMES));
    let ingest = allocations_in(|| loop {
        if Arc::get_mut(&mut body).is_none() {
            body = Arc::default();
        }
        if !read_body(&mut reader, Arc::make_mut(&mut body)).unwrap() {
            break;
        }
        let mut at = 1;
        while at < body.len() {
            let page = Page::decode_at(&body, at).unwrap();
            at += page.wire_bytes().len();
            pages.push(page);
        }
    });
    assert_eq!(pages.len(), FRAMES);
    assert_eq!(pages[7], Page::from_tuples(frames[7].clone()));
    assert!(ingest <= 3 * FRAMES + 8, "INGEST: {ingest} allocations");

    // EGRESS: one body buffer for every frame, grown on the first only.
    let mut out = Vec::with_capacity(2 * wire.len());
    let mut body = Vec::new();
    let first = allocations_in(|| write_egress(&mut out, &pages[..1], &mut body).unwrap());
    let rest = allocations_in(|| {
        for page in &pages[1..] {
            write_egress(&mut out, std::slice::from_ref(page), &mut body).unwrap();
        }
    });
    assert!(
        first <= 24 && rest == 0,
        "EGRESS: {first}, then {rest} allocations"
    );
    // The frames are the pages' own bytes: those of `Frame::Egress`, which
    // seals the same tuples the same way.
    let mut expect = Vec::new();
    for records in &frames {
        write_frame(&mut expect, &Frame::Egress(records.clone())).unwrap();
    }
    assert_eq!(out, expect);
}
