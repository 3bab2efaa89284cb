//! The codec's page paths allocate per page, never per frame-sized body:
//! `read_frame` takes an `INGEST` payload a page at a time, each page into a
//! buffer of its own, and `write_egress` sends sealed pages from where they
//! lie behind each frame's prefix, with no body built; encoding a `Frame` of
//! tuples copies no tuple. A counting global allocator measures it, so this
//! file holds one test and nothing runs beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};

use masort_core::{Page, Tuple};
use masort_server::codec::{encode_frame, read_frame, write_egress, write_frame};
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
    // Real payloads, so anything that copied a tuple would allocate once per
    // record; a third of them are longer than the mean and leave their
    // records for the page's overflow area.
    let frames: Vec<Vec<Tuple>> = (0..FRAMES)
        .map(|f| {
            (0..PER_FRAME as u64)
                .map(|k| Tuple::new(k, vec![f as u8; 40 + (k % 3) as usize]))
                .collect()
        })
        .collect();

    // Encoding a frame of tuples builds its one page from them, borrowed:
    // as many allocations for a thousand records as for ten.
    let (ten, all) = (Frame::Ingest(frames[0][..10].to_vec()), &frames[0]);
    let all = Frame::Ingest(all.clone());
    let few = allocations_in(|| drop(encode_frame(&ten)));
    let many = allocations_in(|| drop(encode_frame(&all)));
    assert!(
        many == few && many <= 6,
        "encode: {few} allocations for 10 records, {many} for {PER_FRAME}"
    );
    let mut wire = Vec::new();
    for records in &frames {
        write_frame(&mut wire, &Frame::Ingest(records.clone())).unwrap();
    }

    // INGEST: each page is read into a buffer of its own, grown a step at a
    // time as its bytes arrive (these pages are 67 KB, so two steps), and
    // kept in the page's `Arc`; what the frame holds besides — its tuple
    // vector and a payload per real record — is not the reader's.
    let mut reader = io::Cursor::new(&wire[..]);
    let mut decoded = Vec::with_capacity(FRAMES);
    let ingest = allocations_in(|| {
        while let Some(frame) = read_frame(&mut reader).unwrap() {
            let Frame::Ingest(tuples) = frame else {
                panic!("only INGEST frames");
            };
            decoded.push(tuples);
        }
    });
    assert_eq!(decoded.len(), FRAMES);
    assert_eq!(decoded[7], frames[7]);
    let own = ingest - FRAMES * (1 + PER_FRAME);
    assert!(
        own <= 3 * FRAMES,
        "INGEST: {own} allocations besides payloads"
    );

    // EGRESS: the pages go out from where they lie, behind each frame's
    // prefix; the writer allocates nothing.
    let pages: Vec<Page> = frames.iter().map(Page::from_tuples).collect();
    let mut out = Vec::with_capacity(2 * wire.len());
    let first = allocations_in(|| write_egress(&mut out, &pages[..1]).unwrap());
    let rest = allocations_in(|| {
        for page in &pages[1..] {
            write_egress(&mut out, std::slice::from_ref(page)).unwrap();
        }
    });
    assert!(
        first == 0 && rest == 0,
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
