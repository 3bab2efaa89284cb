//! What a frame's bytes claim costs the reader nothing before the bytes
//! arrive: a body grows as it is read, at most a fixed step (64 KiB) ahead
//! of what came, so a peer that sends a 16 MiB length prefix and then
//! nothing holds a step of the reader's heap, not 16 MiB; and a page that
//! claims more records than its body holds is refused without an
//! allocation the size of the claim. A global allocator counting live bytes
//! measures it, so this file holds one test and nothing runs beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};

use masort_core::{Page, Tuple};
use masort_server::codec::{decode_frame, read_body};
use masort_server::MAX_FRAME_BYTES;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds `GlobalAlloc`'s contract; counting touches only atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most the live heap grew by while `f` ran.
fn peak_growth_in(f: impl FnOnce()) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed) - before
}

#[test]
fn a_claim_costs_the_reader_nothing_before_its_bytes_arrive() {
    const READERS: usize = 8;
    const STEP: usize = 64 << 10;
    let prefix = (MAX_FRAME_BYTES as u32).to_le_bytes();
    let mut bodies = vec![Vec::new(); READERS];
    let before = LIVE.load(Ordering::Relaxed);
    for body in &mut bodies {
        let err = read_body(&mut io::Cursor::new(&prefix[..]), body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
    let held = LIVE.load(Ordering::Relaxed) - before;
    assert!(
        held <= READERS * STEP,
        "{READERS} readers of a bare {MAX_FRAME_BYTES}-byte prefix hold {held} bytes"
    );

    // An INGEST body of one page whose header claims 2^32 - 1 records of
    // 2^32 - 1 bytes: decoding copies the body and refuses the page.
    let mut body = vec![0x05];
    body.extend_from_slice(Page::from_tuples(vec![Tuple::synthetic(1, 8)]).wire_bytes());
    body[5..13].copy_from_slice(&[0xFF; 8]);
    let peak = peak_growth_in(|| {
        let err = decode_frame(&body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    });
    assert!(
        peak <= 4096,
        "decoding a {}-byte body took {peak} bytes",
        body.len()
    );
}
