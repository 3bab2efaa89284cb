//! A served sort holds about its grant, whatever size of frame its client
//! sends: one in-process server session sorting 200 000 gensort-like
//! records under a 64-page grant of 32 KiB pages keeps the live heap it
//! adds, from `SUBMIT` to the end of its result, within 1.6 times the
//! grant's bytes plus one page in flight plus [`SESSION_BYTES`]. Its client
//! sends the input as one `ingest` call does (frames of up to
//! `MAX_FRAME_BYTES`) and as 4 096-record calls do. The client allocates
//! nothing meanwhile: its frames are built before, and the result is read
//! into a fixed buffer. A counting global allocator measures it, so this
//! file holds one test and nothing runs beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};

use masort_core::{Page, PayloadRef, SortConfig, TupleArena};
use masort_server::codec::{read_frame, write_egress, write_frame};
use masort_server::{Frame, Server, SubmitSpec, PROTOCOL_VERSION};

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
const RECORDS: usize = 200_000;
/// What a session may hold besides 1.6 times its sort's grant and the page
/// it is reading: its socket buffers (64 KiB in, 8 KiB out), the job's store
/// and trace, the sort's run and merge bookkeeping. When this test was
/// written that came to nothing: both chunkings peaked at 3.01 MB, 1.44
/// times the grant and 0.37 MB under 1.6 times the grant plus a page (the
/// session's own buffers fit in what run formation leaves of its 1.6). This
/// is the margin on that measurement. (A session that read whole frames
/// held 33.5 MB, 16 times the grant, for 16 MiB frames.)
const SESSION_BYTES: usize = 256 << 10;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The job's input as `SortClient::ingest` sends it when called with
/// `chunk` records at a time: each call's records cut into pages of the
/// job's geometry, sent as frames of whole pages up to the frame cap. (An
/// `INGEST` frame is the `EGRESS` frame of the same pages under its own
/// opcode.)
fn ingest_frames(cfg: &SortConfig, keys: &[u64], chunk: usize) -> Vec<u8> {
    let page = |keys: &[u64]| {
        let mut arena = TupleArena::with_capacity(cfg.record_stride(), keys.len());
        for &key in keys {
            arena.push_ref(key, PayloadRef::Bytes(&[key as u8; PAYLOAD]));
        }
        arena.seal()
    };
    let mut wire = Vec::new();
    for call in keys.chunks(chunk) {
        let pages: Vec<Page> = call.chunks(cfg.tuples_per_page()).map(page).collect();
        write_egress(&mut wire, &pages).unwrap();
    }
    let mut at = 0;
    while at < wire.len() {
        wire[at + 4] = 0x05;
        at += 4 + u32::from_le_bytes(wire[at..at + 4].try_into().unwrap()) as usize;
    }
    write_frame(&mut wire, &Frame::Fin).unwrap();
    wire
}

/// The live heap's peak, above what was live before `SUBMIT` was sent,
/// while a fresh server's one session sorts the records `input` frames and
/// sends their result back.
fn served_peak(cfg: &SortConfig, input: &[u8]) -> usize {
    let handle = Server::builder()
        .pool_pages(GRANT_PAGES)
        .bind("127.0.0.1:0")
        .expect("bind loopback")
        .spawn();
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
        tenant: None,
    };
    write_frame(&mut stream, &hello).unwrap();
    let welcome = read_frame(&mut stream).unwrap();
    assert!(matches!(welcome, Some(Frame::Welcome { .. })));
    let mut submit = Vec::new();
    let spec = SubmitSpec {
        memory_pages: GRANT_PAGES as u64,
        page_size: PAGE_BYTES as u64,
        tuple_size: TUPLE_BYTES as u64,
        expected_tuples: RECORDS as u64,
        ..SubmitSpec::default()
    };
    write_frame(&mut submit, &Frame::Submit(spec)).unwrap();
    let (mut accepted, mut chunk) = ([0u8; 21], vec![0u8; 64 << 10]);
    let mut received = 0;

    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    stream.write_all(&submit).unwrap();
    stream.read_exact(&mut accepted).unwrap();
    stream.write_all(input).unwrap();
    loop {
        match stream.read(&mut chunk).unwrap() {
            0 => break,
            n => received += n,
        }
    }
    let peak = PEAK.load(Ordering::Relaxed) - baseline;

    assert_eq!(accepted[4], 0x04, "ACCEPTED");
    let per_page = u64::from_le_bytes(accepted[13..21].try_into().unwrap());
    assert_eq!(per_page as usize, cfg.tuples_per_page());
    let stats = handle.join();
    assert_eq!((stats.completed, stats.leaked_pages), (1, 0));
    assert!(
        received > RECORDS * TUPLE_BYTES,
        "{received} bytes of result"
    );
    peak
}

#[test]
fn a_served_sort_holds_its_grant_whatever_its_frames() {
    let cfg = SortConfig::default()
        .with_page_size(PAGE_BYTES)
        .with_tuple_size(TUPLE_BYTES)
        .with_memory_pages(GRANT_PAGES);
    let mut rng = 0x600D_5EED;
    let keys: Vec<u64> = (0..RECORDS).map(|_| splitmix(&mut rng)).collect();
    let page = cfg.record_stride() * cfg.tuples_per_page() + 16;
    let grant = GRANT_PAGES * PAGE_BYTES;
    let bound = grant * 8 / 5 + page + SESSION_BYTES;
    for (what, chunk) in [
        ("one ingest call (16 MiB frames)", RECORDS),
        ("4096-record ingest calls", 4096),
    ] {
        let input = ingest_frames(&cfg, &keys, chunk);
        let peak = served_peak(&cfg, &input);
        let ratio = peak as f64 / grant as f64;
        eprintln!("{what}: peak {peak} bytes, {ratio:.3} x the grant; bound {bound}");
        assert!(
            peak <= bound,
            "{what}: the session held {peak} bytes, over 1.6 x its grant + a page + {SESSION_BYTES}"
        );
    }
}
