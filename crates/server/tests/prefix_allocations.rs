//! What a frame's bytes claim costs the reader nothing before the bytes
//! arrive. A reader's buffer grows as its bytes are read, at most a fixed
//! step (64 KiB) ahead of what came, so a peer that sends a 16 MiB length
//! prefix and then nothing costs a step of the reader's heap, not 16 MiB; a
//! page that claims more records than its body holds is refused without an
//! allocation the size of the claim; and the server reads no frame but
//! `INGEST` longer than its control-frame cap (4 KiB): a longer one is
//! answered `ERR {Protocol}` from its prefix alone. A global allocator
//! counting live bytes measures it, so this file holds one test and nothing
//! runs beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{self, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use masort_core::{Page, Tuple};
use masort_server::codec::{decode_frame, read_frame, write_frame};
use masort_server::{ErrorCode, Frame, Server, SubmitSpec, MAX_FRAME_BYTES, PROTOCOL_VERSION};

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

/// How far a reader's buffer runs ahead of the bytes that arrived.
const STEP: usize = 64 << 10;
/// The server's cap on a frame it reads whole (`CONTROL_FRAME_BYTES`).
const CONTROL: usize = 4 << 10;

/// A frame's prefix claiming `len` bytes, and what of the frame follows.
fn claim(len: usize, rest: &[u8]) -> Vec<u8> {
    [&(len as u32).to_le_bytes()[..], rest].concat()
}

/// The next frame from the server, which must be `ERR {Protocol}`.
fn protocol_error(reader: &mut BufReader<TcpStream>, what: &str) {
    match read_frame(reader) {
        Ok(Some(Frame::Error(e))) => assert_eq!(e.code, ErrorCode::Protocol, "{what}: {e}"),
        other => panic!("{what}: expected ERR {{Protocol}}, got {other:?}"),
    }
}

#[test]
fn a_claim_costs_the_reader_nothing_before_its_bytes_arrive() {
    // A body claimed in full and sent as far as its opcode, and a page of an
    // INGEST frame claimed in full and sent as far as its header.
    let page = Page::from_tuples([Tuple::synthetic(1, 8)]);
    let mut header = page.wire_bytes()[..16].to_vec();
    header[12..16].copy_from_slice(&((MAX_FRAME_BYTES - 64) as u32).to_le_bytes());
    let claims = [
        claim(MAX_FRAME_BYTES, &[0x0F]),
        claim(MAX_FRAME_BYTES, &[&[0x05][..], &header].concat()),
    ];
    for wire in &claims {
        let peak = peak_growth_in(|| {
            let err = read_frame(&mut io::Cursor::new(wire)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        });
        assert!(
            peak <= STEP + 1024,
            "a bare {MAX_FRAME_BYTES}-byte claim took {peak} bytes"
        );
    }

    // An INGEST body of one page whose header claims 2^32 - 1 records of
    // 2^32 - 1 bytes: decoding refuses the page from its header.
    let mut body = vec![0x05];
    body.extend_from_slice(page.wire_bytes());
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

    // A live server: connections that each send a prefix claiming more than
    // a control frame, where `SUBMIT` is due, are refused from the prefix,
    // and what the server holds meanwhile stays within the cap each.
    const CONNECTIONS: usize = 8;
    let handle = Server::builder()
        .pool_pages(16)
        .bind("127.0.0.1:0")
        .expect("bind loopback")
        .spawn();
    let connect = || {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        (BufReader::new(stream.try_clone().unwrap()), stream)
    };
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
        tenant: None,
    };
    let mut welcomed: Vec<_> = (0..CONNECTIONS)
        .map(|_| {
            let (mut reader, mut stream) = connect();
            write_frame(&mut stream, &hello).unwrap();
            let welcome = read_frame(&mut reader).unwrap();
            assert!(matches!(welcome, Some(Frame::Welcome { .. })));
            (reader, stream)
        })
        .collect();
    let prefix = claim(MAX_FRAME_BYTES, &[]);
    let peak = peak_growth_in(|| {
        for (_, stream) in &mut welcomed {
            stream.write_all(&prefix).unwrap();
        }
        for (reader, _) in &mut welcomed {
            protocol_error(reader, "a claim where SUBMIT is due");
        }
    });
    assert!(
        peak <= CONNECTIONS * CONTROL,
        "{CONNECTIONS} claims of {MAX_FRAME_BYTES} bytes took {peak} bytes"
    );

    // The same holds for an opening frame, and for a frame other than
    // INGEST while the sort reads its input.
    let (mut reader, mut stream) = connect();
    stream.write_all(&claim(CONTROL + 1, &[])).unwrap();
    protocol_error(&mut reader, "an opening claim");
    let (mut reader, mut stream) = connect();
    write_frame(&mut stream, &hello).unwrap();
    read_frame(&mut reader).unwrap();
    write_frame(&mut stream, &Frame::Submit(SubmitSpec::default())).unwrap();
    let accepted = read_frame(&mut reader).unwrap();
    assert!(matches!(accepted, Some(Frame::Accepted { .. })));
    stream.write_all(&claim(MAX_FRAME_BYTES, &[0x06])).unwrap();
    protocol_error(&mut reader, "a FIN claim during ingest");
    let stats = handle.join();
    assert_eq!((stats.completed, stats.leaked_pages), (0, 0));
}
