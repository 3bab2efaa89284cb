//! Wire-protocol robustness: randomized round-trips for every frame type,
//! a fuzz pass proving malformed bytes produce clean errors — never
//! panics, never oversized allocations — `EGRESS` frames held to the bytes
//! of the pages they carry, and hostile page regions in `INGEST` / `EGRESS`
//! bodies, decoded and sent to a live server.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::PathBuf;

use masort_core::{Page, SortConfig, Tuple, TupleArena, MIN_DENSE_STRIDE};
use masort_server::codec::{decode_frame, encode_frame, read_frame, write_egress, write_frame};
use masort_server::{
    ErrorCode, Frame, JobSummary, Server, SubmitSpec, WireError, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_string(rng: &mut StdRng, max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len as u64) as usize;
    (0..len)
        .map(|_| char::from(b'a' + (rng.next_u64() % 26) as u8))
        .collect()
}

fn random_tuples(rng: &mut StdRng, max: usize) -> Vec<Tuple> {
    let count = rng.gen_range(0..=max as u64) as usize;
    (0..count)
        .map(|_| {
            let key = rng.next_u64();
            if rng.gen_bool(0.5) {
                Tuple::synthetic(key, (rng.next_u64() % 256) as usize)
            } else {
                let len = (rng.next_u64() % 64) as usize;
                Tuple::new(key, (0..len).map(|_| rng.next_u64() as u8).collect())
            }
        })
        .collect()
}

fn random_error_code(rng: &mut StdRng) -> ErrorCode {
    ErrorCode::from_u8((rng.next_u64() % 9) as u8 + 1).unwrap()
}

fn random_submit_spec(rng: &mut StdRng) -> SubmitSpec {
    SubmitSpec {
        priority: rng.next_u64() as u32,
        min_pages: rng.next_u64(),
        max_pages: rng.next_u64(),
        memory_pages: rng.next_u64(),
        page_size: rng.next_u64(),
        tuple_size: rng.next_u64(),
        expected_tuples: rng.next_u64(),
        spill: rng.gen_bool(0.5),
        descending: rng.gen_bool(0.5),
    }
}

fn random_frame(rng: &mut StdRng) -> Frame {
    match rng.next_u64() % 15 {
        0 => Frame::Hello {
            version: rng.next_u64() as u32,
            tenant: if rng.gen_bool(0.5) {
                Some(random_string(rng, 24))
            } else {
                None
            },
        },
        1 => Frame::Welcome {
            version: rng.next_u64() as u32,
            pool_pages: rng.next_u64(),
        },
        2 => Frame::Submit(random_submit_spec(rng)),
        3 => Frame::Accepted {
            job: rng.next_u64(),
            tuples_per_page: rng.next_u64(),
        },
        4 => Frame::Ingest(random_tuples(rng, 64)),
        5 => Frame::Fin,
        6 => Frame::Egress(random_tuples(rng, 64)),
        7 => Frame::Stats(JobSummary {
            job: rng.next_u64(),
            tuples: rng.next_u64(),
            queued_for: rng.gen_range(0.0..=1.0e6),
            ran_for: rng.gen_range(0.0..=1.0e6),
            initial_grant: rng.next_u64(),
            reallocations: rng.next_u64(),
            delay_samples: rng.next_u64(),
            total_delay: rng.gen_range(0.0..=1.0e6),
            runs_formed: rng.next_u64(),
            merge_steps: rng.next_u64(),
            natural_runs: rng.next_u64(),
            min_run_tuples: rng.next_u64(),
            max_run_tuples: rng.next_u64(),
            avg_run_tuples: rng.gen_range(0.0..=1.0e9),
        }),
        8 => Frame::Error(WireError {
            code: random_error_code(rng),
            needed: rng.next_u64(),
            granted: rng.next_u64(),
            message: random_string(rng, 120),
        }),
        9 => Frame::Cancel,
        10 => Frame::Shutdown,
        11 => Frame::TraceReq {
            job: rng.next_u64(),
        },
        12 => Frame::TraceData {
            json: random_string(rng, 120),
        },
        13 => Frame::MetricsReq,
        _ => Frame::MetricsData {
            json: random_string(rng, 120),
        },
    }
}

#[test]
fn randomized_frames_round_trip_exactly() {
    let mut rng = StdRng::seed_from_u64(0x5EED_F4A3);
    for _ in 0..2_000 {
        let frame = random_frame(&mut rng);
        let body = encode_frame(&frame);
        let decoded = decode_frame(&body).expect("well-formed body decodes");
        assert_eq!(decoded, frame);
    }
}

#[test]
fn randomized_frames_survive_the_framed_stream() {
    let mut rng = StdRng::seed_from_u64(0xD0DE_C0DE);
    let frames: Vec<Frame> = (0..256).map(|_| random_frame(&mut rng)).collect();
    let mut wire = Vec::new();
    for frame in &frames {
        write_frame(&mut wire, frame).unwrap();
    }
    let mut r = io::Cursor::new(wire);
    for frame in &frames {
        assert_eq!(read_frame(&mut r).unwrap().as_ref(), Some(frame));
    }
    assert_eq!(read_frame(&mut r).unwrap(), None, "clean end of stream");
}

/// Decoding never panics and never reports success on garbage: any random
/// mutation of a valid body either decodes to *some* frame (single bit flips
/// in integer fields are legal) or fails with `InvalidData`/`UnexpectedEof`.
#[test]
fn mutated_bodies_fail_cleanly_or_decode() {
    let mut rng = StdRng::seed_from_u64(0xBAD_F00D);
    for _ in 0..2_000 {
        let frame = random_frame(&mut rng);
        let mut body = encode_frame(&frame);
        match rng.next_u64() % 3 {
            // Truncate somewhere inside the body.
            0 => {
                let keep = (rng.next_u64() as usize) % body.len().max(1);
                body.truncate(keep);
            }
            // Flip a random byte.
            1 => {
                let at = (rng.next_u64() as usize) % body.len();
                body[at] ^= (rng.next_u64() as u8) | 1;
            }
            // Append trailing garbage.
            _ => {
                let extra = 1 + (rng.next_u64() % 8) as usize;
                body.extend((0..extra).map(|_| rng.next_u64() as u8));
            }
        }
        // Must not panic; errors must be the protocol's own kinds.
        if let Err(e) = decode_frame(&body) {
            assert!(
                matches!(
                    e.kind(),
                    io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                ),
                "unexpected error kind {:?}",
                e.kind()
            );
        }
    }
}

/// A protocol-2 `SUBMIT` carried a four-byte compute-worker count between
/// `tuple_size` and `expected_tuples`. Such a body is four bytes longer than
/// this version's, so it is refused — by the trailing-bytes check, or
/// earlier when a shifted byte is not a flag — and never read as a spec with
/// its last fields shifted.
#[test]
fn a_protocol_2_submit_body_is_refused_not_misparsed() {
    let v2_body = |spec: &SubmitSpec, workers: u32| {
        let mut body = vec![0x03];
        body.extend_from_slice(&spec.priority.to_le_bytes());
        for v in [
            spec.min_pages,
            spec.max_pages,
            spec.memory_pages,
            spec.page_size,
            spec.tuple_size,
        ] {
            body.extend_from_slice(&v.to_le_bytes());
        }
        body.extend_from_slice(&workers.to_le_bytes());
        body.extend_from_slice(&spec.expected_tuples.to_le_bytes());
        body.extend_from_slice(&[spec.spill as u8, spec.descending as u8]);
        body
    };
    let spec = SubmitSpec {
        memory_pages: 16,
        expected_tuples: 100_000,
        spill: true,
        ..SubmitSpec::default()
    };
    let body = v2_body(&spec, 2);
    assert_eq!(
        body.len(),
        encode_frame(&Frame::Submit(spec.clone())).len() + 4
    );
    let err = decode_frame(&body).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("4 trailing bytes"), "{err}");

    let mut rng = StdRng::seed_from_u64(0x0002_5B17);
    for _ in 0..500 {
        let spec = random_submit_spec(&mut rng);
        let err = decode_frame(&v2_body(&spec, rng.next_u64() as u32)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}

/// `0x0C` and `0x0D` were the service-counters request and reply until
/// protocol 5; they are unknown opcodes now, like every byte past
/// `METRICS_DATA`.
#[test]
fn garbage_opcodes_are_rejected() {
    for opcode in [0x0C, 0x0D].into_iter().chain(0x12u8..=0xFF) {
        let err = decode_frame(&[opcode]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "opcode {opcode:#X}");
    }
    for body in [&[0x00][..], &[]] {
        let err = decode_frame(body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{body:?}");
    }
}

#[test]
fn truncated_length_prefixes_fail_cleanly() {
    let mut wire = Vec::new();
    write_frame(&mut wire, &Frame::Fin).unwrap();
    for keep in 1..wire.len() {
        let partial = wire[..keep].to_vec();
        let err = read_frame(&mut io::Cursor::new(partial)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "keep={keep}");
    }
}

#[test]
fn hostile_length_prefixes_do_not_allocate() {
    // Claim a 4 GiB frame; the reader must reject the prefix outright.
    for claimed in [masort_server::MAX_FRAME_BYTES as u32 + 1, u32::MAX] {
        let mut wire = claimed.to_le_bytes().to_vec();
        wire.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut io::Cursor::new(wire)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
    // A zero-length body is equally meaningless.
    let wire = 0u32.to_le_bytes().to_vec();
    let err = read_frame(&mut io::Cursor::new(wire)).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
}

/// An `INGEST` page whose count promises far more records than the body
/// holds is refused before a record is read.
#[test]
fn overclaimed_tuple_counts_are_rejected() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..200 {
        let n = 1 + (rng.next_u64() % 8) as usize;
        let tuples = payload_case(&mut rng, 2, n);
        let mut body = encode_frame(&Frame::Ingest(tuples));
        body[5..9].copy_from_slice(&(rng.next_u64() as u32 | 0x0100_0000).to_le_bytes());
        let err = decode_frame(&body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}

/// Tuples of one payload kind: synthetic, empty, inline-sized or a mix with
/// outliers that leave their records.
fn payload_case(rng: &mut StdRng, kind: u64, n: usize) -> Vec<Tuple> {
    (0..n)
        .map(|_| {
            let key = rng.next_u64();
            match kind {
                0 => Tuple::synthetic(key, (rng.next_u64() % 300) as usize),
                1 => Tuple::new(key, Vec::new()),
                2 => Tuple::new(key, vec![key as u8; 24]),
                _ => {
                    let len = if rng.gen_bool(0.2) { 200 } else { 6 };
                    Tuple::new(key, vec![key as u8; len])
                }
            }
        })
        .collect()
}

/// The same records, sealed at `stride` (small strides push payloads into
/// the overflow area).
fn sealed(tuples: &[Tuple], stride: usize) -> Page {
    let mut arena = TupleArena::new(stride);
    tuples.iter().for_each(|t| arena.push(t));
    arena.seal()
}

/// The tuples of every `EGRESS` frame in `wire`, in order, and how many
/// frames there were.
fn egress_tuples(wire: &[u8]) -> (Vec<Tuple>, usize) {
    let (mut r, mut tuples, mut frames) = (io::Cursor::new(wire), Vec::new(), 0);
    while let Some(frame) = read_frame(&mut r).unwrap() {
        let Frame::Egress(records) = frame else {
            panic!("only EGRESS frames");
        };
        tuples.extend(records);
        frames += 1;
    }
    (tuples, frames)
}

/// An `EGRESS` frame is the bytes of the pages it carries, however the
/// records lie in them, and decodes to their tuples; a `Frame` of tuples
/// is the frame of the one page [`Page::from_tuples`] makes of them, the
/// same bytes for `INGEST` as for `EGRESS` but the opcode.
#[test]
fn pages_and_frames_encode_records_to_the_same_bytes() {
    let mut rng = StdRng::seed_from_u64(0x00B1_7E1D);
    for trial in 0..200 {
        let kind = trial % 4;
        let n = (rng.next_u64() % 90) as usize;
        let tuples = payload_case(&mut rng, kind, n);
        let stride = MIN_DENSE_STRIDE + (rng.next_u64() % 40) as usize;
        // One page, or the same records cut into several.
        let cut = 1 + (rng.next_u64() % 30) as usize;
        let pages: Vec<Page> = tuples.chunks(cut).map(|c| sealed(c, stride)).collect();
        let mut wire = Vec::new();
        write_egress(&mut wire, &pages).unwrap();
        let mut expect = Vec::new();
        if !tuples.is_empty() {
            let bytes: Vec<u8> = pages.iter().flat_map(|p| p.wire_bytes().to_vec()).collect();
            expect.extend_from_slice(&(1 + bytes.len() as u32).to_le_bytes());
            expect.push(0x07);
            expect.extend_from_slice(&bytes);
        }
        assert_eq!(wire, expect, "trial {trial}: kind {kind}, stride {stride}");
        assert_eq!(egress_tuples(&wire).0, tuples, "trial {trial}");

        let mut framed = Vec::new();
        write_frame(&mut framed, &Frame::Egress(tuples.clone())).unwrap();
        let one = if tuples.is_empty() {
            vec![]
        } else {
            vec![Page::from_tuples(tuples.clone())]
        };
        let mut wire = Vec::new();
        write_egress(&mut wire, &one).unwrap();
        if tuples.is_empty() {
            assert_eq!(framed, [1, 0, 0, 0, 0x07], "trial {trial}: no pages");
        } else {
            assert_eq!(framed, wire, "trial {trial}");
        }
        let ingest = encode_frame(&Frame::Ingest(tuples.clone()));
        assert_eq!(ingest[1..], framed[5..], "trial {trial}");
    }
}

/// A page whose encoding is over the frame cap is sealed again as smaller
/// pages, which go out as frames of whole pages holding the same records in
/// order; a single record over the cap is refused before anything is
/// written.
#[test]
fn a_page_over_the_frame_cap_is_cut_into_frames_of_whole_records() {
    let big = MAX_FRAME_BYTES / 3;
    let tuples: Vec<Tuple> = (0..5u64)
        .map(|k| Tuple::new(k, vec![k as u8; big]))
        .chain([Tuple::synthetic(9, 64), Tuple::new(10, vec![1; 40])])
        .collect();
    let page = Page::from_tuples(tuples.clone());
    assert!(page.wire_bytes().len() > 3 * MAX_FRAME_BYTES);
    let mut wire = Vec::new();
    write_egress(&mut wire, std::slice::from_ref(&page)).unwrap();
    // Five records of a third of the cap need three frames at least; every
    // frame passed `read_frame`'s cap and decoded as whole pages.
    let (records, frames) = egress_tuples(&wire);
    assert_eq!(records, tuples);
    assert!((3..=5).contains(&frames), "{frames} frames");

    let whale = Page::from_tuples(vec![Tuple::new(1, vec![0; MAX_FRAME_BYTES])]);
    let mut out = Vec::new();
    let err = write_egress(&mut out, &[page, whale]).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    assert!(out.is_empty(), "nothing of a refused frame is written");
}

/// Page regions a hostile or broken peer might send, as the payload of an
/// `INGEST` or `EGRESS` body (`op`).
fn hostile_bodies(op: u8) -> Vec<(&'static str, Vec<u8>)> {
    let three: Vec<Tuple> = (0..3).map(|k| Tuple::new(k, vec![k as u8; 20])).collect();
    let good = sealed(&three, 32).wire_bytes().to_vec();
    let body = |pages: &[&[u8]]| {
        [&[op][..]]
            .iter()
            .chain(pages)
            .flat_map(|p| p.to_vec())
            .collect()
    };
    let word = |mut page: Vec<u8>, at: usize, value: u32| {
        page[at..at + 4].copy_from_slice(&value.to_le_bytes());
        page
    };
    // The second record keeps its 60-byte payload in the overflow area; its
    // offset word follows the record's key and descriptor.
    let spilled = sealed(&[three[0].clone(), Tuple::new(7, vec![7; 60])], 24);
    let mut far = spilled.wire_bytes().to_vec();
    far[16 + 24 + 12..16 + 24 + 20].copy_from_slice(&1_000_000u64.to_le_bytes());
    let empty = sealed(&[], 32).wire_bytes().to_vec();
    vec![
        (
            "an overclaimed record count",
            body(&[&word(good.clone(), 4, 1_000)]),
        ),
        (
            "a stride below the record header",
            body(&[&word(good.clone(), 8, 8)]),
        ),
        ("an overflow offset past its page", body(&[&far])),
        (
            "a last page cut short",
            body(&[&good, &good[..good.len() - 10]]),
        ),
        ("a page with no records", body(&[&good, &empty])),
    ]
}

/// Each hostile page region fails to decode, in an `INGEST` and in an
/// `EGRESS` body, with `InvalidData`: every page is checked as a run page
/// read from disk is, its length against the body before anything is built.
#[test]
fn hostile_ingest_bodies_fail_to_decode_cleanly() {
    for op in [0x05, 0x07] {
        for (what, body) in hostile_bodies(op) {
            let err = decode_frame(&body).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
    }
}

/// The run files this process's stores hold open (see `FileStore::new`):
/// the `/proc/self/fd` links to unlinked `masort-{pid}-*` files in the temp
/// directory.
fn run_files() -> Vec<PathBuf> {
    let dir = std::fs::canonicalize(std::env::temp_dir()).expect("the temp dir");
    let prefix = dir.join(format!("masort-{}-", std::process::id()));
    let prefix = prefix.to_string_lossy();
    std::fs::read_dir("/proc/self/fd")
        .expect("list the open descriptors")
        .filter_map(|entry| Some(entry.ok()?.path()))
        .filter(|fd| {
            std::fs::read_link(fd).is_ok_and(|target| {
                let target = target.to_string_lossy();
                target.starts_with(&*prefix) && target.ends_with(" (deleted)")
            })
        })
        .collect()
}

/// Sent to a live server after good `INGEST` frames, each hostile body — and
/// a well-formed page of more records than `ACCEPTED` allows — ends the sort
/// in a typed protocol error, the only frame the client gets after it, with
/// no result, no page leaked and no run file left open.
#[test]
fn hostile_ingest_ends_in_a_protocol_error_and_leaves_nothing_behind() {
    let handle = Server::builder()
        .pool_pages(16)
        .workers(1)
        .base_config(
            SortConfig::default()
                .with_page_size(1024)
                .with_tuple_size(32)
                .with_memory_pages(8),
        )
        .bind("127.0.0.1:0")
        .expect("bind loopback")
        .spawn();
    let over = (0..33).map(|k| Tuple::new(k, vec![7; 20])).collect();
    let over = (
        "a page over the job's tuples per page",
        encode_frame(&Frame::Ingest(over)),
    );
    for (what, hostile) in hostile_bodies(0x05).into_iter().chain([over]) {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        let mut exchange = |frame: &Frame| {
            write_frame(&mut writer, frame).unwrap();
            writer.flush().unwrap();
            read_frame(&mut reader).unwrap()
        };
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
            tenant: None,
        };
        assert!(matches!(exchange(&hello), Some(Frame::Welcome { .. })));
        let submit = Frame::Submit(SubmitSpec::default());
        let Some(Frame::Accepted {
            tuples_per_page, ..
        }) = exchange(&submit)
        else {
            panic!("{what}: not accepted");
        };
        assert_eq!(tuples_per_page, 32, "1024-byte pages of 32-byte tuples");
        // Enough good records to fill pages and spill a run first.
        let good: Vec<Tuple> = (0..500u64)
            .rev()
            .map(|k| Tuple::new(k, vec![7; 20]))
            .collect();
        for page in good.chunks(32) {
            write_frame(&mut writer, &Frame::Ingest(page.to_vec())).unwrap();
        }
        writer
            .write_all(&(hostile.len() as u32).to_le_bytes())
            .unwrap();
        writer.write_all(&hostile).unwrap();
        writer.flush().unwrap();
        match read_frame(&mut reader).expect("an answer") {
            Some(Frame::Error(e)) => assert_eq!(e.code, ErrorCode::Protocol, "{what}: {e}"),
            other => panic!("{what}: expected a protocol error, got {other:?}"),
        }
        assert_eq!(
            read_frame(&mut reader).unwrap(),
            None,
            "{what}: nothing after ERR"
        );
    }
    let stats = handle.join();
    assert_eq!((stats.completed, stats.leaked_pages), (0, 0));
    assert_eq!(run_files(), Vec::<PathBuf>::new(), "run files remain open");
}
