//! Wire-protocol robustness: randomized round-trips for every frame type,
//! and a fuzz pass proving malformed bytes produce clean errors — never
//! panics, never oversized allocations.

use std::io;

use masort_core::Tuple;
use masort_server::codec::{decode_frame, encode_frame, read_frame, write_frame};
use masort_server::{ErrorCode, Frame, JobSummary, SubmitSpec, WireError};
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
    assert_eq!(
        decode_frame(&[0x00]).unwrap_err().kind(),
        io::ErrorKind::InvalidData
    );
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

/// A tuple list whose count field promises far more tuples than the body
/// could hold must be rejected before any allocation is attempted.
#[test]
fn overclaimed_tuple_counts_are_rejected() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..200 {
        let mut body = vec![0x05]; // INGEST
        body.extend_from_slice(&(rng.next_u64() as u32 | 0x0100_0000).to_le_bytes());
        let pad = (rng.next_u64() % 32) as usize;
        body.extend((0..pad).map(|_| rng.next_u64() as u8));
        let err = decode_frame(&body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
