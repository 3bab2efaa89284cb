//! Byte-level frame encoding and decoding.
//!
//! A frame on the wire is `u32 LE length ++ body`, where `body[0]` is the
//! opcode and the rest is the opcode-specific payload. All integers are
//! little-endian; strings and byte blobs are length-prefixed (`u32 LE` count
//! followed by the raw bytes). Records encode as
//! `u64 key ++ u8 payload-tag ++ payload`, where tag `0` is a synthetic
//! payload (`u32` nominal size) and tag `1` is a literal byte blob — so a
//! round trip preserves not just keys but the exact payload representation.
//!
//! One routine encodes a record and one decodes it, over a key and a
//! [`PayloadRef`]. The [`Frame`] path wraps them in `Vec<Tuple>`s; the server
//! keeps records as bytes ([`decode_ingest`], [`write_egress`]).
//!
//! Decoding is defensive: every read is bounds-checked against the body, the
//! length prefix is capped at [`MAX_FRAME_BYTES`], unknown opcodes and
//! error codes are rejected, and trailing garbage after a well-formed payload
//! is an error. Malformed input can only ever produce
//! [`io::ErrorKind::InvalidData`] / [`io::ErrorKind::UnexpectedEof`] — never
//! a panic or an oversized allocation.

use std::io::{self, Read, Write};

use masort_core::{Page, PayloadRef, Tuple};

use crate::protocol::{ErrorCode, Frame, JobSummary, SubmitSpec, WireError, MAX_FRAME_BYTES};

const TAG_SYNTHETIC: u8 = 0;
const TAG_BYTES: u8 = 1;
/// The opcode of an `INGEST` body, whose records [`decode_ingest`] reads.
pub(crate) const OP_INGEST: u8 = 0x05;
const OP_EGRESS: u8 = 0x07;
/// The fewest bytes a record takes: key, tag, a size or a blob's length.
const MIN_RECORD: usize = 8 + 1 + 4;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Bytes one record takes in an `INGEST` / `EGRESS` body.
fn record_len(payload: PayloadRef<'_>) -> usize {
    match payload {
        PayloadRef::Synthetic(_) => MIN_RECORD,
        PayloadRef::Bytes(bytes) => MIN_RECORD + bytes.len(),
    }
}

/// The one record encoder.
fn put_record(buf: &mut Vec<u8>, key: u64, payload: PayloadRef<'_>) {
    put_u64(buf, key);
    match payload {
        PayloadRef::Synthetic(size) => {
            buf.push(TAG_SYNTHETIC);
            put_u32(buf, size);
        }
        PayloadRef::Bytes(bytes) => {
            buf.push(TAG_BYTES);
            put_bytes(buf, bytes);
        }
    }
}

fn put_tuples(buf: &mut Vec<u8>, tuples: &[Tuple]) {
    put_u32(buf, tuples.len() as u32);
    for t in tuples {
        put_record(buf, t.key, PayloadRef::from(&t.payload));
    }
}

/// Encode a frame into its body bytes (opcode byte included, length prefix
/// excluded). [`write_frame`] adds the prefix; this form exists so tests can
/// corrupt bodies directly.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_into(frame, &mut buf);
    buf
}

/// Encode `frame`'s body into `buf`, replacing its contents.
fn encode_into(frame: &Frame, buf: &mut Vec<u8>) {
    buf.clear();
    buf.push(frame.opcode());
    match frame {
        Frame::Hello { version, tenant } => {
            put_u32(buf, *version);
            match tenant {
                Some(name) => {
                    buf.push(1);
                    put_str(buf, name);
                }
                None => buf.push(0),
            }
        }
        Frame::Welcome {
            version,
            pool_pages,
        } => {
            put_u32(buf, *version);
            put_u64(buf, *pool_pages);
        }
        Frame::Submit(spec) => {
            put_u32(buf, spec.priority);
            put_u64(buf, spec.min_pages);
            put_u64(buf, spec.max_pages);
            put_u64(buf, spec.memory_pages);
            put_u64(buf, spec.page_size);
            put_u64(buf, spec.tuple_size);
            put_u64(buf, spec.expected_tuples);
            buf.push(spec.spill as u8);
            buf.push(spec.descending as u8);
        }
        Frame::Accepted { job } => put_u64(buf, *job),
        Frame::Ingest(tuples) | Frame::Egress(tuples) => put_tuples(buf, tuples),
        Frame::Fin | Frame::Cancel | Frame::Shutdown | Frame::MetricsReq => {}
        Frame::Stats(s) => {
            put_u64(buf, s.job);
            put_u64(buf, s.tuples);
            put_f64(buf, s.queued_for);
            put_f64(buf, s.ran_for);
            put_u64(buf, s.initial_grant);
            put_u64(buf, s.reallocations);
            put_u64(buf, s.delay_samples);
            put_f64(buf, s.total_delay);
            put_u64(buf, s.runs_formed);
            put_u64(buf, s.merge_steps);
            put_u64(buf, s.natural_runs);
            put_u64(buf, s.min_run_tuples);
            put_u64(buf, s.max_run_tuples);
            put_f64(buf, s.avg_run_tuples);
        }
        Frame::Error(e) => {
            buf.push(e.code as u8);
            put_u64(buf, e.needed);
            put_u64(buf, e.granted);
            put_str(buf, &e.message);
        }
        Frame::TraceReq { job } => put_u64(buf, *job),
        Frame::TraceData { json } | Frame::MetricsData { json } => put_str(buf, json),
    }
}

/// Write one length-prefixed frame. Flushes are the caller's business —
/// batch several frames, then flush once. A frame whose body is over
/// [`MAX_FRAME_BYTES`] is refused with `InvalidInput` before anything is
/// written.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    write_frame_with(w, frame, &mut Vec::new())
}

/// [`write_frame`], encoding the body in `body`, whose allocation the caller
/// keeps from frame to frame.
pub(crate) fn write_frame_with<W: Write>(
    w: &mut W,
    frame: &Frame,
    body: &mut Vec<u8>,
) -> io::Result<()> {
    encode_into(frame, body);
    write_body(w, frame.name(), body)
}

fn write_body<W: Write>(w: &mut W, name: &str, body: &[u8]) -> io::Result<()> {
    if body.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "{name} frame body is {} bytes, over the {MAX_FRAME_BYTES} byte frame cap",
                body.len()
            ),
        ));
    }
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)
}

/// Write the records of `pages`, in order, as `EGRESS` frames: the bytes
/// [`write_frame`] writes for `Frame::Egress` of the same records, cut at a
/// record boundary wherever one more record would take the body over
/// [`MAX_FRAME_BYTES`] (each record's size is known before it is encoded, so
/// nothing is encoded twice). Each body is built in `body`, whose allocation
/// the caller keeps from frame to frame. A single record over the cap is
/// refused with `InvalidInput` before a byte of its frame is written.
pub fn write_egress<W: Write>(w: &mut W, pages: &[Page], body: &mut Vec<u8>) -> io::Result<()> {
    let mut records = pages
        .iter()
        .flat_map(|page| (0..page.len()).map(move |i| page.record(i)))
        .peekable();
    while records.peek().is_some() {
        body.clear();
        body.extend_from_slice(&[OP_EGRESS, 0, 0, 0, 0]);
        let mut n = 0u32;
        while let Some((key, payload)) =
            records.next_if(|&(_, p)| n == 0 || body.len() + record_len(p) <= MAX_FRAME_BYTES)
        {
            put_record(body, key, payload);
            n += 1;
        }
        // The count goes after the opcode once the cut is known.
        body[1..5].copy_from_slice(&n.to_le_bytes());
        write_body(w, "EGRESS", body)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Bounds-checked reader over a frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn bad(what: &str) -> io::Error {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("malformed frame: truncated {what}"),
        )
    }

    fn take(&mut self, n: usize, what: &str) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let slice = &self.buf[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(Self::bad(what)),
        }
    }

    fn u8(&mut self, what: &str) -> io::Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn f64(&mut self, what: &str) -> io::Result<f64> {
        Ok(f64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// A length-prefixed blob, borrowed (so bounds-checked before any copy).
    fn blob(&mut self, what: &str) -> io::Result<&'a [u8]> {
        let len = self.u32(what)? as usize;
        self.take(len, what)
    }

    fn string(&mut self, what: &str) -> io::Result<String> {
        String::from_utf8(self.blob(what)?.to_vec()).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed frame: {what} is not UTF-8"),
            )
        })
    }

    fn bool(&mut self, what: &str) -> io::Result<bool> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed frame: {what} flag byte is {v}, expected 0 or 1"),
            )),
        }
    }

    /// A record list's count, bounds-checked before anyone allocates for it.
    fn record_count(&mut self) -> io::Result<usize> {
        let count = self.u32("tuple count")? as usize;
        if count > (self.buf.len() - self.pos) / MIN_RECORD {
            return Err(Self::bad("tuple list"));
        }
        Ok(count)
    }

    /// The one record decoder: `count` records, each handed to `visit`.
    fn records(
        &mut self,
        count: usize,
        mut visit: impl FnMut(u64, PayloadRef<'a>),
    ) -> io::Result<()> {
        for _ in 0..count {
            let key = self.u64("tuple key")?;
            let payload = match self.u8("payload tag")? {
                TAG_SYNTHETIC => PayloadRef::Synthetic(self.u32("synthetic payload size")?),
                TAG_BYTES => PayloadRef::Bytes(self.blob("payload bytes")?),
                tag => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("malformed frame: unknown payload tag {tag}"),
                    ))
                }
            };
            visit(key, payload);
        }
        Ok(())
    }

    fn tuples(&mut self) -> io::Result<Vec<Tuple>> {
        let count = self.record_count()?;
        let mut out = Vec::with_capacity(count);
        self.records(count, |key, payload| {
            out.push(Tuple {
                key,
                payload: payload.to_payload(),
            })
        })?;
        Ok(out)
    }

    fn finish(self, frame: &'static str) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "malformed frame: {} trailing bytes after {frame} payload",
                    self.buf.len() - self.pos
                ),
            ))
        }
    }
}

/// Decode one frame body (as produced by [`encode_frame`]). Rejects unknown
/// opcodes, truncated payloads and trailing garbage with
/// [`io::ErrorKind::InvalidData`].
pub fn decode_frame(body: &[u8]) -> io::Result<Frame> {
    let mut c = Cursor::new(body);
    let opcode = c.u8("opcode")?;
    let frame = match opcode {
        0x01 => {
            let version = c.u32("HELLO version")?;
            let tenant = if c.bool("HELLO tenant flag")? {
                Some(c.string("HELLO tenant")?)
            } else {
                None
            };
            Frame::Hello { version, tenant }
        }
        0x02 => Frame::Welcome {
            version: c.u32("WELCOME version")?,
            pool_pages: c.u64("WELCOME pool")?,
        },
        0x03 => Frame::Submit(SubmitSpec {
            priority: c.u32("SUBMIT priority")?,
            min_pages: c.u64("SUBMIT min_pages")?,
            max_pages: c.u64("SUBMIT max_pages")?,
            memory_pages: c.u64("SUBMIT memory_pages")?,
            page_size: c.u64("SUBMIT page_size")?,
            tuple_size: c.u64("SUBMIT tuple_size")?,
            expected_tuples: c.u64("SUBMIT expected_tuples")?,
            spill: c.bool("SUBMIT spill")?,
            descending: c.bool("SUBMIT descending")?,
        }),
        0x04 => Frame::Accepted {
            job: c.u64("ACCEPTED job")?,
        },
        OP_INGEST => Frame::Ingest(c.tuples()?),
        0x06 => Frame::Fin,
        OP_EGRESS => Frame::Egress(c.tuples()?),
        0x08 => Frame::Stats(JobSummary {
            job: c.u64("STATS job")?,
            tuples: c.u64("STATS tuples")?,
            queued_for: c.f64("STATS queued_for")?,
            ran_for: c.f64("STATS ran_for")?,
            initial_grant: c.u64("STATS initial_grant")?,
            reallocations: c.u64("STATS reallocations")?,
            delay_samples: c.u64("STATS delay_samples")?,
            total_delay: c.f64("STATS total_delay")?,
            runs_formed: c.u64("STATS runs_formed")?,
            merge_steps: c.u64("STATS merge_steps")?,
            natural_runs: c.u64("STATS natural_runs")?,
            min_run_tuples: c.u64("STATS min_run_tuples")?,
            max_run_tuples: c.u64("STATS max_run_tuples")?,
            avg_run_tuples: c.f64("STATS avg_run_tuples")?,
        }),
        0x09 => {
            let raw = c.u8("ERR code")?;
            let code = ErrorCode::from_u8(raw).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed frame: unknown error code {raw}"),
                )
            })?;
            Frame::Error(WireError {
                code,
                needed: c.u64("ERR needed")?,
                granted: c.u64("ERR granted")?,
                message: c.string("ERR message")?,
            })
        }
        0x0A => Frame::Cancel,
        0x0B => Frame::Shutdown,
        0x0E => Frame::TraceReq {
            job: c.u64("TRACE_REQ job")?,
        },
        0x0F => Frame::TraceData {
            json: c.string("TRACE_DATA json")?,
        },
        0x10 => Frame::MetricsReq,
        0x11 => Frame::MetricsData {
            json: c.string("METRICS_DATA json")?,
        },
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed frame: unknown opcode 0x{other:02X}"),
            ))
        }
    };
    let name = frame.name();
    c.finish(name)?;
    Ok(frame)
}

/// Decode an `INGEST` body's records, handing each to `visit` as its key and
/// a payload borrowed from `body` — no [`Tuple`] is built. The count is
/// checked against the body before `visit` sees a record, but a body that
/// fails later has shown `visit` the records before the fault.
pub fn decode_ingest<'a>(body: &'a [u8], visit: impl FnMut(u64, PayloadRef<'a>)) -> io::Result<()> {
    ingest_next(body, &mut (0, 0), usize::MAX, visit)
}

/// Hand the next `n` of an `INGEST` body's records (or the rest) to `visit`
/// from `at`, which moves past them: the offset they start at (0 before the
/// body is begun) and how many are left. Bytes after the last are refused.
pub(crate) fn ingest_next<'a>(
    body: &'a [u8],
    at: &mut (usize, usize),
    n: usize,
    visit: impl FnMut(u64, PayloadRef<'a>),
) -> io::Result<()> {
    let mut c = Cursor::new(body);
    c.pos = at.0;
    if at.0 == 0 {
        if c.u8("opcode")? != OP_INGEST {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "not an INGEST body",
            ));
        }
        at.1 = c.record_count()?;
    }
    let n = n.min(at.1);
    c.records(n, visit)?;
    *at = (c.pos, at.1 - n);
    match at.1 {
        0 => c.finish("INGEST"),
        _ => Ok(()),
    }
}

/// Read one length-prefixed frame, blocking until it arrives.
///
/// Returns `Ok(None)` on a clean end-of-stream (the peer closed between
/// frames, or this side shut the socket's read half down); a close *inside*
/// a frame is [`io::ErrorKind::UnexpectedEof`]. A length prefix over
/// [`MAX_FRAME_BYTES`] is rejected before any body allocation.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Frame>> {
    read_frame_in(r, &mut Vec::new())
}

/// [`read_frame`], reading the body into `body`, whose allocation the caller
/// keeps from frame to frame.
pub(crate) fn read_frame_in<R: Read>(r: &mut R, body: &mut Vec<u8>) -> io::Result<Option<Frame>> {
    read_body(r, body)?.then(|| decode_frame(body)).transpose()
}

/// [`read_frame`] without the decode: read one frame's body into `body`,
/// which keeps its allocation from frame to frame, and return whether a
/// frame arrived (`false` on a clean end-of-stream).
pub fn read_body<R: Read>(r: &mut R, body: &mut Vec<u8>) -> io::Result<bool> {
    let mut prefix = [0u8; 4];
    let mut got = 0usize;
    while got < prefix.len() {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside a frame length prefix",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed frame: zero-length body",
        ));
    }
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("malformed frame: {len} byte body exceeds the {MAX_FRAME_BYTES} byte cap"),
        ));
    }
    // Only the growth past the last frame's length is zero-filled.
    body.resize(len, 0);
    r.read_exact(body)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let body = encode_frame(&frame);
        assert_eq!(decode_frame(&body).unwrap(), frame, "body round trip");
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        let mut r = io::Cursor::new(wire);
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Some(frame),
            "framed round trip"
        );
    }

    #[test]
    fn every_frame_shape_survives_a_round_trip() {
        round_trip(Frame::Hello {
            version: 1,
            tenant: None,
        });
        round_trip(Frame::Hello {
            version: 7,
            tenant: Some("acme".into()),
        });
        round_trip(Frame::Welcome {
            version: 1,
            pool_pages: 64,
        });
        round_trip(Frame::Submit(SubmitSpec {
            priority: 3,
            min_pages: 2,
            max_pages: 24,
            memory_pages: 16,
            page_size: 4096,
            tuple_size: 64,
            expected_tuples: 100_000,
            spill: true,
            descending: true,
        }));
        round_trip(Frame::Accepted { job: 42 });
        round_trip(Frame::Ingest(vec![
            Tuple::synthetic(9, 64),
            Tuple::new(3, vec![1, 2, 3]),
            Tuple::new(u64::MAX, Vec::new()),
        ]));
        round_trip(Frame::Fin);
        round_trip(Frame::Egress(vec![Tuple::synthetic(0, 0)]));
        round_trip(Frame::Stats(JobSummary {
            job: 1,
            tuples: 12345,
            queued_for: 0.25,
            ran_for: 1.5,
            initial_grant: 8,
            reallocations: 3,
            delay_samples: 2,
            total_delay: 0.125,
            runs_formed: 4,
            merge_steps: 1,
            natural_runs: 2,
            min_run_tuples: 8,
            max_run_tuples: 640,
            avg_run_tuples: 76.5,
        }));
        round_trip(Frame::Error(WireError {
            code: ErrorCode::BudgetStarved,
            needed: 32,
            granted: 8,
            message: "pool too small".into(),
        }));
        round_trip(Frame::Cancel);
        round_trip(Frame::Shutdown);
        round_trip(Frame::TraceReq { job: 17 });
        round_trip(Frame::TraceData {
            json: "{\"span\":18,\"events\":[]}".into(),
        });
        round_trip(Frame::MetricsReq);
        round_trip(Frame::MetricsData {
            json: "{\"counters\":[],\"gauges\":[],\"histograms\":[]}".into(),
        });
    }

    #[test]
    fn empty_and_oversized_bodies_are_rejected() {
        assert_eq!(
            decode_frame(&[]).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        let mut wire = Vec::new();
        wire.extend_from_slice(&((MAX_FRAME_BYTES as u32) + 1).to_le_bytes());
        wire.push(0x06);
        let err = read_frame(&mut io::Cursor::new(wire)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_blob_count_larger_than_the_body_does_not_allocate() {
        // INGEST claiming u32::MAX tuples with a 5-byte body.
        let body = [0x05, 0xFF, 0xFF, 0xFF, 0xFF];
        let err = decode_frame(&body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut body = encode_frame(&Frame::Fin);
        body.push(0xAB);
        let err = decode_frame(&body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn eof_inside_a_frame_is_unexpected_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Accepted { job: 5 }).unwrap();
        wire.truncate(wire.len() - 3);
        let err = read_frame(&mut io::Cursor::new(wire)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn eof_between_frames_is_a_clean_none() {
        let mut empty = io::Cursor::new(Vec::<u8>::new());
        assert_eq!(read_frame(&mut empty).unwrap(), None);
    }
}
