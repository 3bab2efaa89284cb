//! Byte-level frame encoding and decoding.
//!
//! A frame on the wire is `u32 LE length ++ body`, where `body[0]` is the
//! opcode and the rest is the opcode-specific payload. All integers are
//! little-endian; strings are length-prefixed (`u32 LE` byte count followed
//! by the UTF-8 bytes).
//!
//! The payload of an `INGEST` or `EGRESS` body is whole pages, back to back,
//! each in the store's page encoding ([`Page::wire_bytes`]: a 16-byte
//! header, fixed-stride `key | descriptor | payload` records, an overflow
//! area). So a record has one encoder and one decoder, `masort_core`'s, for
//! the store, the merge, the session and the client: every page that
//! arrives passes the checks a run page read from disk does
//! ([`Page::decode_at`]), and a page with no records is refused besides. A
//! [`Frame::Ingest`] or [`Frame::Egress`] holds tuples: it encodes them as
//! one page (none when empty) and decodes to the tuples of all its pages,
//! so a synthetic payload stays synthetic. The server moves pages, never
//! tuples ([`write_egress`]).
//!
//! Decoding is defensive: every read is bounds-checked against the body, the
//! length prefix is capped at [`MAX_FRAME_BYTES`] and the body grows as its
//! bytes arrive, unknown opcodes and error codes are rejected, and trailing
//! garbage after a well-formed payload is an error. Malformed input can only
//! ever produce [`io::ErrorKind::InvalidData`] /
//! [`io::ErrorKind::UnexpectedEof`] — never a panic or an allocation sized
//! by what the bytes claim.

use std::io::{self, Read, Write};
use std::sync::Arc;

use masort_core::{Page, Tuple};

use crate::protocol::{ErrorCode, Frame, JobSummary, SubmitSpec, WireError, MAX_FRAME_BYTES};

/// The opcode of an `INGEST` body.
pub(crate) const OP_INGEST: u8 = 0x05;
const OP_EGRESS: u8 = 0x07;

/// How far a frame body is grown ahead of the bytes that have arrived, so a
/// length prefix alone costs the reader at most this much.
const BODY_STEP: usize = 64 << 10;

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

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Encode a frame into its body bytes (opcode byte included, length prefix
/// excluded). [`write_frame`] adds the prefix; this form exists so tests can
/// corrupt bodies directly.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let buf = &mut vec![frame.opcode()];
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
        Frame::Accepted {
            job,
            tuples_per_page,
        } => {
            put_u64(buf, *job);
            put_u64(buf, *tuples_per_page);
        }
        Frame::Ingest(tuples) | Frame::Egress(tuples) => {
            if !tuples.is_empty() {
                buf.extend_from_slice(Page::from_tuples(tuples.clone()).wire_bytes());
            }
        }
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
    std::mem::take(buf)
}

/// Write one length-prefixed frame. Flushes are the caller's business —
/// batch several frames, then flush once. A frame whose body is over
/// [`MAX_FRAME_BYTES`] is refused with `InvalidInput` before anything is
/// written.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    write_body(w, frame.name(), &encode_frame(frame))
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

/// Write `pages`, in order, as `EGRESS` frames, each built in `body`, whose
/// allocation the caller keeps from frame to frame. A frame is whole pages
/// as they are, closed where the next page would take it over
/// [`MAX_FRAME_BYTES`]. A page too large for a frame of its own (records far
/// longer than the job declared) is sealed again as smaller pages; a record
/// that does not fit a frame is refused with `InvalidInput` before a byte is
/// written.
pub fn write_egress<W: Write>(w: &mut W, pages: &[Page], body: &mut Vec<u8>) -> io::Result<()> {
    write_pages(w, OP_EGRESS, pages, body)
}

/// Cut `tuples` into pages of at most `per_page` records and write them as
/// [`write_egress`] writes pages, in `INGEST` frames.
pub(crate) fn write_ingest<W: Write>(
    w: &mut W,
    tuples: Vec<Tuple>,
    per_page: usize,
    body: &mut Vec<u8>,
) -> io::Result<()> {
    let (mut tuples, mut pages) = (tuples.into_iter().peekable(), Vec::new());
    while tuples.peek().is_some() {
        pages.push(Page::from_tuples(
            tuples.by_ref().take(per_page.max(1)).collect(),
        ));
    }
    write_pages(w, OP_INGEST, &pages, body)
}

/// Whether `page` fits a frame of its own, after the opcode.
fn fits(page: &Page) -> bool {
    page.wire_bytes().len() < MAX_FRAME_BYTES
}

fn write_pages<W: Write>(w: &mut W, op: u8, pages: &[Page], body: &mut Vec<u8>) -> io::Result<()> {
    if !pages.iter().all(fits) {
        // Payloads far over the job's declared size: a page per record.
        let one = |t| Page::from_tuples(vec![t]);
        let cut: Vec<Page> = pages.iter().flat_map(Page::tuples).map(one).collect();
        if !cut.iter().all(fits) {
            let detail = format!("a record is over the {MAX_FRAME_BYTES} byte frame cap");
            return Err(io::Error::new(io::ErrorKind::InvalidInput, detail));
        }
        return write_pages(w, op, &cut, body);
    }
    let mut pages = pages.iter().peekable();
    while pages.peek().is_some() {
        body.clear();
        body.push(op);
        while let Some(page) =
            pages.next_if(|p| body.len() + p.wire_bytes().len() <= MAX_FRAME_BYTES)
        {
            body.extend_from_slice(page.wire_bytes());
        }
        w.write_all(&(body.len() as u32).to_le_bytes())?;
        w.write_all(body)?;
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

    /// A length-prefixed string, bounds-checked before it is copied.
    fn string(&mut self, what: &str) -> io::Result<String> {
        let len = self.u32(what)? as usize;
        String::from_utf8(self.take(len, what)?.to_vec()).map_err(|_| {
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

    /// Whole pages, the rest of the body: decoded as they lie in a copy of
    /// it, their tuples taken out.
    fn tuples(&mut self) -> io::Result<Vec<Tuple>> {
        let (pages, mut at, mut tuples) = (Arc::new(self.buf[self.pos..].to_vec()), 0, Vec::new());
        self.pos = self.buf.len();
        while at < pages.len() {
            let page = next_page(&pages, &mut at, usize::MAX)?;
            tuples.extend((0..page.len()).map(|i| page.get(i)));
        }
        Ok(tuples)
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
            tuples_per_page: c.u64("ACCEPTED tuples_per_page")?,
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

/// The page of an `INGEST` or `EGRESS` payload held in `body` that starts
/// at byte `at`, which moves past it. The page borrows `body`; one cut short
/// by the end of the body, or holding no records or more than `most`, is
/// `InvalidData`.
pub(crate) fn next_page(body: &Arc<Vec<u8>>, at: &mut usize, most: usize) -> io::Result<Page> {
    let page = Page::decode_at(body, *at).and_then(|page| match page.len() {
        0 => Err("no records".into()),
        n if n > most => Err(format!("{n} records, over the job's {most} per page")),
        _ => Ok(page),
    });
    let page = page.map_err(|detail| {
        let detail = format!("malformed frame: page at byte {at}: {detail}");
        io::Error::new(io::ErrorKind::InvalidData, detail)
    })?;
    *at += page.wire_bytes().len();
    Ok(page)
}

/// Read one length-prefixed frame, blocking until it arrives.
///
/// Returns `Ok(None)` on a clean end-of-stream (the peer closed between
/// frames, or this side shut the socket's read half down); a close *inside*
/// a frame is [`io::ErrorKind::UnexpectedEof`]. A length prefix over
/// [`MAX_FRAME_BYTES`] is rejected before any body allocation.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Frame>> {
    let mut body = Vec::new();
    read_body(r, &mut body)?
        .then(|| decode_frame(&body))
        .transpose()
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
    // The body grows as its bytes arrive, at most a step ahead of them; what
    // the last frame left is reused without being cleared.
    body.truncate(len);
    r.read_exact(body)?;
    while body.len() < len {
        let at = body.len();
        body.reserve_exact(BODY_STEP.min(len - at));
        body.resize(len.min(at + BODY_STEP), 0);
        r.read_exact(&mut body[at..])?;
    }
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
        round_trip(Frame::Accepted {
            job: 42,
            tuples_per_page: 75,
        });
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
        // INGEST with a 4-byte payload, shorter than a page header.
        let body = [OP_INGEST, 0xFF, 0xFF, 0xFF, 0xFF];
        let err = decode_frame(&body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // INGEST whose one page claims u32::MAX records.
        let mut body = encode_frame(&Frame::Ingest(vec![Tuple::synthetic(9, 64)]));
        body[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
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
        let accepted = Frame::Accepted {
            job: 5,
            tuples_per_page: 75,
        };
        write_frame(&mut wire, &accepted).unwrap();
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
