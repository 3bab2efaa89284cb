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
//! area), so a record has one encoder and one decoder, `masort_core`'s. No
//! such payload is held whole: one reader takes it a page at a time, from a
//! socket or a slice, each page into a buffer of its own sized by its header
//! ([`Page::wire_len`]) and checked as a run page read from disk is
//! ([`Page::decode_at`]); a page with no records is refused besides. The
//! writers send pages from where they lie, behind the frame's prefix
//! ([`write_egress`]). A [`Frame::Ingest`] or [`Frame::Egress`] holds tuples:
//! it encodes them as one page (none when empty) and decodes to the tuples
//! of all its pages, so a synthetic payload stays synthetic.
//!
//! Decoding is defensive: every read is bounds-checked against the body, the
//! length prefix is capped at [`MAX_FRAME_BYTES`], a buffer grows as its
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

/// How far a buffer is grown ahead of the bytes that have arrived, so a
/// length prefix alone costs the reader at most this much; also the
/// capacity of the session's and the client's read buffers.
pub(crate) const BODY_STEP: usize = 64 << 10;

/// The most bytes of a frame other than `INGEST` that the server reads: a
/// longer one is refused before its body is read.
pub(crate) const CONTROL_FRAME_BYTES: usize = 4 << 10;

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
                buf.extend_from_slice(Page::from_tuples(tuples).wire_bytes());
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
    let body = encode_frame(frame);
    if body.len() > MAX_FRAME_BYTES {
        let (name, len) = (frame.name(), body.len());
        let detail =
            format!("{name} frame body is {len} bytes, over the {MAX_FRAME_BYTES} byte frame cap");
        return Err(io::Error::new(io::ErrorKind::InvalidInput, detail));
    }
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(&body)
}

/// Write `pages`, in order, as `EGRESS` frames of whole pages, each closed
/// where the next page would take it over [`MAX_FRAME_BYTES`]: a frame's
/// prefix and opcode, then each page's own bytes, with no body built. A
/// page too large for a frame of its own (records far longer than the job
/// declared) is sealed again as smaller pages; a record that does not fit a
/// frame is refused with `InvalidInput` before a byte is written.
pub fn write_egress<W: Write>(w: &mut W, pages: &[Page]) -> io::Result<()> {
    write_pages(w, OP_EGRESS, pages)
}

/// Cut `tuples` into pages of at most `most` records and write them as
/// [`write_egress`] writes pages, in `INGEST` frames.
pub(crate) fn write_ingest<W: Write>(w: &mut W, tuples: Vec<Tuple>, most: usize) -> io::Result<()> {
    let pages: Vec<Page> = tuples.chunks(most.max(1)).map(Page::from_tuples).collect();
    write_pages(w, OP_INGEST, &pages)
}

/// Whether `page` fits a frame of its own, after the opcode.
fn fits(page: &Page) -> bool {
    page.wire_bytes().len() < MAX_FRAME_BYTES
}

fn write_pages<W: Write>(w: &mut W, op: u8, pages: &[Page]) -> io::Result<()> {
    if !pages.iter().all(fits) {
        // Payloads far over the job's declared size: a page per record.
        let one = |t| Page::from_tuples([t]);
        let cut: Vec<Page> = pages.iter().flat_map(Page::tuples).map(one).collect();
        if !cut.iter().all(fits) {
            let detail = format!("a record is over the {MAX_FRAME_BYTES} byte frame cap");
            return Err(io::Error::new(io::ErrorKind::InvalidInput, detail));
        }
        return write_pages(w, op, &cut);
    }
    let mut rest = pages;
    while !rest.is_empty() {
        let (mut n, mut len) = (0, 1);
        while let Some(page) = rest
            .get(n)
            .filter(|p| len + p.wire_bytes().len() <= MAX_FRAME_BYTES)
        {
            len += page.wire_bytes().len();
            n += 1;
        }
        let mut head = [op; 5];
        head[..4].copy_from_slice(&(len as u32).to_le_bytes());
        w.write_all(&head)?;
        let (frame, after) = rest.split_at(n);
        for page in frame {
            w.write_all(page.wire_bytes())?;
        }
        rest = after;
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

    fn take(&mut self, n: usize, what: &str) -> io::Result<&'a [u8]> {
        let slice = self.buf[self.pos..].get(..n);
        let slice = slice.ok_or_else(|| malformed(format!("truncated {what}")))?;
        self.pos += n;
        Ok(slice)
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
        String::from_utf8(self.take(len, what)?.to_vec())
            .map_err(|_| malformed(format!("{what} is not UTF-8")))
    }

    fn bool(&mut self, what: &str) -> io::Result<bool> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(malformed(format!(
                "{what} flag byte is {v}, expected 0 or 1"
            ))),
        }
    }

    fn finish(self, frame: &'static str) -> io::Result<()> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(malformed(format!(
                "{n} trailing bytes after {frame} payload"
            ))),
        }
    }
}

/// Decode one frame body (as produced by [`encode_frame`]). Rejects unknown
/// opcodes, truncated payloads and trailing garbage with
/// [`io::ErrorKind::InvalidData`].
pub fn decode_frame(body: &[u8]) -> io::Result<Frame> {
    // Pages are read from a body as from a stream.
    if let [op @ (OP_INGEST | OP_EGRESS), pages @ ..] = body {
        return read_rest(&mut &pages[..], *op, body.len());
    }
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
        0x06 => Frame::Fin,
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
            let code = ErrorCode::from_u8(raw)
                .ok_or_else(|| malformed(format!("unknown error code {raw}")))?;
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
        other => return Err(malformed(format!("unknown opcode 0x{other:02X}"))),
    };
    let name = frame.name();
    c.finish(name)?;
    Ok(frame)
}

fn malformed(detail: String) -> io::Error {
    let detail = format!("malformed frame: {detail}");
    io::Error::new(io::ErrorKind::InvalidData, detail)
}

/// Read the next page of an `INGEST` or `EGRESS` payload, `left` bytes of
/// its frame still to come. A page with no records, more than `most`, or
/// more bytes than are left is refused (`InvalidData`) before its buffer is
/// allocated; the buffer grows as the bytes arrive, and the page is checked
/// as a run page read from disk is.
pub(crate) fn read_page<R: Read>(r: &mut R, left: usize, most: usize) -> io::Result<Page> {
    let mut header = [0; _];
    if left < header.len() {
        return Err(malformed(format!("{left} bytes left for a page")));
    }
    r.read_exact(&mut header)?;
    let (records, len) = Page::wire_len(&header);
    if records == 0 || records > most || len > left as u64 {
        return Err(malformed(match records > most {
            true => format!("a page of {records} records, over the job's {most} per page"),
            false => format!("a page of {records} records in {len} bytes, {left} bytes left"),
        }));
    }
    let mut buf = Vec::with_capacity((len as usize).min(header.len() + BODY_STEP));
    buf.extend_from_slice(&header);
    read_grown(r, &mut buf, len as usize)?;
    Page::decode_at(&Arc::new(buf), 0).map_err(|detail| malformed(format!("page: {detail}")))
}

/// The tuples of the pages in the next `left` bytes of `r`.
fn read_tuples<R: Read>(r: &mut R, mut left: usize) -> io::Result<Vec<Tuple>> {
    let mut tuples = Vec::new();
    while left > 0 {
        let page = read_page(r, left, usize::MAX)?;
        left -= page.wire_bytes().len();
        tuples.extend((0..page.len()).map(|i| page.get(i)));
    }
    Ok(tuples)
}

/// Fill `buf` from `r` up to `len` bytes, growing it at most
/// [`BODY_STEP`] ahead of the bytes that have arrived.
fn read_grown<R: Read>(r: &mut R, buf: &mut Vec<u8>, len: usize) -> io::Result<()> {
    while buf.len() < len {
        let at = buf.len();
        buf.reserve_exact(BODY_STEP.min(len - at));
        buf.resize(len.min(at + BODY_STEP), 0);
        r.read_exact(&mut buf[at..])?;
    }
    Ok(())
}

/// The error for a frame of `len` bytes where at most `most` are read.
pub(crate) fn over_cap(len: usize, most: usize) -> io::Error {
    malformed(format!("{len} byte body exceeds the {most} byte cap"))
}

/// Read the next frame's length prefix and opcode: `None` on a clean end of
/// stream, else the opcode and the frame's length, opcode included. A
/// length of 0 or over `most` is `InvalidData` before the opcode is read,
/// and a close inside the prefix `UnexpectedEof`.
pub(crate) fn read_head<R: Read>(r: &mut R, most: usize) -> io::Result<Option<(u8, usize)>> {
    // A clean end of stream comes before a frame's first byte.
    let mut head = [0u8; 5];
    loop {
        match r.read(&mut head[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    r.read_exact(&mut head[1..4])?;
    match u32::from_le_bytes(head[..4].try_into().unwrap()) as usize {
        0 => Err(malformed("zero-length body".into())),
        len if len > most => Err(over_cap(len, most)),
        len => r.read_exact(&mut head[4..]).map(|()| Some((head[4], len))),
    }
}

/// The rest of a frame of `len` bytes whose opcode `op` [`read_head`] read:
/// an `INGEST` or `EGRESS` payload a page at a time, any other body whole.
pub(crate) fn read_rest<R: Read>(r: &mut R, op: u8, len: usize) -> io::Result<Frame> {
    match op {
        OP_INGEST => read_tuples(r, len - 1).map(Frame::Ingest),
        OP_EGRESS => read_tuples(r, len - 1).map(Frame::Egress),
        _ => {
            let mut body = vec![op];
            read_grown(r, &mut body, len)?;
            decode_frame(&body)
        }
    }
}

/// Read one length-prefixed frame, blocking until it arrives.
///
/// Returns `Ok(None)` on a clean end-of-stream (the peer closed between
/// frames, or this side shut the socket's read half down); a close *inside*
/// a frame is [`io::ErrorKind::UnexpectedEof`]. A length prefix over
/// [`MAX_FRAME_BYTES`] is rejected before any body allocation; an `INGEST`
/// or `EGRESS` payload is read a page at a time, and no buffer is grown
/// more than 64 KiB ahead of the bytes that arrived.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Frame>> {
    read_frame_within(r, MAX_FRAME_BYTES)
}

/// [`read_frame`] for a frame of at most `most` bytes: a longer one is
/// `InvalidData` from its length prefix alone.
pub(crate) fn read_frame_within<R: Read>(r: &mut R, most: usize) -> io::Result<Option<Frame>> {
    read_head(r, most)?
        .map(|(op, len)| read_rest(r, op, len))
        .transpose()
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
