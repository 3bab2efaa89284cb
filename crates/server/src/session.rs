//! One accepted connection: the server side of the protocol state machine.
//!
//! A session owns exactly one sort, and the sort runs on the session's
//! thread. It reads `HELLO`/`SUBMIT` and turns the submission into a
//! [`SortRequest`] whose input is the connection's read half ([`Ingest`]):
//! the sort itself reads `INGEST` frames off the socket a page at a time, so
//! what a session holds of its input is one page, whatever the frames' size;
//! a slow sort backpressures the client straight through TCP, and the
//! sort's own error says how the input ended. Any other frame over
//! [`CONTROL_FRAME_BYTES`] is answered `ERR {Protocol}` unread. Redeeming
//! the ticket waits in the admission line (reading no frame meanwhile),
//! then sorts down to the last merge step on this thread; the session
//! writes the sorted pages from where they lie as it pulls them off that
//! step: pages stay pages both ways. While the session is blocked in
//! `write` it holds no lock, so a client that stops reading holds up nobody
//! else, and whatever became of the socket it sees the job out
//! ([`JobOutput::finish`]) so its pages are provably back in the pool
//! before the session ends.

use masort_core::sync::atomic::{AtomicBool, Ordering};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, OnceLock};

use masort_broker::{JobOutput, SortRequest};
use masort_core::{DelaySample, InputSource, Page, SortConfig, SortError, SortOrder, SortResult};
use masort_trace::EventKind;

use crate::codec::{
    over_cap, read_frame_within, read_head, read_page, read_rest, write_egress, write_frame,
    BODY_STEP, CONTROL_FRAME_BYTES, OP_INGEST,
};
use crate::protocol::{
    ErrorCode, Frame, JobSummary, SubmitSpec, WireError, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use crate::server::ServerShared;

/// Tuples per `EGRESS` frame: result pages are coalesced until a frame holds
/// at least this many (and never past half the frame cap at the job's
/// declared tuple size).
const EGRESS_CHUNK: usize = 4096;

/// Map a sort error onto its wire representation.
pub(crate) fn wire_error(e: &SortError) -> WireError {
    match e {
        SortError::BudgetStarved { needed, granted } => WireError {
            code: ErrorCode::BudgetStarved,
            needed: *needed as u64,
            granted: *granted as u64,
            message: e.to_string(),
        },
        SortError::InvalidConfig(_) => WireError::new(ErrorCode::InvalidConfig, e.to_string()),
        SortError::Cancelled => WireError::new(ErrorCode::Cancelled, e.to_string()),
        SortError::CorruptRun { .. } => WireError::new(ErrorCode::CorruptRun, e.to_string()),
        SortError::UnknownRun(_) => WireError::new(ErrorCode::UnknownRun, e.to_string()),
        SortError::Io(_) => WireError::new(ErrorCode::Io, e.to_string()),
    }
}

/// Serve one accepted connection to completion. Socket errors are swallowed
/// — the peer is gone and there is nobody left to tell — but job cleanup
/// always runs.
pub(crate) fn run_session(shared: &Arc<ServerShared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let mut writer = BufWriter::new(&stream);
    shared.trace.emit(EventKind::SessionOpen);
    // The read half goes to the sort at `SUBMIT`, so it is a socket of its own.
    if let Ok(read_half) = stream.try_clone() {
        let reader = BufReader::with_capacity(BODY_STEP, read_half);
        // A frame this version cannot decode, or a control frame over its
        // cap, is refused in words.
        if let Err(e) = serve(shared, reader, &mut writer) {
            if e.kind() == io::ErrorKind::InvalidData {
                let _ = protocol_error(&mut writer, e.to_string());
            }
        }
    }
    shared.trace.emit(EventKind::SessionClose);
    let _ = writer.flush();
    // The accept loop keeps a clone of this socket (it is how a waiting
    // session is woken at shutdown), so dropping ours would leave the
    // connection open; end it explicitly.
    let _ = stream.shutdown(Shutdown::Both);
}

/// Send a frame and flush it out immediately.
fn send<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    write_frame(w, frame)?;
    w.flush()
}

fn send_error<W: Write>(w: &mut W, err: WireError) -> io::Result<()> {
    send(w, &Frame::Error(err))
}

fn protocol_error<W: Write>(w: &mut W, detail: String) -> io::Result<()> {
    send_error(w, WireError::new(ErrorCode::Protocol, detail))
}

/// The next control frame while the server is up; end of stream (`None`)
/// once it is shutting down. A session blocked in here at shutdown is woken
/// by the accept loop shutting down its socket's read half, which also
/// reads as end of stream; the flag covers a session that still has frames
/// queued in the socket.
fn next_frame<R: Read>(shared: &ServerShared, reader: &mut R) -> io::Result<Option<Frame>> {
    if shared.shutdown.load(Ordering::Acquire) {
        return Ok(None);
    }
    read_frame_within(reader, CONTROL_FRAME_BYTES)
}

fn serve<W: Write>(
    shared: &Arc<ServerShared>,
    mut reader: BufReader<TcpStream>,
    writer: &mut W,
) -> io::Result<()> {
    // The opening frame routes the whole connection: HELLO starts a sort,
    // SHUTDOWN / TRACE_REQ / METRICS_REQ are admin commands.
    let tenant = match next_frame(shared, &mut reader)? {
        None => return Ok(()),
        Some(frame @ (Frame::Shutdown | Frame::TraceReq { .. } | Frame::MetricsReq)) => {
            let mut frame = frame;
            // Answer, then allow a monitoring connection to keep polling any
            // mix of the two read-only admin requests.
            loop {
                match frame {
                    Frame::TraceReq { job } => send(
                        writer,
                        &Frame::TraceData {
                            json: shared.trace_json(job),
                        },
                    )?,
                    Frame::MetricsReq | Frame::Shutdown => {
                        let json = shared.metrics_json();
                        send(writer, &Frame::MetricsData { json })?;
                        if let Frame::Shutdown = frame {
                            shared.request_shutdown();
                            return Ok(());
                        }
                    }
                    other => {
                        return protocol_error(
                            writer,
                            format!("unexpected {} on a stats connection", other.name()),
                        )
                    }
                }
                match next_frame(shared, &mut reader)? {
                    Some(next) => frame = next,
                    None => return Ok(()),
                }
            }
        }
        Some(Frame::Hello { version, tenant }) => {
            if version != PROTOCOL_VERSION {
                return send_error(
                    writer,
                    WireError::new(
                        ErrorCode::Protocol,
                        format!(
                            "client speaks protocol version {version}, server speaks {PROTOCOL_VERSION}"
                        ),
                    ),
                );
            }
            tenant
        }
        Some(other) => {
            return protocol_error(writer, format!("expected HELLO, got {}", other.name()))
        }
    };

    if shared.shutdown.load(Ordering::Acquire) {
        return send_error(
            writer,
            WireError::new(ErrorCode::ShuttingDown, "server is draining"),
        );
    }
    send(
        writer,
        &Frame::Welcome {
            version: PROTOCOL_VERSION,
            pool_pages: shared.service.pool_pages() as u64,
        },
    )?;

    let spec = match read_frame_within(&mut reader, CONTROL_FRAME_BYTES)? {
        None => return Ok(()),
        Some(Frame::Submit(spec)) => spec,
        Some(other) => {
            return protocol_error(writer, format!("expected SUBMIT, got {}", other.name()))
        }
    };
    run_sort(shared, reader, writer, tenant, spec)
}

/// Admit the submission, hand the sort its input, drain egress. One sort,
/// end to end.
fn run_sort<W: Write>(
    shared: &Arc<ServerShared>,
    reader: BufReader<TcpStream>,
    writer: &mut W,
    tenant: Option<String>,
    spec: SubmitSpec,
) -> io::Result<()> {
    // Quotas first: a live-job slot (held by RAII guard for the rest of the
    // session) and a per-sort page cap.
    let quota = tenant.as_deref().and_then(|t| shared.tenants.quota(t));
    let _live_guard = match tenant.as_deref() {
        Some(name) => match shared.tenants.claim(name) {
            Ok(guard) => Some(guard),
            Err((live, max)) => {
                return send_error(
                    writer,
                    WireError {
                        code: ErrorCode::QuotaExceeded,
                        needed: live as u64 + 1,
                        granted: max as u64,
                        message: format!(
                            "tenant `{name}` already has {live} of {max} sorts in flight"
                        ),
                    },
                )
            }
        },
        None => None,
    };

    let mut cfg = shared.base_cfg.clone();
    if spec.page_size != 0 {
        cfg = cfg.with_page_size(spec.page_size as usize);
    }
    if spec.tuple_size != 0 {
        cfg = cfg.with_tuple_size(spec.tuple_size as usize);
    }
    if spec.memory_pages != 0 {
        cfg = cfg.with_memory_pages(spec.memory_pages as usize);
    }
    if spec.descending {
        cfg = cfg.with_order(SortOrder::descending());
    }
    let page_cap = quota.map(|q| q.max_pages).unwrap_or(0);
    if page_cap != 0 {
        if spec.min_pages as usize > page_cap {
            return send_error(
                writer,
                WireError {
                    code: ErrorCode::QuotaExceeded,
                    needed: spec.min_pages,
                    granted: page_cap as u64,
                    message: format!(
                        "minimum share of {} pages exceeds the tenant's {page_cap} page cap",
                        spec.min_pages
                    ),
                },
            );
        }
        let capped = cfg.memory_pages.min(page_cap);
        cfg = cfg.with_memory_pages(capped);
    }
    // What the job's own geometry says fits half the frame cap.
    let frame_tuples = EGRESS_CHUNK
        .min(MAX_FRAME_BYTES / 2 / cfg.tuple_size.max(1))
        .max(1);

    let tuples_per_page = cfg.tuples_per_page() as u64;
    let violation = Arc::new(OnceLock::new());
    let stop = Arc::clone(&shared.shutdown);
    let source = Ingest::new(reader, &cfg, spec.expected_tuples, stop, violation.clone());
    let mut request = SortRequest::from_source(cfg, source);
    let priority = match quota.map(|q| q.priority) {
        Some(p) if p != 0 => p,
        _ => spec.priority.max(1),
    };
    request = request.priority(priority);
    if spec.min_pages != 0 {
        request = request.min_pages(spec.min_pages as usize);
    }
    let max_pages = match (spec.max_pages as usize, page_cap) {
        (0, 0) => 0,
        (0, cap) => cap,
        (want, 0) => want,
        (want, cap) => want.min(cap),
    };
    if max_pages != 0 {
        request = request.max_pages(max_pages);
    }
    if let Some(name) = &tenant {
        request = request.tenant(name.clone());
    }

    if shared.shutdown.load(Ordering::Acquire) {
        return send_error(
            writer,
            WireError::new(ErrorCode::ShuttingDown, "server is draining"),
        );
    }
    let ticket = match shared.service.submit(request) {
        Ok(ticket) => ticket,
        Err(e) => return send_error(writer, wire_error(&e)),
    };
    send(
        writer,
        &Frame::Accepted {
            job: ticket.job_id(),
            tuples_per_page,
        },
    )?;

    // -- Egress ------------------------------------------------------------
    // Redeeming runs the sort here, until its input ends at `FIN` and it
    // reaches its root; an input that ended otherwise cancelled it, and a
    // protocol violation says why.
    let mut output = match ticket.wait() {
        Ok(output) => output,
        Err(e) => {
            let err = match violation.get() {
                Some(detail) => WireError::new(ErrorCode::Protocol, detail.clone()),
                None => wire_error(&e),
            };
            return send_error(writer, err);
        }
    };
    let sent = send_result(&mut output, writer, frame_tuples);
    // Whatever became of the socket, the job is over before the session is:
    // sort closed, grant back in the pool.
    let report = output.finish();
    let tuples = match sent? {
        Ok(tuples) => tuples,
        Err(e) => return send_error(writer, wire_error(&e)),
    };
    let (split, delays) = (&report.outcome.split, &report.outcome.delays);
    send(
        writer,
        &Frame::Stats(JobSummary {
            job: report.job,
            tuples,
            queued_for: report.queued_for,
            ran_for: report.ran_for,
            initial_grant: report.initial_grant as u64,
            reallocations: report.reallocations,
            delay_samples: delays.len() as u64,
            total_delay: delays.iter().map(DelaySample::delay).sum(),
            runs_formed: split.runs.len() as u64,
            merge_steps: report.outcome.merge.steps_executed as u64,
            natural_runs: split.natural_runs as u64,
            min_run_tuples: split.min_run_tuples() as u64,
            max_run_tuples: split.max_run_tuples() as u64,
            avg_run_tuples: split.avg_run_tuples(),
        }),
    )
}

/// Frame the job's result as its pages are merged: the sealed pages as they
/// are, coalesced up to `frame_tuples` records per `EGRESS` frame (and cut
/// wherever the frame cap says, for payloads far larger than the job's
/// geometry declared). Returns how many tuples went out, or the error that
/// ended the result.
fn send_result<W: Write>(
    output: &mut JobOutput,
    writer: &mut W,
    frame_tuples: usize,
) -> io::Result<Result<u64, SortError>> {
    let mut tuples = 0u64;
    let mut chunk = Vec::new();
    loop {
        match output.next_page() {
            Ok(Some(page)) => {
                tuples += page.len() as u64;
                chunk.push(page);
                if chunk.iter().map(|p| p.len()).sum::<usize>() >= frame_tuples {
                    write_egress(writer, &chunk)?;
                    chunk.clear();
                }
            }
            Ok(None) => break,
            Err(e) => return Ok(Err(e)),
        }
    }
    write_egress(writer, &chunk)?;
    Ok(Ok(tuples))
}

/// The [`InputSource`] of a served sort. It ends at `FIN`; a `CANCEL`, a
/// protocol violation, a vanished client and a shutdown end the sort with
/// [`SortError::Cancelled`], a violation leaving its detail in `violation`.
struct Ingest<R> {
    reader: BufReader<R>,
    /// Bytes of the current `INGEST` frame not read yet.
    left: usize,
    tuples_per_page: usize,
    expected_tuples: Option<usize>,
    fin: bool,
    /// The server's stop flag, read before every page.
    stop: Arc<AtomicBool>,
    violation: Arc<OnceLock<String>>,
}

impl<R: Read> Ingest<R> {
    /// Read a job's input from `reader` in pages of `cfg`'s geometry;
    /// `expected_tuples` is `SUBMIT`'s figure (0: none declared).
    fn new(
        reader: BufReader<R>,
        cfg: &SortConfig,
        expected_tuples: u64,
        stop: Arc<AtomicBool>,
        violation: Arc<OnceLock<String>>,
    ) -> Self {
        Ingest {
            reader,
            left: 0,
            tuples_per_page: cfg.tuples_per_page(),
            expected_tuples: (expected_tuples != 0).then_some(expected_tuples as usize),
            fin: false,
            stop,
            violation,
        }
    }

    /// Read the next frame's head: an `INGEST` frame to take pages from, or
    /// the whole of `FIN`, or the end of the input. Any error ends the input;
    /// `InvalidData` is a protocol violation.
    fn read_frame(&mut self) -> io::Result<()> {
        let head = read_head(&mut self.reader, MAX_FRAME_BYTES)?;
        match head.ok_or(io::ErrorKind::UnexpectedEof)? {
            (OP_INGEST, len) => self.left = len - 1,
            (_, len) if len > CONTROL_FRAME_BYTES => {
                return Err(over_cap(len, CONTROL_FRAME_BYTES))
            }
            (op, len) => match read_rest(&mut self.reader, op, len)? {
                Frame::Fin => self.fin = true,
                Frame::Cancel => return Err(io::ErrorKind::ConnectionAborted.into()),
                other => {
                    let detail = format!("expected INGEST, FIN or CANCEL, got {}", other.name());
                    return Err(io::Error::new(io::ErrorKind::InvalidData, detail));
                }
            },
        }
        Ok(())
    }

    /// The sort's error for an input that ended in `e`.
    fn end(&self, e: io::Error) -> SortError {
        if e.kind() == io::ErrorKind::InvalidData {
            let _ = self.violation.set(e.to_string());
        }
        SortError::Cancelled
    }
}

impl<R: Read> InputSource for Ingest<R> {
    fn next_page(&mut self) -> SortResult<Option<Page>> {
        while !self.stop.load(Ordering::Acquire) {
            if self.left > 0 {
                let page = read_page(&mut self.reader, self.left, self.tuples_per_page);
                let page = page.map_err(|e| self.end(e))?;
                self.left -= page.wire_bytes().len();
                return Ok(Some(page));
            }
            if self.fin {
                return Ok(None);
            }
            self.read_frame().map_err(|e| self.end(e))?;
        }
        Err(SortError::Cancelled)
    }

    fn total_tuples(&self) -> Option<usize> {
        self.expected_tuples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::write_ingest;
    use masort_core::sync::atomic::AtomicUsize;
    use masort_core::{SortJob, Tuple};

    /// Hands a sort its input's pages, counting them, and raises the
    /// server's stop flag with the tenth.
    struct StopAtTen(Ingest<io::Cursor<Vec<u8>>>, Arc<AtomicUsize>);

    impl InputSource for StopAtTen {
        fn next_page(&mut self) -> SortResult<Option<Page>> {
            let page = self.0.next_page()?;
            if self.1.fetch_add(1, Ordering::Relaxed) == 9 {
                self.0.stop.store(true, Ordering::Release);
            }
            Ok(page)
        }
    }

    /// A stop raised while a sort consumes one `INGEST` frame of 64 pages
    /// cancels the sort at its next pull. (The source also declares
    /// `SUBMIT`'s `expected_tuples` to the sort.)
    #[test]
    fn a_stop_lands_within_a_page_of_a_long_frame() {
        let cfg = SortConfig::default().with_page_size(1024);
        let (per_page, mut wire) = (cfg.tuples_per_page(), Vec::new());
        let n = 64 * per_page as u64;
        let tuples = (0..n).rev().map(|k| Tuple::synthetic(k, 32)).collect();
        write_ingest(&mut wire, tuples, per_page).unwrap();
        let len = u32::from_le_bytes(wire[..4].try_into().unwrap()) as usize;
        assert_eq!(wire.len(), 4 + len, "one frame");
        write_frame(&mut wire, &Frame::Fin).unwrap();
        let (reader, stop) = (BufReader::new(io::Cursor::new(wire)), Arc::default());
        let source = Ingest::new(reader, &cfg, n, stop, Arc::default());
        assert_eq!(source.total_tuples(), Some(n as usize));
        let pulled = Arc::new(AtomicUsize::new(0));
        let job = SortJob::builder()
            .config(cfg)
            .input(StopAtTen(source, Arc::clone(&pulled)));
        let sort = job.build().unwrap().run_to_root();
        assert!(matches!(sort.err(), Some(SortError::Cancelled)));
        assert_eq!(
            pulled.load(Ordering::Relaxed),
            10,
            "pages the sort consumed"
        );
    }
}
