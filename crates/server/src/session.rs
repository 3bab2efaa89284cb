//! One accepted connection: the server side of the protocol state machine.
//!
//! A session owns exactly one sort. It reads `HELLO`/`SUBMIT`, turns the
//! submission into a [`SortRequest`] whose input is a bounded
//! [`ChannelSource`] — so a slow sort backpressures `INGEST` frames straight
//! through TCP — and then decodes records from the socket into the job's
//! pages, waits on the ticket and frames the sorted pages as it pulls them
//! off the job's last merge step, which runs on this thread: records stay
//! bytes both ways, in one body buffer per connection. While the session is
//! blocked in `write` it holds no lock, so a client that stops reading holds
//! up nobody else.
//! Every abnormal exit (a `CANCEL` frame, a protocol violation, a vanished
//! client) funnels through the same cleanup: cancel the ticket, drop the
//! ingest channel, and see the job out ([`JobOutput::finish`]) so its pages
//! are provably back in the pool before the session ends.

use masort_core::sync::atomic::Ordering;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;

use masort_broker::{JobOutput, SortRequest};
use masort_core::{ChannelSource, DelaySample, SortError, SortOrder, TupleArena};
use masort_trace::EventKind;

use crate::codec::{
    decode_frame, decode_ingest, read_body, read_frame_in, write_egress, write_frame, OP_INGEST,
};
use crate::protocol::{
    ErrorCode, Frame, JobSummary, SubmitSpec, WireError, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use crate::server::ServerShared;

/// Bound of each sort's ingest channel, in pages.
const INGEST_DEPTH: usize = 8;

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
    let mut reader = BufReader::new(&stream);
    let mut writer = BufWriter::new(&stream);
    shared.trace.emit(EventKind::SessionOpen);
    let _ = serve(shared, &mut reader, &mut writer);
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

/// The next frame's body, into `body`, while the server is up; end of stream
/// (`false`) once it is shutting down. A session blocked in here at shutdown
/// is woken by the accept loop shutting down its socket's read half, which
/// also reads as end of stream; the flag covers a session that still has
/// frames queued in the socket.
fn next_body(
    shared: &ServerShared,
    reader: &mut BufReader<&TcpStream>,
    body: &mut Vec<u8>,
) -> io::Result<bool> {
    Ok(!shared.shutdown.load(Ordering::Acquire) && read_body(reader, body)?)
}

/// [`next_body`], decoded.
fn next_frame(
    shared: &ServerShared,
    reader: &mut BufReader<&TcpStream>,
    body: &mut Vec<u8>,
) -> io::Result<Option<Frame>> {
    next_body(shared, reader, body)?
        .then(|| decode_frame(body))
        .transpose()
}

fn serve<W: Write>(
    shared: &Arc<ServerShared>,
    reader: &mut BufReader<&TcpStream>,
    writer: &mut W,
) -> io::Result<()> {
    let body = &mut Vec::new();
    // The opening frame routes the whole connection: HELLO starts a sort,
    // SHUTDOWN / TRACE_REQ / METRICS_REQ are admin commands. An opening
    // frame this version cannot decode (an older client's admin opcode, say)
    // is refused in words.
    let opening = match next_frame(shared, reader, body) {
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            return protocol_error(writer, e.to_string())
        }
        opening => opening?,
    };
    let tenant = match opening {
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
                match next_frame(shared, reader, body)? {
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

    let spec = match read_frame_in(reader, body)? {
        None => return Ok(()),
        Some(Frame::Submit(spec)) => spec,
        Some(other) => {
            return protocol_error(writer, format!("expected SUBMIT, got {}", other.name()))
        }
    };
    run_sort(shared, reader, writer, body, tenant, spec)
}

/// Admit the submission, pump ingest, drain egress. One sort, end to end.
fn run_sort<W: Write>(
    shared: &Arc<ServerShared>,
    reader: &mut BufReader<&TcpStream>,
    writer: &mut W,
    body: &mut Vec<u8>,
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
    let tuples_per_page = cfg.tuples_per_page();
    let record_stride = cfg.record_stride();
    // What the job's own geometry says fits half the frame cap.
    let frame_tuples = EGRESS_CHUNK
        .min(MAX_FRAME_BYTES / 2 / cfg.tuple_size.max(1))
        .max(1);

    let (sink, source) = ChannelSource::bounded(INGEST_DEPTH);
    let source = if spec.expected_tuples != 0 {
        source.expecting_tuples(spec.expected_tuples as usize)
    } else {
        source
    };
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
        },
    )?;

    // -- Ingest ------------------------------------------------------------
    // Records are decoded into pages of the job's own geometry; a full
    // channel blocks `sink.send`, which stops us reading frames, which fills
    // the TCP window — backpressure all the way to the client.
    let mut sink = Some(sink);
    let mut pending = TupleArena::with_capacity(record_stride, tuples_per_page);
    // `Ok` once the input is in; `Err` when ingest ended early, with the
    // protocol violation that ended it, if any.
    let ingest = loop {
        let tx = sink.as_ref().expect("sink alive during ingest");
        // Records go from the body straight into the page under construction;
        // every page that fills is sent, a partial one carries over. A refused
        // page means the sort is already over (failed or reallocated away):
        // stop feeding it, report its fate below. A body that fails to decode
        // cancels the job, so nothing it fed in reaches a result.
        let mut closed = false;
        let frame = match next_body(shared, reader, body) {
            Ok(true) if body[0] == OP_INGEST => match decode_ingest(body, |key, payload| {
                if !closed {
                    pending.push_ref(key, payload);
                    closed = pending.len() == tuples_per_page && tx.send(pending.seal()).is_err();
                }
            }) {
                Ok(()) if closed => break Ok(()),
                Ok(()) => continue,
                Err(e) => Err(e),
            },
            Ok(true) => decode_frame(body).map(Some),
            other => other.map(|_| None),
        };
        let violation = match frame {
            Ok(Some(Frame::Fin)) => {
                let tx = sink.take().expect("sink alive during ingest");
                if !pending.is_empty() {
                    let _ = tx.send(pending.seal());
                }
                tx.finish();
                break Ok(());
            }
            Ok(Some(Frame::Cancel)) => None,
            Ok(Some(other)) => Some(format!(
                "expected INGEST, FIN or CANCEL, got {}",
                other.name()
            )),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => Some(e.to_string()),
            // Client disconnected mid-ingest (or the server is draining and
            // the client went quiet).
            Ok(None) | Err(_) => None,
        };
        // Abort the job. Dropping the sink (below) unblocks a sort waiting
        // for input; cancelling the ticket aborts one that is
        // mid-computation. Either way we still drain the ticket, so by the
        // time this session ends the job's pages are back in the pool and its
        // runs are gone.
        ticket.cancel();
        break Err(violation.map(|detail| WireError::new(ErrorCode::Protocol, detail)));
    };
    drop(sink);

    if let Err(refusal) = ingest {
        // Cancelled, refused or abandoned: see the job out so cleanup is
        // complete, then (best-effort) tell the client.
        let err = match ticket.wait() {
            Err(e) => wire_error(&e),
            // The sort won the race and got to its last merge step before
            // the cancel landed; the client asked us to throw the result
            // away.
            Ok(output) => {
                output.finish();
                wire_error(&SortError::Cancelled)
            }
        };
        return send_error(writer, refusal.unwrap_or(err));
    }

    // -- Egress ------------------------------------------------------------
    let mut output = match ticket.wait() {
        Ok(output) => output,
        Err(e) => return send_error(writer, wire_error(&e)),
    };
    let sent = send_result(&mut output, writer, body, frame_tuples);
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

/// Frame the job's result as its pages are merged: sealed pages, coalesced
/// up to `frame_tuples` records per `EGRESS` frame (and split wherever the
/// frame cap says, for payloads far larger than the job's geometry
/// declared), encoded in `body`. Returns how many tuples went out, or the
/// error that ended the result.
fn send_result<W: Write>(
    output: &mut JobOutput,
    writer: &mut W,
    body: &mut Vec<u8>,
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
                    write_egress(writer, &chunk, body)?;
                    chunk.clear();
                }
            }
            Ok(None) => break,
            Err(e) => return Ok(Err(e)),
        }
    }
    write_egress(writer, &chunk, body)?;
    Ok(Ok(tuples))
}
