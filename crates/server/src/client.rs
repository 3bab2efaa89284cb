//! A thin synchronous client for the sort server.
//!
//! [`SortClient`] drives one sort per connection: connect (HELLO/WELCOME),
//! [`submit`](SortClient::submit), feed tuples with
//! [`ingest`](SortClient::ingest), then [`finish`](SortClient::finish) and
//! iterate the sorted result. The free functions [`fetch_metrics`],
//! [`fetch_trace`] and [`shutdown_server`] speak the admin side of the
//! protocol.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use masort_core::Tuple;

use crate::codec::{read_frame, write_frame, write_ingest, BODY_STEP};
use crate::protocol::{Frame, JobSummary, SubmitSpec, WireError, PROTOCOL_VERSION};

/// Everything that can go wrong on the client side of a sort.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed.
    Io(io::Error),
    /// The server refused or aborted the sort with a typed error frame.
    Remote(WireError),
    /// The server broke the protocol (sent a frame the state machine does
    /// not allow here, or closed mid-conversation).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "I/O error: {e}"),
            ClientError::Remote(e) => write!(f, "server error: {e}"),
            ClientError::Protocol(d) => write!(f, "protocol error: {d}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Alias for client-side results.
pub type ClientResult<T> = Result<T, ClientError>;

fn unexpected(frame: &Frame, wanted: &str) -> ClientError {
    ClientError::Protocol(format!("expected {wanted}, server sent {}", frame.name()))
}

fn closed(wanted: &str) -> ClientError {
    ClientError::Protocol(format!("server closed the connection, expected {wanted}"))
}

/// One connection to a sort server; one sort per connection.
pub struct SortClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    pool_pages: u64,
    /// Most records per `INGEST` page, from `ACCEPTED`.
    tuples_per_page: usize,
}

impl SortClient {
    /// Connect and perform the HELLO/WELCOME handshake, optionally under a
    /// tenant name.
    pub fn connect(addr: impl ToSocketAddrs, tenant: Option<&str>) -> ClientResult<SortClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::with_capacity(BODY_STEP, stream.try_clone()?);
        let mut client = SortClient {
            reader,
            writer: BufWriter::new(stream),
            pool_pages: 0,
            tuples_per_page: 0,
        };
        client.send(&Frame::Hello {
            version: PROTOCOL_VERSION,
            tenant: tenant.map(str::to_string),
        })?;
        match client.recv("WELCOME")? {
            Frame::Welcome { pool_pages, .. } => {
                client.pool_pages = pool_pages;
                Ok(client)
            }
            Frame::Error(e) => Err(ClientError::Remote(e)),
            other => Err(unexpected(&other, "WELCOME")),
        }
    }

    fn send(&mut self, frame: &Frame) -> ClientResult<()> {
        write_frame(&mut self.writer, frame)?;
        Ok(self.writer.flush()?)
    }

    fn recv(&mut self, wanted: &str) -> ClientResult<Frame> {
        read_frame(&mut self.reader)?.ok_or_else(|| closed(wanted))
    }

    /// Page-pool size the server advertised in WELCOME.
    pub fn pool_pages(&self) -> u64 {
        self.pool_pages
    }

    /// Submit the sort; returns the server-assigned job id.
    pub fn submit(&mut self, spec: SubmitSpec) -> ClientResult<u64> {
        self.send(&Frame::Submit(spec))?;
        match self.recv("ACCEPTED")? {
            Frame::Accepted {
                job,
                tuples_per_page,
            } => {
                self.tuples_per_page = tuples_per_page as usize;
                Ok(job)
            }
            Frame::Error(e) => Err(ClientError::Remote(e)),
            other => Err(unexpected(&other, "ACCEPTED")),
        }
    }

    /// Send one chunk of input tuples, cut into pages of the job's geometry
    /// (`ACCEPTED`'s tuples per page), as `INGEST` frames of whole pages, as
    /// many as the frame cap needs. Blocks when the TCP window fills because
    /// the sort, which reads its own frames, takes no more input — that is
    /// the sort's backpressure reaching the producer.
    pub fn ingest(&mut self, tuples: Vec<Tuple>) -> ClientResult<()> {
        let per_page = self.tuples_per_page;
        write_ingest(&mut self.writer, tuples, per_page)?;
        Ok(self.writer.flush()?)
    }

    /// Declare end of input and switch to draining the sorted result.
    pub fn finish(mut self) -> ClientResult<Completed> {
        self.send(&Frame::Fin)?;
        Ok(Completed {
            client: self,
            chunk: Vec::new().into_iter(),
            summary: None,
            failed: false,
        })
    }

    /// Abort the in-flight sort. The server answers with a `Cancelled`
    /// error frame, which this call consumes.
    pub fn cancel(mut self) -> ClientResult<WireError> {
        self.send(&Frame::Cancel)?;
        match self.recv("ERR")? {
            Frame::Error(e) => Ok(e),
            other => Err(unexpected(&other, "ERR")),
        }
    }
}

/// The draining half of a sort: iterate the sorted tuples, then read the
/// [`summary`](Completed::summary). After the first error (an `ERR` frame,
/// a closed or failed socket, a frame out of place) the iterator fuses: it
/// returns `None` forever.
pub struct Completed {
    client: SortClient,
    chunk: std::vec::IntoIter<Tuple>,
    summary: Option<JobSummary>,
    failed: bool,
}

impl Completed {
    /// Per-job statistics from the terminal `STATS` frame. `None` until the
    /// iterator has been fully drained.
    pub fn summary(&self) -> Option<&JobSummary> {
        self.summary.as_ref()
    }

    /// Drain every tuple into a vector and return it with the summary.
    pub fn into_sorted_vec(mut self) -> ClientResult<(Vec<Tuple>, JobSummary)> {
        let mut out = Vec::new();
        for tuple in &mut self {
            out.push(tuple?);
        }
        let summary = self
            .summary
            .take()
            .expect("summary present after a fully drained stream");
        Ok((out, summary))
    }
}

impl Iterator for Completed {
    type Item = ClientResult<Tuple>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(tuple) = self.chunk.next() {
                return Some(Ok(tuple));
            }
            if self.summary.is_some() || self.failed {
                return None;
            }
            let err = match self.client.recv("EGRESS or STATS") {
                Ok(Frame::Egress(tuples)) => {
                    self.chunk = tuples.into_iter();
                    continue;
                }
                Ok(Frame::Stats(summary)) => {
                    self.summary = Some(summary);
                    return None;
                }
                Ok(Frame::Error(e)) => ClientError::Remote(e),
                Ok(other) => unexpected(&other, "EGRESS or STATS"),
                Err(e) => e,
            };
            self.failed = true;
            return Some(Err(err));
        }
    }
}

/// Ask a server to drain and exit; returns its metrics as of the request, as
/// [`fetch_metrics`] does.
pub fn shutdown_server(addr: impl ToSocketAddrs) -> ClientResult<String> {
    metrics(addr, Frame::Shutdown)
}

/// Fetch one job's event timeline as a JSON document (the raw `TRACE_DATA`
/// payload; parse with [`masort_trace::trace_from_json`]).
pub fn fetch_trace(addr: impl ToSocketAddrs, job: u64) -> ClientResult<String> {
    match admin_frame(addr, Frame::TraceReq { job }, "TRACE_DATA")? {
        Frame::TraceData { json } => Ok(json),
        other => Err(unexpected(&other, "TRACE_DATA")),
    }
}

/// Fetch the server's service-wide metrics registry as a JSON document (the
/// raw `METRICS_DATA` payload; parse with [`masort_trace::metrics_from_json`]).
pub fn fetch_metrics(addr: impl ToSocketAddrs) -> ClientResult<String> {
    metrics(addr, Frame::MetricsReq)
}

fn metrics(addr: impl ToSocketAddrs, frame: Frame) -> ClientResult<String> {
    match admin_frame(addr, frame, "METRICS_DATA")? {
        Frame::MetricsData { json } => Ok(json),
        other => Err(unexpected(&other, "METRICS_DATA")),
    }
}

/// One-shot admin exchange: connect, send `frame`, read the reply.
fn admin_frame(addr: impl ToSocketAddrs, frame: Frame, wanted: &str) -> ClientResult<Frame> {
    let stream = TcpStream::connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    write_frame(&mut writer, &frame)?;
    writer.flush()?;
    match read_frame(&mut reader)? {
        Some(Frame::Error(e)) => Err(ClientError::Remote(e)),
        Some(reply) => Ok(reply),
        None => Err(closed(wanted)),
    }
}
