//! The wire protocol: frame types, error codes and protocol constants.
//!
//! Every message on the wire is one *frame*: a little-endian `u32` length
//! prefix followed by `length` bytes of body, where the body's first byte is
//! the opcode and the rest is the opcode-specific payload (see [`crate::codec`]
//! for the byte-level encoding). The length prefix covers the body only, and
//! is capped at [`MAX_FRAME_BYTES`] so a corrupt or hostile prefix cannot make
//! the server allocate unbounded memory.
//!
//! A sort conversation is:
//!
//! ```text
//! client                          server
//! ------                          ------
//! HELLO {version, tenant}   -->
//!                           <--   WELCOME {version, pool}           (or ERR)
//! SUBMIT {geometry, shares} -->
//!                           <--   ACCEPTED {job, tuples/page}       (or ERR)
//! INGEST {pages}            -->   (repeated; read by the sort itself,
//! INGEST {pages}            -->    a page at a time: backpressured)
//! FIN                       -->
//!                           <--   EGRESS {pages}                    (repeated)
//!                           <--   STATS {job summary}               (or ERR)
//! ```
//!
//! `INGEST` and `EGRESS` carry whole pages in the store's page encoding (see
//! [`crate::codec`]). An `INGEST` page holds at least one record and at most
//! the tuples per page `ACCEPTED` names; the server hands it to the sort as
//! it arrives, checked but not re-packed.
//!
//! `CANCEL` may replace any `INGEST`; the server aborts the job and answers
//! with `ERR {Cancelled}`. A connection that drops mid-ingest, or a shutdown,
//! aborts its job the same way — the sort is cancelled, its pages return to
//! the pool and its runs are deleted.
//!
//! An admin connection opens with `METRICS_REQ` or `TRACE_REQ {job}` instead
//! of `HELLO` (answered with `METRICS_DATA {json}` / `TRACE_DATA {json}`, and
//! repeatable), or with `SHUTDOWN`, answered with `METRICS_DATA` before the
//! server drains. `METRICS_DATA` is the service's one set of books: every
//! counter the broker keeps, and the pool / live / queued gauges.

use masort_core::Tuple;

/// Version this crate speaks. A `HELLO` carrying any other version is
/// answered with an [`ErrorCode::Protocol`] error. Version 2 dropped the
/// run-formation byte that ended version 1's `SUBMIT` payload; version 3
/// dropped the four-byte compute-worker count from the middle of it; version
/// 4 dropped the arbitration-policy name from the end of `WELCOME`; version 5
/// dropped the service-counters request and its reply (opcodes `0x0C` /
/// `0x0D`, now unknown) and answers `SHUTDOWN` with `METRICS_DATA`; version
/// 6 carries `INGEST` and `EGRESS` records as pages in the store's encoding,
/// not one record at a time, and adds the job's tuples per page to
/// `ACCEPTED`.
pub const PROTOCOL_VERSION: u32 = 6;

/// Upper bound on one frame's body (opcode + payload), enforced on both
/// send and receive. 16 MiB comfortably fits the largest egress chunk while
/// bounding what a corrupt length prefix can ask the receiver to allocate.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Typed error delivered in an `ERR` frame.
///
/// `needed` / `granted` carry the page arithmetic for
/// [`BudgetStarved`](ErrorCode::BudgetStarved) and
/// [`QuotaExceeded`](ErrorCode::QuotaExceeded); they are zero for the other
/// codes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// What went wrong, as a stable numeric class.
    pub code: ErrorCode,
    /// Pages (or slots) the request needed, for capacity errors.
    pub needed: u64,
    /// Pages (or slots) actually available, for capacity errors.
    pub granted: u64,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Shorthand for an error with no capacity arithmetic.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        WireError {
            code,
            needed: 0,
            granted: 0,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)?;
        if self.needed > 0 || self.granted > 0 {
            write!(f, " (needed {}, granted {})", self.needed, self.granted)?;
        }
        Ok(())
    }
}

/// Stable numeric error classes for `ERR` frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The job's minimum share exceeds the whole pool (maps
    /// `SortError::BudgetStarved`).
    BudgetStarved = 1,
    /// Unusable sort configuration.
    InvalidConfig = 2,
    /// An I/O failure inside the sort (or the job panicked, or the server
    /// could not start a thread for the connection).
    Io = 3,
    /// The job was cancelled — by a `CANCEL` frame or a client disconnect.
    Cancelled = 4,
    /// The peer broke the framing or sent a frame the state machine does not
    /// allow here.
    Protocol = 5,
    /// The tenant is over one of its quotas (live jobs or pages).
    QuotaExceeded = 6,
    /// A stored run failed to decode server-side.
    CorruptRun = 7,
    /// The sort referenced a run its store never created.
    UnknownRun = 8,
    /// The server is draining and no longer accepts new sorts.
    ShuttingDown = 9,
}

impl ErrorCode {
    /// Decode a wire byte; `None` for unknown codes.
    pub fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::BudgetStarved,
            2 => ErrorCode::InvalidConfig,
            3 => ErrorCode::Io,
            4 => ErrorCode::Cancelled,
            5 => ErrorCode::Protocol,
            6 => ErrorCode::QuotaExceeded,
            7 => ErrorCode::CorruptRun,
            8 => ErrorCode::UnknownRun,
            9 => ErrorCode::ShuttingDown,
            _ => return None,
        })
    }
}

/// Everything a `SUBMIT` frame says about the job: sort geometry plus the
/// broker-facing shares. Zero means "use the server default" for every
/// field except `priority` (where the default is literally 1) and the two
/// flags.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubmitSpec {
    /// Scheduling priority (larger = more important; 0 is treated as 1).
    pub priority: u32,
    /// Guaranteed minimum pages (0 = service default of 1).
    pub min_pages: u64,
    /// Maximum useful pages (0 = the job's `memory_pages`).
    pub max_pages: u64,
    /// Pages the sort would like (0 = server default).
    pub memory_pages: u64,
    /// Page size in bytes (0 = server default).
    pub page_size: u64,
    /// Nominal tuple size in bytes, for page geometry (0 = server default).
    pub tuple_size: u64,
    /// Tuples the client intends to send (0 = unknown); a planning hint only.
    pub expected_tuples: u64,
    /// Ignored: every job's runs spill to a temporary file. Kept, with
    /// its `SUBMIT` byte, only because the benchmark harness still sets it.
    pub spill: bool,
    /// Sort descending instead of ascending.
    pub descending: bool,
}

impl Default for SubmitSpec {
    fn default() -> Self {
        SubmitSpec {
            priority: 1,
            min_pages: 0,
            max_pages: 0,
            memory_pages: 0,
            page_size: 0,
            tuple_size: 0,
            expected_tuples: 0,
            spill: false,
            descending: false,
        }
    }
}

/// Per-job statistics delivered in the terminal `STATS` frame, after the
/// last `EGRESS` chunk.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobSummary {
    /// Server-assigned job identifier (same as in `ACCEPTED`).
    pub job: u64,
    /// Tuples in the sorted result.
    pub tuples: u64,
    /// Seconds the job waited for admission.
    pub queued_for: f64,
    /// Seconds between admission and completion.
    pub ran_for: f64,
    /// Pages the broker granted at admission.
    pub initial_grant: u64,
    /// Mid-flight page-target changes the broker pushed into the running job.
    pub reallocations: u64,
    /// Shrink-delay samples the sort recorded (the paper's delays).
    pub delay_samples: u64,
    /// Summed duration of those delays, in seconds.
    pub total_delay: f64,
    /// Sorted runs the split phase formed.
    pub runs_formed: u64,
    /// Merge steps executed.
    pub merge_steps: u64,
    /// Natural (pre-existing) runs adaptive formation detected in the input
    /// (0 under classic formation).
    pub natural_runs: u64,
    /// Tuples in the shortest run (0 if no runs were formed).
    pub min_run_tuples: u64,
    /// Tuples in the longest run (0 if no runs were formed).
    pub max_run_tuples: u64,
    /// Mean tuples per run (0 if no runs were formed).
    pub avg_run_tuples: f64,
}

/// One protocol frame. See the module docs for the conversation and
/// [`crate::codec`] for the encoding.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client's opening: protocol version + optional tenant name.
    Hello {
        /// Protocol version the client speaks.
        version: u32,
        /// Tenant to account (and quota) this connection under.
        tenant: Option<String>,
    },
    /// Server's answer to `HELLO`.
    Welcome {
        /// Protocol version the server speaks.
        version: u32,
        /// Current size of the brokered page pool.
        pool_pages: u64,
    },
    /// Describe the sort to run.
    Submit(SubmitSpec),
    /// The job was admitted to the queue.
    Accepted {
        /// Server-assigned job identifier.
        job: u64,
        /// Most records an `INGEST` page may hold: the job's page geometry.
        tuples_per_page: u64,
    },
    /// A chunk of input tuples, sent as pages.
    Ingest(Vec<Tuple>),
    /// End of input: the client has sent every tuple.
    Fin,
    /// A chunk of sorted output tuples, sent as pages.
    Egress(Vec<Tuple>),
    /// Terminal frame of a successful sort: per-job statistics. Arrives
    /// after the last `EGRESS` chunk.
    Stats(JobSummary),
    /// Terminal frame of a failed (or refused, or cancelled) exchange.
    Error(WireError),
    /// Abort the in-flight job.
    Cancel,
    /// Ask the server to drain in-flight sorts and exit (sent instead of
    /// `HELLO`); answered with `METRICS_DATA`.
    Shutdown,
    /// Ask for one job's event timeline (sent instead of `HELLO`). The job
    /// id is the server-assigned id from `ACCEPTED`.
    TraceReq {
        /// Job whose timeline to fetch.
        job: u64,
    },
    /// Answer to `TRACE_REQ`: the job's events as a JSON document (the
    /// `masort_trace` trace-snapshot schema; empty event list for unknown
    /// jobs, which are indistinguishable from jobs that emitted nothing).
    TraceData {
        /// JSON text, parseable with `masort_trace::trace_from_json`.
        json: String,
    },
    /// Ask for the service-wide metrics registry (sent instead of `HELLO`).
    MetricsReq,
    /// Answer to `METRICS_REQ` and `SHUTDOWN`: every counter/gauge/histogram
    /// as a JSON document (the `masort_trace` metrics-snapshot schema).
    MetricsData {
        /// JSON text, parseable with `masort_trace::metrics_from_json`.
        json: String,
    },
}

impl Frame {
    /// The frame's opcode byte (first byte of the body).
    pub(crate) fn opcode(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 0x01,
            Frame::Welcome { .. } => 0x02,
            Frame::Submit(_) => 0x03,
            Frame::Accepted { .. } => 0x04,
            Frame::Ingest(_) => 0x05,
            Frame::Fin => 0x06,
            Frame::Egress(_) => 0x07,
            Frame::Stats(_) => 0x08,
            Frame::Error(_) => 0x09,
            Frame::Cancel => 0x0A,
            Frame::Shutdown => 0x0B,
            Frame::TraceReq { .. } => 0x0E,
            Frame::TraceData { .. } => 0x0F,
            Frame::MetricsReq => 0x10,
            Frame::MetricsData { .. } => 0x11,
        }
    }

    /// Short human name, for protocol-error messages.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "HELLO",
            Frame::Welcome { .. } => "WELCOME",
            Frame::Submit(_) => "SUBMIT",
            Frame::Accepted { .. } => "ACCEPTED",
            Frame::Ingest(_) => "INGEST",
            Frame::Fin => "FIN",
            Frame::Egress(_) => "EGRESS",
            Frame::Stats(_) => "STATS",
            Frame::Error(_) => "ERR",
            Frame::Cancel => "CANCEL",
            Frame::Shutdown => "SHUTDOWN",
            Frame::TraceReq { .. } => "TRACE_REQ",
            Frame::TraceData { .. } => "TRACE_DATA",
            Frame::MetricsReq => "METRICS_REQ",
            Frame::MetricsData { .. } => "METRICS_DATA",
        }
    }
}
