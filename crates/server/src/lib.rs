//! # masort-server — the memory-adaptive sort broker, served over the network
//!
//! The paper's setting is a database *server*: queries arrive from many
//! clients, each external sort competes for buffer memory, and the memory
//! manager re-divides the pool as the mix changes. `masort-broker` built that
//! broker in-process; this crate puts it behind a socket. A standalone
//! `masort-server` binary owns one [`SortService`](masort_broker::SortService)
//! and speaks a small length-prefixed frame protocol over TCP; every
//! connection is one sort, and an arbitrary number of remote clients contend
//! for the same page pool — growing, shrinking, suspending and splitting
//! mid-flight exactly as local submissions do.
//!
//! The pieces:
//!
//! - [`protocol`] / [`codec`] — the frame types and their defensive
//!   byte-level encoding (`u32` length prefix, opcode byte, bounded
//!   allocations, no panics on malformed input).
//! - [`Server`] — the accept loop: one session thread per connection, a
//!   shared [`SortService`](masort_broker::SortService) underneath, per-tenant
//!   quotas, cooperative drain-and-exit shutdown.
//! - [`SortClient`] — a thin synchronous client: handshake, submit, stream
//!   tuples in, iterate sorted tuples out. Ingest is backpressured end to
//!   end: a sort that cannot take more input stops reading its channel, the
//!   session stops reading the socket, and the client's `ingest` blocks on
//!   the TCP window. Egress is the mirror image: the session runs the job's
//!   last merge step ([`JobOutput`](masort_broker::JobOutput)) and frames
//!   each page it produces, so the result goes from the merge to the socket
//!   without being written — and a client that stops reading holds up
//!   nobody but itself.
//! - Two binaries: `masort-server` (serve a pool) and `masort-cli`
//!   (sort stdin to stdout over the network).
//!
//! ```no_run
//! use masort_server::{Server, SortClient, SubmitSpec};
//! use masort_core::Tuple;
//!
//! let handle = Server::builder().pool_pages(32).bind("127.0.0.1:0")?.spawn();
//!
//! let mut client = SortClient::connect(handle.addr(), Some("acme"))?;
//! client.submit(SubmitSpec { memory_pages: 8, ..SubmitSpec::default() })?;
//! client.ingest((0..10_000u64).rev().map(|k| Tuple::synthetic(k, 64)).collect())?;
//! let (sorted, summary) = client.finish()?.into_sorted_vec()?;
//! assert_eq!(sorted.len(), 10_000);
//! assert!(summary.runs_formed >= 1);
//!
//! handle.join();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod codec;
pub mod protocol;
pub mod server;
mod session;
pub mod tenant;

pub use client::{
    fetch_metrics, fetch_trace, shutdown_server, ClientError, ClientResult, Completed, SortClient,
};
pub use protocol::{
    ErrorCode, Frame, JobSummary, SubmitSpec, WireError, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
pub use server::{Server, ServerBuilder, ServerHandle};
pub use tenant::TenantQuota;

/// Convenient glob import of the server- and client-facing types.
pub mod prelude {
    pub use crate::client::{
        fetch_metrics, fetch_trace, shutdown_server, ClientError, ClientResult, Completed,
        SortClient,
    };
    pub use crate::protocol::{
        ErrorCode, Frame, JobSummary, SubmitSpec, WireError, PROTOCOL_VERSION,
    };
    pub use crate::server::{Server, ServerBuilder, ServerHandle};
    pub use crate::tenant::TenantQuota;
}
