//! The server: a TCP accept loop in front of one [`SortService`].
//!
//! Every accepted connection becomes a session on its own thread
//! (`masort-s-{n}`, `n` counting connections from 0; the prefix is short so
//! that Linux's 15-byte thread name keeps six digits of the number), and its
//! sort runs there from admission to the last record: it reads its `INGEST`
//! frames off the connection as it forms runs, and its last merge step runs
//! as the session frames the result. So hundreds of connections contend for
//! the same page pool — exactly the multi-query pressure the paper's broker
//! arbitrates — and a client that stops reading holds nobody else up.
//!
//! Nothing here polls. The accept loop blocks in `accept()`, and every
//! session (or the sort reading its input) blocks in `read()`; shutdown (via
//! [`ServerHandle::join`] or a `SHUTDOWN` frame) flips a flag and *wakes*
//! them — the accept loop by a loop-back connection to its own listener, each
//! connection by shutting down the read half of its socket, which the blocked
//! read sees as end of stream. A sort reads the flag before every input page,
//! so one still consuming a long frame stops within a page; sorts past their
//! input drain their egress, and the underlying service is torn down only
//! after every session thread has been joined.

use masort_core::sync::atomic::{AtomicBool, Ordering};
use masort_core::sync::thread::{self, JoinHandle};
use std::collections::HashMap;
use std::io;
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::Arc;
use std::time::Duration;

use masort_broker::{job_span, ServiceStats, SortService};
use masort_core::SortConfig;
use masort_trace::{metrics_to_json, trace_to_json, Recorder, Trace};

use crate::codec::write_frame;
use crate::protocol::{ErrorCode, Frame, WireError};
use crate::session::run_session;
use crate::tenant::{TenantQuota, TenantRegistry};

/// Raise the shutdown flag and wake the accept loop blocked on the listener
/// at `addr` with a throw-away loop-back connection. A connect that fails
/// leaves the loop asleep until the next client arrives; it then sees the
/// flag.
fn request_shutdown(flag: &AtomicBool, addr: SocketAddr) {
    flag.store(true, Ordering::Release);
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    let _ = TcpStream::connect(SocketAddr::new(ip, addr.port()));
}

/// Everything a session needs from the server, shared across session threads.
pub(crate) struct ServerShared {
    /// The brokered sort service all sessions submit into.
    pub(crate) service: SortService,
    /// Tenant quotas and live-job accounting.
    pub(crate) tenants: TenantRegistry,
    /// Cooperative shutdown flag, also held by [`ServerHandle`]. Raise it
    /// through [`request_shutdown`](Self::request_shutdown) only.
    pub(crate) shutdown: Arc<AtomicBool>,
    /// The listener's bound address (what a shutdown connects to).
    addr: SocketAddr,
    /// Defaults a `SUBMIT` frame's zero fields fall back to.
    pub(crate) base_cfg: SortConfig,
    /// Always-enabled recorder handle: the service and every job feed it,
    /// and `TRACE_REQ` frames are answered from it.
    pub(crate) trace: Trace,
}

impl ServerShared {
    /// Stop accepting, wake every waiting session, drain (a `SHUTDOWN` frame).
    pub(crate) fn request_shutdown(&self) {
        request_shutdown(&self.shutdown, self.addr);
    }

    /// One job's event timeline as a pretty-printed JSON document
    /// (the `TRACE_DATA` payload).
    pub(crate) fn trace_json(&self, job: u64) -> String {
        let recorder = self
            .trace
            .recorder()
            .expect("server trace handle is always enabled");
        trace_to_json(&recorder.snapshot().for_span(job_span(job))).to_pretty_string()
    }

    /// The service's metrics as a pretty-printed JSON document (the
    /// `METRICS_DATA` payload).
    pub(crate) fn metrics_json(&self) -> String {
        metrics_to_json(&self.service.metrics()).to_pretty_string()
    }
}

/// Configures and binds a [`Server`]. Obtain one with [`Server::builder`].
#[derive(Clone)]
pub struct ServerBuilder {
    pool_pages: usize,
    workers: usize,
    base_cfg: SortConfig,
    tenants: HashMap<String, TenantQuota>,
}

impl Default for ServerBuilder {
    fn default() -> Self {
        ServerBuilder {
            pool_pages: 64,
            workers: 4,
            base_cfg: SortConfig::default()
                .with_page_size(4096)
                .with_tuple_size(64)
                .with_memory_pages(16),
            tenants: HashMap::new(),
        }
    }
}

impl ServerBuilder {
    /// Size of the global page pool the broker divides.
    pub fn pool_pages(mut self, pages: usize) -> Self {
        self.pool_pages = pages;
        self
    }

    /// How many sorts may be between their admission and their root at
    /// once (default 4); a sort at its root does not count. Each sort runs
    /// on its session's thread.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Default sort geometry for `SUBMIT` frames that leave fields at zero.
    pub fn base_config(mut self, cfg: SortConfig) -> Self {
        self.base_cfg = cfg;
        self
    }

    /// The default sort configuration as it stands, to adjust and give back
    /// through [`base_config`](Self::base_config).
    pub fn config(&self) -> &SortConfig {
        &self.base_cfg
    }

    /// Attach a quota to a tenant name.
    pub fn tenant(mut self, name: impl Into<String>, quota: TenantQuota) -> Self {
        self.tenants.insert(name.into(), quota);
        self
    }

    /// Bind the listener and construct the server. `addr` is any standard
    /// socket address; use port 0 to let the OS pick (see
    /// [`Server::local_addr`]).
    pub fn bind(self, addr: impl ToSocketAddrs) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let trace = Trace::enabled(Recorder::new());
        let service = SortService::builder()
            .pool_pages(self.pool_pages)
            .workers(self.workers)
            .trace(trace.clone())
            .build();
        Ok(Server {
            shared: Arc::new(ServerShared {
                service,
                tenants: TenantRegistry::new(self.tenants),
                shutdown: Arc::new(AtomicBool::new(false)),
                addr,
                base_cfg: self.base_cfg,
                trace,
            }),
            listener,
        })
    }
}

/// A bound, not-yet-running sort server. Drive it with [`run`](Self::run)
/// (blocking) or [`spawn`](Self::spawn) (background thread + handle).
pub struct Server {
    shared: Arc<ServerShared>,
    listener: TcpListener,
}

impl Server {
    /// Start configuring a server.
    pub fn builder() -> ServerBuilder {
        ServerBuilder::default()
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Serve connections on the calling thread until shutdown is requested
    /// (a `SHUTDOWN` frame, or the flag from a [`ServerHandle`]). Drains
    /// in-flight sorts, joins every session, tears down the service and
    /// returns its final statistics.
    pub fn run(self) -> ServiceStats {
        let Server { shared, listener } = self;
        // Each session with a clone of its socket, which is what wakes it at
        // shutdown.
        let mut sessions: Vec<(JoinHandle<()>, TcpStream)> = Vec::new();
        let mut opened = 0u64;
        loop {
            let accepted = listener.accept();
            if shared.shutdown.load(Ordering::Acquire) {
                // `accepted` is the connection that woke us, or a client that
                // raced it; either way it is dropped unanswered.
                break;
            }
            match accepted {
                Ok((stream, _peer)) => {
                    let Ok(waker) = stream.try_clone() else {
                        continue;
                    };
                    let shared = Arc::clone(&shared);
                    let session = thread::Builder::new()
                        .name(format!("masort-s-{opened}"))
                        .spawn(move || run_session(&shared, stream));
                    opened += 1;
                    match session {
                        Ok(session) => sessions.push((session, waker)),
                        // The OS refused a thread: answer `ERR {Io}`, close.
                        Err(e) => {
                            let detail = format!("no thread for a session: {e}");
                            let err = Frame::Error(WireError::new(ErrorCode::Io, detail));
                            let _ = write_frame(&mut &waker, &err);
                            let _ = waker.shutdown(Shutdown::Both);
                        }
                    }
                    // Reap finished sessions so a long-lived server does not
                    // accumulate dead join handles (and their sockets).
                    if sessions.len().is_multiple_of(32) {
                        let (done, live): (Vec<_>, Vec<_>) =
                            sessions.drain(..).partition(|(h, _)| h.is_finished());
                        for (h, _) in done {
                            let _ = h.join();
                        }
                        sessions = live;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Back-off after a failed `accept` (out of descriptors, a
                // connection reset while queued): such a failure usually
                // repeats at once, and retrying without a pause would spin.
                Err(_) => thread::sleep(Duration::from_millis(10)),
            }
        }
        drop(listener);
        for (_, socket) in &sessions {
            let _ = socket.shutdown(Shutdown::Read);
        }
        for (session, _) in sessions {
            let _ = session.join();
        }
        // Every session thread has been joined, so this Arc is the last one.
        let shared = Arc::try_unwrap(shared).unwrap_or_else(|_| {
            unreachable!("session threads joined but ServerShared still shared")
        });
        shared.service.shutdown()
    }

    /// Run the accept loop on a background thread and return a handle that
    /// can stop it and collect the final statistics.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.shared.addr;
        let stop = Arc::clone(&self.shared.shutdown);
        let thread = thread::spawn(move || self.run());
        ServerHandle { addr, stop, thread }
    }
}

/// Handle on a [spawned](Server::spawn) server.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<ServiceStats>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the server to stop accepting and drain.
    pub(crate) fn shutdown(&self) {
        request_shutdown(&self.stop, self.addr);
    }

    /// Shut down (idempotent) and wait for the server to finish, returning
    /// the service's final statistics.
    pub fn join(self) -> ServiceStats {
        self.shutdown();
        self.thread
            .join()
            .expect("server accept thread should not panic")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use masort_core::AlgorithmSpec;

    #[test]
    fn base_config_runs_natural_formation() {
        let base = ServerBuilder::default().base_cfg;
        assert_eq!(base.algorithm, AlgorithmSpec::natural());
        assert!(base.validate().is_ok());
    }
}
