//! The concurrent sort service: submit many sorts, each run on the thread
//! that redeems its ticket, against one globally brokered page pool.

use crate::admission::{AdmissionQueue, QueuedRequest};
use crate::broker::MemoryBroker;
// `ServiceStats` and the counter names it reads.
use crate::stats::*;
use crate::ticket::{JobId, SortTicket, TicketShared};
use masort_core::sync::{Condvar, Mutex};
use masort_core::{InputSource, SortConfig, SortError, SortResult, Tuple, VecSource};
use masort_trace::{EventKind, MetricsRegistry, MetricsSnapshot, SpanId, Trace};
use root::RootEnd;
use state::State;
use std::sync::Arc;
use std::time::{Duration, Instant};

mod redeem;
mod root;
mod state;
#[cfg(test)]
mod tests;

pub(crate) use redeem::redeem;
pub(crate) use root::Root;
pub(crate) use state::Shared;

/// The trace span a job's events are emitted on. Offset by one so job 0 does
/// not collide with [`SpanId::SERVICE`]; the server and CLI use the same
/// mapping to pull one job's timeline out of a service-wide recorder.
pub fn job_span(job: JobId) -> SpanId {
    SpanId(job + 1)
}

/// One sort submission: input + configuration + how the broker should treat
/// it (priority, guaranteed minimum, useful maximum). Its runs always spill,
/// to a fresh unnamed temporary file opened when the job is admitted.
pub struct SortRequest {
    cfg: SortConfig,
    input: Box<dyn InputSource + Send>,
    tenant: Option<String>,
    priority: u32,
    min_pages: Option<usize>,
    max_pages: Option<usize>,
}

impl std::fmt::Debug for SortRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SortRequest")
            .field("tenant", &self.tenant)
            .field("priority", &self.priority)
            .field("min_pages", &self.min_pages)
            .field("max_pages", &self.max_pages)
            .finish()
    }
}

impl SortRequest {
    /// Sort the pages produced by `source` under configuration `cfg`.
    pub fn from_source(cfg: SortConfig, source: impl InputSource + Send + 'static) -> Self {
        SortRequest {
            cfg,
            input: Box::new(source),
            tenant: None,
            priority: 1,
            min_pages: None,
            max_pages: None,
        }
    }

    /// Sort an in-memory tuple vector (paginated with `cfg`'s geometry).
    pub fn tuples(cfg: SortConfig, tuples: Vec<Tuple>) -> Self {
        let per_page = cfg.tuples_per_page();
        Self::from_source(cfg, VecSource::from_tuples(tuples, per_page))
    }

    /// Attribute this job to `tenant`: besides the service-wide totals, its
    /// [metrics](SortService::metrics) count under the tenant's label.
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Scheduling priority (larger = more important; default 1): the surplus
    /// above the live minimums is divided in proportion to it.
    pub fn priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }

    /// Pages this sort must be guaranteed while it runs (default 1). The
    /// request queues until the broker can cover this alongside the live
    /// sorts' minimums, and is rejected with
    /// [`SortError::BudgetStarved`] if it exceeds the whole pool.
    pub fn min_pages(mut self, pages: usize) -> Self {
        self.min_pages = Some(pages);
        self
    }

    /// Pages beyond which this sort gains nothing (default: the
    /// configuration's `memory_pages`). Surplus above this flows to other
    /// sorts.
    pub fn max_pages(mut self, pages: usize) -> Self {
        self.max_pages = Some(pages);
        self
    }
}

/// Builder for [`SortService`]. See [`SortService::builder`].
#[derive(Debug)]
pub struct SortServiceBuilder {
    pool_pages: usize,
    workers: usize,
    suspension_wait: Duration,
    trace: Trace,
}

impl Default for SortServiceBuilder {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(2, 8);
        SortServiceBuilder {
            pool_pages: 256,
            workers,
            suspension_wait: Duration::from_secs(5),
            trace: Trace::disabled(),
        }
    }
}

impl SortServiceBuilder {
    /// Size of the global page pool the broker divides (default 256).
    pub fn pool_pages(mut self, pages: usize) -> Self {
        self.pool_pages = pages;
        self
    }

    /// How many sorts may be between their admission and their root at
    /// once (default: available parallelism clamped to 2..=8; floored at
    /// 1). A sort at its root does not count. Each sort runs on the thread
    /// that redeems its ticket; the service starts no thread of its own.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// How long a sort using the *suspension* adaptation strategy waits for
    /// memory to return before proceeding anyway (default 5 s; shorter than
    /// the standalone [`RealEnv`](masort_core::RealEnv) default because a
    /// service should degrade rather than stall).
    pub fn suspension_wait(mut self, wait: Duration) -> Self {
        self.suspension_wait = wait;
        self
    }

    /// Observability: record admission/budget/phase/I-O events through
    /// `trace` (default: disabled, zero overhead). Each job's events are
    /// recorded on [`job_span`]`(job_id)`; admission-queue and service-wide
    /// events stay on the handle's own span. The service's
    /// [metrics](SortService::metrics) count either way.
    pub fn trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }

    /// Start the service and return the handle. No thread is started.
    pub fn build(self) -> SortService {
        let shared = Arc::new(Shared {
            start: Instant::now(),
            suspension_wait: self.suspension_wait,
            trace: self.trace,
            workers: self.workers,
            state: Mutex::new(State {
                broker: MemoryBroker::new(self.pool_pages),
                queue: AdmissionQueue::default(),
                metrics: MetricsRegistry::new(),
                next_job: 0,
                parked: Vec::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
        });
        SortService { shared }
    }
}

/// A concurrent multi-sort service over one globally brokered page pool.
///
/// Each submission runs on the thread that redeems its
/// [`SortTicket`]; the service's memory broker re-divides the pool across
/// all live sorts on every admission, completion and
/// [`resize_pool`](Self::resize_pool) call by moving each sort's shared
/// [`MemoryBudget`](masort_core::MemoryBudget) target — so sorts genuinely
/// grow, shrink, suspend, page and split **while running**, exactly as under
/// the paper's DBMS buffer manager, but on real threads.
///
/// Dropping the service (or calling [`shutdown`](Self::shutdown)) stops
/// accepting new work, waits for every caller in the admission line to be
/// admitted and every admitted sort to reach its root or end, and settles
/// the roots still parked; a ticket redeemed after that resolves to
/// [`SortError::Cancelled`].
#[derive(Debug)]
pub struct SortService {
    shared: Arc<Shared>,
}

impl SortService {
    /// Start building a service (pool size, admission cap, trace).
    pub fn builder() -> SortServiceBuilder {
        SortServiceBuilder::default()
    }

    /// Submit a sort. Returns a ticket whose [`wait`](SortTicket::wait)
    /// runs it; until then nothing runs and no page is reserved.
    ///
    /// Fails fast with [`SortError::InvalidConfig`] for unusable
    /// configurations (or a shut-down service) and with
    /// [`SortError::BudgetStarved`] when the request's minimum exceeds the
    /// whole pool — an impossible request is rejected rather than queued
    /// forever.
    pub fn submit(&self, request: SortRequest) -> SortResult<SortTicket> {
        request.cfg.validate()?;
        let min_pages = request.min_pages.unwrap_or(1).max(1);
        let max_pages = request
            .max_pages
            .unwrap_or(request.cfg.memory_pages)
            .max(min_pages);
        let mut st = self.shared.lock();
        if st.shutdown {
            return Err(SortError::invalid_config(
                "SortService is shut down and no longer accepts submissions",
            ));
        }
        if min_pages > st.broker.pool_pages() {
            st.count(REJECTED, request.tenant.as_deref(), 1);
            let granted = st.broker.pool_pages();
            drop(st);
            self.shared.trace.emit(EventKind::AdmissionRejected {
                needed: min_pages,
                granted,
            });
            return Err(SortError::BudgetStarved {
                needed: min_pages,
                granted,
            });
        }
        let job = st.next_job;
        st.next_job += 1;
        st.count(SUBMITTED, request.tenant.as_deref(), 1);
        let request = QueuedRequest {
            job,
            cfg: request.cfg,
            input: request.input,
            tenant: request.tenant,
            priority: request.priority,
            min_pages,
            max_pages,
            ticket: Arc::new(TicketShared::default()),
            submitted_at: self.shared.now(),
            bypassed: 0,
        };
        Ok(SortTicket::new(request, Arc::clone(&self.shared)))
    }

    /// Grow or shrink the global page pool while sorts are running. Every
    /// live sort's budget is re-targeted immediately; requests waiting in
    /// the admission line whose minimum no longer fits in the pool at all
    /// are failed with [`SortError::BudgetStarved`].
    pub fn resize_pool(&self, pages: usize) {
        let now = self.shared.now();
        let mut st = self.shared.lock();
        st.broker.resize(pages, now);
        // The refused requests die at the end, outside the lock.
        let _refused = self.shared.refuse_impossible(&mut st);
        let moved = st.parked.clone();
        drop(st);
        self.shared.answer(moved);
        self.shared.work.notify_all();
    }

    /// Current size of the global page pool.
    pub fn pool_pages(&self) -> usize {
        self.shared.lock().broker.pool_pages()
    }

    /// Number of sorts currently live (admitted, not yet released).
    pub fn live_jobs(&self) -> usize {
        self.shared.lock().broker.live_count()
    }

    /// Snapshot of the service's metrics: every counter and histogram it
    /// keeps (service-wide and per tenant), and the `pool_pages`,
    /// `jobs_live` and `jobs_queued` gauges, all as of one moment.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.lock().snapshot()
    }

    /// Snapshot of the service-wide aggregate statistics: a typed read of
    /// [`metrics`](Self::metrics).
    pub fn stats(&self) -> ServiceStats {
        let st = self.shared.lock();
        ServiceStats::read(&st.snapshot(), &st.broker)
    }

    /// Stop accepting submissions and redemptions, wait for every caller in
    /// the admission line to be admitted and every admitted sort to reach
    /// its root or end, settle every result still at its root, and return
    /// the final statistics. Every admitted job is released before this
    /// returns; a ticket not redeemed by then resolves to
    /// [`SortError::Cancelled`].
    pub fn shutdown(self) -> ServiceStats {
        self.drain();
        self.stats()
    }

    fn begin_shutdown(&self) {
        self.shared.lock().shutdown = true;
        self.shared.work.notify_all();
    }

    fn drain(&self) {
        self.begin_shutdown();
        let mut st = self.shared.lock();
        while st.running() > 0 || !st.queue.is_empty() {
            st = self.shared.work.wait(st);
        }
        let parked = st.parked.clone();
        drop(st);
        for root in parked {
            root.slot.lock().settle(&self.shared, RootEnd::Shutdown);
        }
    }
}

impl Drop for SortService {
    fn drop(&mut self) {
        self.drain();
    }
}
