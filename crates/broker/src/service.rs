//! The concurrent sort service: submit many sorts, run them on a bounded
//! worker pool against one globally brokered page pool.

use crate::admission::{AdmissionQueue, QueuedRequest};
use crate::broker::MemoryBroker;
use crate::policy::JobDemand;
// `ServiceStats` and the counter names it reads.
use crate::stats::*;
use crate::ticket::{JobId, JobOutput, JobReport, SortTicket, TicketShared};
use masort_core::sync::thread::{self, JoinHandle};
use masort_core::sync::{Condvar, Mutex, MutexGuard};
use masort_core::{
    FileStore, InputSource, MemStore, MemoryBudget, Page, RealEnv, RunId, RunStore, SortCompletion,
    SortConfig, SortError, SortJob, SortOutcome, SortResult, Tuple, VecSource,
};
use masort_trace::{EventKind, MetricsRegistry, MetricsSnapshot, SpanId, Trace};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The trace span a job's events are emitted on. Offset by one so job 0 does
/// not collide with [`SpanId::SERVICE`]; the server and CLI use the same
/// mapping to pull one job's timeline out of a service-wide recorder.
pub fn job_span(job: JobId) -> SpanId {
    SpanId(job + 1)
}

/// Bucket bounds (seconds) for the service's latency histograms
/// (`job_response_seconds`, `job_queue_wait_seconds`, `io_stall_seconds`).
const LATENCY_BUCKETS: &[f64] = &[0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0];

/// Bucket bounds (tuples/second) for `merge_tuples_per_sec`.
const THROUGHPUT_BUCKETS: &[f64] = &[1e3, 1e4, 1e5, 1e6, 1e7, 1e8];

/// Bucket bounds (tuples) for `masort_runs_length` — run lengths span from a
/// page's worth under tiny budgets to whole-input natural runs under adaptive
/// formation.
const RUN_LENGTH_BUCKETS: &[f64] = &[1e2, 1e3, 1e4, 1e5, 1e6, 1e7];

/// Where a job's runs (and its output run) are stored.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RunStorage {
    /// Runs held in memory ([`MemStore`]); the default.
    #[default]
    InMemory,
    /// Runs spilled to a fresh temporary directory ([`FileStore`]) — a
    /// genuinely external sort. The directory is created when the job starts
    /// (not while it queues).
    TempDisk,
}

/// The run store a service job executes against: in-memory or a temporary
/// directory, behind one concrete type so every
/// [`JobReport`] streams the same way.
#[derive(Debug)]
pub enum ServiceStore {
    /// Runs held in memory.
    Mem(MemStore),
    /// Runs spilled to a temporary directory.
    Temp(FileStore),
}

impl ServiceStore {
    fn inner(&self) -> &dyn RunStore {
        match self {
            ServiceStore::Mem(s) => s,
            ServiceStore::Temp(s) => s,
        }
    }

    fn inner_mut(&mut self) -> &mut dyn RunStore {
        match self {
            ServiceStore::Mem(s) => s,
            ServiceStore::Temp(s) => s,
        }
    }
}

impl RunStore for ServiceStore {
    fn create_run(&mut self) -> SortResult<RunId> {
        self.inner_mut().create_run()
    }

    fn append_page(&mut self, run: RunId, page: Page) -> SortResult<()> {
        self.inner_mut().append_page(run, page)
    }

    fn append_block(&mut self, run: RunId, pages: Vec<Page>) -> SortResult<()> {
        self.inner_mut().append_block(run, pages)
    }

    fn read_page(&mut self, run: RunId, idx: usize) -> SortResult<Page> {
        self.inner_mut().read_page(run, idx)
    }

    fn attach_trace(&mut self, trace: masort_trace::Trace) {
        self.inner_mut().attach_trace(trace)
    }

    fn flush(&mut self) -> SortResult<()> {
        self.inner_mut().flush()
    }

    fn run_pages(&self, run: RunId) -> usize {
        self.inner().run_pages(run)
    }

    fn run_tuples(&self, run: RunId) -> usize {
        self.inner().run_tuples(run)
    }

    fn delete_run(&mut self, run: RunId) -> SortResult<()> {
        self.inner_mut().delete_run(run)
    }
}

/// One sort submission: input + configuration + how the broker should treat
/// it (priority, guaranteed minimum, useful maximum, spill target).
pub struct SortRequest {
    cfg: SortConfig,
    input: Box<dyn InputSource + Send>,
    storage: RunStorage,
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
            .field("storage", &self.storage)
            .finish()
    }
}

impl SortRequest {
    /// Sort the pages produced by `source` under configuration `cfg`.
    pub fn from_source(cfg: SortConfig, source: impl InputSource + Send + 'static) -> Self {
        SortRequest {
            cfg,
            input: Box::new(source),
            storage: RunStorage::InMemory,
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
    /// above the live minimums is divided in proportion to it (see
    /// [`divide`](crate::policy::divide)).
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

    /// Store this job's runs in `storage` (default [`RunStorage::InMemory`]).
    pub fn storage(mut self, storage: RunStorage) -> Self {
        self.storage = storage;
        self
    }

    /// Shorthand for [`RunStorage::TempDisk`].
    pub fn spill_to_temp_dir(self) -> Self {
        self.storage(RunStorage::TempDisk)
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

    /// Number of worker threads, i.e. how many sorts run concurrently
    /// (default: available parallelism clamped to 2..=8; floored at 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// How long a sort using the *suspension* adaptation strategy waits for
    /// memory to return before proceeding anyway (default 5 s; shorter than
    /// the standalone [`RealEnv`] default because a service should degrade
    /// rather than stall).
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

    /// Start the service: spawn the worker threads and return the handle.
    pub fn build(self) -> SortService {
        let shared = Arc::new(Shared {
            start: Instant::now(),
            suspension_wait: self.suspension_wait,
            trace: self.trace,
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
        let handles = (0..self.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("masort-worker-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawning a sort worker thread failed")
            })
            .collect();
        SortService { shared, handles }
    }
}

struct State {
    broker: MemoryBroker,
    queue: AdmissionQueue,
    /// The service's books: every service total is a counter here, bumped
    /// once per event under this lock.
    metrics: MetricsRegistry,
    next_job: JobId,
    /// The jobs at their root that are not released yet.
    parked: Vec<Arc<Root>>,
    shutdown: bool,
}

impl State {
    /// Add `n` to counter `name`, service-wide and, for a tenant's job,
    /// under the tenant's label.
    fn count(&self, name: &str, tenant: Option<&str>, n: u64) {
        for label in std::iter::once(None).chain(tenant.map(Some)) {
            self.metrics.counter(name, label).add(n);
        }
    }

    /// The books of a job that completed.
    fn count_completed(&self, report: &JobReport, tenant: Option<&str>) {
        let (m, outcome) = (&self.metrics, &report.outcome);
        self.count(COMPLETED, tenant, 1);
        self.count(REALLOCATIONS, tenant, report.reallocations);
        self.count(DELAY_SAMPLES, tenant, outcome.delays.len() as u64);
        for label in std::iter::once(None).chain(tenant.map(Some)) {
            m.histogram("job_response_seconds", label, LATENCY_BUCKETS)
                .observe(report.response_time());
            m.histogram("job_queue_wait_seconds", label, LATENCY_BUCKETS)
                .observe(report.queued_for);
        }
        m.histogram("io_stall_seconds", None, LATENCY_BUCKETS)
            .observe(outcome.merge.io_stall);
        let duration = outcome.merge.duration();
        if duration > 0.0 {
            m.histogram("merge_tuples_per_sec", None, THROUGHPUT_BUCKETS)
                .observe(outcome.merge.tuples_output as f64 / duration);
        }
        let lengths = m.histogram("masort_runs_length", None, RUN_LENGTH_BUCKETS);
        for run in &outcome.split.runs {
            lengths.observe(run.tuples as f64);
        }
    }

    /// Set the gauges from the broker's state, then copy the books out.
    fn snapshot(&self) -> MetricsSnapshot {
        let gauge = |name, value: usize| self.metrics.gauge(name, None).set(value as i64);
        gauge("pool_pages", self.broker.pool_pages());
        gauge("jobs_live", self.broker.live_count());
        gauge("jobs_queued", self.queue.len());
        self.metrics.snapshot()
    }
}

pub(crate) struct Shared {
    start: Instant,
    suspension_wait: Duration,
    /// Service-wide observability handle; jobs emit on [`job_span`] rebinds.
    trace: Trace,
    state: Mutex<State>,
    work: Condvar,
}

impl Shared {
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock()
    }

    /// Cancel job `job` on the service's side. A job still queued is
    /// removed and counted, and `true` says its ticket is the caller's to
    /// resolve; a job at its root has the cancel seen by its checkpoint now.
    pub(crate) fn cancel(&self, job: JobId) -> bool {
        let mut st = self.lock();
        let Some(req) = st.queue.remove(job) else {
            let root = st.parked.iter().find(|root| root.job == job).cloned();
            drop(st);
            self.answer(root);
            return false;
        };
        st.count(CANCELLED, req.tenant.as_deref(), 1);
        drop(st);
        self.trace
            .with_span(job_span(job))
            .emit(EventKind::Cancelled);
        // The request (and its boxed input source) dies outside the state
        // lock.
        drop(req);
        true
    }

    /// Have each of `roots` answer its budget at once, by running the
    /// checkpoint its merge runs between pages. A root whose consumer is
    /// mid-pull is skipped: that pull is the answer.
    fn answer(&self, roots: impl IntoIterator<Item = Arc<Root>>) {
        for root in roots {
            if let Some(mut slot) = root.slot.try_lock() {
                slot.checkpoint(self);
            }
        }
    }
}

/// A concurrent multi-sort service over one globally brokered page pool.
///
/// Submissions run on a bounded worker-thread pool; the
/// [`MemoryBroker`] re-divides the pool across all live sorts on every
/// admission, completion and [`resize_pool`](Self::resize_pool) call by
/// moving each sort's shared [`MemoryBudget`] target — so sorts genuinely
/// grow, shrink, suspend, page and split **while running**, exactly as under
/// the paper's DBMS buffer manager, but on real threads.
///
/// Dropping the service (or calling [`shutdown`](Self::shutdown)) stops
/// accepting new work, drains the queue, and joins the workers; every issued
/// ticket is fulfilled.
#[derive(Debug)]
pub struct SortService {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").finish_non_exhaustive()
    }
}

impl SortService {
    /// Start building a service (pool size, worker count, trace).
    pub fn builder() -> SortServiceBuilder {
        SortServiceBuilder::default()
    }

    /// Submit a sort. Returns a ticket redeemable for the result.
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
        let ticket_shared = Arc::new(TicketShared::default());
        st.count(SUBMITTED, request.tenant.as_deref(), 1);
        st.queue.push(QueuedRequest {
            job,
            cfg: request.cfg,
            input: request.input,
            storage: request.storage,
            tenant: request.tenant,
            priority: request.priority,
            min_pages,
            max_pages,
            ticket: Arc::clone(&ticket_shared),
            submitted_at: self.shared.now(),
            bypassed: 0,
        });
        drop(st);
        self.shared
            .trace
            .with_span(job_span(job))
            .emit(EventKind::AdmissionQueued);
        self.shared.work.notify_all();
        Ok(SortTicket::new(
            job,
            ticket_shared,
            Arc::downgrade(&self.shared),
        ))
    }

    /// Grow or shrink the global page pool while sorts are running. Every
    /// live sort's budget is re-targeted immediately; queued requests whose
    /// minimum no longer fits in the pool at all are failed with
    /// [`SortError::BudgetStarved`].
    pub fn resize_pool(&self, pages: usize) {
        let now = self.shared.now();
        let mut st = self.shared.lock();
        st.broker.resize(pages, now);
        let doomed = st.queue.drain_impossible(pages);
        for req in &doomed {
            st.count(REJECTED, req.tenant.as_deref(), 1);
        }
        let moved = st.parked.clone();
        drop(st);
        self.shared.answer(moved);
        for req in doomed {
            self.shared
                .trace
                .with_span(job_span(req.job))
                .emit(EventKind::AdmissionRejected {
                    needed: req.min_pages,
                    granted: pages,
                });
            req.ticket.fulfill(Err(SortError::BudgetStarved {
                needed: req.min_pages,
                granted: pages,
            }));
        }
        self.shared.work.notify_all();
    }

    /// Current size of the global page pool.
    pub fn pool_pages(&self) -> usize {
        self.shared.lock().broker.pool_pages()
    }

    /// Number of sorts currently executing (admitted, not yet completed).
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

    /// Stop accepting submissions, drain the queue, join the workers, settle
    /// every result still at its root, and return the final statistics.
    /// Every issued ticket is fulfilled and every job released before this
    /// returns.
    pub fn shutdown(mut self) -> ServiceStats {
        self.join_workers();
        self.stats()
    }

    fn begin_shutdown(&self) {
        self.shared.lock().shutdown = true;
        self.shared.work.notify_all();
    }

    fn join_workers(&mut self) {
        self.begin_shutdown();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        let parked = self.shared.lock().parked.clone();
        for root in parked {
            root.slot.lock().settle(&self.shared, RootEnd::Shutdown);
        }
    }
}

impl Drop for SortService {
    fn drop(&mut self) {
        self.join_workers();
    }
}

/// What a worker carries out of the admission critical section.
struct Admitted {
    req: QueuedRequest,
    budget: MemoryBudget,
    initial_grant: usize,
    start_version: u64,
    admitted_at: f64,
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let (admitted, moved) = {
            let mut st = shared.lock();
            loop {
                let state = &mut *st;
                if let Some(req) = state.queue.pop_admissible(&state.broker) {
                    let now = shared.now();
                    let budget = MemoryBudget::new(req.min_pages);
                    state.broker.admit(
                        JobDemand {
                            job: req.job,
                            priority: req.priority,
                            min_pages: req.min_pages,
                            max_pages: req.max_pages,
                        },
                        budget.clone(),
                        now,
                    );
                    // Make the budget reachable from the ticket; a cancel
                    // that raced this admission is applied to it in there.
                    req.ticket.attach_budget(budget.clone());
                    let snapshot = budget.snapshot();
                    // The grant counted here is the one the job's trace
                    // records: counters and timelines agree on pages granted.
                    state.count(
                        "pages_granted_total",
                        req.tenant.as_deref(),
                        snapshot.target as u64,
                    );
                    let admitted = Admitted {
                        req,
                        initial_grant: snapshot.target,
                        start_version: snapshot.version,
                        budget,
                        admitted_at: now,
                    };
                    break (admitted, state.parked.clone());
                }
                // A request is queued that does not fit beside the live
                // minimums: a parked root makes room, by settling.
                let root = st.parked.first().filter(|_| !st.queue.is_empty());
                if let Some(root) = root.cloned() {
                    drop(st);
                    root.slot.lock().settle(&shared, RootEnd::QueuedRequest);
                    st = shared.lock();
                    continue;
                }
                if st.shutdown && st.queue.is_empty() {
                    return;
                }
                st = shared.work.wait(st);
            }
        };
        // The admission moved every live target; the parked roots follow.
        shared.answer(moved);
        run_admitted(&shared, admitted);
    }
}

/// How a job's last merge step ended, and so whether (and why) part of its
/// result went through the store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RootEnd {
    /// The consumer pulled the last page.
    Exhausted,
    /// A queued request needed the memory the root held.
    QueuedRequest,
    /// The service shut down with the result unread.
    Shutdown,
    /// The consumer ended the output early, or the ticket was cancelled.
    Cancelled,
    /// The merge failed.
    Failed,
}

impl RootEnd {
    fn name(self) -> &'static str {
        match self {
            RootEnd::Exhausted => "exhausted",
            RootEnd::QueuedRequest => "queued-request",
            RootEnd::Shutdown => "shutdown",
            RootEnd::Cancelled => "cancelled",
            RootEnd::Failed => "failed",
        }
    }
}

/// A job at its root. Whoever holds its [`JobOutput`] executes the root on
/// their own thread; the service keeps a handle, through which whoever moves
/// the budget runs the root's checkpoint and a worker settles the root when a
/// queued request needs its memory. Lock order: a root, then the state.
#[derive(Debug)]
pub(crate) struct Root {
    job: JobId,
    slot: Mutex<RootSlot>,
}

#[derive(Debug)]
struct RootSlot {
    /// The parked sort until it is closed; after a settle, the run the rest
    /// of the result went into.
    sort: Option<SortCompletion<ServiceStore>>,
    /// What the job's release needs; taken by it, so it happens once.
    books: Option<Books>,
    /// The job's report, from its release until it is taken.
    report: Option<JobReport>,
    /// What ended the result while nobody pulled, for the next pull.
    error: Option<SortError>,
    tuples_streamed: usize,
}

impl Root {
    /// The next page of the result, merged on the caller's thread.
    pub(crate) fn pull(&self, shared: &Shared) -> SortResult<Option<Page>> {
        self.slot.lock().pull(shared)
    }

    /// End the result wherever it stands; the job's report, the first time.
    pub(crate) fn finish(&self, shared: &Shared) -> Option<JobReport> {
        let mut slot = self.slot.lock();
        slot.end(shared, RootEnd::Cancelled, None);
        slot.report.take()
    }
}

impl RootSlot {
    fn pull(&mut self, shared: &Shared) -> SortResult<Option<Page>> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let Some(sort) = &mut self.sort else {
            return Ok(None);
        };
        match sort.next_page() {
            Ok(Some(page)) => {
                self.tuples_streamed += page.len();
                Ok(Some(page))
            }
            Ok(None) => {
                self.end(shared, RootEnd::Exhausted, None);
                Ok(None)
            }
            Err(e) => {
                self.end(shared, RootEnd::Failed, Some(&e));
                Err(e)
            }
        }
    }

    /// What the merge does between two pages, for a budget that moved while
    /// nobody pulls. An error (a cancel) ends the result.
    fn checkpoint(&mut self, shared: &Shared) {
        let Some(sort) = self.sort.as_mut().filter(|_| self.books.is_some()) else {
            return;
        };
        if let Err(e) = sort.checkpoint() {
            self.end(shared, RootEnd::Failed, Some(&e));
            self.error = Some(e);
        }
    }

    /// Finish the merge into one stored run and release the job; the run
    /// stays here, for the consumer to read on an allowance of its own.
    fn settle(&mut self, shared: &Shared, why: RootEnd) {
        if self.books.is_none() {
            return;
        }
        match self.sort.take().expect("an unreleased root").settle() {
            Ok(settled) => {
                let outcome = settled.outcome.clone();
                self.sort = Some(settled);
                self.release(shared, why, outcome, None);
            }
            Err(e) => {
                self.release(shared, RootEnd::Failed, SortOutcome::default(), Some(&e));
                self.error = Some(e);
            }
        }
    }

    /// Close the sort where it stands (runs deleted, pages back) and
    /// release the job, unless that happened already.
    fn end(&mut self, shared: &Shared, end: RootEnd, error: Option<&SortError>) {
        let outcome = self.sort.take().map(|sort| sort.into_stream().finish());
        self.release(shared, end, outcome.unwrap_or_default(), error);
    }

    fn release(
        &mut self,
        shared: &Shared,
        end: RootEnd,
        outcome: SortOutcome,
        error: Option<&SortError>,
    ) {
        let Some(books) = self.books.take() else {
            return;
        };
        let end = match error {
            None => end,
            Some(SortError::Cancelled) => RootEnd::Cancelled,
            Some(_) => RootEnd::Failed,
        };
        let root = (end, outcome, self.tuples_streamed);
        self.report = books.close(shared, error, Some(root));
    }
}

/// What closing a job's books needs, kept from its admission.
#[derive(Debug)]
struct Books {
    job: JobId,
    tenant: Option<String>,
    ticket: Arc<TicketShared>,
    budget: MemoryBudget,
    trace: Trace,
    tuples_per_page: usize,
    initial_grant: usize,
    start_version: u64,
    submitted_at: f64,
    admitted_at: f64,
}

impl Books {
    /// Give the job's grant back and close its books. `root` is how the
    /// root ended, with the final outcome and the tuples streamed off it,
    /// for a job that reached it; such a job gets its report.
    fn close(
        self,
        shared: &Shared,
        error: Option<&SortError>,
        root: Option<(RootEnd, SortOutcome, usize)>,
    ) -> Option<JobReport> {
        // Reallocations observed strictly after the initial grant and before
        // this job's own release below (which only re-targets the survivors).
        let reallocations = self.budget.version().saturating_sub(self.start_version);
        // Whatever the sort still records as held after finishing
        // (successfully or not) was never handed back: a leak. Measured
        // before `release` so a post-release rebalance cannot mask it.
        let leaked = self.budget.held();
        let finished_at = shared.now();
        let tenant = self.tenant.as_deref();
        let mut st = shared.lock();
        st.broker.release(self.job, finished_at);
        st.parked.retain(|root| root.job != self.job);
        st.count(LEAKED_PAGES, tenant, leaked as u64);
        // The job's books, taken now: the outcome is final (the merge ran to
        // its end, was settled, or was closed) and the grant has just gone
        // back.
        let mut root_finished = None;
        let report = root.map(|(end, outcome, streamed)| {
            let pages = |tuples: usize| tuples.div_ceil(self.tuples_per_page) as u64;
            let pages_settled = match end {
                RootEnd::QueuedRequest | RootEnd::Shutdown => {
                    pages(outcome.split.total_tuples() - streamed)
                }
                _ => 0,
            };
            let pages_streamed = pages(streamed);
            st.count("egress_pages_streamed_total", tenant, pages_streamed);
            st.count("egress_pages_settled_total", tenant, pages_settled);
            root_finished = Some((pages_streamed, pages_settled, end.name()));
            JobReport {
                outcome,
                job: self.job,
                queued_for: (self.admitted_at - self.submitted_at).max(0.0),
                ran_for: (finished_at - self.admitted_at).max(0.0),
                initial_grant: self.initial_grant,
                reallocations,
                trace: self.trace.clone(),
            }
        });
        match (error, &report) {
            (None, Some(report)) => st.count_completed(report, tenant),
            (None, None) => unreachable!("a job without an error reached its root"),
            (Some(SortError::Cancelled), _) => st.count(CANCELLED, tenant, 1),
            (Some(_), _) => st.count(FAILED, tenant, 1),
        }
        // Under the state lock, so that whoever reads the counters above also
        // finds the ticket past cancelling.
        self.ticket.job_over();
        let moved = st.parked.clone();
        drop(st);
        // A release frees a committed minimum and moves the survivors'
        // targets: queued requests may fit now, parked roots follow.
        shared.work.notify_all();
        shared.answer(moved);
        // Was this job's result written, and why.
        if let Some((pages_streamed, pages_settled, reason)) = root_finished {
            self.trace.emit(EventKind::RootFinished {
                pages_streamed,
                pages_settled,
                reason,
            });
        }
        if let Some(SortError::Cancelled) = error {
            self.trace.emit(EventKind::Cancelled);
        }
        report
    }
}

fn run_admitted(shared: &Arc<Shared>, admitted: Admitted) {
    let Admitted {
        req,
        budget,
        initial_grant,
        start_version,
        admitted_at,
    } = admitted;
    let QueuedRequest {
        job,
        cfg,
        input,
        storage,
        tenant,
        ticket,
        submitted_at,
        ..
    } = req;

    let trace = shared.trace.with_span(job_span(job));
    if trace.is_enabled() {
        trace.emit(EventKind::AdmissionGranted {
            pages: initial_grant,
        });
        budget.attach_trace(trace.clone());
    }

    let tuples_per_page = cfg.tuples_per_page();
    let mut env = RealEnv::starting_at(shared.start);
    env.max_wait = shared.suspension_wait;
    env.trace = trace.clone();
    // A panicking job (e.g. a user-supplied `InputSource`) must not take the
    // worker thread down with it: its pages would stay committed forever and
    // its ticket would never be resolved. Contain the unwind and surface it
    // as an error on the ticket instead.
    let root = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        build_store(storage).and_then(|store| {
            SortJob::builder()
                .config(cfg)
                .input(input)
                .store(store)
                .env(env)
                .budget(budget.clone())
                .build()?
                // The root parks: the output's holder executes it, and
                // whoever moves the budget runs its checkpoint meanwhile.
                .run_to_root()
        })
    }))
    .unwrap_or_else(|panic| Err(panic_error(panic)));

    let books = Books {
        job,
        tenant,
        ticket: Arc::clone(&ticket),
        budget,
        trace,
        tuples_per_page,
        initial_grant,
        start_version,
        submitted_at,
        admitted_at,
    };
    match root {
        Ok(sort) => {
            let slot = RootSlot {
                sort: Some(sort),
                books: Some(books),
                report: None,
                error: None,
                tuples_streamed: 0,
            };
            let root = Arc::new(Root {
                job,
                slot: Mutex::new(slot),
            });
            shared.lock().parked.push(Arc::clone(&root));
            // A move or a cancel since the sort last looked found no root to
            // answer it.
            shared.answer(Some(Arc::clone(&root)));
            ticket.fulfill(Ok(JobOutput::new(root, Arc::clone(shared))));
        }
        Err(e) => {
            // A cancelled job did what it was told; count it apart from
            // genuine failures. A sort that was blocked on a streaming input
            // when the cancel landed reports its abandoned channel's I/O
            // error instead of `Cancelled` — normalise it, so cancellation
            // accounting is deterministic for the caller.
            let e = match ticket.cancel_requested() {
                true => SortError::Cancelled,
                false => e,
            };
            books.close(shared, Some(&e), None);
            ticket.fulfill(Err(e));
        }
    }
}

/// Convert a caught panic payload into the error delivered on the ticket.
fn panic_error(payload: Box<dyn std::any::Any + Send>) -> SortError {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string());
    SortError::Io(std::io::Error::other(format!("sort job panicked: {msg}")))
}

fn build_store(storage: RunStorage) -> SortResult<ServiceStore> {
    match storage {
        RunStorage::InMemory => Ok(ServiceStore::Mem(MemStore::new())),
        RunStorage::TempDisk => Ok(ServiceStore::Temp(FileStore::in_temp_dir()?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use masort_core::verify::assert_sorted_permutation;
    use masort_core::ChannelSource;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tuples(n: usize, seed: u64) -> Vec<Tuple> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Tuple::synthetic(rng.gen::<u64>(), 64))
            .collect()
    }

    fn small_cfg(mem: usize) -> SortConfig {
        SortConfig::default()
            .with_page_size(512)
            .with_tuple_size(64)
            .with_memory_pages(mem)
    }

    /// An input whose disk dies at the first read.
    struct FailingSource;

    impl InputSource for FailingSource {
        fn next_page(&mut self) -> SortResult<Option<Page>> {
            Err(SortError::Io(std::io::Error::other(
                "the input's disk died",
            )))
        }
    }

    /// Read an output to its end, then take the job's report.
    fn drain(mut output: JobOutput) -> (Vec<Tuple>, JobReport) {
        let sorted = output.by_ref().collect::<SortResult<_>>().unwrap();
        (sorted, output.finish())
    }

    #[test]
    fn single_job_round_trip() {
        let svc = SortService::builder().pool_pages(16).workers(2).build();
        let input = random_tuples(2_000, 1);
        let ticket = svc
            .submit(SortRequest::tuples(small_cfg(8), input.clone()))
            .unwrap();
        let (sorted, report) = drain(ticket.wait().unwrap());
        assert!(report.initial_grant >= 1);
        assert_sorted_permutation(&input, &sorted);
        let stats = svc.shutdown();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn temp_disk_storage_round_trip() {
        let svc = SortService::builder().pool_pages(16).workers(1).build();
        let input = random_tuples(1_200, 2);
        let output = svc
            .submit(SortRequest::tuples(small_cfg(16), input.clone()).spill_to_temp_dir())
            .unwrap()
            .wait()
            .unwrap();
        let (sorted, report) = drain(output);
        assert_sorted_permutation(&input, &sorted);
        // The report is final — every tuple went through the root — and the
        // result came off the merge: 16 pages merge these runs in one step,
        // and that step wrote nothing.
        assert!(report.outcome.runs_formed() > 1);
        let merge = &report.outcome.merge;
        assert_eq!(merge.tuples_output, 1_200);
        assert_eq!((merge.steps_executed, merge.pages_written), (1, 0));
        assert_eq!(merge.pages_read, report.outcome.split.pages_written);
    }

    #[test]
    fn impossible_request_is_rejected_not_queued() {
        let svc = SortService::builder().pool_pages(8).workers(1).build();
        let err = svc
            .submit(SortRequest::tuples(small_cfg(4), Vec::new()).min_pages(9))
            .unwrap_err();
        assert!(matches!(
            err,
            SortError::BudgetStarved {
                needed: 9,
                granted: 8
            }
        ));
        assert_eq!(svc.stats().rejected, 1);
    }

    #[test]
    fn invalid_config_is_rejected_at_submit() {
        let svc = SortService::builder().pool_pages(8).workers(1).build();
        let mut cfg = small_cfg(4);
        cfg.page_size = 0;
        let err = svc
            .submit(SortRequest::tuples(cfg, Vec::new()))
            .unwrap_err();
        assert!(matches!(err, SortError::InvalidConfig(_)));
        // A zero tuple size must not panic while paginating the request; it
        // is rejected by validation at submit like every other bad config.
        let mut cfg = small_cfg(4);
        cfg.tuple_size = 0;
        let err = svc
            .submit(SortRequest::tuples(cfg, vec![Tuple::synthetic(1, 64)]))
            .unwrap_err();
        assert!(matches!(err, SortError::InvalidConfig(_)));
    }

    #[test]
    fn pool_shrink_fails_queued_requests_that_no_longer_fit() {
        // One worker, and a long-running job holding the pool, so the
        // big-minimum request is still queued when the pool shrinks.
        let svc = SortService::builder().pool_pages(32).workers(1).build();
        let blocker = svc
            .submit(SortRequest::tuples(small_cfg(8), random_tuples(30_000, 3)).min_pages(2))
            .unwrap();
        let doomed = svc
            .submit(SortRequest::tuples(small_cfg(8), Vec::new()).min_pages(24))
            .unwrap();
        svc.resize_pool(12);
        match doomed.wait() {
            Err(SortError::BudgetStarved {
                needed: 24,
                granted: 12,
            }) => {}
            other => panic!("expected BudgetStarved, got {other:?}"),
        }
        blocker.wait().unwrap();
        let stats = svc.shutdown();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn shutdown_drains_queued_work() {
        let svc = SortService::builder().pool_pages(16).workers(2).build();
        let inputs: Vec<Vec<Tuple>> = (0..6).map(|i| random_tuples(1_500, 40 + i)).collect();
        let tickets: Vec<SortTicket> = inputs
            .iter()
            .map(|input| {
                svc.submit(SortRequest::tuples(small_cfg(6), input.clone()))
                    .unwrap()
            })
            .collect();
        let stats = svc.shutdown();
        assert_eq!(stats.completed, 6);
        for (ticket, input) in tickets.into_iter().zip(&inputs) {
            let sorted = ticket.wait().unwrap().into_sorted_vec().unwrap();
            assert_sorted_permutation(input, &sorted);
        }
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let svc = SortService::builder().pool_pages(16).workers(1).build();
        svc.begin_shutdown();
        let err = svc
            .submit(SortRequest::tuples(small_cfg(4), Vec::new()))
            .unwrap_err();
        assert!(matches!(err, SortError::InvalidConfig(_)));
    }

    #[test]
    fn panicking_job_fails_its_ticket_and_releases_its_pages() {
        struct PanickingSource;
        impl InputSource for PanickingSource {
            fn next_page(&mut self) -> SortResult<Option<Page>> {
                panic!("user input source exploded");
            }
        }
        let svc = SortService::builder().pool_pages(8).workers(1).build();
        let err = svc
            .submit(SortRequest::from_source(small_cfg(4), PanickingSource).min_pages(8))
            .unwrap()
            .wait()
            .unwrap_err();
        match err {
            SortError::Io(e) => assert!(e.to_string().contains("panicked"), "{e}"),
            other => panic!("expected an Io(panicked) error, got {other:?}"),
        }
        // The dead job's pages were released and its worker survived: a job
        // needing the whole pool can still be admitted and completes.
        let input = random_tuples(800, 9);
        let sorted = svc
            .submit(SortRequest::tuples(small_cfg(4), input.clone()).min_pages(8))
            .unwrap()
            .wait()
            .unwrap()
            .into_sorted_vec()
            .unwrap();
        assert_sorted_permutation(&input, &sorted);
        let stats = svc.shutdown();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn concurrent_spilled_sorts_round_trip_on_two_workers() {
        // Four spilling jobs, two workers, a pool of three grants: two run
        // side by side on their own temporary directories while two queue.
        let svc = SortService::builder().pool_pages(24).workers(2).build();
        let inputs: Vec<Vec<Tuple>> = (0..4).map(|i| random_tuples(2_000, 90 + i)).collect();
        let tickets: Vec<SortTicket> = inputs
            .iter()
            .map(|input| {
                svc.submit(SortRequest::tuples(small_cfg(8), input.clone()).spill_to_temp_dir())
                    .unwrap()
            })
            .collect();
        for (ticket, input) in tickets.into_iter().zip(&inputs) {
            let sorted = ticket.wait().unwrap().into_sorted_vec().unwrap();
            assert_sorted_permutation(input, &sorted);
        }
        let stats = svc.shutdown();
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn cancelling_a_queued_job_removes_it_without_reserving_anything() {
        // One worker, and a job holding the whole pool's minimum, so the
        // second submission is deterministically still queued when cancelled.
        let svc = SortService::builder().pool_pages(8).workers(1).build();
        let blocker = svc
            .submit(SortRequest::tuples(small_cfg(4), random_tuples(20_000, 11)).min_pages(8))
            .unwrap();
        let queued = svc
            .submit(
                SortRequest::tuples(small_cfg(4), random_tuples(1_000, 12))
                    .min_pages(8)
                    .tenant("acme"),
            )
            .unwrap();
        assert!(queued.cancel(), "job was pending; cancel must take effect");
        match queued.wait() {
            Err(SortError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        blocker.wait().unwrap();
        let metrics = svc.metrics();
        let stats = svc.shutdown();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 0, "a cancel is not a failure");
        assert_eq!(stats.leaked_pages, 0);
        assert_eq!(metrics.counter(CANCELLED, Some("acme")), Some(1));
        assert_eq!(metrics.counter(SUBMITTED, Some("acme")), Some(1));
    }

    #[test]
    fn cancelling_a_running_job_aborts_it_and_releases_its_pages() {
        let svc = SortService::builder().pool_pages(8).workers(1).build();
        // Large enough that the sort is still mid-flight when the cancel
        // lands right after admission.
        let ticket = svc
            .submit(
                SortRequest::tuples(small_cfg(8), random_tuples(60_000, 13))
                    .min_pages(8)
                    .tenant("acme"),
            )
            .unwrap();
        while svc.live_jobs() == 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
        assert!(ticket.cancel());
        match ticket.wait() {
            Err(SortError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // The dead job's pages came back: a sort needing the whole pool runs.
        let input = random_tuples(800, 14);
        let sorted = svc
            .submit(SortRequest::tuples(small_cfg(4), input.clone()).min_pages(8))
            .unwrap()
            .wait()
            .unwrap()
            .into_sorted_vec()
            .unwrap();
        assert_sorted_permutation(&input, &sorted);
        let metrics = svc.metrics();
        let stats = svc.shutdown();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.leaked_pages, 0, "cancelled job leaked pages");
        assert_eq!(metrics.counter(CANCELLED, Some("acme")), Some(1));
    }

    #[test]
    fn tenant_accounting_follows_jobs_through_their_lifecycle() {
        let svc = SortService::builder().pool_pages(16).workers(2).build();
        let mut tickets = Vec::new();
        for i in 0..3 {
            tickets.push(
                svc.submit(
                    SortRequest::tuples(small_cfg(4), random_tuples(600, 20 + i)).tenant("a"),
                )
                .unwrap(),
            );
        }
        let failing = svc
            .submit(SortRequest::from_source(small_cfg(4), FailingSource).tenant("b"))
            .unwrap();
        // An untagged job appears only in the service-wide totals.
        tickets.push(
            svc.submit(SortRequest::tuples(small_cfg(4), random_tuples(600, 30)))
                .unwrap(),
        );
        // Each job's books are closed by the time its report is out.
        for t in tickets {
            drain(t.wait().unwrap());
        }
        failing.wait().unwrap_err();
        let metrics = svc.metrics();
        let stats = svc.shutdown();
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.failed, 1);
        let tenants: Vec<_> = metrics
            .metrics
            .iter()
            .filter(|m| m.name == SUBMITTED)
            .filter_map(|m| m.label.as_deref())
            .collect();
        assert_eq!(tenants, ["a", "b"]);
        let of = |tenant| [SUBMITTED, COMPLETED, FAILED].map(|n| metrics.counter(n, Some(tenant)));
        assert_eq!(of("a"), [Some(3), Some(3), None]);
        assert_eq!(of("b"), [Some(1), None, Some(1)]);
        assert_eq!(of("c"), [None; 3]);
        assert_eq!(stats.leaked_pages, 0);
    }

    #[test]
    fn registry_counts_every_terminal_outcome() {
        let svc = SortService::builder().pool_pages(8).workers(1).build();
        let request =
            |min_pages| SortRequest::tuples(small_cfg(4), Vec::new()).min_pages(min_pages);
        // Rejected at submit: a minimum above the whole pool.
        let starved = |e| match e {
            SortError::BudgetStarved { needed, granted } => (needed, granted),
            other => panic!("expected BudgetStarved, got {other:?}"),
        };
        assert_eq!(starved(svc.submit(request(9)).unwrap_err()), (9, 8));
        // Admitted with the pool's whole minimum and parked on its input, so
        // every later request queues behind it.
        let (sink, source) = ChannelSource::bounded(1);
        let running = svc
            .submit(
                SortRequest::from_source(small_cfg(4), source)
                    .min_pages(8)
                    .tenant("acme"),
            )
            .unwrap();
        while svc.live_jobs() == 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
        // Dropped by a pool shrink under its minimum.
        let dropped = svc.submit(request(8)).unwrap();
        svc.resize_pool(7);
        svc.resize_pool(8);
        assert_eq!(starved(dropped.wait().unwrap_err()), (8, 7));
        // Cancelled while queued, then while running.
        let queued = svc.submit(request(8).tenant("acme")).unwrap();
        assert!(queued.cancel());
        assert!(matches!(queued.wait(), Err(SortError::Cancelled)));
        assert!(running.cancel());
        drop(sink);
        assert!(matches!(running.wait(), Err(SortError::Cancelled)));
        // Failed, then completed.
        let failing = SortRequest::from_source(small_cfg(4), FailingSource);
        svc.submit(failing).unwrap().wait().unwrap_err();
        let input = random_tuples(800, 16);
        let output = svc.submit(SortRequest::tuples(small_cfg(4), input.clone()));
        let (sorted, _) = drain(output.unwrap().wait().unwrap());
        assert_sorted_permutation(&input, &sorted);

        let metrics = svc.metrics();
        let counter = |name, label| metrics.counter(name, label).unwrap_or(0);
        let outcomes = [SUBMITTED, REJECTED, CANCELLED, FAILED, COMPLETED];
        assert_eq!(outcomes.map(|n| counter(n, None)), [5, 2, 2, 1, 1]);
        assert_eq!(outcomes.map(|n| counter(n, Some("acme"))), [2, 0, 2, 0, 0]);
        // `ServiceStats` reads exactly those counters.
        let s = svc.stats();
        let read = [s.submitted, s.rejected, s.cancelled, s.failed, s.completed];
        assert_eq!(read, outcomes.map(|n| counter(n, None)));
        let totals = [LEAKED_PAGES, REALLOCATIONS, DELAY_SAMPLES].map(|n| counter(n, None));
        let read = [s.leaked_pages, s.total_reallocations, s.total_delay_samples];
        assert_eq!((read, s.leaked_pages, s.peak_live), (totals, 0, 1));
    }

    #[test]
    fn all_policies_run_the_same_workload() {
        // Mixed priorities through the broker's one arbitration rule.
        let svc = SortService::builder().pool_pages(20).workers(3).build();
        let inputs: Vec<Vec<Tuple>> = (0..5).map(|i| random_tuples(2_000, 70 + i)).collect();
        let tickets: Vec<SortTicket> = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| {
                svc.submit(
                    SortRequest::tuples(small_cfg(10), input.clone())
                        .priority(1 + (i as u32 % 3))
                        .min_pages(2),
                )
                .unwrap()
            })
            .collect();
        for (ticket, input) in tickets.into_iter().zip(&inputs) {
            let (sorted, report) = drain(ticket.wait().unwrap());
            assert!(report.initial_grant >= 2, "minimum not honoured");
            assert_sorted_permutation(input, &sorted);
        }
    }
}
