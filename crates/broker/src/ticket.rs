//! Tickets: the handle a caller holds for a submitted sort. Redeeming one
//! runs the sort on the redeeming thread, down to its last merge step, and
//! returns the output that the caller then executes on that same thread.

use crate::admission::QueuedRequest;
use crate::service::{redeem, Root, Shared};
use masort_core::sync::Mutex;
use masort_core::{MemoryBudget, Page, SortError, SortOutcome, SortResult, Tuple};
use std::sync::Arc;

/// Identifier of a job within one [`SortService`](crate::SortService)
/// (assigned in submission order, starting at 0).
pub type JobId = u64;

/// What a ticket and the service share about one job. One lock serialises
/// [`attach_budget`](TicketShared::attach_budget) against a cancel, so a
/// cancel landing while the job is admitted reaches the budget either way.
#[derive(Debug, Default)]
pub(crate) struct TicketShared(Mutex<JobState>);

#[derive(Debug, Default)]
struct JobState {
    cancel_requested: bool,
    budget: Option<MemoryBudget>,
    /// The job's grant is back, or it never had one: a cancel stops nothing.
    over: bool,
    /// Why the job left the admission line unadmitted, for its caller.
    refused: Option<SortError>,
}

impl TicketShared {
    /// At admission: make the job's budget reachable from the ticket, and
    /// cancelled if a cancel came first.
    pub(crate) fn attach_budget(&self, budget: MemoryBudget) {
        let mut g = self.0.lock();
        if g.cancel_requested {
            budget.cancel();
        }
        g.budget = Some(budget);
    }

    /// Flag the job cancelled and cancel its budget if it has one; `false`
    /// if the job is over.
    fn request_cancel(&self) -> bool {
        let mut g = self.0.lock();
        if !g.over {
            g.cancel_requested = true;
            g.budget.iter().for_each(MemoryBudget::cancel);
        }
        !g.over
    }

    pub(crate) fn job_over(&self) {
        self.0.lock().over = true;
    }

    /// Whether a cancel was ever requested. A cancelled sort blocked on a
    /// streaming input may end in that input's error instead of
    /// `Cancelled`; the caller asked for a cancel either way.
    pub(crate) fn cancel_requested(&self) -> bool {
        self.0.lock().cancel_requested
    }

    /// Under the state lock, by whoever takes the job out of the admission
    /// line: its caller returns `e`.
    pub(crate) fn refuse(&self, e: SortError) {
        self.0.lock().refused = Some(e);
    }

    pub(crate) fn refusal(&self) -> Option<SortError> {
        self.0.lock().refused.take()
    }
}

/// A claim on one submitted sort.
///
/// Returned by [`SortService::submit`](crate::SortService::submit). Nothing
/// runs and no page is reserved until the ticket is redeemed with
/// [`wait`](Self::wait), which runs the sort on the calling thread. The
/// ticket is independent of the service handle and can be sent to, or
/// shared with, another thread: [`cancel`](Self::cancel) reaches a sort that
/// another thread is running through `wait`. Dropping it unredeemed ends the
/// job as cancelled, and so does a service shutdown: a ticket redeemed after
/// that resolves to [`SortError::Cancelled`].
pub struct SortTicket {
    job: JobId,
    shared: Arc<TicketShared>,
    service: Arc<Shared>,
    /// The request, until the ticket is redeemed, cancelled or dropped.
    request: Mutex<Option<QueuedRequest>>,
}

impl SortTicket {
    pub(crate) fn new(request: QueuedRequest, service: Arc<Shared>) -> Self {
        SortTicket {
            job: request.job,
            shared: Arc::clone(&request.ticket),
            service,
            request: Mutex::new(Some(request)),
        }
    }

    /// The service-assigned identifier of this job.
    pub fn job_id(&self) -> JobId {
        self.job
    }

    /// Cancel this job. Returns `true` if the cancellation took effect,
    /// `false` if the job was already over — failed, or its result produced
    /// to the end.
    ///
    /// A job not yet **admitted** — not redeemed, or waiting in the
    /// admission line — ends on the spot: it never reserves pages, and
    /// [`wait`](Self::wait) returns [`SortError::Cancelled`]. A job already
    /// **running** has its [`MemoryBudget`] flagged; the sort observes the
    /// flag at its next adaptivity checkpoint (the same points where it polls
    /// for memory changes), aborts with [`SortError::Cancelled`], and
    /// releases every page it held back to the pool. A job at its root, its
    /// result not read to the end, runs that checkpoint on this call: its
    /// output then ends with [`SortError::Cancelled`].
    pub fn cancel(&self) -> bool {
        // Flag first: a caller joining the line or being admitted meanwhile
        // sees the flag.
        if !self.shared.request_cancel() {
            return false;
        }
        // Taken first: the lock is not held while the service acts.
        let unredeemed = self.request.lock().take();
        self.service.cancel(self.job, unredeemed);
        true
    }

    /// Run the sort on this thread down to its last merge step, then return
    /// the [`JobOutput`] that executes that step (or the error that stopped
    /// the sort before — I/O failures, `BudgetStarved` rejections after a
    /// pool shrink, a cancel, ...).
    ///
    /// The call first waits in the service's admission line until the
    /// job's minimum fits beside the live sorts' and fewer than
    /// [`workers`](crate::SortServiceBuilder::workers) sorts are between
    /// their admission and their root. A ticket redeems once; a second call
    /// fails with [`SortError::InvalidConfig`].
    pub fn wait(&self) -> SortResult<JobOutput> {
        let request = self.request.lock().take();
        match request {
            Some(request) => redeem(&self.service, request),
            None if self.shared.cancel_requested() => Err(SortError::Cancelled),
            None => Err(SortError::invalid_config("the ticket was redeemed already")),
        }
    }
}

impl std::fmt::Debug for SortTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SortTicket")
            .field("job", &self.job)
            .finish()
    }
}

impl Drop for SortTicket {
    fn drop(&mut self) {
        // A request nobody redeemed ends now.
        let unredeemed = self.request.lock().take();
        if unredeemed.is_some() {
            self.service.cancel(self.job, unredeemed);
        }
    }
}

/// The sorted result of a job, produced by its last merge step as it is read.
///
/// [`SortTicket::wait`] returns this once the sort is down to that step. The
/// step is parked and executes on whichever thread pulls from this value, so a
/// consumer gets the result straight off the merge — nothing sorted is
/// written — and the grant goes back to the pool when the last page has been
/// pulled. Nobody waits for a consumer that stops: whoever moves the job's
/// budget meanwhile runs the merge's checkpoint for it (split, page, suspend
/// — as a running merge would), and a caller in the admission line whose
/// minimum needs the grant, or a shutdown, has the remainder
/// [settled](masort_core::SortCompletion::settle) into one run and the job
/// released; this value then reads that run, on a fixed three-page
/// allowance of its own.
///
/// Read it as an iterator of tuples, page by page with
/// [`next_page`](Self::next_page), or whole with
/// [`into_sorted_vec`](Self::into_sorted_vec); [`finish`](Self::finish)
/// returns the job's report. Dropping it closes the sort: runs deleted, grant
/// released.
#[derive(Debug)]
pub struct JobOutput {
    root: Arc<Root>,
    service: Arc<Shared>,
    /// The page the iterator is handing out, and its next record's index.
    page: Page,
    at: usize,
}

impl JobOutput {
    pub(crate) fn new(root: Arc<Root>, service: Arc<Shared>) -> Self {
        JobOutput {
            root,
            service,
            page: Page::new(),
            at: 0,
        }
    }

    /// The next sealed page of sorted records; `None` once the result is
    /// exhausted. An error ends the result: afterwards this returns `None`.
    pub fn next_page(&mut self) -> SortResult<Option<Page>> {
        if self.at == self.page.len() {
            return self.root.pull(&self.service);
        }
        // What the iterator left of its page.
        let rest = std::mem::replace(&mut self.at, self.page.len())..self.page.len();
        let rest: Vec<Tuple> = rest.map(|i| self.page.get(i)).collect();
        Ok(Some(Page::from_tuples(rest)))
    }

    /// Materialise the sorted result (convenience for small relations).
    pub fn into_sorted_vec(mut self) -> SortResult<Vec<Tuple>> {
        self.by_ref().collect()
    }

    /// End the output (wherever it stands) and return the job's report: its
    /// final outcome and the broker's statistics, taken when the grant went
    /// back — on an output cut short, here.
    pub fn finish(self) -> JobReport {
        self.root
            .finish(&self.service)
            .expect("an output is finished once")
    }
}

impl Iterator for JobOutput {
    type Item = SortResult<Tuple>;

    fn next(&mut self) -> Option<Self::Item> {
        while self.at == self.page.len() {
            match self.next_page() {
                Ok(Some(page)) => (self.page, self.at) = (page, 0),
                Ok(None) => return None,
                Err(e) => return Some(Err(e)),
            }
        }
        self.at += 1;
        Some(Ok(self.page.get(self.at - 1)))
    }
}

impl Drop for JobOutput {
    fn drop(&mut self) {
        self.root.finish(&self.service);
    }
}

/// How a job went, as of the moment its grant returned to the pool: the
/// sort's final outcome plus what only the broker knows about the job.
#[derive(Debug)]
pub struct JobReport {
    /// The sort outcome (runs formed, merge statistics, delay samples,
    /// response time up to the release).
    pub outcome: SortOutcome,
    /// The job this report belongs to.
    pub job: JobId,
    /// Seconds spent queued before admission (waiting for the minimum share
    /// to become available).
    pub queued_for: f64,
    /// Seconds between admission and the release of the job's grant: the
    /// result read to its end, its remainder settled, or the sort closed.
    pub ran_for: f64,
    /// Pages the broker granted at admission.
    pub initial_grant: usize,
    /// Number of times the broker adjusted this job's page target *after* its
    /// initial grant — i.e. mid-flight reallocations, observed via
    /// [`MemoryBudget::version`](masort_core::MemoryBudget::version).
    pub reallocations: u64,
    /// Observability handle bound to this job's span
    /// ([`job_span`](crate::job_span)`(job)`). Disabled — and recording
    /// nothing — unless the service was built with
    /// [`trace`](crate::SortServiceBuilder::trace); when enabled, the job's
    /// full event timeline is
    /// `trace.recorder().unwrap().events_for(trace.span())`.
    pub trace: masort_trace::Trace,
}

impl JobReport {
    /// Total response time: queue wait plus execution.
    pub(crate) fn response_time(&self) -> f64 {
        self.queued_for + self.ran_for
    }
}
