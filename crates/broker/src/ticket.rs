//! Tickets: the handle a caller holds while a submitted sort is queued and
//! running, and the output it redeems for once the sort is down to its last
//! merge step — which the output's holder then executes on their own thread.

use crate::service::{Root, Shared};
use masort_core::sync::{Condvar, Mutex};
use masort_core::{MemoryBudget, Page, SortError, SortOutcome, SortResult, Tuple};
use std::sync::{Arc, Weak};

/// Identifier of a job within one [`SortService`](crate::SortService)
/// (assigned in submission order, starting at 0).
pub type JobId = u64;

/// Cancellation state shared between a ticket and the worker running its job.
/// The mutex serialises [`TicketShared::attach_budget`] against
/// [`TicketShared::request_cancel`], so a cancel landing while the job is
/// being admitted reaches the budget no matter which side wins the race.
#[derive(Debug, Default)]
struct CancelSlot {
    requested: bool,
    budget: Option<MemoryBudget>,
    /// The job has given its grant back (or never had one): nothing is left
    /// for a cancel to stop.
    over: bool,
}

/// What a ticket resolves to, and whether anybody is still there to take it.
#[derive(Debug, Default)]
enum Slot {
    #[default]
    Pending,
    Ready(SortResult<JobOutput>),
    /// Redeemed, or the ticket was dropped unredeemed.
    Taken,
}

impl Slot {
    /// Take the result if the ticket has resolved.
    fn take(&mut self) -> Option<SortResult<JobOutput>> {
        match std::mem::replace(self, Slot::Taken) {
            Slot::Ready(result) => Some(result),
            other => {
                *self = other;
                None
            }
        }
    }
}

/// The shared completion slot between a worker thread and the ticket holder.
#[derive(Debug, Default)]
pub(crate) struct TicketShared {
    slot: Mutex<Slot>,
    cv: Condvar,
    cancel: Mutex<CancelSlot>,
}

impl TicketShared {
    /// Resolve the ticket and wake every waiter. Must be called at most once
    /// per ticket. A job that ended without an output is over; one that
    /// resolves to an output is over when it is released
    /// ([`job_over`](Self::job_over)). If the ticket is gone the result is
    /// dropped here, which ends the job.
    pub(crate) fn fulfill(&self, result: SortResult<JobOutput>) {
        if result.is_err() {
            self.job_over();
        }
        let mut g = self.slot.lock();
        debug_assert!(!matches!(*g, Slot::Ready(_)), "ticket fulfilled twice");
        if matches!(*g, Slot::Pending) {
            *g = Slot::Ready(result);
            self.cv.notify_all();
        }
    }

    /// Called by the admitting worker (under the service state lock): make
    /// the job's budget reachable from the ticket. A cancel requested while
    /// the job was still queued is applied to the budget right here, so the
    /// sort aborts at its first adaptivity checkpoint.
    pub(crate) fn attach_budget(&self, budget: MemoryBudget) {
        let mut g = self.cancel.lock();
        if g.requested {
            budget.cancel();
        }
        g.budget = Some(budget);
    }

    /// Called by [`SortTicket::cancel`]: flag the job as cancelled and, if it
    /// is already running, cancel its budget. `false` if the job is over.
    fn request_cancel(&self) -> bool {
        let mut g = self.cancel.lock();
        if g.over {
            return false;
        }
        g.requested = true;
        if let Some(budget) = &g.budget {
            budget.cancel();
        }
        true
    }

    /// Called once the job's grant is back with the broker.
    pub(crate) fn job_over(&self) {
        self.cancel.lock().over = true;
    }

    /// Whether a cancel was ever requested for this job. The service uses it
    /// to classify the job's final error: a cancelled sort usually aborts at
    /// a budget checkpoint with `SortError::Cancelled`, but one blocked on a
    /// streaming input can instead surface whatever error that input ends
    /// with — the caller asked for a cancel either way.
    pub(crate) fn cancel_requested(&self) -> bool {
        self.cancel.lock().requested
    }
}

/// A claim on the result of one submitted sort.
///
/// Returned by [`SortService::submit`](crate::SortService::submit). Redeem it
/// with [`wait`](Self::wait) (blocking) or poll with
/// [`is_done`](Self::is_done). The ticket is independent of the service
/// handle: it can be sent to another thread and outlives `SortService`
/// shutdown (queued work is drained before the workers exit, so every ticket
/// is eventually resolved). Dropping it unredeemed abandons the result: the
/// sort is closed as soon as it has one.
#[derive(Debug)]
pub struct SortTicket {
    job: JobId,
    shared: Arc<TicketShared>,
    service: Weak<Shared>,
}

impl SortTicket {
    pub(crate) fn new(job: JobId, shared: Arc<TicketShared>, service: Weak<Shared>) -> Self {
        SortTicket {
            job,
            shared,
            service,
        }
    }

    /// The service-assigned identifier of this job.
    pub fn job_id(&self) -> JobId {
        self.job
    }

    /// Cancel this job. Returns `true` if the cancellation took effect,
    /// `false` if the job was already over — failed, or its result produced
    /// to the end (still redeemable with [`wait`](Self::wait)).
    ///
    /// A job still **queued** is removed from the admission queue on the spot
    /// and this ticket resolves to [`SortError::Cancelled`] immediately — it
    /// never reserves pages. A job already **running** has
    /// its [`MemoryBudget`] flagged; the sort observes the flag at its next
    /// adaptivity checkpoint (the same points where it polls for memory
    /// changes), aborts with [`SortError::Cancelled`], and releases every
    /// page it held back to the pool. A job at its root, its result not read
    /// to the end, runs that checkpoint on this call: its output then ends
    /// with [`SortError::Cancelled`].
    pub fn cancel(&self) -> bool {
        // Flag first: if the job is admitted concurrently, the admitting
        // worker sees the flag when it attaches the budget and the sort
        // aborts at its first checkpoint.
        if !self.shared.request_cancel() {
            return false;
        }
        if let Some(service) = self.service.upgrade() {
            if service.cancel(self.job) {
                // Removed from the queue under the service lock: no worker
                // will ever see this request, so the ticket is ours to
                // resolve.
                self.shared.fulfill(Err(SortError::Cancelled));
            }
        }
        true
    }

    /// True once [`wait`](Self::wait) would return without blocking: the
    /// sort has reached its last merge step, or has ended without one.
    pub fn is_done(&self) -> bool {
        matches!(*self.shared.slot.lock(), Slot::Ready(_))
    }

    /// Block until the sort is down to its last merge step, then return the
    /// [`JobOutput`] that executes that step (or the error that
    /// stopped the sort before — I/O failures, `BudgetStarved` rejections
    /// after a pool shrink, ...).
    pub fn wait(self) -> SortResult<JobOutput> {
        let mut g = self.shared.slot.lock();
        loop {
            if let Some(result) = g.take() {
                return result;
            }
            g = self.shared.cv.wait(g);
        }
    }
}

impl Drop for SortTicket {
    fn drop(&mut self) {
        // An output nobody will read ends its job now.
        let unread = std::mem::replace(&mut *self.shared.slot.lock(), Slot::Taken);
        drop(unread);
    }
}

/// The sorted result of a job, produced by its last merge step as it is read.
///
/// A ticket resolves to this when the sort is down to that step. The step is
/// parked and executes on whichever thread pulls from this value, so a
/// consumer gets the result straight off the merge — nothing sorted is
/// written — and the grant goes back to the pool when the last page has been
/// pulled. Nobody waits for a consumer that stops: whoever moves the job's
/// budget meanwhile runs the merge's checkpoint for it (split, page, suspend
/// — as a running merge would), and a queued request whose minimum needs
/// the grant, or a shutdown, has the remainder
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
        let rest = rest.map(|i| self.page.get(i)).collect();
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
