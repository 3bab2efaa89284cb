//! Tickets: the handle a caller holds while a submitted sort is queued and
//! running, and the report it redeems for when the sort finishes.

use crate::service::{ServiceStore, Shared};
use crate::stats::JobStats;
use masort_core::sync::{Condvar, Mutex, MutexGuard};
use masort_core::{
    MemoryBudget, SortCompletion, SortError, SortOutcome, SortResult, SortedStream, Tuple,
};
use std::sync::{Arc, Weak};
use std::time::Duration;

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
}

/// The shared completion slot between a worker thread and the ticket holder.
#[derive(Debug, Default)]
pub(crate) struct TicketShared {
    slot: Mutex<Option<SortResult<JobReport>>>,
    cv: Condvar,
    cancel: Mutex<CancelSlot>,
}

impl TicketShared {
    fn lock(&self) -> MutexGuard<'_, Option<SortResult<JobReport>>> {
        self.slot.lock()
    }

    /// Deliver the job's result and wake every waiter. Must be called at most
    /// once per ticket.
    pub(crate) fn fulfill(&self, result: SortResult<JobReport>) {
        let mut g = self.lock();
        debug_assert!(g.is_none(), "ticket fulfilled twice");
        *g = Some(result);
        self.cv.notify_all();
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
    /// is already running, cancel its budget.
    pub(crate) fn request_cancel(&self) {
        let mut g = self.cancel.lock();
        g.requested = true;
        if let Some(budget) = &g.budget {
            budget.cancel();
        }
    }

    /// Whether a cancel was ever requested for this job. The worker uses it
    /// to classify the job's final error: a cancelled sort usually aborts at
    /// a budget checkpoint with `SortError::Cancelled`, but one blocked on a
    /// streaming input can instead surface the I/O error of its abandoned
    /// channel — the caller asked for a cancel either way.
    pub(crate) fn cancel_requested(&self) -> bool {
        self.cancel.lock().requested
    }
}

/// A claim on the result of one submitted sort.
///
/// Returned by [`SortService::submit`](crate::SortService::submit). Redeem it
/// with [`wait`](Self::wait) (blocking) or poll with
/// [`is_done`](Self::is_done) / [`wait_timeout`](Self::wait_timeout). The
/// ticket is independent of the service handle: it can be sent to another
/// thread and outlives `SortService` shutdown (queued work is drained before
/// the workers exit, so every ticket is eventually fulfilled).
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
    /// `false` if the job had already finished (its report is still
    /// redeemable with [`wait`](Self::wait)).
    ///
    /// A job still **queued** is removed from the admission queue on the spot
    /// and this ticket resolves to [`SortError::Cancelled`] immediately — it
    /// never reserves pages or compute threads. A job already **running** has
    /// its [`MemoryBudget`] flagged; the sort observes the flag at its next
    /// adaptivity checkpoint (the same points where it polls for memory
    /// changes), aborts with [`SortError::Cancelled`], and releases every
    /// page it held back to the pool.
    pub fn cancel(&self) -> bool {
        if self.is_done() {
            return false;
        }
        // Flag first: if the job is admitted concurrently, the admitting
        // worker sees the flag when it attaches the budget and the sort
        // aborts at its first checkpoint.
        self.shared.request_cancel();
        if let Some(service) = self.service.upgrade() {
            if service.cancel_queued(self.job) {
                // Removed from the queue under the service lock: no worker
                // will ever see this request, so the ticket is ours to
                // resolve.
                self.shared.fulfill(Err(SortError::Cancelled));
                return true;
            }
        }
        !self.is_done()
    }

    /// True once the job has finished (successfully or not) and
    /// [`wait`](Self::wait) would return without blocking.
    pub fn is_done(&self) -> bool {
        self.shared.lock().is_some()
    }

    /// Block until the sort completes, then return its report (or the error
    /// that stopped it — I/O failures, `BudgetStarved` rejections after a
    /// pool shrink, ...).
    pub fn wait(self) -> SortResult<JobReport> {
        let mut g = self.shared.lock();
        loop {
            if let Some(result) = g.take() {
                return result;
            }
            g = self.shared.cv.wait(g);
        }
    }

    /// Like [`wait`](Self::wait), but give up after `timeout`, handing the
    /// ticket back so the caller can retry.
    pub fn wait_timeout(self, timeout: Duration) -> Result<SortResult<JobReport>, SortTicket> {
        let deadline = std::time::Instant::now() + timeout;
        let mut g = self.shared.lock();
        loop {
            if let Some(result) = g.take() {
                return Ok(result);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                drop(g);
                return Err(self);
            }
            let (guard, _timed_out) = self.shared.cv.wait_timeout(g, deadline - now);
            g = guard;
        }
    }
}

/// Everything a finished sort hands back: the core [`SortCompletion`],
/// *settled* (the merge ran to the end under the job's grant, so the outcome
/// is final and what is left is one stored run that pins no broker pages),
/// plus the broker's per-job statistics.
#[derive(Debug)]
pub struct JobReport {
    /// The sort's outcome and the store holding its result; stream or
    /// collect it exactly as with a standalone
    /// [`SortJob`](masort_core::SortJob).
    pub completion: SortCompletion<ServiceStore>,
    /// Broker-side statistics: queue wait, reallocations, delay samples.
    pub stats: JobStats,
    /// Observability handle bound to this job's span
    /// ([`job_span`](crate::job_span)`(stats.job)`). Disabled — and
    /// recording nothing — unless the service was built with
    /// [`trace`](crate::SortServiceBuilder::trace); when enabled, the job's
    /// full event timeline is
    /// `trace.recorder().unwrap().events_for(trace.span())`.
    pub trace: masort_trace::Trace,
}

impl JobReport {
    /// The sort outcome (runs formed, merge statistics, response time, ...).
    pub fn outcome(&self) -> &SortOutcome {
        &self.completion.outcome
    }

    /// Stream the sorted result page by page off the settled run.
    pub fn into_stream(self) -> SortedStream<ServiceStore> {
        self.completion.into_stream()
    }

    /// Materialise the sorted result (convenience for small relations).
    pub fn into_sorted_vec(self) -> Result<Vec<Tuple>, SortError> {
        self.completion.into_sorted_vec()
    }
}
