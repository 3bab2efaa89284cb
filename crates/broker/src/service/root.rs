//! A job at its root: the parked merge, its checkpoint and settle, and the
//! job's one release.

use super::Shared;
use crate::stats::*;
use crate::ticket::{JobId, JobReport, TicketShared};
use masort_core::sync::Mutex;
use masort_core::{
    FileStore, MemoryBudget, Page, SortCompletion, SortError, SortOutcome, SortResult,
};
use masort_trace::{EventKind, Trace};
use std::sync::Arc;

/// How a job's last merge step ended, and so whether (and why) part of its
/// result went through the store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum RootEnd {
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
/// the budget runs the root's checkpoint, and a caller waiting for admission
/// settles the root when its request needs the memory. Lock order: a root,
/// then the state.
#[derive(Debug)]
pub(crate) struct Root {
    pub(super) job: JobId,
    pub(super) slot: Mutex<RootSlot>,
}

#[derive(Debug)]
pub(super) struct RootSlot {
    /// The parked sort until it is closed; after a settle, the run the rest
    /// of the result went into.
    pub(super) sort: Option<SortCompletion<FileStore>>,
    /// What the job's release needs; taken by it, so it happens once.
    pub(super) books: Option<Books>,
    /// The job's report, from its release until it is taken.
    pub(super) report: Option<JobReport>,
    /// What ended the result while nobody pulled, for the next pull.
    pub(super) error: Option<SortError>,
    pub(super) tuples_streamed: usize,
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
    pub(super) fn checkpoint(&mut self, shared: &Shared) {
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
    pub(super) fn settle(&mut self, shared: &Shared, why: RootEnd) {
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
pub(super) struct Books {
    pub(super) job: JobId,
    pub(super) tenant: Option<String>,
    pub(super) ticket: Arc<TicketShared>,
    pub(super) budget: MemoryBudget,
    pub(super) trace: Trace,
    pub(super) tuples_per_page: usize,
    pub(super) initial_grant: usize,
    pub(super) start_version: u64,
    pub(super) submitted_at: f64,
    pub(super) admitted_at: f64,
}

impl Books {
    /// Give the job's grant back and close its books. `root` is how the
    /// root ended, with the final outcome and the tuples streamed off it,
    /// for a job that reached it; such a job gets its report.
    pub(super) fn close(
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
