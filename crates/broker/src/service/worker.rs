//! The worker threads: admit a queued request, sort it to its root, and
//! hand the root to the ticket (or fail the job).

use super::root::{Books, Root, RootEnd, RootSlot};
use super::state::State;
use super::{job_span, Shared};
use crate::admission::QueuedRequest;
use crate::policy::JobDemand;
use crate::ticket::JobOutput;
use masort_core::sync::Mutex;
use masort_core::{
    FileStore, MemoryBudget, RealEnv, SortCompletion, SortError, SortJob, SortResult,
};
use masort_trace::EventKind;
use std::sync::Arc;

/// A worker's life: admit → sort to the root → hand the root over, or fail.
pub(super) fn worker_loop(shared: Arc<Shared>) {
    while let Some((books, req)) = next_admitted(&shared) {
        match sort_to_root(&shared, &books, req) {
            Ok(sort) => hand_over(&shared, books, sort),
            Err(e) => fail(&shared, books, e),
        }
    }
}

/// Wait for a queued request that fits beside the live minimums and admit
/// it; `None` once the service is shut down and its queue is drained.
fn next_admitted(shared: &Shared) -> Option<(Books, QueuedRequest)> {
    let mut st = shared.lock();
    loop {
        let state = &mut *st;
        if let Some(req) = state.queue.pop_admissible(&state.broker) {
            let books = admit(shared, state, &req);
            let moved = state.parked.clone();
            drop(st);
            // The admission moved every live target; the parked roots follow.
            shared.answer(moved);
            return Some((books, req));
        }
        // A request is queued that does not fit beside the live
        // minimums: a parked root makes room, by settling.
        let root = st.parked.first().filter(|_| !st.queue.is_empty());
        if let Some(root) = root.cloned() {
            drop(st);
            root.slot.lock().settle(shared, RootEnd::QueuedRequest);
            st = shared.lock();
            continue;
        }
        if st.shutdown && st.queue.is_empty() {
            return None;
        }
        st = shared.work.wait(st);
    }
}

/// Admit `req`, under the state lock: a budget at its minimum, given to the
/// broker (which moves every live target), and the books its release closes.
fn admit(shared: &Shared, state: &mut State, req: &QueuedRequest) -> Books {
    let now = shared.now();
    let budget = MemoryBudget::new(req.min_pages);
    let demand = JobDemand {
        job: req.job,
        priority: req.priority,
        min_pages: req.min_pages,
        max_pages: req.max_pages,
    };
    state.broker.admit(demand, budget.clone(), now);
    // Make the budget reachable from the ticket; a cancel that raced this
    // admission is applied to it in there.
    req.ticket.attach_budget(budget.clone());
    let snapshot = budget.snapshot();
    // The grant counted here is the one the job's trace records: counters
    // and timelines agree on pages granted.
    let tenant = req.tenant.as_deref();
    state.count("pages_granted_total", tenant, snapshot.target as u64);
    Books {
        job: req.job,
        tenant: req.tenant.clone(),
        ticket: Arc::clone(&req.ticket),
        budget,
        trace: shared.trace.with_span(job_span(req.job)),
        tuples_per_page: req.cfg.tuples_per_page(),
        initial_grant: snapshot.target,
        start_version: snapshot.version,
        submitted_at: req.submitted_at,
        admitted_at: now,
    }
}

/// Form the job's runs in a fresh unnamed temporary file and run the
/// preliminary merge steps on this worker, stopping with the root parked.
fn sort_to_root(
    shared: &Shared,
    books: &Books,
    req: QueuedRequest,
) -> SortResult<SortCompletion<FileStore>> {
    let trace = &books.trace;
    if trace.is_enabled() {
        trace.emit(EventKind::AdmissionGranted {
            pages: books.initial_grant,
        });
        books.budget.attach_trace(trace.clone());
    }
    let mut env = RealEnv::starting_at(shared.start);
    env.max_wait = shared.suspension_wait;
    env.trace = trace.clone();
    // A panicking job (e.g. a user-supplied `InputSource`) must not take the
    // worker thread down with it: its pages would stay committed forever and
    // its ticket would never be resolved. Contain the unwind and surface it
    // as an error on the ticket instead.
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        SortJob::builder()
            .config(req.cfg)
            .input(req.input)
            .store(FileStore::in_temp_dir()?)
            .env(env)
            .budget(books.budget.clone())
            .build()?
            // The root parks: the output's holder executes it, and
            // whoever moves the budget runs its checkpoint meanwhile.
            .run_to_root()
    }))
    .unwrap_or_else(|panic| Err(panic_error(panic)))
}

/// Park the job's root where budget moves and settles reach it, and give the
/// ticket its output.
fn hand_over(shared: &Arc<Shared>, books: Books, sort: SortCompletion<FileStore>) {
    let (job, ticket) = (books.job, Arc::clone(&books.ticket));
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

/// Close the books of a job that failed before its root, and give the ticket
/// the error.
fn fail(shared: &Shared, books: Books, e: SortError) {
    let ticket = Arc::clone(&books.ticket);
    // A cancelled job did what it was told; count it apart from genuine
    // failures. A sort that was blocked on its input when the cancel landed
    // reports whatever error that input ends with instead of `Cancelled` —
    // normalise it, so cancellation accounting is deterministic for the
    // caller.
    let e = match ticket.cancel_requested() {
        true => SortError::Cancelled,
        false => e,
    };
    books.close(shared, Some(&e), None);
    ticket.fulfill(Err(e));
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
