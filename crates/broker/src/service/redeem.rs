//! Redeeming a ticket, on the caller's thread: wait in the admission line,
//! sort to the root, and hand back the output (or fail the job).

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

/// A redeemed ticket's job, on its caller's thread: admitted → sorted to
/// the root → parked in the output, or failed.
pub(crate) fn redeem(shared: &Arc<Shared>, req: QueuedRequest) -> SortResult<JobOutput> {
    let (books, req) = admitted(shared, req)?;
    match sort_to_root(shared, &books, req) {
        Ok(sort) => Ok(park(shared, books, sort)),
        Err(e) => Err(fail(shared, books, e)),
    }
}

/// Wait in the admission line until `req` is admitted: it is the first
/// request in line whose minimum fits beside the live minimums (within the
/// bypass bound), and fewer than `workers` admitted jobs are short of their
/// root. While no request in line fits, a parked root makes room by
/// settling. A cancel, a pool shrink under the request's minimum or a
/// shutdown ends the wait with the job's error.
fn admitted(shared: &Shared, mut req: QueuedRequest) -> SortResult<(Books, QueuedRequest)> {
    let (job, ticket) = (req.job, Arc::clone(&req.ticket));
    // Queued from now: a ticket nobody redeemed was in no line.
    req.submitted_at = shared.now();
    shared
        .trace
        .with_span(job_span(job))
        .emit(EventKind::AdmissionQueued);
    let mut st = shared.lock();
    if st.shutdown || ticket.cancel_requested() {
        return Err(shared.unadmitted(&st, &req, SortError::Cancelled));
    }
    st.queue.push(req);
    // A minimum above the whole pool never fits: refused like a pool shrink.
    let doomed = shared.refuse_impossible(&mut st);
    loop {
        if let Some(e) = ticket.refusal() {
            drop(st);
            drop(doomed);
            return Err(e);
        }
        let state = &mut *st;
        if state.running() < shared.workers {
            let first = state.queue.peek_admissible(&state.broker);
            if first == Some(job) {
                let req = state
                    .queue
                    .pop_admissible(&state.broker)
                    .expect("the first admissible request");
                let books = admit(shared, state, &req);
                let moved = state.parked.clone();
                drop(st);
                // The next in line may fit too; the parked roots follow the
                // targets the admission moved.
                shared.work.notify_all();
                shared.answer(moved);
                return Ok((books, req));
            }
            // No request in line fits beside the live minimums: a parked
            // root makes room, by settling.
            if let Some(root) = state.parked.first().filter(|_| first.is_none()).cloned() {
                drop(st);
                root.slot.lock().settle(shared, RootEnd::QueuedRequest);
                st = shared.lock();
                continue;
            }
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
/// preliminary merge steps on the caller's thread, stopping at the root.
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
    // A panicking job (e.g. a user-supplied `InputSource`) must not unwind
    // past its books: its pages would stay committed forever and its slot
    // against `workers` taken. Contain the unwind and surface it as the
    // job's error instead.
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

/// Park the job's root where budget moves and settles reach it, and make
/// it the caller's output.
fn park(shared: &Arc<Shared>, books: Books, sort: SortCompletion<FileStore>) -> JobOutput {
    let job = books.job;
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
    // The job no longer counts against `workers`.
    shared.work.notify_all();
    // A move or a cancel since the sort last looked found no root to
    // answer it.
    shared.answer(Some(Arc::clone(&root)));
    JobOutput::new(root, Arc::clone(shared))
}

/// Close the books of a job that failed before its root; its error.
fn fail(shared: &Shared, books: Books, e: SortError) -> SortError {
    // A cancelled job did what it was told; count it apart from genuine
    // failures. A sort that was blocked on its input when the cancel landed
    // reports whatever error that input ends with instead of `Cancelled` —
    // normalise it, so cancellation accounting is deterministic for the
    // caller.
    let e = match books.ticket.cancel_requested() {
        true => SortError::Cancelled,
        false => e,
    };
    books.close(shared, Some(&e), None);
    e
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
