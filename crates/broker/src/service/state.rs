//! The service's shared state: the broker, the admission queue, the parked
//! roots and the metrics registry, behind one lock.

use super::{job_span, Root};
use crate::admission::{AdmissionQueue, QueuedRequest};
use crate::broker::MemoryBroker;
use crate::stats::*;
use crate::ticket::{JobId, JobReport};
use masort_core::sync::{Condvar, Mutex, MutexGuard};
use masort_core::SortError;
use masort_trace::{EventKind, MetricsRegistry, MetricsSnapshot, Trace};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bucket bounds (seconds) for the service's latency histograms
/// (`job_response_seconds`, `job_queue_wait_seconds`, `io_stall_seconds`).
const LATENCY_BUCKETS: &[f64] = &[0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0];

/// Bucket bounds (tuples/second) for `merge_tuples_per_sec`.
const THROUGHPUT_BUCKETS: &[f64] = &[1e3, 1e4, 1e5, 1e6, 1e7, 1e8];

/// Bucket bounds (tuples) for `masort_runs_length` — run lengths span from a
/// page's worth under tiny budgets to whole-input natural runs under adaptive
/// formation.
const RUN_LENGTH_BUCKETS: &[f64] = &[1e2, 1e3, 1e4, 1e5, 1e6, 1e7];

pub(super) struct State {
    pub(super) broker: MemoryBroker,
    pub(super) queue: AdmissionQueue,
    /// The service's books: every service total is a counter here, bumped
    /// once per event under this lock.
    pub(super) metrics: MetricsRegistry,
    pub(super) next_job: JobId,
    /// The jobs at their root that are not released yet.
    pub(super) parked: Vec<Arc<Root>>,
    pub(super) shutdown: bool,
}

impl State {
    /// Add `n` to counter `name`, service-wide and, for a tenant's job,
    /// under the tenant's label.
    pub(super) fn count(&self, name: &str, tenant: Option<&str>, n: u64) {
        for label in std::iter::once(None).chain(tenant.map(Some)) {
            self.metrics.counter(name, label).add(n);
        }
    }

    /// The books of a job that completed.
    pub(super) fn count_completed(&self, report: &JobReport, tenant: Option<&str>) {
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

    /// Admitted jobs short of their root: live, and not parked.
    pub(super) fn running(&self) -> usize {
        self.broker.live_count() - self.parked.len()
    }

    /// Set the gauges from the broker's state, then copy the books out.
    pub(super) fn snapshot(&self) -> MetricsSnapshot {
        let gauge = |name, value: usize| self.metrics.gauge(name, None).set(value as i64);
        gauge("pool_pages", self.broker.pool_pages());
        gauge("jobs_live", self.broker.live_count());
        gauge("jobs_queued", self.queue.len());
        self.metrics.snapshot()
    }
}

pub(crate) struct Shared {
    pub(super) start: Instant,
    pub(super) suspension_wait: Duration,
    /// Service-wide observability handle; jobs emit on [`job_span`] rebinds.
    pub(super) trace: Trace,
    /// How many admitted jobs may be short of their root at once.
    pub(super) workers: usize,
    pub(super) state: Mutex<State>,
    /// Notified whenever the admission line may move.
    pub(super) work: Condvar,
}

impl Shared {
    pub(super) fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    pub(super) fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock()
    }

    /// Count `req` as ended unadmitted, by a cancel or a minimum above the
    /// pool, and put that on its timeline; `e` is what its caller returns.
    pub(super) fn unadmitted(&self, st: &State, req: &QueuedRequest, e: SortError) -> SortError {
        let trace = self.trace.with_span(job_span(req.job));
        if let SortError::BudgetStarved { needed, granted } = e {
            st.count(REJECTED, req.tenant.as_deref(), 1);
            trace.emit(EventKind::AdmissionRejected { needed, granted });
        } else {
            st.count(CANCELLED, req.tenant.as_deref(), 1);
            trace.emit(EventKind::Cancelled);
        }
        req.ticket.job_over();
        e
    }

    /// Take every request out of the admission line whose minimum exceeds
    /// the pool: its caller returns `BudgetStarved`. The requests are
    /// returned, to be dropped outside the lock.
    pub(super) fn refuse_impossible(&self, st: &mut State) -> Vec<QueuedRequest> {
        let granted = st.broker.pool_pages();
        let doomed = st.queue.drain_impossible(granted);
        for req in &doomed {
            let e = SortError::BudgetStarved {
                needed: req.min_pages,
                granted,
            };
            req.ticket.refuse(self.unadmitted(st, req, e));
        }
        doomed
    }

    /// Cancel job `job`: a request nobody redeemed (`unredeemed`) or one
    /// in the admission line ends here; a job at its root has its checkpoint
    /// see the cancel now. (A running job sees it on its budget.)
    pub(crate) fn cancel(&self, job: JobId, unredeemed: Option<QueuedRequest>) {
        let mut st = self.lock();
        let Some(req) = unredeemed.or_else(|| st.queue.remove(job)) else {
            let root = st.parked.iter().find(|root| root.job == job).cloned();
            drop(st);
            return self.answer(root);
        };
        req.ticket
            .refuse(self.unadmitted(&st, &req, SortError::Cancelled));
        // The request (and its boxed input source) dies outside the lock.
        drop(st);
        self.work.notify_all();
    }

    /// Have each of `roots` answer its budget at once, by running the
    /// checkpoint its merge runs between pages. A root whose consumer is
    /// mid-pull is skipped: that pull is the answer.
    pub(super) fn answer(&self, roots: impl IntoIterator<Item = Arc<Root>>) {
        for root in roots {
            if let Some(mut slot) = root.slot.try_lock() {
                slot.checkpoint(self);
            }
        }
    }
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").finish_non_exhaustive()
    }
}
