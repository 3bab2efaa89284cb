//! The service's shared state: the broker, the admission queue, the parked
//! roots and the metrics registry, behind one lock.

use super::{job_span, Root};
use crate::admission::AdmissionQueue;
use crate::broker::MemoryBroker;
use crate::stats::*;
use crate::ticket::{JobId, JobReport};
use masort_core::sync::{Condvar, Mutex, MutexGuard};
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
    pub(super) state: Mutex<State>,
    pub(super) work: Condvar,
}

impl Shared {
    pub(super) fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    pub(super) fn lock(&self) -> MutexGuard<'_, State> {
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
