//! Service-wide broker statistics: a typed read of the counters the
//! [`SortService`](crate::SortService) keeps, its only writer, plus the two
//! figures only its memory broker keeps — so the two cannot disagree.

use crate::broker::MemoryBroker;
use masort_trace::MetricsSnapshot;

/// Counter names [`ServiceStats`] reads; the service writes them under the
/// same names, so each is spelled once.
pub(crate) const SUBMITTED: &str = "jobs_submitted_total";
pub(crate) const COMPLETED: &str = "jobs_completed_total";
pub(crate) const FAILED: &str = "jobs_failed_total";
pub(crate) const REJECTED: &str = "admission_rejected_total";
pub(crate) const CANCELLED: &str = "jobs_cancelled_total";
pub(crate) const LEAKED_PAGES: &str = "leaked_pages_total";
pub(crate) const REALLOCATIONS: &str = "budget_reallocations_total";
pub(crate) const DELAY_SAMPLES: &str = "delay_samples_total";

/// Aggregate statistics across the whole service lifetime.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServiceStats {
    /// Requests accepted by [`submit`](crate::SortService::submit).
    pub submitted: u64,
    /// Jobs that finished successfully.
    pub completed: u64,
    /// Jobs that started but failed (I/O errors, corrupt runs, ...).
    pub failed: u64,
    /// Requests rejected as impossible (`min_pages` larger than the pool, at
    /// submission or after a pool shrink).
    pub rejected: u64,
    /// Jobs cancelled through [`SortTicket::cancel`](crate::SortTicket) —
    /// removed from the queue before running, or aborted mid-flight at an
    /// adaptivity checkpoint. Counted here, not under `failed`.
    pub cancelled: u64,
    /// Times the broker re-divided the pool (admissions + completions +
    /// resizes).
    pub rebalances: u64,
    /// Most sorts ever live at once.
    pub peak_live: usize,
    /// Pages a job's budget still recorded as held when the broker released
    /// the job. Every sort — completed, failed or cancelled — must hand all
    /// of its pages back, so anything other than zero is a leak.
    pub leaked_pages: u64,
    /// Total mid-flight reallocations across all completed jobs.
    pub total_reallocations: u64,
    /// Total delay samples recorded across all completed jobs.
    pub total_delay_samples: u64,
}

impl ServiceStats {
    /// The service-wide (unlabelled) counters of `metrics`, plus what
    /// `broker` alone counts.
    pub(crate) fn read(metrics: &MetricsSnapshot, broker: &MemoryBroker) -> ServiceStats {
        let total = |name| metrics.counter(name, None).unwrap_or(0);
        ServiceStats {
            submitted: total(SUBMITTED),
            completed: total(COMPLETED),
            failed: total(FAILED),
            rejected: total(REJECTED),
            cancelled: total(CANCELLED),
            rebalances: broker.rebalances(),
            peak_live: broker.peak_live(),
            leaked_pages: total(LEAKED_PAGES),
            total_reallocations: total(REALLOCATIONS),
            total_delay_samples: total(DELAY_SAMPLES),
        }
    }
}
