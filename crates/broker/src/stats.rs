//! Per-job and service-wide broker statistics.
//!
//! These mirror the measurements of the paper's evaluation at service level:
//! how long requests queued for admission, how often the broker re-divided
//! memory under each job, and the split/merge-phase delay samples each sort's
//! [`MemoryBudget`](masort_core::MemoryBudget) recorded while honouring
//! shrink requests.

use crate::ticket::JobId;
use std::collections::BTreeMap;

/// Broker-side statistics for one job, taken when its grant went back to the
/// pool (from the sort's final outcome).
#[derive(Clone, Debug)]
pub struct JobStats {
    /// The job these statistics belong to.
    pub job: JobId,
    /// Tenant the job was submitted on behalf of
    /// ([`SortRequest::tenant`](crate::SortRequest::tenant)), if any.
    pub tenant: Option<String>,
    /// Priority the job was submitted with.
    pub priority: u32,
    /// Guaranteed minimum share (pages).
    pub min_pages: usize,
    /// Maximum useful share (pages).
    pub max_pages: usize,
    /// Seconds spent queued before admission (waiting for the minimum share
    /// to become available).
    pub queued_for: f64,
    /// Seconds between admission and the release of the job's grant: the
    /// last merge step exhausted into the hand-off, its remainder settled,
    /// or the sort closed.
    pub ran_for: f64,
    /// Pages the broker granted at admission.
    pub initial_grant: usize,
    /// Number of times the broker adjusted this job's page target *after* its
    /// initial grant — i.e. mid-flight reallocations, observed via
    /// [`MemoryBudget::version`](masort_core::MemoryBudget::version).
    pub reallocations: u64,
    /// Number of delay samples the budget recorded while the sort honoured
    /// shrink requests (the paper's split-phase / merge-phase delays). The
    /// samples themselves live in the outcome
    /// ([`SortOutcome::delays`](masort_core::SortOutcome)) — this avoids
    /// carrying the vector twice in every report.
    pub delay_samples: usize,
    /// Summed duration (seconds) of those delay samples.
    pub total_delay: f64,
    /// Seconds the merge phase spent in store reads of its input runs.
    pub io_stall_seconds: f64,
    /// Sorted runs the split phase emitted.
    pub runs_emitted: usize,
    /// Tuples in the shortest run (0 if no runs were formed).
    pub min_run_tuples: usize,
    /// Tuples in the longest run (0 if no runs were formed).
    pub max_run_tuples: usize,
    /// Mean tuples per run (0 if no runs were formed).
    pub avg_run_tuples: f64,
    /// Natural (pre-existing) runs the split phase detected in its input —
    /// populated only when the job's run formation was
    /// [`NaturalSelect`](masort_core::RunFormation::NaturalSelect) (`natN`).
    pub natural_runs: usize,
    /// Tuples absorbed through the order-detection fast path (see
    /// `natural_runs`); 0 for classic formation.
    pub natural_tuples: usize,
}

impl JobStats {
    /// Mean delay (seconds) across all shrink requests this job honoured, or
    /// zero if it never faced a shortage.
    pub fn mean_delay(&self) -> f64 {
        if self.delay_samples == 0 {
            0.0
        } else {
            self.total_delay / self.delay_samples as f64
        }
    }

    /// Total response time: queue wait plus execution.
    pub fn response_time(&self) -> f64 {
        self.queued_for + self.ran_for
    }
}

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
    /// Times the broker re-divided the pool (admissions + completions +
    /// resizes).
    pub rebalances: u64,
    /// Explicit [`resize_pool`](crate::SortService::resize_pool) calls.
    pub resizes: u64,
    /// Most sorts ever live at once.
    pub peak_live: usize,
    /// Most requests ever queued at once.
    pub peak_queued: usize,
    /// Total seconds jobs spent queued before admission.
    pub total_queue_wait: f64,
    /// Total mid-flight reallocations across all completed jobs.
    pub total_reallocations: u64,
    /// Total delay samples recorded across all completed jobs.
    pub total_delay_samples: u64,
    /// Jobs cancelled through [`SortTicket::cancel`](crate::SortTicket) —
    /// removed from the queue before running, or aborted mid-flight at an
    /// adaptivity checkpoint. Counted here, not under `failed`.
    pub cancelled: u64,
    /// Pages a job's budget still recorded as held when the broker released
    /// the job. Every sort — completed, failed or cancelled — must hand all
    /// of its pages back, so anything other than zero is a leak.
    pub leaked_pages: u64,
    /// Per-tenant accounting for submissions tagged with
    /// [`SortRequest::tenant`](crate::SortRequest::tenant); untagged
    /// submissions only appear in the service-wide counters above.
    pub tenants: BTreeMap<String, TenantStats>,
}

impl ServiceStats {
    /// Accounting for one tenant, if any job has been submitted under `name`.
    pub fn tenant(&self, name: &str) -> Option<&TenantStats> {
        self.tenants.get(name)
    }

    pub(crate) fn tenant_entry(&mut self, name: &str) -> &mut TenantStats {
        // Entry-by-owned-key only when the tenant is new.
        if !self.tenants.contains_key(name) {
            self.tenants
                .insert(name.to_string(), TenantStats::default());
        }
        self.tenants.get_mut(name).expect("just inserted")
    }
}

/// Aggregate statistics for one tenant's submissions.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantStats {
    /// Requests accepted for this tenant.
    pub submitted: u64,
    /// Jobs that finished successfully.
    pub completed: u64,
    /// Jobs that started but failed.
    pub failed: u64,
    /// Jobs cancelled while queued or running.
    pub cancelled: u64,
    /// Total seconds this tenant's jobs spent queued before admission.
    pub total_queue_wait: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_stats_mean_delay() {
        let mut s = JobStats {
            job: 0,
            tenant: None,
            priority: 1,
            min_pages: 1,
            max_pages: 8,
            queued_for: 0.5,
            ran_for: 1.5,
            initial_grant: 4,
            reallocations: 3,
            delay_samples: 0,
            total_delay: 0.0,
            io_stall_seconds: 0.0,
            runs_emitted: 0,
            min_run_tuples: 0,
            max_run_tuples: 0,
            avg_run_tuples: 0.0,
            natural_runs: 0,
            natural_tuples: 0,
        };
        assert_eq!(s.mean_delay(), 0.0);
        assert!((s.response_time() - 2.0).abs() < 1e-12);
        // One 1 s split-phase delay and one 3 s merge-phase delay.
        s.delay_samples = 2;
        s.total_delay = 4.0;
        assert!((s.mean_delay() - 2.0).abs() < 1e-12);
    }
}
