//! Admission control: requests queue until their guaranteed minimum share is
//! actually available.
//!
//! A request is in the queue only while its caller waits to redeem it. One
//! whose `min_pages` fits alongside the minimums already committed to live
//! sorts is admitted immediately; otherwise it waits in the queue and is
//! reconsidered on every completion and pool resize. Requests that can
//! *never* be admitted (`min_pages` larger than the whole pool) are rejected
//! with [`SortError::BudgetStarved`](masort_core::SortError::BudgetStarved)
//! instead of deadlocking — at submission time, or retroactively when an
//! operator shrinks the pool below a queued request's minimum.
//!
//! Admission is first-fit in FIFO order with **bounded bypass**: a small
//! request may overtake a larger one stuck ahead of it, but only
//! [`MAX_BYPASS`] times. After that the starved request becomes a *barrier* —
//! nothing behind it is admitted any more — so under a continuous stream of
//! small submissions the live sorts drain, the committed minimums shrink, and
//! the large request is guaranteed to run.

use crate::broker::MemoryBroker;
use crate::ticket::{JobId, TicketShared};
use masort_core::{InputSource, SortConfig};
use std::collections::VecDeque;
use std::sync::Arc;

/// A submitted sort, held by its ticket until its caller queues it.
pub(crate) struct QueuedRequest {
    pub job: JobId,
    pub cfg: SortConfig,
    pub input: Box<dyn InputSource + Send>,
    pub tenant: Option<String>,
    pub priority: u32,
    pub min_pages: usize,
    pub max_pages: usize,
    pub ticket: Arc<TicketShared>,
    pub submitted_at: f64,
    /// Times a younger request has been admitted past this one. At
    /// [`MAX_BYPASS`] the request becomes a barrier (see module docs).
    pub bypassed: u32,
}

/// How many times a queued request may be overtaken by younger requests
/// before it blocks everything behind it. Large enough to keep the pool busy
/// through a burst, small enough that a big request is not starved for long.
pub(crate) const MAX_BYPASS: u32 = 16;

/// FIFO queue with first-fit admission against a [`MemoryBroker`].
#[derive(Default)]
pub(crate) struct AdmissionQueue {
    queue: VecDeque<QueuedRequest>,
}

impl AdmissionQueue {
    pub fn push(&mut self, req: QueuedRequest) {
        self.queue.push_back(req);
    }

    pub fn len(&self) -> usize {
        self.queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Position of the first queued request whose minimum the broker can
    /// currently guarantee, never looking past a request that has already
    /// been bypassed [`MAX_BYPASS`] times (bounded bypass — see the module
    /// docs for the starvation argument).
    fn first_admissible(&self, broker: &MemoryBroker) -> Option<usize> {
        let barrier = self.queue.iter().position(|r| r.bypassed >= MAX_BYPASS);
        let candidates = barrier.map_or(self.queue.len(), |b| b + 1);
        self.queue
            .iter()
            .take(candidates)
            .position(|r| broker.can_admit(r.min_pages))
    }

    /// The job [`pop_admissible`](Self::pop_admissible) would take.
    pub fn peek_admissible(&self, broker: &MemoryBroker) -> Option<JobId> {
        Some(self.queue[self.first_admissible(broker)?].job)
    }

    /// Remove and return the first admissible request, counting the bypass
    /// against every request it overtakes.
    pub fn pop_admissible(&mut self, broker: &MemoryBroker) -> Option<QueuedRequest> {
        let idx = self.first_admissible(broker)?;
        for overtaken in self.queue.iter_mut().take(idx) {
            overtaken.bypassed += 1;
        }
        self.queue.remove(idx)
    }

    /// Remove (and return) the queued request with identifier `job`, e.g.
    /// because its ticket was cancelled before admission. `None` if the job
    /// is not queued — never submitted, already admitted, or already done.
    pub fn remove(&mut self, job: JobId) -> Option<QueuedRequest> {
        let idx = self.queue.iter().position(|r| r.job == job)?;
        self.queue.remove(idx)
    }

    /// Drain every queued request whose minimum exceeds `pool_pages` (it can
    /// never be admitted any more); the caller fails their tickets with
    /// `BudgetStarved`.
    pub fn drain_impossible(&mut self, pool_pages: usize) -> Vec<QueuedRequest> {
        let mut doomed = Vec::new();
        let mut i = 0;
        while i < self.queue.len() {
            if self.queue[i].min_pages > pool_pages {
                if let Some(r) = self.queue.remove(i) {
                    doomed.push(r);
                }
            } else {
                i += 1;
            }
        }
        doomed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use masort_core::VecSource;

    fn req(job: JobId, min: usize) -> QueuedRequest {
        QueuedRequest {
            job,
            cfg: SortConfig::default(),
            input: Box::new(VecSource::from_pages(Vec::new())),
            tenant: None,
            priority: 1,
            min_pages: min,
            max_pages: min.max(8),
            ticket: Arc::new(TicketShared::default()),
            submitted_at: 0.0,
            bypassed: 0,
        }
    }

    #[test]
    fn first_fit_lets_small_requests_bypass_a_stuck_head() {
        let broker = MemoryBroker::new(10);
        let mut q = AdmissionQueue::default();
        q.push(req(1, 99)); // cannot fit in a 10-page pool alongside nothing? (99 > 10)
        q.push(req(2, 4));
        let picked = q.pop_admissible(&broker).expect("job 2 fits");
        assert_eq!(picked.job, 2);
        assert_eq!(q.len(), 1);
        assert!(q.pop_admissible(&broker).is_none(), "head still stuck");
    }

    #[test]
    fn bypass_is_bounded_so_a_large_request_cannot_starve() {
        // A 10-page pool with a 4-page job live: an 8-page request cannot be
        // admitted, but a stream of small requests can. After MAX_BYPASS
        // overtakes the large request becomes a barrier and the small ones
        // queue behind it, however admissible they are.
        let mut broker = MemoryBroker::new(10);
        broker.admit(
            crate::policy::JobDemand {
                job: 0,
                priority: 1,
                min_pages: 4,
                max_pages: 8,
            },
            masort_core::MemoryBudget::new(4),
            0.0,
        );
        let mut q = AdmissionQueue::default();
        q.push(req(1, 8));
        for i in 0..MAX_BYPASS {
            q.push(req(100 + i as JobId, 2));
            let picked = q.pop_admissible(&broker).expect("small request fits");
            assert_eq!(picked.job, 100 + i as JobId);
        }
        // The bound is reached: an admissible small request now waits.
        q.push(req(999, 2));
        assert!(
            q.pop_admissible(&broker).is_none(),
            "bypass bound was not enforced"
        );
        // The moment the live job finishes, the starved request runs first.
        broker.release(0, 1.0);
        assert_eq!(q.pop_admissible(&broker).unwrap().job, 1);
        assert_eq!(q.pop_admissible(&broker).unwrap().job, 999);
    }

    #[test]
    fn remove_takes_out_exactly_the_named_job() {
        let mut q = AdmissionQueue::default();
        q.push(req(1, 2));
        q.push(req(2, 3));
        q.push(req(3, 4));
        assert_eq!(q.remove(2).unwrap().job, 2);
        assert!(q.remove(2).is_none(), "already removed");
        assert!(q.remove(99).is_none(), "never queued");
        assert_eq!(q.len(), 2);
        let broker = MemoryBroker::new(10);
        assert_eq!(q.pop_admissible(&broker).unwrap().job, 1);
        assert_eq!(q.pop_admissible(&broker).unwrap().job, 3);
    }

    #[test]
    fn drain_impossible_removes_only_oversized_requests() {
        let mut q = AdmissionQueue::default();
        q.push(req(1, 2));
        q.push(req(2, 50));
        q.push(req(3, 5));
        q.push(req(4, 51));
        let doomed = q.drain_impossible(10);
        let ids: Vec<JobId> = doomed.iter().map(|r| r.job).collect();
        assert_eq!(ids, vec![2, 4]);
        assert_eq!(q.len(), 2);
    }
}
