//! The global memory broker: one page pool, many live sorts.
//!
//! [`MemoryBroker`] owns the pool size and the registry of live jobs, and on
//! every admission, release and resize re-divides the pool with
//! [`divide`], pushing the new share into each job's [`MemoryBudget`] via
//! [`set_target`](MemoryBudget::set_target). The sorts observe the moved
//! target at their next adaptation point and grow, shrink, suspend, page or
//! split accordingly — this is the paper's DBMS buffer manager realised as a
//! real component driving real threads.
//!
//! The broker is usable standalone (hand it budgets you created for your own
//! [`SortJob`](masort_core::SortJob)s and call
//! [`rebalance`](MemoryBroker::rebalance) yourself); the
//! [`SortService`](crate::SortService) wraps it with admission control, and
//! runs each sort on the thread that redeems its ticket.

use crate::policy::{divide, JobDemand};
use crate::ticket::JobId;
use masort_core::MemoryBudget;

#[derive(Debug)]
struct LiveEntry {
    demand: JobDemand,
    budget: MemoryBudget,
}

/// Divides one global page pool across the live sorts' memory budgets.
#[derive(Debug)]
pub struct MemoryBroker {
    pool_pages: usize,
    live: Vec<LiveEntry>,
    rebalances: u64,
    peak_live: usize,
}

impl MemoryBroker {
    /// Create a broker over a pool of `pool_pages` pages.
    pub fn new(pool_pages: usize) -> Self {
        MemoryBroker {
            pool_pages,
            live: Vec::new(),
            rebalances: 0,
            peak_live: 0,
        }
    }

    /// Current pool size in pages.
    pub fn pool_pages(&self) -> usize {
        self.pool_pages
    }

    /// Number of live (admitted, not yet released) jobs.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Total pages guaranteed to live jobs (the sum of their minimums).
    pub fn committed_min(&self) -> usize {
        self.live.iter().map(|e| e.demand.min_pages).sum()
    }

    /// Times the pool has been re-divided so far.
    pub fn rebalances(&self) -> u64 {
        self.rebalances
    }

    /// Most jobs ever live at once.
    pub(crate) fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Whether a job guaranteed `min_pages` can be admitted right now without
    /// breaking the guarantees of the jobs already live.
    pub fn can_admit(&self, min_pages: usize) -> bool {
        self.committed_min() + min_pages <= self.pool_pages
    }

    /// Admit a job: register its demand and budget, then re-divide the pool
    /// (every live budget's target moves, including the newcomer's initial
    /// grant). Callers should check [`can_admit`](Self::can_admit) first;
    /// admitting an infeasible job degrades everyone proportionally instead
    /// of failing.
    pub fn admit(&mut self, demand: JobDemand, budget: MemoryBudget, now: f64) {
        self.live.push(LiveEntry { demand, budget });
        self.peak_live = self.peak_live.max(self.live.len());
        self.rebalance(now);
    }

    /// Release a completed job and re-divide the pool among the remaining
    /// live jobs. Releasing an unknown job id is a no-op (release must be
    /// idempotent so error paths can't wedge the broker).
    pub fn release(&mut self, job: JobId, now: f64) {
        let before = self.live.len();
        self.live.retain(|e| e.demand.job != job);
        if self.live.len() != before {
            self.rebalance(now);
        }
    }

    /// Grow or shrink the global pool and re-divide it immediately.
    pub fn resize(&mut self, pool_pages: usize, now: f64) {
        self.pool_pages = pool_pages;
        self.rebalance(now);
    }

    /// Re-divide the pool across all live jobs with [`divide`] and push each
    /// share into the corresponding budget.
    ///
    /// Two floors are enforced on the shares: a share never exceeds the job's
    /// cap, and a live sort is never pushed below **one page** — if an
    /// operator shrinks the pool under the number of live sorts the broker
    /// temporarily overcommits rather than starving a sort outright (a sort
    /// holding zero pages cannot make progress).
    pub fn rebalance(&mut self, now: f64) {
        let demands: Vec<JobDemand> = self.live.iter().map(|e| e.demand).collect();
        let mut shares = divide(self.pool_pages, &demands);
        shares.resize(demands.len(), 0);
        let mut spent = 0usize;
        for (share, demand) in shares.iter_mut().zip(&demands) {
            let room = self.pool_pages.saturating_sub(spent);
            *share = (*share).min(demand.cap()).min(room).max(1);
            spent += *share;
        }
        for (entry, share) in self.live.iter().zip(&shares) {
            entry.budget.set_target(*share, now);
        }
        self.rebalances += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(job: JobId, priority: u32, min: usize, max: usize) -> JobDemand {
        JobDemand {
            job,
            priority,
            min_pages: min,
            max_pages: max,
        }
    }

    #[test]
    fn admission_sets_every_live_target() {
        let mut broker = MemoryBroker::new(24);
        let a = MemoryBudget::new(0);
        let b = MemoryBudget::new(0);
        broker.admit(demand(1, 1, 2, 100), a.clone(), 0.0);
        assert_eq!(a.target(), 24, "lone job gets the whole pool");
        let va = a.version();
        broker.admit(demand(2, 1, 2, 100), b.clone(), 1.0);
        assert_eq!(a.target(), 12);
        assert_eq!(b.target(), 12);
        assert!(a.version() > va, "existing job saw a reallocation");
        assert_eq!(broker.rebalances(), 2);
    }

    #[test]
    fn release_returns_memory_to_survivors() {
        let mut broker = MemoryBroker::new(24);
        let a = MemoryBudget::new(0);
        let b = MemoryBudget::new(0);
        broker.admit(demand(1, 1, 2, 100), a.clone(), 0.0);
        broker.admit(demand(2, 1, 2, 100), b.clone(), 0.0);
        broker.release(1, 1.0);
        assert_eq!(broker.live_count(), 1);
        assert_eq!(b.target(), 24);
        // Idempotent: releasing again neither panics nor rebalances.
        let r = broker.rebalances();
        broker.release(1, 2.0);
        assert_eq!(broker.rebalances(), r);
    }

    #[test]
    fn resize_moves_all_targets() {
        let mut broker = MemoryBroker::new(32);
        let a = MemoryBudget::new(0);
        let b = MemoryBudget::new(0);
        broker.admit(demand(1, 3, 1, 100), a.clone(), 0.0);
        broker.admit(demand(2, 1, 1, 100), b.clone(), 0.0);
        assert!(a.target() > b.target());
        broker.resize(8, 1.0);
        assert!(a.target() + b.target() <= 8);
        assert!(a.target() >= 1 && b.target() >= 1);
    }

    #[test]
    fn can_admit_tracks_committed_minimums() {
        let mut broker = MemoryBroker::new(10);
        assert!(broker.can_admit(10));
        assert!(!broker.can_admit(11));
        broker.admit(demand(1, 1, 6, 100), MemoryBudget::new(0), 0.0);
        assert!(broker.can_admit(4));
        assert!(!broker.can_admit(5));
        broker.release(1, 1.0);
        assert!(broker.can_admit(10));
    }

    #[test]
    fn degenerate_zero_demand_still_gets_exactly_its_one_page_cap() {
        // A standalone-broker user can register min = max = 0; the one-page
        // floor then coincides with the (floored) cap instead of exceeding it.
        let mut broker = MemoryBroker::new(8);
        let zero = MemoryBudget::new(0);
        let normal = MemoryBudget::new(0);
        broker.admit(demand(1, 1, 0, 0), zero.clone(), 0.0);
        broker.admit(demand(2, 1, 1, 100), normal.clone(), 0.0);
        assert_eq!(zero.target(), 1, "floored cap is one page");
        assert_eq!(normal.target(), 7, "the rest flows to the real job");
    }

    #[test]
    fn live_sorts_never_starve_below_one_page() {
        let mut broker = MemoryBroker::new(16);
        let budgets: Vec<MemoryBudget> = (0..4).map(|_| MemoryBudget::new(0)).collect();
        for (i, b) in budgets.iter().enumerate() {
            broker.admit(demand(i as JobId, 1, 2, 100), b.clone(), 0.0);
        }
        // Operator panic-shrinks the pool below the live-sort count.
        broker.resize(2, 1.0);
        for b in &budgets {
            assert!(b.target() >= 1, "a live sort was starved to zero pages");
        }
    }
}
