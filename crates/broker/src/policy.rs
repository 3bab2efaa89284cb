//! The one arbitration rule: how the global page pool is divided among the
//! live sorts.
//!
//! [`divide`] is a pure function from *(pool size, live-job demands)* to a
//! share per job. The service's memory broker invokes it on every
//! admission, completion and pool resize and pushes the resulting
//! shares into each sort's [`MemoryBudget`](masort_core::MemoryBudget) — the
//! sorts then grow, shrink, suspend, page or split to honour their new
//! target, exactly as they do under the paper's simulated buffer manager.

use crate::ticket::JobId;

/// The memory demand one live sort presents to the broker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobDemand {
    /// The job this demand belongs to.
    pub job: JobId,
    /// Scheduling priority (larger = more important, minimum effective
    /// weight 1).
    pub priority: u32,
    /// Pages this sort is guaranteed while it runs (admission control holds a
    /// request back until the pool can cover it).
    pub min_pages: usize,
    /// Pages beyond which extra memory is wasted on this sort (typically the
    /// configured `memory_pages`).
    pub max_pages: usize,
}

impl JobDemand {
    /// The cap actually used when dividing: `max_pages`, but never below
    /// `min_pages` (so inconsistent demands stay satisfiable) and never below
    /// one page (a live sort holding zero pages cannot make progress, so the
    /// broker's one-page floor is always within the cap).
    pub fn cap(&self) -> usize {
        self.max_pages.max(self.min_pages).max(1)
    }
}

/// Divide `pool_pages` among `jobs`, returning one share per job in the same
/// order.
///
/// Every job first gets its `min_pages`; the surplus is then divided in
/// proportion to `priority.max(1)`, never above a job's [`cap`](JobDemand::cap),
/// with whatever a capped job cannot take flowing to the others. A
/// priority-10 sort receives ten times the surplus of a priority-1 sort, and
/// equal priorities split it evenly. When the pool cannot cover the minimums
/// (an operator shrank it below the committed floor), the pool is instead
/// divided in proportion to the minimums.
pub fn divide(pool_pages: usize, jobs: &[JobDemand]) -> Vec<usize> {
    let total_min: usize = jobs.iter().map(|j| j.min_pages).sum();
    let mut shares = vec![0usize; jobs.len()];
    if total_min > pool_pages {
        let caps: Vec<usize> = jobs.iter().map(|j| j.min_pages).collect();
        let weights: Vec<u64> = jobs.iter().map(|j| j.min_pages.max(1) as u64).collect();
        distribute(&mut shares, &caps, &weights, pool_pages);
        return shares;
    }
    for (share, job) in shares.iter_mut().zip(jobs) {
        *share = job.min_pages;
    }
    let caps: Vec<usize> = jobs.iter().map(JobDemand::cap).collect();
    let weights: Vec<u64> = jobs.iter().map(|j| u64::from(j.priority.max(1))).collect();
    distribute(&mut shares, &caps, &weights, pool_pages - total_min);
    shares
}

/// Distribute `amount` pages across `shares`, proportionally to `weights`,
/// never pushing `shares[i]` above `caps[i]`. Deterministic; leftover pages
/// from integer rounding go to the earliest still-open jobs.
fn distribute(shares: &mut [usize], caps: &[usize], weights: &[u64], mut amount: usize) {
    while amount > 0 {
        let open: Vec<usize> = (0..shares.len()).filter(|&i| shares[i] < caps[i]).collect();
        if open.is_empty() {
            return;
        }
        let total_w: u64 = open.iter().map(|&i| weights[i].max(1)).sum();
        let round = amount;
        let mut given = 0usize;
        for &i in &open {
            let w = weights[i].max(1);
            let want = ((round as u128 * w as u128) / total_w as u128) as usize;
            let give = want.min(caps[i] - shares[i]).min(amount - given);
            shares[i] += give;
            given += give;
        }
        if given == 0 {
            // Rounding starved everyone: hand out the remainder one page at a
            // time, front to back.
            for &i in &open {
                if amount == 0 {
                    return;
                }
                if shares[i] < caps[i] {
                    shares[i] += 1;
                    amount -= 1;
                }
            }
            continue;
        }
        amount -= given;
    }
}

#[cfg(test)]
mod tests;
