//! Merge planning: how many runs should the next preliminary merge step
//! combine?
//!
//! Paper §2.2 compares two strategies. *Naive* merging lets every preliminary
//! step merge as many runs as memory allows (`m - 1`). *Optimized* merging
//! (Graefe) merges just enough runs in the **first** preliminary step so that
//! every subsequent step can merge `m - 1` runs — this minimises the tuples
//! processed by preliminary steps without increasing the number of steps.
//! In both strategies every step other than the final merge picks the
//! *shortest* available runs.

use crate::config::MergePolicy;
use crate::error::{SortError, SortResult};

/// Merging two or more runs needs at least two input buffers plus one output
/// buffer. Return the [`SortError::BudgetStarved`] that documents this when
/// `m` cannot cover it.
fn require_merge_memory(n: usize, m: usize) -> SortResult<()> {
    if n >= 2 && m < 3 {
        return Err(SortError::BudgetStarved {
            needed: 3,
            granted: m,
        });
    }
    Ok(())
}

/// Fan-in of the next preliminary merge step given `n` runs and `m` buffer
/// pages, or `Ok(None)` if all `n` runs fit in a single (final) merge step.
///
/// The returned fan-in is always between 2 and `m - 1`. Merging `n >= 2` runs
/// requires `m >= 3` buffer pages (two inputs + one output); smaller
/// allocations yield [`SortError::BudgetStarved`] instead of silently
/// planning a merge with more cursors than buffers.
pub fn preliminary_fan_in(n: usize, m: usize, policy: MergePolicy) -> SortResult<Option<usize>> {
    require_merge_memory(n, m)?;
    let max_fan = m.saturating_sub(1).max(2);
    if n <= max_fan {
        return Ok(None);
    }
    Ok(match policy {
        MergePolicy::Naive => Some(max_fan),
        MergePolicy::Optimized => {
            // Each preliminary step replaces `f` runs by 1, reducing the count
            // by `f - 1`. Later steps run at full fan-in (reduction m - 2);
            // the first step absorbs the remainder so no step is wasted.
            let excess = n - max_fan;
            let per_full_step = max_fan - 1;
            let rem = excess % per_full_step;
            let first = if rem == 0 { per_full_step } else { rem } + 1;
            Some(first.clamp(2, max_fan))
        }
    })
}

/// One step of a statically planned merge phase.
#[derive(Clone, Debug, PartialEq)]
pub struct PlannedStep {
    /// Number of input runs merged by this step.
    pub fan_in: usize,
    /// Total pages read (and written) by this step, assuming run lengths are
    /// known in advance and shortest runs are merged first.
    pub pages: usize,
    /// True if this is the final merge producing the sorted result.
    pub is_final: bool,
}

/// A pure planning summary of the merge phase for a *fixed* memory
/// allocation: which steps would run and how much data each would move.
///
/// This is the paper's *static splitting* (§2.2) in analytical form; it is
/// used by tests, the examples, and the experiment harness to reason about
/// naive vs optimized merging without executing anything.
#[derive(Clone, Debug, PartialEq)]
pub struct StaticPlanSummary {
    /// The planned steps, in execution order (final step last).
    pub steps: Vec<PlannedStep>,
}

impl StaticPlanSummary {
    /// Plan the merge of runs with the given lengths (in pages) using `m`
    /// buffer pages under `policy`.
    ///
    /// Merging two or more runs with fewer than 3 buffer pages is impossible
    /// (two input cursors plus one output buffer) and yields
    /// [`SortError::BudgetStarved`].
    pub fn plan(run_pages: &[usize], m: usize, policy: MergePolicy) -> SortResult<Self> {
        let mut lengths: Vec<usize> = run_pages.to_vec();
        lengths.sort_unstable();
        let mut steps = Vec::new();
        if lengths.is_empty() {
            return Ok(StaticPlanSummary { steps });
        }
        loop {
            match preliminary_fan_in(lengths.len(), m, policy)? {
                None => {
                    let pages = lengths.iter().sum();
                    steps.push(PlannedStep {
                        fan_in: lengths.len(),
                        pages,
                        is_final: true,
                    });
                    break;
                }
                Some(f) => {
                    // Merge the f shortest runs into one new run.
                    let merged: usize = lengths[..f].iter().sum();
                    steps.push(PlannedStep {
                        fan_in: f,
                        pages: merged,
                        is_final: false,
                    });
                    lengths.drain(..f);
                    let pos = lengths.partition_point(|&x| x < merged);
                    lengths.insert(pos, merged);
                }
            }
        }
        Ok(StaticPlanSummary { steps })
    }

    /// Number of merge steps in the plan.
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Total pages moved by preliminary (non-final) steps — the extra I/O the
    /// planning strategy is trying to minimise.
    pub fn preliminary_pages(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| !s.is_final)
            .map(|s| s.pages)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use MergePolicy::{Naive, Optimized};

    /// Number of merge steps (preliminary + final) needed to merge `n` runs
    /// with `m` buffer pages, counted in closed form: the oracle the plans
    /// are checked against. Both policies use the same number of steps.
    /// Like [`preliminary_fan_in`], merging `n >= 2` runs with `m < 3` pages
    /// is rejected with [`SortError::BudgetStarved`].
    fn total_merge_steps(n: usize, m: usize) -> SortResult<usize> {
        if n <= 1 {
            return Ok(usize::from(n == 1));
        }
        require_merge_memory(n, m)?;
        let max_fan = m.saturating_sub(1).max(2);
        if n <= max_fan {
            return Ok(1);
        }
        let excess = n - max_fan;
        let per_full_step = max_fan - 1;
        Ok(1 + excess.div_ceil(per_full_step))
    }

    #[test]
    fn no_preliminary_when_memory_sufficient() {
        assert_eq!(preliminary_fan_in(5, 8, Naive).unwrap(), None);
        assert_eq!(preliminary_fan_in(7, 8, Optimized).unwrap(), None);
        assert_eq!(total_merge_steps(7, 8).unwrap(), 1);
        assert_eq!(total_merge_steps(1, 8).unwrap(), 1);
        assert_eq!(total_merge_steps(0, 8).unwrap(), 0);
    }

    #[test]
    fn optimized_first_step_is_minimal() {
        // n=10, m=8: optimized merges 4, naive merges 7 (paper Figure 1).
        assert_eq!(preliminary_fan_in(10, 8, Optimized).unwrap(), Some(4));
        assert_eq!(preliminary_fan_in(10, 8, Naive).unwrap(), Some(7));
        // n=14, m=8: first optimized step merges only 2 runs.
        assert_eq!(preliminary_fan_in(14, 8, Optimized).unwrap(), Some(2));
        // n=13, m=8: the excess divides evenly, so a full step is fine.
        assert_eq!(preliminary_fan_in(13, 8, Optimized).unwrap(), Some(7));
    }

    #[test]
    fn both_policies_use_same_number_of_steps() {
        for n in 1..200 {
            for m in [4, 8, 16, 38, 100] {
                let runs: Vec<usize> = (0..n).map(|i| 5 + (i % 7)).collect();
                let p_naive = StaticPlanSummary::plan(&runs, m, Naive).unwrap();
                let p_opt = StaticPlanSummary::plan(&runs, m, Optimized).unwrap();
                assert_eq!(
                    p_naive.step_count(),
                    p_opt.step_count(),
                    "step counts differ for n={n}, m={m}"
                );
                assert_eq!(p_naive.step_count(), total_merge_steps(n, m).unwrap());
            }
        }
    }

    #[test]
    fn optimized_never_moves_more_preliminary_pages_than_naive() {
        for n in 2..150 {
            for m in [5, 8, 20, 38] {
                let runs: Vec<usize> = (0..n).map(|i| 3 + (i * 13 % 11)).collect();
                let p_naive = StaticPlanSummary::plan(&runs, m, Naive).unwrap();
                let p_opt = StaticPlanSummary::plan(&runs, m, Optimized).unwrap();
                assert!(
                    p_opt.preliminary_pages() <= p_naive.preliminary_pages(),
                    "opt prelim {} > naive prelim {} for n={n}, m={m}",
                    p_opt.preliminary_pages(),
                    p_naive.preliminary_pages()
                );
            }
        }
    }

    #[test]
    fn fan_in_bounds() {
        for n in 2..300 {
            for m in [3, 4, 8, 38] {
                for policy in [Naive, Optimized] {
                    if let Some(f) = preliminary_fan_in(n, m, policy).unwrap() {
                        assert!(f >= 2, "fan-in too small: n={n}, m={m}");
                        assert!(f < m, "fan-in exceeds memory: n={n}, m={m}");
                        assert!(f <= n);
                    }
                }
            }
        }
    }

    #[test]
    fn plan_final_step_covers_whole_relation() {
        let runs = vec![10usize; 25];
        for policy in [Naive, Optimized] {
            let p = StaticPlanSummary::plan(&runs, 8, policy).unwrap();
            let last = p.steps.last().unwrap();
            assert!(last.is_final);
            assert_eq!(last.pages, 250, "final step must process every tuple");
        }
    }

    #[test]
    fn plan_empty_and_single_run() {
        assert_eq!(
            StaticPlanSummary::plan(&[], 8, Naive).unwrap().step_count(),
            0
        );
        let p = StaticPlanSummary::plan(&[42], 8, Optimized).unwrap();
        assert_eq!(p.step_count(), 1);
        assert_eq!(p.steps.iter().map(|s| s.pages).sum::<usize>(), 42);
    }

    #[test]
    fn starved_memory_surfaces_instead_of_overcommitting() {
        use crate::error::SortError;
        // Merging >= 2 runs with m < 3 would need more cursors than buffers;
        // the planner must refuse rather than silently plan max_fan = 2.
        for m in [0, 1, 2] {
            for policy in [Naive, Optimized] {
                match preliminary_fan_in(5, m, policy) {
                    Err(SortError::BudgetStarved { needed: 3, granted }) => {
                        assert_eq!(granted, m)
                    }
                    other => panic!("expected BudgetStarved for m={m}, got {other:?}"),
                }
            }
            assert!(matches!(
                total_merge_steps(2, m),
                Err(SortError::BudgetStarved { needed: 3, .. })
            ));
            assert!(matches!(
                StaticPlanSummary::plan(&[4, 4], m, Optimized),
                Err(SortError::BudgetStarved { .. })
            ));
        }
        // A single run (or none) needs no merge buffers at all.
        assert_eq!(total_merge_steps(1, 0).unwrap(), 1);
        assert_eq!(total_merge_steps(0, 0).unwrap(), 0);
        assert_eq!(preliminary_fan_in(1, 0, Optimized).unwrap(), None);
        assert_eq!(
            StaticPlanSummary::plan(&[9], 1, Naive)
                .unwrap()
                .step_count(),
            1
        );
    }
}
