//! The merge phase: combining sorted runs into the final result under a
//! fluctuating memory budget.
//!
//! * [`plan`] — fan-in computation for naive vs optimized merging and a pure
//!   planning utility ([`StaticPlanSummary`]) that predicts the merge-step
//!   structure for a fixed memory allocation.
//!
//! The executor is internal to the crate; a sort or join reaches it through
//! [`SortJob`](crate::SortJob) or [`SortMergeJoin`](crate::SortMergeJoin):
//!
//! * `cursor` — a read cursor over a stored run, one buffer page at a time,
//!   with a cached rank column per buffered page.
//! * `select` — the loser tree that picks the next input in O(log fan) over
//!   the cached ranks.
//! * `step` — the merge-step arena used by dynamic splitting: a tree of steps
//!   where each step's output run feeds its parent.
//! * `exec` — the adaptation-aware executor implementing suspension, MRU
//!   paging and dynamic splitting, for both plain sorts and sort-merge joins;
//!   its statistics are [`MergeStats`].

pub(crate) mod cursor;
pub(crate) mod exec;
pub mod plan;
pub(crate) mod select;
pub(crate) mod step;

pub use exec::MergeStats;
pub use plan::{preliminary_fan_in, StaticPlanSummary};

#[cfg(test)]
mod tests {
    use super::plan::*;
    use crate::config::MergePolicy;

    #[test]
    fn paper_example_fan_ins() {
        // Paper Figure 1: n = 10 runs, m = 8 buffers.
        assert_eq!(
            preliminary_fan_in(10, 8, MergePolicy::Naive).unwrap(),
            Some(7),
            "naive merges m-1 runs"
        );
        assert_eq!(
            preliminary_fan_in(10, 8, MergePolicy::Optimized).unwrap(),
            Some(4),
            "optimized merges just enough runs"
        );
        // With enough memory no preliminary step is needed.
        assert_eq!(preliminary_fan_in(7, 8, MergePolicy::Naive).unwrap(), None);
        assert_eq!(
            preliminary_fan_in(7, 8, MergePolicy::Optimized).unwrap(),
            None
        );
    }
}
