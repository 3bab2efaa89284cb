//! Verification helpers shared by tests, examples and benchmarks.

use crate::error::SortResult;
use crate::order::SortOrder;
use crate::store::{RunId, RunStore};
use crate::tuple::Tuple;
use std::collections::HashMap;

/// Read an entire run back from a store as a flat tuple vector — e.g. the
/// output run of a materialising
/// [`SortCompletion::finish_into_run`](crate::SortCompletion::finish_into_run)
/// (a streamed sort has none).
pub fn collect_run<S: RunStore>(store: &mut S, run: RunId) -> SortResult<Vec<Tuple>> {
    let pages = store.run_pages(run);
    let mut out = Vec::with_capacity(store.run_tuples(run));
    for i in 0..pages {
        out.extend(store.read_page(run, i)?.tuples());
    }
    Ok(out)
}

/// True if `tuples` is sorted by key in non-decreasing order.
pub fn is_sorted(tuples: &[Tuple]) -> bool {
    tuples.windows(2).all(|w| w[0].key <= w[1].key)
}

/// True if `tuples` is sorted according to `order` (direction + key length).
pub fn is_sorted_by(tuples: &[Tuple], order: &SortOrder) -> bool {
    order.is_sorted(tuples)
}

/// True if `output` is a permutation of `input` when compared by key
/// multiset (payloads are not compared).
pub fn is_key_permutation(input: &[Tuple], output: &[Tuple]) -> bool {
    if input.len() != output.len() {
        return false;
    }
    let mut counts: HashMap<u64, i64> = HashMap::with_capacity(input.len());
    for t in input {
        *counts.entry(t.key).or_insert(0) += 1;
    }
    for t in output {
        match counts.get_mut(&t.key) {
            Some(c) => *c -= 1,
            None => return false,
        }
    }
    counts.values().all(|&c| c == 0)
}

/// Panic with a descriptive message unless `output` is a sorted permutation
/// of `input`.
pub fn assert_sorted_permutation(input: &[Tuple], output: &[Tuple]) {
    assert!(
        is_sorted(output),
        "output is not sorted (len {})",
        output.len()
    );
    assert!(
        is_key_permutation(input, output),
        "output is not a permutation of the input (in {}, out {})",
        input.len(),
        output.len()
    );
}

/// Panic with a descriptive message unless `output` is a permutation of
/// `input` sorted according to `order`.
pub fn assert_sorted_permutation_by(input: &[Tuple], output: &[Tuple], order: &SortOrder) {
    assert!(
        is_sorted_by(output, order),
        "output is not sorted under {order:?} (len {})",
        output.len()
    );
    assert!(
        is_key_permutation(input, output),
        "output is not a permutation of the input (in {}, out {})",
        input.len(),
        output.len()
    );
}

/// Number of key matches a nested-loop join of `left` and `right` would
/// produce; used to validate the sort-merge join.
pub fn nested_loop_match_count(left: &[Tuple], right: &[Tuple]) -> u64 {
    let mut counts: HashMap<u64, u64> = HashMap::with_capacity(right.len());
    for t in right {
        *counts.entry(t.key).or_insert(0) += 1;
    }
    left.iter()
        .map(|t| counts.get(&t.key).copied().unwrap_or(0))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use crate::tuple::{paginate, Page};

    fn t(k: u64) -> Tuple {
        Tuple::synthetic(k, 16)
    }

    #[test]
    fn collect_run_reads_all_pages() {
        let mut s = MemStore::new();
        let r = s.create_run().unwrap();
        for p in paginate((0..10).map(t).collect(), 3) {
            s.append_page(r, p).unwrap();
        }
        let back = collect_run(&mut s, r).unwrap();
        assert_eq!(back.len(), 10);
        assert_eq!(back[9].key, 9);
        // Collecting an empty run yields nothing.
        let r2 = s.create_run().unwrap();
        s.append_page(r2, Page::new()).unwrap();
        assert!(collect_run(&mut s, r2).unwrap().is_empty());
    }

    #[test]
    fn sorted_and_permutation_checks() {
        let input = vec![t(3), t(1), t(2), t(2)];
        let good = vec![t(1), t(2), t(2), t(3)];
        let bad_order = vec![t(2), t(1), t(2), t(3)];
        let bad_multiset = vec![t(1), t(2), t(3), t(3)];
        assert!(is_sorted(&good));
        assert!(!is_sorted(&bad_order));
        assert!(is_key_permutation(&input, &good));
        assert!(!is_key_permutation(&input, &bad_multiset));
        assert!(!is_key_permutation(&input, &good[..3]));
        assert_sorted_permutation(&input, &good);
    }

    #[test]
    #[should_panic(expected = "not sorted")]
    fn assert_sorted_permutation_panics_on_disorder() {
        assert_sorted_permutation(&[t(1), t(2)], &[t(2), t(1)]);
    }

    #[test]
    fn nested_loop_match_count_handles_duplicates() {
        let left = vec![t(1), t(2), t(2), t(5)];
        let right = vec![t(2), t(2), t(2), t(7), t(1)];
        // key 1: 1*1, key 2: 2*3 = 6, key 5: 0 → 7
        assert_eq!(nested_loop_match_count(&left, &right), 7);
        assert_eq!(nested_loop_match_count(&[], &right), 0);
    }
}
