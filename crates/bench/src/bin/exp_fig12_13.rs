//! Reproduce paper **Figures 12 and 13**: sensitivity to the *rate* of memory
//! fluctuations (slow = rates ÷5 with durations ×5, fast = rates ×5 with
//! durations ÷5, keeping mean available memory constant).
//!
//! Expected shape (paper §5.5): for large M the rate hardly matters; for small
//! M the fast setting is slower than the slow setting for both paging and
//! dynamic splitting; split-phase durations are insensitive to the rate; the
//! relative ordering of algorithms is unchanged, with repl6,opt,split best.

use masort_bench::{f, print_table};
use masort_dbsim::experiments::{fig12_13, Scale};

pub(crate) fn main() {
    let scale = Scale::from_env();
    eprintln!(
        "Figures 12/13 — fluctuation rate (relation {} MB, {} sorts/point)",
        scale.relation_mb, scale.sorts_per_point
    );
    let rows = fig12_13(scale);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                f(r.memory_mb, 2),
                r.algorithm.clone(),
                r.setting.to_string(),
                f(r.response_s, 1),
                f(r.split_s, 1),
            ]
        })
        .collect();
    print_table(
        "Figures 12/13: fluctuation-rate sweep",
        &["M (MB)", "algorithm", "rate", "resp (s)", "split (s)"],
        &table,
    );
}
