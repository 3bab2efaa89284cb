//! Reproduce paper **Figure 5** and **Table 6**: response time, number of
//! runs, merge steps and split-phase duration as a function of the (fixed)
//! memory size M, with no memory fluctuation.
//!
//! Expected shape (paper §5.1): response times drop sharply until M ≈ 0.6 MB
//! and level off; repl1 is consistently the slowest; repl6 beats quick for
//! small M and quick catches up once a single merge step suffices; optimized
//! merging beats naive merging only for small M.

use masort_bench::{f, print_table};
use masort_dbsim::experiments::{fig5_table6, Scale};

pub(crate) fn main() {
    let scale = Scale::from_env();
    eprintln!(
        "Figure 5 / Table 6 — no memory fluctuation (relation {} MB, {} sorts/point)",
        scale.relation_mb, scale.sorts_per_point
    );
    let rows = fig5_table6(scale);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                f(r.memory_mb, 2),
                r.algorithm.clone(),
                f(r.response_s, 1),
                f(r.runs, 1),
                f(r.merge_steps, 1),
                f(r.split_s, 1),
            ]
        })
        .collect();
    print_table(
        "Figure 5 / Table 6: fixed memory allocation",
        &[
            "M (MB)",
            "algorithm",
            "resp (s)",
            "#runs",
            "#merge steps",
            "split (s)",
        ],
        &table,
    );
}
