//! Reproduce paper **Figures 7, 8 and 9**: sensitivity to the memory /
//! relation-size ratio under the baseline fluctuation workload.
//!
//! Expected shape (paper §5.3): dynamic splitting is at least as fast as
//! paging everywhere, with the gap largest at small M (≈30 % at 0.1 MB) and
//! vanishing beyond ≈0.6 MB (Fig 7); repl6 is slightly faster than quick at
//! small M and they converge at large M (Fig 8); split-phase delays grow with
//! M and grow much faster for quick than for repl6 (Fig 9).

use masort_bench::{f, print_table};
use masort_dbsim::experiments::{fig7_8_9, Scale};

pub(crate) fn main() {
    let scale = Scale::from_env();
    eprintln!(
        "Figures 7/8/9 — M to ||R|| ratio (relation {} MB, {} sorts/point)",
        scale.relation_mb, scale.sorts_per_point
    );
    let rows = fig7_8_9(scale);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                f(r.memory_mb, 2),
                r.algorithm.clone(),
                f(r.response_s, 1),
                f(r.mean_split_delay_s * 1e3, 1),
                f(r.max_split_delay_s * 1e3, 1),
            ]
        })
        .collect();
    print_table(
        "Figures 7/8/9: memory-ratio sweep",
        &[
            "M (MB)",
            "algorithm",
            "resp (s)",
            "mean split delay (ms)",
            "max split delay (ms)",
        ],
        &table,
    );
}
