//! Reproduce the **Section 6** study: memory-adaptive sort-merge joins.
//!
//! The paper argues (and \[Pang93b\] shows) that the relative trade-offs carry
//! over unchanged from external sorts to sort-merge joins: dynamic splitting
//! beats paging beats suspension, and repl6 beats quick. This binary joins two
//! relations (‖R‖/2 and ‖R‖/4) under the baseline fluctuation workload.

use masort_bench::{f, print_table};
use masort_dbsim::experiments::{smj, Scale};

pub(crate) fn main() {
    let scale = Scale::from_env();
    eprintln!(
        "Section 6 — memory-adaptive sort-merge joins (relations {}/{} MB, {} joins/point)",
        scale.relation_mb / 2.0,
        scale.relation_mb / 4.0,
        scale.sorts_per_point
    );
    let mut rows = smj(scale);
    rows.sort_by(|a, b| a.response_s.partial_cmp(&b.response_s).unwrap());
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.algorithm.clone(),
                f(r.response_s, 1),
                f(r.runs, 1),
                f(r.matches, 0),
            ]
        })
        .collect();
    print_table(
        "Section 6: sort-merge joins under memory fluctuations (sorted by response time)",
        &["algorithm", "resp (s)", "#runs", "matches"],
        &table,
    );
}
