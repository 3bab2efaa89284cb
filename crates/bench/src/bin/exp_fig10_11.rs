//! Reproduce paper **Figures 10 and 11**: sensitivity to the *magnitude* of
//! memory fluctuations (the small and large request streams are swapped so
//! that most contention comes from large requests).
//!
//! Expected shape (paper §5.4): both split and page get slower than in the
//! baseline sweep, the gap between split and page widens, and the difference
//! between quick and repl6 (and between naive and opt) narrows.

use masort_bench::{f, print_table};
use masort_dbsim::experiments::{fig10_11, Scale};

pub(crate) fn main() {
    let scale = Scale::from_env();
    eprintln!(
        "Figures 10/11 — fluctuation magnitude (relation {} MB, {} sorts/point)",
        scale.relation_mb, scale.sorts_per_point
    );
    let rows = fig10_11(scale);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                f(r.memory_mb, 2),
                r.algorithm.clone(),
                f(r.response_s, 1),
                f(r.mean_split_delay_s * 1e3, 1),
            ]
        })
        .collect();
    print_table(
        "Figures 10/11: large-magnitude fluctuations",
        &["M (MB)", "algorithm", "resp (s)", "mean split delay (ms)"],
        &table,
    );
}
