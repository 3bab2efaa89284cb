//! Reproduce paper **Table 5**: average per-page disk access time of the
//! split phase for replacement selection with N-page block writes.
//!
//! Paper values (msec): N=1: 62, 2: 36, 4: 26, 6: 23, 8: 22, 10: 21, 12: 21.
//! The expected *shape* is a steep drop from N=1 to N≈6 followed by a plateau.

use masort_bench::{f, print_table};
use masort_dbsim::experiments::{table5, Scale};

pub(crate) fn main() {
    let scale = Scale::from_env();
    eprintln!(
        "Table 5 — per-page disk access time vs block size (relation {} MB, {} sorts/point)",
        scale.relation_mb, scale.sorts_per_point
    );
    let rows = table5(scale);
    let paper = [62.0, 36.0, 26.0, 23.0, 22.0, 21.0, 21.0];
    let table: Vec<Vec<String>> = rows
        .iter()
        .zip(paper.iter())
        .map(|(r, p)| vec![r.block_pages.to_string(), f(r.avg_page_ms, 1), f(*p, 0)])
        .collect();
    print_table(
        "Table 5: avg per-page disk access time (ms)",
        &["N", "measured", "paper"],
        &table,
    );
}
