//! Reproduce paper **Figure 6** and **Tables 7, 8, 9**: the baseline
//! experiment — all 18 algorithm combinations under memory fluctuations with
//! M = 0.3 MB and ‖R‖ = 20 MB.
//!
//! Expected shape (paper §5.2): the four fastest algorithms all use dynamic
//! splitting and the five slowest all use suspension; repl6,opt,split is the
//! overall winner; Quicksort has by far the largest split-phase delays and
//! repl6 the smallest; optimized merging beats naive merging under paging and
//! splitting but loses under suspension.

use masort_bench::{f, print_table};
use masort_dbsim::experiments::{fig6_baseline, Scale};

pub(crate) fn main() {
    let scale = Scale::from_env();
    eprintln!(
        "Figure 6 / Tables 7-9 — baseline experiment (relation {} MB, {} sorts/point)",
        scale.relation_mb, scale.sorts_per_point
    );
    let mut rows = fig6_baseline(scale);
    rows.sort_by(|a, b| a.response_s.partial_cmp(&b.response_s).unwrap());
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.algorithm.clone(),
                f(r.response_s, 1),
                f(r.runs, 1),
                f(r.split_s, 1),
                f(r.mean_split_delay_ms, 1),
                f(r.max_split_delay_ms, 1),
                f(r.mean_merge_delay_ms, 2),
            ]
        })
        .collect();
    print_table(
        "Figure 6 / Tables 7-9: baseline (sorted by response time)",
        &[
            "algorithm",
            "resp (s)",
            "#runs",
            "split (s)",
            "mean split delay (ms)",
            "max split delay (ms)",
            "mean merge delay (ms)",
        ],
        &table,
    );

    // Table 7 view: response time by merge-phase adaptation strategy.
    let mut t7: Vec<Vec<String>> = Vec::new();
    for formation in ["quick", "repl1", "repl6"] {
        for policy in ["naive", "opt"] {
            let find = |adapt: &str| {
                rows.iter()
                    .find(|r| r.algorithm == format!("{formation},{policy},{adapt}"))
                    .map(|r| f(r.response_s, 1))
                    .unwrap_or_default()
            };
            t7.push(vec![
                format!("{formation},{policy}"),
                find("susp"),
                find("page"),
                find("split"),
            ]);
        }
    }
    print_table(
        "Table 7 view: response time (s) by adaptation strategy",
        &["method,policy", "susp", "page", "split"],
        &t7,
    );
}
