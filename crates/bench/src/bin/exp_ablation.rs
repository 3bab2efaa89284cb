//! Ablation of the paper's **future-work** suggestion (§7): dynamically adjust
//! the I/O block size according to memory availability and combine it with
//! dynamic splitting (`adapt,opt,split`), versus the fixed-block `repl1` and
//! `repl6` variants.
//!
//! Expected shape: for larger memory sizes the adaptive variant's bigger
//! blocks reduce split-phase seeks below repl6's, without giving up the long
//! runs that matter when memory is small.

use masort_bench::{f, print_table};
use masort_dbsim::experiments::{ablation, Scale};

pub(crate) fn main() {
    let scale = Scale::from_env();
    eprintln!(
        "Ablation — adaptive block size (relation {} MB, {} sorts/point)",
        scale.relation_mb, scale.sorts_per_point
    );
    let rows = ablation(scale);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                f(r.memory_mb, 2),
                r.algorithm.clone(),
                f(r.response_s, 1),
                f(r.split_s, 1),
                f(r.runs, 1),
            ]
        })
        .collect();
    print_table(
        "Ablation: fixed vs adaptive block-write size (with dynamic splitting)",
        &["M (MB)", "algorithm", "resp (s)", "split (s)", "#runs"],
        &table,
    );
}
