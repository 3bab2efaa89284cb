//! # masort-bench — experiment binaries and microbenchmarks
//!
//! One binary per table / figure of the paper (run them with
//! `cargo run --release -p masort-bench --bin exp_<name>`), plus Criterion
//! microbenchmarks of the core algorithms (`cargo bench`).
//!
//! This library crate only contains small formatting helpers shared by the
//! binaries.

#![warn(missing_docs)]

/// Print a table: a header row followed by data rows, columns padded to the
/// widest cell.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Format a float with the given number of decimals.
pub fn f(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// Read a `usize` experiment knob from the environment, falling back to
/// `default` when unset or unparsable.
pub fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Resolve where a benchmark writes its machine-readable output file.
///
/// Every experiment binary names its artifact `BENCH_<topic>.json` and puts
/// it through this helper: `MASORT_BENCH_DIR` (when set) selects the output
/// directory — created on demand — and otherwise the file lands in the
/// current directory, which for `cargo run` is the workspace root where the
/// committed baselines live.
pub fn bench_output_path(file_name: &str) -> std::path::PathBuf {
    match std::env::var("MASORT_BENCH_DIR") {
        Ok(dir) if !dir.is_empty() => {
            let dir = std::path::PathBuf::from(dir);
            if let Err(e) = std::fs::create_dir_all(&dir) {
                eprintln!("could not create {}: {e}", dir.display());
            }
            dir.join(file_name)
        }
        _ => std::path::PathBuf::from(file_name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(f(10.0, 0), "10");
        // print_table must not panic on ragged rows.
        print_table(
            "t",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
