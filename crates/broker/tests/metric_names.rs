//! One spelling per metric name: every name in `ci/metric-names.golden` is a
//! string literal exactly once in the broker's non-test source, so a metric
//! cannot be written under one spelling and read under another.

use std::path::Path;

#[test]
fn every_golden_metric_name_is_spelled_once_in_the_broker() {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(crate_dir.join("../../ci/metric-names.golden"))
        .expect("read ci/metric-names.golden");
    let mut source = String::new();
    non_test_source(&crate_dir.join("src"), &mut source);
    let names: Vec<&str> = golden.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(names.len() >= 10, "golden lists only {names:?}");
    for name in names {
        let spelled = source.matches(&format!("\"{name}\"")).count();
        assert_eq!(
            spelled, 1,
            "`{name}` is spelled {spelled} times in crates/broker/src"
        );
    }
}

/// Append every `.rs` file under `dir`, each cut at its first `#[cfg(test)]`;
/// test-module files (`tests.rs`) are skipped.
fn non_test_source(dir: &Path, out: &mut String) {
    for entry in std::fs::read_dir(dir).expect("list source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            non_test_source(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs")
            && path.file_name().is_some_and(|n| n != "tests.rs")
        {
            let text = std::fs::read_to_string(&path).expect("read source file");
            out.push_str(text.split("#[cfg(test)]").next().unwrap_or_default());
        }
    }
}
