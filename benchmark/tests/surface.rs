//! Checks on the harness from outside it: what its source may not name, and
//! that the whole thing runs end to end at smoke scale.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The path-selector knobs of `SortConfig` / `SortJobBuilder` /
/// `ServerBuilder`. The harness measures whatever those default to; if it
/// named one, deleting that knob would break the benchmark, and a path could
/// be "measured" without being the default.
const KNOBS: [&str; 6] = [
    "merge_batch",
    "with_layout",
    "adaptive_runs",
    "io_pipeline",
    "io_threads",
    "cpu_threads",
];

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn harness_source_names_no_path_selector_knob() {
    let src = manifest_dir().join("src");
    let mut checked = 0;
    for entry in std::fs::read_dir(&src).expect("list src") {
        let path = entry.expect("dir entry").path();
        let text = std::fs::read_to_string(&path).expect("read source file");
        for knob in KNOBS {
            assert!(
                !text.contains(knob),
                "{} names the knob `{knob}`",
                path.display()
            );
        }
        checked += 1;
    }
    assert!(
        checked > 5,
        "only {checked} source files found in {}",
        src.display()
    );
}

/// Scratch directory under `benchmark/out/` (git-ignored), removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = manifest_dir()
            .join("out")
            .join(format!("test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn smoke_run_covers_every_workload_and_compares_clean_against_itself() {
    let exe = env!("CARGO_BIN_EXE_masort-benchmark");
    let scratch = Scratch::new("smoke");
    let result = scratch.0.join("result.json");
    let started = std::time::Instant::now();
    let run = Command::new(exe)
        .args(["run", "--smoke", "--seed", "5", "--work-dir"])
        .arg(&scratch.0)
        .arg("--out")
        .arg(&result)
        .output()
        .expect("spawn run");
    assert!(
        run.status.success(),
        "run --smoke failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    // Generous: the debug build `cargo test` uses is several times slower
    // than the release build the < 10 s figure is stated for.
    assert!(started.elapsed().as_secs() < 120, "smoke run took too long");

    let text = std::fs::read_to_string(&result).expect("result file written");
    for workload in ["file_random", "file_wobble", "file_sorted90", "wire_jobs"] {
        assert!(
            text.contains(&format!("\"name\": \"{workload}\"")),
            "{workload} missing"
        );
    }
    assert_eq!(text.matches("\"failed_share\": 0").count(), 4, "{text}");
    for metric in [
        "sort_mb_s",
        "setup_s",
        "io_amp",
        "floor.share",
        "bench.unattributed_s",
    ] {
        assert!(text.contains(&format!("\"{metric}\"")), "{metric} missing");
    }

    // A result compared with itself is `within` on every row.
    let compare = Command::new(exe)
        .arg("compare")
        .arg(&result)
        .arg(&result)
        .output()
        .expect("spawn compare");
    let table = String::from_utf8_lossy(&compare.stdout);
    assert!(compare.status.success(), "{table}");
    assert!(
        !table.contains("worse") && !table.contains("better"),
        "{table}"
    );
}

#[test]
fn the_driver_form_fails_cleanly_on_bad_arguments() {
    let exe = env!("CARGO_BIN_EXE_masort-benchmark");
    for args in [
        &[
            "--workload",
            "no_such",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "file_random", "--seed", "1", "--seconds", "1"][..],
        &["compare", "only-one.json"][..],
    ] {
        let out = Command::new(exe).args(args).output().expect("spawn");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
