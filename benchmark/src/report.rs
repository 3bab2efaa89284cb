//! `run` (every workload into one result file) and `compare` (two result
//! files, one verdict per workload and end-to-end metric).

use crate::host;
use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::stats::Summary;
use crate::workload::{Scale, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub out_dir: PathBuf,
    /// Where the merged result goes.
    pub result: PathBuf,
}

/// Run every workload — one child process each, so `peak_rss_mb` is that
/// workload's alone — once untraced for the end-to-end metrics and once
/// traced for the layers, and merge the lot into one result file. Returns
/// whether every operation of every workload succeeded.
pub fn run(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for workload in Workload::ALL {
        let mut halves = Vec::new();
        for trace in [false, true] {
            let detail = args.out_dir.join(format!(
                "detail-{}-{}.json",
                workload.name(),
                u8::from(trace)
            ));
            eprintln!("== {} (trace {})", workload.name(), u8::from(trace));
            let status = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .args(["--scale", args.scale.name])
                .arg("--work-dir")
                .arg(&args.out_dir)
                .arg("--detail")
                .arg(&detail)
                .stdout(Stdio::null())
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            all_correct &= status.success();
            let text = std::fs::read_to_string(&detail)
                .map_err(|e| format!("read {}: {e}", detail.display()))?;
            halves.push(Json::parse(&text)?);
            let _ = std::fs::remove_file(&detail);
        }
        let merged = merge_halves(workload, &halves[0], &halves[1]);
        print_workload(&merged);
        workloads.push(merged);
    }

    let result = Json::obj([
        ("schema", Json::str("masort-benchmark/1")),
        ("host", host::fingerprint(&args.out_dir)),
        ("seed", Json::Num(args.seed as f64)),
        ("scale", Json::str(args.scale.name)),
        ("seconds", Json::Num(args.seconds)),
        ("workloads", Json::Arr(workloads)),
    ]);
    std::fs::write(&args.result, result.to_pretty())
        .map_err(|e| format!("write {}: {e}", args.result.display()))?;
    eprintln!("wrote {}", args.result.display());
    Ok(all_correct)
}

/// End-to-end metrics come from the untraced child, layers from the traced
/// one; failures are counted over both.
fn merge_halves(workload: Workload, plain: &Json, traced: &Json) -> Json {
    let num = |j: &Json, key: &str| j.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let attempted = num(plain, "attempted") + num(traced, "attempted");
    let failed = num(plain, "failed") + num(traced, "failed");
    Json::obj([
        ("name", Json::str(workload.name())),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        ("failed_share", Json::Num(failed / attempted.max(1.0))),
        ("reps", Json::Num(num(plain, "reps"))),
        (
            "rss_reset",
            plain.get("rss_reset").cloned().unwrap_or(Json::Null),
        ),
        (
            "end_to_end",
            plain.get("end_to_end").cloned().unwrap_or(Json::Null),
        ),
        (
            "per_layer",
            traced.get("per_layer").cloned().unwrap_or(Json::Null),
        ),
    ])
}

/// Print one workload of a result file: every metric by name with its unit.
pub fn print_workload(workload: &Json) {
    let name = workload.get("name").and_then(Json::as_str).unwrap_or("?");
    println!("== {name}");
    for (metric, value) in workload.get("end_to_end").map_or(&[][..], Json::members) {
        if let Some(s) = Summary::from_json(value) {
            let unit = value.get("unit").and_then(Json::as_str).unwrap_or("");
            println!(
                "{metric:<32} {:>14.4} {unit:<10} (q1 {:.4}, q3 {:.4}, n {})",
                s.median, s.q1, s.q3, s.n
            );
        }
    }
    for (metric, value) in workload.get("per_layer").map_or(&[][..], Json::members) {
        let unit = value.get("unit").and_then(Json::as_str).unwrap_or("");
        let v = value
            .get("value")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        println!("{metric:<32} {v:>14.4} {unit}");
    }
    let num = |key: &str| workload.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    println!(
        "{:<32} {:>14.4} ratio      ({} of {} attempted)",
        "failed_share",
        num("failed_share"),
        num("failed"),
        num("attempted")
    );
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// The baseline's own inter-quartile spread exceeds the bound, so a
    /// difference of the bound's size cannot be told from noise.
    Unresolved,
}

/// Judge `change` against `base` for a metric with the given direction and
/// bound.
pub fn verdict(base: &Summary, change: &Summary, higher_is_better: bool, bound: f64) -> Verdict {
    if base.spread() > bound {
        return Verdict::Unresolved;
    }
    let worse_by = (change.median - base.median) / base.median.abs()
        * if higher_is_better { -1.0 } else { 1.0 };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn workload_named<'a>(result: &'a Json, name: &str) -> Option<&'a Json> {
    result
        .get("workloads")?
        .elements()
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

/// Print one row per workload and end-to-end metric; returns whether any row
/// is `worse`.
pub fn compare(base_path: &Path, change_path: &Path) -> Result<bool, String> {
    let (base, change) = (load(base_path)?, load(change_path)?);
    println!(
        "{:<14} {:<13} {:>11} {:>21} {:>11} {:>21} {:>18} {:>6}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "ratio", "bound"
    );
    let mut any_worse = false;
    for workload in Workload::ALL {
        let name = workload.name();
        let (Some(a), Some(b)) = (workload_named(&base, name), workload_named(&change, name))
        else {
            return Err(format!("workload {name} is missing from one of the files"));
        };
        for m in &END_TO_END {
            let summary = |w: &Json| {
                w.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(Summary::from_json)
            };
            let (Some(sa), Some(sb)) = (summary(a), summary(b)) else {
                return Err(format!(
                    "{name}/{} is missing from one of the files",
                    m.name
                ));
            };
            let v = verdict(&sa, &sb, m.higher_is_better, m.bound);
            any_worse |= v == Verdict::Worse;
            println!(
                "{name:<14} {:<13} {:>11.4} {:>10.4}..{:<9.4} {:>11.4} {:>10.4}..{:<9.4} {:>8.4}x of A's {:<} {:>5.0}%  {}",
                m.name,
                sa.median,
                sa.q1,
                sa.q3,
                sb.median,
                sb.q1,
                sb.q3,
                sb.median / sa.median,
                m.unit,
                m.bound * 100.0,
                format!("{v:?}").to_lowercase(),
            );
        }
        // Failures have no bound: one failed operation is a regression.
        let failed = |w: &Json| w.get("failed").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let failed_verdict = if failed(b) > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Within
        };
        any_worse |= failed_verdict == Verdict::Worse;
        println!(
            "{name:<14} {:<13} {:>11} {:>21} {:>11} {:>21} {:>18} {:>6}  {}",
            "failed",
            failed(a),
            "",
            failed(b),
            "",
            "must stay 0",
            "",
            format!("{failed_verdict:?}").to_lowercase(),
        );
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(q1: f64, median: f64, q3: f64) -> Summary {
        Summary {
            median,
            q1,
            q3,
            n: 7,
        }
    }

    #[test]
    fn verdict_follows_direction_bound_and_baseline_spread() {
        let base = summary(99.0, 100.0, 101.0);
        let at = |m| summary(m, m, m);
        // Lower is better (a latency), bound 10 %.
        assert_eq!(verdict(&base, &at(105.0), false, 0.10), Verdict::Within);
        assert_eq!(verdict(&base, &at(111.0), false, 0.10), Verdict::Worse);
        assert_eq!(verdict(&base, &at(89.0), false, 0.10), Verdict::Better);
        // Higher is better (a throughput): the same numbers flip.
        assert_eq!(verdict(&base, &at(111.0), true, 0.10), Verdict::Better);
        assert_eq!(verdict(&base, &at(89.0), true, 0.10), Verdict::Worse);
        // A baseline noisier than the bound resolves nothing.
        let noisy = summary(90.0, 100.0, 105.0);
        assert_eq!(
            verdict(&noisy, &at(150.0), false, 0.10),
            Verdict::Unresolved
        );
    }
}
