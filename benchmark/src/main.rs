//! End-to-end benchmark of the memory-adaptive sort stack.
//!
//! ```text
//! masort-benchmark --workload W --seed N --seconds S --trace 0|1   one workload (the driver's form)
//! masort-benchmark run [--seed N] [--seconds S] [--smoke] [--work-dir D] [--out F]
//! masort-benchmark compare A.json B.json
//! ```
//!
//! See `benchmark/README.md` for the metrics, the workloads and the list of
//! `masort_core` / `masort_server` items the harness depends on.

mod file;
mod floor;
mod gen;
mod host;
mod json;
mod measure;
mod metrics;
mod probe;
mod report;
mod stats;
mod trace;
mod wire;
mod workload;

use measure::Request;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Scale, Workload};

const USAGE: &str = "usage:
  masort-benchmark --workload <file_random|file_wobble|file_sorted90|wire_jobs>
                   --seed <n> --seconds <s> --trace <0|1>
                   [--scale full|smoke] [--work-dir <dir>] [--detail <file>]
  masort-benchmark run [--seed <n>] [--seconds <s>] [--smoke] [--work-dir <dir>] [--out <file>]
  masort-benchmark compare <A.json> <B.json>";

/// `--name value` pairs and bare flags, in any order.
struct Args(Vec<String>);

impl Args {
    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(at) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if at + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        self.0.remove(at);
        Ok(Some(self.0.remove(at)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.value(name)?
            .map(|v| v.parse().map_err(|_| format!("bad value for {name}: {v}")))
            .transpose()
    }

    fn flag(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != name);
        self.0.len() != before
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument {extra}")),
        }
    }
}

fn main() -> ExitCode {
    match dispatch(Args(std::env::args().skip(1).collect())) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("masort-benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Where work files, traces and scratch results go: `--work-dir`, or
/// `benchmark/out` under the current directory (the repository root).
fn work_dir(args: &mut Args) -> Result<PathBuf, String> {
    Ok(args
        .value("--work-dir")?
        .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from))
}

/// `Ok(true)` when everything ran and every check passed.
fn dispatch(mut args: Args) -> Result<bool, String> {
    match args.0.first().map(String::as_str) {
        Some("run") => {
            args.0.remove(0);
            let scale = if args.flag("--smoke") {
                Scale::SMOKE
            } else {
                Scale::FULL
            };
            let out_dir = work_dir(&mut args)?;
            let run = report::RunArgs {
                seed: args.parsed("--seed")?.unwrap_or(1),
                // Smoke runs one timed rep per workload and stops.
                seconds: args.parsed("--seconds")?.unwrap_or(if scale.min_reps == 1 {
                    0.0
                } else {
                    20.0
                }),
                scale,
                result: args
                    .value("--out")?
                    .map_or_else(|| out_dir.join("result.json"), PathBuf::from),
                out_dir,
            };
            args.done()?;
            report::run(&run)
        }
        Some("compare") => {
            let [_, a, b] = &args.0[..] else {
                return Err("compare takes two result files".into());
            };
            Ok(!report::compare(a.as_ref(), b.as_ref())?)
        }
        _ => {
            let name = args.value("--workload")?.ok_or("no --workload")?;
            let scale = args.value("--scale")?.unwrap_or_else(|| "full".into());
            let req = Request {
                workload: Workload::from_name(&name)
                    .ok_or_else(|| format!("unknown workload {name}"))?,
                seed: args.parsed("--seed")?.ok_or("no --seed")?,
                seconds: args.parsed("--seconds")?.ok_or("no --seconds")?,
                trace: match args.value("--trace")?.as_deref() {
                    Some("0") => false,
                    Some("1") => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                },
                scale: Scale::from_name(&scale).ok_or_else(|| format!("unknown scale {scale}"))?,
                out_dir: work_dir(&mut args)?,
            };
            let detail = args.value("--detail")?.map(PathBuf::from);
            args.done()?;

            let measured = measure::measure(&req)?;
            for failure in &measured.failures {
                eprintln!("FAILED {}: {failure}", req.workload.name());
            }
            let everything = measured.detail(&req);
            if let Some(path) = detail {
                std::fs::write(&path, everything.to_pretty())
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
            }
            report::print_workload(&everything);
            println!("{}", measured.result_line(req.trace).to_line());
            Ok(measured.failures.is_empty())
        }
    }
}
