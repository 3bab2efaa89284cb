//! `masort-cli` — sort stdin through a remote masort-server.
//!
//! ```text
//! masort-cli [sort] [--addr HOST:PORT] [--tenant NAME] [--priority N]
//!            [--budget PAGES] [--min-pages N] [--max-pages N]
//!            [--page-size BYTES] [--tuple-size BYTES] [--descending]
//!            < input > output
//! masort-cli shutdown [--addr HOST:PORT]
//! masort-cli stats    [--addr HOST:PORT]
//! masort-cli metrics  [--addr HOST:PORT] [--prometheus]
//! masort-cli trace JOB [--addr HOST:PORT] [--json]
//! ```
//!
//! Input is one tuple per line: a decimal `u64` key, optionally followed by
//! a space and an arbitrary payload string. Output uses the same format.
//! The address defaults to `$MASORT_ADDR`, then `127.0.0.1:7878`.
//!
//! `metrics` fetches the server's metrics (JSON by default, `--prometheus`
//! for text exposition); `stats` prints every service-wide counter and gauge
//! of the same snapshot, one per row, and `shutdown` the same rows as of the
//! request. `trace JOB` fetches one job's event timeline and renders it as an
//! ASCII grant-level chart (`--json` for the raw document).

use std::io::{self, BufRead, BufWriter, Write};
use std::process::ExitCode;

use masort_core::{Payload, Tuple};
use masort_server::{fetch_metrics, fetch_trace, shutdown_server, SortClient, SubmitSpec};
use masort_trace::{
    metrics_from_json, metrics_to_prometheus, render_timeline, trace_from_json, JsonValue,
    MetricKind, MetricsSnapshot,
};

const INGEST_CHUNK: usize = 4096;

fn usage() -> &'static str {
    "usage: masort-cli [sort] [--addr HOST:PORT] [--tenant NAME] [--priority N]\n\
     \u{20}                 [--budget PAGES] [--min-pages N] [--max-pages N]\n\
     \u{20}                 [--page-size BYTES] [--tuple-size BYTES] [--descending]\n\
     \u{20}                 < input > output\n\
     \u{20}      masort-cli shutdown [--addr HOST:PORT]\n\
     \u{20}      masort-cli stats    [--addr HOST:PORT]\n\
     \u{20}      masort-cli metrics  [--addr HOST:PORT] [--prometheus]\n\
     \u{20}      masort-cli trace JOB [--addr HOST:PORT] [--json]"
}

fn default_addr() -> String {
    std::env::var("MASORT_ADDR").unwrap_or_else(|_| "127.0.0.1:7878".to_string())
}

fn parse_u64(raw: &str) -> Result<u64, String> {
    raw.parse::<u64>()
        .map_err(|_| format!("`{raw}` is not a number"))
}

/// The priority is a `u32` on the wire: a larger value is refused, not
/// truncated (4294967297 must not become 1).
fn parse_priority(raw: &str) -> Result<u32, String> {
    u32::try_from(parse_u64(raw)?)
        .map_err(|_| format!("--priority `{raw}` is above {}\n{}", u32::MAX, usage()))
}

/// Parse a `METRICS_DATA` document.
fn snapshot(json: &str) -> Result<MetricsSnapshot, String> {
    let doc = JsonValue::parse(json).map_err(|e| format!("metrics JSON: {e}"))?;
    Ok(metrics_from_json(&doc))
}

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = match args.first().map(String::as_str) {
        Some("sort") => {
            args.remove(0);
            "sort"
        }
        Some("shutdown") => {
            args.remove(0);
            "shutdown"
        }
        Some("stats") => {
            args.remove(0);
            "stats"
        }
        Some("metrics") => {
            args.remove(0);
            "metrics"
        }
        Some("trace") => {
            args.remove(0);
            "trace"
        }
        Some(s) if !s.starts_with("--") => {
            return Err(format!("unknown command `{s}`\n{}", usage()))
        }
        _ => "sort",
    };
    let trace_job = if command == "trace" {
        if args.is_empty() || args[0].starts_with("--") {
            return Err(format!("trace needs a job id\n{}", usage()));
        }
        parse_u64(&args.remove(0))?
    } else {
        0
    };

    let mut addr = default_addr();
    let mut tenant: Option<String> = None;
    let mut prometheus = false;
    let mut raw_json = false;
    let mut spec = SubmitSpec::default();
    let mut iter = args.into_iter();
    let value = |flag: &str, iter: &mut dyn Iterator<Item = String>| -> Result<String, String> {
        iter.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => addr = value("--addr", &mut iter)?,
            "--tenant" => tenant = Some(value("--tenant", &mut iter)?),
            "--priority" => spec.priority = parse_priority(&value("--priority", &mut iter)?)?,
            "--budget" => spec.memory_pages = parse_u64(&value("--budget", &mut iter)?)?,
            "--min-pages" => spec.min_pages = parse_u64(&value("--min-pages", &mut iter)?)?,
            "--max-pages" => spec.max_pages = parse_u64(&value("--max-pages", &mut iter)?)?,
            "--page-size" => spec.page_size = parse_u64(&value("--page-size", &mut iter)?)?,
            "--tuple-size" => spec.tuple_size = parse_u64(&value("--tuple-size", &mut iter)?)?,
            "--descending" => spec.descending = true,
            "--prometheus" => prometheus = true,
            "--json" => raw_json = true,
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(());
            }
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }

    match command {
        "stats" | "shutdown" => {
            let json = match command {
                "shutdown" => shutdown_server(&addr),
                _ => fetch_metrics(&addr),
            };
            let s = snapshot(&json.map_err(|e| e.to_string())?)?;
            // Every service-wide counter and gauge, one per row.
            let rows: Vec<(&str, i64)> = s
                .metrics
                .iter()
                .filter(|m| m.label.is_none())
                .filter_map(|m| match m.kind {
                    MetricKind::Counter(v) => Some((m.name.as_str(), v as i64)),
                    MetricKind::Gauge(v) => Some((m.name.as_str(), v)),
                    MetricKind::Histogram(_) => None,
                })
                .collect();
            let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
            for (key, value) in rows {
                println!("{key:<width$}  {value:>12}");
            }
            if command == "shutdown" {
                eprintln!("server draining");
            }
            Ok(())
        }
        "metrics" => {
            let json = fetch_metrics(&addr).map_err(|e| e.to_string())?;
            if prometheus {
                print!("{}", metrics_to_prometheus(&snapshot(&json)?));
            } else {
                println!("{json}");
            }
            Ok(())
        }
        "trace" => {
            let json = fetch_trace(&addr, trace_job).map_err(|e| e.to_string())?;
            if raw_json {
                println!("{json}");
            } else {
                let doc = JsonValue::parse(&json).map_err(|e| format!("trace JSON: {e}"))?;
                let snapshot = trace_from_json(&doc);
                print!("{}", render_timeline(&snapshot.events));
            }
            Ok(())
        }
        _ => sort(&addr, tenant.as_deref(), spec),
    }
}

fn sort(addr: &str, tenant: Option<&str>, spec: SubmitSpec) -> Result<(), String> {
    let mut client = SortClient::connect(addr, tenant).map_err(|e| e.to_string())?;
    client.submit(spec).map_err(|e| e.to_string())?;

    let stdin = io::stdin();
    let mut chunk: Vec<Tuple> = Vec::with_capacity(INGEST_CHUNK);
    for (lineno, line) in stdin.lock().lines().enumerate() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let (key, payload) = match trimmed.split_once(' ') {
            Some((key, rest)) => (key, rest.as_bytes().to_vec()),
            None => (trimmed, Vec::new()),
        };
        let key = key
            .parse::<u64>()
            .map_err(|_| format!("line {}: `{key}` is not a u64 key", lineno + 1))?;
        chunk.push(Tuple::new(key, payload));
        if chunk.len() >= INGEST_CHUNK {
            client
                .ingest(std::mem::take(&mut chunk))
                .map_err(|e| e.to_string())?;
            chunk.reserve(INGEST_CHUNK);
        }
    }
    if !chunk.is_empty() {
        client.ingest(chunk).map_err(|e| e.to_string())?;
    }

    let mut completed = client.finish().map_err(|e| e.to_string())?;
    let stdout = io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    for tuple in &mut completed {
        let tuple = tuple.map_err(|e| e.to_string())?;
        match &tuple.payload {
            Payload::Bytes(b) if !b.is_empty() => {
                write!(out, "{} ", tuple.key).map_err(|e| e.to_string())?;
                out.write_all(b).map_err(|e| e.to_string())?;
                writeln!(out).map_err(|e| e.to_string())?;
            }
            _ => writeln!(out, "{}", tuple.key).map_err(|e| e.to_string())?,
        }
    }
    out.flush().map_err(|e| e.to_string())?;
    if let Some(summary) = completed.summary() {
        eprintln!(
            "sorted {} tuples in {:.3}s (queued {:.3}s, {} runs, {} merge steps, \
             {} reallocations, initial grant {} pages)",
            summary.tuples,
            summary.ran_for,
            summary.queued_for,
            summary.runs_formed,
            summary.merge_steps,
            summary.reallocations,
            summary.initial_grant,
        );
        if summary.runs_formed > 0 {
            eprintln!(
                "run lengths: min {} / avg {:.1} / max {} tuples, \
                 {} natural runs detected",
                summary.min_run_tuples,
                summary.avg_run_tuples,
                summary.max_run_tuples,
                summary.natural_runs,
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("masort-cli: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_above_u32_max_is_refused_not_truncated() {
        assert_eq!(parse_priority("7"), Ok(7));
        assert_eq!(parse_priority("4294967295"), Ok(u32::MAX));
        let err = parse_priority("4294967297").unwrap_err();
        assert!(err.contains("usage: masort-cli"), "{err}");
        assert!(parse_priority("-1").is_err());
    }
}
