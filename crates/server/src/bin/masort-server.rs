//! `masort-server` — serve a memory-adaptive sort pool over TCP.
//!
//! ```text
//! masort-server [--addr 127.0.0.1:7878] [--pool-pages 64] [--workers 4]
//!               [--page-size BYTES] [--tuple-size BYTES] [--memory-pages N]
//!               [--ingest-depth PAGES] [--egress-chunk TUPLES]
//!               [--tenant name=max_live:max_pages[:priority]]...
//! ```
//!
//! Runs until a client sends a `SHUTDOWN` frame (`masort-cli shutdown`),
//! then drains in-flight sorts and prints the final service statistics.

use std::process::ExitCode;

use masort_core::SortConfig;
use masort_server::{Server, ServerBuilder, TenantQuota};

fn usage() -> &'static str {
    "usage: masort-server [--addr HOST:PORT] [--pool-pages N] [--workers N]\n\
     \u{20}                    [--page-size BYTES] [--tuple-size BYTES] [--memory-pages N]\n\
     \u{20}                    [--ingest-depth PAGES] [--egress-chunk TUPLES]\n\
     \u{20}                    [--tenant name=max_live:max_pages[:priority]]..."
}

/// The address to bind and the configured builder, or `None` when `--help`
/// was asked for (and printed).
fn parse_args(
    mut args: impl Iterator<Item = String>,
) -> Result<Option<(String, ServerBuilder)>, String> {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut builder = Server::builder();
    let mut page_size = 4096usize;
    let mut tuple_size = 64usize;
    let mut memory_pages = 16usize;

    let value = |flag: &str, args: &mut dyn Iterator<Item = String>| -> Result<String, String> {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = value("--addr", &mut args)?,
            "--pool-pages" => {
                builder = builder.pool_pages(parse(&value("--pool-pages", &mut args)?)?)
            }
            "--workers" => builder = builder.workers(parse(&value("--workers", &mut args)?)?),
            "--page-size" => page_size = parse(&value("--page-size", &mut args)?)?,
            "--tuple-size" => tuple_size = parse(&value("--tuple-size", &mut args)?)?,
            "--memory-pages" => memory_pages = parse(&value("--memory-pages", &mut args)?)?,
            "--ingest-depth" => {
                builder = builder.ingest_depth(parse(&value("--ingest-depth", &mut args)?)?)
            }
            "--egress-chunk" => {
                builder = builder.egress_chunk(parse(&value("--egress-chunk", &mut args)?)?)
            }
            "--tenant" => {
                let (name, quota) = TenantQuota::parse(&value("--tenant", &mut args)?)?;
                builder = builder.tenant(name, quota);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(None);
            }
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    builder = builder.base_config(
        SortConfig::default()
            .with_page_size(page_size)
            .with_tuple_size(tuple_size)
            .with_memory_pages(memory_pages),
    );
    Ok(Some((addr, builder)))
}

fn run() -> Result<(), String> {
    let Some((addr, builder)) = parse_args(std::env::args().skip(1))? else {
        return Ok(());
    };
    let server = builder
        .bind(&addr)
        .map_err(|e| format!("failed to bind {addr}: {e}"))?;
    eprintln!("masort-server listening on {}", server.local_addr());
    let stats = server.run();
    eprintln!(
        "masort-server: {} submitted, {} completed, {} failed, {} rejected, {} cancelled, \
         {} rebalances, {} leaked pages",
        stats.submitted,
        stats.completed,
        stats.failed,
        stats.rejected,
        stats.cancelled,
        stats.rebalances,
        stats.leaked_pages,
    );
    Ok(())
}

fn parse(raw: &str) -> Result<usize, String> {
    raw.parse::<usize>()
        .map_err(|_| format!("`{raw}` is not a number"))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("masort-server: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Option<(String, ServerBuilder)>, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn removed_flags_are_unknown_flags() {
        for line in [
            "--io-threads 2",
            "--workers 2 --io-pipeline 8",
            "--policy priority",
        ] {
            // The removed flag is the last one on the line.
            let flag = line
                .split_whitespace()
                .rfind(|w| w.starts_with("--"))
                .unwrap();
            let err = parse_line(line).err().expect(line);
            assert!(
                err.starts_with(&format!("unknown flag `{flag}`")),
                "{line}: {err}"
            );
            assert!(err.contains("usage: masort-server"), "{line}: {err}");
            assert!(!usage().contains(flag));
        }
        let (addr, _) = parse_line("--addr 127.0.0.1:0 --workers 2")
            .unwrap_or_else(|e| panic!("{e}"))
            .expect("not --help");
        assert_eq!(addr, "127.0.0.1:0");
    }
}
