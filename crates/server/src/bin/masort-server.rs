//! `masort-server` — serve a memory-adaptive sort pool over TCP.
//!
//! ```text
//! masort-server [--addr 127.0.0.1:7878] [--pool-pages 64] [--workers 4]
//!               [--page-size BYTES] [--tuple-size BYTES] [--memory-pages N]
//!               [--tenant name=max_live:max_pages[:priority]]...
//! ```
//!
//! Runs until a client sends a `SHUTDOWN` frame (`masort-cli shutdown`),
//! then drains in-flight sorts and prints the final service statistics.

use std::process::ExitCode;

use masort_server::{Server, ServerBuilder, TenantQuota};

fn usage() -> &'static str {
    "usage: masort-server [--addr HOST:PORT] [--pool-pages N] [--workers N]\n\
     \u{20}                    [--page-size BYTES] [--tuple-size BYTES] [--memory-pages N]\n\
     \u{20}                    [--tenant name=max_live:max_pages[:priority]]...\n\
     --workers N: how many sorts may be between admission and their root at once\n\
     \u{20}            (each sort runs on its connection's thread)"
}

/// The address to bind and the configured builder, or `None` when `--help`
/// was asked for (and printed).
fn parse_args(
    mut args: impl Iterator<Item = String>,
) -> Result<Option<(String, ServerBuilder)>, String> {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut builder = Server::builder();
    // The geometry flags adjust the builder's default, algorithm included.
    let mut cfg = builder.config().clone();

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
            "--page-size" => cfg = cfg.with_page_size(parse(&value("--page-size", &mut args)?)?),
            "--tuple-size" => cfg = cfg.with_tuple_size(parse(&value("--tuple-size", &mut args)?)?),
            "--memory-pages" => {
                cfg = cfg.with_memory_pages(parse(&value("--memory-pages", &mut args)?)?)
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
    Ok(Some((addr, builder.base_config(cfg))))
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
    use masort_core::Tuple;
    use masort_server::{SortClient, SubmitSpec};

    fn parse_line(line: &str) -> Result<Option<(String, ServerBuilder)>, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn removed_flags_are_unknown_flags() {
        for line in [
            "--io-threads 2",
            "--workers 2 --io-pipeline 8",
            "--policy priority",
            "--ingest-depth 8",
            "--egress-chunk 4096",
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

    #[test]
    fn the_binary_serves_the_builders_algorithm() {
        let (_, builder) = parse_line("--addr 127.0.0.1:0 --memory-pages 4")
            .unwrap_or_else(|e| panic!("{e}"))
            .expect("not --help");
        let handle = builder.bind("127.0.0.1:0").expect("bind").spawn();
        let mut client = SortClient::connect(handle.addr(), None).expect("connect");
        client.submit(SubmitSpec::default()).expect("submit");
        let presorted = (0..5_000u64).map(|k| Tuple::synthetic(k, 64)).collect();
        client.ingest(presorted).expect("ingest");
        let (sorted, summary) = client.finish().unwrap().into_sorted_vec().unwrap();
        assert_eq!(sorted.len(), 5_000);
        assert!(summary.natural_runs > 0, "{summary:?}");
        handle.join();
    }
}
