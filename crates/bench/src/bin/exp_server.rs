//! Saturate a live `masort-server` over loopback TCP: many concurrent
//! clients, each streaming a shuffled relation through the framed protocol
//! and verifying its sorted result byte-for-byte against a local sort, while
//! every job contends for one brokered page pool far smaller than the
//! aggregate demand.
//!
//! ```text
//! cargo run --release -p masort-bench --bin exp_server
//! ```
//!
//! Emits a JSON document (`BENCH_server.json` via
//! [`bench_output_path`](masort_bench::bench_output_path), override the name
//! with `MASORT_SRV_JSON`) with end-to-end p50/p99 response times, queue
//! waits, throughput and the server's leak counters — plus the server's
//! live metrics registry, fetched over the wire with a `METRICS_REQ` frame
//! and written verbatim to `METRICS_server.json` (override with
//! `MASORT_SRV_METRICS_JSON`). CI diffs that file's metric *name set*
//! against the committed golden list.
//!
//! Environment knobs: `MASORT_SRV_CLIENTS` (default 32),
//! `MASORT_SRV_TUPLES` (tuples per client, default 20000),
//! `MASORT_SRV_POOL` (pages, default 32), `MASORT_SRV_WORKERS` (default 8),
//! `MASORT_SRV_JOB_PAGES` (pages each sort asks for, default 16).

use std::thread;
use std::time::Instant;

use masort_bench::env_usize;
use masort_core::{SortConfig, Tuple};
use masort_server::{fetch_metrics, Server, SortClient, SubmitSpec};
use masort_trace::{metrics_from_json, JsonValue};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TUPLE_SIZE: usize = 64;
const PAGE_SIZE: usize = 2048;
const INGEST_CHUNK: usize = 2048;

fn shuffled_tuples(seed: u64, n: usize) -> Vec<Tuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tuples: Vec<Tuple> = (0..n as u64)
        .map(|k| Tuple::synthetic(k.wrapping_mul(0x9E37_79B9_7F4A_7C15), TUPLE_SIZE))
        .collect();
    for i in (1..tuples.len()).rev() {
        let j = rng.gen_range(0..=i as u64) as usize;
        tuples.swap(i, j);
    }
    tuples
}

/// The `p`-th percentile (0 ≤ p ≤ 100) of `values` by nearest rank; 0 when
/// empty.
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

struct ClientOutcome {
    response_s: f64,
    queued_s: f64,
    reallocations: u64,
    runs_formed: u64,
}

fn run_client(
    addr: std::net::SocketAddr,
    seed: u64,
    tuples: usize,
    job_pages: usize,
) -> ClientOutcome {
    let input = shuffled_tuples(seed, tuples);
    let mut expected = input.clone();
    expected.sort_by_key(|t| t.key);

    let started = Instant::now();
    let mut client = SortClient::connect(addr, None).expect("connect");
    client
        .submit(SubmitSpec {
            memory_pages: job_pages as u64,
            expected_tuples: tuples as u64,
            ..SubmitSpec::default()
        })
        .expect("submit");
    for chunk in input.chunks(INGEST_CHUNK) {
        client.ingest(chunk.to_vec()).expect("ingest");
    }
    let (sorted, summary) = client
        .finish()
        .expect("finish")
        .into_sorted_vec()
        .expect("drain");
    let response_s = started.elapsed().as_secs_f64();

    // The whole point of serving sorts: the remote result must be exactly
    // the local sort, tuple for tuple, under full contention.
    assert_eq!(
        sorted, expected,
        "client {seed}: remote sort diverged from the local sort"
    );
    ClientOutcome {
        response_s,
        queued_s: summary.queued_for,
        reallocations: summary.reallocations,
        runs_formed: summary.runs_formed,
    }
}

fn main() {
    let clients = env_usize("MASORT_SRV_CLIENTS", 32);
    let tuples = env_usize("MASORT_SRV_TUPLES", 20_000);
    let pool = env_usize("MASORT_SRV_POOL", 32);
    let workers = env_usize("MASORT_SRV_WORKERS", 8);
    let job_pages = env_usize("MASORT_SRV_JOB_PAGES", 16);
    let json_path = std::env::var("MASORT_SRV_JSON")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| masort_bench::bench_output_path("BENCH_server.json"));

    eprintln!(
        "exp_server: {clients} clients x {tuples} tuples, pool {pool} pages, \
         {workers} workers, {job_pages} pages/job"
    );

    let handle = Server::builder()
        .pool_pages(pool)
        .workers(workers)
        .base_config(
            SortConfig::default()
                .with_page_size(PAGE_SIZE)
                .with_tuple_size(TUPLE_SIZE)
                .with_memory_pages(job_pages),
        )
        .bind("127.0.0.1:0")
        .expect("bind loopback");
    let addr = handle.local_addr();
    let handle = handle.spawn();

    let wall = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|i| thread::spawn(move || run_client(addr, 1_000 + i as u64, tuples, job_pages)))
        .collect();
    let mut response_s = Vec::with_capacity(clients);
    let mut queued_s = Vec::with_capacity(clients);
    let mut reallocations = 0u64;
    let mut runs_formed = 0u64;
    for t in threads {
        let outcome = t.join().expect("client thread");
        response_s.push(outcome.response_s);
        queued_s.push(outcome.queued_s);
        reallocations += outcome.reallocations;
        runs_formed += outcome.runs_formed;
    }
    let wall_s = wall.elapsed().as_secs_f64();

    // Pull the server's metrics registry over the wire before shutting it
    // down; sanity-check it against the ground truth, then persist it.
    let metrics_path = std::env::var("MASORT_SRV_METRICS_JSON")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| masort_bench::bench_output_path("METRICS_server.json"));
    let metrics_json = fetch_metrics(addr).expect("METRICS_REQ over the wire");
    let snapshot =
        metrics_from_json(&JsonValue::parse(&metrics_json).expect("metrics JSON parses"));
    assert_eq!(
        snapshot.counter("jobs_completed_total", None),
        Some(clients as u64),
        "metrics registry disagrees with the client fleet"
    );
    if let Err(e) = std::fs::write(&metrics_path, &metrics_json) {
        eprintln!("could not write {}: {e}", metrics_path.display());
        std::process::exit(1);
    }
    eprintln!("wrote {}", metrics_path.display());

    let stats = handle.join();

    assert_eq!(
        stats.completed, clients as u64,
        "every client must complete"
    );
    assert_eq!(stats.leaked_pages, 0, "no job may leak pool pages");
    // With aggregate demand several times the pool, the broker must have
    // re-divided shares mid-flight at least once.
    assert!(
        reallocations >= 1,
        "expected mid-flight reallocations under saturation"
    );

    let throughput = (clients * tuples) as f64 / wall_s;
    masort_bench::print_table(
        "server saturation",
        &[
            "clients",
            "tuples",
            "pool",
            "wall_s",
            "tuples/s",
            "p50_ms",
            "p99_ms",
            "queue_p99_ms",
            "reallocs",
        ],
        &[vec![
            clients.to_string(),
            tuples.to_string(),
            pool.to_string(),
            masort_bench::f(wall_s, 2),
            masort_bench::f(throughput, 0),
            masort_bench::f(percentile(&response_s, 50.0) * 1e3, 1),
            masort_bench::f(percentile(&response_s, 99.0) * 1e3, 1),
            masort_bench::f(percentile(&queued_s, 99.0) * 1e3, 1),
            reallocations.to_string(),
        ]],
    );

    let json = format!(
        "{{\n  \"bench\": \"server_saturation\",\n  \"clients\": {clients},\n  \
         \"tuples_per_client\": {tuples},\n  \"pool_pages\": {pool},\n  \
         \"workers\": {workers},\n  \"job_pages\": {job_pages},\n  \
         \"wall_s\": {wall_s:.3},\n  \"tuples_per_s\": {throughput:.0},\n  \
         \"response_ms\": {{ \"p50\": {:.2}, \"p99\": {:.2}, \"max\": {:.2} }},\n  \
         \"queue_wait_ms\": {{ \"p50\": {:.2}, \"p99\": {:.2} }},\n  \
         \"reallocations\": {reallocations},\n  \"runs_formed\": {runs_formed},\n  \
         \"completed\": {},\n  \"cancelled\": {},\n  \"failed\": {},\n  \
         \"leaked_pages\": {},\n  \"rebalances\": {}\n}}\n",
        percentile(&response_s, 50.0) * 1e3,
        percentile(&response_s, 99.0) * 1e3,
        response_s.iter().copied().fold(0.0, f64::max) * 1e3,
        percentile(&queued_s, 50.0) * 1e3,
        percentile(&queued_s, 99.0) * 1e3,
        stats.completed,
        stats.cancelled,
        stats.failed,
        stats.leaked_pages,
        stats.rebalances,
    );
    print!("{json}");
    // CI consumes this file (cat + artifact upload); failing to produce it
    // must fail the bench step here, where the cause is visible.
    match std::fs::write(&json_path, &json) {
        Ok(()) => eprintln!("wrote {}", json_path.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", json_path.display());
            std::process::exit(1);
        }
    }
}
