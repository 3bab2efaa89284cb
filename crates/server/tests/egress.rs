//! Hostile and unlucky clients on the way out: `EGRESS` frames are built
//! from the pages the session merges off the job's last step while the job
//! still holds its grant, so a client that stops reading, vanishes, or is
//! caught by a shutdown must cost nobody else anything and leave nothing
//! behind.
//!
//! A client "stops reading" by not calling `next()`; the result is made
//! larger than loop-back's socket buffers, so the session really does block
//! in `write` with the rest of the result still in the merge. Every wait is
//! on a state the server reports. (This file is its own test binary so that
//! the run files its process holds open are all its own; every job spills,
//! so every test takes `DISK` in turn.)

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use masort_core::{SortConfig, Tuple};
use masort_server::{
    fetch_metrics, fetch_trace, shutdown_server, Completed, Server, ServerHandle, SortClient,
    SubmitSpec,
};
use masort_trace::{metrics_from_json, JsonValue, MetricKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

static DISK: Mutex<()> = Mutex::new(());

const PAYLOAD: usize = 120;

/// One worker, which a job at its root does not keep.
fn one_worker_server() -> ServerHandle {
    Server::builder()
        .pool_pages(32)
        .workers(1)
        .base_config(
            SortConfig::default()
                .with_page_size(8192)
                .with_tuple_size(PAYLOAD + 8)
                .with_memory_pages(32),
        )
        .bind("127.0.0.1:0")
        .expect("bind loopback")
        .spawn()
}

/// `n` tuples with real payloads (a synthetic payload is four bytes on the
/// wire): ~140 bytes each in an `EGRESS` frame.
fn heavy_tuples(seed: u64, n: usize) -> Vec<Tuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let key = rng.gen::<u64>() >> 8;
            Tuple::new(key, vec![key as u8; PAYLOAD])
        })
        .collect()
}

/// ~11 MB on the wire: several times what loop-back buffers for a reader
/// that is not reading.
const BIG: usize = 80_000;

/// Submit and ingest; the result is the caller's to read (or not).
fn start_sort(addr: SocketAddr, input: &[Tuple]) -> (u64, Completed) {
    let mut client = SortClient::connect(addr, None).expect("connect");
    let job = client
        .submit(SubmitSpec {
            expected_tuples: input.len() as u64,
            ..SubmitSpec::default()
        })
        .expect("submit");
    for chunk in input.chunks(2_000) {
        client.ingest(chunk.to_vec()).expect("ingest");
    }
    (job, client.finish().expect("finish"))
}

fn sorted(mut input: Vec<Tuple>) -> Vec<Tuple> {
    input.sort_by_key(|t| t.key);
    input
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Service-wide counter or gauge `name` in a `METRICS_DATA` document; 0 until
/// first counted.
fn metric(json: &str, name: &str) -> i64 {
    let doc = JsonValue::parse(json).expect("metrics JSON parses");
    match metrics_from_json(&doc)
        .get(name, None)
        .map(|m| m.kind.clone())
    {
        Some(MetricKind::Counter(v)) => v as i64,
        Some(MetricKind::Gauge(v)) => v,
        _ => 0,
    }
}

/// The run files this process's stores hold open (see `FileStore::new`):
/// the `/proc/self/fd` links to unlinked `masort-{pid}-*` files in the temp
/// directory.
fn run_files() -> Vec<PathBuf> {
    let dir = std::fs::canonicalize(std::env::temp_dir()).expect("the temp dir");
    let prefix = dir.join(format!("masort-{}-", std::process::id()));
    let prefix = prefix.to_string_lossy();
    std::fs::read_dir("/proc/self/fd")
        .expect("list the open descriptors")
        .filter_map(|entry| Some(entry.ok()?.path()))
        .filter(|fd| {
            std::fs::read_link(fd).is_ok_and(|target| {
                let target = target.to_string_lossy();
                target.starts_with(&*prefix) && target.ends_with(" (deleted)")
            })
        })
        .collect()
}

#[test]
fn a_client_that_stops_reading_holds_up_nobody_and_still_gets_its_result() {
    let _disk = DISK.lock().unwrap_or_else(|e| e.into_inner());
    let handle = one_worker_server();
    let addr = handle.addr();
    let big = heavy_tuples(1, BIG);
    let (job, mut stalled) = start_sort(addr, &big);
    let mut got = vec![stalled.next().expect("a first tuple").expect("tuple")];
    // ... and the client reads no further. The session fills the socket and
    // blocks in `write`, with the rest of the result still in the merge.

    // A second client needs the only worker and fits beside the first job
    // by memory. It must run without the first one ever reading again, and
    // without the first result being written to make way.
    let small = heavy_tuples(2, 4_000);
    let (_, completed) = start_sort(addr, &small);
    let (result, summary) = completed.into_sorted_vec().expect("second client");
    assert_eq!(result, sorted(small));
    assert!(summary.queued_for < 4.0, "queued {} s", summary.queued_for);

    // The stalled client resumes: everything is there, in order.
    for tuple in &mut stalled {
        got.push(tuple.expect("tuple"));
    }
    assert_eq!(got.len(), BIG);
    assert_eq!(got, sorted(big));
    let summary = stalled.summary().expect("terminal STATS").clone();
    assert_eq!(summary.tuples, BIG as u64);
    assert!(summary.merge_steps >= 1);

    // "Was my result written to disk, and why": the job's own timeline.
    let trace = fetch_trace(addr, job).expect("trace");
    assert!(trace.contains("\"root_finished\""), "{trace}");
    assert!(trace.contains("\"exhausted\""), "{trace}");
    let stats = handle.join();
    assert_eq!((stats.completed, stats.leaked_pages), (2, 0));
}

#[test]
fn a_client_that_vanishes_mid_egress_leaves_no_trace() {
    let _disk = DISK.lock().unwrap_or_else(|e| e.into_inner());
    let handle = one_worker_server();
    let addr = handle.addr();
    let (_, mut completed) = start_sort(addr, &heavy_tuples(3, BIG));
    completed.next().expect("a first tuple").expect("tuple");
    drop(completed); // connection closed with most of the result unsent

    wait_until("the abandoned job to be released", || {
        let json = fetch_metrics(addr).expect("metrics");
        let ended = [
            "jobs_completed_total",
            "jobs_cancelled_total",
            "jobs_failed_total",
        ];
        metric(&json, "jobs_live") == 0 && ended.map(|n| metric(&json, n)).iter().sum::<i64>() == 1
    });
    assert_eq!(run_files(), Vec::<PathBuf>::new(), "run files remain open");
    let stats = handle.join();
    assert_eq!((stats.failed, stats.leaked_pages), (0, 0));
}

#[test]
fn a_shutdown_mid_egress_still_delivers_the_result() {
    let _disk = DISK.lock().unwrap_or_else(|e| e.into_inner());
    let handle = one_worker_server();
    let addr = handle.addr();
    let big = heavy_tuples(4, BIG);
    let (_, mut completed) = start_sort(addr, &big);
    let mut got = vec![completed.next().expect("a first tuple").expect("tuple")];

    let at_shutdown = shutdown_server(addr).expect("SHUTDOWN");
    let live = metric(&at_shutdown, "jobs_live");
    assert_eq!(live + metric(&at_shutdown, "jobs_completed_total"), 1);
    for tuple in &mut completed {
        got.push(tuple.expect("in-flight egress is drained, not cut"));
    }
    assert_eq!(got, sorted(big));
    assert!(completed.summary().is_some(), "terminal STATS");

    let stats = handle.join();
    assert_eq!((stats.completed, stats.leaked_pages), (1, 0));
    assert_eq!(run_files(), Vec::<PathBuf>::new(), "run files remain open");
}

#[test]
fn payloads_far_larger_than_declared_are_split_to_fit_the_frame_cap() {
    let _disk = DISK.lock().unwrap_or_else(|e| e.into_inner());
    // The geometry says 128-byte tuples, 64 to a page; the payloads are
    // 300 KiB, so one page of the result is ~19 MiB on the wire, over the
    // 16 MiB frame cap.
    let handle = one_worker_server();
    let mut rng = StdRng::seed_from_u64(5);
    let input: Vec<Tuple> = (0..96)
        .map(|_| {
            let key = rng.gen::<u64>() >> 8;
            Tuple::new(key, vec![key as u8; 300 << 10])
        })
        .collect();
    let mut client = SortClient::connect(handle.addr(), None).expect("connect");
    client.submit(SubmitSpec::default()).expect("submit");
    for chunk in input.chunks(16) {
        client.ingest(chunk.to_vec()).expect("ingest");
    }
    let (result, summary) = client
        .finish()
        .expect("finish")
        .into_sorted_vec()
        .expect("every frame under the cap");
    assert_eq!(summary.tuples, 96);
    assert_eq!(result, sorted(input));
    let stats = handle.join();
    assert_eq!((stats.completed, stats.leaked_pages), (1, 0));
}
