//! The server blocks in `accept()` and `read()` and is *woken* at shutdown; it
//! never polls. Two consequences are observable from outside and pinned
//! here: a connection is answered as soon as it arrives, and shutdown does
//! not wait out anybody's poll interval.
//!
//! (This file is its own test binary so that the run files its process holds
//! open are all its own; every job spills, so every test takes `DISK` in
//! turn.)

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use masort_core::{SortConfig, Tuple};
use masort_server::codec::{read_frame, write_frame};
use masort_server::{Frame, Server, ServerHandle, SortClient, SubmitSpec};

static DISK: Mutex<()> = Mutex::new(());

fn small_server() -> ServerHandle {
    Server::builder()
        .pool_pages(8)
        .workers(2)
        .base_config(
            SortConfig::default()
                .with_page_size(2048)
                .with_tuple_size(64)
                .with_memory_pages(8),
        )
        .bind("127.0.0.1:0")
        .expect("bind loopback")
        .spawn()
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

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(5));
    }
}

/// Park three sessions on a fresh server — one that never said HELLO, a
/// monitoring connection between polls, a sort mid-ingest — then
/// `join()` it. Returns how long the join took.
fn join_with_three_sessions_waiting() -> Duration {
    let handle = small_server();
    let addr = handle.addr();

    // A connection that never said HELLO.
    let _idle = TcpStream::connect(addr).expect("idle connect");

    // A monitoring connection between two polls.
    let stream = TcpStream::connect(addr).expect("admin connect");
    let mut admin_reader = BufReader::new(stream.try_clone().unwrap());
    let mut admin_writer = BufWriter::new(stream);
    write_frame(&mut admin_writer, &Frame::MetricsReq).unwrap();
    admin_writer.flush().unwrap();
    assert!(matches!(
        read_frame(&mut admin_reader).expect("metrics reply"),
        Some(Frame::MetricsData { .. })
    ));

    // A sort parked mid-ingest: runs on disk, more input expected.
    let mut ingesting = SortClient::connect(addr, None).expect("connect");
    ingesting
        .submit(SubmitSpec {
            memory_pages: 8,
            ..SubmitSpec::default()
        })
        .expect("submit");
    let tuples: Vec<Tuple> = (0..8_000u64)
        .map(|k| Tuple::synthetic(k.wrapping_mul(0x9E37_79B9_7F4A_7C15), 64))
        .collect();
    ingesting.ingest(tuples).expect("ingest");
    wait_until("the parked sort to spill a run", || {
        run_files()
            .iter()
            .any(|fd| std::fs::metadata(fd).is_ok_and(|file| file.len() > 0))
    });

    let asked = Instant::now();
    let stats = handle.join();
    let took = asked.elapsed();

    assert_eq!(stats.cancelled, 1, "the mid-ingest job ends Cancelled");
    assert_eq!(stats.completed, 0);
    assert_eq!(stats.leaked_pages, 0);
    assert_eq!(run_files(), Vec::<PathBuf>::new(), "run files remain open");
    took
}

#[test]
fn join_wakes_every_waiting_session_at_once() {
    let _disk = DISK.lock().unwrap_or_else(|e| e.into_inner());
    // A wake-up costs well under a millisecond; a poll interval would cost
    // tens. Best of three, so a descheduled test thread is not a failure.
    let best = (0..3)
        .map(|_| join_with_three_sessions_waiting())
        .find(|&took| took < Duration::from_millis(50));
    assert!(
        best.is_some(),
        "join() never finished within 50 ms with three sessions waiting for input"
    );
}

#[test]
fn a_connection_is_welcomed_as_soon_as_it_arrives() {
    let _disk = DISK.lock().unwrap_or_else(|e| e.into_inner());
    let handle = small_server();
    let addr = handle.addr();
    let mut handshakes: Vec<Duration> = (0..50)
        .map(|_| {
            let started = Instant::now();
            let client = SortClient::connect(addr, None).expect("connect + WELCOME");
            let took = started.elapsed();
            drop(client);
            took
        })
        .collect();
    handshakes.sort_unstable();
    let p50 = handshakes[handshakes.len() / 2];
    assert!(
        p50 < Duration::from_millis(5),
        "connect -> WELCOME p50 {p50:?} over {} sequential connects",
        handshakes.len()
    );
    handle.join();
}
