//! A sort runs on the thread that redeems its ticket. Building a service
//! starts no thread, and a served sort runs on its connection's session
//! thread: the process holds the accept loop and one session thread per
//! open connection, and nothing else.
//!
//! (This file is its own test binary, with one test, so that every thread
//! and every run file of its process is this test's.)

use std::net::TcpStream;
use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

use masort_broker::SortService;
use masort_core::{SortConfig, Tuple};
use masort_server::{Server, SortClient, SubmitSpec};

/// The names of this process's threads, from `/proc/self/task/*/comm`.
fn threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("list this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
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

#[test]
fn a_served_sort_runs_on_its_session_thread_and_no_pool_thread_exists() {
    let before = threads().len();
    let service = SortService::builder().pool_pages(8).workers(4).build();
    assert_eq!(
        threads().len(),
        before,
        "building a service started a thread"
    );
    drop(service);

    let handle = Server::builder()
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
        .spawn();
    let addr = handle.addr();

    // A connection that never said HELLO, and a sort parked mid-ingest:
    // runs on disk, more input expected.
    let _idle = TcpStream::connect(addr).expect("idle connect");
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

    let names = threads();
    assert!(
        !names.iter().any(|name| name.contains("worker")),
        "{names:?}"
    );
    // One per open connection, each under its full name: the idle one was
    // accepted first.
    for session in ["masort-s-0", "masort-s-1"] {
        let named = names.iter().filter(|name| *name == session);
        assert_eq!(named.count(), 1, "{session}: {names:?}");
    }
    // The accept loop and the two sessions; the sort has no thread of its own.
    assert_eq!(names.len(), before + 3, "{names:?}");

    let stats = handle.join();
    assert_eq!(stats.cancelled, 1, "the mid-ingest job ends Cancelled");
    assert_eq!(stats.leaked_pages, 0);
    assert_eq!(run_files(), Vec::<PathBuf>::new(), "run files remain open");
}
