//! A served sort reads its own `INGEST` frames: what a client sees of that.
//! A sort that takes no input reads none, so its client blocks in TCP, and a
//! client that vanishes mid-ingest ends its sort cancelled with nothing left
//! behind.
//!
//! (This file is its own test binary so that the run files its process holds
//! open are all its own; every job spills, so every test takes `DISK` in
//! turn.)

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use masort_core::{SortConfig, Tuple};
use masort_server::{Server, ServerHandle, SortClient, SubmitSpec};

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
    let deadline = Instant::now() + Duration::from_secs(20);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(5));
    }
}

fn spec(min_pages: u64) -> SubmitSpec {
    SubmitSpec {
        min_pages,
        memory_pages: 8,
        ..SubmitSpec::default()
    }
}

/// A client that vanishes mid-ingest, after its sort spilled a run, leaves
/// its job cancelled, no page leaked and no run file open.
#[test]
fn a_client_that_vanishes_mid_ingest_leaves_no_page_and_no_run_file() {
    let _disk = DISK.lock().unwrap_or_else(|e| e.into_inner());
    let handle = small_server();
    let mut client = SortClient::connect(handle.addr(), None).expect("connect");
    client.submit(spec(0)).expect("submit");
    let keys = (0..8_000u64).map(|k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let input = keys.map(|k| Tuple::synthetic(k, 64)).collect();
    client.ingest(input).expect("ingest");
    wait_until("a spilled run", || {
        run_files()
            .iter()
            .any(|fd| std::fs::metadata(fd).is_ok_and(|file| file.len() > 0))
    });
    drop(client);
    wait_until("the run file to close", || run_files().is_empty());
    let stats = handle.join();
    assert_eq!((stats.cancelled, stats.completed), (1, 0));
    assert_eq!(stats.leaked_pages, 0);
}

/// A sort that cannot take input — queued behind a job that holds the whole
/// pool — has none of its client's input read: the client blocks on the TCP
/// window, with most of its frames unsent, instead of the server buffering
/// them. Once the pool frees, the same sort reads them all.
#[test]
fn a_sort_that_takes_no_input_leaves_its_client_blocked_in_tcp() {
    const FRAMES: usize = 96;
    const RECORDS: usize = 256;
    let _disk = DISK.lock().unwrap_or_else(|e| e.into_inner());
    let handle = small_server();
    let mut holder = SortClient::connect(handle.addr(), None).expect("connect");
    holder.submit(spec(8)).expect("submit the pool's holder");
    let mut queued = SortClient::connect(handle.addr(), None).expect("connect");
    queued
        .submit(SubmitSpec {
            page_size: 16 << 10,
            tuple_size: 1 << 10,
            ..spec(8)
        })
        .expect("submit behind it");

    // 24 MiB of records, several times what the two socket buffers hold.
    let sent = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&sent);
    let sender = thread::spawn(move || {
        for frame in 0..FRAMES {
            let first = (frame * RECORDS) as u64;
            let records = (first..first + RECORDS as u64).rev();
            queued
                .ingest(
                    records
                        .map(|k| Tuple::new(k, vec![k as u8; 1000]))
                        .collect(),
                )
                .expect("ingest");
            counter.fetch_add(1, Ordering::SeqCst);
        }
        queued.finish().expect("finish").into_sorted_vec()
    });
    // Wait for the sender to stall (or, wrongly, to finish).
    let mut last = usize::MAX;
    while sent.load(Ordering::SeqCst) != last {
        last = sent.load(Ordering::SeqCst);
        thread::sleep(Duration::from_millis(300));
    }
    assert!(
        last < FRAMES / 2,
        "{last} of {FRAMES} frames went out while their sort could take none"
    );

    let cancelled = holder.cancel().expect("cancel the pool's holder");
    assert_eq!(cancelled.code, masort_server::ErrorCode::Cancelled);
    let (sorted, summary) = sender.join().unwrap().expect("the queued sort");
    assert_eq!(summary.tuples, (FRAMES * RECORDS) as u64);
    assert!(sorted.windows(2).all(|w| w[0].key <= w[1].key));
    let stats = handle.join();
    assert_eq!(
        (stats.cancelled, stats.completed, stats.leaked_pages),
        (1, 1, 0)
    );
}
