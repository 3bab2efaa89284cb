//! End-to-end observability: submit sorts over TCP, fetch `TRACE_REQ` /
//! `METRICS_REQ` over the wire, and check that the timeline and the registry
//! agree with each other and with what actually happened.

use std::thread;

use masort_core::{SortConfig, Tuple};
use masort_server::{fetch_metrics, fetch_trace, Server, ServerHandle, SortClient, SubmitSpec};
use masort_trace::{metrics_from_json, trace_from_json, EventKind, JsonValue};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TUPLE_SIZE: usize = 64;

fn small_server() -> ServerHandle {
    Server::builder()
        .pool_pages(8)
        .workers(4)
        .base_config(
            SortConfig::default()
                .with_page_size(2048)
                .with_tuple_size(TUPLE_SIZE)
                .with_memory_pages(8),
        )
        .bind("127.0.0.1:0")
        .expect("bind loopback")
        .spawn()
}

fn shuffled_tuples(seed: u64, n: usize) -> Vec<Tuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tuples: Vec<Tuple> = (0..n as u64)
        .map(|k| Tuple::synthetic(k, TUPLE_SIZE))
        .collect();
    for i in (1..tuples.len()).rev() {
        let j = rng.gen_range(0..=i as u64) as usize;
        tuples.swap(i, j);
    }
    tuples
}

/// Run one remote sort to completion, returning its job id.
fn remote_sort(addr: std::net::SocketAddr, seed: u64, n: usize) -> u64 {
    let mut client = SortClient::connect(addr, None).expect("connect");
    let job = client
        .submit(SubmitSpec {
            memory_pages: 8,
            expected_tuples: n as u64,
            ..SubmitSpec::default()
        })
        .expect("submit");
    for chunk in shuffled_tuples(seed, n).chunks(1500) {
        client.ingest(chunk.to_vec()).expect("ingest");
    }
    let (sorted, _) = client
        .finish()
        .expect("finish")
        .into_sorted_vec()
        .expect("drain");
    assert_eq!(sorted.len(), n);
    job
}

#[test]
fn traces_and_metrics_agree_over_the_wire() {
    let handle = small_server();
    let addr = handle.addr();

    // Several sorts that each want the whole 8-page pool: their budgets must
    // be re-divided as the mix changes, so the timelines carry reallocation
    // events beyond the initial grant.
    let clients = 4;
    let n = 4_000;
    let mut workers = Vec::new();
    for seed in 0..clients {
        workers.push(thread::spawn(move || remote_sort(addr, 40 + seed, n)));
    }
    let jobs: Vec<u64> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .collect();

    // Fetch every finished job's timeline over the wire.
    let mut granted_events = 0u64;
    let mut granted_pages = 0u64;
    let mut budget_targets = 0usize;
    let mut phase_starts = 0usize;
    let (mut streamed, mut settled) = (0u64, 0u64);
    for &job in &jobs {
        let json = fetch_trace(addr, job).expect("TRACE_REQ");
        let doc = JsonValue::parse(&json).expect("trace JSON parses");
        let snapshot = trace_from_json(&doc);
        assert!(
            !snapshot.events.is_empty(),
            "job {job} timeline must not be empty"
        );
        // Events arrive in recording order with non-decreasing timestamps.
        for pair in snapshot.events.windows(2) {
            assert!(pair[0].ts <= pair[1].ts, "job {job} timeline out of order");
        }
        for event in &snapshot.events {
            match event.kind {
                EventKind::AdmissionGranted { pages } => {
                    granted_events += 1;
                    granted_pages += pages as u64;
                }
                EventKind::BudgetTarget { .. } => budget_targets += 1,
                EventKind::PhaseStart { .. } => phase_starts += 1,
                EventKind::RootFinished {
                    pages_streamed,
                    pages_settled,
                    ..
                } => {
                    streamed += pages_streamed;
                    settled += pages_settled;
                }
                _ => {}
            }
        }
        // A job id answers "was my result written to disk, and why".
        let roots = snapshot
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::RootFinished { .. }));
        assert_eq!(roots.count(), 1, "job {job}: one root_finished event");
    }
    // 32 tuples to a page; every page of every result went one way or the
    // other.
    assert_eq!(streamed + settled, clients * (n as u64).div_ceil(32));
    assert!(
        granted_events >= 1,
        "expected at least one admission grant across {clients} jobs"
    );
    assert_eq!(
        granted_events, clients,
        "every admitted job records exactly one grant"
    );
    assert!(
        budget_targets >= 1,
        "four sorts contending for one pool must see at least one \
         budget reallocation in their timelines"
    );
    assert!(phase_starts >= 1, "sorts record their phase transitions");

    // The metrics registry must agree with the event timelines: the pages
    // counted by `pages_granted_total` are exactly the pages carried on
    // `admission_granted` events.
    let json = fetch_metrics(addr).expect("METRICS_REQ");
    let doc = JsonValue::parse(&json).expect("metrics JSON parses");
    let snapshot = metrics_from_json(&doc);
    assert_eq!(
        snapshot.counter("pages_granted_total", None),
        Some(granted_pages),
        "trace events and the metrics registry disagree on pages granted"
    );
    assert_eq!(
        snapshot.counter("egress_pages_streamed_total", None),
        Some(streamed)
    );
    assert_eq!(
        snapshot.counter("egress_pages_settled_total", None),
        Some(settled)
    );
    assert_eq!(
        snapshot.counter("jobs_submitted_total", None),
        Some(clients),
        "every submission counted"
    );
    assert_eq!(
        snapshot.counter("jobs_completed_total", None),
        Some(clients),
        "every completion counted"
    );

    let stats = handle.join();
    assert_eq!(stats.completed, clients);
    assert_eq!(stats.leaked_pages, 0);
}
