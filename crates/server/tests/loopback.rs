//! End-to-end tests against a real listening server: correctness under
//! contention, typed refusals, cancellation, disconnect cleanup, quotas and
//! graceful shutdown.

use std::io::Write;
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use masort_core::{SortConfig, Tuple};
use masort_server::{
    fetch_metrics, shutdown_server, ClientError, ErrorCode, Server, ServerHandle, SortClient,
    SubmitSpec, TenantQuota,
};
use masort_trace::{metrics_from_json, JsonValue, MetricKind};
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

fn remote_sort(addr: std::net::SocketAddr, seed: u64, n: usize) -> (Vec<Tuple>, u64) {
    let mut client = SortClient::connect(addr, None).expect("connect");
    client
        .submit(SubmitSpec {
            memory_pages: 8,
            expected_tuples: n as u64,
            ..SubmitSpec::default()
        })
        .expect("submit");
    for chunk in shuffled_tuples(seed, n).chunks(1500) {
        client.ingest(chunk.to_vec()).expect("ingest");
    }
    let completed = client.finish().expect("finish");
    let (sorted, summary) = completed.into_sorted_vec().expect("drain");
    (sorted, summary.reallocations)
}

#[test]
fn a_remote_sort_is_byte_identical_to_a_local_sort() {
    let handle = small_server();
    let n = 6_000;
    let (sorted, _) = remote_sort(handle.addr(), 1, n);
    assert_eq!(sorted.len(), n);
    let mut expected = shuffled_tuples(1, n);
    expected.sort_by_key(|t| t.key);
    assert_eq!(sorted, expected, "remote result must equal the local sort");
    let stats = handle.join();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.leaked_pages, 0);
}

#[test]
fn concurrent_clients_each_get_their_own_correct_result() {
    let handle = small_server();
    let addr = handle.addr();
    let clients = 8;
    let n = 4_000;
    let mut workers = Vec::new();
    for seed in 0..clients {
        workers.push(thread::spawn(move || remote_sort(addr, 100 + seed, n)));
    }
    let mut total_reallocations = 0;
    for (seed, worker) in (0..clients).zip(workers) {
        let (sorted, reallocations) = worker.join().expect("client thread");
        total_reallocations += reallocations;
        let mut expected = shuffled_tuples(100 + seed, n);
        expected.sort_by_key(|t| t.key);
        assert_eq!(sorted, expected, "client {seed}");
    }
    // Eight sorts that each want the whole 8-page pool must have had their
    // budgets re-divided at least once as the mix changed.
    assert!(
        total_reallocations >= 1,
        "expected at least one mid-flight reallocation across {clients} clients"
    );
    let stats = handle.join();
    assert_eq!(stats.completed, clients);
    assert_eq!(stats.leaked_pages, 0);
}

#[test]
fn an_impossible_minimum_gets_a_typed_budget_starved_frame() {
    let handle = small_server();
    let mut client = SortClient::connect(handle.addr(), None).expect("connect");
    let err = client
        .submit(SubmitSpec {
            min_pages: 64, // pool is 8
            memory_pages: 64,
            ..SubmitSpec::default()
        })
        .expect_err("a minimum above the pool must be refused");
    match err {
        ClientError::Remote(e) => {
            assert_eq!(e.code, ErrorCode::BudgetStarved);
            assert_eq!(e.needed, 64);
            assert_eq!(e.granted, 8);
        }
        other => panic!("expected a remote BudgetStarved error, got {other}"),
    }
    let stats = handle.join();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.leaked_pages, 0);
}

#[test]
fn cancelling_mid_ingest_aborts_the_job_and_leaks_nothing() {
    let handle = small_server();
    let addr = handle.addr();
    let mut client = SortClient::connect(addr, None).expect("connect");
    client
        .submit(SubmitSpec {
            memory_pages: 8,
            ..SubmitSpec::default()
        })
        .expect("submit");
    // Push enough input that the sort is genuinely under way...
    for chunk in shuffled_tuples(7, 20_000).chunks(2_000).take(5) {
        client.ingest(chunk.to_vec()).expect("ingest");
    }
    // ... then abort it.
    let err = client.cancel().expect("cancel handshake");
    assert_eq!(err.code, ErrorCode::Cancelled, "{err}");

    // The cancelled job must leave the pool whole: a sort that needs every
    // page can only be admitted if all 8 came back.
    let (sorted, _) = remote_sort(addr, 8, 2_000);
    assert_eq!(sorted.len(), 2_000);
    let stats = handle.join();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.leaked_pages, 0);
}

#[test]
fn a_client_that_vanishes_mid_ingest_leaves_no_trace() {
    let handle = small_server();
    let addr = handle.addr();
    {
        let mut client = SortClient::connect(addr, None).expect("connect");
        client
            .submit(SubmitSpec {
                memory_pages: 8,
                ..SubmitSpec::default()
            })
            .expect("submit");
        for chunk in shuffled_tuples(9, 20_000).chunks(2_000).take(4) {
            client.ingest(chunk.to_vec()).expect("ingest");
        }
        // Drop the connection on the floor, mid-ingest.
    }
    // Wait until the server has noticed and torn the job down.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = fetch_metrics(addr).expect("metrics");
        let cancelled = metric(&s, "jobs_cancelled_total");
        if cancelled >= 1 && metric(&s, "jobs_live") == 0 && metric(&s, "jobs_queued") == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "server never cleaned up the abandoned job: {s}"
        );
        thread::sleep(Duration::from_millis(50));
    }
    // Every page is back: a min_pages == pool sort admits and completes.
    let mut client = SortClient::connect(addr, None).expect("connect");
    client
        .submit(SubmitSpec {
            min_pages: 8,
            memory_pages: 8,
            ..SubmitSpec::default()
        })
        .expect("submit");
    client.ingest(shuffled_tuples(10, 3_000)).expect("ingest");
    let (sorted, _) = client
        .finish()
        .expect("finish")
        .into_sorted_vec()
        .expect("drain");
    assert_eq!(sorted.len(), 3_000);
    let stats = handle.join();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.leaked_pages, 0);
}

#[test]
fn tenant_quotas_bound_live_jobs_and_override_priority() {
    let handle = Server::builder()
        .pool_pages(8)
        .workers(4)
        .base_config(
            SortConfig::default()
                .with_page_size(2048)
                .with_tuple_size(TUPLE_SIZE)
                .with_memory_pages(8),
        )
        .tenant(
            "acme",
            TenantQuota {
                max_live: 1,
                max_pages: 4,
                priority: 2,
            },
        )
        .bind("127.0.0.1:0")
        .expect("bind")
        .spawn();
    let addr = handle.addr();

    // First acme sort occupies the tenant's only slot (still ingesting).
    let mut first = SortClient::connect(addr, Some("acme")).expect("connect");
    first
        .submit(SubmitSpec::default())
        .expect("first submit fits the quota");
    first.ingest(shuffled_tuples(3, 2_000)).expect("ingest");

    // Second concurrent acme sort is over max_live.
    let mut second = SortClient::connect(addr, Some("acme")).expect("connect");
    let err = second
        .submit(SubmitSpec::default())
        .expect_err("second concurrent sort must exceed the quota");
    match err {
        ClientError::Remote(e) => {
            assert_eq!(e.code, ErrorCode::QuotaExceeded);
            assert_eq!(e.granted, 1);
        }
        other => panic!("expected QuotaExceeded, got {other}"),
    }

    // A minimum above the tenant's page cap is refused even though the pool
    // could cover it.
    let mut third = SortClient::connect(addr, Some("bigco")).expect("connect");
    third
        .submit(SubmitSpec {
            min_pages: 6,
            memory_pages: 8,
            ..SubmitSpec::default()
        })
        .expect("an unquota'd tenant may use the whole pool");
    drop(third); // abandons its job; cleanup is covered elsewhere

    let mut capped = SortClient::connect(addr, Some("acme")).expect("connect");
    let err = capped
        .submit(SubmitSpec {
            min_pages: 6,
            ..SubmitSpec::default()
        })
        .expect_err("min_pages above the tenant page cap must be refused");
    // The tenant's only live slot is still taken by `first`, so this arrives
    // as either QuotaExceeded flavour; both carry the quota code.
    match err {
        ClientError::Remote(e) => assert_eq!(e.code, ErrorCode::QuotaExceeded),
        other => panic!("expected QuotaExceeded, got {other}"),
    }

    // Finish the first sort; its grant must respect the 4-page tenant cap.
    let (sorted, summary) = first
        .finish()
        .expect("finish")
        .into_sorted_vec()
        .expect("drain");
    assert_eq!(sorted.len(), 2_000);
    assert!(
        summary.initial_grant <= 4,
        "tenant page cap ignored: granted {}",
        summary.initial_grant
    );
    handle.join();
}

#[test]
fn version_mismatch_and_garbage_bytes_get_clean_refusals() {
    let handle = small_server();
    let addr = handle.addr();

    // A well-formed HELLO with the wrong version — a made-up one, and the
    // previous one, whose SUBMIT this server would not parse: typed protocol
    // error.
    use masort_server::codec::{read_frame, write_frame};
    use masort_server::Frame;
    for version in [999, 2] {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut writer = std::io::BufWriter::new(stream);
        write_frame(
            &mut writer,
            &Frame::Hello {
                version,
                tenant: None,
            },
        )
        .unwrap();
        writer.flush().unwrap();
        match read_frame(&mut reader).expect("server answers") {
            Some(Frame::Error(e)) => assert_eq!(e.code, ErrorCode::Protocol, "version {version}"),
            other => panic!("expected a protocol error frame, got {other:?}"),
        }
    }

    // A protocol-4 client's service-counters request and reply opcodes are
    // unknown now: a typed protocol error, not a silent close.
    for opcode in [0x0C, 0x0D] {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&1u32.to_le_bytes()).unwrap();
        stream.write_all(&[opcode]).unwrap();
        match read_frame(&mut std::io::BufReader::new(stream)).expect("server answers") {
            Some(Frame::Error(e)) => {
                assert_eq!(e.code, ErrorCode::Protocol);
                assert!(e.message.contains("unknown opcode"), "{e}");
            }
            other => panic!("expected a protocol error frame, got {other:?}"),
        }
    }

    // Raw garbage: the server must drop the connection without panicking and
    // keep serving.
    let mut garbage = TcpStream::connect(addr).expect("connect");
    garbage.write_all(&[0xFF; 512]).expect("write garbage");
    drop(garbage);

    let (sorted, _) = remote_sort(addr, 11, 1_000);
    assert_eq!(sorted.len(), 1_000);
    let stats = handle.join();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.leaked_pages, 0);
}

#[test]
fn shutdown_drains_inflight_sorts_before_exiting() {
    let handle = small_server();
    let addr = handle.addr();

    // Get a sort fully ingested and waiting on egress.
    let mut client = SortClient::connect(addr, None).expect("connect");
    client
        .submit(SubmitSpec {
            memory_pages: 8,
            ..SubmitSpec::default()
        })
        .expect("submit");
    client.ingest(shuffled_tuples(13, 8_000)).expect("ingest");
    let mut completed = client.finish().expect("finish");
    // Pull one chunk so the session is mid-egress, then ask for shutdown.
    let first = completed.next().expect("at least one tuple").expect("ok");
    let at_shutdown = shutdown_server(addr).expect("shutdown handshake");
    assert!(metric(&at_shutdown, "jobs_submitted_total") >= 1);

    // The in-flight egress must still complete, sorted and whole, down to
    // its terminal STATS frame: shutdown wakes sessions that wait for input,
    // it does not cut off one that is writing.
    let mut previous = first.key;
    let mut count = 1usize;
    for tuple in &mut completed {
        let tuple = tuple.expect("egress continues through shutdown");
        assert!(tuple.key >= previous);
        previous = tuple.key;
        count += 1;
    }
    assert_eq!(count, 8_000);
    let summary = completed
        .summary()
        .expect("STATS frame after the last chunk");
    assert_eq!(summary.tuples, 8_000);

    let stats = handle.join();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.leaked_pages, 0);

    // And the listener is gone: new connections are refused.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener should be closed after shutdown"
    );
}

/// A `Completed` that met an error fuses: a peer that sends one `EGRESS`
/// frame, then `ERR`, then closes, yields its tuples, one error, and `None`
/// from then on — so draining it with `filter_map(Result::ok)` ends.
#[test]
fn the_result_iterator_fuses_after_an_error() {
    use masort_server::codec::{read_frame, write_frame};
    use masort_server::{Frame, WireError, PROTOCOL_VERSION};
    use std::io::{BufReader, BufWriter};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let peer = thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        let mut reply = |frame: Frame| {
            write_frame(&mut writer, &frame).unwrap();
            writer.flush().unwrap();
        };
        assert!(matches!(
            read_frame(&mut reader),
            Ok(Some(Frame::Hello { .. }))
        ));
        reply(Frame::Welcome {
            version: PROTOCOL_VERSION,
            pool_pages: 8,
        });
        assert!(matches!(
            read_frame(&mut reader),
            Ok(Some(Frame::Submit(_)))
        ));
        reply(Frame::Accepted {
            job: 1,
            tuples_per_page: 8,
        });
        assert!(matches!(read_frame(&mut reader), Ok(Some(Frame::Fin))));
        reply(Frame::Egress(
            (0..3).map(|k| Tuple::synthetic(k, 16)).collect(),
        ));
        reply(Frame::Error(WireError::new(ErrorCode::Io, "the disk died")));
        // Dropping both halves closes the connection.
    });
    let mut client = SortClient::connect(addr, None).expect("connect");
    client.submit(SubmitSpec::default()).expect("submit");
    let mut completed = client.finish().expect("finish");
    let items: Vec<_> = completed.by_ref().take(100).collect();
    assert_eq!(items.len(), 4, "three tuples, one error, then the end");
    assert!(items[..3].iter().all(Result::is_ok));
    assert!(matches!(&items[3], Err(ClientError::Remote(e)) if e.code == ErrorCode::Io));
    assert!(completed.next().is_none(), "fused");
    assert!(completed.summary().is_none());
    peer.join().expect("peer");
}
