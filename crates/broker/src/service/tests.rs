//! Unit tests of the sort service.

use super::*;
use crate::ticket::{JobOutput, JobReport};
use masort_core::verify::assert_sorted_permutation;
use masort_core::{ChannelSource, Page};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_tuples(n: usize, seed: u64) -> Vec<Tuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Tuple::synthetic(rng.gen::<u64>(), 64))
        .collect()
}

fn small_cfg(mem: usize) -> SortConfig {
    SortConfig::default()
        .with_page_size(512)
        .with_tuple_size(64)
        .with_memory_pages(mem)
}

/// An input whose disk dies at the first read.
struct FailingSource;

impl InputSource for FailingSource {
    fn next_page(&mut self) -> SortResult<Option<Page>> {
        Err(SortError::Io(std::io::Error::other(
            "the input's disk died",
        )))
    }
}

/// Read an output to its end, then take the job's report.
fn drain(mut output: JobOutput) -> (Vec<Tuple>, JobReport) {
    let sorted = output.by_ref().collect::<SortResult<_>>().unwrap();
    (sorted, output.finish())
}

#[test]
fn single_job_round_trip() {
    let svc = SortService::builder().pool_pages(16).workers(2).build();
    let input = random_tuples(2_000, 1);
    let ticket = svc
        .submit(SortRequest::tuples(small_cfg(8), input.clone()))
        .unwrap();
    let (sorted, report) = drain(ticket.wait().unwrap());
    assert!(report.initial_grant >= 1);
    assert_sorted_permutation(&input, &sorted);
    let stats = svc.shutdown();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0);
}

#[test]
fn temp_disk_storage_round_trip() {
    let svc = SortService::builder().pool_pages(16).workers(1).build();
    let input = random_tuples(1_200, 2);
    let output = svc
        .submit(SortRequest::tuples(small_cfg(16), input.clone()).spill_to_temp_dir())
        .unwrap()
        .wait()
        .unwrap();
    let (sorted, report) = drain(output);
    assert_sorted_permutation(&input, &sorted);
    // The report is final — every tuple went through the root — and the
    // result came off the merge: 16 pages merge these runs in one step,
    // and that step wrote nothing.
    assert!(report.outcome.runs_formed() > 1);
    let merge = &report.outcome.merge;
    assert_eq!(merge.tuples_output, 1_200);
    assert_eq!((merge.steps_executed, merge.pages_written), (1, 0));
    assert_eq!(merge.pages_read, report.outcome.split.pages_written);
}

#[test]
fn impossible_request_is_rejected_not_queued() {
    let svc = SortService::builder().pool_pages(8).workers(1).build();
    let err = svc
        .submit(SortRequest::tuples(small_cfg(4), Vec::new()).min_pages(9))
        .unwrap_err();
    assert!(matches!(
        err,
        SortError::BudgetStarved {
            needed: 9,
            granted: 8
        }
    ));
    assert_eq!(svc.stats().rejected, 1);
}

#[test]
fn invalid_config_is_rejected_at_submit() {
    let svc = SortService::builder().pool_pages(8).workers(1).build();
    let mut cfg = small_cfg(4);
    cfg.page_size = 0;
    let err = svc
        .submit(SortRequest::tuples(cfg, Vec::new()))
        .unwrap_err();
    assert!(matches!(err, SortError::InvalidConfig(_)));
    // A zero tuple size must not panic while paginating the request; it
    // is rejected by validation at submit like every other bad config.
    let mut cfg = small_cfg(4);
    cfg.tuple_size = 0;
    let err = svc
        .submit(SortRequest::tuples(cfg, vec![Tuple::synthetic(1, 64)]))
        .unwrap_err();
    assert!(matches!(err, SortError::InvalidConfig(_)));
}

#[test]
fn pool_shrink_fails_queued_requests_that_no_longer_fit() {
    // One worker, and a long-running job holding the pool, so the
    // big-minimum request is still queued when the pool shrinks.
    let svc = SortService::builder().pool_pages(32).workers(1).build();
    let blocker = svc
        .submit(SortRequest::tuples(small_cfg(8), random_tuples(30_000, 3)).min_pages(2))
        .unwrap();
    let doomed = svc
        .submit(SortRequest::tuples(small_cfg(8), Vec::new()).min_pages(24))
        .unwrap();
    svc.resize_pool(12);
    match doomed.wait() {
        Err(SortError::BudgetStarved {
            needed: 24,
            granted: 12,
        }) => {}
        other => panic!("expected BudgetStarved, got {other:?}"),
    }
    blocker.wait().unwrap();
    let stats = svc.shutdown();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn shutdown_drains_queued_work() {
    let svc = SortService::builder().pool_pages(16).workers(2).build();
    let inputs: Vec<Vec<Tuple>> = (0..6).map(|i| random_tuples(1_500, 40 + i)).collect();
    let tickets: Vec<SortTicket> = inputs
        .iter()
        .map(|input| {
            svc.submit(SortRequest::tuples(small_cfg(6), input.clone()))
                .unwrap()
        })
        .collect();
    let stats = svc.shutdown();
    assert_eq!(stats.completed, 6);
    for (ticket, input) in tickets.into_iter().zip(&inputs) {
        let sorted = ticket.wait().unwrap().into_sorted_vec().unwrap();
        assert_sorted_permutation(input, &sorted);
    }
}

#[test]
fn submit_after_shutdown_is_refused() {
    let svc = SortService::builder().pool_pages(16).workers(1).build();
    svc.begin_shutdown();
    let err = svc
        .submit(SortRequest::tuples(small_cfg(4), Vec::new()))
        .unwrap_err();
    assert!(matches!(err, SortError::InvalidConfig(_)));
}

#[test]
fn panicking_job_fails_its_ticket_and_releases_its_pages() {
    struct PanickingSource;
    impl InputSource for PanickingSource {
        fn next_page(&mut self) -> SortResult<Option<Page>> {
            panic!("user input source exploded");
        }
    }
    let svc = SortService::builder().pool_pages(8).workers(1).build();
    let err = svc
        .submit(SortRequest::from_source(small_cfg(4), PanickingSource).min_pages(8))
        .unwrap()
        .wait()
        .unwrap_err();
    match err {
        SortError::Io(e) => assert!(e.to_string().contains("panicked"), "{e}"),
        other => panic!("expected an Io(panicked) error, got {other:?}"),
    }
    // The dead job's pages were released and its worker survived: a job
    // needing the whole pool can still be admitted and completes.
    let input = random_tuples(800, 9);
    let sorted = svc
        .submit(SortRequest::tuples(small_cfg(4), input.clone()).min_pages(8))
        .unwrap()
        .wait()
        .unwrap()
        .into_sorted_vec()
        .unwrap();
    assert_sorted_permutation(&input, &sorted);
    let stats = svc.shutdown();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn concurrent_spilled_sorts_round_trip_on_two_workers() {
    // Four spilling jobs, two workers, a pool of three grants: two run
    // side by side on their own temporary directories while two queue.
    let svc = SortService::builder().pool_pages(24).workers(2).build();
    let inputs: Vec<Vec<Tuple>> = (0..4).map(|i| random_tuples(2_000, 90 + i)).collect();
    let tickets: Vec<SortTicket> = inputs
        .iter()
        .map(|input| {
            svc.submit(SortRequest::tuples(small_cfg(8), input.clone()).spill_to_temp_dir())
                .unwrap()
        })
        .collect();
    for (ticket, input) in tickets.into_iter().zip(&inputs) {
        let sorted = ticket.wait().unwrap().into_sorted_vec().unwrap();
        assert_sorted_permutation(input, &sorted);
    }
    let stats = svc.shutdown();
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.failed, 0);
}

#[test]
fn cancelling_a_queued_job_removes_it_without_reserving_anything() {
    // One worker, and a job holding the whole pool's minimum, so the
    // second submission is deterministically still queued when cancelled.
    let svc = SortService::builder().pool_pages(8).workers(1).build();
    let blocker = svc
        .submit(SortRequest::tuples(small_cfg(4), random_tuples(20_000, 11)).min_pages(8))
        .unwrap();
    let queued = svc
        .submit(
            SortRequest::tuples(small_cfg(4), random_tuples(1_000, 12))
                .min_pages(8)
                .tenant("acme"),
        )
        .unwrap();
    assert!(queued.cancel(), "job was pending; cancel must take effect");
    match queued.wait() {
        Err(SortError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    blocker.wait().unwrap();
    let metrics = svc.metrics();
    let stats = svc.shutdown();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0, "a cancel is not a failure");
    assert_eq!(stats.leaked_pages, 0);
    assert_eq!(metrics.counter(CANCELLED, Some("acme")), Some(1));
    assert_eq!(metrics.counter(SUBMITTED, Some("acme")), Some(1));
}

#[test]
fn cancelling_a_running_job_aborts_it_and_releases_its_pages() {
    let svc = SortService::builder().pool_pages(8).workers(1).build();
    // Large enough that the sort is still mid-flight when the cancel
    // lands right after admission.
    let ticket = svc
        .submit(
            SortRequest::tuples(small_cfg(8), random_tuples(60_000, 13))
                .min_pages(8)
                .tenant("acme"),
        )
        .unwrap();
    while svc.live_jobs() == 0 {
        std::thread::sleep(Duration::from_micros(200));
    }
    assert!(ticket.cancel());
    match ticket.wait() {
        Err(SortError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // The dead job's pages came back: a sort needing the whole pool runs.
    let input = random_tuples(800, 14);
    let sorted = svc
        .submit(SortRequest::tuples(small_cfg(4), input.clone()).min_pages(8))
        .unwrap()
        .wait()
        .unwrap()
        .into_sorted_vec()
        .unwrap();
    assert_sorted_permutation(&input, &sorted);
    let metrics = svc.metrics();
    let stats = svc.shutdown();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.leaked_pages, 0, "cancelled job leaked pages");
    assert_eq!(metrics.counter(CANCELLED, Some("acme")), Some(1));
}

#[test]
fn tenant_accounting_follows_jobs_through_their_lifecycle() {
    let svc = SortService::builder().pool_pages(16).workers(2).build();
    let mut tickets = Vec::new();
    for i in 0..3 {
        tickets.push(
            svc.submit(SortRequest::tuples(small_cfg(4), random_tuples(600, 20 + i)).tenant("a"))
                .unwrap(),
        );
    }
    let failing = svc
        .submit(SortRequest::from_source(small_cfg(4), FailingSource).tenant("b"))
        .unwrap();
    // An untagged job appears only in the service-wide totals.
    tickets.push(
        svc.submit(SortRequest::tuples(small_cfg(4), random_tuples(600, 30)))
            .unwrap(),
    );
    // Each job's books are closed by the time its report is out.
    for t in tickets {
        drain(t.wait().unwrap());
    }
    failing.wait().unwrap_err();
    let metrics = svc.metrics();
    let stats = svc.shutdown();
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.failed, 1);
    let tenants: Vec<_> = metrics
        .metrics
        .iter()
        .filter(|m| m.name == SUBMITTED)
        .filter_map(|m| m.label.as_deref())
        .collect();
    assert_eq!(tenants, ["a", "b"]);
    let of = |tenant| [SUBMITTED, COMPLETED, FAILED].map(|n| metrics.counter(n, Some(tenant)));
    assert_eq!(of("a"), [Some(3), Some(3), None]);
    assert_eq!(of("b"), [Some(1), None, Some(1)]);
    assert_eq!(of("c"), [None; 3]);
    assert_eq!(stats.leaked_pages, 0);
}

#[test]
fn registry_counts_every_terminal_outcome() {
    let svc = SortService::builder().pool_pages(8).workers(1).build();
    let request = |min_pages| SortRequest::tuples(small_cfg(4), Vec::new()).min_pages(min_pages);
    // Rejected at submit: a minimum above the whole pool.
    let starved = |e| match e {
        SortError::BudgetStarved { needed, granted } => (needed, granted),
        other => panic!("expected BudgetStarved, got {other:?}"),
    };
    assert_eq!(starved(svc.submit(request(9)).unwrap_err()), (9, 8));
    // Admitted with the pool's whole minimum and parked on its input, so
    // every later request queues behind it.
    let (sink, source) = ChannelSource::bounded(1);
    let running = svc
        .submit(
            SortRequest::from_source(small_cfg(4), source)
                .min_pages(8)
                .tenant("acme"),
        )
        .unwrap();
    while svc.live_jobs() == 0 {
        std::thread::sleep(Duration::from_micros(200));
    }
    // Dropped by a pool shrink under its minimum.
    let dropped = svc.submit(request(8)).unwrap();
    svc.resize_pool(7);
    svc.resize_pool(8);
    assert_eq!(starved(dropped.wait().unwrap_err()), (8, 7));
    // Cancelled while queued, then while running.
    let queued = svc.submit(request(8).tenant("acme")).unwrap();
    assert!(queued.cancel());
    assert!(matches!(queued.wait(), Err(SortError::Cancelled)));
    assert!(running.cancel());
    drop(sink);
    assert!(matches!(running.wait(), Err(SortError::Cancelled)));
    // Failed, then completed.
    let failing = SortRequest::from_source(small_cfg(4), FailingSource);
    svc.submit(failing).unwrap().wait().unwrap_err();
    let input = random_tuples(800, 16);
    let output = svc.submit(SortRequest::tuples(small_cfg(4), input.clone()));
    let (sorted, _) = drain(output.unwrap().wait().unwrap());
    assert_sorted_permutation(&input, &sorted);

    let metrics = svc.metrics();
    let counter = |name, label| metrics.counter(name, label).unwrap_or(0);
    let outcomes = [SUBMITTED, REJECTED, CANCELLED, FAILED, COMPLETED];
    assert_eq!(outcomes.map(|n| counter(n, None)), [5, 2, 2, 1, 1]);
    assert_eq!(outcomes.map(|n| counter(n, Some("acme"))), [2, 0, 2, 0, 0]);
    // `ServiceStats` reads exactly those counters.
    let s = svc.stats();
    let read = [s.submitted, s.rejected, s.cancelled, s.failed, s.completed];
    assert_eq!(read, outcomes.map(|n| counter(n, None)));
    let totals = [LEAKED_PAGES, REALLOCATIONS, DELAY_SAMPLES].map(|n| counter(n, None));
    let read = [s.leaked_pages, s.total_reallocations, s.total_delay_samples];
    assert_eq!((read, s.leaked_pages, s.peak_live), (totals, 0, 1));
}

#[test]
fn all_policies_run_the_same_workload() {
    // Mixed priorities through the broker's one arbitration rule.
    let svc = SortService::builder().pool_pages(20).workers(3).build();
    let inputs: Vec<Vec<Tuple>> = (0..5).map(|i| random_tuples(2_000, 70 + i)).collect();
    let tickets: Vec<SortTicket> = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            svc.submit(
                SortRequest::tuples(small_cfg(10), input.clone())
                    .priority(1 + (i as u32 % 3))
                    .min_pages(2),
            )
            .unwrap()
        })
        .collect();
    for (ticket, input) in tickets.into_iter().zip(&inputs) {
        let (sorted, report) = drain(ticket.wait().unwrap());
        assert!(report.initial_grant >= 2, "minimum not honoured");
        assert_sorted_permutation(input, &sorted);
    }
}
