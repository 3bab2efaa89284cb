//! The last merge step of a brokered sort is parked in the ticket holder's
//! output and runs on the thread that reads it. What that promises:
//!
//! * **I1** — a consumer that keeps up never causes the result to be written;
//! * **I2** — a parked root follows its budget without anybody pulling: a
//!   shrink is answered before the call that made it returns;
//! * **I3** — nobody waits behind a slow consumer: a queued request that
//!   fits by memory runs beside it, one that needs the root's memory (or a
//!   shutdown) has the root settled, and the consumer still gets the whole
//!   result;
//! * **I4** — the job's report is taken from the final outcome, at release;
//!
//! and every way out of an output — dropped, cancelled, abandoned — leaves
//! no page held, no run behind, and the pool whole.
//!
//! Nothing here sleeps to make something happen: a stalled consumer is one
//! that does not pull, and every wait is on a state the service reports.
//! (This file is its own test binary so that the run files its process holds
//! open are all its own; every job spills, so every test takes `DISK` in
//! turn.)

use masort_broker::prelude::*;
use masort_core::{
    AlgorithmSpec, MergeAdaptation, MergePolicy, RunFormation, SortConfig, SortError, SortOrder,
    SortPhase, Tuple,
};
use masort_trace::{EventKind, Recorder, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Held by every test that runs a service, so "no run file is left open" is
/// a statement about that test's own jobs.
static DISK: Mutex<()> = Mutex::new(());

/// Never reached by a test that passes.
const NEVER: Duration = Duration::from_secs(600);

fn random_tuples(n: usize, seed: u64) -> Vec<Tuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Tuple::synthetic(rng.gen::<u64>() >> 8, 64))
        .collect()
}

/// 8 tuples per page.
fn cfg(mem: usize) -> SortConfig {
    SortConfig::default()
        .with_page_size(512)
        .with_tuple_size(64)
        .with_memory_pages(mem)
}

/// The oracle: the input's keys, `sort_unstable`d.
fn sorted_keys(input: &[Tuple]) -> Vec<u64> {
    let mut keys: Vec<u64> = input.iter().map(|t| t.key).collect();
    keys.sort_unstable();
    keys
}

fn keys(tuples: &[Tuple]) -> Vec<u64> {
    tuples.iter().map(|t| t.key).collect()
}

fn traced() -> Trace {
    Trace::enabled(Recorder::with_capacity(1 << 20))
}

/// How the job's root ended, from its own timeline:
/// `(pages_streamed, pages_settled, reason)`.
fn root_finished(report: &JobReport) -> (u64, u64, &'static str) {
    let events = report
        .trace
        .recorder()
        .expect("service built with a trace")
        .events_for(report.trace.span());
    let mut ends = events.iter().filter_map(|e| match e.kind {
        EventKind::RootFinished {
            pages_streamed,
            pages_settled,
            reason,
        } => Some((pages_streamed, pages_settled, reason)),
        _ => None,
    });
    let end = ends.next().expect("one root_finished event per job");
    assert!(ends.next().is_none(), "root finished twice");
    end
}

fn count(report: &JobReport, pick: impl Fn(&EventKind) -> bool) -> usize {
    let recorder = report.trace.recorder().expect("traced service");
    recorder
        .events_for(report.trace.span())
        .iter()
        .filter(|e| pick(&e.kind))
        .count()
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
        std::thread::yield_now();
    }
}

/// Read an output to its end, then take the job's report.
fn drain(mut output: JobOutput) -> (Vec<Tuple>, JobReport) {
    let sorted = output.by_ref().collect::<Result<_, _>>().unwrap();
    (sorted, output.finish())
}

/// The whole pool can be had again: a job whose minimum is every page of it
/// is admitted and sorts.
fn assert_pool_whole(svc: &SortService) {
    let input = random_tuples(200, 99);
    let sorted = svc
        .submit(SortRequest::tuples(cfg(4), input.clone()).min_pages(svc.pool_pages()))
        .unwrap()
        .wait()
        .unwrap()
        .into_sorted_vec()
        .unwrap();
    assert_eq!(keys(&sorted), sorted_keys(&input));
    assert_eq!(svc.stats().leaked_pages, 0);
}

#[test]
fn i1_a_consumer_that_keeps_up_gets_the_result_off_the_merge_for_every_algorithm() {
    let _disk = DISK.lock().unwrap_or_else(|e| e.into_inner());
    let mut input = random_tuples(3_000, 1);
    input[500..1_200].sort_unstable_by_key(|t| t.key);
    let mut cases = 0;
    let mut multi_step = 0;
    for spec in AlgorithmSpec::all(4) {
        let descending = cases % 4 >= 2;
        let order = match descending {
            false => SortOrder::ascending(),
            true => SortOrder::descending(),
        };
        let case = format!("{spec} descending={descending}");
        let svc = SortService::builder()
            .pool_pages(16)
            .workers(1)
            .trace(traced())
            .build();
        let request = SortRequest::tuples(
            cfg(10).with_algorithm(spec).with_order(order),
            input.clone(),
        );
        let (sorted, report) = drain(svc.submit(request).unwrap().wait().unwrap());
        let mut expected = sorted_keys(&input);
        if descending {
            expected.reverse();
        }
        assert_eq!(keys(&sorted), expected, "{case}");

        // Nothing sorted touched the store: the only runs ever created
        // are the formed ones and the outputs of preliminary steps.
        assert_eq!(
            root_finished(&report),
            (3_000 / 8, 0, "exhausted"),
            "{case}"
        );
        let outcome = &report.outcome;
        let created = count(&report, |k| matches!(k, EventKind::RunCreate { .. }));
        assert_eq!(
            created,
            outcome.runs_formed() + outcome.merge.splits,
            "{case}"
        );
        assert_eq!(
            created,
            count(&report, |k| matches!(k, EventKind::RunDelete { .. })),
            "{case}: a run outlived the job"
        );
        // I4: the books are those of the whole merge, root included.
        assert!(outcome.merge.tuples_output >= 3_000, "{case}");
        assert!(outcome.merge.steps_executed >= 1, "{case}");
        assert!(report.ran_for >= outcome.merge.duration(), "{case}");
        multi_step += usize::from(outcome.merge.steps_executed > 1);

        let stats = svc.shutdown();
        assert_eq!((stats.completed, stats.leaked_pages), (1, 0), "{case}");
        assert_eq!(run_files(), Vec::<PathBuf>::new(), "{case}");
        cases += 1;
    }
    assert_eq!(cases, 18);
    assert!(multi_step >= 6, "{multi_step} sorts had preliminary steps");
}

/// A job at its root whose consumer took one page and stopped.
struct Stalled {
    svc: SortService,
    recorder: Recorder,
    input: Vec<Tuple>,
    output: JobOutput,
    taken: Vec<Tuple>,
}

fn stalled(workers: usize, adaptation: MergeAdaptation) -> Stalled {
    let recorder = Recorder::with_capacity(1 << 20);
    let svc = SortService::builder()
        .pool_pages(32)
        .workers(workers)
        .suspension_wait(NEVER)
        .trace(Trace::enabled(recorder.clone()))
        .build();
    let input = random_tuples(4_000, 7);
    let spec = AlgorithmSpec::new(RunFormation::repl(4), MergePolicy::Optimized, adaptation);
    let mut output = svc
        .submit(SortRequest::tuples(cfg(32).with_algorithm(spec), input.clone()).min_pages(20))
        .unwrap()
        .wait()
        .unwrap();
    let taken = output.next_page().unwrap().expect("first page").tuples();
    Stalled {
        svc,
        recorder,
        input,
        output,
        taken,
    }
}

impl Stalled {
    /// Start pulling again; the result must be whole and in order.
    fn resume(self) -> (SortService, JobReport) {
        let Stalled {
            svc,
            input,
            output,
            mut taken,
            ..
        } = self;
        let (rest, report) = drain(output);
        taken.extend(rest);
        assert_eq!(keys(&taken), sorted_keys(&input));
        (svc, report)
    }
}

#[test]
fn i3_a_queued_request_is_not_kept_waiting_by_a_stalled_consumer() {
    let _disk = DISK.lock().unwrap_or_else(|e| e.into_inner());
    // Once with a minimum that fits beside the first job's, so the root only
    // shrinks; once with one that needs the first job's grant.
    for (workers, second_min, reason) in [(1, 1, "exhausted"), (2, 20, "queued-request")] {
        let first = stalled(workers, MergeAdaptation::DynamicSplitting);
        assert_eq!(first.svc.live_jobs(), 1, "the stalled job holds its grant");

        let input = random_tuples(1_000, 8);
        let second = first
            .svc
            .submit(SortRequest::tuples(cfg(8), input.clone()).min_pages(second_min))
            .unwrap();
        // Resolves, though the first consumer never pulls again.
        let (sorted, report) = drain(second.wait().unwrap());
        assert_eq!(keys(&sorted), sorted_keys(&input));
        assert!(report.queued_for < NEVER.as_secs_f64() / 2.0);

        // The first job is whole, and was written only if it had to be.
        let (svc, report) = first.resume();
        let (streamed, settled, why) = root_finished(&report);
        assert_eq!(why, reason, "workers={workers}");
        assert_eq!(streamed + settled, 4_000 / 8);
        if reason == "exhausted" {
            assert_eq!(settled, 0);
        } else {
            assert!(streamed >= 1 && settled >= 1);
            // I4: final books — the settle's writes are in them.
            assert!(report.outcome.merge.pages_written as u64 >= settled);
        }
        assert_eq!(report.outcome.merge.tuples_output, 4_000);
        let stats = svc.shutdown();
        assert_eq!((stats.completed, stats.leaked_pages), (2, 0));
    }
}

#[test]
fn i3_shutdown_does_not_wait_for_a_stalled_consumer_and_the_result_survives_it() {
    let _disk = DISK.lock().unwrap_or_else(|e| e.into_inner());
    let first = stalled(1, MergeAdaptation::Paging);
    let Stalled {
        svc,
        input,
        output,
        mut taken,
        ..
    } = first;
    let stats = svc.shutdown();
    assert_eq!((stats.completed, stats.leaked_pages), (1, 0));
    let (rest, report) = drain(output);
    taken.extend(rest);
    assert_eq!(keys(&taken), sorted_keys(&input));
    assert_eq!(root_finished(&report).2, "shutdown");
}

#[test]
fn i2_a_shrink_during_a_stall_is_honoured_and_sampled() {
    let _disk = DISK.lock().unwrap_or_else(|e| e.into_inner());
    for adaptation in [
        MergeAdaptation::DynamicSplitting,
        MergeAdaptation::Paging,
        MergeAdaptation::Suspension,
    ] {
        let first = stalled(1, adaptation);
        // What the job last reported as held.
        let held_at_most = |pages: usize| {
            let last = first.timeline().into_iter().rev().find_map(|k| match k {
                EventKind::BudgetHeld { held, .. } => Some(held),
                _ => None,
            });
            last.is_some_and(|held| held <= pages)
        };
        assert!(
            !held_at_most(5),
            "{adaptation:?}: the root merges more runs than that"
        );

        // The operator takes most of the pool away while the consumer is
        // not pulling: the root has answered by the time the resize returns,
        // not at the next pull.
        first.svc.resize_pool(5);
        assert!(
            held_at_most(5),
            "{adaptation:?}: the shrink went unanswered"
        );
        first.svc.resize_pool(32);

        let (svc, report) = first.resume();
        assert_eq!(root_finished(&report).2, "exhausted", "{adaptation:?}");
        let merge_delays: Vec<f64> = report
            .outcome
            .delays
            .iter()
            .filter(|d| d.phase == SortPhase::Merge)
            .map(|d| d.delay())
            .collect();
        assert!(!merge_delays.is_empty(), "{adaptation:?}: shrink unsampled");
        assert!(report.reallocations >= 2, "{adaptation:?}");
        // Answered by the resizing call, not at anybody's timeout.
        assert!(
            merge_delays.iter().all(|&d| d < 5.0),
            "{adaptation:?}: {merge_delays:?}"
        );
        svc.shutdown();
    }
}

impl Stalled {
    /// The kinds on the stalled job's timeline so far (it is job 0).
    fn timeline(&self) -> Vec<EventKind> {
        self.recorder
            .events_for(job_span(0))
            .into_iter()
            .map(|e| e.kind)
            .collect()
    }
}

#[test]
fn a_default_request_at_its_root_keeps_its_runs_in_one_unnamed_file() {
    let _disk = DISK.lock().unwrap_or_else(|e| e.into_inner());
    let svc = SortService::builder().pool_pages(16).workers(1).build();
    let input = random_tuples(3_000, 7);
    let output = svc
        .submit(SortRequest::tuples(cfg(10), input))
        .unwrap()
        .wait()
        .unwrap();
    // Parked at its root, the job's runs share one file that has no name.
    let files = run_files();
    assert_eq!(files.len(), 1, "{files:?}");
    let len = std::fs::metadata(&files[0]).unwrap().len();
    assert!(len > 0, "the job's runs hold no bytes");
    drop(output);
    assert_eq!(run_files(), Vec::<PathBuf>::new(), "run files remain open");
    assert_eq!(svc.shutdown().leaked_pages, 0);
}

#[test]
fn every_way_out_of_an_output_leaves_nothing_behind() {
    let _disk = DISK.lock().unwrap_or_else(|e| e.into_inner());
    let svc = SortService::builder()
        .pool_pages(24)
        .workers(2)
        .suspension_wait(NEVER)
        .trace(traced())
        .build();
    let input = random_tuples(4_000, 21);
    let submit = || {
        svc.submit(SortRequest::tuples(cfg(24), input.clone()))
            .unwrap()
    };
    let settled = |jobs: u64| {
        wait_until("the job to be released", || {
            let s = svc.stats();
            svc.live_jobs() == 0 && s.completed + s.cancelled == jobs
        });
        assert_eq!(run_files(), Vec::<PathBuf>::new(), "after {jobs} jobs");
        assert_eq!(svc.stats().leaked_pages, 0);
    };

    // Dropped unread.
    drop(submit().wait().unwrap());
    settled(1);

    // Dropped after a few pages (a LIMIT downstream).
    let mut output = submit().wait().unwrap();
    for _ in 0..3 {
        output.next_page().unwrap().expect("a page");
    }
    drop(output);
    settled(2);

    // Finished early: the report is there, and final for what ran.
    let mut output = submit().wait().unwrap();
    output.next_page().unwrap().expect("a page");
    let report = output.finish();
    assert_eq!(svc.live_jobs(), 0, "finish() waits for the release");
    assert_eq!(root_finished(&report).2, "cancelled");
    assert!(report.outcome.merge.tuples_output < 4_000);
    settled(3);

    // The ticket dropped unredeemed: nothing ran, and the job ends
    // cancelled. Dropped once redeemed, it leaves the output the job.
    drop(submit());
    settled(4);
    let ticket = submit();
    let output = ticket.wait().unwrap();
    drop(ticket);
    let (sorted, _) = drain(output);
    assert_eq!(keys(&sorted), sorted_keys(&input));
    settled(5);

    // Cancelled mid-egress, through the ticket: what was read is kept, then
    // the output ends `Cancelled`.
    let ticket = submit();
    let mut output = ticket.wait().unwrap();
    let mut got = output.next_page().unwrap().expect("a page").len();
    assert!(ticket.cancel(), "a root still running can be cancelled");
    let err = loop {
        match output.next_page() {
            Ok(Some(page)) => got += page.len(),
            Ok(None) => panic!("a cancelled result ended as if whole"),
            Err(e) => break e,
        }
    };
    assert!(matches!(err, SortError::Cancelled), "{err}");
    assert!(got < 4_000);
    assert!(matches!(output.next_page(), Ok(None)), "fused");
    drop(output);
    settled(6);
    // The unredeemed ticket and the cancel.
    assert_eq!(svc.stats().cancelled, 2);

    assert_pool_whole(&svc);
    let stats = svc.shutdown();
    assert_eq!((stats.failed, stats.leaked_pages), (0, 0));
}

#[test]
fn one_worker_and_two_tickets_redeemed_in_reverse_order_do_not_deadlock() {
    let _disk = DISK.lock().unwrap_or_else(|e| e.into_inner());
    let svc = SortService::builder()
        .pool_pages(16)
        .workers(1)
        .suspension_wait(NEVER)
        .build();
    let inputs = [random_tuples(2_000, 31), random_tuples(2_000, 32)];
    let first = svc
        .submit(SortRequest::tuples(cfg(8), inputs[0].clone()))
        .unwrap();
    let second = svc
        .submit(SortRequest::tuples(cfg(8), inputs[1].clone()))
        .unwrap();
    // The only worker reaches the first job's root and finds nobody there.
    let (sorted, _) = drain(second.wait().unwrap());
    assert_eq!(keys(&sorted), sorted_keys(&inputs[1]));
    let (sorted, _) = drain(first.wait().unwrap());
    assert_eq!(keys(&sorted), sorted_keys(&inputs[0]));
    let stats = svc.shutdown();
    assert_eq!((stats.completed, stats.leaked_pages), (2, 0));
}

/// An output read partly as tuples, then page by page, then as tuples again
/// loses nothing: `next_page` first hands over what the iterator left of
/// its page, and every page is a sealed page of sorted records.
#[test]
fn tuples_and_pages_can_be_read_from_one_output_in_turn() {
    let _disk = DISK.lock().unwrap_or_else(|e| e.into_inner());
    let svc = SortService::builder().pool_pages(16).workers(1).build();
    let input: Vec<Tuple> = random_tuples(3_000, 21)
        .into_iter()
        .enumerate()
        .map(|(i, t)| Tuple::new(t.key, vec![i as u8; i % 40]))
        .collect();
    let mut output = svc
        .submit(SortRequest::tuples(cfg(8), input.clone()))
        .unwrap()
        .wait()
        .unwrap();
    let mut got: Vec<Tuple> = output.by_ref().take(3).map(Result::unwrap).collect();
    let rest = output
        .next_page()
        .unwrap()
        .expect("the rest of the first page");
    assert_eq!(rest.len(), 5, "8 tuples a page, 3 taken");
    got.extend(rest.tuples());
    for _ in 0..4 {
        let page = output.next_page().unwrap().expect("a whole page");
        assert!(page.is_sorted());
        got.extend(page.tuples());
    }
    got.extend(output.by_ref().map(Result::unwrap));
    assert_eq!(keys(&got), sorted_keys(&input));
    // Payloads travel with their keys.
    let pairs = |v: &[Tuple]| {
        let mut p: Vec<(u64, usize)> = v.iter().map(|t| (t.key, t.payload.len())).collect();
        p.sort_unstable();
        p
    };
    assert_eq!(pairs(&got), pairs(&input));
    output.finish();
    assert_eq!(svc.shutdown().leaked_pages, 0);
}
