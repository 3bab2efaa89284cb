//! Benchmark the broker subsystem: K concurrent sorts through a
//! [`SortService`] whose global pool shrinks and grows the whole time, once
//! per arbitration policy. Emits per-policy throughput and p50/p99 response
//! times as a single JSON document on stdout (progress goes to stderr).
//!
//! ```text
//! cargo run --release -p masort-bench --bin exp_broker
//! ```
//!
//! Environment knobs: `MASORT_BROKER_JOBS` (default 24),
//! `MASORT_BROKER_TUPLES` (tuples per job, default 60000),
//! `MASORT_BROKER_POOL` (pages, default 48),
//! `MASORT_BROKER_WORKERS` (default 4).

use masort_bench::env_usize;
use masort_broker::prelude::*;
use masort_core::{SortConfig, Tuple};
use masort_simkit::Tally;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct PolicyResult {
    policy: &'static str,
    jobs: usize,
    wall_s: f64,
    response_ms: Tally,
    queued_ms: Tally,
    reallocations: u64,
    delay_samples: u64,
    rebalances: u64,
    resizes: u64,
    peak_live: usize,
}

fn run_policy(
    policy: impl ArbitrationPolicy + 'static,
    jobs: usize,
    tuples_per_job: usize,
    pool: usize,
    workers: usize,
) -> PolicyResult {
    let name = policy.name();
    eprintln!("exp_broker: running {jobs} sorts under `{name}` ...");

    // Synthesize every input before starting the clock (and the resizer):
    // the measurement should time the broker, not the data generator.
    let mut rng = StdRng::seed_from_u64(0xB20CE2);
    let inputs: Vec<Vec<Tuple>> = (0..jobs)
        .map(|_| {
            (0..tuples_per_job)
                .map(|_| Tuple::synthetic(rng.gen::<u64>(), 64))
                .collect()
        })
        .collect();

    let service = Arc::new(
        SortService::builder()
            .pool_pages(pool)
            .workers(workers)
            .policy(policy)
            .build(),
    );

    // The pool breathes between 1/3 and 4/3 of its nominal size for the
    // whole experiment — every live sort keeps being re-targeted.
    let stop = Arc::new(AtomicBool::new(false));
    let resizer = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let sizes = [pool, pool / 3, pool / 2, pool * 4 / 3, pool * 2 / 3];
            let mut i = 0;
            while !stop.load(Ordering::Relaxed) {
                service.resize_pool(sizes[i % sizes.len()].max(4));
                i += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            service.resize_pool(pool);
        })
    };

    let started = Instant::now();
    let tickets: Vec<SortTicket> = inputs
        .into_iter()
        .enumerate()
        .map(|(i, input)| {
            let cfg = SortConfig::default()
                .with_page_size(512)
                .with_tuple_size(64)
                .with_memory_pages(16);
            service
                .submit(
                    SortRequest::tuples(cfg, input)
                        .priority(1 + (i as u32 % 4))
                        .min_pages(2),
                )
                .expect("submit failed")
        })
        .collect();

    let mut response_ms = Tally::new();
    let mut queued_ms = Tally::new();
    let mut reallocations = 0u64;
    let mut delay_samples = 0u64;
    for ticket in tickets {
        // Read every result to its end, as a client would: the last merge
        // step runs as fast as its reader takes the pages.
        let mut output = ticket.wait().expect("sort failed");
        for tuple in output.by_ref() {
            tuple.expect("result ended early");
        }
        let report = output.finish();
        response_ms.record(report.stats.response_time() * 1e3);
        queued_ms.record(report.stats.queued_for * 1e3);
        reallocations += report.stats.reallocations;
        delay_samples += report.stats.delay_samples as u64;
    }
    let wall_s = started.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    resizer.join().expect("resizer panicked");
    let service = Arc::into_inner(service).expect("service still shared");
    let stats = service.shutdown();
    assert_eq!(stats.completed, jobs as u64, "{name}: jobs went missing");

    PolicyResult {
        policy: name,
        jobs,
        wall_s,
        response_ms,
        queued_ms,
        reallocations,
        delay_samples,
        rebalances: stats.rebalances,
        resizes: stats.resizes,
        peak_live: stats.peak_live,
    }
}

fn json_policy(r: &PolicyResult) -> String {
    format!(
        concat!(
            "    {{\n",
            "      \"policy\": \"{}\",\n",
            "      \"jobs\": {},\n",
            "      \"wall_s\": {:.3},\n",
            "      \"throughput_jobs_per_s\": {:.3},\n",
            "      \"response_ms\": {{ \"p50\": {:.2}, \"p99\": {:.2}, \"max\": {:.2} }},\n",
            "      \"queue_wait_ms\": {{ \"p50\": {:.2}, \"p99\": {:.2} }},\n",
            "      \"mid_flight_reallocations\": {},\n",
            "      \"delay_samples\": {},\n",
            "      \"rebalances\": {},\n",
            "      \"resizes\": {},\n",
            "      \"peak_live\": {}\n",
            "    }}"
        ),
        r.policy,
        r.jobs,
        r.wall_s,
        r.jobs as f64 / r.wall_s,
        r.response_ms.percentile(50.0),
        r.response_ms.percentile(99.0),
        r.response_ms.max(),
        r.queued_ms.percentile(50.0),
        r.queued_ms.percentile(99.0),
        r.reallocations,
        r.delay_samples,
        r.rebalances,
        r.resizes,
        r.peak_live,
    )
}

fn main() {
    let jobs = env_usize("MASORT_BROKER_JOBS", 24);
    let tuples = env_usize("MASORT_BROKER_TUPLES", 60_000);
    let pool = env_usize("MASORT_BROKER_POOL", 48);
    let workers = env_usize("MASORT_BROKER_WORKERS", 4);

    let results = [
        run_policy(EqualShare, jobs, tuples, pool, workers),
        run_policy(PriorityWeighted, jobs, tuples, pool, workers),
        run_policy(MinGuarantee, jobs, tuples, pool, workers),
    ];

    println!("{{");
    println!(
        "  \"experiment\": \"exp_broker\", \"pool_pages\": {pool}, \"workers\": {workers}, \
         \"tuples_per_job\": {tuples},"
    );
    println!("  \"policies\": [");
    let body: Vec<String> = results.iter().map(json_policy).collect();
    println!("{}", body.join(",\n"));
    println!("  ]");
    println!("}}");
}
