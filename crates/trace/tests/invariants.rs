//! Invariant tests for the observability layer: counters under contention,
//! histogram edge exactness, and per-span happens-before event ordering.

use masort_trace::{EventKind, MetricsRegistry, Recorder, SpanId, Trace};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

/// Counters must be monotonic and lose no increments under a multi-thread
/// hammer (the same shape as the broker's stress tests: many threads, one
/// shared handle, exact totals afterwards).
#[test]
fn counters_survive_a_multi_thread_hammer() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 20_000;
    let reg = MetricsRegistry::new();
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|i| {
            let reg = reg.clone();
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                // Half the threads re-fetch the handle each time (hammering
                // the registry lock), half increment a cached handle
                // (hammering the atomic).
                barrier.wait();
                if i % 2 == 0 {
                    let c = reg.counter("hammer_total", None);
                    let mut last = c.get();
                    for _ in 0..PER_THREAD {
                        c.inc();
                        let now = c.get();
                        assert!(now > last, "counter moved backwards");
                        last = now;
                    }
                } else {
                    for _ in 0..PER_THREAD {
                        reg.counter("hammer_total", None).inc();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        reg.snapshot().counter("hammer_total", None),
        Some(THREADS as u64 * PER_THREAD),
        "increments were lost under contention"
    );
}

/// Histogram observations concurrent with snapshots must never lose counts,
/// and bucket boundaries are exact: a value equal to a bound lands in that
/// bound's bucket, the next representable value above lands in the next.
#[test]
fn histogram_bucket_edges_are_exact() {
    let reg = MetricsRegistry::new();
    let h = reg.histogram("edges", None, &[0.0, 1.0, 10.0]);
    h.observe(-5.0); // below everything: first bucket (le 0.0)
    h.observe(0.0);
    h.observe(f64::EPSILON); // just above 0.0
    h.observe(1.0);
    h.observe(1.0 + f64::EPSILON);
    h.observe(10.0);
    h.observe(10.0000000001);
    h.observe(f64::MAX);
    let snap = h.snapshot();
    assert_eq!(snap.bounds, vec![0.0, 1.0, 10.0]);
    assert_eq!(snap.counts, vec![2, 2, 2, 2]);
    assert_eq!(snap.count(), 8);
}

/// Hammer one histogram from many threads: the total count must be exact
/// and every observation must appear in exactly one bucket.
#[test]
fn histogram_counts_are_exact_under_contention() {
    const THREADS: usize = 6;
    const PER_THREAD: usize = 10_000;
    let reg = MetricsRegistry::new();
    let h = reg.histogram("contended", None, &[0.25, 0.5, 0.75]);
    let handles: Vec<_> = (0..THREADS)
        .map(|i| {
            let h = h.clone();
            thread::spawn(move || {
                for j in 0..PER_THREAD {
                    // Deterministic spread across all four buckets.
                    h.observe((i * PER_THREAD + j) as f64 / (THREADS * PER_THREAD) as f64);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    let snap = h.snapshot();
    assert_eq!(snap.count(), (THREADS * PER_THREAD) as u64);
    assert!(snap.counts.iter().all(|&c| c > 0), "a bucket went unused");
}

/// Trace events on one span must be happens-before consistent across
/// threads: when thread A emits E1 and *then* hands off to thread B (a real
/// synchronisation edge, like the sorter's worker → store handoff), B's
/// event must appear after A's in the recorder, with a non-decreasing
/// timestamp.
#[test]
fn span_ordering_is_happens_before_consistent_across_threads() {
    const ROUNDS: u64 = 500;
    let trace = Trace::enabled(Recorder::new()).with_span(SpanId(42));
    let turn = Arc::new(AtomicU64::new(0));

    let worker = {
        let trace = trace.clone();
        let turn = Arc::clone(&turn);
        thread::spawn(move || {
            for round in 0..ROUNDS {
                while turn.load(Ordering::Acquire) != round * 2 {
                    std::hint::spin_loop();
                }
                trace.emit(EventKind::MergeStepStart {
                    fan_in: round as usize,
                });
                turn.store(round * 2 + 1, Ordering::Release);
            }
        })
    };
    let store = {
        let trace = trace.clone();
        let turn = Arc::clone(&turn);
        thread::spawn(move || {
            for round in 0..ROUNDS {
                while turn.load(Ordering::Acquire) != round * 2 + 1 {
                    std::hint::spin_loop();
                }
                trace.emit(EventKind::MergeStepEnd { tuples_out: round });
                turn.store(round * 2 + 2, Ordering::Release);
            }
        })
    };
    worker.join().unwrap();
    store.join().unwrap();

    let events = trace.recorder().unwrap().events_for(SpanId(42));
    assert_eq!(events.len(), (ROUNDS * 2) as usize);
    for (i, pair) in events.chunks(2).enumerate() {
        assert_eq!(
            pair[0].kind,
            EventKind::MergeStepStart { fan_in: i },
            "start/end interleaved across rounds"
        );
        assert_eq!(
            pair[1].kind,
            EventKind::MergeStepEnd {
                tuples_out: i as u64
            }
        );
    }
    assert!(
        events.windows(2).all(|w| w[0].ts <= w[1].ts),
        "timestamps ran backwards within one span"
    );
}

/// Many spans recorded concurrently stay untangled: each span's own events
/// keep their per-thread program order.
#[test]
fn concurrent_spans_keep_their_own_program_order() {
    const SPANS: u64 = 8;
    const EVENTS: usize = 2_000;
    let base = Trace::enabled(Recorder::with_capacity(SPANS as usize * EVENTS));
    let handles: Vec<_> = (0..SPANS)
        .map(|s| {
            let t = base.with_span(SpanId(s + 1));
            thread::spawn(move || {
                for i in 0..EVENTS {
                    t.emit(EventKind::MergeStepStart { fan_in: i });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snapshot = base.recorder().unwrap().snapshot();
    assert_eq!(snapshot.events.len(), SPANS as usize * EVENTS);
    assert_eq!(snapshot.dropped, 0);
    for s in 0..SPANS {
        let mine = snapshot.for_span(SpanId(s + 1));
        let fans: Vec<usize> = mine
            .events
            .iter()
            .map(|e| match e.kind {
                EventKind::MergeStepStart { fan_in } => fan_in,
                ref other => panic!("alien event {other:?} on span {}", s + 1),
            })
            .collect();
        assert_eq!(fans, (0..EVENTS).collect::<Vec<_>>());
    }
}
