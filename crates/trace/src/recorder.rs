//! The event recorder: a bounded, shared buffer of [`TraceEvent`]s.

use crate::event::{EventKind, SpanId, TraceEvent};
use masort_check::sync::{Mutex, MutexGuard};
use std::sync::Arc;
use std::time::Instant;

/// Default capacity of the event buffer (events, not bytes).
pub(crate) const DEFAULT_CAPACITY: usize = 65_536;

struct Buf {
    events: Vec<TraceEvent>,
    dropped: u64,
}

struct Inner {
    epoch: Instant,
    cap: usize,
    buf: Mutex<Buf>,
}

/// A lock-light recorder of structured, timestamped trace events.
///
/// Cloning a `Recorder` clones a handle to one shared buffer, so worker
/// threads, the store, and the broker all append to the same timeline.
/// Events are appended under one short mutex hold — no I/O, no allocation
/// beyond the buffer's amortised growth — which is cheap because the sort
/// emits at *checkpoint* granularity (phase transitions, budget moves, merge
/// steps), never per tuple. When the buffer reaches capacity, further events
/// are counted in [`dropped`](TraceSnapshot::dropped) rather than growing
/// without bound.
///
/// Timestamps are seconds since the recorder's creation, taken only when an
/// event is actually recorded — a disabled [`Trace`](crate::Trace) handle
/// never reads the clock at all.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let buf = self.lock();
        f.debug_struct("Recorder")
            .field("events", &buf.events.len())
            .field("dropped", &buf.dropped)
            .field("capacity", &self.inner.cap)
            .finish()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder with the default capacity, 65 536 events.
    pub fn new() -> Recorder {
        Recorder::with_capacity(DEFAULT_CAPACITY)
    }

    /// A recorder that keeps at most `cap` events (at least 1).
    pub fn with_capacity(cap: usize) -> Recorder {
        Recorder {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                cap: cap.max(1),
                buf: Mutex::new(Buf {
                    events: Vec::new(),
                    dropped: 0,
                }),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Buf> {
        self.inner.buf.lock()
    }

    /// Seconds since this recorder was created.
    pub(crate) fn now(&self) -> f64 {
        self.inner.epoch.elapsed().as_secs_f64()
    }

    /// Record `kind` on `span`, stamped with the current time.
    pub(crate) fn record(&self, span: SpanId, kind: EventKind) {
        // Stamp under the lock: append order then agrees with timestamp
        // order, so a drained timeline is non-decreasing even when one
        // span's events come from several threads.
        let mut buf = self.lock();
        let ts = self.now();
        if buf.events.len() >= self.inner.cap {
            buf.dropped += 1;
            return;
        }
        buf.events.push(TraceEvent { ts, span, kind });
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// Whether no events have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.lock().events.is_empty()
    }

    /// Copy out the whole timeline, in recording order.
    pub fn snapshot(&self) -> TraceSnapshot {
        let buf = self.lock();
        TraceSnapshot {
            events: buf.events.clone(),
            dropped: buf.dropped,
        }
    }

    /// Copy out one job's timeline, in recording order.
    pub fn events_for(&self, span: SpanId) -> Vec<TraceEvent> {
        self.lock()
            .events
            .iter()
            .filter(|e| e.span == span)
            .cloned()
            .collect()
    }
}

/// A point-in-time copy of a recorder's buffer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSnapshot {
    /// Every buffered event, in the order it was recorded.
    pub events: Vec<TraceEvent>,
    /// Events discarded because the buffer was full.
    pub dropped: u64,
}

impl TraceSnapshot {
    /// Restrict the snapshot to one job's span.
    pub fn for_span(&self, span: SpanId) -> TraceSnapshot {
        TraceSnapshot {
            events: self
                .events
                .iter()
                .filter(|e| e.span == span)
                .cloned()
                .collect(),
            dropped: self.dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_nondecreasing_timestamps() {
        let rec = Recorder::new();
        rec.record(SpanId(1), EventKind::AdmissionQueued);
        rec.record(SpanId(2), EventKind::AdmissionQueued);
        rec.record(SpanId(1), EventKind::AdmissionGranted { pages: 4 });
        let snap = rec.snapshot();
        assert_eq!(snap.events.len(), 3);
        assert_eq!(snap.dropped, 0);
        assert!(snap.events.windows(2).all(|w| w[0].ts <= w[1].ts));
        let mine = rec.events_for(SpanId(1));
        assert_eq!(mine.len(), 2);
        assert_eq!(mine[0].kind, EventKind::AdmissionQueued);
        assert_eq!(mine[1].kind, EventKind::AdmissionGranted { pages: 4 });
    }

    #[test]
    fn capacity_overflow_counts_drops_instead_of_growing() {
        let rec = Recorder::with_capacity(2);
        for _ in 0..5 {
            rec.record(SpanId(7), EventKind::Switch);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.dropped, 3);
    }
}
