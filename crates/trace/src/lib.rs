//! # masort-trace — observability for the memory-adaptive sort
//!
//! The paper's entire argument is about *how a sort reacts over time* to
//! memory fluctuation. This crate makes that behaviour visible: a
//! [`Recorder`] of structured, timestamped [`TraceEvent`]s carried on a
//! per-job [`SpanId`] (so one sort's timeline is reconstructable across
//! sorting threads, the store and the broker), a [`MetricsRegistry`] of
//! named counters/gauges/fixed-bucket histograms, and three exporters —
//! JSON snapshots, Prometheus text exposition, and an ASCII timeline of
//! grant level vs time with adaptation markers.
//!
//! Everything is hand-rolled and dependency-free: the repo vendors its
//! whole dependency tree for offline builds, and observability must not be
//! the thing that breaks that.
//!
//! ## The `Trace` handle and the no-op fast path
//!
//! Instrumented code never talks to the recorder directly; it holds a
//! [`Trace`] — a clone-cheap handle that is either *disabled* (the default:
//! a `None`, one branch to skip, no clock read, no allocation) or *enabled*
//! (a shared [`Recorder`]). A sort built without tracing therefore behaves
//! **bit-identically** to one built before this crate existed; enabling the
//! recorder costs one short mutex hold per checkpoint-granularity event.
//!
//! A `Trace` is the recorder and nothing else. Counters live in a
//! [`MetricsRegistry`] owned by whoever keeps the books — the broker's sort
//! service owns one and is its only writer — so they count whether or not a
//! recorder is attached.
//!
//! ```
//! use masort_trace::{EventKind, Recorder, SpanId, Trace};
//!
//! let trace = Trace::enabled(Recorder::new()).with_span(SpanId(7));
//! trace.emit(EventKind::AdmissionGranted { pages: 16 });
//! let timeline = trace.recorder().unwrap().events_for(SpanId(7));
//! assert_eq!(timeline.len(), 1);
//!
//! let off = Trace::disabled();           // the default everywhere
//! off.emit(EventKind::AdmissionQueued);  // one branch, nothing recorded
//! assert!(!off.is_enabled());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod event;
pub mod export;
pub mod json;
pub mod metrics;
pub mod recorder;

pub use event::{EventKind, SpanId, TraceEvent};
pub use export::{
    metrics_from_json, metrics_to_json, metrics_to_prometheus, render_timeline, trace_from_json,
    trace_to_json,
};
pub use json::{JsonError, JsonValue};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricKind, MetricValue, MetricsRegistry,
    MetricsSnapshot,
};
pub use recorder::{Recorder, TraceSnapshot};

/// The handle instrumented code carries: either disabled (the default — a
/// single branch, zero cost on every hot path) or enabled (a shared
/// [`Recorder`] plus the [`SpanId`] events are emitted on).
///
/// `Trace` is clone-cheap (an `Option` over the recorder's `Arc` + a `u64`),
/// so it travels by value into environments, budgets and stores.
/// [`with_span`](Trace::with_span) rebinds a clone to one job's span without
/// touching the shared state.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    recorder: Option<Recorder>,
    span: SpanId,
}

impl Trace {
    /// The default, no-op handle. [`emit`](Trace::emit) on it is one branch:
    /// no clock read, no lock, no allocation — which is what guarantees a
    /// sort built without tracing behaves bit-identically to pre-trace code.
    pub fn disabled() -> Trace {
        Trace::default()
    }

    /// A live handle over `recorder`, on the [service span](SpanId::SERVICE)
    /// until re-bound with [`with_span`](Trace::with_span).
    pub fn enabled(recorder: Recorder) -> Trace {
        Trace {
            recorder: Some(recorder),
            span: SpanId::SERVICE,
        }
    }

    /// Whether events will actually be recorded.
    pub fn is_enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// A clone of this handle bound to `span`. All [`emit`](Trace::emit)
    /// calls through the clone carry that span.
    pub fn with_span(&self, span: SpanId) -> Trace {
        Trace {
            recorder: self.recorder.clone(),
            span,
        }
    }

    /// The span this handle emits on.
    pub fn span(&self) -> SpanId {
        self.span
    }

    /// Record `kind` on this handle's span. A no-op when disabled.
    pub fn emit(&self, kind: EventKind) {
        if let Some(recorder) = &self.recorder {
            recorder.record(self.span, kind);
        }
    }

    /// The shared recorder, when enabled.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing_and_shares_nothing() {
        let t = Trace::disabled();
        assert!(!t.is_enabled());
        t.emit(EventKind::AdmissionQueued);
        assert!(t.recorder().is_none());
        assert_eq!(t.span(), SpanId::SERVICE);
    }

    #[test]
    fn with_span_rebinds_a_clone_onto_one_timeline() {
        let t = Trace::enabled(Recorder::new());
        let a = t.with_span(SpanId(1));
        let b = t.with_span(SpanId(2));
        a.emit(EventKind::AdmissionGranted { pages: 3 });
        b.emit(EventKind::AdmissionGranted { pages: 5 });
        let rec = t.recorder().unwrap();
        assert_eq!(rec.events_for(SpanId(1)).len(), 1);
        assert_eq!(rec.events_for(SpanId(2)).len(), 1);
    }
}
