//! The metrics registry: named counters, gauges and fixed-bucket histograms.

use masort_check::sync::{Mutex, MutexGuard};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
///
/// The handle is a clone-cheap `Arc` over one atomic; increments are
/// `fetch_add` with relaxed ordering, so no increment is ever lost and the
/// value never decreases, no matter how many threads share the handle.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (queue depths, live jobs).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistInner {
    /// Inclusive upper bounds of the finite buckets, strictly increasing.
    bounds: Vec<f64>,
    /// One count per finite bucket, plus a final overflow (+Inf) bucket.
    counts: Vec<AtomicU64>,
    /// Sum of observed values, stored as `f64` bits for atomic updates.
    sum_bits: AtomicU64,
}

/// A fixed-bucket histogram with Prometheus `le` semantics: an observation
/// `v` lands in the first bucket whose upper bound satisfies `v <= bound`
/// — so a value exactly on a boundary counts in that boundary's bucket, and
/// anything above the last bound lands in the implicit `+Inf` bucket.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistInner>);

impl Histogram {
    fn with_bounds(bounds: &[f64]) -> Histogram {
        let mut bounds = bounds.to_vec();
        bounds.retain(|b| b.is_finite());
        bounds.sort_by(|a, b| a.partial_cmp(b).expect("finite bucket bounds"));
        bounds.dedup();
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistInner {
            bounds,
            counts,
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }))
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .0
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.0.bounds.len());
        self.0.counts[idx].fetch_add(1, Ordering::Relaxed);
        // Fold the value into the sum with a CAS loop over the f64 bits.
        let mut cur = self.0.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.0.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Copy out bounds, per-bucket counts and the running sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.0.bounds.clone(),
            counts: self
                .0
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

/// Point-in-time copy of one histogram.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds of the finite buckets.
    pub bounds: Vec<f64>,
    /// Counts per finite bucket, plus the final `+Inf` bucket.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) as the upper bound of the
    /// bucket containing that rank; observations beyond the last finite
    /// bound report the last finite bound. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return Some(match self.bounds.get(i) {
                    Some(&b) => b,
                    None => *self.bounds.last().unwrap_or(&f64::INFINITY),
                });
            }
        }
        self.bounds.last().copied()
    }

    /// Mean of the observed values. `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let total = self.count();
        (total > 0).then(|| self.sum / total as f64)
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// One metric's identity: a name plus an optional label (a job id, a tenant
/// name) — so the same metric aggregates per-job, per-tenant and
/// service-wide simply by registering it under different labels.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    name: String,
    label: Option<String>,
}

/// A registry of named metrics shared across threads.
///
/// The registry's own mutex is held only to *register* (get-or-create) a
/// metric; the returned [`Counter`]/[`Gauge`]/[`Histogram`] handles update
/// lock-free atomics, so hot paths register once and update forever after
/// without touching the registry. A registry is independent of any
/// [`Trace`](crate::Trace): its owner (the broker's sort service) writes it
/// whether or not a recorder is attached.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<BTreeMap<Key, Metric>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<Key, Metric>> {
        self.inner.lock()
    }

    /// Get or create the counter `name` (optionally labelled).
    ///
    /// # Panics
    /// If `name`+`label` is already registered as a different metric kind.
    pub fn counter(&self, name: &str, label: Option<&str>) -> Counter {
        let key = Key {
            name: name.to_string(),
            label: label.map(str::to_string),
        };
        let mut map = self.lock();
        match map
            .entry(key)
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric `{name}` already registered as {other:?}, wanted a counter"),
        }
    }

    /// Get or create the gauge `name` (optionally labelled).
    ///
    /// # Panics
    /// If `name`+`label` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str, label: Option<&str>) -> Gauge {
        let key = Key {
            name: name.to_string(),
            label: label.map(str::to_string),
        };
        let mut map = self.lock();
        match map
            .entry(key)
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric `{name}` already registered as {other:?}, wanted a gauge"),
        }
    }

    /// Get or create the histogram `name` (optionally labelled) with the
    /// given inclusive bucket upper bounds. Bounds are only consulted on
    /// first registration; later calls return the existing histogram.
    ///
    /// # Panics
    /// If `name`+`label` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str, label: Option<&str>, bounds: &[f64]) -> Histogram {
        let key = Key {
            name: name.to_string(),
            label: label.map(str::to_string),
        };
        let mut map = self.lock();
        match map
            .entry(key)
            .or_insert_with(|| Metric::Histogram(Histogram::with_bounds(bounds)))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric `{name}` already registered as {other:?}, wanted a histogram"),
        }
    }

    /// Copy out every registered metric, sorted by name then label.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.lock();
        MetricsSnapshot {
            metrics: map
                .iter()
                .map(|(key, metric)| MetricValue {
                    name: key.name.clone(),
                    label: key.label.clone(),
                    kind: match metric {
                        Metric::Counter(c) => MetricKind::Counter(c.get()),
                        Metric::Gauge(g) => MetricKind::Gauge(g.get()),
                        Metric::Histogram(h) => MetricKind::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

/// Point-in-time copy of a whole registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Every registered metric, sorted by name then label.
    pub metrics: Vec<MetricValue>,
}

impl MetricsSnapshot {
    /// Find a metric by name and label.
    pub fn get(&self, name: &str, label: Option<&str>) -> Option<&MetricValue> {
        self.metrics
            .iter()
            .find(|m| m.name == name && m.label.as_deref() == label)
    }

    /// Counter value by name and label, `None` if absent or not a counter.
    pub fn counter(&self, name: &str, label: Option<&str>) -> Option<u64> {
        match self.get(name, label)?.kind {
            MetricKind::Counter(v) => Some(v),
            _ => None,
        }
    }
}

/// One metric in a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricValue {
    /// Metric name (e.g. `pages_granted_total`).
    pub name: String,
    /// Aggregation label: a job id or tenant name; `None` = service-wide.
    pub label: Option<String>,
    /// The value, by metric kind.
    pub kind: MetricKind,
}

/// A snapshotted metric value.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter(u64),
    /// Up/down gauge.
    Gauge(i64),
    /// Fixed-bucket histogram.
    Histogram(HistogramSnapshot),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_get_or_create_returns_the_same_metric() {
        let reg = MetricsRegistry::new();
        reg.counter("jobs_total", None).add(3);
        reg.counter("jobs_total", None).add(4);
        assert_eq!(reg.snapshot().counter("jobs_total", None), Some(7));
        reg.counter("jobs_total", Some("acme")).inc();
        assert_eq!(reg.snapshot().counter("jobs_total", Some("acme")), Some(1));
        assert_eq!(reg.snapshot().counter("jobs_total", None), Some(7));
    }

    #[test]
    fn gauge_moves_both_ways() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("io_queue_depth", None);
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_edges_are_inclusive_upper_bounds() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("latency", None, &[1.0, 2.0, 4.0]);
        // Exactly on each boundary: must land in that boundary's bucket.
        h.observe(1.0);
        h.observe(2.0);
        h.observe(4.0);
        // Just past a boundary: next bucket. Beyond the last bound: +Inf.
        h.observe(1.0000001);
        h.observe(4.0000001);
        let snap = h.snapshot();
        assert_eq!(snap.bounds, vec![1.0, 2.0, 4.0]);
        assert_eq!(snap.counts, vec![1, 2, 1, 1]);
        assert_eq!(snap.count(), 5);
        assert!((snap.sum - 12.0000002).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_walk_the_buckets() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("resp", None, &[0.1, 0.5, 1.0, 5.0]);
        for _ in 0..90 {
            h.observe(0.05);
        }
        for _ in 0..9 {
            h.observe(0.4);
        }
        h.observe(3.0);
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.5), Some(0.1));
        assert_eq!(snap.quantile(0.95), Some(0.5));
        assert_eq!(snap.quantile(0.999), Some(5.0));
        assert!(snap.mean().unwrap() > 0.0);
        let empty = reg.histogram("empty", None, &[1.0]).snapshot();
        assert_eq!(empty.quantile(0.5), None);
        assert_eq!(empty.mean(), None);
    }
}
