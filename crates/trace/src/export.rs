//! Exporters: JSON snapshots, Prometheus text exposition, and the ASCII
//! timeline — the paper's grant-level-vs-time figure, rendered live.

use crate::event::{EventKind, SpanId, TraceEvent};
use crate::json::JsonValue;
use crate::metrics::{HistogramSnapshot, MetricKind, MetricValue, MetricsSnapshot};
use crate::recorder::TraceSnapshot;

// ---------------------------------------------------------------------------
// JSON: metrics

/// Serialize a metrics snapshot as a JSON document.
///
/// Layout (via [`JsonValue::to_pretty_string`]) puts every metric's
/// `"name": "…"` on its own line, which is what the CI golden-name-set diff
/// greps for.
pub fn metrics_to_json(snapshot: &MetricsSnapshot) -> JsonValue {
    JsonValue::Object(vec![(
        "metrics".to_string(),
        JsonValue::Array(snapshot.metrics.iter().map(metric_to_json).collect()),
    )])
}

fn metric_to_json(m: &MetricValue) -> JsonValue {
    let mut fields = vec![("name".to_string(), JsonValue::String(m.name.clone()))];
    fields.push((
        "label".to_string(),
        match &m.label {
            Some(l) => JsonValue::String(l.clone()),
            None => JsonValue::Null,
        },
    ));
    match &m.kind {
        MetricKind::Counter(v) => {
            fields.push(("kind".to_string(), JsonValue::String("counter".into())));
            fields.push(("value".to_string(), JsonValue::Number(*v as f64)));
        }
        MetricKind::Gauge(v) => {
            fields.push(("kind".to_string(), JsonValue::String("gauge".into())));
            fields.push(("value".to_string(), JsonValue::Number(*v as f64)));
        }
        MetricKind::Histogram(h) => {
            fields.push(("kind".to_string(), JsonValue::String("histogram".into())));
            fields.push((
                "bounds".to_string(),
                JsonValue::Array(h.bounds.iter().map(|b| JsonValue::Number(*b)).collect()),
            ));
            fields.push((
                "counts".to_string(),
                JsonValue::Array(
                    h.counts
                        .iter()
                        .map(|c| JsonValue::Number(*c as f64))
                        .collect(),
                ),
            ));
            fields.push(("sum".to_string(), JsonValue::Number(h.sum)));
        }
    }
    JsonValue::Object(fields)
}

/// Rebuild a metrics snapshot from its JSON form. Metrics with unknown
/// kinds or missing fields are skipped rather than failing the document.
pub fn metrics_from_json(doc: &JsonValue) -> MetricsSnapshot {
    let mut out = MetricsSnapshot::default();
    let Some(items) = doc.get("metrics").and_then(JsonValue::as_array) else {
        return out;
    };
    for item in items {
        let Some(name) = item.get("name").and_then(JsonValue::as_str) else {
            continue;
        };
        let label = item
            .get("label")
            .and_then(JsonValue::as_str)
            .map(str::to_string);
        let kind = match item.get("kind").and_then(JsonValue::as_str) {
            Some("counter") => match item.get("value").and_then(JsonValue::as_f64) {
                Some(v) => MetricKind::Counter(v as u64),
                None => continue,
            },
            Some("gauge") => match item.get("value").and_then(JsonValue::as_f64) {
                Some(v) => MetricKind::Gauge(v as i64),
                None => continue,
            },
            Some("histogram") => {
                let nums = |key: &str| -> Option<Vec<f64>> {
                    item.get(key)?
                        .as_array()?
                        .iter()
                        .map(JsonValue::as_f64)
                        .collect()
                };
                let (Some(bounds), Some(counts)) = (nums("bounds"), nums("counts")) else {
                    continue;
                };
                MetricKind::Histogram(HistogramSnapshot {
                    bounds,
                    counts: counts.into_iter().map(|c| c as u64).collect(),
                    sum: item.get("sum").and_then(JsonValue::as_f64).unwrap_or(0.0),
                })
            }
            _ => continue,
        };
        out.metrics.push(MetricValue {
            name: name.to_string(),
            label,
            kind,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// JSON: traces

/// Serialize a trace snapshot as a JSON document.
pub fn trace_to_json(snapshot: &TraceSnapshot) -> JsonValue {
    JsonValue::Object(vec![
        (
            "dropped".to_string(),
            JsonValue::Number(snapshot.dropped as f64),
        ),
        (
            "events".to_string(),
            JsonValue::Array(
                snapshot
                    .events
                    .iter()
                    .map(|e| {
                        let mut fields = vec![
                            ("ts".to_string(), JsonValue::Number(e.ts)),
                            ("span".to_string(), JsonValue::Number(e.span.0 as f64)),
                            (
                                "event".to_string(),
                                JsonValue::String(e.kind.name().to_string()),
                            ),
                        ];
                        for (k, v) in e.kind.fields() {
                            fields.push((k.to_string(), v));
                        }
                        JsonValue::Object(fields)
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Rebuild a trace snapshot from its JSON form. Events with unknown names
/// or missing fields are skipped rather than failing the document.
pub fn trace_from_json(doc: &JsonValue) -> TraceSnapshot {
    let mut out = TraceSnapshot {
        events: Vec::new(),
        dropped: doc
            .get("dropped")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0) as u64,
    };
    let Some(items) = doc.get("events").and_then(JsonValue::as_array) else {
        return out;
    };
    for item in items {
        let (Some(ts), Some(span), Some(name)) = (
            item.get("ts").and_then(JsonValue::as_f64),
            item.get("span").and_then(JsonValue::as_f64),
            item.get("event").and_then(JsonValue::as_str),
        ) else {
            continue;
        };
        let Some(kind) = EventKind::from_fields(name, |k| item.get(k).cloned()) else {
            continue;
        };
        out.events.push(TraceEvent {
            ts,
            span: SpanId(span as u64),
            kind,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Prometheus text exposition

/// Render a metrics snapshot in the Prometheus text exposition format.
/// Labels become `{scope="…"}`; histograms expand into `_bucket`/`_sum`/
/// `_count` series with cumulative `le` buckets.
pub fn metrics_to_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut last_name = "";
    for m in &snapshot.metrics {
        if m.name != last_name {
            let kind = match &m.kind {
                MetricKind::Counter(_) => "counter",
                MetricKind::Gauge(_) => "gauge",
                MetricKind::Histogram(_) => "histogram",
            };
            out.push_str(&format!("# TYPE {} {kind}\n", m.name));
            last_name = &m.name;
        }
        let scope = |extra: Option<(&str, String)>| -> String {
            let mut parts = Vec::new();
            if let Some(l) = &m.label {
                parts.push(format!("scope=\"{}\"", l.replace('"', "'")));
            }
            if let Some((k, v)) = extra {
                parts.push(format!("{k}=\"{v}\""));
            }
            if parts.is_empty() {
                String::new()
            } else {
                format!("{{{}}}", parts.join(","))
            }
        };
        match &m.kind {
            MetricKind::Counter(v) => out.push_str(&format!("{}{} {v}\n", m.name, scope(None))),
            MetricKind::Gauge(v) => out.push_str(&format!("{}{} {v}\n", m.name, scope(None))),
            MetricKind::Histogram(h) => {
                let mut cumulative = 0u64;
                for (i, count) in h.counts.iter().enumerate() {
                    cumulative += count;
                    let le = match h.bounds.get(i) {
                        Some(b) => format!("{b}"),
                        None => "+Inf".to_string(),
                    };
                    out.push_str(&format!(
                        "{}_bucket{} {cumulative}\n",
                        m.name,
                        scope(Some(("le", le)))
                    ));
                }
                out.push_str(&format!("{}_sum{} {}\n", m.name, scope(None), h.sum));
                out.push_str(&format!("{}_count{} {cumulative}\n", m.name, scope(None)));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// ASCII timeline

/// Render one job's timeline as ASCII art: page-grant level over time (from
/// `budget_target` events) with adaptation markers (`S`uspend, `R`esume,
/// sp`L`it, `C`ombine, s`W`itch) on a rail underneath, then — for a brokered
/// job whose grant has gone back — one line saying whether its result was
/// written to disk and why, followed by the raw event list. The paper's
/// Figure-style view, on a terminal.
pub fn render_timeline(events: &[TraceEvent]) -> String {
    const WIDTH: usize = 64;
    const HEIGHT: usize = 10;
    if events.is_empty() {
        return "(no events)\n".to_string();
    }
    let t0 = events.first().map(|e| e.ts).unwrap_or(0.0);
    let t1 = events.last().map(|e| e.ts).unwrap_or(0.0);
    let dt = (t1 - t0).max(1e-9);
    let col =
        |ts: f64| -> usize { (((ts - t0) / dt) * (WIDTH - 1) as f64).round() as usize % WIDTH };

    // Grant level per column, carried forward between target changes.
    let mut levels = vec![0usize; WIDTH];
    let mut level = 0usize;
    let mut max_level = 1usize;
    let mut next = 0usize;
    for e in events {
        // The admission grant sets the first level; an uncontended job may
        // never see a target change after it.
        let target = match e.kind {
            EventKind::BudgetTarget { target, .. } => target,
            EventKind::AdmissionGranted { pages } => pages,
            _ => continue,
        };
        let c = col(e.ts);
        while next <= c.min(WIDTH - 1) {
            levels[next] = level;
            next += 1;
        }
        level = target;
        max_level = max_level.max(target);
    }
    while next < WIDTH {
        levels[next] = level;
        next += 1;
    }

    let mut out = String::new();
    out.push_str(&format!("pages (max {max_level}) over {:.3}s\n", t1 - t0));
    for row in (1..=HEIGHT).rev() {
        let threshold = (row as f64 / HEIGHT as f64) * max_level as f64;
        let label = (threshold.ceil()) as usize;
        out.push_str(&format!("{label:>5} |"));
        for &l in &levels {
            out.push(if l as f64 >= threshold { '█' } else { ' ' });
        }
        out.push('\n');
    }
    out.push_str(&format!("      +{}\n", "-".repeat(WIDTH)));

    // Adaptation rail: one marker per column, last writer wins.
    let mut rail = vec![' '; WIDTH];
    for e in events {
        let marker = match e.kind {
            EventKind::Suspend { .. } => 'S',
            EventKind::Resume { .. } => 'R',
            EventKind::Split { .. } => 'L',
            EventKind::Combine => 'C',
            EventKind::Switch => 'W',
            _ => continue,
        };
        rail[col(e.ts)] = marker;
    }
    if rail.iter().any(|&c| c != ' ') {
        out.push_str(&format!("       {}\n", rail.iter().collect::<String>()));
        out.push_str("       S=suspend R=resume L=split C=combine W=switch\n");
    }

    for e in events {
        if let EventKind::RootFinished {
            pages_streamed,
            pages_settled,
            reason,
        } = e.kind
        {
            out.push_str(&format!(
                "result: {pages_streamed} pages streamed off the last merge step, \
                 {pages_settled} settled into a stored run ({reason})\n"
            ));
        }
    }

    out.push('\n');
    for e in events {
        out.push_str(&format!("{:>10.6}s  {}", e.ts - t0, e.kind.name()));
        let fields = e.kind.fields();
        if !fields.is_empty() {
            let rendered: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{k}={}", v.to_compact_string()))
                .collect();
            out.push_str(&format!("  {}", rendered.join(" ")));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::recorder::Recorder;

    fn sample_metrics() -> MetricsSnapshot {
        let reg = MetricsRegistry::new();
        reg.counter("pages_granted_total", None).add(21);
        reg.counter("pages_granted_total", Some("acme")).add(12);
        reg.gauge("io_queue_depth", None).set(-3);
        let h = reg.histogram("job_response_seconds", None, &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(5.0);
        reg.snapshot()
    }

    #[test]
    fn metrics_round_trip_through_json() {
        let snap = sample_metrics();
        let doc = metrics_to_json(&snap);
        let text = doc.to_pretty_string();
        assert!(text.contains("\"name\": \"pages_granted_total\""));
        let parsed = JsonValue::parse(&text).unwrap();
        assert_eq!(metrics_from_json(&parsed), snap);
    }

    #[test]
    fn traces_round_trip_through_json() {
        let rec = Recorder::new();
        rec.record(SpanId(3), EventKind::AdmissionGranted { pages: 8 });
        rec.record(SpanId(3), EventKind::BudgetTarget { prev: 8, target: 4 });
        rec.record(SpanId(3), EventKind::Suspend { need: 6, target: 4 });
        rec.record(SpanId(3), EventKind::Resume { waited: 0.125 });
        let snap = rec.snapshot();
        let text = trace_to_json(&snap).to_pretty_string();
        let parsed = trace_from_json(&JsonValue::parse(&text).unwrap());
        assert_eq!(parsed, snap);
    }

    #[test]
    fn prometheus_exposition_has_cumulative_buckets() {
        let text = metrics_to_prometheus(&sample_metrics());
        assert!(text.contains("# TYPE pages_granted_total counter"));
        assert!(text.contains("pages_granted_total 21"));
        assert!(text.contains("pages_granted_total{scope=\"acme\"} 12"));
        assert!(text.contains("io_queue_depth -3"));
        assert!(text.contains("job_response_seconds_bucket{le=\"0.1\"} 1"));
        assert!(text.contains("job_response_seconds_bucket{le=\"1\"} 2"));
        assert!(text.contains("job_response_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("job_response_seconds_count 3"));
    }

    #[test]
    fn timeline_renders_levels_and_markers() {
        let events = vec![
            TraceEvent {
                ts: 0.0,
                span: SpanId(1),
                kind: EventKind::BudgetTarget { prev: 0, target: 8 },
            },
            TraceEvent {
                ts: 0.5,
                span: SpanId(1),
                kind: EventKind::Suspend { need: 8, target: 2 },
            },
            TraceEvent {
                ts: 0.7,
                span: SpanId(1),
                kind: EventKind::Resume { waited: 0.2 },
            },
            TraceEvent {
                ts: 1.0,
                span: SpanId(1),
                kind: EventKind::BudgetTarget { prev: 8, target: 2 },
            },
            TraceEvent {
                ts: 1.1,
                span: SpanId(1),
                kind: EventKind::RootFinished {
                    pages_streamed: 12,
                    pages_settled: 30,
                    reason: "queued-request",
                },
            },
        ];
        let art = render_timeline(&events);
        assert!(art.contains('█'));
        assert!(art.contains('S'));
        assert!(art.contains('R'));
        assert!(art.contains("budget_target"));
        assert!(art.contains("result: 12 pages streamed"), "{art}");
        assert!(
            art.contains("30 settled into a stored run (queued-request)"),
            "{art}"
        );
        assert_eq!(render_timeline(&[]), "(no events)\n");
    }
}
