//! The metric tables: every name the harness reports, with its unit, its
//! direction and (end to end) its regression bound. `BENCHMARK.json` at the
//! repository root lists the same names; a test keeps the two in step.

/// An end-to-end metric: something a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen before a
    /// change counts as a regression. Sized from the spread between identical
    /// runs on the sandbox (see README, "Bounds"), not from what one would
    /// like to detect.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "sort_mb_s",
        unit: "MB/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "job_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s_per_gb",
        unit: "s/GB",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "io_amp",
        unit: "B/B",
        higher_is_better: false,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// Per-layer metrics: `(name, unit, higher is better)`. The prefix is the
/// layer, named after the module it measures.
pub const PER_LAYER: [(&str, &str, bool); 71] = [
    ("gensort.decode_s", "s", false),
    ("gensort.decode_pages", "count", false),
    ("gensort.encode_s", "s", false),
    ("gensort.encode_tuples", "count", false),
    ("run_formation.split_s", "s", false),
    ("run_formation.self_s", "s", false),
    ("run_formation.runs", "count", false),
    ("run_formation.avg_run_pages", "pages", true),
    ("run_formation.max_run_tuples", "count", true),
    ("run_formation.natural_runs", "count", true),
    ("run_formation.natural_tuples", "count", true),
    ("run_formation.shrink_events", "count", false),
    ("store.append_s", "s", false),
    ("store.append_calls", "count", false),
    ("store.append_pages", "pages", false),
    ("store.read_s", "s", false),
    ("store.read_calls", "count", false),
    ("store.read_pages", "pages", false),
    ("store.flush_s", "s", false),
    ("store.delete_s", "s", false),
    ("store.write_stall_s", "s", false),
    ("store.space_amp_peak", "B/B", false),
    ("store.io_amp_pages", "pages/page", false),
    ("merge.merge_s", "s", false),
    ("merge.self_s", "s", false),
    ("merge.steps", "count", false),
    ("merge.splits", "count", false),
    ("merge.combines", "count", false),
    ("merge.switches", "count", false),
    ("merge.pages_read", "pages", false),
    ("merge.pages_written", "pages", false),
    ("merge.extra_paging_reads", "pages", false),
    ("merge.refetched_pages", "pages", false),
    ("merge.io_stall_s", "s", false),
    ("merge.suspended_s", "s", false),
    ("merge.sync_block_loads", "count", false),
    ("merge.prefetch_block_joins", "count", true),
    ("budget.shrink_requests", "count", false),
    ("budget.delay_samples", "count", false),
    ("budget.split_delay_mean_ms", "ms", false),
    ("budget.split_delay_max_ms", "ms", false),
    ("budget.merge_delay_mean_ms", "ms", false),
    ("budget.merge_delay_max_ms", "ms", false),
    ("stream.drain_s", "s", false),
    ("stream.self_s", "s", false),
    ("stream.tuples", "count", false),
    ("broker.queue_wait_p50_ms", "ms", false),
    ("broker.queue_wait_p95_ms", "ms", false),
    ("broker.ran_for_p50_ms", "ms", false),
    ("broker.initial_grant_mean_pages", "pages", true),
    ("broker.reallocations", "count", false),
    ("broker.rebalances", "count", false),
    ("broker.delay_samples", "count", false),
    ("broker.total_delay_ms", "ms", false),
    ("broker.leaked_pages", "pages", false),
    ("server.connect_accept_p50_ms", "ms", false),
    ("server.ingest_p50_ms", "ms", false),
    ("server.first_tuple_p50_ms", "ms", false),
    ("server.egress_p50_ms", "ms", false),
    ("server.overhead_p50_ms", "ms", false),
    ("server.overhead_p95_ms", "ms", false),
    ("server.job_p95_ms", "ms", false),
    ("server.job_tail_pct", "%", true),
    ("server.codec_encode_mb_s", "MB/s", true),
    ("server.codec_decode_mb_s", "MB/s", true),
    ("floor.memcpy_mb_s", "MB/s", true),
    ("floor.file_rw_mb_s", "MB/s", true),
    ("floor.key_sort_mb_s", "MB/s", true),
    ("floor.share", "ratio", true),
    ("bench.trace_overhead_pct", "%", false),
    ("bench.unattributed_s", "s", false),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workload::Workload;

    /// `BENCHMARK.json` is what the benchmark driver reads; the tables above
    /// are what the harness prints. They must not drift apart.
    #[test]
    fn benchmark_json_lists_exactly_the_metrics_and_workloads_the_harness_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let field = |item: &Json, key: &str| -> String {
            item.get(key)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let direction = |higher: bool| if higher { "higher" } else { "lower" };

        let listed: Vec<_> = doc
            .get("end_to_end")
            .expect("end_to_end")
            .elements()
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    bound,
                )
            })
            .collect();
        let reported: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                let better = direction(m.higher_is_better).to_string();
                (m.name.to_string(), m.unit.to_string(), better, m.bound)
            })
            .collect();
        assert_eq!(listed, reported);

        let listed: Vec<_> = doc
            .get("per_layer")
            .expect("per_layer")
            .elements()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let reported: Vec<_> = PER_LAYER
            .iter()
            .map(|(name, unit, higher)| {
                (
                    name.to_string(),
                    unit.to_string(),
                    direction(*higher).to_string(),
                )
            })
            .collect();
        assert_eq!(listed, reported);

        let listed: Vec<_> = doc
            .get("workloads")
            .expect("workloads")
            .elements()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        let reported: Vec<_> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(listed, reported);
    }
}
