//! The file workloads: gensort file → run formation → `FileStore` spill →
//! merge → sorted gensort file, on one thread, under a budget far below the
//! input size.

use crate::floor::{self, Floors};
use crate::gen::{self, Digest, Shape, RECORD_BYTES};
use crate::probe::{Probe, ProbedSource, ProbedStore, Wobble};
use crate::stats::median;
use crate::trace::{Span, SpanTree};
use crate::workload::{Layers, Meter, Prepared, Rep, Scale};
use masort_core::{
    gensort_order, DelaySample, FileStore, GensortFileSource, GensortWriter, MemoryBudget, RealEnv,
    SortConfig, SortJob, SortOutcome, SortPhase, Tuple, Unsplit,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Tuples moved from the sorted stream to the output writer between two
/// clock reads of a traced drain.
const DRAIN_BATCH: usize = 1024;

pub struct FileWorkload {
    cfg: SortConfig,
    input: PathBuf,
    output: PathBuf,
    runs_dir: PathBuf,
    digest: Digest,
    /// `(low pages, period in pages)` when the budget wobbles.
    wobble: Option<(usize, usize)>,
}

/// What the timed region hands to the untimed bookkeeping after it.
struct Sorted {
    outcome: SortOutcome,
    write_stall_s: f64,
    /// When the sort returned and draining began, on the rep's clock.
    sorted_at: f64,
    end: f64,
    records_out: usize,
}

impl FileWorkload {
    pub fn set_up(
        scale: &Scale,
        seed: u64,
        work: &Path,
        shape: Shape,
        wobble: bool,
    ) -> Result<(Prepared, Floors), String> {
        // The configuration a user of `SortJob::builder()` gets, with only
        // the geometry set: whichever code paths are the defaults are the
        // ones measured.
        let cfg = SortJob::builder()
            .build()
            .map_err(|e| format!("default sort job: {e}"))?
            .config()
            .clone()
            .with_page_size(scale.file_page_bytes)
            .with_tuple_size(RECORD_BYTES + std::mem::size_of::<u64>())
            .with_memory_pages(scale.file_mem_pages)
            .with_order(gensort_order());

        let input = work.join("input.gensort");
        let (digest, keys) = gen::write_input(&input, scale.file_records, seed, shape)
            .map_err(|e| format!("write {}: {e}", input.display()))?;
        let floors = floor::measure(&keys, &work.join("floor.bin"))
            .map_err(|e| format!("floor rows: {e}"))?;
        let runs_dir = work.join("runs");
        std::fs::create_dir_all(&runs_dir).map_err(|e| format!("create runs dir: {e}"))?;

        let workload = FileWorkload {
            cfg,
            input,
            output: work.join("output.gensort"),
            runs_dir,
            digest,
            wobble: wobble.then_some((scale.wobble_low_pages, scale.wobble_period_pages)),
        };
        Ok((Prepared::File(workload), floors))
    }

    pub fn rep(&mut self, traced: bool) -> Result<Rep, String> {
        // One origin for the wrappers' spans, the sort's phase timestamps and
        // the budget's delay samples.
        let clock = Instant::now();
        let budget = MemoryBudget::new(self.cfg.memory_pages);
        let wobble = self.wobble.map(|(lo, period)| Wobble {
            budget: budget.clone(),
            hi: self.cfg.memory_pages,
            lo,
            period,
        });
        let probe = Probe::new(clock, traced, wobble);

        let meter = Meter::start()?;
        let sorted = self.sort_to_file(&probe, clock, &budget);
        let used = meter.stop()?;

        let mut rep = Rep {
            traced,
            used,
            attempted: 1,
            ..Rep::default()
        };
        let sorted = match sorted {
            Ok(sorted) => sorted,
            Err(e) => {
                rep.failures.push(format!("sort failed: {e}"));
                return Ok(rep);
            }
        };
        if let Err(e) = self.verify(&sorted) {
            rep.failures.push(e);
            return Ok(rep);
        }
        rep.sorted_bytes = (self.digest.records * RECORD_BYTES) as f64;
        rep.latencies_ms.push(used.wall_s * 1e3);
        let tree = traced.then(|| phase_tree(probe.take_tree(), &sorted));
        rep.layers = self.layers(&sorted, &probe, tree.as_ref());
        rep.tree = tree;
        Ok(rep)
    }

    /// The timed region: open the input, sort it, write the output file.
    fn sort_to_file(
        &self,
        probe: &Probe,
        clock: Instant,
        budget: &MemoryBudget,
    ) -> Result<Sorted, String> {
        let err = |e: &dyn std::fmt::Display| e.to_string();
        let source = GensortFileSource::open(&self.input, self.cfg.tuples_per_page())
            .map_err(|e| err(&e))?;
        let store = FileStore::new(&self.runs_dir).map_err(|e| err(&e))?;
        let completion = SortJob::builder()
            .config(self.cfg.clone())
            .input(Unsplit(ProbedSource::new(source, probe.clone())))
            .store(ProbedStore::new(store, probe.clone()))
            .env(RealEnv::starting_at(clock))
            .budget(budget.clone())
            .build()
            .map_err(|e| err(&e))?
            .run()
            .map_err(|e| err(&e))?;
        probe.stop_wobble();
        let sorted_at = probe.now();
        let outcome = completion.outcome.clone();
        let write_stall_s = completion.store.inner.write_stall_seconds();

        // Drain in batches so a traced rep reads the clock once per batch,
        // not once per tuple; an untraced rep runs the very same loop.
        let mut writer = GensortWriter::create(&self.output).map_err(|e| err(&e))?;
        let mut stream = completion.into_stream();
        let mut batch: Vec<Tuple> = Vec::with_capacity(DRAIN_BATCH);
        loop {
            batch.clear();
            for tuple in stream.by_ref().take(DRAIN_BATCH) {
                batch.push(tuple.map_err(|e| err(&e))?);
            }
            if batch.is_empty() {
                break;
            }
            probe
                .span("gensort.encode", || {
                    batch.iter().try_for_each(|t| writer.write_tuple(t))
                })
                .map_err(|e| err(&e))?;
        }
        drop(stream);
        let records_out = probe
            .span("gensort.encode", || writer.finish())
            .map_err(|e| err(&e))?;
        Ok(Sorted {
            outcome,
            write_stall_s,
            sorted_at,
            end: probe.now(),
            records_out,
        })
    }

    /// Outside the timed region: the output is the input, sorted, and the
    /// sort left no run file behind.
    fn verify(&self, sorted: &Sorted) -> Result<(), String> {
        if sorted.records_out != self.digest.records {
            return Err(format!(
                "wrote {} records, input has {}",
                sorted.records_out, self.digest.records
            ));
        }
        gen::verify_output(&self.output, &self.digest)?;
        let orphans = std::fs::read_dir(&self.runs_dir)
            .map_err(|e| format!("list runs dir: {e}"))?
            .count();
        if orphans != 0 {
            return Err(format!("{orphans} run file(s) left behind"));
        }
        Ok(())
    }

    fn layers(&self, sorted: &Sorted, probe: &Probe, tree: Option<&SpanTree>) -> Layers {
        let Sorted { outcome, .. } = sorted;
        let (split, merge) = (&outcome.split, &outcome.merge);
        let counts = probe.counts();
        let input_pages = split.pages_read.max(1) as f64;
        let input_bytes = (self.digest.records * RECORD_BYTES) as f64;
        let delays_ms = |phase: SortPhase| -> Vec<f64> {
            outcome
                .delays
                .iter()
                .filter(|d| d.phase == phase)
                .map(|d: &DelaySample| d.delay() * 1e3)
                .collect()
        };
        let mean = |v: &[f64]| v.iter().fold(0.0, |sum, x| sum + x) / v.len().max(1) as f64;
        let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
        let (split_delays, merge_delays) =
            (delays_ms(SortPhase::Split), delays_ms(SortPhase::Merge));

        let mut layers = Layers::from([
            ("gensort.decode_pages", counts.decode_pages as f64),
            ("gensort.encode_tuples", sorted.records_out as f64),
            ("run_formation.split_s", split.duration()),
            ("run_formation.runs", split.run_count() as f64),
            ("run_formation.avg_run_pages", split.avg_run_pages()),
            (
                "run_formation.max_run_tuples",
                split.max_run_tuples() as f64,
            ),
            ("run_formation.natural_runs", split.natural_runs as f64),
            ("run_formation.natural_tuples", split.natural_tuples as f64),
            ("run_formation.shrink_events", split.shrink_events as f64),
            ("store.append_calls", counts.append_calls as f64),
            ("store.append_pages", counts.append_pages as f64),
            ("store.read_calls", counts.read_calls as f64),
            ("store.read_pages", counts.read_pages as f64),
            ("store.write_stall_s", sorted.write_stall_s),
            (
                "store.space_amp_peak",
                (counts.peak_live_pages * self.cfg.page_size) as f64 / input_bytes,
            ),
            (
                "store.io_amp_pages",
                (split.pages_written + merge.pages_read + merge.pages_written) as f64 / input_pages,
            ),
            ("merge.merge_s", merge.duration()),
            ("merge.steps", merge.steps_executed as f64),
            ("merge.splits", merge.splits as f64),
            ("merge.combines", merge.combines as f64),
            ("merge.switches", merge.switches as f64),
            ("merge.pages_read", merge.pages_read as f64),
            ("merge.pages_written", merge.pages_written as f64),
            ("merge.extra_paging_reads", merge.extra_paging_reads as f64),
            ("merge.refetched_pages", merge.refetched_pages as f64),
            ("merge.io_stall_s", merge.io_stall),
            ("merge.suspended_s", merge.suspended_time),
            ("merge.sync_block_loads", merge.sync_block_loads as f64),
            (
                "merge.prefetch_block_joins",
                merge.prefetch_block_joins as f64,
            ),
            ("budget.shrink_requests", counts.shrink_requests as f64),
            ("budget.delay_samples", outcome.delays.len() as f64),
            ("budget.split_delay_mean_ms", mean(&split_delays)),
            ("budget.split_delay_max_ms", max(&split_delays)),
            ("budget.merge_delay_mean_ms", mean(&merge_delays)),
            ("budget.merge_delay_max_ms", max(&merge_delays)),
            ("stream.drain_s", sorted.end - sorted.sorted_at),
            ("stream.tuples", sorted.records_out as f64),
        ]);
        if let Some(tree) = tree {
            let own = tree.self_time_by_name();
            let own = |name: &str| own.get(name).copied().unwrap_or(0.0);
            layers.extend([
                ("gensort.decode_s", own("gensort.decode")),
                ("gensort.encode_s", own("gensort.encode")),
                ("run_formation.self_s", own("split")),
                ("store.append_s", own("store.append")),
                ("store.read_s", own("store.read")),
                ("store.flush_s", own("store.flush")),
                ("store.delete_s", own("store.delete")),
                ("merge.self_s", own("merge")),
                ("stream.self_s", own("drain")),
                // Whatever no layer's span covers: opening the input,
                // building the job, the gaps between phases.
                ("bench.unattributed_s", own("job")),
            ]);
        }
        layers
    }

    /// Run-level per-layer numbers: the median of each over the traced reps
    /// (or over all reps when none was traced).
    pub fn finish(self, reps: &[Rep]) -> Layers {
        let any_traced = reps.iter().any(|r| r.traced && r.succeeded());
        let chosen: Vec<&Rep> = reps
            .iter()
            .filter(|r| r.succeeded() && r.traced == any_traced)
            .collect();
        let mut layers = Layers::new();
        for name in chosen.iter().flat_map(|r| r.layers.keys()) {
            let samples: Vec<f64> = chosen
                .iter()
                .filter_map(|r| r.layers.get(name).copied())
                .collect();
            layers.insert(name, median(&samples).expect("name came from a rep"));
        }
        layers
    }
}

/// Put the phase spans over the wrappers' leaf spans: `job` is the whole
/// timed region, `split` and `merge` come from the sort's own statistics
/// (same clock), `drain` is what the harness did after the sort returned.
fn phase_tree(mut tree: SpanTree, sorted: &Sorted) -> SpanTree {
    let (split, merge) = (&sorted.outcome.split, &sorted.outcome.merge);
    let phase = |name, start, end, parent| Span {
        name,
        start,
        end,
        parent,
        job: 0,
    };
    let job = tree.push(phase("job", 0.0, sorted.end, None));
    let phases = [
        tree.push(phase(
            "split",
            split.started_at,
            split.finished_at,
            Some(job),
        )),
        tree.push(phase(
            "merge",
            merge.started_at,
            merge.finished_at,
            Some(job),
        )),
        tree.push(phase("drain", sorted.sorted_at, sorted.end, Some(job))),
        job,
    ];
    tree.adopt(&phases);
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::WorkDir;

    fn smoke_layers(tag: &str, wobble: bool) -> Layers {
        // Under `benchmark/out/`, which git ignores.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{tag}-{}", std::process::id()));
        let scratch = WorkDir::create(dir).unwrap();
        let (prepared, _) =
            FileWorkload::set_up(&Scale::SMOKE, 9, &scratch.0, Shape::Random, wobble).unwrap();
        let Prepared::File(mut workload) = prepared else {
            unreachable!("file set-up yields a file workload");
        };
        let rep = workload.rep(true).unwrap();
        assert_eq!(rep.failures, Vec::<String>::new());
        rep.layers
    }

    #[test]
    fn two_wobble_runs_repeat_their_counts_exactly() {
        let (a, b) = (
            smoke_layers("wobble-a", true),
            smoke_layers("wobble-b", true),
        );
        for count in [
            "store.io_amp_pages",
            "merge.splits",
            "budget.shrink_requests",
            "merge.pages_read",
            "run_formation.runs",
        ] {
            assert_eq!(a[count], b[count], "{count} differs between identical runs");
        }
        // And the schedule really did something.
        assert!(a["budget.shrink_requests"] >= 2.0, "{a:?}");
        assert!(a["merge.splits"] >= 1.0, "{a:?}");
    }

    #[test]
    fn traced_rep_accounts_for_the_whole_wall_clock() {
        let layers = smoke_layers("attribution", false);
        let leaves: f64 = [
            "gensort.decode_s",
            "gensort.encode_s",
            "run_formation.self_s",
            "store.append_s",
            "store.read_s",
            "store.flush_s",
            "store.delete_s",
            "merge.self_s",
            "stream.self_s",
        ]
        .iter()
        .map(|name| layers[name])
        .sum();
        let wall = leaves + layers["bench.unattributed_s"];
        assert!(leaves > 0.0);
        assert!(
            layers["bench.unattributed_s"] <= 0.10 * wall,
            "unattributed {} of {wall}",
            layers["bench.unattributed_s"]
        );
        // A fixed budget means no shrink requests and no delays.
        assert_eq!(layers["budget.shrink_requests"], 0.0);
        assert_eq!(layers["budget.delay_samples"], 0.0);
    }
}
