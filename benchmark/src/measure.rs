//! One workload, one process: set up, warm up, measure for the given time,
//! verify every output, and reduce the reps to named metrics.

use crate::floor::Floors;
use crate::host;
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, Summary};
use crate::workload::{Layers, Prepared, Rep, Scale, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-up is done this many times and `setup_s` is the median of all but the
/// first, because one set-up per run is too noisy a sample to hold a bound
/// against, and the first pays for a cold work directory (a third of a
/// second more than the rest).
const SETUPS: usize = 5;

pub struct Request {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Directory the run may write in: work files, traces.
    pub out_dir: PathBuf,
}

/// Everything one run measured.
pub struct Measured {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub reps: usize,
    pub rss_reset: bool,
    /// End-to-end summaries over the untraced reps, by metric name.
    pub end_to_end: BTreeMap<&'static str, Summary>,
    /// Per-layer values (traced reps where there are any).
    pub per_layer: Layers,
}

/// A directory created for one run or test and removed when it ends, however
/// it ends.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(path: PathBuf) -> Result<WorkDir, String> {
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn measure(req: &Request) -> Result<Measured, String> {
    let work = WorkDir::create(req.out_dir.join(format!("work-{}", std::process::id())))?;

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut prepared: Option<(Prepared, Floors)> = None;
    for _ in 0..SETUPS {
        // Tear the previous set-up down (stop its server) before the clock
        // starts on the next.
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(Prepared::set_up(
            req.workload,
            &req.scale,
            req.seed,
            &work.0,
        )?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    setup_s.remove(0);
    let (mut prepared, floors) = prepared.expect("SETUPS > 0");

    // From here on the peak-RSS watermark belongs to the workload alone.
    let rss_reset = host::reset_peak_rss();

    // One discarded rep lets caches fill and lazy set-up finish; it is still
    // verified and still counts as attempted.
    let warm_up = prepared.rep(false)?;

    // With tracing on, untraced and traced reps alternate so that both see
    // the same drift and their difference is the tracing overhead — unless
    // the workload's spans cost nothing extra, and every rep can be both.
    let alternate = req.trace && !prepared.traces_for_free();
    let min_reps = req.scale.min_reps * if alternate { 2 } else { 1 };
    let deadline = Instant::now() + Duration::from_secs_f64(req.seconds);
    let mut reps = Vec::new();
    while reps.len() < min_reps || Instant::now() < deadline {
        let traced = alternate && reps.len() % 2 == 1;
        reps.push(prepared.rep(traced)?);
    }
    let peak_rss_mb = host::peak_rss_bytes()? / 1e6;

    if req.trace {
        if let Some(tree) = reps.iter().rev().find_map(|r| r.tree.as_ref()) {
            let path = req
                .out_dir
                .join(format!("trace-{}.json", req.workload.name()));
            std::fs::write(&path, tree.to_json().to_pretty())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
    }

    let (mut per_layer, late_failures) = prepared.finish(&reps);
    let mut failures = warm_up.failures.clone();
    failures.extend(reps.iter().flat_map(|r| r.failures.iter().cloned()));
    failures.extend(late_failures);
    let attempted = warm_up.attempted + reps.iter().map(|r| r.attempted).sum::<u64>();

    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced && r.succeeded()).collect();
    let per_rep = |f: fn(&Rep) -> f64| -> Vec<f64> { untraced.iter().map(|r| f(r)).collect() };
    let samples: [(&'static str, Vec<f64>); 6] = [
        (
            "sort_mb_s",
            per_rep(|r| r.sorted_bytes / 1e6 / r.used.wall_s),
        ),
        (
            "job_p50_ms",
            untraced
                .iter()
                .flat_map(|r| r.latencies_ms.clone())
                .collect(),
        ),
        (
            "cpu_s_per_gb",
            per_rep(|r| r.used.cpu_s / (r.sorted_bytes / 1e9)),
        ),
        ("peak_rss_mb", vec![peak_rss_mb]),
        ("io_amp", per_rep(|r| r.used.io_bytes / r.sorted_bytes)),
        ("setup_s", setup_s),
    ];
    let end_to_end: BTreeMap<_, _> = samples
        .into_iter()
        .filter_map(|(name, values)| Some((name, Summary::of(&values)?)))
        .collect();

    per_layer.extend([
        ("floor.memcpy_mb_s", floors.memcpy_mb_s),
        ("floor.file_rw_mb_s", floors.file_rw_mb_s),
        ("floor.key_sort_mb_s", floors.key_sort_mb_s),
    ]);
    if let Some(sort_mb_s) = end_to_end.get("sort_mb_s") {
        per_layer.insert("floor.share", sort_mb_s.median / floors.implied_mb_s());
    }
    let wall = |traced: bool| -> Option<f64> {
        let walls: Vec<f64> = reps
            .iter()
            .filter(|r| r.traced == traced && r.succeeded())
            .map(|r| r.used.wall_s)
            .collect();
        median(&walls)
    };
    if let (Some(plain), Some(traced)) = (wall(false), wall(true)) {
        per_layer.insert("bench.trace_overhead_pct", (traced / plain - 1.0) * 100.0);
    }

    Ok(Measured {
        attempted,
        failures,
        reps: reps.len(),
        rss_reset,
        end_to_end,
        per_layer,
    })
}

impl Measured {
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// The benchmark driver's result line: end-to-end metrics for an untraced
    /// run, per-layer metrics for a traced one.
    pub fn result_line(&self, trace: bool) -> Json {
        let metric = |value: f64, unit: &str| {
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
        };
        let metrics: Vec<(&str, Json)> = if trace {
            PER_LAYER
                .iter()
                .map(|(name, unit, _)| {
                    // A layer this workload never enters reports zero.
                    let value = self.per_layer.get(name).copied().unwrap_or(0.0);
                    (*name, metric(value, unit))
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let value = self.end_to_end.get(m.name).map_or(f64::NAN, |s| s.median);
                    (m.name, metric(value, m.unit))
                })
                .collect()
        };
        Json::obj([
            ("correct", Json::Bool(self.failures.is_empty())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed() as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Everything, in the shape of one workload of a result file: for `run`
    /// to merge, and for printing.
    pub fn detail(&self, req: &Request) -> Json {
        Json::obj([
            ("name", Json::str(req.workload.name())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed() as f64)),
            (
                "failed_share",
                Json::Num(self.failed() as f64 / self.attempted.max(1) as f64),
            ),
            ("reps", Json::Num(self.reps as f64)),
            ("rss_reset", Json::Bool(self.rss_reset)),
            (
                "end_to_end",
                Json::obj(
                    END_TO_END.iter().filter_map(|m| {
                        Some((m.name, self.end_to_end.get(m.name)?.to_json(m.unit)))
                    }),
                ),
            ),
            (
                "per_layer",
                Json::obj(PER_LAYER.iter().filter_map(|(name, unit, _)| {
                    let value = *self.per_layer.get(name)?;
                    Some((
                        *name,
                        Json::obj([("unit", Json::str(*unit)), ("value", Json::Num(value))]),
                    ))
                })),
            ),
        ])
    }
}
