//! Experiment harness: one function per table / figure of the paper's
//! evaluation (Section 5) plus the sort-merge-join study (Section 6).
//!
//! Every function sweeps the same parameters the paper sweeps and returns
//! plain row structs; the binaries in `masort-bench` print them and
//! `EXPERIMENTS.md` records measured-vs-paper values. Absolute times differ
//! from the paper (different CPU/disk constants, synchronous I/O); the
//! *orderings and crossovers* are what these functions are expected to
//! reproduce.

use crate::config::SimConfig;
use crate::driver::{run_one_join, run_sort_stream, SortRunMetrics};
use masort_core::AlgorithmSpec;
use masort_simkit::stats::OnlineStats;
use masort_sysmodel::workload::WorkloadConfig;

/// How much simulation to run per experiment point.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Number of sorts averaged per experiment point.
    pub sorts_per_point: usize,
    /// Relation size in MB (the paper uses 20 MB).
    pub relation_mb: f64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            sorts_per_point: 5,
            relation_mb: 20.0,
        }
    }
}

impl Scale {
    /// Read the scale from the environment (`MASORT_SORTS_PER_POINT`,
    /// `MASORT_RELATION_MB`), falling back to the defaults.
    pub fn from_env() -> Self {
        let mut s = Scale::default();
        if let Ok(v) = std::env::var("MASORT_SORTS_PER_POINT") {
            if let Ok(n) = v.parse::<usize>() {
                s.sorts_per_point = n.max(1);
            }
        }
        if let Ok(v) = std::env::var("MASORT_RELATION_MB") {
            if let Ok(n) = v.parse::<f64>() {
                s.relation_mb = n.max(0.1);
            }
        }
        s
    }
}

fn averaged(cfg: &SimConfig, scale: Scale, seed: u64) -> AveragedMetrics {
    let runs = run_sort_stream(cfg, scale.sorts_per_point, seed);
    AveragedMetrics::from_runs(&runs)
}

/// Averages of the per-sort metrics over one experiment point.
#[derive(Clone, Debug, Default)]
pub struct AveragedMetrics {
    /// Mean response time (s).
    pub response_time: f64,
    /// Mean split-phase duration (s).
    pub split_duration: f64,
    /// Mean number of runs formed.
    pub runs_formed: f64,
    /// Mean number of merge steps executed.
    pub merge_steps: f64,
    /// Mean split-phase delay (s).
    pub mean_split_delay: f64,
    /// Maximum split-phase delay (s).
    pub max_split_delay: f64,
    /// Mean merge-phase delay (s).
    pub mean_merge_delay: f64,
    /// Mean per-page disk access time during the split phase (s).
    pub split_avg_page_io: f64,
}

impl AveragedMetrics {
    fn from_runs(runs: &[SortRunMetrics]) -> Self {
        let mut response = OnlineStats::new();
        let mut split = OnlineStats::new();
        let mut nruns = OnlineStats::new();
        let mut steps = OnlineStats::new();
        let mut sdelay = OnlineStats::new();
        let mut sdelay_max = 0.0f64;
        let mut mdelay = OnlineStats::new();
        let mut page_io = OnlineStats::new();
        for r in runs {
            response.record(r.response_time);
            split.record(r.split_duration);
            nruns.record(r.runs_formed as f64);
            steps.record(r.merge_steps as f64);
            sdelay.record(r.mean_split_delay);
            sdelay_max = sdelay_max.max(r.max_split_delay);
            mdelay.record(r.mean_merge_delay);
            page_io.record(r.split_avg_page_io);
        }
        AveragedMetrics {
            response_time: response.mean(),
            split_duration: split.mean(),
            runs_formed: nruns.mean(),
            merge_steps: steps.mean(),
            mean_split_delay: sdelay.mean(),
            max_split_delay: sdelay_max,
            mean_merge_delay: mdelay.mean(),
            split_avg_page_io: page_io.mean(),
        }
    }
}

// ---------------------------------------------------------------------------
// Table 5: average per-page disk access time vs block-write size N
// ---------------------------------------------------------------------------

/// One row of Table 5.
#[derive(Clone, Debug)]
pub struct Table5Row {
    /// Block-write size N (pages).
    pub block_pages: usize,
    /// Average per-page disk access time during the split phase, in ms.
    pub avg_page_ms: f64,
}

/// Reproduce paper Table 5: the split-phase per-page disk access time of
/// replacement selection with N-page block writes, N ∈ {1, 2, 4, 6, 8, 10, 12}.
pub fn table5(scale: Scale) -> Vec<Table5Row> {
    [1usize, 2, 4, 6, 8, 10, 12]
        .into_iter()
        .map(|n| {
            let spec: AlgorithmSpec = format!("repl{n},opt,split").parse().unwrap();
            let cfg = SimConfig::no_fluctuation()
                .with_relation_mb(scale.relation_mb)
                .with_algorithm(spec);
            let avg = averaged(&cfg, scale, 1700 + n as u64);
            Table5Row {
                block_pages: n,
                avg_page_ms: avg.split_avg_page_io * 1e3,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 5 + Table 6: no memory fluctuation
// ---------------------------------------------------------------------------

/// One experiment point of the no-fluctuation study (Figure 5 / Table 6).
#[derive(Clone, Debug)]
pub struct NoFluctuationRow {
    /// Total memory M in MB.
    pub memory_mb: f64,
    /// Algorithm notation (`quick,opt,...`).
    pub algorithm: String,
    /// Mean response time (s).
    pub response_s: f64,
    /// Mean number of runs produced by the split phase.
    pub runs: f64,
    /// Mean number of merge steps.
    pub merge_steps: f64,
    /// Mean split-phase duration (s).
    pub split_s: f64,
}

/// The memory sizes swept in Figure 5 / Table 6 (MB).
pub(crate) const TABLE6_MEMORY_MB: [f64; 8] = [0.07, 0.14, 0.21, 0.32, 0.42, 0.63, 0.84, 1.40];

/// Reproduce Figure 5 and Table 6: fixed memory allocations (no fluctuation),
/// sweeping M for the six combinations of in-memory sorting method and
/// merging strategy.
pub fn fig5_table6(scale: Scale) -> Vec<NoFluctuationRow> {
    let algorithms = [
        "quick,naive,susp",
        "quick,opt,susp",
        "repl1,naive,susp",
        "repl1,opt,susp",
        "repl6,naive,susp",
        "repl6,opt,susp",
    ];
    let mut rows = Vec::new();
    for &mb in &TABLE6_MEMORY_MB {
        for alg in algorithms {
            let spec: AlgorithmSpec = alg.parse().unwrap();
            let cfg = SimConfig::no_fluctuation()
                .with_relation_mb(scale.relation_mb)
                .with_memory_mb(mb)
                .with_algorithm(spec);
            // Without fluctuation the adaptation strategy never fires, so a
            // small number of sorts per point is enough.
            let local = Scale {
                sorts_per_point: scale.sorts_per_point.div_ceil(2),
                ..scale
            };
            let avg = averaged(&cfg, local, (mb * 1000.0) as u64);
            rows.push(NoFluctuationRow {
                memory_mb: mb,
                algorithm: alg.to_string(),
                response_s: avg.response_time,
                runs: avg.runs_formed,
                merge_steps: avg.merge_steps,
                split_s: avg.split_duration,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 6 + Tables 7/8/9: the baseline experiment
// ---------------------------------------------------------------------------

/// One algorithm's results in the baseline experiment (Figure 6, Tables 7-9).
#[derive(Clone, Debug)]
pub struct BaselineRow {
    /// Algorithm notation.
    pub algorithm: String,
    /// Mean response time (s).
    pub response_s: f64,
    /// Mean number of runs formed.
    pub runs: f64,
    /// Mean split-phase duration (s).
    pub split_s: f64,
    /// Mean split-phase delay (ms).
    pub mean_split_delay_ms: f64,
    /// Maximum split-phase delay (ms).
    pub max_split_delay_ms: f64,
    /// Mean merge-phase delay (ms).
    pub mean_merge_delay_ms: f64,
}

/// Reproduce the baseline experiment (paper §5.2): all 18 algorithm
/// combinations under the default fluctuation workload with M = 0.3 MB and
/// ‖R‖ = 20 MB.
pub fn fig6_baseline(scale: Scale) -> Vec<BaselineRow> {
    AlgorithmSpec::all(6)
        .into_iter()
        .map(|spec| {
            let cfg = SimConfig::baseline()
                .with_relation_mb(scale.relation_mb)
                .with_algorithm(spec);
            let avg = averaged(&cfg, scale, 600 + seed_of(&spec));
            BaselineRow {
                algorithm: spec.to_string(),
                response_s: avg.response_time,
                runs: avg.runs_formed,
                split_s: avg.split_duration,
                mean_split_delay_ms: avg.mean_split_delay * 1e3,
                max_split_delay_ms: avg.max_split_delay * 1e3,
                mean_merge_delay_ms: avg.mean_merge_delay * 1e3,
            }
        })
        .collect()
}

fn seed_of(spec: &AlgorithmSpec) -> u64 {
    // Stable small hash of the algorithm notation, so every algorithm sees a
    // different but reproducible workload sample.
    spec.to_string()
        .bytes()
        .fold(0u64, |acc, b| acc.wrapping_mul(31).wrapping_add(b as u64))
        % 1000
}

// ---------------------------------------------------------------------------
// Figures 7, 8, 9: M to ||R|| ratio sweep (and 10, 11: fluctuation magnitude)
// ---------------------------------------------------------------------------

/// One point of the memory-ratio / magnitude sweeps (Figures 7-11).
#[derive(Clone, Debug)]
pub struct RatioRow {
    /// Total memory M in MB.
    pub memory_mb: f64,
    /// Algorithm notation.
    pub algorithm: String,
    /// Mean response time (s).
    pub response_s: f64,
    /// Mean split-phase delay (s).
    pub mean_split_delay_s: f64,
    /// Maximum split-phase delay (s).
    pub max_split_delay_s: f64,
    /// Mean split-phase duration (s).
    pub split_s: f64,
}

/// Memory sizes swept in Figures 7-11 (MB).
pub(crate) const RATIO_MEMORY_MB: [f64; 7] = [0.1, 0.2, 0.3, 0.45, 0.6, 0.9, 1.4];

/// Algorithms plotted in Figures 7-9: repl6 and quick, naive and optimized,
/// under paging and dynamic splitting.
pub(crate) const RATIO_ALGORITHMS: [&str; 8] = [
    "repl6,naive,page",
    "repl6,opt,page",
    "repl6,naive,split",
    "repl6,opt,split",
    "quick,naive,split",
    "quick,opt,split",
    "quick,naive,page",
    "quick,opt,page",
];

fn ratio_sweep(scale: Scale, workload: WorkloadConfig, seed_base: u64) -> Vec<RatioRow> {
    let mut rows = Vec::new();
    for &mb in &RATIO_MEMORY_MB {
        for alg in RATIO_ALGORITHMS {
            let spec: AlgorithmSpec = alg.parse().unwrap();
            let cfg = SimConfig::baseline()
                .with_relation_mb(scale.relation_mb)
                .with_memory_mb(mb)
                .with_algorithm(spec)
                .with_workload(workload);
            let avg = averaged(
                &cfg,
                scale,
                seed_base + (mb * 100.0) as u64 + seed_of(&spec),
            );
            rows.push(RatioRow {
                memory_mb: mb,
                algorithm: alg.to_string(),
                response_s: avg.response_time,
                mean_split_delay_s: avg.mean_split_delay,
                max_split_delay_s: avg.max_split_delay,
                split_s: avg.split_duration,
            });
        }
    }
    rows
}

/// Reproduce Figures 7, 8 and 9: the sensitivity of the algorithms to the
/// memory-to-relation-size ratio under the baseline fluctuation workload.
pub fn fig7_8_9(scale: Scale) -> Vec<RatioRow> {
    ratio_sweep(scale, WorkloadConfig::default(), 7000)
}

/// Reproduce Figures 10 and 11: the same sweep with the fluctuation
/// *magnitude* increased (small and large request streams swapped).
pub fn fig10_11(scale: Scale) -> Vec<RatioRow> {
    ratio_sweep(scale, WorkloadConfig::large_magnitude(), 10_000)
}

// ---------------------------------------------------------------------------
// Figures 12, 13: rate of memory fluctuations
// ---------------------------------------------------------------------------

/// One point of the fluctuation-rate experiment (Figures 12-13).
#[derive(Clone, Debug)]
pub struct RateRow {
    /// Total memory M in MB.
    pub memory_mb: f64,
    /// Algorithm notation.
    pub algorithm: String,
    /// `"slow"` or `"fast"` fluctuation setting.
    pub setting: &'static str,
    /// Mean response time (s).
    pub response_s: f64,
    /// Mean split-phase duration (s).
    pub split_s: f64,
}

/// Memory sizes swept in Figures 12-13 (MB).
pub(crate) const RATE_MEMORY_MB: [f64; 5] = [0.1, 0.3, 0.6, 1.2, 2.0];

/// Reproduce Figures 12 and 13: slow vs fast memory-fluctuation rates (with
/// the mean available memory held constant) for quick and repl6 under paging
/// and dynamic splitting with optimized merging.
pub fn fig12_13(scale: Scale) -> Vec<RateRow> {
    let algorithms = [
        "quick,opt,page",
        "quick,opt,split",
        "repl6,opt,page",
        "repl6,opt,split",
    ];
    let settings: [(&'static str, WorkloadConfig); 2] = [
        ("slow", WorkloadConfig::slow_rate()),
        ("fast", WorkloadConfig::fast_rate()),
    ];
    let mut rows = Vec::new();
    for &mb in &RATE_MEMORY_MB {
        for alg in algorithms {
            for (name, workload) in settings {
                let spec: AlgorithmSpec = alg.parse().unwrap();
                let cfg = SimConfig::baseline()
                    .with_relation_mb(scale.relation_mb)
                    .with_memory_mb(mb)
                    .with_algorithm(spec)
                    .with_workload(workload);
                let avg = averaged(&cfg, scale, 12_000 + (mb * 10.0) as u64 + seed_of(&spec));
                rows.push(RateRow {
                    memory_mb: mb,
                    algorithm: alg.to_string(),
                    setting: name,
                    response_s: avg.response_time,
                    split_s: avg.split_duration,
                });
            }
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Section 6: memory-adaptive sort-merge joins
// ---------------------------------------------------------------------------

/// One algorithm's result for the sort-merge-join study (paper §6).
#[derive(Clone, Debug)]
pub struct SmjRow {
    /// Algorithm notation.
    pub algorithm: String,
    /// Mean response time (s).
    pub response_s: f64,
    /// Mean number of join matches produced.
    pub matches: f64,
    /// Mean number of runs formed across both relations.
    pub runs: f64,
}

/// Reproduce the sort-merge-join comparison of Section 6: the same adaptation
/// trade-offs hold for joins. Two relations of ‖R‖/2 and ‖R‖/4 are joined
/// under the baseline fluctuation workload.
pub fn smj(scale: Scale) -> Vec<SmjRow> {
    let algorithms = [
        "quick,opt,susp",
        "quick,opt,page",
        "quick,opt,split",
        "repl6,opt,susp",
        "repl6,opt,page",
        "repl6,opt,split",
    ];
    let relation_pages = (scale.relation_mb * 1024.0 * 1024.0 / 8192.0) as usize;
    let left = (relation_pages / 2).max(8);
    let right = (relation_pages / 4).max(8);
    algorithms
        .iter()
        .map(|alg| {
            let spec: AlgorithmSpec = alg.parse().unwrap();
            let cfg = SimConfig::baseline().with_algorithm(spec);
            let mut resp = OnlineStats::new();
            let mut matches = OnlineStats::new();
            let mut runs = OnlineStats::new();
            for i in 0..scale.sorts_per_point {
                let m = run_one_join(&cfg, left, right, 42_000 + seed_of(&spec) + i as u64 * 97);
                resp.record(m.response_time);
                matches.record(m.matches as f64);
                runs.record(m.runs_formed as f64);
            }
            SmjRow {
                algorithm: alg.to_string(),
                response_s: resp.mean(),
                matches: matches.mean(),
                runs: runs.mean(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Ablation (paper §7 future work): adaptive block size + dynamic splitting
// ---------------------------------------------------------------------------

/// One point of the adaptive-block-size ablation.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Total memory M in MB.
    pub memory_mb: f64,
    /// Algorithm notation.
    pub algorithm: String,
    /// Mean response time (s).
    pub response_s: f64,
    /// Mean split-phase duration (s).
    pub split_s: f64,
    /// Mean number of runs formed.
    pub runs: f64,
}

/// Ablation of the paper's future-work suggestion (§7): combine dynamic
/// splitting with a block-write size that tracks the current allocation
/// (`adapt,opt,split`), compared against the paper's fixed `repl6,opt,split`
/// and `repl1,opt,split`, under the baseline fluctuation workload.
pub fn ablation(scale: Scale) -> Vec<AblationRow> {
    let algorithms = ["repl1,opt,split", "repl6,opt,split", "adapt,opt,split"];
    let memories = [0.3f64, 0.6, 1.2, 2.0];
    let mut rows = Vec::new();
    for &mb in &memories {
        for alg in algorithms {
            let spec: AlgorithmSpec = alg.parse().unwrap();
            let cfg = SimConfig::baseline()
                .with_relation_mb(scale.relation_mb)
                .with_memory_mb(mb)
                .with_algorithm(spec);
            let avg = averaged(&cfg, scale, 77_000 + (mb * 10.0) as u64 + seed_of(&spec));
            rows.push(AblationRow {
                memory_mb: mb,
                algorithm: alg.to_string(),
                response_s: avg.response_time,
                split_s: avg.split_duration,
                runs: avg.runs_formed,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny scale for unit tests (1 MB relation, single sort per point).
    const TINY: Scale = Scale {
        sorts_per_point: 1,
        relation_mb: 1.0,
    };

    #[test]
    fn scale_from_env_defaults() {
        let s = Scale::default();
        assert_eq!(s.sorts_per_point, 5);
        assert!((s.relation_mb - 20.0).abs() < 1e-9);
    }

    #[test]
    fn table5_shape_block_writes_reduce_per_page_time() {
        let rows = table5(TINY);
        assert_eq!(rows.len(), 7);
        let n1 = rows
            .iter()
            .find(|r| r.block_pages == 1)
            .unwrap()
            .avg_page_ms;
        let n6 = rows
            .iter()
            .find(|r| r.block_pages == 6)
            .unwrap()
            .avg_page_ms;
        let n12 = rows
            .iter()
            .find(|r| r.block_pages == 12)
            .unwrap()
            .avg_page_ms;
        assert!(
            n1 > n6,
            "N=1 ({n1:.1} ms) should cost more per page than N=6 ({n6:.1} ms)"
        );
        assert!(n6 >= n12 * 0.8, "the curve should level off after N=6");
    }

    #[test]
    fn baseline_tiny_smoke() {
        // A single algorithm at tiny scale to keep the test fast; the full 18
        // are exercised by the bench binary.
        let cfg = SimConfig::baseline()
            .with_relation_mb(1.0)
            .with_algorithm("repl6,opt,split".parse().unwrap());
        let avg = averaged(&cfg, TINY, 1);
        assert!(avg.response_time > 0.0);
        assert!(avg.runs_formed >= 1.0);
    }

    #[test]
    fn no_fluctuation_row_counts() {
        let rows = fig5_table6(Scale {
            sorts_per_point: 1,
            relation_mb: 0.5,
        });
        assert_eq!(rows.len(), TABLE6_MEMORY_MB.len() * 6);
        assert!(rows.iter().all(|r| r.response_s > 0.0));
        // More memory must not increase the number of runs for a given method.
        let runs_small = rows
            .iter()
            .find(|r| r.memory_mb == 0.07 && r.algorithm.starts_with("quick,opt"))
            .unwrap()
            .runs;
        let runs_big = rows
            .iter()
            .find(|r| r.memory_mb == 1.40 && r.algorithm.starts_with("quick,opt"))
            .unwrap()
            .runs;
        assert!(runs_big < runs_small);
    }

    #[test]
    fn smj_tiny_smoke() {
        let rows = smj(Scale {
            sorts_per_point: 1,
            relation_mb: 0.5,
        });
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|r| r.response_s > 0.0));
        assert!(rows.iter().all(|r| r.matches > 0.0));
    }
}
