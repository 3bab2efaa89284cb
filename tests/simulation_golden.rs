//! Golden file for the simulated sorts: every counter and every simulated
//! duration of a fixed-seed smoke-scale sort, for each of the paper's 18
//! algorithm combinations plus `adapt,opt,split`, must reproduce
//! `tests/golden/simulation_smoke.txt` exactly.
//!
//! The simulator charges CPU per operation and disk time per page moved, so a
//! change to run boundaries, merge plans, adaptation decisions or the CPU
//! operations a code path charges shows up here as a changed line — this is
//! the "dbsim figures stay bit-identical" rule as a test rather than a manual
//! `exp_fig7_8_9` diff.
//!
//! To regenerate after an *intended* change to simulated behaviour:
//! `MASORT_BLESS=1 cargo test --test simulation_golden`, then review the diff.

use masort_core::{AlgorithmSpec, SortJob, SortOutcome, SortPhase};
use masort_dbsim::driver::run_one_sort;
use masort_dbsim::system::SystemMetrics;
use masort_dbsim::{SimConfig, SimEnv, SimRelationSource, SimRunStore, SimSystem};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Chosen so that every row sheds memory during its split phase and the
/// `repl6` rows differ by adaptation strategy (many seeds leave them idle).
const SEED: u64 = 2;

/// 1 MB relation, 0.1 MB of memory, the default fluctuation workload.
fn smoke(algorithm: AlgorithmSpec) -> SimConfig {
    SimConfig::default()
        .with_relation_mb(1.0)
        .with_memory_mb(0.1)
        .with_algorithm(algorithm)
}

/// What [`run_one_sort`] does, keeping the full outcome and the system's own
/// counters instead of the summary the figures read.
fn sort_with_outcome(cfg: &SimConfig) -> (SortOutcome, SystemMetrics) {
    let sys = SimSystem::new(cfg, SEED).shared();
    sys.borrow_mut().refresh_budget();
    let budget = sys.borrow().budget.clone();
    budget.set_phase(SortPhase::Split);
    let input = SimRelationSource::new(
        sys.clone(),
        cfg.relation_pages(),
        cfg.tuples_per_page(),
        cfg.sort_config().tuple_size,
        SEED ^ 0x5eed_f00d,
    );
    let mut done = SortJob::builder()
        .config(cfg.sort_config())
        .input(input)
        .store(SimRunStore::new(sys.clone()))
        .env(SimEnv::new(sys.clone()))
        .budget(budget)
        .build()
        .and_then(SortJob::run_to_root)
        .expect("simulated stores and inputs are infallible");
    done.finish_into_run()
        .expect("simulated stores and inputs are infallible");
    let metrics = sys.borrow().metrics.clone();
    (std::mem::take(&mut done.outcome), metrics)
}

/// Twelve significant digits.
fn sig12(x: f64) -> String {
    format!("{x:.11e}")
}

fn golden_line(algorithm: AlgorithmSpec) -> String {
    let cfg = smoke(algorithm);
    let (o, sys) = sort_with_outcome(&cfg);
    // The figures go through `run_one_sort`; tie this test's copy of its
    // set-up to it so the two cannot drift apart.
    let summary = run_one_sort(&cfg, SEED);
    assert_eq!(
        summary.response_time.to_bits(),
        o.response_time.to_bits(),
        "{algorithm}: run_one_sort no longer runs the sort this test pins"
    );
    let (s, m) = (&o.split, &o.merge);
    let mut line = format!("{algorithm}");
    for (name, count) in [
        ("runs", s.run_count()),
        ("split_reads", s.pages_read),
        ("split_writes", s.pages_written),
        ("block_writes", s.block_writes),
        ("shrinks", s.shrink_events),
        ("steps", m.steps_executed),
        ("splits", m.splits),
        ("combines", m.combines),
        ("switches", m.switches),
        ("merge_reads", m.pages_read),
        ("merge_writes", m.pages_written),
        ("paging_reads", m.extra_paging_reads),
        ("refetched", m.refetched_pages),
        ("delays", o.delays.len()),
        ("split_io", sys.split_pages_io as usize),
        ("merge_io", sys.merge_pages_io as usize),
    ] {
        write!(line, " {name}={count}").unwrap();
    }
    for (name, seconds) in [
        ("response_s", o.response_time),
        ("split_s", s.duration()),
        ("merge_s", m.duration()),
        ("suspended_s", m.suspended_time),
        ("cpu_s", sys.cpu_time),
        ("split_disk_s", sys.split_disk_time),
        ("merge_disk_s", sys.merge_disk_time),
    ] {
        write!(line, " {name}={}", sig12(seconds)).unwrap();
    }
    line
}

#[test]
fn simulated_sorts_match_the_golden_file() {
    let mut specs = AlgorithmSpec::all(6);
    specs.push("adapt,opt,split".parse().unwrap());
    let mut actual = String::new();
    for spec in specs {
        actual.push_str(&golden_line(spec));
        actual.push('\n');
    }

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/simulation_smoke.txt");
    if std::env::var_os("MASORT_BLESS").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap();
    for (want, got) in golden.lines().zip(actual.lines()) {
        assert_eq!(got, want, "simulated sort changed");
    }
    assert_eq!(actual, golden, "golden file and sort list differ in length");
}
