//! Golden file for run formation: which tuples end up in which run is a
//! property of the *selection* (replacement selection, natural-run detection,
//! quicksort fills), never of how a buffered record is stored. For the
//! paper's 18 algorithm combinations plus `nat1`/`nat6`/`adapt`, three input
//! shapes and three seeds, the run list (tuples and direction per run), the
//! natural-run counters, the shrink events and the `held()` value the budget
//! shows at every input page must reproduce
//! `tests/golden/run_formation.txt` exactly. The file was captured before
//! run formation moved from owned tuples to the fixed-stride record slab.
//!
//! To regenerate after an *intended* change to selection:
//! `MASORT_BLESS=1 cargo test --test run_formation_golden`, then review.

use memory_adaptive_sort::core::env::CountingEnv;
use memory_adaptive_sort::core::run_formation::form_runs;
use memory_adaptive_sort::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::path::PathBuf;

const TUPLES: usize = 4_000;
const MEMORY_PAGES: usize = 12;

/// `(input page, new target)`: two dips below the initial 12 pages, so every
/// formation sheds mid-split, and a recovery after each.
const MOVES: [(usize, usize); 4] = [(60, 5), (140, 12), (260, 3), (330, 12)];

fn cfg(spec: AlgorithmSpec) -> SortConfig {
    SortConfig::default()
        .with_page_size(512)
        .with_tuple_size(64)
        .with_memory_pages(MEMORY_PAGES)
        .with_algorithm(spec)
}

fn keys(shape: &str, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..TUPLES as u64)
        .map(|i| {
            let draw = rng.gen::<u64>() >> 16;
            match shape {
                "random" => draw,
                // Ascending, a seeded tenth of the positions made random.
                "sorted90" if draw % 10 != 0 => i << 28,
                "sorted90" => draw % ((TUPLES as u64) << 28),
                "reversed" => (TUPLES as u64 - i) << 28,
                other => unreachable!("unknown shape {other}"),
            }
        })
        .collect()
}

/// Serves the pages, moves the budget on schedule, and notes what the budget
/// shows as held each time the sort comes back for another page.
struct MovingInput {
    pages: VecSource,
    served: usize,
    budget: MemoryBudget,
    held: Vec<usize>,
}

impl InputSource for MovingInput {
    fn next_page(&mut self) -> SortResult<Option<Page>> {
        self.held.push(self.budget.held());
        for &(_, target) in MOVES.iter().filter(|m| m.0 == self.served) {
            self.budget.set_target(target, 0.0);
        }
        self.served += 1;
        self.pages.next_page()
    }
}

fn fnv1a(values: &[usize]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, &v| {
        (h ^ v as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn golden_line(spec: AlgorithmSpec, shape: &str, seed: u64) -> String {
    let cfg = cfg(spec);
    let tuples = keys(shape, seed)
        .into_iter()
        .map(|k| Tuple::synthetic(k, 64))
        .collect();
    let budget = MemoryBudget::new(MEMORY_PAGES);
    let mut input = MovingInput {
        pages: VecSource::from_tuples(tuples, cfg.tuples_per_page()),
        served: 0,
        budget: budget.clone(),
        held: Vec::new(),
    };
    let mut store = MemStore::new();
    let mut env = CountingEnv::new();
    let split = form_runs(&cfg, &budget, &mut input, &mut store, &mut env).unwrap();
    assert_eq!(split.total_tuples(), TUPLES, "{spec} {shape} {seed}");
    assert_eq!(budget.held(), 0, "{spec} {shape} {seed}");

    let mut line = format!(
        "{spec} {shape} seed={seed} runs={} natural_runs={} natural_tuples={} shrinks={} \
         held_max={} held_trace={:016x} run_tuples=",
        split.run_count(),
        split.natural_runs,
        split.natural_tuples,
        split.shrink_events,
        input.held.iter().max().unwrap(),
        fnv1a(&input.held),
    );
    for (i, run) in split.runs.iter().enumerate() {
        let dir = match run.dir {
            RunDirection::Forward => "",
            RunDirection::Reversed => "r",
        };
        write!(line, "{}{}{dir}", if i == 0 { "" } else { "," }, run.tuples).unwrap();
    }
    line
}

#[test]
fn run_formation_matches_the_golden_file() {
    let mut specs = AlgorithmSpec::all(6);
    for extra in ["nat1,opt,split", "nat6,opt,split", "adapt,opt,split"] {
        specs.push(extra.parse().unwrap());
    }
    let mut actual = String::new();
    for shape in ["random", "sorted90", "reversed"] {
        for seed in [1, 2, 3] {
            for &spec in &specs {
                actual.push_str(&golden_line(spec, shape, seed));
                actual.push('\n');
            }
        }
    }

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/run_formation.txt");
    if std::env::var_os("MASORT_BLESS").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap();
    for (want, got) in golden.lines().zip(actual.lines()) {
        assert_eq!(got, want, "run formation selected differently");
    }
    assert_eq!(actual, golden, "golden file and case list differ in length");
}
