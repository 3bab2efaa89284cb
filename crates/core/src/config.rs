//! Sort configuration and the paper's `X1,X2,X3` algorithm notation.
//!
//! Section 3.3 of the paper denotes an external sort algorithm by a string of
//! the form `X1,X2,X3` where `X1 ∈ {quick, repl1, replN}` is the in-memory
//! sorting method, `X2 ∈ {naive, opt}` the merging strategy, and
//! `X3 ∈ {susp, page, split}` the merge-phase adaptation strategy.
//! [`AlgorithmSpec`] captures the same triple and round-trips through the same
//! textual notation (`"repl6,opt,split"`).

use crate::error::{SortError, SortResult};
use crate::order::SortOrder;
use std::fmt;
use std::str::FromStr;

/// The in-memory sorting method used during the split phase (paper §2.1/§3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RunFormation {
    /// Fill memory, quicksort it, write the whole run (`quick`).
    Quicksort,
    /// Replacement selection with `block_pages`-page block writes.
    /// `block_pages == 1` is the classic algorithm (`repl1`); the paper's
    /// preferred variant uses 6-page blocks (`repl6`).
    ReplacementSelect {
        /// Number of pages written per block write.
        block_pages: usize,
    },
    /// Natural-run replacement selection with `block_pages`-page block writes
    /// (`nat{n}`): the up/down variant of replacement selection that detects
    /// streaks already ascending or descending in the input and forms runs
    /// in either direction, so pre-existing order extends runs instead of
    /// cutting them (see [`crate::run_formation`]). The sorted
    /// output is tuple-for-tuple that of `repl{n}`; only run boundaries — and
    /// with them merge fan-in and I/O volume — differ. Not one of the paper's
    /// methods; [`SortJob::builder`](crate::job::SortJob::builder) starts
    /// from it.
    NaturalSelect {
        /// Number of pages written per block write.
        block_pages: usize,
    },
    /// Replacement selection whose block-write size tracks the *current*
    /// memory allocation (roughly one sixth of it, clamped to 1..=32 pages).
    /// This is the buffer-size-adjustment extension sketched in the paper's
    /// future work (§7): larger allocations get larger, cheaper block writes
    /// while small allocations keep the long runs of `repl1`.
    AdaptiveReplacement,
}

impl RunFormation {
    /// Replacement selection with `n`-page block writes (`repl{n}`).
    ///
    /// A zero block size is accepted here (so configurations can be built
    /// programmatically without panicking) and rejected with
    /// [`SortError::InvalidConfig`] by [`SortConfig::validate`] — i.e. at
    /// `SortJobBuilder::build` time, before any data moves.
    pub fn repl(n: usize) -> Self {
        RunFormation::ReplacementSelect { block_pages: n }
    }

    /// Natural-run replacement selection with `n`-page block writes
    /// (`nat{n}`). A zero block size is rejected by [`SortConfig::validate`],
    /// as for [`repl`](Self::repl).
    pub fn natural(n: usize) -> Self {
        RunFormation::NaturalSelect { block_pages: n }
    }

    /// Replacement selection with memory-tracking block writes (`adapt`).
    pub fn adaptive() -> Self {
        RunFormation::AdaptiveReplacement
    }
}

impl fmt::Display for RunFormation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunFormation::Quicksort => write!(f, "quick"),
            RunFormation::ReplacementSelect { block_pages } => write!(f, "repl{block_pages}"),
            RunFormation::NaturalSelect { block_pages } => write!(f, "nat{block_pages}"),
            RunFormation::AdaptiveReplacement => write!(f, "adapt"),
        }
    }
}

/// The merging strategy used when preliminary merge steps are necessary
/// (paper §2.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MergePolicy {
    /// Every preliminary step merges as many runs as memory allows.
    Naive,
    /// The first preliminary step merges just enough runs so that every
    /// subsequent step merges `m - 1` runs (Graefe's optimized merging).
    Optimized,
}

impl fmt::Display for MergePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergePolicy::Naive => write!(f, "naive"),
            MergePolicy::Optimized => write!(f, "opt"),
        }
    }
}

/// The merge-phase adaptation strategy (paper §3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MergeAdaptation {
    /// Release all buffers and wait until memory returns (§3.2.1).
    Suspension,
    /// Keep merging with MRU paging of input buffers (§3.2.2).
    Paging,
    /// Dynamic splitting: split the executing merge step into sub-steps that
    /// fit the remaining memory, and combine steps when memory grows (§3.2.3).
    DynamicSplitting,
}

impl fmt::Display for MergeAdaptation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeAdaptation::Suspension => write!(f, "susp"),
            MergeAdaptation::Paging => write!(f, "page"),
            MergeAdaptation::DynamicSplitting => write!(f, "split"),
        }
    }
}

/// A complete external-sort algorithm: in-memory sorting method, merging
/// strategy, and merge-phase adaptation strategy (paper Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AlgorithmSpec {
    /// Split-phase in-memory sorting method.
    pub formation: RunFormation,
    /// Merge planning policy.
    pub policy: MergePolicy,
    /// Merge-phase adaptation strategy.
    pub adaptation: MergeAdaptation,
}

impl AlgorithmSpec {
    /// Construct an algorithm spec from its three components.
    pub fn new(formation: RunFormation, policy: MergePolicy, adaptation: MergeAdaptation) -> Self {
        AlgorithmSpec {
            formation,
            policy,
            adaptation,
        }
    }

    /// The paper's recommended combination: `repl6,opt,split`.
    pub fn recommended() -> Self {
        AlgorithmSpec::new(
            RunFormation::repl(6),
            MergePolicy::Optimized,
            MergeAdaptation::DynamicSplitting,
        )
    }

    /// [`recommended`](Self::recommended) with natural-run replacement
    /// selection, `nat6,opt,split`: the algorithm of
    /// [`SortConfig::default`], so what every sort runs unless told
    /// otherwise.
    pub fn natural() -> Self {
        AlgorithmSpec {
            formation: RunFormation::natural(6),
            ..AlgorithmSpec::recommended()
        }
    }

    /// All 18 algorithm combinations evaluated in the paper
    /// (3 in-memory methods × 2 merging strategies × 3 adaptation strategies),
    /// with `replN` instantiated at N = `block_pages`.
    pub fn all(block_pages: usize) -> Vec<AlgorithmSpec> {
        let formations = [
            RunFormation::Quicksort,
            RunFormation::repl(1),
            RunFormation::repl(block_pages),
        ];
        let policies = [MergePolicy::Naive, MergePolicy::Optimized];
        let adaptations = [
            MergeAdaptation::Suspension,
            MergeAdaptation::Paging,
            MergeAdaptation::DynamicSplitting,
        ];
        let mut out = Vec::with_capacity(18);
        for f in formations {
            for p in policies {
                for a in adaptations {
                    out.push(AlgorithmSpec::new(f, p, a));
                }
            }
        }
        out
    }
}

impl fmt::Display for AlgorithmSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{},{},{}", self.formation, self.policy, self.adaptation)
    }
}

/// Error returned when parsing an [`AlgorithmSpec`] from its textual form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseAlgorithmError {
    /// The offending input.
    pub input: String,
    /// Human-readable reason.
    pub reason: &'static str,
}

impl fmt::Display for ParseAlgorithmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid algorithm spec `{}`: {}",
            self.input, self.reason
        )
    }
}

impl std::error::Error for ParseAlgorithmError {}

impl FromStr for AlgorithmSpec {
    type Err = ParseAlgorithmError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |reason| ParseAlgorithmError {
            input: s.to_string(),
            reason,
        };
        let parts: Vec<&str> = s.split(',').map(str::trim).collect();
        if parts.len() != 3 {
            return Err(err("expected three comma-separated components"));
        }
        let block_pages = |n: &str| match n.parse::<usize>() {
            Ok(0) => Err(err("block size must be at least 1")),
            Ok(n) => Ok(n),
            Err(_) => Err(err("replN / natN require a numeric block size")),
        };
        let formation = if parts[0] == "quick" {
            RunFormation::Quicksort
        } else if parts[0] == "adapt" {
            RunFormation::adaptive()
        } else if let Some(n) = parts[0].strip_prefix("repl") {
            RunFormation::repl(block_pages(n)?)
        } else if let Some(n) = parts[0].strip_prefix("nat") {
            RunFormation::natural(block_pages(n)?)
        } else {
            return Err(err("unknown in-memory sorting method"));
        };
        let policy = match parts[1] {
            "naive" => MergePolicy::Naive,
            "opt" => MergePolicy::Optimized,
            _ => return Err(err("unknown merging strategy (expected naive|opt)")),
        };
        let adaptation = match parts[2] {
            "susp" => MergeAdaptation::Suspension,
            "page" => MergeAdaptation::Paging,
            "split" => MergeAdaptation::DynamicSplitting,
            _ => {
                return Err(err(
                    "unknown merge-phase adaptation (expected susp|page|split)",
                ))
            }
        };
        Ok(AlgorithmSpec::new(formation, policy, adaptation))
    }
}

/// Configuration of a single external sort or sort-merge join.
#[derive(Clone, Debug, PartialEq)]
pub struct SortConfig {
    /// Page size in bytes (paper default: 8 KB).
    pub page_size: usize,
    /// Nominal tuple size in bytes (paper default: 256 B).
    pub tuple_size: usize,
    /// Initial memory allocation in pages. The [`crate::MemoryBudget`] starts
    /// at this value; the owner may change it at any time.
    pub memory_pages: usize,
    /// The algorithm combination to run.
    pub algorithm: AlgorithmSpec,
    /// The requested output order (direction + normalized key length).
    pub order: SortOrder,
}

impl Default for SortConfig {
    fn default() -> Self {
        // Paper defaults: 8 KB pages, 256 B tuples, M = 0.3 MB ≈ 38 pages.
        // The algorithm is nat6,opt,split: the paper's recommended
        // combination with run formation that follows order already present
        // in the input (`AlgorithmSpec::recommended()` is the paper's own).
        SortConfig {
            page_size: 8 * 1024,
            tuple_size: 256,
            memory_pages: 38,
            algorithm: AlgorithmSpec::natural(),
            order: SortOrder::ascending(),
        }
    }
}

impl SortConfig {
    /// Number of tuples that fit in one page (at least 1).
    ///
    /// Total even for configurations [`validate`](Self::validate) would
    /// reject: a zero `tuple_size` does not divide by zero, so pagination
    /// helpers can run before validation surfaces `InvalidConfig`.
    pub fn tuples_per_page(&self) -> usize {
        (self.page_size / self.tuple_size.max(1)).max(1)
    }

    /// Stride of the fixed-size records the sort holds its tuples in (see
    /// [`crate::layout`]): header plus the payload of a `tuple_size`-byte
    /// tuple, so such a payload sits inline. Longer ones are kept outside the
    /// record; nothing has to fit.
    pub fn record_stride(&self) -> usize {
        use crate::layout::{MIN_DENSE_STRIDE, RECORD_HEADER};
        (RECORD_HEADER + self.tuple_size.saturating_sub(crate::tuple::KEY_BYTES))
            .max(MIN_DENSE_STRIDE)
    }

    /// Builder-style override of the memory allocation.
    ///
    /// A zero value is stored as-is and rejected by [`validate`](Self::validate)
    /// (i.e. at `SortJobBuilder::build` time) rather than panicking here.
    pub fn with_memory_pages(mut self, pages: usize) -> Self {
        self.memory_pages = pages;
        self
    }

    /// Builder-style override of the algorithm combination.
    pub fn with_algorithm(mut self, algorithm: AlgorithmSpec) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Builder-style override of the page size in bytes.
    ///
    /// A zero value is stored as-is and rejected by [`validate`](Self::validate)
    /// (i.e. at `SortJobBuilder::build` time) rather than panicking here.
    pub fn with_page_size(mut self, bytes: usize) -> Self {
        self.page_size = bytes;
        self
    }

    /// Builder-style override of the nominal tuple size in bytes.
    ///
    /// A zero value is stored as-is and rejected by [`validate`](Self::validate)
    /// (i.e. at `SortJobBuilder::build` time) rather than panicking here.
    pub fn with_tuple_size(mut self, bytes: usize) -> Self {
        self.tuple_size = bytes;
        self
    }

    /// Builder-style override of the output order.
    pub fn with_order(mut self, order: SortOrder) -> Self {
        self.order = order;
        self
    }

    /// Builder-style shorthand for a descending sort on [`crate::Tuple::key`].
    pub fn descending(mut self) -> Self {
        self.order = SortOrder::descending();
        self
    }

    /// Check that this configuration describes a runnable sort.
    ///
    /// The `with_*` builder methods store what they are given and the fields
    /// are public, so jobs validate at
    /// [`build`](crate::job::SortJobBuilder::build) time via this method.
    pub fn validate(&self) -> SortResult<()> {
        if self.page_size == 0 {
            return Err(SortError::invalid_config("page_size must be positive"));
        }
        if self.tuple_size == 0 {
            return Err(SortError::invalid_config("tuple_size must be positive"));
        }
        if self.tuple_size > self.page_size {
            return Err(SortError::invalid_config(format!(
                "tuple_size ({} B) exceeds page_size ({} B): a tuple must fit in one page",
                self.tuple_size, self.page_size
            )));
        }
        if self.memory_pages == 0 {
            return Err(SortError::invalid_config(
                "memory_pages must be at least 1 (the sort cannot run with zero buffers)",
            ));
        }
        if let RunFormation::ReplacementSelect { block_pages }
        | RunFormation::NaturalSelect { block_pages } = self.algorithm.formation
        {
            if block_pages == 0 {
                return Err(SortError::invalid_config(
                    "replacement-selection block size must be at least one page",
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper() {
        let c = SortConfig::default();
        assert_eq!(c.page_size, 8192);
        assert_eq!(c.tuple_size, 256);
        assert_eq!(c.tuples_per_page(), 32);
        assert_eq!(c.algorithm.to_string(), "nat6,opt,split");
    }

    #[test]
    fn algorithm_notation_round_trips() {
        for spec in AlgorithmSpec::all(6) {
            let text = spec.to_string();
            let parsed: AlgorithmSpec = text.parse().unwrap();
            assert_eq!(parsed, spec, "round trip failed for {text}");
        }
    }

    #[test]
    fn all_produces_18_distinct_algorithms() {
        let all = AlgorithmSpec::all(6);
        assert_eq!(all.len(), 18);
        let set: std::collections::HashSet<String> = all.iter().map(|a| a.to_string()).collect();
        assert_eq!(set.len(), 18);
    }

    #[test]
    fn parse_errors_are_descriptive() {
        assert!("quick,opt".parse::<AlgorithmSpec>().is_err());
        assert!("quack,opt,susp".parse::<AlgorithmSpec>().is_err());
        assert!("repl0,opt,susp".parse::<AlgorithmSpec>().is_err());
        assert!("quick,optimal,susp".parse::<AlgorithmSpec>().is_err());
        assert!("quick,opt,pause".parse::<AlgorithmSpec>().is_err());
        let e = "replX,opt,split".parse::<AlgorithmSpec>().unwrap_err();
        assert!(e.to_string().contains("numeric"));
    }

    #[test]
    fn parse_accepts_whitespace() {
        let spec: AlgorithmSpec = " repl6 , opt , split ".parse().unwrap();
        assert_eq!(spec, AlgorithmSpec::recommended());
    }

    #[test]
    fn tuples_per_page_never_zero() {
        let c = SortConfig::default()
            .with_page_size(64)
            .with_tuple_size(256);
        assert_eq!(c.tuples_per_page(), 1);
    }

    #[test]
    fn repl_zero_is_rejected_at_validate_not_construction() {
        // Constructing the invalid value must not panic ...
        let spec = AlgorithmSpec::new(
            RunFormation::repl(0),
            MergePolicy::Optimized,
            MergeAdaptation::DynamicSplitting,
        );
        // ... but validating a configuration that uses it fails.
        let err = SortConfig::default().with_algorithm(spec).validate();
        assert!(matches!(err, Err(SortError::InvalidConfig(_))), "{err:?}");
    }

    #[test]
    fn zero_page_and_tuple_sizes_are_rejected_at_validate_not_construction() {
        let err = SortConfig::default().with_page_size(0).validate();
        assert!(matches!(err, Err(SortError::InvalidConfig(_))), "{err:?}");
        let err = SortConfig::default().with_tuple_size(0).validate();
        assert!(matches!(err, Err(SortError::InvalidConfig(_))), "{err:?}");
        // Pagination helpers stay total (no divide-by-zero, result >= 1) on
        // the not-yet-validated values.
        assert!(SortConfig::default().with_page_size(0).tuples_per_page() >= 1);
        assert!(SortConfig::default().with_tuple_size(0).tuples_per_page() >= 1);
    }

    #[test]
    fn zero_memory_pages_is_rejected_at_validate_not_construction() {
        let cfg = SortConfig::default().with_memory_pages(0);
        assert_eq!(cfg.memory_pages, 0, "stored as given, not clamped");
        let err = cfg.validate();
        assert!(matches!(err, Err(SortError::InvalidConfig(_))), "{err:?}");
    }

    #[test]
    fn record_stride_inlines_a_nominal_payload() {
        // 256-byte tuples: 8 of key, 248 of payload, 12 of record header.
        assert_eq!(SortConfig::default().record_stride(), 260);
        // Never below what an out-of-record payload needs.
        let tiny = SortConfig::default().with_tuple_size(4);
        assert_eq!(tiny.record_stride(), crate::layout::MIN_DENSE_STRIDE);
    }

    #[test]
    fn natural_notation_round_trips_and_validates_its_block_size() {
        let spec = AlgorithmSpec::natural();
        assert_eq!(spec.to_string(), "nat6,opt,split");
        assert_eq!("nat6,opt,split".parse::<AlgorithmSpec>().unwrap(), spec);
        assert_eq!(
            " nat1 , naive , page ".parse::<AlgorithmSpec>().unwrap(),
            AlgorithmSpec::new(
                RunFormation::natural(1),
                MergePolicy::Naive,
                MergeAdaptation::Paging
            )
        );
        assert!("nat0,opt,split".parse::<AlgorithmSpec>().is_err());
        assert!("nat,opt,split".parse::<AlgorithmSpec>().is_err());
        let zero = AlgorithmSpec {
            formation: RunFormation::natural(0),
            ..AlgorithmSpec::natural()
        };
        let err = SortConfig::default().with_algorithm(zero).validate();
        assert!(matches!(err, Err(SortError::InvalidConfig(_))), "{err:?}");
    }

    #[test]
    fn adaptive_notation_round_trips() {
        let spec = AlgorithmSpec::new(
            RunFormation::adaptive(),
            MergePolicy::Optimized,
            MergeAdaptation::DynamicSplitting,
        );
        assert_eq!(spec.to_string(), "adapt,opt,split");
        let parsed: AlgorithmSpec = "adapt,opt,split".parse().unwrap();
        assert_eq!(parsed, spec);
    }
}
