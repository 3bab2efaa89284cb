//! # masort-core — Memory-Adaptive External Sorting
//!
//! This crate implements the algorithms described in *"Memory-Adaptive External
//! Sorting"* (Pang, Carey & Livny, VLDB 1993): external sorts (and sort-merge
//! joins) that keep executing correctly and efficiently while the amount of
//! memory allocated to them **shrinks and grows during their lifetime**.
//!
//! The crate is organised around the paper's decomposition of an external sort:
//!
//! * **Split phase** ([`run_formation`]) — an in-memory sorting method consumes
//!   the input relation and produces sorted runs. The paper's three methods
//!   are Quicksort (`quick`), replacement selection (`repl1`), and replacement
//!   selection with N-page block writes (`replN`). Two more build on the
//!   last: natural-run replacement selection (`natN`, the default), which
//!   lets stretches of the input that are already ascending or descending
//!   extend its runs, and replacement selection whose block size tracks
//!   memory (`adapt`). All of them react to memory shrink requests by
//!   writing tuples out and to growth by absorbing more input pages.
//! * **Merge phase** ([`merge`]) — merge steps combine runs into the final
//!   sorted result. Two planning policies (naive / optimized) and three
//!   adaptation strategies are provided: *suspension*, *MRU paging* and the
//!   paper's **dynamic splitting**, which splits an executing merge step into
//!   sub-steps that fit the reduced memory and re-combines steps when memory
//!   returns.
//! * **Sort-merge join** ([`join`]) — the same machinery extended to joins
//!   (Section 6 of the paper), with preliminary merge steps restricted to runs
//!   of a single relation.
//!
//! ## The `SortJob` API
//!
//! The documented entry point is the [`SortJob`] builder: it owns the input,
//! run store, environment and memory budget (with sensible defaults),
//! validates the configuration before any data moves, and returns a result
//! that can be **streamed** tuple by tuple or collected. The stream executes
//! the sort's final merge step (see [`stream`]), so the sorted relation is
//! never written out and read back:
//!
//! ```
//! use masort_core::prelude::*;
//!
//! let tuples: Vec<Tuple> = (0..2_000u64)
//!     .map(|i| Tuple::synthetic(i.wrapping_mul(0x9E3779B97F4A7C15), 256))
//!     .collect();
//!
//! let completion = SortJob::builder()
//!     .config(SortConfig::default().with_memory_pages(16))
//!     .tuples(tuples)
//!     .build()?
//!     .run()?;
//!
//! let mut previous = None;
//! for tuple in completion.into_stream() {
//!     let tuple = tuple?; // I/O and corruption surface here, not as panics
//!     assert!(previous.is_none_or(|p| p <= tuple.key));
//!     previous = Some(tuple.key);
//! }
//! # Ok::<(), masort_core::SortError>(())
//! ```
//!
//! Descending and normalized-key orders work with every algorithm combination
//! via [`SortOrder`]:
//!
//! ```
//! use masort_core::prelude::*;
//!
//! let sorted = SortJob::builder()
//!     .config(SortConfig::default().with_memory_pages(8))
//!     .descending()
//!     .tuples((0..500u64).map(|k| Tuple::synthetic(k, 64)).collect())
//!     .build()?
//!     .run()?
//!     .into_sorted_vec()?;
//! assert_eq!(sorted.first().unwrap().key, 499);
//! # Ok::<(), masort_core::SortError>(())
//! ```
//!
//! Everything that moves data is fallible: [`InputSource`], [`RunStore`], the
//! sort and join entry points and the output stream all return
//! `Result<_, `[`SortError`]`>`, so disk failures and corrupt run files
//! surface to the caller instead of panicking inside the merge loop.
//!
//! ## Abstractions
//!
//! The algorithms operate on real tuples through three small abstractions so
//! that the *same* code drives both production use and the paper's simulation
//! harness (`masort-dbsim`):
//!
//! * [`InputSource`] — where input pages come from,
//! * [`RunStore`] — where sorted runs live (in memory, temp files, or a
//!   simulated disk),
//! * [`SortEnv`] — clock + CPU-cost accounting + "wait for memory" hook.
//!
//! Memory is governed by a shared [`MemoryBudget`] handle: the owner (a DBMS
//! buffer manager, another thread, or a simulation) moves the page target up
//! and down; the sorter polls it at well-defined adaptation points, releases
//! buffers when asked, and records how long each release took (the paper's
//! split-phase / merge-phase *delays*).

pub mod budget;
pub mod config;
pub mod env;
pub mod error;
pub mod gensort;
pub mod input;
pub mod job;
pub mod join;
pub mod layout;
pub mod merge;
pub mod order;
pub mod run_formation;
pub mod sorter;
pub mod store;
pub mod stream;
pub mod tuple;
pub mod verify;

/// The masort synchronisation shim (re-exported from `masort-check`).
///
/// All blocking synchronisation in the masort crates goes through this
/// module instead of `std::sync` — transparent wrappers in release builds,
/// lock-order-witnessed in debug builds, and instrumented for the
/// deterministic interleaving explorer under `--cfg masort_check`. The
/// `lint-sync` binary in masort-check enforces the rule.
pub mod sync {
    #[doc(no_inline)]
    pub use masort_check::sync::*;
}

pub use budget::{DelaySample, MemoryBudget, SortPhase};
pub use config::{AlgorithmSpec, MergeAdaptation, MergePolicy, RunFormation, SortConfig};
pub use env::{CpuOp, RealEnv, SortEnv};
pub use error::{SortError, SortResult};
pub use gensort::{
    gensort_order, record_bytes, tuple_from_record, GensortFileSource, GensortWriter,
};
pub use input::{ChannelSink, ChannelSource, GenOrder, GenSource, InputSource, Unsplit, VecSource};
pub use job::{IntoInputSource, SortCompletion, SortJob, SortJobBuilder, TupleInput};
pub use join::{JoinOutcome, SortMergeJoin};
pub use layout::{PayloadRef, TupleArena, MIN_DENSE_STRIDE};
pub use merge::{MergeStats, StaticPlanSummary};
pub use order::{normalized_prefix, SortOrder};
pub use run_formation::SplitStats;
pub use sorter::SortOutcome;
pub use store::{
    BlockReadJob, FileStore, IoPool, MemStore, RunDirection, RunId, RunMeta, RunStore,
};
pub use stream::SortedStream;
pub use tuple::{Page, Payload, Tuple};

/// Convenient glob import of the most commonly used types.
pub mod prelude {
    pub use crate::budget::{MemoryBudget, SortPhase};
    pub use crate::config::{
        AlgorithmSpec, MergeAdaptation, MergePolicy, RunFormation, SortConfig,
    };
    pub use crate::env::{CpuOp, RealEnv, SortEnv};
    pub use crate::error::{SortError, SortResult};
    pub use crate::input::{
        ChannelSink, ChannelSource, GenOrder, GenSource, InputSource, Unsplit, VecSource,
    };
    pub use crate::job::{IntoInputSource, SortCompletion, SortJob, SortJobBuilder, TupleInput};
    pub use crate::join::{JoinOutcome, SortMergeJoin};
    pub use crate::order::SortOrder;
    pub use crate::sorter::SortOutcome;
    pub use crate::store::{FileStore, MemStore, RunDirection, RunId, RunMeta, RunStore};
    pub use crate::stream::SortedStream;
    pub use crate::tuple::{Page, Payload, Tuple};
}
