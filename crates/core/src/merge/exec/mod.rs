//! The adaptation-aware merge executor.
//!
//! One executor drives both plain sorts and sort-merge joins. Its state — a
//! [`StepArena`] plus the selection tree and the statistics — repeatedly (a)
//! polls the [`MemoryBudget`], (b) adapts — suspension, MRU paging or dynamic
//! splitting — and (c) produces roughly one output page of work on the
//! *active* step before polling again, so the sort reacts to memory
//! fluctuations with page granularity.
//!
//! That state is a value of its own (`MergeState`), separate from the store
//! and environment it runs against, which makes the merge *resumable*. Every
//! sort runs the preliminary steps first and stops once the tree is down to
//! its root step (`begin_streaming_merge`); how the root is finished is the
//! caller's choice, and all three ways live in `root.rs`. A streaming sort
//! parks the state and lets its consumer pull the root's output page by page
//! — sealed pages of records, as every step writes them, but taken by the
//! consumer instead of appended to an output run. A materialising merge
//! ([`execute_merge`]) runs the root into a fresh output run at once, which is
//! also what settling a parked root does. Only a join drives its own root,
//! matching instead of writing.
//!
//! Dynamic splitting follows paper §3.2.3 precisely:
//!
//! * the merge phase starts with a single step over **all** runs; if it does
//!   not fit it is split immediately;
//! * a shortage splits the active step into a preliminary step (fan-in chosen
//!   by the naive/optimized rule over the *shortest* remaining runs) plus the
//!   original step, which now reads the preliminary step's output run;
//! * growth switches execution back toward the final step; once a dormant
//!   child's output run is fully consumed, the child's remaining inputs are
//!   absorbed back into the consuming step (the paper's *combining*).
//!
//! Selection runs on a cache-conscious batched kernel (see
//! [`super::select`]): a loser tree over the cursors' cached head ranks picks
//! the winner in O(log fan) with no stale-entry retries, and whole slices of
//! the winning cursor's buffered page move into the out-arena in one copy
//! whenever their ranks all beat the challenger's. Batches never cross a
//! produce-unit boundary and are charged per tuple, so the budget poll /
//! adaptation cadence and every simulated CPU charge are those of a merge
//! that moves one tuple at a time (`tests/simulation_golden.rs` pins them).

use crate::budget::MemoryBudget;
use crate::config::{AlgorithmSpec, MergeAdaptation, MergePolicy, SortConfig};
use crate::env::SortEnv;
use crate::error::SortResult;
use crate::merge::cursor::RunCursor;
use crate::merge::select::LoserTree;
use crate::merge::step::{Input, Side, StepArena};
use crate::store::{RunId, RunMeta, RunStore};
use masort_trace::EventKind;
use std::collections::HashSet;

mod adapt;
mod join;
mod kernel;
mod root;
#[cfg(test)]
mod tests;

pub use join::execute_join_merge;

/// Parameters of one merge-phase execution.
#[derive(Clone, Copy, Debug)]
pub struct ExecParams {
    /// Naive or optimized merge planning.
    pub policy: MergePolicy,
    /// Merge-phase adaptation strategy.
    pub adaptation: MergeAdaptation,
    /// Minimum number of pages the merge always keeps (2 inputs + 1 output).
    pub min_pages: usize,
}

impl ExecParams {
    /// Parameters derived from an algorithm specification.
    pub fn from_algorithm(spec: &AlgorithmSpec) -> Self {
        ExecParams {
            policy: spec.policy,
            adaptation: spec.adaptation,
            min_pages: 3,
        }
    }
}

impl Default for ExecParams {
    /// The parameters of the paper's recommended `repl6,opt,split`.
    fn default() -> Self {
        ExecParams::from_algorithm(&AlgorithmSpec::recommended())
    }
}

/// Statistics describing one completed merge phase.
///
/// Compares with `==` so tests can assert that two merges behaved
/// identically.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MergeStats {
    /// Merge steps that produced at least one tuple.
    pub steps_executed: usize,
    /// Number of dynamic (or static) splits performed.
    pub splits: usize,
    /// Number of step combinations (a dormant child absorbed by its parent).
    pub combines: usize,
    /// Number of active-step switches (splits, growth switches, completions).
    pub switches: usize,
    /// Pages read from input runs.
    pub pages_read: usize,
    /// Pages written to output runs.
    pub pages_written: usize,
    /// Extra page reads caused by MRU paging faults.
    pub extra_paging_reads: usize,
    /// Pages re-fetched after suspension resumes and step switches.
    pub refetched_pages: usize,
    /// Total simulated/real time spent suspended waiting for memory.
    pub suspended_time: f64,
    /// Seconds the executor spent in store reads of its input runs.
    pub io_stall: f64,
    /// Store reads the executor issued for its input runs.
    pub sync_block_loads: usize,
    /// Always 0: nothing reads ahead on another thread. Kept only because
    /// the benchmark harness reads the field by name; goes with the next
    /// `[benchmark]` PR.
    pub prefetch_block_joins: usize,
    /// Tuples written to output runs (or consumed, for joins).
    pub tuples_output: u64,
    /// Join result pairs produced (zero for plain sorts).
    pub join_matches: u64,
    /// Environment time at which the merge phase started.
    pub started_at: f64,
    /// Environment time at which the merge phase finished.
    pub finished_at: f64,
}

impl MergeStats {
    /// Duration of the merge phase in seconds.
    pub fn duration(&self) -> f64 {
        (self.finished_at - self.started_at).max(0.0)
    }

    /// Fold in the I/O counters of a cursor that is leaving the merge.
    fn retire_cursor(&mut self, cursor: &RunCursor) {
        self.pages_read += cursor.pages_read;
        self.io_stall += cursor.io_stall;
        self.sync_block_loads += cursor.pages_read;
    }
}

/// What one [`Exec::step`] achieved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Progress {
    Produced,
    StepCompleted,
    Done,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ExecMode {
    Sort,
    Join,
}

/// Everything a merge phase carries from one produce unit to the next, apart
/// from the configuration, budget, store and environment it runs against.
///
/// Owning this (rather than a borrowed executor) is what makes a merge
/// resumable: a materialising merge keeps it on the stack for one call, a
/// streaming sort parks it inside its
/// [`SortCompletion`](crate::job::SortCompletion) and lends it to an [`Exec`]
/// each time the consumer needs another page.
#[derive(Debug)]
pub(crate) struct MergeState {
    params: ExecParams,
    mode: ExecMode,
    arena: StepArena,
    stats: MergeStats,
    /// Memory captured at merge-phase start; used for static planning by the
    /// suspension and paging strategies.
    plan_memory: usize,
    /// MRU-paging residency state (keyed by run id of the active step's inputs).
    resident: HashSet<RunId>,
    recency: Vec<RunId>,
    /// Loser tree over the active step's inputs, keyed by the cursors' head
    /// *composite* keys (`rank << 64 | tie_rank`) — the selection tree the
    /// CPU cost model already assumes, with no stale-entry retries: after the
    /// winner advances its path is replayed in O(log fan), and the whole tree
    /// is rebuilt only when the step's membership changes (splits, switches,
    /// exhausted/absorbed inputs). For exact orders the tie half is zero, so
    /// the tree degenerates to the plain rank tree. Slot `i` of the tree is
    /// input `i` of the active step.
    tree: LoserTree<u128>,
    /// True when `tree` no longer matches the active step's inputs.
    sel_dirty: bool,
    /// Observability handle captured from the environment at construction;
    /// disabled handles make every emission a single branch.
    trace: masort_trace::Trace,
    /// The current winner streak, for gallop batching: `(input, challenger)`
    /// once the same input has won twice in a row. During a streak only the
    /// winner's head moves, so the challenger — the best rival head — is
    /// computed once per streak and stays valid until the streak ends or the
    /// step's membership changes. `None` while the winner keeps alternating,
    /// in which case batching is skipped and selection costs exactly one
    /// path replay per tuple.
    streak: Option<(usize, Option<(usize, u128)>)>,
    /// True from [`Exec::begin`] until [`Exec::end_phase`]: the merge phase's
    /// closing statistics and trace event are still owed.
    open: bool,
    /// When the suspension strategy gave every buffer back and has not had
    /// them again since. Set and cleared inside one checkpoint by a merge
    /// that waits for its memory; a parked merge ([`Exec::idle_checkpoint`])
    /// can stay suspended from one checkpoint to the next.
    suspended_at: Option<f64>,
    /// The configuration's `record_stride()` and `tuples_per_page()` (a
    /// division), taken once at [`Exec::begin`] for the per-record loop.
    stride: usize,
    tpp: usize,
}

impl MergeState {
    fn new<E: SortEnv>(
        budget: &MemoryBudget,
        env: &E,
        params: ExecParams,
        mode: ExecMode,
        inputs: Vec<Input>,
    ) -> Self {
        MergeState {
            params,
            mode,
            arena: StepArena::with_root(inputs),
            stats: MergeStats::default(),
            plan_memory: budget.target().max(params.min_pages),
            resident: HashSet::new(),
            recency: Vec::new(),
            tree: LoserTree::default(),
            sel_dirty: true,
            trace: env.trace(),
            streak: None,
            open: false,
            suspended_at: None,
            stride: 0,
            tpp: 0,
        }
    }

    /// The merge statistics so far.
    pub(crate) fn stats(&self) -> &MergeStats {
        &self.stats
    }

    /// The pages the merge keeps whatever the budget says (see
    /// [`ExecParams::min_pages`]).
    pub(crate) fn min_pages(&self) -> usize {
        self.params.min_pages
    }
}

/// The merge executor: a [`MergeState`] paired, for as long as it is being
/// driven, with what it runs against.
pub(crate) struct Exec<'a, S: RunStore, E: SortEnv> {
    cfg: &'a SortConfig,
    budget: &'a MemoryBudget,
    store: &'a mut S,
    env: &'a mut E,
    st: &'a mut MergeState,
}

impl<'a, S: RunStore, E: SortEnv> Exec<'a, S, E> {
    /// Drive `st` against the given configuration, budget, store and
    /// environment (the ones it was created against).
    pub(crate) fn over(
        cfg: &'a SortConfig,
        budget: &'a MemoryBudget,
        store: &'a mut S,
        env: &'a mut E,
        st: &'a mut MergeState,
    ) -> Self {
        Exec {
            cfg,
            budget,
            store,
            env,
            st,
        }
    }

    fn effective_target(&self) -> usize {
        self.budget.target().max(self.st.params.min_pages)
    }

    // ------------------------------------------------------------------
    // Top-level drivers
    // ------------------------------------------------------------------

    /// Open the merge phase: stamp its start and announce the root step.
    fn begin(&mut self) {
        self.st.stats.started_at = self.env.now();
        self.st.open = true;
        (self.st.stride, self.st.tpp) = (self.cfg.record_stride(), self.cfg.tuples_per_page());
        self.st.trace.emit(EventKind::MergeStepStart {
            fan_in: self.st.arena.steps[self.st.arena.root()].inputs.len(),
        });
    }

    /// One adaptivity checkpoint: poll the budget, adapt. Splitting and
    /// switching happen in here, so the active step may differ afterwards.
    fn checkpoint(&mut self) -> SortResult<()> {
        self.env.poll(self.budget);
        self.adapt(true)
    }

    /// The checkpoint of a merge whose consumer is not pulling: poll and
    /// adapt as ever — a shrink is answered by splitting, paging or
    /// suspending right here — but produce nothing, and leave a suspension's
    /// wait for its memory to the next [`step`](Self::step).
    pub(crate) fn idle_checkpoint(&mut self) -> SortResult<()> {
        self.env.poll(self.budget);
        self.adapt(false)
    }

    /// A checkpoint followed by about a page of work on whichever step is
    /// active after it.
    fn step(&mut self) -> SortResult<Progress> {
        self.checkpoint()?;
        let root = self.st.arena.root();
        if self.st.arena.active == root && self.st.arena.steps[root].inputs.is_empty() {
            return Ok(Progress::Done);
        }
        self.produce_unit()
    }

    /// Close the merge phase's books, once: final statistics, every held page
    /// back to the budget, the closing trace event. Returns whether the phase
    /// was still open.
    pub(crate) fn end_phase(&mut self) -> bool {
        if !std::mem::take(&mut self.st.open) {
            return false;
        }
        self.stamp_stats();
        self.budget.record_held(0, self.env.now());
        self.st.trace.emit(EventKind::MergeStepEnd {
            tuples_out: self.st.stats.tuples_output,
        });
        true
    }

    /// Bring the derived statistics up to now.
    fn stamp_stats(&mut self) {
        self.st.stats.steps_executed = self.st.arena.executed_steps();
        self.st.stats.finished_at = self.env.now();
    }
}

/// Begin merging `runs` for a streaming sort: the root step gets no output
/// run, preliminary steps the budget demands are run (and written) now, and
/// the state is returned with the root active — ready for
/// [`Exec::next_root_page`] to pull sorted tuples out of it.
pub(crate) fn begin_streaming_merge<S: RunStore, E: SortEnv>(
    cfg: &SortConfig,
    budget: &MemoryBudget,
    runs: &[RunMeta],
    store: &mut S,
    env: &mut E,
    params: ExecParams,
) -> SortResult<MergeState> {
    let inputs = runs.iter().map(|r| Input::from_meta(*r, Side::Left));
    let mut st = MergeState::new(budget, env, params, ExecMode::Sort, inputs.collect());
    Exec::over(cfg, budget, store, env, &mut st).run_to_root()?;
    Ok(st)
}
