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
//! and environment it runs against, which makes the merge *resumable*: a
//! materialising merge ([`execute_merge`]) and a join drive it to the end in
//! one call, while a streaming sort stops once the tree is down to its root
//! step, parks the state, and lets the consumer pull the root's output page
//! by page — sealed pages of records, as every step writes them, but taken by
//! the consumer instead of appended to an output run.
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
use crate::config::{MergeAdaptation, MergePolicy, SortConfig};
use crate::env::{CpuOp, SortEnv};
use crate::error::SortResult;
use crate::layout::TupleArena;
use crate::merge::cursor::RunCursor;
use crate::merge::plan::preliminary_fan_in;
use crate::merge::select::LoserTree;
use crate::merge::step::{Input, Side, StepArena};
use crate::store::{RunId, RunMeta, RunStore};
use crate::tuple::{Page, Tuple};
use masort_trace::EventKind;
use std::collections::HashSet;

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
    pub fn from_algorithm(spec: &crate::config::AlgorithmSpec) -> Self {
        ExecParams {
            policy: spec.policy,
            adaptation: spec.adaptation,
            min_pages: 3,
        }
    }
}

impl Default for ExecParams {
    fn default() -> Self {
        ExecParams {
            policy: MergePolicy::Optimized,
            adaptation: MergeAdaptation::DynamicSplitting,
            min_pages: 3,
        }
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
        output: Option<RunId>,
    ) -> Self {
        MergeState {
            params,
            mode,
            arena: StepArena::with_root(inputs, output),
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
    // Adaptation
    // ------------------------------------------------------------------

    /// `wait` is false at the checkpoint of a parked merge, which has nothing
    /// to produce and so no reason to block until suspended memory returns.
    fn adapt(&mut self, wait: bool) -> SortResult<()> {
        // The merge-phase adaptivity checkpoint doubles as the cancellation
        // point: an owner-cancelled sort aborts here, before doing any more
        // merge work, and its pages are released with the cursors.
        if self.budget.is_cancelled() {
            self.budget.record_held(0, self.env.now());
            return Err(crate::error::SortError::Cancelled);
        }
        match self.st.params.adaptation {
            MergeAdaptation::DynamicSplitting => self.adapt_dynamic()?,
            MergeAdaptation::Suspension => self.adapt_static(true, wait)?,
            MergeAdaptation::Paging => self.adapt_static(false, wait)?,
        }
        Ok(())
    }

    fn adapt_dynamic(&mut self) -> SortResult<()> {
        let target = self.effective_target();
        let need = self.st.arena.active_step().pages_needed();
        if need > target && self.st.arena.active_step().inputs.len() > 2 {
            self.do_split(target)?;
        } else if target > need {
            // Combine only when memory actually grew past what it was when the
            // active step was split off; otherwise a freshly created
            // preliminary step would immediately bounce back to its parent.
            let grew = target > self.st.arena.active_step().created_target;
            if grew {
                if let Some(parent) = self.st.arena.active_step().parent {
                    if self.st.arena.steps[parent].pages_needed() <= target {
                        self.switch_to_parent()?;
                    }
                }
            }
        }
        let need_now = self.st.arena.active_step().pages_needed();
        self.budget
            .record_held(need_now.min(target), self.env.now());
        Ok(())
    }

    fn adapt_static(&mut self, suspend: bool, wait: bool) -> SortResult<()> {
        // Static planning: split with the memory available when the merge
        // phase began, never re-plan afterwards (paper §3.2.1/§3.2.2).
        while self.st.arena.active_step().pages_needed() > self.st.plan_memory
            && self.st.arena.active_step().inputs.len() > 2
        {
            self.do_split(self.st.plan_memory)?;
        }
        let target = self.effective_target();
        let need = self.st.arena.active_step().pages_needed();
        if suspend {
            if need > target && self.st.suspended_at.is_none() {
                // Give every buffer back, then stop until the memory returns.
                self.budget.record_held(0, self.env.now());
                self.st.trace.emit(EventKind::Suspend { need, target });
                self.st.suspended_at = Some(self.env.now());
            }
            if let Some(waited_from) = self.st.suspended_at {
                if need > self.effective_target() {
                    if !wait {
                        return Ok(());
                    }
                    let _granted = self.env.wait_for_pages(self.budget, need);
                }
                self.st.suspended_at = None;
                let waited = self.env.now() - waited_from;
                self.st.stats.suspended_time += waited;
                self.st.trace.emit(EventKind::Resume { waited });
                // Fetch all the input buffers together on resume (one batch).
                let refetch = need.saturating_sub(1);
                self.env.charge_extra_read(refetch);
                self.st.stats.refetched_pages += refetch;
            }
            let target_now = self.effective_target();
            self.budget
                .record_held(need.min(target_now), self.env.now());
        } else {
            if need <= target {
                self.st.resident.clear();
                self.st.recency.clear();
            }
            self.budget.record_held(need.min(target), self.env.now());
        }
        Ok(())
    }

    fn do_split(&mut self, memory: usize) -> SortResult<()> {
        let active = self.st.arena.active;
        let n = self.st.arena.steps[active].inputs.len();
        // `memory` is floored at `min_pages >= 3` by every caller, so the
        // starved-planner error cannot fire here; `?` keeps it honest anyway.
        let fan = preliminary_fan_in(n, memory, self.st.params.policy)?
            .unwrap_or_else(|| memory.saturating_sub(1).max(2))
            .min(n.saturating_sub(1))
            .max(2);
        let (indices, side) = match self.st.mode {
            ExecMode::Sort => (
                self.st
                    .arena
                    .shortest_inputs(&*self.store, active, fan, None),
                Side::Left,
            ),
            ExecMode::Join => {
                if self.st.arena.active != self.st.arena.root() {
                    // Preliminary steps are single-relation by construction.
                    let side = self.st.arena.steps[active]
                        .inputs
                        .first()
                        .map_or(Side::Left, |i| i.side);
                    (
                        self.st
                            .arena
                            .shortest_inputs(&*self.store, active, fan, Some(side)),
                        side,
                    )
                } else {
                    self.choose_join_split(fan)
                }
            }
        };
        if indices.len() < 2 {
            return Ok(()); // cannot split any further
        }
        let child_out = self.store.create_run()?;
        self.st.arena.split_active(indices, child_out, side, memory);
        self.st.stats.splits += 1;
        self.st.trace.emit(EventKind::Split { target: memory });
        self.charge_switch();
        self.reset_paging_state();
        Ok(())
    }

    /// Pick the relation (and run indices) for a preliminary step of a join
    /// root, following paper §6: prefer the relation whose `fan` shortest runs
    /// are smaller overall; if one relation has too few runs, pick the one
    /// with more runs so no extra merge steps are introduced.
    fn choose_join_split(&mut self, fan: usize) -> (Vec<usize>, Side) {
        let root = self.st.arena.root();
        let n_left = self.st.arena.steps[root].side_count(Side::Left);
        let n_right = self.st.arena.steps[root].side_count(Side::Right);
        let sum_shortest = |exec: &Self, side: Side| -> usize {
            let idx = exec
                .st
                .arena
                .shortest_inputs(&*exec.store, root, fan, Some(side));
            idx.iter()
                .map(|&i| {
                    exec.st.arena.steps[root].inputs[i]
                        .cursor
                        .remaining_pages(&*exec.store)
                })
                .sum()
        };
        let side = if n_left >= fan && n_right >= fan {
            if sum_shortest(self, Side::Left) <= sum_shortest(self, Side::Right) {
                Side::Left
            } else {
                Side::Right
            }
        } else if n_left >= fan {
            Side::Left
        } else if n_right >= fan {
            Side::Right
        } else if n_left >= n_right {
            Side::Left
        } else {
            Side::Right
        };
        let count = self.st.arena.steps[root].side_count(side);
        let take = fan.min(count);
        (
            self.st
                .arena
                .shortest_inputs(&*self.store, root, take, Some(side)),
            side,
        )
    }

    fn switch_to_parent(&mut self) -> SortResult<()> {
        self.flush_active_output(true)?;
        if let Some(parent) = self.st.arena.active_step().parent {
            self.st.arena.active = parent;
            self.charge_switch();
            self.reset_paging_state();
        }
        Ok(())
    }

    fn charge_switch(&mut self) {
        let pages = self.st.arena.active_step().inputs.len();
        self.env.charge_extra_read(pages);
        self.st.stats.refetched_pages += pages;
        self.st.stats.switches += 1;
        self.st.trace.emit(EventKind::Switch);
        self.st.sel_dirty = true;
    }

    fn reset_paging_state(&mut self) {
        self.st.resident.clear();
        self.st.recency.clear();
    }

    // ------------------------------------------------------------------
    // Producing output
    // ------------------------------------------------------------------

    /// Find the input on `side` whose next tuple has the smallest *composite*
    /// key under the configured [`crate::order::SortOrder`] — the whole key,
    /// tie bytes included. Exhausted inputs encountered along the way are
    /// removed (and their producing steps absorbed). Returns `(input index,
    /// composite)`.
    fn min_input(&mut self, side: Side) -> SortResult<Option<(usize, u128)>> {
        let mut best: Option<(usize, u128)> = None;
        let mut i = 0;
        loop {
            let active = self.st.arena.active;
            let len = self.st.arena.steps[active].inputs.len();
            if i >= len {
                break;
            }
            if self.st.arena.steps[active].inputs[i].side != side {
                i += 1;
                continue;
            }
            let head = self.st.arena.steps[active].inputs[i]
                .cursor
                .peek_composite(&self.cfg.order, self.store, self.env)?;
            match head {
                Some(k) => {
                    if best.is_none_or(|(_, bk)| k < bk) {
                        best = Some((i, k));
                    }
                    i += 1;
                }
                None => {
                    self.handle_exhausted_input(i)?;
                    best = None;
                    i = 0;
                }
            }
        }
        let active = self.st.arena.active;
        let fan = self.st.arena.steps[active].inputs.len().max(1) as u64;
        // Cost of selecting the minimum with a selection tree / heap.
        self.env
            .charge_cpu(CpuOp::Compare, (64 - fan.leading_zeros() as u64).max(1));
        Ok(best)
    }

    fn handle_exhausted_input(&mut self, idx: usize) -> SortResult<()> {
        let active = self.st.arena.active;
        let cursor = &self.st.arena.steps[active].inputs[idx].cursor;
        let run = cursor.run;
        self.st.stats.retire_cursor(cursor);
        let absorbed = self.st.arena.remove_input(active, idx);
        self.store.delete_run(run)?;
        if absorbed.is_some() {
            self.st.stats.combines += 1;
            self.st.trace.emit(EventKind::Combine);
        }
        self.reset_paging_state();
        // Inputs renumbered (swap_remove / absorbed children).
        self.st.sel_dirty = true;
        Ok(())
    }

    fn pop_input(&mut self, idx: usize) -> SortResult<Tuple> {
        let active = self.st.arena.active;
        let run = self.st.arena.steps[active].inputs[idx].cursor.run;
        self.note_access(run);
        let t = self.st.arena.steps[active].inputs[idx]
            .cursor
            .pop(&self.cfg.order, self.store, self.env)?
            .expect("input had a peeked tuple");
        self.env.charge_cpu(CpuOp::CopyTuple, 1);
        Ok(t)
    }

    /// MRU paging bookkeeping: charge a fault when the accessed run's buffer
    /// is not resident while memory is short, and evict the most recently
    /// used other buffer when over capacity (paper §3.2.2).
    fn note_access(&mut self, run: RunId) {
        if self.st.params.adaptation != MergeAdaptation::Paging {
            return;
        }
        let target = self.effective_target();
        let need = self.st.arena.active_step().pages_needed();
        if need <= target {
            return;
        }
        let capacity = target.saturating_sub(1).max(1);
        if self.st.resident.contains(&run) {
            self.st.recency.retain(|r| *r != run);
            self.st.recency.push(run);
            return;
        }
        self.st.stats.extra_paging_reads += 1;
        self.env.charge_extra_read(1);
        self.st.resident.insert(run);
        self.st.recency.retain(|r| *r != run);
        self.st.recency.push(run);
        if self.st.resident.len() > capacity {
            // Evict the most recently used buffer other than the one we just
            // brought in.
            if self.st.recency.len() >= 2 {
                let victim = self.st.recency.remove(self.st.recency.len() - 2);
                self.st.resident.remove(&victim);
            }
        }
    }

    /// Append the pages the active step's out-arena has filled to its output
    /// run — at the end of a produce unit, so a unit's reads all come before
    /// its write — and with `force` (step switch / completion) the partial
    /// page too. The root of a streaming sort has no output run: its sealed
    /// pages wait for its consumer ([`next_root_page`](Self::next_root_page)).
    /// A join's root produces none.
    fn flush_active_output(&mut self, force: bool) -> SortResult<()> {
        let step = &mut self.st.arena.steps[self.st.arena.active];
        if let Some(arena) = step.out_arena.as_mut().filter(|a| force && !a.is_empty()) {
            step.sealed.push(arena.seal());
        }
        let Some(out) = step.output else {
            return Ok(());
        };
        for page in std::mem::take(&mut step.sealed) {
            self.env.charge_cpu(CpuOp::StartIo, 1);
            self.store.append_page(out, page)?;
            self.st.stats.pages_written += 1;
        }
        Ok(())
    }

    fn complete_active(&mut self) -> SortResult<Progress> {
        self.flush_active_output(true)?;
        let active = self.st.arena.active;
        self.st.arena.steps[active].completed = true;
        Ok(match self.st.arena.steps[active].parent {
            None => Progress::Done,
            Some(parent) => {
                self.st.arena.active = parent;
                self.charge_switch();
                self.reset_paging_state();
                Progress::StepCompleted
            }
        })
    }

    /// Rebuild the loser tree from the active step's live inputs, removing
    /// exhausted inputs (and absorbing their producer steps) along the way —
    /// the same sweep `min_input` performs. After this, slot `i` of the tree
    /// holds input `i`'s cached head rank and every slot is occupied.
    fn rebuild_selection(&mut self) -> SortResult<()> {
        let mut heads: Vec<Option<u128>> = Vec::new();
        let mut i = 0;
        loop {
            let active = self.st.arena.active;
            if i >= self.st.arena.steps[active].inputs.len() {
                break;
            }
            let key = self.st.arena.steps[active].inputs[i]
                .cursor
                .peek_composite(&self.cfg.order, self.store, self.env)?;
            match key {
                Some(r) => {
                    heads.push(Some(r));
                    i += 1;
                }
                None => {
                    self.handle_exhausted_input(i)?;
                    heads.clear();
                    i = 0;
                }
            }
        }
        self.st.tree.rebuild(heads);
        self.st.sel_dirty = false;
        self.st.streak = None;
        Ok(())
    }

    /// Selection-tree cost for `tuples` selections at the current fan-in, as
    /// in paper Table 4 — per tuple, however many of them one move carries.
    fn charge_selection(&mut self, tuples: u64) {
        let active = self.st.arena.active;
        let fan = self.st.arena.steps[active].inputs.len().max(1) as u64;
        self.env.charge_cpu(
            CpuOp::Compare,
            (64 - fan.leading_zeros() as u64).max(1) * tuples,
        );
    }

    /// Re-key the just-advanced input `idx` (the tree's current winner) with
    /// its next head composite and replay its path. The rank half comes
    /// straight from the cursor's cached column — no `SortOrder` round trip;
    /// a store read only happens when the buffered page ran out. An exhausted
    /// input is removed (possibly absorbing its producer step), which marks
    /// the tree for rebuild.
    fn rearm_winner(&mut self, idx: usize) -> SortResult<()> {
        let active = self.st.arena.active;
        let key = self.st.arena.steps[active].inputs[idx]
            .cursor
            .peek_composite(&self.cfg.order, self.store, self.env)?;
        match key {
            Some(r) => self.st.tree.replay_winner(Some(r)),
            None => self.handle_exhausted_input(idx)?,
        }
        Ok(())
    }

    /// Move the next `n` buffered tuples of input `idx`, as records, into the
    /// active step's out-arena — the root of a streaming sort included, so no
    /// step builds a [`Tuple`] — and re-key the input.
    fn move_out(&mut self, idx: usize, n: usize) -> SortResult<()> {
        let (stride, tpp) = (self.st.stride, self.st.tpp);
        let step = &mut self.st.arena.steps[self.st.arena.active];
        let arena = step
            .out_arena
            .get_or_insert_with(|| TupleArena::with_capacity(stride, tpp));
        step.inputs[idx].cursor.take_batch_arena(n, arena);
        // A full page is sealed at once (the arena never holds more) and
        // appended, or handed out, when the produce unit ends.
        if arena.len() == tpp {
            step.sealed.push(arena.seal());
        }
        step.produced_anything = true;
        self.st.stats.tuples_output += n as u64;
        self.rearm_winner(idx)
    }

    /// Move one tuple from the winning input `idx` to the output (one
    /// selection, one copy, one path replay).
    fn produce_one(&mut self, idx: usize) -> SortResult<()> {
        self.charge_selection(1);
        let active = self.st.arena.active;
        let run = self.st.arena.steps[active].inputs[idx].cursor.run;
        self.note_access(run);
        self.env.charge_cpu(CpuOp::CopyTuple, 1);
        self.move_out(idx, 1)
    }

    /// Move one gallop batch from the winning input `idx` to the output: the
    /// leading run of buffered tuples that all still beat `challenger`,
    /// capped at `max` (the remainder of the current produce unit, so
    /// adaptation checkpoints keep their page cadence). Returns the number of
    /// tuples moved (at least one — the winner's own head beats the
    /// challenger by definition).
    ///
    /// The CPU cost is charged per tuple, as [`produce_one`](Self::produce_one)
    /// charges it (selection + copy per tuple, MRU access once per same-run
    /// streak, which is what repeated `note_access` calls amount to), so
    /// simulated figures do not depend on how long the batches were.
    fn produce_batch(
        &mut self,
        idx: usize,
        challenger: Option<(usize, u128)>,
        max: usize,
    ) -> SortResult<usize> {
        // The winner keeps winning while its (composite, index) pair stays
        // below the challenger's. The gallop bound is the challenger's *rank*
        // (the composite's high half, the only part the cached rank column
        // can binary-search): strictly smaller ranks always win, and a rank
        // tie is only surely the winner's when ranks are the whole story —
        // with tie ranks in play, rank-equal heads go back through the tree.
        let (bound, inclusive) = match challenger {
            Some((c_idx, c)) => (
                Some((c >> 64) as u64),
                self.cfg.order.rank_is_exact() && idx < c_idx,
            ),
            None => (None, false),
        };
        let active = self.st.arena.active;
        // Out-pages seal at exactly one page of records; cap the batch at
        // the room left so the arena never crosses a page boundary.
        let max = match self.st.arena.steps[active].out_arena.as_ref() {
            Some(a) => max.min(self.st.tpp - a.len()),
            None => max,
        };
        let n = self.st.arena.steps[active].inputs[idx]
            .cursor
            .gallop_len(bound, inclusive, max)
            .max(1);
        self.charge_selection(1);
        let run = self.st.arena.steps[active].inputs[idx].cursor.run;
        self.note_access(run);
        if n > 1 {
            self.charge_selection(n as u64 - 1);
        }
        self.env.charge_cpu(CpuOp::CopyTuple, n as u64);
        self.move_out(idx, n)?;
        Ok(n)
    }

    /// Produce roughly one output page of merged tuples on the active step.
    fn produce_unit(&mut self) -> SortResult<Progress> {
        let tpp = self.st.tpp;
        let mut produced = 0usize;
        while produced < tpp {
            if self.st.sel_dirty {
                self.rebuild_selection()?;
            }
            let Some((idx, _rank)) = self.st.tree.winner() else {
                return self.complete_active();
            };
            match self.st.streak {
                // Established streak: gallop against the cached challenger.
                Some((winner, challenger)) if winner == idx => {
                    produced += self.produce_batch(idx, challenger, tpp - produced)?;
                }
                // First win (or a new winner): take one tuple the cheap way —
                // the replay it does anyway tells us whether a streak starts.
                // Only then pay one challenger walk for the whole streak.
                // This keeps adversarial inputs (winner alternating every
                // tuple) at one replay per tuple.
                _ => {
                    self.produce_one(idx)?;
                    produced += 1;
                    self.st.streak = if !self.st.sel_dirty
                        && self.st.tree.winner().map(|(w, _)| w) == Some(idx)
                    {
                        Some((idx, self.st.tree.challenger()))
                    } else {
                        None
                    };
                }
            }
            // A streak (and its cached challenger) only survives while the
            // same input keeps winning and the membership is unchanged.
            if self.st.sel_dirty
                || self.st.tree.winner().map(|(w, _)| w) != self.st.streak.map(|(w, _)| w)
            {
                self.st.streak = None;
            }
        }
        self.flush_active_output(false)?;
        Ok(Progress::Produced)
    }

    /// Produce roughly one page worth of join work on the root step.
    ///
    /// Tuples are matched on equal *composite* keys, which coincide with equal
    /// whole keys for every [`crate::order::SortOrder`] (the direction mapping
    /// is a bijection, and a normalized key's bytes past the eighth are the
    /// tie half), so joins work identically for ascending, descending and
    /// normalized-key orders.
    fn produce_unit_join(
        &mut self,
        on_match: &mut dyn FnMut(&Tuple, &Tuple),
    ) -> SortResult<Progress> {
        let tpp = self.cfg.tuples_per_page();
        let mut processed = 0usize;
        while processed < tpp {
            // NOTE: a `min_input` call may remove exhausted inputs (and absorb
            // dormant child steps), which renumbers the remaining inputs — so
            // an input *index* must never be held across another `min_input`
            // call. Only the keys are kept here; the index is re-resolved
            // immediately before each pop.
            let lkey = self.min_input(Side::Left)?.map(|(_, k)| k);
            let rkey = self.min_input(Side::Right)?.map(|(_, k)| k);
            let (lk, rk) = match (lkey, rkey) {
                (Some(l), Some(r)) => (l, r),
                // One side exhausted: no further matches are possible.
                _ => return self.complete_active(),
            };
            self.env.charge_cpu(CpuOp::JoinProbe, 1);
            let active = self.st.arena.active;
            self.st.arena.steps[active].produced_anything = true;
            if lk < rk {
                if let Some((idx, _)) = self.min_input(Side::Left)? {
                    self.pop_input(idx)?;
                    self.st.stats.tuples_output += 1;
                    processed += 1;
                }
            } else if rk < lk {
                if let Some((idx, _)) = self.min_input(Side::Right)? {
                    self.pop_input(idx)?;
                    self.st.stats.tuples_output += 1;
                    processed += 1;
                }
            } else {
                let key = lk;
                // Gather the full right-hand group for this key.
                let mut group: Vec<Tuple> = Vec::new();
                while let Some((ri, rk)) = self.min_input(Side::Right)? {
                    if rk != key {
                        break;
                    }
                    group.push(self.pop_input(ri)?);
                    self.st.stats.tuples_output += 1;
                    processed += 1;
                }
                // Every left tuple with this key matches the whole group.
                while let Some((li, lk)) = self.min_input(Side::Left)? {
                    if lk != key {
                        break;
                    }
                    let lt = self.pop_input(li)?;
                    self.st.stats.tuples_output += 1;
                    processed += 1;
                    for rt in &group {
                        self.env.charge_cpu(CpuOp::JoinProbe, 1);
                        self.env.charge_cpu(CpuOp::CopyTuple, 1);
                        on_match(&lt, rt);
                        self.st.stats.join_matches += 1;
                    }
                }
            }
        }
        Ok(Progress::Produced)
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

    fn run_sort(&mut self) -> SortResult<()> {
        self.begin();
        while self.step()? != Progress::Done {}
        self.end_phase();
        Ok(())
    }

    /// Run preliminary steps until the root is the active step again. The
    /// statistics are stamped as of the return, so a caller that parks the
    /// state sees a consistent (if partial) picture of the phase.
    fn run_to_root(&mut self) -> SortResult<()> {
        self.begin();
        loop {
            self.checkpoint()?;
            if self.st.arena.active == self.st.arena.root() {
                break;
            }
            self.produce_unit()?;
        }
        self.stamp_stats();
        Ok(())
    }

    /// The next sealed page of the root step's output (the root of a
    /// streaming sort writes no run), or `None` once the merge is complete.
    /// Budget polls, suspension, paging and dynamic splitting all keep
    /// happening in here: a shrink can make this call run (and write)
    /// preliminary steps before the root yields again.
    pub(crate) fn next_root_page(&mut self) -> SortResult<Option<Page>> {
        let root = self.st.arena.root();
        loop {
            let step = &mut self.st.arena.steps[root];
            if !step.sealed.is_empty() {
                return Ok(Some(step.sealed.remove(0)));
            }
            if step.completed {
                return Ok(None);
            }
            if self.step()? == Progress::Done {
                self.st.arena.steps[root].completed = true;
            }
        }
    }

    /// Run whatever is left of the merge into one output run and leave the
    /// tree as a fan-in-1 root over it — which is what a lone stored run (or
    /// no run at all) already is, so those settle for free.
    pub(crate) fn settle(&mut self) -> SortResult<()> {
        let root = self.st.arena.root();
        let inputs = &self.st.arena.steps[root].inputs;
        if inputs.len() <= 1 && inputs.iter().all(|i| i.producer.is_none()) {
            return Ok(());
        }
        let out = self.store.create_run()?;
        self.st.arena.steps[root].output = Some(out);
        while self.step()? != Progress::Done {}
        let step = &mut self.st.arena.steps[root];
        step.output = None;
        step.completed = false;
        step.inputs.push(Input::from_run(out, Side::Left));
        self.st.sel_dirty = true;
        Ok(())
    }

    /// End the merge wherever it stands: delete every run the tree still
    /// references (inputs, and output runs of steps that were cut short),
    /// then [`end_phase`](Self::end_phase), whose answer is passed on.
    /// Deletion failures are ignored — this runs on drop and error paths.
    /// The root is marked completed, so the state yields nothing afterwards;
    /// closing twice finds nothing left to do.
    pub(crate) fn close(&mut self) -> bool {
        for step in &mut self.st.arena.steps {
            step.sealed.clear();
            for input in step.inputs.drain(..) {
                self.st.stats.retire_cursor(&input.cursor);
                let _ = self.store.delete_run(input.cursor.run);
            }
            if let Some(out) = step.output.take() {
                let _ = self.store.delete_run(out);
            }
        }
        let root = self.st.arena.root();
        self.st.arena.steps[root].completed = true;
        self.end_phase()
    }

    fn run_join(&mut self, on_match: &mut dyn FnMut(&Tuple, &Tuple)) -> SortResult<()> {
        self.begin();
        loop {
            self.checkpoint()?;
            let progress = if self.st.arena.active == self.st.arena.root() {
                if self.st.arena.steps[self.st.arena.root()].inputs.is_empty() {
                    break;
                }
                self.produce_unit_join(on_match)?
            } else {
                self.produce_unit()?
            };
            if progress == Progress::Done {
                break;
            }
        }
        self.end_phase();
        Ok(())
    }
}

fn sort_inputs(runs: &[RunMeta]) -> Vec<Input> {
    runs.iter()
        .map(|r| Input::from_meta(*r, Side::Left))
        .collect()
}

/// Merge `runs` into a single sorted output run, adapting to memory
/// fluctuations according to `params`. Returns the output run id and the
/// merge statistics.
pub fn execute_merge<S: RunStore, E: SortEnv>(
    cfg: &SortConfig,
    budget: &MemoryBudget,
    runs: &[RunMeta],
    store: &mut S,
    env: &mut E,
    params: ExecParams,
) -> SortResult<(RunId, MergeStats)> {
    let output = store.create_run()?;
    let mode = ExecMode::Sort;
    let mut st = MergeState::new(budget, env, params, mode, sort_inputs(runs), Some(output));
    Exec::over(cfg, budget, store, env, &mut st).run_sort()?;
    Ok((output, st.stats))
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
    let mode = ExecMode::Sort;
    let mut st = MergeState::new(budget, env, params, mode, sort_inputs(runs), None);
    Exec::over(cfg, budget, store, env, &mut st).run_to_root()?;
    Ok(st)
}

/// Merge-join two sets of runs (one per relation), adapting to memory
/// fluctuations. `on_match` is called once per joined pair.
#[allow(clippy::too_many_arguments)]
pub fn execute_join_merge<S: RunStore, E: SortEnv>(
    cfg: &SortConfig,
    budget: &MemoryBudget,
    left_runs: &[RunMeta],
    right_runs: &[RunMeta],
    store: &mut S,
    env: &mut E,
    params: ExecParams,
    on_match: &mut dyn FnMut(&Tuple, &Tuple),
) -> SortResult<MergeStats> {
    let mut inputs: Vec<Input> = Vec::with_capacity(left_runs.len() + right_runs.len());
    inputs.extend(left_runs.iter().map(|r| Input::from_meta(*r, Side::Left)));
    inputs.extend(right_runs.iter().map(|r| Input::from_meta(*r, Side::Right)));
    let mut st = MergeState::new(budget, env, params, ExecMode::Join, inputs, None);
    Exec::over(cfg, budget, store, env, &mut st).run_join(on_match)?;
    Ok(st.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MergeAdaptation, MergePolicy};
    use crate::env::CountingEnv;
    use crate::store::MemStore;
    use crate::tuple::paginate;
    use crate::verify::{assert_sorted_permutation, collect_run};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Build `n_runs` sorted runs of random lengths in a fresh store and
    /// return the metadata plus the flattened input tuples.
    fn make_runs(
        n_runs: usize,
        avg_pages: usize,
        seed: u64,
    ) -> (MemStore, Vec<RunMeta>, Vec<Tuple>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = MemStore::new();
        let mut metas = Vec::new();
        let mut all = Vec::new();
        let tpp = 8;
        for _ in 0..n_runs {
            let pages = rng.gen_range(1..=avg_pages * 2);
            let mut tuples: Vec<Tuple> = (0..pages * tpp)
                .map(|_| Tuple::synthetic(rng.gen::<u64>() >> 16, 64))
                .collect();
            tuples.sort_unstable_by_key(|t| t.key);
            all.extend(tuples.clone());
            let run = store.create_run().unwrap();
            for p in paginate(tuples, tpp) {
                store.append_page(run, p).unwrap();
            }
            metas.push(store.meta(run));
        }
        (store, metas, all)
    }

    fn cfg_with_mem(pages: usize) -> SortConfig {
        // 8 tuples per page to keep tests fast.
        SortConfig::default()
            .with_page_size(512)
            .with_tuple_size(64)
            .with_memory_pages(pages)
    }

    fn params(policy: MergePolicy, adaptation: MergeAdaptation) -> ExecParams {
        ExecParams {
            policy,
            adaptation,
            min_pages: 3,
        }
    }

    #[test]
    fn single_step_merge_with_ample_memory() {
        let (mut store, metas, input) = make_runs(6, 3, 1);
        let cfg = cfg_with_mem(16);
        let budget = MemoryBudget::new(16);
        let mut env = CountingEnv::new();
        let (out, stats) = execute_merge(
            &cfg,
            &budget,
            &metas,
            &mut store,
            &mut env,
            params(MergePolicy::Optimized, MergeAdaptation::DynamicSplitting),
        )
        .unwrap();
        let result = collect_run(&mut store, out).unwrap();
        assert_sorted_permutation(&input, &result);
        assert_eq!(stats.steps_executed, 1);
        assert_eq!(stats.splits, 0);
    }

    #[test]
    fn insufficient_memory_triggers_preliminary_steps() {
        let (mut store, metas, input) = make_runs(10, 3, 2);
        let cfg = cfg_with_mem(8);
        let budget = MemoryBudget::new(8);
        let mut env = CountingEnv::new();
        let (out, stats) = execute_merge(
            &cfg,
            &budget,
            &metas,
            &mut store,
            &mut env,
            params(MergePolicy::Optimized, MergeAdaptation::DynamicSplitting),
        )
        .unwrap();
        let result = collect_run(&mut store, out).unwrap();
        assert_sorted_permutation(&input, &result);
        assert!(stats.splits >= 1);
        assert!(stats.steps_executed >= 2);
    }

    #[test]
    fn all_adaptations_and_policies_produce_sorted_output() {
        for adaptation in [
            MergeAdaptation::Suspension,
            MergeAdaptation::Paging,
            MergeAdaptation::DynamicSplitting,
        ] {
            for policy in [MergePolicy::Naive, MergePolicy::Optimized] {
                let (mut store, metas, input) = make_runs(12, 2, 3);
                let cfg = cfg_with_mem(6);
                let budget = MemoryBudget::new(6);
                let mut env = CountingEnv::new();
                let (out, _stats) = execute_merge(
                    &cfg,
                    &budget,
                    &metas,
                    &mut store,
                    &mut env,
                    params(policy, adaptation),
                )
                .unwrap();
                let result = collect_run(&mut store, out).unwrap();
                assert_sorted_permutation(&input, &result);
            }
        }
    }

    #[test]
    fn empty_and_single_run_edge_cases() {
        let cfg = cfg_with_mem(8);
        let budget = MemoryBudget::new(8);
        let mut env = CountingEnv::new();
        let mut store = MemStore::new();
        let (out, stats) = execute_merge(
            &cfg,
            &budget,
            &[],
            &mut store,
            &mut env,
            ExecParams::default(),
        )
        .unwrap();
        assert_eq!(store.run_tuples(out), 0);
        assert_eq!(stats.steps_executed, 0);

        let (mut store, metas, input) = make_runs(1, 4, 9);
        let (out, _) = execute_merge(
            &cfg,
            &budget,
            &metas,
            &mut store,
            &mut env,
            ExecParams::default(),
        )
        .unwrap();
        let result = collect_run(&mut store, out).unwrap();
        assert_sorted_permutation(&input, &result);
    }

    /// An environment that applies a scripted sequence of budget changes, each
    /// firing once the clock passes its timestamp (clock advances on CPU
    /// charges).
    struct ScriptedEnv {
        clock: f64,
        script: Vec<(f64, usize)>,
        next: usize,
    }

    impl ScriptedEnv {
        fn new(script: Vec<(f64, usize)>) -> Self {
            ScriptedEnv {
                clock: 0.0,
                script,
                next: 0,
            }
        }
    }

    impl SortEnv for ScriptedEnv {
        fn now(&self) -> f64 {
            self.clock
        }
        fn charge_cpu(&mut self, _op: CpuOp, count: u64) {
            self.clock += count as f64 * 5e-5;
        }
        fn charge_extra_read(&mut self, pages: usize) {
            self.clock += pages as f64 * 1e-3;
        }
        fn poll(&mut self, budget: &MemoryBudget) {
            while self.next < self.script.len() && self.script[self.next].0 <= self.clock {
                budget.set_target(self.script[self.next].1, self.clock);
                self.next += 1;
            }
        }
        fn wait_for_pages(&mut self, budget: &MemoryBudget, pages: usize) -> bool {
            // Jump the clock forward to the next scripted growth that
            // satisfies the request.
            while self.next < self.script.len() {
                let (at, target) = self.script[self.next];
                self.clock = self.clock.max(at);
                budget.set_target(target, self.clock);
                self.next += 1;
                if target >= pages {
                    return true;
                }
            }
            false
        }
    }

    #[test]
    fn dynamic_splitting_survives_shrink_and_grow_mid_merge() {
        let (mut store, metas, input) = make_runs(10, 4, 7);
        let cfg = cfg_with_mem(12);
        let budget = MemoryBudget::new(12);
        // Shrink hard early, grow back later, shrink again.
        let mut env = ScriptedEnv::new(vec![(0.02, 5), (0.2, 14), (0.5, 4), (0.9, 16)]);
        let (out, stats) = execute_merge(
            &cfg,
            &budget,
            &metas,
            &mut store,
            &mut env,
            params(MergePolicy::Optimized, MergeAdaptation::DynamicSplitting),
        )
        .unwrap();
        let result = collect_run(&mut store, out).unwrap();
        assert_sorted_permutation(&input, &result);
        assert!(stats.splits >= 1, "expected at least one dynamic split");
        assert!(stats.switches >= 1);
    }

    #[test]
    fn paging_and_suspension_survive_fluctuations() {
        for adaptation in [MergeAdaptation::Paging, MergeAdaptation::Suspension] {
            let (mut store, metas, input) = make_runs(9, 3, 11);
            let cfg = cfg_with_mem(10);
            let budget = MemoryBudget::new(10);
            let mut env = ScriptedEnv::new(vec![(0.01, 4), (0.3, 12), (0.6, 5), (0.8, 12)]);
            let (out, stats) = execute_merge(
                &cfg,
                &budget,
                &metas,
                &mut store,
                &mut env,
                params(MergePolicy::Optimized, adaptation),
            )
            .unwrap();
            let result = collect_run(&mut store, out).unwrap();
            assert_sorted_permutation(&input, &result);
            if adaptation == MergeAdaptation::Paging {
                assert!(stats.extra_paging_reads > 0, "paging should have faulted");
            } else {
                assert!(
                    stats.refetched_pages > 0,
                    "suspension should have refetched"
                );
            }
        }
    }

    #[test]
    fn growth_lets_dynamic_splitting_combine_steps() {
        // Start with too little memory (forcing an immediate split), then grow
        // so the sort switches back to the final step and absorbs the child.
        let (mut store, metas, input) = make_runs(12, 3, 13);
        let cfg = cfg_with_mem(5);
        let budget = MemoryBudget::new(5);
        let mut env = ScriptedEnv::new(vec![(0.05, 20)]);
        let (out, stats) = execute_merge(
            &cfg,
            &budget,
            &metas,
            &mut store,
            &mut env,
            params(MergePolicy::Optimized, MergeAdaptation::DynamicSplitting),
        )
        .unwrap();
        let result = collect_run(&mut store, out).unwrap();
        assert_sorted_permutation(&input, &result);
        assert!(stats.splits >= 1);
        assert!(
            stats.combines >= 1,
            "growth should have let the sort combine steps (combines = {})",
            stats.combines
        );
    }

    #[test]
    fn join_merge_with_many_tiny_runs_and_fluctuation() {
        // Regression test: lots of single-page runs on both sides exhaust
        // constantly during the join, so input indices are invalidated all the
        // time; combined with a fluctuating budget this used to hit an
        // out-of-bounds pop in `produce_unit_join`.
        let mut rng = StdRng::seed_from_u64(99);
        let mut store = MemStore::new();
        let tpp = 8;
        let mut make_side = |n_runs: usize| {
            let mut metas = Vec::new();
            let mut all = Vec::new();
            for _ in 0..n_runs {
                let mut tuples: Vec<Tuple> = (0..tpp)
                    .map(|_| Tuple::synthetic(rng.gen_range(0..40u64), 64))
                    .collect();
                tuples.sort_unstable_by_key(|t| t.key);
                all.extend(tuples.clone());
                let run = store.create_run().unwrap();
                for p in paginate(tuples, tpp) {
                    store.append_page(run, p).unwrap();
                }
                metas.push(store.meta(run));
            }
            (metas, all)
        };
        let (left_metas, left_all) = make_side(30);
        let (right_metas, right_all) = make_side(25);
        let expected = crate::verify::nested_loop_match_count(&left_all, &right_all);

        let cfg = cfg_with_mem(5);
        let budget = MemoryBudget::new(5);
        let mut env = ScriptedEnv::new(vec![(0.001, 3), (0.01, 12), (0.05, 4), (0.2, 20)]);
        let mut seen = 0u64;
        let stats = execute_join_merge(
            &cfg,
            &budget,
            &left_metas,
            &right_metas,
            &mut store,
            &mut env,
            params(MergePolicy::Optimized, MergeAdaptation::DynamicSplitting),
            &mut |_l, _r| seen += 1,
        )
        .unwrap();
        assert_eq!(stats.join_matches, expected);
        assert_eq!(seen, expected);
    }

    #[test]
    fn join_merge_counts_matches_correctly() {
        // Keys drawn from a small domain so duplicates and matches are common.
        let mut rng = StdRng::seed_from_u64(5);
        let tpp = 8;
        let mut store = MemStore::new();
        let mut make_side = |n_runs: usize, pages: usize| {
            let mut metas = Vec::new();
            let mut all = Vec::new();
            for _ in 0..n_runs {
                let mut tuples: Vec<Tuple> = (0..pages * tpp)
                    .map(|_| Tuple::synthetic(rng.gen_range(0..200u64), 64))
                    .collect();
                tuples.sort_unstable_by_key(|t| t.key);
                all.extend(tuples.clone());
                let run = store.create_run().unwrap();
                for p in paginate(tuples, tpp) {
                    store.append_page(run, p).unwrap();
                }
                metas.push(store.meta(run));
            }
            (metas, all)
        };
        let (left_metas, left_all) = make_side(5, 3);
        let (right_metas, right_all) = make_side(4, 2);
        let expected = crate::verify::nested_loop_match_count(&left_all, &right_all);

        let cfg = cfg_with_mem(6);
        let budget = MemoryBudget::new(6);
        let mut env = CountingEnv::new();
        let mut seen = 0u64;
        let stats = execute_join_merge(
            &cfg,
            &budget,
            &left_metas,
            &right_metas,
            &mut store,
            &mut env,
            params(MergePolicy::Optimized, MergeAdaptation::DynamicSplitting),
            &mut |_l, _r| seen += 1,
        )
        .unwrap();
        assert_eq!(stats.join_matches, expected);
        assert_eq!(seen, expected);
        assert!(stats.splits >= 1, "6 pages cannot hold 9 runs + output");
    }
}
