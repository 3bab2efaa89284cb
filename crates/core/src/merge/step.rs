//! Merge steps and the step arena used by dynamic splitting.
//!
//! A merge phase is represented as a tree of [`MergeStep`]s held in a
//! [`StepArena`]. Each step owns a set of [`Input`]s (cursors over runs) and
//! appends its result to an output run. When a step is *split* (paper §3.2.3,
//! Figure 2), some of its inputs move into a freshly created child step and
//! the child's output run becomes a new input of the original step. When
//! memory grows back, execution can *switch* to the parent step; once the
//! child's partially-produced output run has been fully consumed the child's
//! remaining inputs are *absorbed* back into the parent (Figure 3) — that is
//! the paper's "combining" of merge steps.
//!
//! Only one step — the *active* step — executes at any time; every other step
//! is dormant. This module only manages the structure; the execution loop
//! lives in [`super::exec`].

use crate::layout::TupleArena;
use crate::merge::cursor::RunCursor;
use crate::store::{RunId, RunStore};
use crate::tuple::Page;

/// Which relation an input belongs to. Plain sorts only use [`Side::Left`];
/// sort-merge joins use both.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Side {
    /// The (only, or left/outer) relation.
    Left,
    /// The right/inner relation of a join.
    Right,
}

/// Identifier of a step within its [`StepArena`].
pub type StepId = usize;

/// One input of a merge step.
#[derive(Debug)]
pub struct Input {
    /// Cursor over the input run.
    pub cursor: RunCursor,
    /// Which relation the tuples belong to.
    pub side: Side,
    /// If this input is the output run of a dormant child step, that step's
    /// id; used to absorb the child when the run is fully consumed.
    pub producer: Option<StepId>,
}

impl Input {
    /// An input over an ordinary (already fully written) forward run.
    pub fn from_run(run: RunId, side: Side) -> Self {
        Input {
            cursor: RunCursor::new(run),
            side,
            producer: None,
        }
    }

    /// An input honouring the run's recorded direction: a
    /// [`RunDirection::Reversed`](crate::store::RunDirection::Reversed) run
    /// is consumed back-to-front so it merges like any other.
    pub fn from_meta(meta: crate::store::RunMeta, side: Side) -> Self {
        Input {
            cursor: RunCursor::from_meta(meta),
            side,
            producer: None,
        }
    }
}

/// One merge step: inputs, an output run, and execution bookkeeping.
#[derive(Debug)]
pub struct MergeStep {
    /// The step's inputs. Order is not significant.
    pub inputs: Vec<Input>,
    /// Run that this step appends its merged output to. The root has one only
    /// while it is being finished into a run (a materialising sort, or a
    /// settle); a streamed root and a join's root have none.
    pub output: Option<RunId>,
    /// Output page under construction, created lazily by the executor;
    /// sealed the moment it holds a page of records.
    pub out_arena: Option<TupleArena>,
    /// Pages sealed off `out_arena` that the output run is still owed — or,
    /// at the root of a streaming sort (which has no output run), that its
    /// consumer has not taken yet.
    pub sealed: Vec<Page>,
    /// Parent step (the step that consumes our output), if any.
    pub parent: Option<StepId>,
    /// True once every input has been consumed and the output flushed.
    pub completed: bool,
    /// True once this step has produced at least one tuple (used to count how
    /// many merge steps actually executed).
    pub produced_anything: bool,
    /// The memory target in effect when this step was created by a split.
    /// Execution only switches back to the parent when the current allocation
    /// *exceeds* this value — i.e. when memory actually grew (paper §3.2.3);
    /// otherwise a freshly split step would immediately bounce back.
    pub created_target: usize,
}

impl MergeStep {
    /// Buffer pages this step needs to execute: one per input plus one output.
    pub fn pages_needed(&self) -> usize {
        self.inputs.len() + 1
    }

    /// Number of inputs on the given side.
    pub fn side_count(&self, side: Side) -> usize {
        self.inputs.iter().filter(|i| i.side == side).count()
    }
}

/// Arena of merge steps plus the identity of the active one.
#[derive(Debug, Default)]
pub struct StepArena {
    /// All steps ever created. Steps are never removed, only marked completed.
    pub steps: Vec<MergeStep>,
    /// The step currently executing.
    pub active: StepId,
}

impl StepArena {
    /// Create an arena containing a single root step with the given inputs
    /// and no output run; whoever wants the root written sets one.
    pub fn with_root(inputs: Vec<Input>) -> Self {
        StepArena {
            steps: vec![MergeStep {
                inputs,
                output: None,
                out_arena: None,
                sealed: Vec::new(),
                parent: None,
                completed: false,
                produced_anything: false,
                created_target: 0,
            }],
            active: 0,
        }
    }

    /// The root (final) step id.
    pub fn root(&self) -> StepId {
        0
    }

    /// Shorthand for the active step.
    pub fn active_step(&self) -> &MergeStep {
        &self.steps[self.active]
    }

    /// Number of steps that produced at least one output tuple.
    pub fn executed_steps(&self) -> usize {
        self.steps.iter().filter(|s| s.produced_anything).count()
    }

    /// Split the active step: move the inputs at `indices` into a new child
    /// step whose output run is `child_output`, add a cursor over that run to
    /// the (former) active step, and make the child active.
    ///
    /// `indices` must be distinct, valid indices into the active step's input
    /// vector; they are removed in descending order.
    pub fn split_active(
        &mut self,
        mut indices: Vec<usize>,
        child_output: RunId,
        side: Side,
        created_target: usize,
    ) -> StepId {
        indices.sort_unstable();
        indices.dedup();
        let parent_id = self.active;
        let mut moved = Vec::with_capacity(indices.len());
        for &i in indices.iter().rev() {
            moved.push(self.steps[parent_id].inputs.swap_remove(i));
        }
        moved.reverse();
        let child_id = self.steps.len();
        self.steps.push(MergeStep {
            inputs: moved,
            output: Some(child_output),
            out_arena: None,
            sealed: Vec::new(),
            parent: Some(parent_id),
            completed: false,
            produced_anything: false,
            created_target,
        });
        self.steps[parent_id].inputs.push(Input {
            cursor: RunCursor::new(child_output),
            side,
            producer: Some(child_id),
        });
        self.active = child_id;
        child_id
    }

    /// Remove input `idx` from step `step`. If the input was produced by a
    /// dormant child step, absorb that child's remaining inputs into `step`
    /// (the paper's *combining*), mark the child completed, and return its id
    /// so the caller can delete its output run.
    pub fn remove_input(&mut self, step: StepId, idx: usize) -> Option<StepId> {
        let input = self.steps[step].inputs.swap_remove(idx);
        if let Some(child) = input.producer {
            let child_inputs = std::mem::take(&mut self.steps[child].inputs);
            self.steps[child].completed = true;
            self.steps[step].inputs.extend(child_inputs);
            Some(child)
        } else {
            None
        }
    }

    /// Choose the `fan_in` inputs of step `step` with the smallest remaining
    /// size, optionally restricted to one side. Returns their indices.
    pub fn shortest_inputs<S: RunStore>(
        &self,
        store: &S,
        step: StepId,
        fan_in: usize,
        side: Option<Side>,
    ) -> Vec<usize> {
        let mut candidates: Vec<(usize, usize)> = self.steps[step]
            .inputs
            .iter()
            .enumerate()
            .filter(|(_, inp)| side.is_none_or(|s| inp.side == s))
            .map(|(i, inp)| (inp.cursor.remaining_pages(store), i))
            .collect();
        candidates.sort_unstable();
        candidates.truncate(fan_in);
        candidates.into_iter().map(|(_, i)| i).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{MemStore, RunStore};
    use crate::tuple::Tuple;

    fn store_with_runs(lengths: &[usize]) -> (MemStore, Vec<RunId>) {
        let mut store = MemStore::new();
        let mut ids = Vec::new();
        for &len in lengths {
            let r = store.create_run().unwrap();
            for p in 0..len {
                store
                    .append_page(r, Page::from_tuples(vec![Tuple::synthetic(p as u64, 16)]))
                    .unwrap();
            }
            ids.push(r);
        }
        (store, ids)
    }

    fn arena_over(store: &mut MemStore, runs: &[RunId]) -> StepArena {
        let inputs = runs
            .iter()
            .map(|&r| Input::from_run(r, Side::Left))
            .collect();
        let mut arena = StepArena::with_root(inputs);
        arena.steps[0].output = Some(store.create_run().unwrap());
        arena
    }

    #[test]
    fn root_needs_inputs_plus_one() {
        let (mut store, runs) = store_with_runs(&[3, 3, 3]);
        let arena = arena_over(&mut store, &runs);
        assert_eq!(arena.active_step().pages_needed(), 4);
        assert_eq!(arena.active, arena.root());
        assert_eq!(arena.executed_steps(), 0);
    }

    #[test]
    fn split_moves_inputs_and_links_child() {
        let (mut store, runs) = store_with_runs(&[1, 2, 3, 4, 5]);
        let mut arena = arena_over(&mut store, &runs);
        let child_out = store.create_run().unwrap();
        let picked = arena.shortest_inputs(&store, 0, 2, None);
        let child = arena.split_active(picked, child_out, Side::Left, 8);
        assert_eq!(arena.active, child);
        assert_eq!(arena.steps[child].parent, Some(arena.root()));
        assert_eq!(arena.steps[child].inputs.len(), 2);
        // Parent now has 3 original inputs + 1 cursor over the child output.
        assert_eq!(arena.steps[0].inputs.len(), 4);
        let producer_inputs: Vec<_> = arena.steps[0]
            .inputs
            .iter()
            .filter(|i| i.producer == Some(child))
            .collect();
        assert_eq!(producer_inputs.len(), 1);
        assert_eq!(producer_inputs[0].cursor.run, child_out);
    }

    #[test]
    fn shortest_inputs_picks_smallest_remaining() {
        let (mut store, runs) = store_with_runs(&[9, 1, 5, 2]);
        let arena = arena_over(&mut store, &runs);
        let picked = arena.shortest_inputs(&store, 0, 2, None);
        let picked_runs: Vec<RunId> = picked
            .iter()
            .map(|&i| arena.steps[0].inputs[i].cursor.run)
            .collect();
        assert!(picked_runs.contains(&runs[1]));
        assert!(picked_runs.contains(&runs[3]));
    }

    #[test]
    fn remove_input_absorbs_child() {
        let (mut store, runs) = store_with_runs(&[1, 2, 3, 4]);
        let mut arena = arena_over(&mut store, &runs);
        let child_out = store.create_run().unwrap();
        let picked = arena.shortest_inputs(&store, 0, 2, None);
        let child = arena.split_active(picked, child_out, Side::Left, 8);
        arena.active = 0; // switch back to the parent (memory grew)
                          // Find the parent's input fed by the child and remove it as if the
                          // child's output had been fully consumed.
        let idx = arena.steps[0]
            .inputs
            .iter()
            .position(|i| i.producer == Some(child))
            .unwrap();
        let absorbed = arena.remove_input(0, idx);
        assert_eq!(absorbed, Some(child));
        assert!(arena.steps[child].completed);
        assert!(arena.steps[child].inputs.is_empty());
        // The child's two inputs returned to the parent: 2 remaining + 2 back.
        assert_eq!(arena.steps[0].inputs.len(), 4);
    }

    #[test]
    fn remove_plain_input_returns_none() {
        let (mut store, runs) = store_with_runs(&[1, 2]);
        let mut arena = arena_over(&mut store, &runs);
        assert_eq!(arena.remove_input(0, 0), None);
        assert_eq!(arena.steps[0].inputs.len(), 1);
    }

    #[test]
    fn side_count_and_side_filtering() {
        let (mut store, runs) = store_with_runs(&[1, 2, 3]);
        let mut inputs: Vec<Input> = runs
            .iter()
            .map(|&r| Input::from_run(r, Side::Left))
            .collect();
        inputs[2].side = Side::Right;
        let mut arena = StepArena::with_root(inputs);
        arena.steps[0].output = Some(store.create_run().unwrap());
        assert_eq!(arena.steps[0].side_count(Side::Left), 2);
        assert_eq!(arena.steps[0].side_count(Side::Right), 1);
        let picked = arena.shortest_inputs(&store, 0, 5, Some(Side::Right));
        assert_eq!(picked.len(), 1);
    }
}
