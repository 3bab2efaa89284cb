//! The root step: run the preliminary steps until the root is active, then
//! hand its pages to a consumer, settle it into a run, or close it.

use super::*;
use crate::tuple::Page;

impl<'a, S: RunStore, E: SortEnv> Exec<'a, S, E> {
    /// Run preliminary steps until the root is the active step again. The
    /// statistics are stamped as of the return, so a caller that parks the
    /// state sees a consistent (if partial) picture of the phase.
    pub(super) fn run_to_root(&mut self) -> SortResult<()> {
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

    /// Run whatever is left of the merge, the root step included, into a
    /// fresh output run and return it. The root is left completed and without
    /// an output; on error the run stays the root's output, so
    /// [`close`](Self::close) deletes it.
    pub(crate) fn finish_into_run(&mut self) -> SortResult<RunId> {
        let out = self.store.create_run()?;
        let root = self.st.arena.root();
        self.st.arena.steps[root].output = Some(out);
        while self.step()? != Progress::Done {}
        self.st.arena.steps[root].output = None;
        Ok(out)
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
        let out = self.finish_into_run()?;
        let step = &mut self.st.arena.steps[root];
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
}
