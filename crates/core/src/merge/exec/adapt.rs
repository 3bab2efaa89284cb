//! The paper's three merge-phase adaptations: suspension, MRU paging and
//! dynamic splitting (§3.2), applied at each checkpoint.

use super::*;
use crate::merge::plan::preliminary_fan_in;

impl<'a, S: RunStore, E: SortEnv> Exec<'a, S, E> {
    /// `wait` is false at the checkpoint of a parked merge, which has nothing
    /// to produce and so no reason to block until suspended memory returns.
    pub(super) fn adapt(&mut self, wait: bool) -> SortResult<()> {
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

    fn switch_to_parent(&mut self) -> SortResult<()> {
        self.flush_active_output(true)?;
        if let Some(parent) = self.st.arena.active_step().parent {
            self.st.arena.active = parent;
            self.charge_switch();
            self.reset_paging_state();
        }
        Ok(())
    }

    pub(super) fn charge_switch(&mut self) {
        let pages = self.st.arena.active_step().inputs.len();
        self.env.charge_extra_read(pages);
        self.st.stats.refetched_pages += pages;
        self.st.stats.switches += 1;
        self.st.trace.emit(EventKind::Switch);
        self.st.sel_dirty = true;
    }

    pub(super) fn reset_paging_state(&mut self) {
        self.st.resident.clear();
        self.st.recency.clear();
    }
}
