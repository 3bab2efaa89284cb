//! The selection kernel: pick the winning input, move its records into the
//! active step's out-arena in batches, and flush sealed pages.

use super::*;
use crate::env::CpuOp;
use crate::layout::TupleArena;
use crate::tuple::Tuple;

impl<'a, S: RunStore, E: SortEnv> Exec<'a, S, E> {
    /// Find the input on `side` whose next tuple has the smallest *composite*
    /// key under the configured [`crate::order::SortOrder`] — the whole key,
    /// tie bytes included. Exhausted inputs encountered along the way are
    /// removed (and their producing steps absorbed). Returns `(input index,
    /// composite)`.
    pub(super) fn min_input(&mut self, side: Side) -> SortResult<Option<(usize, u128)>> {
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
        // Cost of selecting the minimum with a selection tree / heap.
        self.charge_selection(1);
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

    pub(super) fn pop_input(&mut self, idx: usize) -> SortResult<Tuple> {
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
    pub(super) fn flush_active_output(&mut self, force: bool) -> SortResult<()> {
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

    pub(super) fn complete_active(&mut self) -> SortResult<Progress> {
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
    pub(super) fn produce_unit(&mut self) -> SortResult<Progress> {
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
}
