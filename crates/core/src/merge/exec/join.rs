//! The sort-merge join on the merge executor: its root step matches the two
//! relations instead of writing a run (paper §6).

use super::*;
use crate::env::CpuOp;
use crate::tuple::Tuple;

impl<'a, S: RunStore, E: SortEnv> Exec<'a, S, E> {
    /// Pick the relation (and run indices) for a preliminary step of a join
    /// root, following paper §6: prefer the relation whose `fan` shortest runs
    /// are smaller overall; if one relation has too few runs, pick the one
    /// with more runs so no extra merge steps are introduced.
    pub(super) fn choose_join_split(&mut self, fan: usize) -> (Vec<usize>, Side) {
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
    let mut st = MergeState::new(budget, env, params, ExecMode::Join, inputs);
    Exec::over(cfg, budget, store, env, &mut st).run_join(on_match)?;
    Ok(st.stats)
}
