//! Partition-parallel run formation: N compute workers, one adaptive budget,
//! one run store.
//!
//! Each worker runs the *existing* in-memory sorting methods
//! ([`quicksort`](super::quicksort) / [`replacement`](super::replacement))
//! unchanged, against
//!
//! * its own partition of the input (see
//!   [`PartitionableSource`](crate::input::PartitionableSource)),
//! * its own [`MemoryBudget::child`] sub-budget (targets re-derived on every
//!   root re-target, holdings rolled up, delays aggregated at the root), and
//! * a [`WorkerStore`] — a lock-free, append-only facade that streams run
//!   pages over a bounded channel to the thread that owns the real
//!   [`RunStore`].
//!
//! The owning thread applies the streamed blocks in arrival order, so the
//! store itself needs no `Send`/`Sync` bound and its write-behind pipeline
//! (PR 3) keeps working below; the bounded channel applies backpressure so
//! the workers' sorted-but-unwritten pages cannot pile up beyond a couple of
//! blocks per worker. Worker-local run ids are remapped to real store ids
//! when the phase completes, and the combined [`SplitStats`] lists runs in
//! (worker, creation) order so the downstream merge plan is deterministic for
//! a fixed partitioning.

use crate::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::collections::HashMap;

use crate::budget::MemoryBudget;
use crate::config::SortConfig;
use crate::env::SortEnv;
use crate::error::{SortError, SortResult};
use crate::input::InputSource;
use crate::store::{RunId, RunStore};
use crate::tuple::Page;

use super::{form_runs, SplitStats};

/// One store operation streamed from a worker to the store-owning thread.
enum StoreMsg {
    Create {
        worker: usize,
        local: RunId,
    },
    Append {
        worker: usize,
        local: RunId,
        pages: Vec<Page>,
    },
    Delete {
        worker: usize,
        local: RunId,
    },
}

/// The error a worker sees when the store-owning thread has failed (its real
/// error is reported by the driver; this one is discarded).
fn channel_closed() -> SortError {
    SortError::Io(std::io::Error::other(
        "parallel run-formation channel closed (store thread failed)",
    ))
}

/// A worker's append-only view of the shared run store.
///
/// Run creation and page appends are forwarded to the owning thread; metadata
/// queries are answered from local bookkeeping (run formation only ever asks
/// about runs it created itself). Reads are not supported — the split phase
/// never reads back.
struct WorkerStore {
    worker: usize,
    tx: SyncSender<StoreMsg>,
    /// (pages, tuples) per worker-local run.
    metas: HashMap<RunId, (usize, usize)>,
    next: RunId,
}

impl WorkerStore {
    fn new(worker: usize, tx: SyncSender<StoreMsg>) -> Self {
        WorkerStore {
            worker,
            tx,
            metas: HashMap::new(),
            next: 0,
        }
    }
}

impl RunStore for WorkerStore {
    fn create_run(&mut self) -> SortResult<RunId> {
        let local = self.next;
        self.next += 1;
        self.metas.insert(local, (0, 0));
        self.tx
            .send(StoreMsg::Create {
                worker: self.worker,
                local,
            })
            .map_err(|_| channel_closed())?;
        Ok(local)
    }

    fn append_page(&mut self, run: RunId, page: Page) -> SortResult<()> {
        self.append_block(run, vec![page])
    }

    fn append_block(&mut self, run: RunId, pages: Vec<Page>) -> SortResult<()> {
        let meta = self.metas.get_mut(&run).ok_or(SortError::UnknownRun(run))?;
        meta.0 += pages.len();
        meta.1 += pages.iter().map(Page::len).sum::<usize>();
        self.tx
            .send(StoreMsg::Append {
                worker: self.worker,
                local: run,
                pages,
            })
            .map_err(|_| channel_closed())
    }

    fn read_page(&mut self, run: RunId, _idx: usize) -> SortResult<Page> {
        Err(SortError::corrupt(
            run,
            "parallel split-phase stores are append-only",
        ))
    }

    fn run_pages(&self, run: RunId) -> usize {
        self.metas.get(&run).map_or(0, |m| m.0)
    }

    fn run_tuples(&self, run: RunId) -> usize {
        self.metas.get(&run).map_or(0, |m| m.1)
    }

    fn delete_run(&mut self, run: RunId) -> SortResult<()> {
        if self.metas.remove(&run).is_some() {
            self.tx
                .send(StoreMsg::Delete {
                    worker: self.worker,
                    local: run,
                })
                .map_err(|_| channel_closed())?;
        }
        Ok(())
    }
}

/// Drain worker messages into the real store, mapping (worker, local run) to
/// real run ids. Returns on the first store error; dropping the receiver then
/// fails the workers' next sends, which unwinds them promptly.
fn apply_messages<S: RunStore>(
    rx: Receiver<StoreMsg>,
    store: &mut S,
    map: &mut HashMap<(usize, RunId), RunId>,
) -> SortResult<()> {
    for msg in rx {
        match msg {
            StoreMsg::Create { worker, local } => {
                let real = store.create_run()?;
                map.insert((worker, local), real);
            }
            StoreMsg::Append {
                worker,
                local,
                pages,
            } => {
                let real = *map.get(&(worker, local)).ok_or_else(|| {
                    SortError::Io(std::io::Error::other(
                        "parallel append to a run that was never created",
                    ))
                })?;
                store.append_block(real, pages)?;
            }
            StoreMsg::Delete { worker, local } => {
                if let Some(real) = map.remove(&(worker, local)) {
                    store.delete_run(real)?;
                }
            }
        }
    }
    Ok(())
}

/// Run the split phase with one compute worker per element of `parts`.
///
/// `envs` supplies one forked environment per worker (extras are ignored);
/// `env` is the orchestrating thread's own environment, used only to
/// timestamp cleanup. Statistics are merged across workers and the returned
/// run list carries real store ids in (worker, creation) order.
pub(crate) fn form_runs_parallel<S, P, E>(
    cfg: &SortConfig,
    budget: &MemoryBudget,
    parts: Vec<P>,
    envs: Vec<Box<dyn SortEnv + Send>>,
    store: &mut S,
    env: &mut E,
) -> SortResult<SplitStats>
where
    S: RunStore,
    P: InputSource + Send,
    E: SortEnv,
{
    let n = parts.len();
    debug_assert!(
        n >= 2 && envs.len() >= n,
        "driver needs >=2 parts and an env each"
    );
    let children: Vec<MemoryBudget> = (0..n).map(|_| budget.child(1.0 / n as f64)).collect();
    // A couple of in-flight blocks per worker: enough to overlap compute with
    // the store's writes, small enough to bound sorted-but-unwritten pages.
    let (tx, rx) = sync_channel::<StoreMsg>(n * 2);
    let mut map: HashMap<(usize, RunId), RunId> = HashMap::new();

    let (applied, worker_results) = std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .into_iter()
            .zip(envs)
            .zip(children.iter())
            .enumerate()
            .map(|(i, ((mut part, mut worker_env), child))| {
                let tx = tx.clone();
                scope.spawn(move || {
                    let mut store = WorkerStore::new(i, tx);
                    let trace = worker_env.trace();
                    trace.emit(masort_trace::EventKind::PhaseStart {
                        phase: "split-worker",
                    });
                    let result = form_runs(cfg, child, &mut part, &mut store, &mut worker_env);
                    trace.emit(masort_trace::EventKind::PhaseEnd {
                        phase: "split-worker",
                    });
                    result
                })
            })
            .collect();
        // The applier owns the only other sender; once every worker is done
        // (or this drop plus an apply error cut them off) the loop ends.
        drop(tx);
        let applied = apply_messages(rx, store, &mut map);
        let worker_results: Vec<SortResult<SplitStats>> = handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(SortError::Io(std::io::Error::other(
                        "parallel sort worker panicked",
                    )))
                })
            })
            .collect();
        (applied, worker_results)
    });

    // Settle the hierarchy before ANY early return below: a worker that
    // errored out (or was cut off by an apply failure) may not have reported
    // a zero holding, and its rolled-up pages would otherwise inflate the
    // root's `held` forever — a caller-owned budget outlives this sort.
    let now = env.now();
    for child in &children {
        child.record_held(0, now);
    }

    // Workers that died because the applier failed report the secondary
    // channel-closed error; the store's own error is the one that matters.
    applied?;

    let mut merged = SplitStats {
        started_at: f64::INFINITY,
        ..SplitStats::default()
    };
    let mut first_err = None;
    for (worker, result) in worker_results.into_iter().enumerate() {
        let stats = match result {
            Ok(stats) => stats,
            Err(e) => {
                first_err.get_or_insert(e);
                continue;
            }
        };
        merged.pages_read += stats.pages_read;
        merged.pages_written += stats.pages_written;
        merged.block_writes += stats.block_writes;
        merged.shrink_events += stats.shrink_events;
        merged.natural_runs += stats.natural_runs;
        merged.natural_tuples += stats.natural_tuples;
        merged.started_at = merged.started_at.min(stats.started_at);
        merged.finished_at = merged.finished_at.max(stats.finished_at);
        for run in stats.runs {
            let real = map.get(&(worker, run.id)).copied().ok_or_else(|| {
                SortError::Io(std::io::Error::other(
                    "parallel worker produced a run the store never saw",
                ))
            })?;
            // The store's snapshot knows sizes but not direction; carry the
            // worker-recorded direction across the id remap.
            let mut meta = store.meta(real);
            meta.dir = run.dir;
            merged.runs.push(meta);
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    if !merged.started_at.is_finite() {
        merged.started_at = now;
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AlgorithmSpec;
    use crate::env::RealEnv;
    use crate::input::{PartitionableSource, VecSource};
    use crate::store::MemStore;
    use crate::tuple::Tuple;
    use crate::verify::collect_run;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tuples(n: usize, seed: u64) -> Vec<Tuple> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Tuple::synthetic(rng.gen::<u64>(), 256))
            .collect()
    }

    fn run_parallel(workers: usize, n_tuples: usize, mem: usize) -> (SplitStats, MemStore) {
        let cfg = SortConfig::default()
            .with_memory_pages(mem)
            .with_algorithm(AlgorithmSpec::recommended());
        let budget = MemoryBudget::new(mem);
        let parts = VecSource::from_tuples(random_tuples(n_tuples, 11), cfg.tuples_per_page())
            .partition(workers)
            .expect("vec sources split");
        let mut env = RealEnv::new();
        let envs: Vec<_> = (0..workers)
            .map(|_| env.fork_worker().expect("real envs fork"))
            .collect();
        let mut store = MemStore::new();
        let stats = form_runs_parallel(&cfg, &budget, parts, envs, &mut store, &mut env).unwrap();
        (stats, store)
    }

    #[test]
    fn workers_cover_the_whole_input_with_sorted_runs() {
        let n = 32 * 40;
        let (stats, mut store) = run_parallel(4, n, 8);
        assert_eq!(stats.pages_read, 40);
        let mut total = 0usize;
        for run in &stats.runs {
            let tuples = collect_run(&mut store, run.id).unwrap();
            assert!(tuples.windows(2).all(|w| w[0].key <= w[1].key));
            assert_eq!(tuples.len(), run.tuples);
            total += tuples.len();
        }
        assert_eq!(total, n, "parallel split lost or duplicated tuples");
    }

    #[test]
    fn run_ids_in_stats_are_real_store_ids() {
        let (stats, store) = run_parallel(2, 32 * 12, 6);
        for run in &stats.runs {
            assert_eq!(store.run_pages(run.id), run.pages);
            assert!(run.pages > 0);
        }
        assert_eq!(store.live_runs(), stats.runs.len());
    }

    #[test]
    fn store_apply_error_fails_the_phase_and_settles_the_budget() {
        // The real store rejects every append, so the applier fails while the
        // workers have already rolled held pages up to the root; the phase
        // must return the store's error with the hierarchy settled to zero.
        struct RejectingStore {
            inner: MemStore,
        }
        impl RunStore for RejectingStore {
            fn create_run(&mut self) -> SortResult<RunId> {
                self.inner.create_run()
            }
            fn append_page(&mut self, _run: RunId, _page: Page) -> SortResult<()> {
                Err(SortError::Io(std::io::Error::other("disk full")))
            }
            fn read_page(&mut self, run: RunId, idx: usize) -> SortResult<Page> {
                self.inner.read_page(run, idx)
            }
            fn run_pages(&self, run: RunId) -> usize {
                self.inner.run_pages(run)
            }
            fn run_tuples(&self, run: RunId) -> usize {
                self.inner.run_tuples(run)
            }
            fn delete_run(&mut self, run: RunId) -> SortResult<()> {
                self.inner.delete_run(run)
            }
        }
        let cfg = SortConfig::default().with_memory_pages(8);
        let budget = MemoryBudget::new(8);
        let parts = VecSource::from_tuples(random_tuples(32 * 24, 13), cfg.tuples_per_page())
            .partition(2)
            .unwrap();
        let mut env = RealEnv::new();
        let envs: Vec<_> = (0..2).map(|_| env.fork_worker().unwrap()).collect();
        let mut store = RejectingStore {
            inner: MemStore::new(),
        };
        let err = form_runs_parallel(&cfg, &budget, parts, envs, &mut store, &mut env)
            .expect_err("store failure must fail the phase");
        assert!(matches!(err, SortError::Io(_)), "{err:?}");
        assert_eq!(
            budget.held(),
            0,
            "child holdings must be settled even on the apply-error path"
        );
        assert!(!budget.shrink_pending());
    }

    #[test]
    fn worker_input_error_fails_the_phase_and_settles_the_budget() {
        struct FailingSource {
            pages_left: usize,
        }
        impl InputSource for FailingSource {
            fn next_page(&mut self) -> SortResult<Option<Page>> {
                if self.pages_left == 0 {
                    return Err(SortError::Io(std::io::Error::other("input exploded")));
                }
                self.pages_left -= 1;
                let tuples = (0..4u64).map(|k| Tuple::synthetic(k, 64)).collect();
                Ok(Some(Page::from_tuples(tuples)))
            }
        }
        let cfg = SortConfig::default().with_memory_pages(4);
        let budget = MemoryBudget::new(4);
        let parts = vec![
            FailingSource { pages_left: 30 },
            FailingSource { pages_left: 2 },
        ];
        let mut env = RealEnv::new();
        let envs: Vec<_> = (0..2).map(|_| env.fork_worker().unwrap()).collect();
        let mut store = MemStore::new();
        let err = form_runs_parallel(&cfg, &budget, parts, envs, &mut store, &mut env)
            .expect_err("worker error must fail the phase");
        assert!(matches!(err, SortError::Io(_)), "{err:?}");
        assert_eq!(budget.held(), 0, "children must settle to zero");
    }
}
