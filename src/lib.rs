//! # memory-adaptive-sort
//!
//! A Rust reproduction of **"Memory-Adaptive External Sorting"**
//! (H. Pang, M. J. Carey, M. Livny — VLDB 1993): external sorts and
//! sort-merge joins that adapt, while they run, to memory being taken away
//! and given back by a DBMS buffer manager.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`core`] (`masort-core`) — the sorting library itself: the
//!   [`core::SortJob`] builder entry point, run formation (Quicksort,
//!   replacement selection, replacement selection with block writes), merge
//!   planning (naive / optimized), the three merge-phase adaptation
//!   strategies (suspension, MRU paging, **dynamic splitting**), the shared
//!   [`core::MemoryBudget`] handle, pluggable sort orders
//!   ([`core::SortOrder`]), streaming output ([`core::SortedStream`]), and
//!   memory-adaptive sort-merge joins.
//! * [`broker`] (`masort-broker`) — the concurrent multi-sort service: a
//!   [`broker::SortService`] runs many submissions on a worker-thread pool
//!   while its memory broker re-divides one global page pool across all live
//!   sorts with one rule (minimums first, the surplus by priority), so sorts
//!   grow, shrink, suspend, page and split while running on real threads.
//!   A ticket resolves to a [`broker::JobOutput`] once the job is down to its
//!   last merge step; whoever reads the output executes that step on their
//!   own thread, so the result is never written out.
//! * [`simkit`], [`diskmodel`], [`sysmodel`] — the simulation substrates
//!   (event kernel, analytic disk model, CPU/buffer/workload models).
//! * [`dbsim`] — the paper's database-system simulation model and the
//!   experiment harness that regenerates every table and figure of the
//!   evaluation.
//!
//! ## Quick start
//!
//! ```
//! use memory_adaptive_sort::prelude::*;
//!
//! let data: Vec<Tuple> = (0..5_000u64)
//!     .map(|i| Tuple::synthetic(i.wrapping_mul(0x9E3779B97F4A7C15), 256))
//!     .collect();
//!
//! let completion = SortJob::builder()
//!     .config(SortConfig::default().with_memory_pages(16))
//!     .tuples(data)
//!     .build()?
//!     .run()?;
//!
//! // Stream the sorted relation: the iterator runs the final merge step, so
//! // nothing sorted is ever materialised, in memory or in the store ...
//! let mut previous = 0u64;
//! for tuple in completion.into_stream() {
//!     let tuple = tuple?;
//!     assert!(tuple.key >= previous);
//!     previous = tuple.key;
//! }
//! # Ok::<(), SortError>(())
//! ```
//!
//! Descending order works with every algorithm combination:
//!
//! ```
//! use memory_adaptive_sort::prelude::*;
//!
//! let sorted = SortJob::builder()
//!     .config(SortConfig::default().with_memory_pages(8))
//!     .descending()
//!     .tuples((0..1_000u64).map(|k| Tuple::synthetic(k, 64)).collect())
//!     .build()?
//!     .run()?
//!     .into_sorted_vec()?;
//! assert_eq!(sorted.first().map(|t| t.key), Some(999));
//! # Ok::<(), SortError>(())
//! ```
//!
//! See the `examples/` directory for end-to-end scenarios, including a sort
//! whose memory budget is changed from another thread while it runs, and a
//! priority-workload simulation comparing the adaptation strategies.

pub use masort_broker as broker;
pub use masort_core as core;
pub use masort_dbsim as dbsim;
pub use masort_diskmodel as diskmodel;
pub use masort_simkit as simkit;
pub use masort_sysmodel as sysmodel;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    #[doc(no_inline)]
    pub use masort_broker::prelude::*;
    #[doc(no_inline)]
    pub use masort_core::prelude::*;
    #[doc(no_inline)]
    pub use masort_dbsim::{SimConfig, SimEnv, SimRelationSource, SimRunStore, SimSystem};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work() {
        let sorted = SortJob::builder()
            .config(SortConfig::default().with_memory_pages(8))
            .tuples((0..100u64).rev().map(|k| Tuple::synthetic(k, 64)).collect())
            .build()
            .unwrap()
            .run()
            .unwrap()
            .into_sorted_vec()
            .unwrap();
        assert_eq!(sorted.first().map(|t| t.key), Some(0));
        assert_eq!(sorted.len(), 100);
    }

    #[test]
    fn facade_reexports_the_broker_service() {
        let service = SortService::builder().pool_pages(12).workers(2).build();
        let cfg = SortConfig::default()
            .with_page_size(512)
            .with_tuple_size(64)
            .with_memory_pages(6);
        let tickets: Vec<SortTicket> = (0..3)
            .map(|i| {
                let tuples = (0..500u64)
                    .rev()
                    .map(|k| Tuple::synthetic(k ^ (i * 0x1000), 64))
                    .collect();
                service
                    .submit(SortRequest::tuples(cfg.clone(), tuples).priority(i as u32))
                    .unwrap()
            })
            .collect();
        for ticket in tickets {
            let sorted = ticket.wait().unwrap().into_sorted_vec().unwrap();
            assert_eq!(sorted.len(), 500);
            assert!(sorted.windows(2).all(|w| w[0].key <= w[1].key));
        }
        assert_eq!(service.shutdown().completed, 3);
    }
}
