//! # masort-broker — a concurrent multi-sort service with a global memory broker
//!
//! The paper's premise is a DBMS in which many queries compete for buffer
//! memory and every external sort must adapt as its allocation fluctuates.
//! `masort-core` provides the adaptive sorts and the shared
//! [`MemoryBudget`](masort_core::MemoryBudget) handle; this crate provides
//! the component that actually moves those budgets: a [`SortService`] that
//! runs many sorts concurrently, each on the thread that redeems its ticket,
//! and a memory broker inside it that re-divides **one global page pool** across
//! all live sorts with one rule (minimums first, the surplus in proportion to
//! priority) on every admission, completion and explicit
//! [`resize_pool`](SortService::resize_pool) call. Sorts
//! genuinely grow, shrink, suspend, page and split *while running* — the
//! paper's memory-adaptive behaviour on real threads instead of inside the
//! simulator.
//!
//! ```
//! use masort_broker::prelude::*;
//! use masort_core::prelude::*;
//!
//! let service = SortService::builder()
//!     .pool_pages(32)              // one global pool, smaller than demand
//!     .workers(4)                  // at most four sorts short of their root
//!     .build();
//!
//! let cfg = SortConfig::default()
//!     .with_page_size(512)
//!     .with_tuple_size(64)
//!     .with_memory_pages(16);      // what each sort would *like* to have
//! let tickets: Vec<SortTicket> = (0..8)
//!     .map(|i| {
//!         let tuples = (0..2_000u64)
//!             .map(|k| Tuple::synthetic(k.wrapping_mul(0x9E3779B97F4A7C15) ^ i, 64))
//!             .collect();
//!         service
//!             .submit(
//!                 SortRequest::tuples(cfg.clone(), tuples)
//!                     .priority(1 + (i % 3) as u32)
//!                     .min_pages(2),
//!             )
//!             .unwrap()
//!     })
//!     .collect();
//!
//! std::thread::scope(|s| {
//!     for ticket in &tickets {
//!         // `wait` runs the sort on this thread down to its last merge
//!         // step; reading the output runs that step, here too.
//!         s.spawn(move || {
//!             let mut output = ticket.wait().unwrap();
//!             let sorted: Vec<Tuple> = output.by_ref().map(Result::unwrap).collect();
//!             assert!(sorted.windows(2).all(|w| w[0].key <= w[1].key));
//!             let report = output.finish(); // final outcome + what the broker did
//!             assert!(report.initial_grant >= 2);
//!         });
//!     }
//!     service.resize_pool(16);     // steal memory from everyone, mid-flight
//!     service.resize_pool(48);     // ... and give it back
//! });
//! ```
//!
//! ## Results are streamed, and nobody waits behind a slow reader
//!
//! [`SortTicket::wait`] runs the sort on the caller's thread down to its
//! last merge step. The step stays parked in the [`JobOutput`] it returns,
//! and whoever reads the output executes it on their own thread, so a
//! reader gets the result without it ever being written, and the grant
//! returns to the pool when the last page has been read. A reader
//! that stops holds no thread and no memory anybody waits for: a budget
//! moved meanwhile is answered at once by whoever moved it, which runs the
//! parked merge's checkpoint; a queued request that does not fit beside the
//! live minimums, or a shutdown, has the remainder settled into one run and
//! the job released, and the reader gets the rest from that run.
//!
//! ## Admission control
//!
//! Each request carries a guaranteed minimum share
//! ([`SortRequest::min_pages`]). A request is admitted only when the pool can
//! cover its minimum alongside the minimums of every live sort, and fewer
//! than [`workers`](SortServiceBuilder::workers) sorts are between their
//! admission and their root; until then its caller waits in line. A ticket
//! nobody redeems is in no line and holds no pages. Impossible requests — a
//! minimum larger than the whole pool — are
//! rejected with [`SortError::BudgetStarved`](masort_core::SortError) at
//! submission (or retroactively when the pool shrinks under a queued
//! request's minimum) instead of deadlocking the queue.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod admission;
mod broker;
mod policy;
pub mod service;
pub mod stats;
pub mod ticket;

pub use service::{job_span, SortRequest, SortService, SortServiceBuilder};
pub use stats::ServiceStats;
pub use ticket::{JobId, JobOutput, JobReport, SortTicket};

/// Convenient glob import of the service-facing types.
pub mod prelude {
    pub use crate::service::{job_span, SortRequest, SortService, SortServiceBuilder};
    pub use crate::stats::ServiceStats;
    pub use crate::ticket::{JobId, JobOutput, JobReport, SortTicket};
}
