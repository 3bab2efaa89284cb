//! # masort-dbsim — the database system simulation model (paper §4)
//!
//! The centralized-DBMS simulator the paper uses for its evaluation, in one
//! crate:
//!
//! * a **Source** submitting one external sort (or sort-merge join) after
//!   another over synthetic relations ([`driver`]),
//! * a **Transaction Manager** — the real `masort-core` algorithms executing
//!   against simulated resources ([`mod@env`], [`store`], [`input`]),
//! * two Poisson streams of **competing memory requests** (Table 2): each
//!   arrival shrinks the sort's [`MemoryBudget`](masort_core::MemoryBudget)
//!   target and each departure gives the pages back,
//! * a **CPU** (20 MIPS, Table 4 instruction counts) and a **disk**
//!   (seek + rotate + transfer over the Table 3 geometry; relations on the
//!   middle cylinders, sorted runs on the inner ones). Each access is charged
//!   synchronously, in the order the sort issues it, and advances the
//!   simulated clock; a discrete-event queue delivers the memory requests'
//!   arrivals and departures whose time the clock has passed.
//!
//! The experiment harness ([`experiments`]) reproduces every table and figure
//! of the paper's Section 5 and the sort-merge-join study of Section 6; the
//! binaries in `masort-bench` print them.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
mod cpu;
mod dist;
pub mod driver;
pub mod env;
mod events;
pub mod experiments;
mod geometry;
pub mod input;
mod layout;
mod model;
mod stats;
pub mod store;
pub mod system;
mod workload;

pub use config::SimConfig;
pub use driver::{run_one_join, run_one_sort, run_sort_stream, JoinMetrics, SortRunMetrics};
pub use env::SimEnv;
pub use input::SimRelationSource;
pub use store::SimRunStore;
pub use system::{SharedSystem, SimSystem};
pub use workload::WorkloadConfig;
