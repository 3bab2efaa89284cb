//! # masort-diskmodel — the analytic disk substrate
//!
//! Implements the physical resource model of paper Table 3: each disk has
//! `#Cylinders` cylinders of `CylSize` pages; a request costs
//! `Seek + RotateDelay + Transfer`, with `SeekTime(n) = SeekFactor · √n`
//! (\[Bitt88\]). Requests are ordered by an elevator scheduler. Relations are
//! laid out on the middle cylinders and temporary files (sorted runs) on the
//! inner or outer cylinders, which is what makes the alternating
//! read-one-page / write-one-page pattern of classic replacement selection so
//! expensive (paper §2.1, Table 5).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod elevator;
pub mod geometry;
pub mod layout;
pub mod model;

pub use elevator::ElevatorQueue;
pub use geometry::DiskGeometry;
pub use layout::{DiskLayout, Region, TempExtent};
pub use model::{AccessKind, DiskArray};
