//! The timed disk model of paper Table 3: head tracking and access costing.
//!
//! Each disk has `#Cylinders` cylinders of `CylSize` pages; an access costs
//! `Seek + RotateDelay + Transfer`, with `SeekTime(n) = SeekFactor · √n`
//! (\[Bitt88\]). Accesses are served in the order they are charged. Relations
//! lie on the middle cylinders and sorted runs on the inner ones, which is
//! what makes the alternating read-one-page / write-one-page pattern of
//! classic replacement selection so expensive (paper §2.1, Table 5).

use crate::geometry::{self, CYLINDERS};

/// Whether an access reads or writes (writes to sequential positions get a
/// small pipelining discount, standing in for the paper's asynchronous write
/// requests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// A read request.
    Read,
    /// A write request.
    Write,
}

/// The simulated disk: its current head position, cylinder 0 at the start.
#[derive(Clone, Debug, Default)]
pub(crate) struct DiskModel {
    head: usize,
}

impl DiskModel {
    /// Service one request: move the head to `cylinder` and transfer `pages`
    /// consecutive pages. Returns the service time in seconds.
    pub fn access(&mut self, cylinder: usize, pages: usize, kind: AccessKind) -> f64 {
        let cylinder = cylinder.min(CYLINDERS - 1);
        let distance = cylinder.abs_diff(self.head);
        let mut time = geometry::access_time(distance, pages.max(1));
        // Sequential writes behind a write-ahead buffer overlap part of the
        // rotational latency (the paper issues asynchronous writes); model
        // this as a half-rotation discount for multi-page writes.
        if kind == AccessKind::Write && pages > 1 && distance == 0 {
            time -= geometry::rotational_delay() * 0.5;
        }
        self.head = cylinder;
        time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_moves_head_and_accumulates_time() {
        let mut d = DiskModel::default();
        let t1 = d.access(700, 1, AccessKind::Read);
        assert!(t1 > 0.0);
        assert_eq!(d.head, 700);
        let t2 = d.access(700, 1, AccessKind::Read);
        assert!(t2 < t1, "no seek needed the second time");
    }

    #[test]
    fn alternating_far_accesses_cost_more_than_sequential() {
        let mut d = DiskModel::default();
        // Alternate between a relation cylinder (middle) and a temp cylinder
        // (inner), one page at a time — the repl1 pattern.
        let alternating: f64 = (0..50)
            .map(|_| d.access(750, 1, AccessKind::Read) + d.access(1400, 1, AccessKind::Write))
            .sum();
        // Sequential: read 50 pages then write 50 pages, in blocks of 10.
        let mut d = DiskModel::default();
        let reads: f64 = (0..5)
            .map(|i| d.access(750 + i, 10, AccessKind::Read))
            .sum();
        let writes: f64 = (0..5)
            .map(|i| d.access(1400 + i, 10, AccessKind::Write))
            .sum();
        let sequential = reads + writes;
        assert!(
            alternating > 3.0 * sequential,
            "alternating {alternating} vs sequential {sequential}"
        );
    }

    #[test]
    fn avg_page_time_decreases_with_block_size() {
        let mut prev = f64::INFINITY;
        for block in [1usize, 2, 4, 6, 8, 12] {
            let mut d = DiskModel::default();
            // Simulate the repl-N pattern: read `block` relation pages, write
            // `block` temp pages, repeatedly.
            let busy: f64 = (0..40)
                .map(|i| {
                    d.access(750 + i / 10, block, AccessKind::Read)
                        + d.access(1300 + i / 10, block, AccessKind::Write)
                })
                .sum();
            let avg = busy / (80 * block) as f64;
            assert!(
                avg <= prev + 1e-12,
                "avg page time should not increase with block size"
            );
            prev = avg;
        }
    }
}
