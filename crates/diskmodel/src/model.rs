//! The timed disk model: head tracking, access costing, and multi-disk
//! horizontal partitioning.

use crate::geometry::DiskGeometry;

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

/// One simulated disk: geometry plus current head position and accumulated
/// busy time.
#[derive(Clone, Debug)]
pub(crate) struct DiskModel {
    geometry: DiskGeometry,
    head: usize,
    busy_time: f64,
    accesses: u64,
    pages_moved: u64,
}

impl DiskModel {
    /// Create a disk with its head parked on cylinder 0.
    pub fn new(geometry: DiskGeometry) -> Self {
        DiskModel {
            geometry,
            head: 0,
            busy_time: 0.0,
            accesses: 0,
            pages_moved: 0,
        }
    }

    /// Service one request: move the head to `cylinder` and transfer `pages`
    /// consecutive pages. Returns the service time in seconds.
    pub fn access(&mut self, cylinder: usize, pages: usize, kind: AccessKind) -> f64 {
        let cylinder = cylinder.min(self.geometry.cylinders.saturating_sub(1));
        let distance = cylinder.abs_diff(self.head);
        let mut time = self.geometry.access_time(distance, pages.max(1));
        // Sequential writes behind a write-ahead buffer overlap part of the
        // rotational latency (the paper issues asynchronous writes); model
        // this as a half-rotation discount for multi-page writes.
        if kind == AccessKind::Write && pages > 1 && distance == 0 {
            time -= self.geometry.rotational_delay() * 0.5;
        }
        self.head = cylinder;
        self.busy_time += time;
        self.accesses += 1;
        self.pages_moved += pages.max(1) as u64;
        time
    }

    /// Reset the usage counters (head position is kept).
    pub fn reset_counters(&mut self) {
        self.busy_time = 0.0;
        self.accesses = 0;
        self.pages_moved = 0;
    }
}

/// A set of disks with relations horizontally partitioned across them
/// (paper §4.1, \[Ries78, Livn87\]): page `p` of a relation lives on disk
/// `p mod #disks`.
#[derive(Clone, Debug)]
pub struct DiskArray {
    disks: Vec<DiskModel>,
}

impl DiskArray {
    /// Create `n` identical disks (at least one).
    pub fn new(geometry: DiskGeometry, n: usize) -> Self {
        let n = n.max(1);
        DiskArray {
            disks: (0..n).map(|_| DiskModel::new(geometry)).collect(),
        }
    }

    /// Which disk a linear page number maps to.
    pub(crate) fn disk_of_page(&self, page: usize) -> usize {
        page % self.disks.len()
    }

    /// Access `pages` pages starting at `cylinder` on the disk holding
    /// `first_page`. Returns the service time.
    pub fn access(
        &mut self,
        first_page: usize,
        cylinder: usize,
        pages: usize,
        kind: AccessKind,
    ) -> f64 {
        let d = self.disk_of_page(first_page);
        self.disks[d].access(cylinder, pages, kind)
    }

    /// Reset usage counters on every disk.
    pub fn reset_counters(&mut self) {
        for d in &mut self.disks {
            d.reset_counters();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_moves_head_and_accumulates_time() {
        let mut d = DiskModel::new(DiskGeometry::default());
        let t1 = d.access(700, 1, AccessKind::Read);
        assert!(t1 > 0.0);
        assert_eq!(d.head, 700);
        let t2 = d.access(700, 1, AccessKind::Read);
        assert!(t2 < t1, "no seek needed the second time");
        assert_eq!(d.accesses, 2);
        assert_eq!(d.pages_moved, 2);
        assert!((d.busy_time - (t1 + t2)).abs() < 1e-12);
    }

    #[test]
    fn alternating_far_accesses_cost_more_than_sequential() {
        let g = DiskGeometry::default();
        let mut alternating = DiskModel::new(g);
        let mut sequential = DiskModel::new(g);
        // Alternate between a relation cylinder (middle) and a temp cylinder
        // (inner), one page at a time — the repl1 pattern.
        for _ in 0..50 {
            alternating.access(750, 1, AccessKind::Read);
            alternating.access(1400, 1, AccessKind::Write);
        }
        // Sequential: read 50 pages then write 50 pages, in blocks of 10.
        for i in 0..5 {
            sequential.access(750 + i, 10, AccessKind::Read);
        }
        for i in 0..5 {
            sequential.access(1400 + i, 10, AccessKind::Write);
        }
        assert!(
            alternating.busy_time > 3.0 * sequential.busy_time,
            "alternating {} vs sequential {}",
            alternating.busy_time,
            sequential.busy_time
        );
    }

    #[test]
    fn avg_page_time_decreases_with_block_size() {
        let g = DiskGeometry::default();
        let mut prev = f64::INFINITY;
        for block in [1usize, 2, 4, 6, 8, 12] {
            let mut d = DiskModel::new(g);
            // Simulate the repl-N pattern: read `block` relation pages, write
            // `block` temp pages, repeatedly.
            for i in 0..40 {
                d.access(750 + i / 10, block, AccessKind::Read);
                d.access(1300 + i / 10, block, AccessKind::Write);
            }
            let avg = d.busy_time / d.pages_moved as f64;
            assert!(
                avg <= prev + 1e-12,
                "avg page time should not increase with block size"
            );
            prev = avg;
        }
    }

    #[test]
    fn disk_array_partitions_pages_round_robin() {
        let arr = DiskArray::new(DiskGeometry::default(), 3);
        assert_eq!(arr.disks.len(), 3);
        assert_eq!(arr.disk_of_page(0), 0);
        assert_eq!(arr.disk_of_page(1), 1);
        assert_eq!(arr.disk_of_page(2), 2);
        assert_eq!(arr.disk_of_page(3), 0);
    }

    #[test]
    fn disk_array_accumulates_per_disk() {
        let mut arr = DiskArray::new(DiskGeometry::default(), 2);
        arr.access(0, 700, 4, AccessKind::Read);
        arr.access(1, 800, 4, AccessKind::Read);
        arr.access(2, 900, 4, AccessKind::Read);
        let pages_moved = |arr: &DiskArray| arr.disks.iter().map(|d| d.pages_moved).sum::<u64>();
        assert_eq!(arr.disks[0].accesses, 2);
        assert_eq!(arr.disks[1].accesses, 1);
        assert_eq!(pages_moved(&arr), 12);
        assert!(arr.disks.iter().all(|d| d.busy_time > 0.0));
        arr.reset_counters();
        assert_eq!(pages_moved(&arr), 0);
    }

    #[test]
    fn single_disk_array_never_empty() {
        let arr = DiskArray::new(DiskGeometry::default(), 0);
        assert_eq!(arr.disks.len(), 1);
        assert!(!arr.disks.is_empty());
    }
}
