//! Data placement: relations on the middle cylinders, temporary files (sorted
//! runs) on the inner and outer cylinders (paper §4.1).

use crate::geometry::{CYLINDERS, PAGES_PER_CYLINDER};

/// Placement of relations and temporary files on one disk.
///
/// Relations are assigned contiguous pages starting from the middle cylinders
/// to minimise head movement; temporary extents are bump-allocated from the
/// inner region first, overflowing to the outer region, and recycled when the
/// allocator wraps around (runs are short-lived).
#[derive(Clone, Debug)]
pub struct DiskLayout {
    middle_start: usize,
    middle_end: usize,
    /// Next relation page to hand out (linear within the middle region).
    next_relation_page: usize,
    /// Next temporary cylinder to hand out.
    next_temp_cylinder: usize,
    /// Temporary cylinders: inner region [inner_start, cylinders) and outer
    /// region [0, middle_start).
    inner_start: usize,
}

impl DiskLayout {
    /// Create the disk's layout. The middle third of the cylinders is
    /// reserved for relations.
    pub fn new() -> Self {
        let third = CYLINDERS / 3;
        let middle_start = third;
        let middle_end = 2 * third;
        DiskLayout {
            middle_start,
            middle_end,
            next_relation_page: 0,
            next_temp_cylinder: 2 * third,
            inner_start: 2 * third,
        }
    }

    /// Allocate `pages` contiguous pages for a relation and return the linear
    /// page number of the first page (relative to the middle region).
    pub fn allocate_relation(&mut self, pages: usize) -> usize {
        let start = self.next_relation_page;
        self.next_relation_page += pages;
        start
    }

    /// Cylinder holding the `page`-th page of the relation area.
    pub fn relation_cylinder(&self, page: usize) -> usize {
        let cyl = self.middle_start + page / PAGES_PER_CYLINDER;
        cyl.min(self.middle_end.saturating_sub(1).max(self.middle_start))
    }

    /// Allocate a temporary extent able to hold `pages` pages and return its
    /// first cylinder.
    ///
    /// Extents are carved from the inner cylinders and wrap around (reusing
    /// space) when the region is exhausted — temporary runs are deleted as
    /// soon as they have been merged, so reuse is safe in the simulation.
    pub fn allocate_temp(&mut self, pages: usize) -> usize {
        let need_cyls = pages.div_ceil(PAGES_PER_CYLINDER).max(1);
        if self.next_temp_cylinder + need_cyls > CYLINDERS {
            // Wrap around to the start of the inner region.
            self.next_temp_cylinder = self.inner_start;
        }
        let start = self.next_temp_cylinder;
        self.next_temp_cylinder += need_cyls;
        start
    }

    /// Reset the temporary allocator (e.g. between simulated sorts).
    pub fn reset_temp(&mut self) {
        self.next_temp_cylinder = self.inner_start;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relations_live_on_middle_cylinders() {
        let mut layout = DiskLayout::new();
        let start = layout.allocate_relation(2560);
        assert_eq!(start, 0);
        let first = layout.relation_cylinder(start);
        let last = layout.relation_cylinder(start + 2559);
        // The middle third of the default 1500 cylinders.
        assert!((500..1000).contains(&first));
        assert!((500..1000).contains(&last));
        // A second relation goes right after the first.
        let second = layout.allocate_relation(100);
        assert_eq!(second, 2560);
    }

    #[test]
    fn temp_extents_live_outside_the_middle_and_wrap() {
        let mut layout = DiskLayout::new();
        let e1 = layout.allocate_temp(90 * 3);
        assert!(e1 >= 1000, "the inner third");
        let e2 = layout.allocate_temp(10);
        assert_eq!(e2, e1 + 3, "the first extent spans three cylinders");
        // Exhaust the inner region and confirm wrap-around.
        let mut last = e2;
        for _ in 0..300 {
            last = layout.allocate_temp(90 * 2);
        }
        assert!(last >= 1000);
        assert!(last < 1500);
    }

    #[test]
    fn reset_temp_reuses_space() {
        let mut layout = DiskLayout::new();
        let a = layout.allocate_temp(90);
        layout.reset_temp();
        let b = layout.allocate_temp(90);
        assert_eq!(a, b);
    }
}
