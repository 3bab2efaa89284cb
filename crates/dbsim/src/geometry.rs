//! Disk geometry and timing parameters (paper Table 3).

/// Physical characteristics of one disk.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiskGeometry {
    /// Number of cylinders (paper default 1500).
    pub cylinders: usize,
    /// Pages per cylinder (paper default 90).
    pub pages_per_cylinder: usize,
    /// Tracks per cylinder; pages per track = pages_per_cylinder / tracks.
    pub tracks_per_cylinder: usize,
    /// Seek factor: `SeekTime(n) = seek_factor * sqrt(n)` seconds (\[Bitt88\]).
    pub seek_factor: f64,
    /// Time for one full disk rotation, in seconds (paper default 16.7 ms).
    pub rotate_time: f64,
}

impl Default for DiskGeometry {
    fn default() -> Self {
        DiskGeometry {
            cylinders: 1500,
            pages_per_cylinder: 90,
            tracks_per_cylinder: 3,
            seek_factor: 0.000_617,
            rotate_time: 0.0167,
        }
    }
}

impl DiskGeometry {
    /// Pages on one track.
    pub(crate) fn pages_per_track(&self) -> usize {
        (self.pages_per_cylinder / self.tracks_per_cylinder).max(1)
    }

    /// Seek time across `distance` cylinders, in seconds. Zero distance means
    /// the head is already on the right cylinder.
    pub(crate) fn seek_time(&self, distance: usize) -> f64 {
        if distance == 0 {
            0.0
        } else {
            self.seek_factor * (distance as f64).sqrt()
        }
    }

    /// Average rotational delay (half a rotation).
    pub(crate) fn rotational_delay(&self) -> f64 {
        self.rotate_time / 2.0
    }

    /// Time to transfer `pages` consecutive pages once positioned.
    pub(crate) fn transfer_time(&self, pages: usize) -> f64 {
        self.rotate_time * pages as f64 / self.pages_per_track() as f64
    }

    /// Complete access time: seek over `distance` cylinders, average
    /// rotational delay, then transfer of `pages` pages.
    pub(crate) fn access_time(&self, distance: usize, pages: usize) -> f64 {
        self.seek_time(distance) + self.rotational_delay() + self.transfer_time(pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_table_3() {
        let g = DiskGeometry::default();
        assert_eq!(g.cylinders, 1500);
        assert_eq!(g.pages_per_cylinder, 90);
        assert!((g.rotate_time - 0.0167).abs() < 1e-12);
        assert!((g.seek_factor - 0.000617).abs() < 1e-12);
        assert_eq!(g.cylinders * g.pages_per_cylinder, 135_000);
    }

    #[test]
    fn seek_time_follows_square_root_law() {
        let g = DiskGeometry::default();
        assert_eq!(g.seek_time(0), 0.0);
        let t100 = g.seek_time(100);
        let t400 = g.seek_time(400);
        assert!((t400 / t100 - 2.0).abs() < 1e-9, "sqrt law violated");
        assert!((t100 - 0.00617).abs() < 1e-9);
    }

    #[test]
    fn transfer_scales_linearly_with_pages() {
        let g = DiskGeometry::default();
        let one = g.transfer_time(1);
        let six = g.transfer_time(6);
        assert!((six - 6.0 * one).abs() < 1e-12);
        assert!(one > 0.0);
    }

    #[test]
    fn block_access_amortises_seek_and_rotation() {
        let g = DiskGeometry::default();
        // 6 pages in one access must be cheaper than 6 separate accesses.
        let block = g.access_time(200, 6);
        let singles = 6.0 * g.access_time(200, 1);
        assert!(block < singles / 2.0);
    }
}
