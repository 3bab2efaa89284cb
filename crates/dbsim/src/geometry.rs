//! Disk geometry and timing parameters (paper Table 3). The simulated machine
//! has one disk, so these are constants.

/// Number of cylinders.
pub(crate) const CYLINDERS: usize = 1500;
/// Pages per cylinder.
pub(crate) const PAGES_PER_CYLINDER: usize = 90;
/// Tracks per cylinder.
const TRACKS_PER_CYLINDER: usize = 3;
/// Pages on one track.
const PAGES_PER_TRACK: usize = PAGES_PER_CYLINDER / TRACKS_PER_CYLINDER;
/// Seek factor: `SeekTime(n) = SEEK_FACTOR * sqrt(n)` seconds (\[Bitt88\]).
const SEEK_FACTOR: f64 = 0.000_617;
/// Time for one full disk rotation, in seconds.
const ROTATE_TIME: f64 = 0.0167;

/// Seek time across `distance` cylinders, in seconds. Zero distance means
/// the head is already on the right cylinder.
pub(crate) fn seek_time(distance: usize) -> f64 {
    if distance == 0 {
        0.0
    } else {
        SEEK_FACTOR * (distance as f64).sqrt()
    }
}

/// Average rotational delay (half a rotation).
pub(crate) fn rotational_delay() -> f64 {
    ROTATE_TIME / 2.0
}

/// Time to transfer `pages` consecutive pages once positioned.
pub(crate) fn transfer_time(pages: usize) -> f64 {
    ROTATE_TIME * pages as f64 / PAGES_PER_TRACK as f64
}

/// Complete access time: seek over `distance` cylinders, average rotational
/// delay, then transfer of `pages` pages.
pub(crate) fn access_time(distance: usize, pages: usize) -> f64 {
    seek_time(distance) + rotational_delay() + transfer_time(pages)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_table_3() {
        assert_eq!((CYLINDERS, PAGES_PER_CYLINDER), (1500, 90));
        assert_eq!(CYLINDERS * PAGES_PER_CYLINDER, 135_000);
        assert!((rotational_delay() - 0.0167 / 2.0).abs() < 1e-12);
        assert!((seek_time(1) - 0.000617).abs() < 1e-12);
        // One track (a third of a cylinder) passes in one rotation.
        assert!((transfer_time(30) - 0.0167).abs() < 1e-12);
    }

    #[test]
    fn seek_time_follows_square_root_law() {
        assert_eq!(seek_time(0), 0.0);
        let t100 = seek_time(100);
        let t400 = seek_time(400);
        assert!((t400 / t100 - 2.0).abs() < 1e-9, "sqrt law violated");
        assert!((t100 - 0.00617).abs() < 1e-9);
    }

    #[test]
    fn transfer_scales_linearly_with_pages() {
        let one = transfer_time(1);
        let six = transfer_time(6);
        assert!((six - 6.0 * one).abs() < 1e-12);
        assert!(one > 0.0);
    }

    #[test]
    fn block_access_amortises_seek_and_rotation() {
        // 6 pages in one access must be cheaper than 6 separate accesses.
        let block = access_time(200, 6);
        let singles = 6.0 * access_time(200, 1);
        assert!(block < singles / 2.0);
    }
}
