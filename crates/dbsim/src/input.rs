//! The simulated input relation: synthetic tuples with uniformly random keys,
//! placed on the middle (relation) cylinders, each page read charged against
//! the disk model.

use crate::model::AccessKind;
use crate::system::SharedSystem;
use masort_core::{InputSource, Page, SortResult, Tuple, TupleArena, MIN_DENSE_STRIDE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An [`InputSource`] over a simulated base relation.
#[derive(Debug)]
pub struct SimRelationSource {
    system: SharedSystem,
    /// Linear page number of the relation's first page (within the relation
    /// area of the disk layout).
    start_page: usize,
    total_pages: usize,
    next_page: usize,
    tuples_per_page: usize,
    tuple_size: usize,
    key_domain: Option<u64>,
    rng: StdRng,
}

impl SimRelationSource {
    /// Allocate a relation of `total_pages` pages on the simulated disks and
    /// return a source that scans it.
    pub fn new(
        system: SharedSystem,
        total_pages: usize,
        tuples_per_page: usize,
        tuple_size: usize,
        seed: u64,
    ) -> Self {
        let start_page = system.borrow_mut().layout.allocate_relation(total_pages);
        SimRelationSource {
            system,
            start_page,
            total_pages,
            next_page: 0,
            tuples_per_page,
            tuple_size,
            key_domain: None,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Restrict keys to `0..domain` (useful for join workloads where matches
    /// should actually occur). Keys default to the full 64-bit range.
    pub(crate) fn with_key_domain(mut self, domain: u64) -> Self {
        self.key_domain = Some(domain.max(1));
        self
    }
}

impl InputSource for SimRelationSource {
    fn next_page(&mut self) -> SortResult<Option<Page>> {
        if self.next_page >= self.total_pages {
            return Ok(None);
        }
        let linear = self.start_page + self.next_page;
        let cylinder = self.system.borrow().layout.relation_cylinder(linear);
        self.system
            .borrow_mut()
            .charge_disk(cylinder, 1, AccessKind::Read);
        self.next_page += 1;
        // A synthetic record is its 12-byte header, whatever its nominal size.
        let mut page = TupleArena::with_capacity(MIN_DENSE_STRIDE, self.tuples_per_page);
        for _ in 0..self.tuples_per_page {
            let key = match self.key_domain {
                Some(domain) => self.rng.gen_range(0..domain),
                None => self.rng.gen::<u64>(),
            };
            page.push(&Tuple::synthetic(key, self.tuple_size));
        }
        Ok(Some(page.seal()))
    }

    fn total_pages(&self) -> Option<usize> {
        Some(self.total_pages)
    }

    fn total_tuples(&self) -> Option<usize> {
        Some(self.total_pages * self.tuples_per_page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::system::SimSystem;

    #[test]
    fn scans_whole_relation_and_charges_time() {
        let cfg = SimConfig::no_fluctuation();
        let sys = SimSystem::new(&cfg, 1).shared();
        let mut src = SimRelationSource::new(sys.clone(), 10, 32, 256, 7);
        assert_eq!(src.total_pages(), Some(10));
        assert_eq!(src.total_tuples(), Some(320));
        let mut pages = 0;
        while let Some(p) = src.next_page().unwrap() {
            assert_eq!(p.len(), 32);
            pages += 1;
        }
        assert_eq!(pages, 10);
        assert_eq!(src.next_page, 10);
        assert!(sys.borrow().clock > 0.0);
        assert!(src.next_page().unwrap().is_none());
    }

    #[test]
    fn relation_pages_live_on_middle_cylinders() {
        let cfg = SimConfig::no_fluctuation();
        let sys = SimSystem::new(&cfg, 1).shared();
        let _src = SimRelationSource::new(sys.clone(), 2560, 32, 256, 7);
        let sysb = sys.borrow();
        let cyl_first = sysb.layout.relation_cylinder(0);
        let cyl_last = sysb.layout.relation_cylinder(2559);
        // The middle third of the default 1500 cylinders.
        assert!((500..1000).contains(&cyl_first));
        assert!((500..1000).contains(&cyl_last));
    }

    #[test]
    fn two_relations_do_not_overlap() {
        let cfg = SimConfig::no_fluctuation();
        let sys = SimSystem::new(&cfg, 1).shared();
        let a = SimRelationSource::new(sys.clone(), 100, 32, 256, 1);
        let b = SimRelationSource::new(sys.clone(), 100, 32, 256, 2);
        assert_ne!(a.start_page, b.start_page);
        assert_eq!(b.start_page, 100);
    }

    #[test]
    fn keys_are_deterministic_per_seed() {
        let cfg = SimConfig::no_fluctuation();
        let collect = |seed| {
            let sys = SimSystem::new(&cfg, 1).shared();
            let mut src = SimRelationSource::new(sys, 3, 8, 256, seed);
            let mut keys = Vec::new();
            while let Some(p) = src.next_page().unwrap() {
                keys.extend(p.tuples().iter().map(|t| t.key));
            }
            keys
        };
        assert_eq!(collect(5), collect(5));
        assert_ne!(collect(5), collect(6));
    }
}
