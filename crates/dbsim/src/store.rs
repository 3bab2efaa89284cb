//! The simulated [`RunStore`]: run pages are kept in memory (keys matter for
//! the algorithms) but every access is billed against the disk model, with
//! runs placed on temporary-file cylinders (inner region) per the paper's
//! layout.

use crate::system::SharedSystem;
use masort_core::{Page, RunId, RunStore, SortError, SortResult};
use masort_diskmodel::{AccessKind, TempExtent};
use std::collections::HashMap;

#[derive(Debug, Default)]
struct SimRun {
    pages: Vec<Page>,
    tuples: usize,
    /// One extent per cylinder-worth of pages, allocated lazily.
    extents: Vec<TempExtent>,
}

/// A [`RunStore`] whose accesses are charged to the simulated disk.
#[derive(Debug)]
pub struct SimRunStore {
    system: SharedSystem,
    runs: HashMap<RunId, SimRun>,
    next: RunId,
    pages_written: u64,
    pages_read: u64,
}

impl SimRunStore {
    /// Create a store backed by the shared simulated system.
    pub fn new(system: SharedSystem) -> Self {
        SimRunStore {
            system,
            runs: HashMap::new(),
            next: 0,
            pages_written: 0,
            pages_read: 0,
        }
    }

    /// Cylinder that holds page `idx` of `run`, allocating extents as needed.
    fn cylinder_for(&mut self, run: RunId, idx: usize) -> SortResult<usize> {
        let ppc = self.system.borrow().layout.geometry().pages_per_cylinder;
        let extent_idx = idx / ppc;
        let r = self.runs.get_mut(&run).ok_or(SortError::UnknownRun(run))?;
        while r.extents.len() <= extent_idx {
            let extent = self.system.borrow_mut().layout.allocate_temp(ppc);
            r.extents.push(extent);
        }
        Ok(r.extents[extent_idx].start_cylinder)
    }
}

impl RunStore for SimRunStore {
    fn create_run(&mut self) -> SortResult<RunId> {
        let id = self.next;
        self.next += 1;
        self.runs.insert(id, SimRun::default());
        Ok(id)
    }

    fn append_page(&mut self, run: RunId, page: Page) -> SortResult<()> {
        let idx = self
            .runs
            .get(&run)
            .ok_or(SortError::UnknownRun(run))?
            .pages
            .len();
        let cylinder = self.cylinder_for(run, idx)?;
        self.system
            .borrow_mut()
            .charge_disk(idx, cylinder, 1, AccessKind::Write);
        self.pages_written += 1;
        let r = self.runs.get_mut(&run).ok_or(SortError::UnknownRun(run))?;
        r.tuples += page.len();
        r.pages.push(page);
        Ok(())
    }

    fn append_block(&mut self, run: RunId, pages: Vec<Page>) -> SortResult<()> {
        if pages.is_empty() {
            return Ok(());
        }
        let idx = self
            .runs
            .get(&run)
            .ok_or(SortError::UnknownRun(run))?
            .pages
            .len();
        let cylinder = self.cylinder_for(run, idx)?;
        // Make sure every cylinder the block spans is allocated.
        let _ = self.cylinder_for(run, idx + pages.len() - 1)?;
        self.system
            .borrow_mut()
            .charge_disk(idx, cylinder, pages.len(), AccessKind::Write);
        self.pages_written += pages.len() as u64;
        let r = self.runs.get_mut(&run).ok_or(SortError::UnknownRun(run))?;
        for page in pages {
            r.tuples += page.len();
            r.pages.push(page);
        }
        Ok(())
    }

    fn read_page(&mut self, run: RunId, idx: usize) -> SortResult<Page> {
        let cylinder = self.cylinder_for(run, idx)?;
        self.system
            .borrow_mut()
            .charge_disk(idx, cylinder, 1, AccessKind::Read);
        self.pages_read += 1;
        let r = self.runs.get(&run).ok_or(SortError::UnknownRun(run))?;
        r.pages
            .get(idx)
            .cloned()
            .ok_or_else(|| SortError::corrupt(run, format!("page {idx} out of range")))
    }

    fn run_pages(&self, run: RunId) -> usize {
        self.runs.get(&run).map_or(0, |r| r.pages.len())
    }

    fn run_tuples(&self, run: RunId) -> usize {
        self.runs.get(&run).map_or(0, |r| r.tuples)
    }

    fn delete_run(&mut self, run: RunId) -> SortResult<()> {
        self.runs.remove(&run);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::system::SimSystem;
    use masort_core::Tuple;

    fn store() -> SimRunStore {
        let sys = SimSystem::new(&SimConfig::no_fluctuation(), 1).shared();
        SimRunStore::new(sys)
    }

    fn page_of(keys: &[u64]) -> Page {
        Page::from_tuples(keys.iter().map(|&k| Tuple::synthetic(k, 256)).collect())
    }

    #[test]
    fn append_and_read_charge_disk_time() {
        let mut s = store();
        let sys = s.system.clone();
        let r = s.create_run().unwrap();
        s.append_page(r, page_of(&[1, 2, 3])).unwrap();
        let after_write = sys.borrow().clock;
        assert!(after_write > 0.0);
        let p = s.read_page(r, 0).unwrap();
        assert_eq!(p.len(), 3);
        assert!(sys.borrow().clock > after_write);
        assert_eq!(s.run_pages(r), 1);
        assert_eq!(s.run_tuples(r), 3);
    }

    #[test]
    fn block_append_costs_less_than_page_appends() {
        let cfg = SimConfig::no_fluctuation();
        let sys_a = SimSystem::new(&cfg, 1).shared();
        let sys_b = SimSystem::new(&cfg, 1).shared();
        let mut a = SimRunStore::new(sys_a.clone());
        let mut b = SimRunStore::new(sys_b.clone());
        let ra = a.create_run().unwrap();
        let rb = b.create_run().unwrap();
        let pages: Vec<Page> = (0..6).map(|i| page_of(&[i])).collect();
        a.append_block(ra, pages.clone()).unwrap();
        for p in pages {
            b.append_page(rb, p).unwrap();
        }
        assert!(
            sys_a.borrow().clock < sys_b.borrow().clock,
            "block write should be cheaper than six single-page writes"
        );
        assert_eq!(a.run_pages(ra), 6);
        assert_eq!(b.run_pages(rb), 6);
    }

    #[test]
    fn runs_span_multiple_cylinders() {
        let mut s = store();
        let r = s.create_run().unwrap();
        // 200 pages crosses the 90-page cylinder boundary twice.
        for i in 0..200u64 {
            s.append_page(r, page_of(&[i])).unwrap();
        }
        assert_eq!(s.run_pages(r), 200);
        let extents = s.runs.get(&r).unwrap().extents.len();
        assert!(extents >= 3);
        // Reads at both ends still work.
        assert_eq!(s.read_page(r, 0).unwrap().tuples()[0].key, 0);
        assert_eq!(s.read_page(r, 199).unwrap().tuples()[0].key, 199);
    }

    #[test]
    fn delete_run_forgets_data() {
        let mut s = store();
        let r = s.create_run().unwrap();
        s.append_page(r, page_of(&[5])).unwrap();
        s.delete_run(r).unwrap();
        assert_eq!(s.run_pages(r), 0);
        assert_eq!(s.run_tuples(r), 0);
    }

    #[test]
    fn counters_track_io() {
        let mut s = store();
        let r = s.create_run().unwrap();
        s.append_block(r, (0..4).map(|i| page_of(&[i])).collect())
            .unwrap();
        s.read_page(r, 2).unwrap();
        assert_eq!(s.pages_written, 4);
        assert_eq!(s.pages_read, 1);
    }
}
