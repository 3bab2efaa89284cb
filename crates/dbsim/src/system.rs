//! The shared simulated system: clock, CPU, disk, the sort's memory budget
//! and the memory-contention workload.
//!
//! The sort operator runs as ordinary synchronous code; every resource it
//! consumes is charged against this system, which advances the simulated
//! clock and — crucially — delivers any competing memory-request arrivals and
//! departures whose timestamps have been passed, updating the sort's
//! [`MemoryBudget`] target on the way. This is how the paper's memory
//! fluctuations reach the executing sort.

use crate::config::SimConfig;
use crate::cpu::cpu_seconds;
use crate::geometry::CYLINDERS;
use crate::layout::DiskLayout;
use crate::model::{AccessKind, DiskModel};
use crate::workload::MemoryWorkload;
use masort_core::{CpuOp, MemoryBudget, SortPhase};
use std::cell::RefCell;
use std::rc::Rc;

/// Aggregate I/O and timing counters kept by the system.
#[derive(Clone, Debug, Default)]
pub struct SystemMetrics {
    /// Disk busy time accumulated while the sort was in its split phase.
    pub split_disk_time: f64,
    /// Pages moved while the sort was in its split phase.
    pub split_pages_io: u64,
    /// Disk busy time accumulated during the merge phase.
    pub merge_disk_time: f64,
    /// Pages moved during the merge phase.
    pub merge_pages_io: u64,
    /// Total CPU time charged.
    pub cpu_time: f64,
}

impl SystemMetrics {
    /// Average disk time per page moved during the split phase (seconds).
    pub(crate) fn split_avg_page_time(&self) -> f64 {
        if self.split_pages_io == 0 {
            0.0
        } else {
            self.split_disk_time / self.split_pages_io as f64
        }
    }
}

/// The simulated database system shared by the environment, run store and
/// input source of one experiment.
#[derive(Debug)]
pub struct SimSystem {
    /// Current simulated time in seconds.
    pub(crate) clock: f64,
    /// The disk manager.
    pub(crate) disk: DiskModel,
    /// Data placement on the disks.
    pub(crate) layout: DiskLayout,
    /// The competing memory-request streams.
    pub(crate) workload: MemoryWorkload,
    /// The sort operator's memory budget (target = M − competing requests).
    pub budget: MemoryBudget,
    /// Aggregate counters.
    pub metrics: SystemMetrics,
}

/// Shared handle to a [`SimSystem`]; the simulation is single threaded.
pub type SharedSystem = Rc<RefCell<SimSystem>>;

impl SimSystem {
    /// Build a system for the given configuration, seeding the workload
    /// generator with `seed`.
    pub fn new(cfg: &SimConfig, seed: u64) -> Self {
        let workload = MemoryWorkload::new(cfg.workload, cfg.memory_pages(), seed);
        let available = workload.pages_available_to_sort();
        SimSystem {
            clock: 0.0,
            disk: DiskModel::default(),
            layout: DiskLayout::new(),
            workload,
            budget: MemoryBudget::new(available),
            metrics: SystemMetrics::default(),
        }
    }

    /// Wrap the system in a shareable handle.
    pub fn shared(self) -> SharedSystem {
        Rc::new(RefCell::new(self))
    }

    /// Advance the clock by `dt` seconds, delivering every workload event
    /// (arrival or departure of a competing memory request) that fires on the
    /// way and refreshing the sort's budget target after each one.
    pub(crate) fn advance(&mut self, dt: f64) {
        let end = self.clock + dt.max(0.0);
        loop {
            match self.workload.next_event_time() {
                Some(t) if t <= end => {
                    self.clock = self.clock.max(t);
                    self.workload.advance_one(t);
                    self.refresh_budget();
                }
                _ => break,
            }
        }
        self.clock = end;
    }

    /// Recompute the sort's page target after the competing requests changed.
    pub fn refresh_budget(&mut self) {
        let available = self.workload.pages_available_to_sort();
        self.budget.set_target(available, self.clock);
    }

    /// Charge `count` occurrences of CPU operation `op`.
    pub(crate) fn charge_cpu(&mut self, op: CpuOp, count: u64) {
        let t = cpu_seconds(op, count);
        self.metrics.cpu_time += t;
        self.advance(t);
    }

    /// Charge a disk access of `pages` pages at `cylinder`, attributing the
    /// time to the current sort phase.
    pub(crate) fn charge_disk(&mut self, cylinder: usize, pages: usize, kind: AccessKind) {
        let t = self.disk.access(cylinder, pages, kind);
        match self.budget.phase() {
            SortPhase::Split => {
                self.metrics.split_disk_time += t;
                self.metrics.split_pages_io += pages.max(1) as u64;
            }
            SortPhase::Merge => {
                self.metrics.merge_disk_time += t;
                self.metrics.merge_pages_io += pages.max(1) as u64;
            }
        }
        self.advance(t);
    }

    /// Charge the re-reading of `pages` evicted buffer pages (paging faults,
    /// suspension resumes, merge-step switches). Modelled as one batched read
    /// in the temporary-file region.
    pub(crate) fn charge_refetch(&mut self, pages: usize) {
        if pages == 0 {
            return;
        }
        let cylinder = CYLINDERS * 5 / 6; // middle of the inner region
        self.charge_disk(cylinder, pages, AccessKind::Read);
    }

    /// Block (advance simulated time through future workload events) until the
    /// sort's budget target reaches `pages`. Returns `false` if the workload
    /// can never satisfy the request (no pending events).
    pub(crate) fn wait_until_available(&mut self, pages: usize) -> bool {
        loop {
            if self.budget.target() >= pages {
                return true;
            }
            match self.workload.next_event_time() {
                Some(t) => {
                    self.clock = self.clock.max(t);
                    self.workload.advance_one(t);
                    self.refresh_budget();
                }
                None => return false,
            }
        }
    }

    /// Reset per-sort counters (between sorts of a stream). The clock, disk
    /// head position and outstanding workload requests carry over.
    pub(crate) fn reset_sort_counters(&mut self) {
        self.metrics = SystemMetrics::default();
        self.layout.reset_temp();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadConfig;

    #[test]
    fn advance_without_events_just_moves_clock() {
        let cfg = SimConfig::no_fluctuation();
        let mut sys = SimSystem::new(&cfg, 1);
        sys.advance(5.0);
        assert_eq!(sys.clock, 5.0);
        assert_eq!(sys.budget.target(), 38);
    }

    #[test]
    fn workload_events_shrink_and_restore_the_budget() {
        let cfg = SimConfig::default().with_workload(WorkloadConfig {
            lambda_small: 0.0,
            lambda_large: 0.5,
            mu_large: 2.0,
            ..WorkloadConfig::default()
        });
        let mut sys = SimSystem::new(&cfg, 3);
        let mut saw_shrink = false;
        for _ in 0..200 {
            sys.advance(1.0);
            if sys.budget.target() < cfg.memory_pages() {
                saw_shrink = true;
            }
        }
        assert!(saw_shrink, "large requests should have taken memory");
        // Eventually all requests depart if we stop time long enough after
        // the last arrival: just check the target never exceeds total.
        assert!(sys.budget.target() <= cfg.memory_pages());
    }

    #[test]
    fn charge_cpu_and_disk_advance_the_clock() {
        let cfg = SimConfig::no_fluctuation();
        let mut sys = SimSystem::new(&cfg, 1);
        sys.charge_cpu(CpuOp::StartIo, 100);
        let after_cpu = sys.clock;
        assert!(after_cpu > 0.0);
        sys.charge_disk(750, 6, AccessKind::Read);
        assert!(sys.clock > after_cpu);
        assert!(sys.metrics.split_pages_io >= 6);
        assert!(sys.metrics.split_avg_page_time() > 0.0);
    }

    #[test]
    fn phase_attribution_of_disk_time() {
        let cfg = SimConfig::no_fluctuation();
        let mut sys = SimSystem::new(&cfg, 1);
        sys.budget.set_phase(SortPhase::Merge);
        sys.charge_disk(750, 2, AccessKind::Write);
        assert_eq!(sys.metrics.split_pages_io, 0);
        assert_eq!(sys.metrics.merge_pages_io, 2);
    }

    #[test]
    fn wait_until_available_advances_to_departures() {
        let cfg = SimConfig::default().with_workload(WorkloadConfig {
            lambda_small: 2.0,
            mu_small: 0.5,
            lambda_large: 0.2,
            mu_large: 2.0,
            mem_thres: 0.5,
        });
        let mut sys = SimSystem::new(&cfg, 9);
        // Let some requests pile up.
        sys.advance(3.0);
        let before = sys.clock;
        let ok = sys.wait_until_available(30);
        assert!(ok);
        assert!(sys.budget.target() >= 30);
        assert!(sys.clock >= before);
    }

    #[test]
    fn static_workload_wait_returns_false_when_impossible() {
        let cfg = SimConfig::no_fluctuation();
        let mut sys = SimSystem::new(&cfg, 1);
        // Ask for more than total memory: impossible, and no events pending.
        assert!(!sys.wait_until_available(1000));
    }
}
