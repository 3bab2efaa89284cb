//! The simulated [`SortEnv`]: CPU charges advance the simulated clock,
//! `poll` delivers due workload events, and suspension waits by fast-forwarding
//! the clock to future departures.

use crate::system::SharedSystem;
use masort_core::{CpuOp, MemoryBudget, SortEnv};

/// A [`SortEnv`] implementation backed by the shared simulated system.
#[derive(Clone, Debug)]
pub struct SimEnv {
    system: SharedSystem,
}

impl SimEnv {
    /// Wrap a shared system.
    pub fn new(system: SharedSystem) -> Self {
        SimEnv { system }
    }
}

impl SortEnv for SimEnv {
    fn now(&self) -> f64 {
        self.system.borrow().clock
    }

    fn charge_cpu(&mut self, op: CpuOp, count: u64) {
        if count > 0 {
            self.system.borrow_mut().charge_cpu(op, count);
        }
    }

    fn poll(&mut self, _budget: &MemoryBudget) {
        // Deliver any workload events whose time has already been passed;
        // `advance(0)` processes everything scheduled at or before `clock`.
        self.system.borrow_mut().advance(0.0);
    }

    fn wait_for_pages(&mut self, _budget: &MemoryBudget, pages: usize) -> bool {
        self.system.borrow_mut().wait_until_available(pages)
    }

    fn charge_extra_read(&mut self, pages: usize) {
        self.system.borrow_mut().charge_refetch(pages);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::system::SimSystem;
    use crate::workload::WorkloadConfig;

    fn shared(cfg: &SimConfig, seed: u64) -> SharedSystem {
        SimSystem::new(cfg, seed).shared()
    }

    #[test]
    fn cpu_charges_advance_time() {
        let sys = shared(&SimConfig::no_fluctuation(), 1);
        let mut env = SimEnv::new(sys);
        assert_eq!(env.now(), 0.0);
        env.charge_cpu(CpuOp::Compare, 1_000_000);
        assert!(env.now() > 0.0);
        // 1M compares * 50 instr / 20 MIPS = 2.5 seconds.
        assert!((env.now() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn poll_updates_budget_from_workload() {
        let cfg = SimConfig::default().with_workload(WorkloadConfig {
            lambda_small: 50.0,
            mu_small: 10.0,
            mem_thres: 0.2,
            lambda_large: 0.0,
            mu_large: 1.0,
        });
        let sys = shared(&cfg, 42);
        let budget = sys.borrow().budget.clone();
        let mut env = SimEnv::new(sys);
        env.charge_cpu(CpuOp::StartIo, 10_000); // ~1.5 simulated seconds
        env.poll(&budget);
        assert!(budget.target() < 38, "small requests should have arrived");
    }

    #[test]
    fn wait_for_pages_jumps_to_departure() {
        let cfg = SimConfig::default().with_workload(WorkloadConfig {
            lambda_small: 0.0,
            lambda_large: 1.0,
            mu_large: 1.0,
            ..WorkloadConfig::default()
        });
        let sys = shared(&cfg, 7);
        let budget = sys.borrow().budget.clone();
        let mut env = SimEnv::new(sys.clone());
        // Let a couple of large requests arrive.
        env.charge_cpu(CpuOp::StartIo, 200_000);
        env.poll(&budget);
        let ok = env.wait_for_pages(&budget, 38);
        assert!(ok);
        assert_eq!(budget.target(), 38);
    }

    #[test]
    fn extra_reads_cost_disk_time() {
        let sys = shared(&SimConfig::no_fluctuation(), 1);
        let mut env = SimEnv::new(sys.clone());
        env.charge_extra_read(10);
        assert!(env.now() > 0.0);
        assert!(sys.borrow().metrics.split_pages_io >= 10);
    }
}
