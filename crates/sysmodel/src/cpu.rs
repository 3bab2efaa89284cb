//! CPU cost model (paper Tables 3 and 4).
//!
//! The paper charges each external-sort operation a fixed number of CPU
//! instructions (taken from the Gamma database machine) and divides by the
//! CPU's MIPS rating. Several entries of Table 4 are illegible in the scanned
//! paper; the defaults below are calibrated to the same order of magnitude
//! and documented in `DESIGN.md` as a substitution.

use masort_core::CpuOp;

/// Instructions charged per operation (paper Table 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuCosts {
    /// Compare two keys.
    pub compare: u64,
    /// Swap two (key, pointer) pairs during an in-memory sort.
    pub swap: u64,
    /// Copy a tuple to an output buffer.
    pub copy_tuple: u64,
    /// Insert a tuple into the replacement-selection heap.
    pub heap_insert: u64,
    /// Remove the smallest tuple from the replacement-selection heap.
    pub heap_remove: u64,
    /// Start (issue) an I/O operation.
    pub start_io: u64,
    /// Apply a join predicate to a pair of tuples.
    pub join_probe: u64,
}

impl Default for CpuCosts {
    fn default() -> Self {
        CpuCosts {
            compare: 50,
            swap: 100,
            copy_tuple: 200,
            heap_insert: 300,
            heap_remove: 300,
            start_io: 3000,
            join_probe: 100,
        }
    }
}

impl CpuCosts {
    /// Instructions for one occurrence of `op`.
    pub(crate) fn instructions(&self, op: CpuOp) -> u64 {
        match op {
            CpuOp::Compare => self.compare,
            CpuOp::Swap => self.swap,
            CpuOp::CopyTuple => self.copy_tuple,
            CpuOp::HeapInsert => self.heap_insert,
            CpuOp::HeapRemove => self.heap_remove,
            CpuOp::StartIo => self.start_io,
            CpuOp::JoinProbe => self.join_probe,
        }
    }
}

/// A single FCFS CPU with a MIPS rating (paper default: 20 MIPS).
#[derive(Clone, Debug)]
pub struct CpuModel {
    /// Million instructions per second.
    pub mips: f64,
    /// Per-operation instruction counts.
    pub costs: CpuCosts,
    busy_time: f64,
    instructions_executed: u64,
}

impl Default for CpuModel {
    fn default() -> Self {
        CpuModel::new(20.0, CpuCosts::default())
    }
}

impl CpuModel {
    /// Create a CPU model.
    pub fn new(mips: f64, costs: CpuCosts) -> Self {
        assert!(mips > 0.0, "MIPS rating must be positive");
        CpuModel {
            mips,
            costs,
            busy_time: 0.0,
            instructions_executed: 0,
        }
    }

    /// Time (seconds) to execute `count` occurrences of `op`, and account it.
    pub fn charge(&mut self, op: CpuOp, count: u64) -> f64 {
        let instructions = self.costs.instructions(op) * count;
        self.instructions_executed += instructions;
        let t = instructions as f64 / (self.mips * 1e6);
        self.busy_time += t;
        t
    }

    /// Reset usage counters.
    pub fn reset_counters(&mut self) {
        self.busy_time = 0.0;
        self.instructions_executed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_mips() {
        let mut cpu = CpuModel::default();
        assert_eq!(cpu.mips, 20.0);
        // 3000 instructions at 20 MIPS = 150 microseconds.
        assert!((cpu.charge(CpuOp::StartIo, 1) - 150e-6).abs() < 1e-12);
    }

    #[test]
    fn charging_accumulates() {
        let mut cpu = CpuModel::default();
        let t1 = cpu.charge(CpuOp::Compare, 1000);
        let t2 = cpu.charge(CpuOp::CopyTuple, 10);
        assert!(t1 > 0.0 && t2 > 0.0);
        assert_eq!(cpu.instructions_executed, 1000 * 50 + 10 * 200);
        assert!((cpu.busy_time - (t1 + t2)).abs() < 1e-15);
        cpu.reset_counters();
        assert_eq!(cpu.instructions_executed, 0);
    }

    #[test]
    fn every_op_has_a_cost() {
        let costs = CpuCosts::default();
        for op in [
            CpuOp::Compare,
            CpuOp::Swap,
            CpuOp::CopyTuple,
            CpuOp::HeapInsert,
            CpuOp::HeapRemove,
            CpuOp::StartIo,
            CpuOp::JoinProbe,
        ] {
            assert!(costs.instructions(op) > 0);
        }
    }

    #[test]
    fn quicksort_cheaper_than_replacement_selection_per_tuple() {
        // The paper notes Quicksort needs fewer CPU instructions per tuple
        // than replacement selection (heap maintenance + extra copies).
        let c = CpuCosts::default();
        let quick_per_tuple = c.compare * 17 + c.swap; // ~log2(100k) compares
        let repl_per_tuple = c.heap_insert + c.heap_remove + c.copy_tuple;
        assert!(quick_per_tuple < repl_per_tuple + c.compare * 17);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mips_rejected() {
        CpuModel::new(0.0, CpuCosts::default());
    }
}
