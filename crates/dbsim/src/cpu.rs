//! CPU cost model (paper Tables 3 and 4).
//!
//! The paper charges each external-sort operation a fixed number of CPU
//! instructions (taken from the Gamma database machine) and divides by the
//! CPU's MIPS rating. Several entries of Table 4 are illegible in the scanned
//! paper; the counts below are calibrated to the same order of magnitude, and
//! the `exp_*` binaries (README, *Running the paper experiments*) show the
//! figures they produce.

use masort_core::CpuOp;

/// The one FCFS CPU's rating, in million instructions per second (paper: 20).
const MIPS: f64 = 20.0;

/// Instructions charged per occurrence of `op` (paper Table 4).
fn instructions(op: CpuOp) -> u64 {
    match op {
        CpuOp::Compare => 50,
        CpuOp::Swap => 100,
        CpuOp::CopyTuple => 200,
        CpuOp::HeapInsert => 300,
        CpuOp::HeapRemove => 300,
        CpuOp::StartIo => 3000,
        CpuOp::JoinProbe => 100,
    }
}

/// Time (seconds) the CPU takes to execute `count` occurrences of `op`.
pub(crate) fn cpu_seconds(op: CpuOp, count: u64) -> f64 {
    (instructions(op) * count) as f64 / (MIPS * 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_mips() {
        // 3000 instructions at 20 MIPS = 150 microseconds.
        assert!((cpu_seconds(CpuOp::StartIo, 1) - 150e-6).abs() < 1e-12);
    }

    #[test]
    fn quicksort_cheaper_than_replacement_selection_per_tuple() {
        // The paper notes Quicksort needs fewer CPU instructions per tuple
        // than replacement selection (heap maintenance + extra copies).
        let compare = instructions(CpuOp::Compare);
        let quick_per_tuple = compare * 17 + instructions(CpuOp::Swap); // ~log2(100k) compares
        let repl_per_tuple = instructions(CpuOp::HeapInsert)
            + instructions(CpuOp::HeapRemove)
            + instructions(CpuOp::CopyTuple);
        assert!(quick_per_tuple < repl_per_tuple + compare * 17);
    }
}
