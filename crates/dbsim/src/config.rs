//! Simulation configuration: the database, workload and physical-resource
//! parameters of paper Tables 2 and 3.

use masort_core::AlgorithmSpec;
use masort_diskmodel::DiskGeometry;
use masort_sysmodel::cpu::CpuCosts;
use masort_sysmodel::workload::WorkloadConfig;

/// Complete configuration of one simulated experiment point.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Page size in bytes (paper: 8 KB).
    pub page_size: usize,
    /// Tuple size in bytes (paper: 256 B).
    pub tuple_size: usize,
    /// Total buffer memory `M` in bytes (paper default: 0.3 MB).
    pub memory_bytes: usize,
    /// Size of the relation to sort, in bytes (paper default: 20 MB).
    pub relation_bytes: usize,
    /// Number of disks (paper default: 1).
    pub num_disks: usize,
    /// Disk geometry and timing (paper Table 3).
    pub geometry: DiskGeometry,
    /// CPU MIPS rating (paper: 20 MIPS).
    pub cpu_mips: f64,
    /// Per-operation CPU instruction counts (paper Table 4).
    pub cpu_costs: CpuCosts,
    /// Competing memory-request streams (paper Table 2).
    pub workload: WorkloadConfig,
    /// The external sort algorithm combination under test.
    pub algorithm: AlgorithmSpec,
}

/// One paper megabyte (the paper uses decimal-ish MBytes; we use 2^20).
pub const MB: usize = 1024 * 1024;

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            page_size: 8 * 1024,
            tuple_size: 256,
            memory_bytes: (0.3 * MB as f64) as usize,
            relation_bytes: 20 * MB,
            num_disks: 1,
            geometry: DiskGeometry::default(),
            cpu_mips: 20.0,
            cpu_costs: CpuCosts::default(),
            workload: WorkloadConfig::default(),
            algorithm: AlgorithmSpec::recommended(),
        }
    }
}

impl SimConfig {
    /// Configuration for the baseline experiment of paper §5.2.
    pub fn baseline() -> Self {
        Self::default()
    }

    /// Configuration with no memory fluctuation (paper §5.1).
    pub(crate) fn no_fluctuation() -> Self {
        SimConfig {
            workload: WorkloadConfig::none(),
            ..Self::default()
        }
    }

    /// Total buffer memory in pages.
    pub(crate) fn memory_pages(&self) -> usize {
        (self.memory_bytes / self.page_size).max(1)
    }

    /// Relation size in pages.
    pub fn relation_pages(&self) -> usize {
        (self.relation_bytes / self.page_size).max(1)
    }

    /// Tuples per page.
    pub fn tuples_per_page(&self) -> usize {
        (self.page_size / self.tuple_size).max(1)
    }

    /// Builder-style override of the total memory, given in MBytes.
    pub fn with_memory_mb(mut self, mb: f64) -> Self {
        self.memory_bytes = (mb * MB as f64) as usize;
        self
    }

    /// Builder-style override of the relation size, given in MBytes.
    pub fn with_relation_mb(mut self, mb: f64) -> Self {
        self.relation_bytes = (mb * MB as f64) as usize;
        self
    }

    /// Builder-style override of the algorithm under test.
    pub fn with_algorithm(mut self, algorithm: AlgorithmSpec) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Builder-style override of the memory-contention workload.
    pub fn with_workload(mut self, workload: WorkloadConfig) -> Self {
        self.workload = workload;
        self
    }

    /// The sort configuration handed to `masort-core` for this experiment.
    pub fn sort_config(&self) -> masort_core::SortConfig {
        masort_core::SortConfig {
            page_size: self.page_size,
            tuple_size: self.tuple_size,
            memory_pages: self.memory_pages(),
            algorithm: self.algorithm,
            order: masort_core::SortOrder::ascending(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SimConfig::default();
        assert_eq!(c.memory_pages(), 38, "0.3 MB of 8 KB pages");
        assert_eq!(c.relation_pages(), 2560, "20 MB relation");
        assert_eq!(c.tuples_per_page(), 32);
        assert_eq!(c.num_disks, 1);
        assert_eq!(c.cpu_mips, 20.0);
    }

    #[test]
    fn builders_adjust_sizes() {
        let c = SimConfig::default()
            .with_memory_mb(0.6)
            .with_relation_mb(10.0);
        assert_eq!(c.memory_pages(), 76);
        assert_eq!(c.relation_pages(), 1280);
        assert_eq!(c.sort_config().memory_pages, 76);
    }

    #[test]
    fn no_fluctuation_config_is_static() {
        assert!(SimConfig::no_fluctuation().workload.is_static());
        assert!(!SimConfig::baseline().workload.is_static());
    }
}
