//! Simulation configuration: the database, workload and physical-resource
//! parameters of paper Tables 2 and 3.

use crate::workload::WorkloadConfig;
use masort_core::AlgorithmSpec;

/// Page size in bytes (paper: 8 KB).
const PAGE_SIZE: usize = 8 * 1024;

/// Tuple size in bytes (paper: 256 B).
const TUPLE_SIZE: usize = 256;

/// Complete configuration of one simulated experiment point: the four things
/// the paper varies. The machine itself (CPU, disk, page and tuple sizes) is
/// the same in every experiment.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Total buffer memory `M` in bytes (paper default: 0.3 MB).
    pub(crate) memory_bytes: usize,
    /// Size of the relation to sort, in bytes (paper default: 20 MB).
    pub(crate) relation_bytes: usize,
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
            memory_bytes: (0.3 * MB as f64) as usize,
            relation_bytes: 20 * MB,
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
        (self.memory_bytes / PAGE_SIZE).max(1)
    }

    /// Relation size in pages.
    pub fn relation_pages(&self) -> usize {
        (self.relation_bytes / PAGE_SIZE).max(1)
    }

    /// Tuples per page.
    pub fn tuples_per_page(&self) -> usize {
        PAGE_SIZE / TUPLE_SIZE
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
            page_size: PAGE_SIZE,
            tuple_size: TUPLE_SIZE,
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
        assert_eq!(c.sort_config().page_size, 8192);
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
