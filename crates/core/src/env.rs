//! The environment a sort executes in: clock, CPU-cost accounting and the
//! "wait for memory" hook used by the suspension strategy.
//!
//! The production environment ([`RealEnv`]) uses the wall clock and ignores
//! CPU-cost reports. The simulation environment (`masort-dbsim::SimEnv`)
//! advances a simulated clock, charges each operation against the CPU model of
//! paper Table 4, and delivers memory-fluctuation events whenever time passes.

use crate::budget::MemoryBudget;
use std::time::{Duration, Instant};

/// CPU operations reported by the sort algorithms, mirroring the per-operation
/// instruction counts of paper Table 4.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CpuOp {
    /// Compare two keys.
    Compare,
    /// Swap two tuples (or key/pointer pairs) during an in-memory sort.
    Swap,
    /// Copy a tuple to an output buffer.
    CopyTuple,
    /// Insert a tuple into the replacement-selection heap.
    HeapInsert,
    /// Remove the smallest tuple from the replacement-selection heap.
    HeapRemove,
    /// Start (issue) an I/O operation.
    StartIo,
    /// Apply a join predicate to a pair of tuples.
    JoinProbe,
}

/// The execution environment for an external sort or join.
pub trait SortEnv {
    /// Current time in seconds. The origin is implementation defined; only
    /// differences are meaningful.
    fn now(&self) -> f64;

    /// Report `count` occurrences of CPU operation `op`.
    fn charge_cpu(&mut self, op: CpuOp, count: u64);

    /// Give the environment a chance to deliver pending memory-allocation
    /// changes. Called at every adaptation point. The default does nothing.
    fn poll(&mut self, _budget: &MemoryBudget) {}

    /// Block until `budget.target() >= pages` (used by the *suspension*
    /// adaptation strategy). Returns `true` once the condition holds and
    /// `false` if the environment can tell that it never will (so the caller
    /// can proceed rather than deadlock).
    fn wait_for_pages(&mut self, budget: &MemoryBudget, pages: usize) -> bool;

    /// Charge the cost of re-reading `pages` buffer pages that were evicted
    /// because of a memory shortage (MRU paging faults, suspension resume,
    /// and merge-step switches under dynamic splitting). The pages are read
    /// back as one batch. The default implementation ignores the charge; the
    /// simulation environment bills it against the disk model.
    fn charge_extra_read(&mut self, _pages: usize) {}

    /// The observability handle the sort emits trace events and metrics
    /// through. The default is the disabled handle — a single branch on
    /// every emission point, so an uninstrumented environment pays nothing
    /// and behaves bit-identically to pre-trace code.
    fn trace(&self) -> masort_trace::Trace {
        masort_trace::Trace::disabled()
    }
}

impl<E: SortEnv + ?Sized> SortEnv for Box<E> {
    fn now(&self) -> f64 {
        (**self).now()
    }

    fn charge_cpu(&mut self, op: CpuOp, count: u64) {
        (**self).charge_cpu(op, count)
    }

    fn poll(&mut self, budget: &MemoryBudget) {
        (**self).poll(budget)
    }

    fn wait_for_pages(&mut self, budget: &MemoryBudget, pages: usize) -> bool {
        (**self).wait_for_pages(budget, pages)
    }

    fn charge_extra_read(&mut self, pages: usize) {
        (**self).charge_extra_read(pages)
    }

    fn trace(&self) -> masort_trace::Trace {
        (**self).trace()
    }
}

/// A production environment: wall-clock time, no CPU accounting, and
/// suspension implemented as a bounded wait on the budget, which another
/// thread is expected to raise.
#[derive(Debug)]
pub struct RealEnv {
    start: Instant,
    /// Maximum time [`SortEnv::wait_for_pages`] will wait before giving up.
    pub max_wait: Duration,
    /// Observability handle; disabled by default (zero hot-path cost).
    pub trace: masort_trace::Trace,
}

impl Default for RealEnv {
    fn default() -> Self {
        RealEnv {
            start: Instant::now(),
            max_wait: Duration::from_secs(30),
            trace: masort_trace::Trace::disabled(),
        }
    }
}

impl RealEnv {
    /// Create a real environment with default waiting behaviour.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a real environment whose clock starts at `start` instead of
    /// "now". A component that drives several sorts against one shared clock
    /// (e.g. a memory broker timestamping [`MemoryBudget::set_target`] calls)
    /// uses this so [`SortEnv::now`] and the budget's delay samples agree on
    /// a common origin.
    pub fn starting_at(start: Instant) -> Self {
        RealEnv {
            start,
            ..Self::default()
        }
    }

    /// Builder-style: emit trace events and metrics through `trace`.
    pub fn with_trace(mut self, trace: masort_trace::Trace) -> Self {
        self.trace = trace;
        self
    }
}

impl SortEnv for RealEnv {
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn charge_cpu(&mut self, _op: CpuOp, _count: u64) {}

    fn wait_for_pages(&mut self, budget: &MemoryBudget, pages: usize) -> bool {
        // A cancelled sort does not sit out the suspension timeout: the wait
        // ends at once, so the caller reaches its next checkpoint (and aborts
        // there) right away. A `max_wait` too long to add to now (say
        // `Duration::MAX`) means no deadline.
        budget.wait_for_target(pages, Instant::now().checked_add(self.max_wait))
    }

    fn trace(&self) -> masort_trace::Trace {
        self.trace.clone()
    }
}

/// A trivially instrumented environment used by unit tests: counts CPU charges
/// and uses a manually-advanced clock.
#[derive(Debug, Default)]
pub struct CountingEnv {
    /// Manually controlled clock, in seconds.
    pub clock: f64,
    /// Total number of CPU operations charged, by kind.
    pub charges: std::collections::HashMap<CpuOp, u64>,
}

impl CountingEnv {
    /// New environment at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total count charged for `op`.
    pub fn charged(&self, op: CpuOp) -> u64 {
        self.charges.get(&op).copied().unwrap_or(0)
    }
}

impl SortEnv for CountingEnv {
    fn now(&self) -> f64 {
        self.clock
    }

    fn charge_cpu(&mut self, op: CpuOp, count: u64) {
        *self.charges.entry(op).or_insert(0) += count;
    }

    fn wait_for_pages(&mut self, budget: &MemoryBudget, pages: usize) -> bool {
        // Tests drive the budget directly; if the target is already large
        // enough we "wake up", otherwise report that no growth will come.
        budget.target() >= pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_env_clock_advances() {
        let env = RealEnv::new();
        let a = env.now();
        std::thread::sleep(Duration::from_millis(2));
        assert!(env.now() > a);
    }

    #[test]
    fn real_env_wait_succeeds_when_target_already_met() {
        let mut env = RealEnv {
            max_wait: Duration::from_millis(10),
            ..RealEnv::default()
        };
        let budget = MemoryBudget::new(8);
        assert!(env.wait_for_pages(&budget, 4));
    }

    #[test]
    fn real_env_wait_times_out() {
        let mut env = RealEnv {
            max_wait: Duration::from_millis(5),
            ..RealEnv::default()
        };
        let budget = MemoryBudget::new(2);
        assert!(!env.wait_for_pages(&budget, 100));
    }

    #[test]
    fn real_env_wait_sees_concurrent_growth() {
        let mut env = RealEnv {
            max_wait: Duration::from_secs(30),
            ..RealEnv::default()
        };
        let budget = MemoryBudget::new(1);
        let b2 = budget.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            b2.set_target(16, 0.0);
        });
        let started = Instant::now();
        assert!(env.wait_for_pages(&budget, 8));
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "the growth woke nobody"
        );
        handle.join().unwrap();
    }

    #[test]
    fn real_env_wait_without_a_deadline_sees_growth() {
        let mut env = RealEnv {
            max_wait: Duration::MAX,
            ..RealEnv::default()
        };
        let budget = MemoryBudget::new(1);
        let b2 = budget.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            b2.set_target(16, 0.0);
        });
        assert!(env.wait_for_pages(&budget, 8));
        handle.join().unwrap();
    }

    #[test]
    fn real_env_wait_is_woken_by_cancel() {
        let mut env = RealEnv {
            max_wait: Duration::from_secs(30),
            ..RealEnv::default()
        };
        let budget = MemoryBudget::new(1);
        let b2 = budget.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            b2.cancel();
        });
        let started = Instant::now();
        assert!(!env.wait_for_pages(&budget, 8));
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "the cancel woke nobody"
        );
        handle.join().unwrap();
    }

    #[test]
    fn counting_env_accumulates_charges() {
        let mut env = CountingEnv::new();
        env.charge_cpu(CpuOp::Compare, 10);
        env.charge_cpu(CpuOp::Compare, 5);
        env.charge_cpu(CpuOp::CopyTuple, 3);
        assert_eq!(env.charged(CpuOp::Compare), 15);
        assert_eq!(env.charged(CpuOp::CopyTuple), 3);
        assert_eq!(env.charged(CpuOp::HeapInsert), 0);
    }
}
