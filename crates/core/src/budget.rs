//! The shared memory budget through which a DBMS (or any owner) grows and
//! shrinks the memory allocation of a running sort.
//!
//! The paper's buffer manager provides a *reservation mechanism*: an operator
//! reserves buffers and manages them itself, but the DBMS may at any time ask
//! it to give some back (a **memory shortage**) or hand it additional buffers
//! (**excess memory**). [`MemoryBudget`] is the Rust embodiment of that
//! contract:
//!
//! * the owner calls [`MemoryBudget::set_target`] to change the number of
//!   pages the sort is allowed to hold;
//! * the sort polls [`MemoryBudget::target`] at its adaptation points and
//!   reports what it actually holds with [`MemoryBudget::record_held`];
//! * whenever a shrink request is outstanding, the budget records how long the
//!   sort took to satisfy it — the paper's *split-phase delay* and
//!   *merge-phase delay* metrics ([`DelaySample`]).
//!
//! The handle is cheaply cloneable and thread-safe, so a real application can
//! adjust the budget from another thread while the sort runs.

use crate::sync::{Condvar, Mutex, MutexGuard};
use std::sync::Arc;
use std::time::Instant;

/// Which phase of the external sort a delay was incurred in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SortPhase {
    /// Run formation (the paper's split phase).
    Split,
    /// Merge phase.
    Merge,
}

/// One satisfied memory-shrink request: the owner asked the sort to come down
/// to some target at `requested_at`, and the sort's held pages dropped to (or
/// below) the target at `satisfied_at`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DelaySample {
    /// Phase the sort was in when the request arrived.
    pub phase: SortPhase,
    /// Time the shrink request arrived (seconds, caller-defined clock).
    pub requested_at: f64,
    /// Time the sort's holding dropped to the requested target.
    pub satisfied_at: f64,
}

impl DelaySample {
    /// Delay experienced by the memory request, in seconds.
    pub fn delay(&self) -> f64 {
        (self.satisfied_at - self.requested_at).max(0.0)
    }
}

#[derive(Debug)]
struct Inner {
    target: usize,
    held: usize,
    phase: SortPhase,
    /// Time of the earliest unsatisfied shrink request, if any.
    pending_since: Option<f64>,
    delays: Vec<DelaySample>,
    /// Monotonically increasing counter bumped on every target change; lets
    /// pollers detect changes cheaply.
    version: u64,
    /// Set by [`MemoryBudget::cancel`]; the sort observes it at its next
    /// adaptivity checkpoint and aborts with
    /// [`SortError::Cancelled`](crate::SortError::Cancelled).
    cancelled: bool,
    /// Observability handle; disabled unless attached via
    /// [`MemoryBudget::attach_trace`]. Events are emitted outside the budget
    /// lock so tracing never lengthens the critical section.
    trace: masort_trace::Trace,
}

impl Inner {
    /// Close the outstanding shrink request, if there is one, logging how
    /// long the requester waited.
    fn satisfy_pending(&mut self, now: f64) {
        if let Some(since) = self.pending_since.take() {
            self.delays.push(DelaySample {
                phase: self.phase,
                requested_at: since,
                satisfied_at: now,
            });
        }
    }
}

/// Debug-build invariant check, run at the end of every mutating critical
/// section while the budget lock is still held. The one cross-field
/// invariant every mutation must preserve: a shrink request stays pending
/// *exactly* while the sort holds more than its target — `set_target` and
/// `record_held` both clear `pending_since` the moment `held <= target`.
#[cfg(debug_assertions)]
fn check_inner(g: &Inner) {
    debug_assert!(
        g.pending_since.is_none() || g.held > g.target,
        "budget invariant violated: shrink pending while held ({}) <= target ({})",
        g.held,
        g.target,
    );
}
#[cfg(not(debug_assertions))]
fn check_inner(_g: &Inner) {}

/// A point-in-time view of a [`MemoryBudget`], read under a single lock so
/// that the fields are mutually consistent (reading `target()` and `held()`
/// separately can interleave with a concurrent update).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetSnapshot {
    /// Current page target.
    pub target: usize,
    /// Pages the sort most recently reported holding.
    pub held: usize,
    /// Value of the monotonic version counter.
    pub version: u64,
    /// Whether a shrink request is outstanding.
    pub shrink_pending: bool,
}

/// The budget's state, and the condition a suspended sort waits on.
#[derive(Debug)]
struct Shared {
    state: Mutex<Inner>,
    /// Notified by `set_target` and `cancel`.
    changed: Condvar,
}

/// Shared, thread-safe handle to the page allocation of one sort operator.
///
/// See the [module documentation](self) for the protocol.
#[derive(Clone, Debug)]
pub struct MemoryBudget {
    shared: Arc<Shared>,
}

impl MemoryBudget {
    /// Lock the shared state, recovering from a poisoned mutex (a panicking
    /// budget owner must not wedge the sort — the state is a few plain
    /// counters that are always internally consistent).
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.shared.state.lock()
    }

    /// Create a budget with an initial target of `initial_pages` pages.
    pub fn new(initial_pages: usize) -> Self {
        MemoryBudget {
            shared: Arc::new(Shared {
                state: Mutex::new(Inner {
                    target: initial_pages,
                    held: 0,
                    phase: SortPhase::Split,
                    pending_since: None,
                    delays: Vec::new(),
                    version: 0,
                    cancelled: false,
                    trace: masort_trace::Trace::disabled(),
                }),
                changed: Condvar::new(),
            }),
        }
    }

    /// Emit this budget's target and holding changes as trace events through
    /// `trace` (on whatever span the handle is bound to). The default is the
    /// disabled handle, which costs one branch per change.
    pub fn attach_trace(&self, trace: masort_trace::Trace) {
        self.lock().trace = trace;
    }

    /// Current page target (how many pages the sort is allowed to hold).
    pub fn target(&self) -> usize {
        self.lock().target
    }

    /// Pages the sort most recently reported holding.
    pub fn held(&self) -> usize {
        self.lock().held
    }

    /// Monotonic counter incremented on every [`set_target`](Self::set_target)
    /// call; pollers can compare versions to detect changes.
    pub fn version(&self) -> u64 {
        self.lock().version
    }

    /// Change the allocation target at time `now`.
    ///
    /// If the new target is below what the sort currently holds, a shrink
    /// request becomes pending; its delay is measured until the sort reports
    /// (via [`record_held`](Self::record_held)) a holding at or below target.
    /// A shrink that the sort already satisfies (it holds no more than the new
    /// target, i.e. the pages came out of free/unused buffers) is **not** a
    /// memory shortage and produces no delay sample — this matches the paper's
    /// definition of split/merge-phase delays as "the time the method takes to
    /// respond to memory shortages".
    pub fn set_target(&self, pages: usize, now: f64) {
        let (trace, prev) = {
            let mut g = self.lock();
            let prev = g.target;
            g.target = pages;
            g.version += 1;
            if g.held > pages {
                // Outstanding shortage: keep the earliest request time so the
                // measured delay covers the whole time the requester waited.
                if g.pending_since.is_none() {
                    g.pending_since = Some(now);
                }
            } else {
                // Growth (or an already-satisfied shrink): any pending
                // shortage is now moot.
                g.satisfy_pending(now);
            }
            check_inner(&g);
            (g.trace.clone(), prev)
        };
        self.shared.changed.notify_all();
        if trace.is_enabled() && prev != pages {
            trace.emit(masort_trace::EventKind::BudgetTarget {
                prev,
                target: pages,
            });
        }
    }

    /// Report how many pages the sort holds at time `now`.
    ///
    /// If a shrink request was pending and the new holding satisfies it, the
    /// delay is logged.
    pub fn record_held(&self, pages: usize, now: f64) {
        let (trace, prev) = {
            let mut g = self.lock();
            let prev = g.held;
            g.held = pages;
            if pages <= g.target {
                g.satisfy_pending(now);
            }
            check_inner(&g);
            (g.trace.clone(), prev)
        };
        if trace.is_enabled() && prev != pages {
            trace.emit(masort_trace::EventKind::BudgetHeld { prev, held: pages });
        }
    }

    /// Tell the budget which sort phase is executing, so that delay samples
    /// are attributed correctly.
    pub fn set_phase(&self, phase: SortPhase) {
        self.lock().phase = phase;
    }

    /// Phase most recently declared with [`set_phase`](Self::set_phase).
    pub fn phase(&self) -> SortPhase {
        self.lock().phase
    }

    /// Drain and return all delay samples recorded so far.
    pub fn take_delays(&self) -> Vec<DelaySample> {
        std::mem::take(&mut self.lock().delays)
    }

    /// True if a shrink request is currently outstanding.
    pub fn shrink_pending(&self) -> bool {
        self.lock().pending_since.is_some()
    }

    /// Ask the sort running against this budget to abort.
    ///
    /// The sort observes the flag at its next adaptivity checkpoint — the
    /// same points where it polls for target changes — and returns
    /// [`SortError::Cancelled`](crate::SortError::Cancelled), releasing every
    /// page it holds on the way out. Cancelling is irreversible for the
    /// budget's lifetime.
    pub fn cancel(&self) {
        self.lock().cancelled = true;
        self.shared.changed.notify_all();
    }

    /// True once [`cancel`](Self::cancel) has been called on this budget.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.lock().cancelled
    }

    /// Wait until the target is at least `pages` (true), or until the budget
    /// is cancelled or `deadline`, if there is one, passes (false).
    /// [`set_target`](Self::set_target) and [`cancel`](Self::cancel) wake the
    /// waiter; nothing polls.
    pub(crate) fn wait_for_target(&self, pages: usize, deadline: Option<Instant>) -> bool {
        let mut g = self.lock();
        loop {
            if g.target >= pages {
                return true;
            }
            let now = Instant::now();
            if g.cancelled || deadline.is_some_and(|d| now >= d) {
                return false;
            }
            g = match deadline {
                Some(d) => self.shared.changed.wait_timeout(g, d - now).0,
                None => self.shared.changed.wait(g),
            };
        }
    }

    /// Read target, holding, version and pending-shrink state atomically,
    /// under one lock acquisition.
    pub fn snapshot(&self) -> BudgetSnapshot {
        let g = self.lock();
        BudgetSnapshot {
            target: g.target,
            held: g.held,
            version: g.version,
            shrink_pending: g.pending_since.is_some(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_budget_has_target_and_no_holding() {
        let b = MemoryBudget::new(10);
        assert_eq!(b.target(), 10);
        assert_eq!(b.held(), 0);
        assert_eq!(b.held().saturating_sub(b.target()), 0);
        assert!(!b.shrink_pending());
    }

    #[test]
    fn shrink_below_holding_records_delay_when_satisfied() {
        let b = MemoryBudget::new(10);
        b.record_held(10, 0.0);
        b.set_target(4, 1.0);
        assert!(b.shrink_pending());
        assert_eq!(b.held().saturating_sub(b.target()), 6);
        b.record_held(7, 2.0); // not yet enough
        assert!(b.shrink_pending());
        b.record_held(4, 3.5);
        assert!(!b.shrink_pending());
        let d = b.take_delays();
        assert_eq!(d.len(), 1);
        assert!((d[0].delay() - 2.5).abs() < 1e-9);
        assert_eq!(d[0].phase, SortPhase::Split);
    }

    #[test]
    fn shrink_satisfied_from_free_buffers_is_not_a_shortage() {
        let b = MemoryBudget::new(10);
        b.record_held(3, 0.0);
        b.set_target(5, 1.0);
        assert!(!b.shrink_pending());
        assert!(b.take_delays().is_empty(), "no shortage, no delay sample");
    }

    #[test]
    fn growth_cancels_pending_shortage() {
        let b = MemoryBudget::new(10);
        b.record_held(10, 0.0);
        b.set_target(4, 1.0);
        assert!(b.shrink_pending());
        b.set_target(12, 2.0);
        assert!(!b.shrink_pending());
        let d = b.take_delays();
        assert_eq!(d.len(), 1);
        assert!((d[0].delay() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_shrinks_keep_earliest_request_time() {
        let b = MemoryBudget::new(10);
        b.record_held(10, 0.0);
        b.set_target(8, 1.0);
        b.set_target(4, 2.0);
        b.record_held(4, 5.0);
        let d = b.take_delays();
        assert_eq!(d.len(), 1);
        assert!((d[0].requested_at - 1.0).abs() < 1e-9);
        assert!((d[0].delay() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn phase_attribution() {
        let b = MemoryBudget::new(10);
        b.record_held(10, 0.0);
        b.set_phase(SortPhase::Merge);
        b.set_target(2, 1.0);
        b.record_held(2, 2.0);
        let d = b.take_delays();
        assert_eq!(d[0].phase, SortPhase::Merge);
    }

    #[test]
    fn version_increments_on_target_changes() {
        let b = MemoryBudget::new(10);
        let v0 = b.version();
        b.set_target(5, 0.0);
        b.set_target(9, 1.0);
        assert_eq!(b.version(), v0 + 2);
    }

    #[test]
    fn snapshot_is_internally_consistent() {
        let b = MemoryBudget::new(10);
        b.record_held(10, 0.0);
        b.set_target(4, 1.0);
        let s = b.snapshot();
        assert_eq!(s.target, 4);
        assert_eq!(s.held, 10);
        assert_eq!(s.version, 1);
        assert!(s.shrink_pending);
    }

    #[test]
    fn budget_is_shared_between_clones() {
        let a = MemoryBudget::new(10);
        let b = a.clone();
        a.set_target(3, 0.0);
        assert_eq!(b.target(), 3);
    }

    #[test]
    fn thread_safety_smoke() {
        let b = MemoryBudget::new(16);
        let b2 = b.clone();
        let h = std::thread::spawn(move || {
            for i in 0..1000usize {
                b2.set_target(i % 32, i as f64);
            }
        });
        for i in 0..1000usize {
            b.record_held(i % 32, i as f64);
        }
        h.join().unwrap();
        // No panic / deadlock; counters consistent.
        assert!(b.target() < 32);
    }

    #[test]
    fn cancel_is_sticky_and_visible_through_clones() {
        let b = MemoryBudget::new(8);
        assert!(!b.is_cancelled());
        let clone = b.clone();
        b.cancel();
        assert!(b.is_cancelled());
        assert!(clone.is_cancelled(), "clones share the flag");
        b.cancel(); // idempotent
        assert!(b.is_cancelled());
    }
}
