//! The lock-order witness: a per-process acquisition graph over *lock
//! classes* that panics the first time a cyclic ordering (a potential
//! deadlock) is observed — long before any schedule actually deadlocks.
//!
//! A lock's **class** is the source location of its `Mutex::new` call
//! (captured with `#[track_caller]`), exactly like the Linux kernel's
//! lockdep: all budgets share one class, all ticket slots
//! another, and a consistent acquisition order between *classes* guarantees
//! deadlock freedom between *instances*.
//!
//! On every acquisition the witness records one `held → acquired` edge per
//! lock currently held by the thread. Edges are deduplicated in a global
//! graph, so after warm-up an acquire costs one thread-local stack push and
//! one read-locked hash lookup per held lock — O(1). When a *new* edge
//! closes a cycle, the witness panics with both chains: the acquisition
//! stack that created the new edge, and the stack recorded when the
//! conflicting (reverse-path) edge was first seen.
//!
//! The witness is compiled out entirely in release builds and replaced by
//! the deterministic explorer's own deadlock detection under
//! `cfg(masort_check)`.

/// A lock class: the `file:line:column` of the lock's construction site.
pub type Site = &'static std::panic::Location<'static>;

#[cfg(all(debug_assertions, not(masort_check)))]
mod imp {
    use super::Site;
    use std::cell::RefCell;
    use std::collections::{HashMap, HashSet};
    // check-exempt: the witness is the instrumentation layer itself.
    use std::sync::{OnceLock, RwLock};

    /// A class key: compare sites by location, not by reference identity
    /// (`Location` statics are not guaranteed unique per call site).
    type Key = (&'static str, u32, u32);

    fn key(site: Site) -> Key {
        (site.file(), site.line(), site.column())
    }

    #[derive(Default)]
    struct Graph {
        /// Deduplicated `held → acquired` edges, each with the held-stack
        /// snapshot recorded when the edge was first observed.
        edges: HashMap<(Key, Key), Vec<Key>>,
        /// Adjacency view of `edges` for cycle search.
        adj: HashMap<Key, Vec<Key>>,
    }

    impl Graph {
        /// True if `from` can reach `to` through recorded edges.
        fn reaches(&self, from: Key, to: Key) -> bool {
            let mut stack = vec![from];
            let mut seen = HashSet::new();
            while let Some(k) = stack.pop() {
                if k == to {
                    return true;
                }
                if seen.insert(k) {
                    if let Some(next) = self.adj.get(&k) {
                        stack.extend(next.iter().copied());
                    }
                }
            }
            false
        }
    }

    fn graph() -> &'static RwLock<Graph> {
        static GRAPH: OnceLock<RwLock<Graph>> = OnceLock::new();
        GRAPH.get_or_init(|| RwLock::new(Graph::default()))
    }

    thread_local! {
        /// Lock classes currently held by this thread, in acquisition order.
        static HELD: RefCell<Vec<Key>> = const { RefCell::new(Vec::new()) };
    }

    fn fmt_chain(chain: &[Key]) -> String {
        chain
            .iter()
            .map(|(f, l, c)| format!("{f}:{l}:{c}"))
            .collect::<Vec<_>>()
            .join(" -> ")
    }

    pub(super) fn on_acquire(site: Site) {
        let new = key(site);
        let held_now: Vec<Key> = HELD.with(|h| h.borrow().clone());
        for &held in &held_now {
            // Same-class edges (two instances of one construction site held
            // together) are skipped: a hierarchy re-using one constructor is
            // common and instance-level order cannot be told apart from a
            // class-level cycle. See the README's exemption policy.
            if held == new {
                continue;
            }
            let edge = (held, new);
            // Fast path: the edge is already known, nothing to record.
            {
                let g = graph().read().unwrap_or_else(|e| e.into_inner());
                if g.edges.contains_key(&edge) {
                    continue;
                }
            }
            let mut g = graph().write().unwrap_or_else(|e| e.into_inner());
            if g.edges.contains_key(&edge) {
                continue;
            }
            // A new edge held -> new closes a cycle iff `new` already
            // reaches `held` through recorded edges.
            if g.reaches(new, held) {
                let reverse_chain = g
                    .edges
                    .iter()
                    .find(|((from, to), _)| *from == new && g.reaches(*to, held))
                    .or_else(|| g.edges.iter().find(|((from, _), _)| *from == new))
                    .map(|(_, chain)| fmt_chain(chain))
                    .unwrap_or_else(|| "<chain unavailable>".to_string());
                let mut this_chain = held_now.clone();
                this_chain.push(new);
                panic!(
                    "lock-order witness: cycle detected!\n  acquiring lock class {}:{}:{} while \
                     holding {}\n  this acquisition chain:    {}\n  conflicting chain (recorded \
                     earlier): {}\n  (one of these orders must change, or one lock must be \
                     constructed with Mutex::unwitnessed)",
                    new.0,
                    new.1,
                    new.2,
                    fmt_chain(&held_now),
                    fmt_chain(&this_chain),
                    reverse_chain,
                );
            }
            let mut chain = held_now.clone();
            chain.push(new);
            g.edges.insert(edge, chain);
            g.adj.entry(held).or_default().push(new);
        }
        HELD.with(|h| h.borrow_mut().push(new));
    }

    pub(super) fn on_release(site: Site) {
        let k = key(site);
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            // Guards may be dropped out of LIFO order; remove the most
            // recent matching acquisition.
            if let Some(pos) = held.iter().rposition(|&x| x == k) {
                held.remove(pos);
            }
        });
    }
}

/// Record an acquisition of a lock of class `site` by the current thread;
/// panics if this acquisition order closes a cycle in the global graph.
/// No-op in release builds and under `cfg(masort_check)`.
#[inline]
pub fn on_acquire(site: Option<Site>) {
    #[cfg(all(debug_assertions, not(masort_check)))]
    if let Some(site) = site {
        imp::on_acquire(site);
    }
    #[cfg(not(all(debug_assertions, not(masort_check))))]
    let _ = site;
}

/// Record the release of a lock of class `site` by the current thread.
/// No-op in release builds and under `cfg(masort_check)`.
#[inline]
pub fn on_release(site: Option<Site>) {
    #[cfg(all(debug_assertions, not(masort_check)))]
    if let Some(site) = site {
        imp::on_release(site);
    }
    #[cfg(not(all(debug_assertions, not(masort_check))))]
    let _ = site;
}
