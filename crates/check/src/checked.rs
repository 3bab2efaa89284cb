//! Instrumented synchronisation primitives for the deterministic explorer.
//!
//! Every type here has two behaviours. On a thread that belongs to an active
//! schedule (a *task* spawned by [`crate::explore`]), operations are
//! cooperative: they yield to the scheduler at every step and block by
//! parking the task, so the explorer controls every interleaving. On any
//! other thread they degrade to plain `std` behaviour, so code that touches
//! a shimmed primitive outside a model (tests, binaries) keeps working.
//!
//! Caveat for model authors: wake-ups only propagate *between tasks*. A
//! plain OS thread releasing a checked lock cannot wake a blocked task —
//! keep all shared state inside tasks.

use crate::rt;
use std::mem::ManuallyDrop;
use std::panic::Location;
// check-exempt: this module *implements* the instrumentation layer; its
// internal short critical sections are never visible to the scheduler.
use std::sync::TryLockError;
use std::time::Duration;

fn site() -> Option<rt::Site> {
    Some(Location::caller())
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// A mutual-exclusion lock checked by the deterministic explorer.
///
/// Poison is always recovered: a panicked holder never cascades an
/// `unwrap()` failure into other threads (the panic itself is still reported
/// by the explorer as a schedule failure).
pub struct Mutex<T: ?Sized> {
    res: u64,
    data: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Create a new checked mutex.
    pub fn new(t: T) -> Self {
        Mutex {
            res: rt::next_res_id(),
            data: std::sync::Mutex::new(t),
        }
    }

    /// Create a checked mutex exempt from the lock-order witness. Under the
    /// explorer this is identical to [`Mutex::new`]; the name exists so the
    /// shim API is uniform across build modes.
    pub fn unwitnessed(t: T) -> Self {
        Self::new(t)
    }

    /// Consume the mutex and return its inner value, recovering poison.
    pub fn into_inner(self) -> T {
        self.data.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking cooperatively inside a schedule.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let site = site();
        if rt::in_model() {
            loop {
                rt::yield_point(site);
                match self.data.try_lock() {
                    Ok(g) => {
                        return MutexGuard {
                            lock: self,
                            inner: ManuallyDrop::new(g),
                        }
                    }
                    Err(TryLockError::Poisoned(p)) => {
                        return MutexGuard {
                            lock: self,
                            inner: ManuallyDrop::new(p.into_inner()),
                        }
                    }
                    Err(TryLockError::WouldBlock) => {
                        rt::block_on(self.res, false, site);
                    }
                }
            }
        } else {
            let g = self.data.lock().unwrap_or_else(|e| e.into_inner());
            MutexGuard {
                lock: self,
                inner: ManuallyDrop::new(g),
            }
        }
    }

    /// Try to acquire the lock without blocking; `None` if contended.
    #[track_caller]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        rt::yield_point(site());
        match self.data.try_lock() {
            Ok(g) => Some(MutexGuard {
                lock: self,
                inner: ManuallyDrop::new(g),
            }),
            Err(TryLockError::Poisoned(p)) => Some(MutexGuard {
                lock: self,
                inner: ManuallyDrop::new(p.into_inner()),
            }),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

/// RAII guard for [`Mutex`]; releasing it wakes blocked tasks.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: ManuallyDrop<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // SAFETY: `inner` is dropped exactly once, here; the field is never
        // touched again after this point.
        unsafe { ManuallyDrop::drop(&mut self.inner) };
        rt::wake_all(self.lock.res);
    }
}

impl<'a, T: ?Sized> MutexGuard<'a, T> {
    /// Release the lock and return its owner (used by [`Condvar::wait`]).
    fn unlock(mut self) -> &'a Mutex<T> {
        let lock = self.lock;
        // SAFETY: `self` is forgotten immediately below, so the regular
        // `Drop` impl cannot run and double-drop `inner`.
        unsafe { ManuallyDrop::drop(&mut self.inner) };
        std::mem::forget(self);
        rt::wake_all(lock.res);
        lock
    }

    /// Extract the raw `std` guard (used by [`Condvar::wait`] off-task).
    fn into_std(mut self) -> (&'a Mutex<T>, std::sync::MutexGuard<'a, T>) {
        let lock = self.lock;
        // SAFETY: `self` is forgotten immediately below, so the regular
        // `Drop` impl cannot run and double-drop `inner`.
        let g = unsafe { ManuallyDrop::take(&mut self.inner) };
        std::mem::forget(self);
        (lock, g)
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// A condition variable checked by the deterministic explorer.
pub struct Condvar {
    res: u64,
    cv: std::sync::Condvar,
}

impl Condvar {
    /// Create a new checked condition variable.
    pub fn new() -> Self {
        Condvar {
            res: rt::next_res_id(),
            cv: std::sync::Condvar::new(),
        }
    }

    /// Release `guard`, wait for a notification, and re-acquire the lock.
    #[track_caller]
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let site = site();
        if rt::in_model() {
            // The calling task holds the scheduler token across the unlock
            // and the block registration, so a notifier cannot slip between
            // them: no lost wake-ups.
            let lock = guard.unlock();
            rt::block_on(self.res, false, site);
            lock.lock()
        } else {
            let (lock, g) = guard.into_std();
            let g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
            MutexGuard {
                lock,
                inner: ManuallyDrop::new(g),
            }
        }
    }

    /// Like [`Condvar::wait`] with a timeout; the second value is `true`
    /// when the wait timed out. Inside a schedule the timeout only fires
    /// when every other task is blocked (logical idle time).
    #[track_caller]
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        let site = site();
        if rt::in_model() {
            let lock = guard.unlock();
            let wake = rt::block_on(self.res, true, site);
            (lock.lock(), wake == rt::Wake::TimedOut)
        } else {
            let (lock, g) = guard.into_std();
            let (g, to) = self
                .cv
                .wait_timeout(g, dur)
                .unwrap_or_else(|e| e.into_inner());
            (
                MutexGuard {
                    lock,
                    inner: ManuallyDrop::new(g),
                },
                to.timed_out(),
            )
        }
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        rt::wake_one(self.res);
        self.cv.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        rt::wake_all(self.res);
        self.cv.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

/// Checked atomic integer and boolean types.
///
/// Each operation is a scheduler yield point followed by the corresponding
/// `std` atomic operation, so the explorer can interleave tasks between any
/// two atomic accesses. Orderings are accepted for API compatibility; under
/// the cooperative scheduler every operation is sequentially consistent.
pub mod atomic {
    use crate::rt;
    use std::panic::Location;
    #[doc(no_inline)]
    pub use std::sync::atomic::Ordering;

    macro_rules! checked_atomic_int {
        ($(#[$meta:meta])* $name:ident, $std:ty, $prim:ty) => {
            $(#[$meta])*
            #[derive(Debug, Default)]
            pub struct $name(pub(crate) $std);

            impl $name {
                /// Create a new checked atomic.
                pub const fn new(v: $prim) -> Self {
                    Self(<$std>::new(v))
                }

                /// Load the value (yield point inside a schedule).
                #[track_caller]
                pub fn load(&self, order: Ordering) -> $prim {
                    rt::yield_point(Some(Location::caller()));
                    self.0.load(order)
                }

                /// Store a value (yield point inside a schedule).
                #[track_caller]
                pub fn store(&self, v: $prim, order: Ordering) {
                    rt::yield_point(Some(Location::caller()));
                    self.0.store(v, order)
                }

                /// Swap in a value, returning the previous one.
                #[track_caller]
                pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                    rt::yield_point(Some(Location::caller()));
                    self.0.swap(v, order)
                }

                /// Add, returning the previous value.
                #[track_caller]
                pub fn fetch_add(&self, v: $prim, order: Ordering) -> $prim {
                    rt::yield_point(Some(Location::caller()));
                    self.0.fetch_add(v, order)
                }

                /// Subtract, returning the previous value.
                #[track_caller]
                pub fn fetch_sub(&self, v: $prim, order: Ordering) -> $prim {
                    rt::yield_point(Some(Location::caller()));
                    self.0.fetch_sub(v, order)
                }

                /// Maximum, returning the previous value.
                #[track_caller]
                pub fn fetch_max(&self, v: $prim, order: Ordering) -> $prim {
                    rt::yield_point(Some(Location::caller()));
                    self.0.fetch_max(v, order)
                }

                /// Minimum, returning the previous value.
                #[track_caller]
                pub fn fetch_min(&self, v: $prim, order: Ordering) -> $prim {
                    rt::yield_point(Some(Location::caller()));
                    self.0.fetch_min(v, order)
                }

                /// Compare-and-exchange; yield point inside a schedule.
                #[track_caller]
                pub fn compare_exchange(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    rt::yield_point(Some(Location::caller()));
                    self.0.compare_exchange(current, new, success, failure)
                }

                /// Mutable access without synchronisation.
                pub fn get_mut(&mut self) -> &mut $prim {
                    self.0.get_mut()
                }

                /// Consume the atomic and return the value.
                pub fn into_inner(self) -> $prim {
                    self.0.into_inner()
                }
            }
        };
    }

    checked_atomic_int!(
        /// Checked `AtomicU64`.
        AtomicU64,
        std::sync::atomic::AtomicU64,
        u64
    );
    checked_atomic_int!(
        /// Checked `AtomicUsize`.
        AtomicUsize,
        std::sync::atomic::AtomicUsize,
        usize
    );
    checked_atomic_int!(
        /// Checked `AtomicI64`.
        AtomicI64,
        std::sync::atomic::AtomicI64,
        i64
    );
    checked_atomic_int!(
        /// Checked `AtomicU32`.
        AtomicU32,
        std::sync::atomic::AtomicU32,
        u32
    );

    /// Checked `AtomicBool`.
    #[derive(Debug, Default)]
    pub struct AtomicBool(std::sync::atomic::AtomicBool);

    impl AtomicBool {
        /// Create a new checked atomic boolean.
        pub const fn new(v: bool) -> Self {
            Self(std::sync::atomic::AtomicBool::new(v))
        }

        /// Load the value (yield point inside a schedule).
        #[track_caller]
        pub fn load(&self, order: Ordering) -> bool {
            rt::yield_point(Some(Location::caller()));
            self.0.load(order)
        }

        /// Store a value (yield point inside a schedule).
        #[track_caller]
        pub fn store(&self, v: bool, order: Ordering) {
            rt::yield_point(Some(Location::caller()));
            self.0.store(v, order)
        }

        /// Swap in a value, returning the previous one.
        #[track_caller]
        pub fn swap(&self, v: bool, order: Ordering) -> bool {
            rt::yield_point(Some(Location::caller()));
            self.0.swap(v, order)
        }

        /// Compare-and-exchange; yield point inside a schedule.
        #[track_caller]
        pub fn compare_exchange(
            &self,
            current: bool,
            new: bool,
            success: Ordering,
            failure: Ordering,
        ) -> Result<bool, bool> {
            rt::yield_point(Some(Location::caller()));
            self.0.compare_exchange(current, new, success, failure)
        }
    }
}

// ---------------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------------

/// Checked thread spawning: inside a schedule, "threads" are cooperative
/// tasks of the explorer; outside, plain OS threads.
pub mod thread {
    use crate::rt;
    use std::panic::Location;
    use std::sync::Arc;
    use std::time::Duration;

    type PanicPayload = Box<dyn std::any::Any + Send + 'static>;
    type Slot<T> = Arc<std::sync::Mutex<Option<Result<T, PanicPayload>>>>;

    /// Handle to a checked thread; `join` returns the closure's result.
    pub enum JoinHandle<T> {
        /// A cooperative task of an active schedule.
        Task {
            /// Result slot filled when the task finishes.
            slot: Slot<T>,
            /// Runtime resource joiners block on.
            res: u64,
        },
        /// A plain OS thread (spawned outside any schedule).
        Os(std::thread::JoinHandle<T>),
    }

    impl<T> std::fmt::Debug for JoinHandle<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                JoinHandle::Task { .. } => f.debug_struct("JoinHandle::Task"),
                JoinHandle::Os(_) => f.debug_struct("JoinHandle::Os"),
            }
            .finish_non_exhaustive()
        }
    }

    impl<T> JoinHandle<T> {
        /// Wait for the thread/task to finish and return its result.
        #[track_caller]
        pub fn join(self) -> std::thread::Result<T> {
            match self {
                JoinHandle::Os(h) => h.join(),
                JoinHandle::Task { slot, res } => {
                    let site = Some(Location::caller());
                    loop {
                        rt::yield_point(site);
                        if let Some(r) = slot.lock().unwrap_or_else(|e| e.into_inner()).take() {
                            return r;
                        }
                        rt::block_on(res, false, site);
                    }
                }
            }
        }
    }

    /// Named-thread builder mirroring `std::thread::Builder`.
    #[derive(Default)]
    pub struct Builder {
        name: Option<String>,
    }

    impl Builder {
        /// Create a builder with no name set.
        pub fn new() -> Self {
            Builder::default()
        }

        /// Set the thread/task name (used in deadlock and panic reports).
        pub fn name(mut self, name: String) -> Self {
            self.name = Some(name);
            self
        }

        /// Spawn the thread or task.
        pub fn spawn<F, T>(self, f: F) -> std::io::Result<JoinHandle<T>>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            if rt::in_model() {
                let name = self.name.unwrap_or_else(|| "task".to_string());
                let slot: Slot<T> = Arc::new(std::sync::Mutex::new(None));
                let res = rt::next_res_id();
                let slot2 = Arc::clone(&slot);
                let name2 = name.clone();
                rt::spawn_task(
                    name,
                    Box::new(move || {
                        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
                        if let Err(ref payload) = r {
                            rt::note_panic(&name2, payload.as_ref());
                        }
                        *slot2.lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
                        rt::wake_all(res);
                    }),
                );
                // Spawning is itself a scheduling choice: the child may run
                // before the spawner continues.
                rt::yield_point(None);
                Ok(JoinHandle::Task { slot, res })
            } else {
                let mut b = std::thread::Builder::new();
                if let Some(n) = self.name {
                    b = b.name(n);
                }
                b.spawn(f).map(JoinHandle::Os)
            }
        }
    }

    /// Spawn an unnamed checked thread.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        Builder::new().spawn(f).expect("failed to spawn thread")
    }

    /// Sleep: inside a schedule this is a pure yield point (logical time
    /// advances only at idle); outside it is a real sleep.
    #[track_caller]
    pub fn sleep(dur: Duration) {
        if rt::in_model() {
            rt::yield_point(Some(Location::caller()));
        } else {
            std::thread::sleep(dur);
        }
    }

    /// Yield the scheduler token (or the OS scheduler, off-task).
    #[track_caller]
    pub fn yield_now() {
        if rt::in_model() {
            rt::yield_point(Some(Location::caller()));
        } else {
            std::thread::yield_now();
        }
    }
}
