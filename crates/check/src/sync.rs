//! The masort synchronisation shim.
//!
//! Every masort crate uses these types instead of `std::sync::{Mutex,
//! Condvar}` and `std::thread` spawning, and no `RwLock` and no
//! `std::sync::mpsc` channel at all (the `lint-sync` binary enforces this).
//! The shim has three build modes:
//!
//! - **release** (default): transparent wrappers over `std` with
//!   poison-recovering `lock()`; compiles away to nothing.
//! - **debug** (default with `debug_assertions`): additionally feeds every
//!   acquisition to the [lock-order witness](crate::witness), which panics
//!   on the first cyclic lock ordering. A lock can opt out with
//!   [`Mutex::unwitnessed`].
//! - **`--cfg masort_check`**: the types are the instrumented primitives of
//!   [`crate::checked`], driven by the deterministic
//!   [interleaving explorer](crate::explore).
//!
//! API deltas from `std`, in every mode: `lock()` returns its guard
//! directly (poison is always recovered — a panicked holder reports
//! its panic but never cascades an `unwrap` failure into other threads), and
//! `Condvar::wait_timeout` returns `(guard, timed_out: bool)`.

#[cfg(masort_check)]
pub use crate::checked::{Condvar, Mutex, MutexGuard};

#[cfg(not(masort_check))]
pub use self::default_impl::{Condvar, Mutex, MutexGuard};

/// Atomic types. In default builds these are `std`'s atomics re-exported;
/// under `cfg(masort_check)` every operation is a scheduler yield point.
pub mod atomic {
    #[cfg(masort_check)]
    pub use crate::checked::atomic::{
        AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering,
    };
    // check-exempt: this module *is* the shim's std escape hatch.
    #[cfg(not(masort_check))]
    #[doc(no_inline)]
    pub use std::sync::atomic::{
        AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering,
    };
}

/// Thread spawning and sleeping: `std::thread`'s in default builds, explorer
/// tasks under `cfg(masort_check)`, the same names in both (so no `scope`).
pub mod thread {
    #[cfg(masort_check)]
    pub use crate::checked::thread::*;
    #[cfg(not(masort_check))]
    #[doc(no_inline)]
    pub use std::thread::{sleep, spawn, yield_now, Builder, JoinHandle};
}

#[cfg(not(masort_check))]
mod default_impl {
    use crate::witness;
    use std::mem::ManuallyDrop;
    use std::time::Duration;

    #[cfg(debug_assertions)]
    type SiteField = Option<witness::Site>;
    #[cfg(not(debug_assertions))]
    type SiteField = ();

    #[cfg(debug_assertions)]
    #[inline]
    #[track_caller]
    fn here() -> SiteField {
        Some(std::panic::Location::caller())
    }
    #[cfg(not(debug_assertions))]
    #[inline]
    fn here() -> SiteField {}

    #[cfg(debug_assertions)]
    #[inline]
    fn no_site() -> SiteField {
        None
    }
    #[cfg(not(debug_assertions))]
    #[inline]
    fn no_site() -> SiteField {}

    #[cfg(debug_assertions)]
    #[inline]
    fn as_site(s: SiteField) -> Option<witness::Site> {
        s
    }
    #[cfg(not(debug_assertions))]
    #[inline]
    fn as_site(_s: SiteField) -> Option<witness::Site> {
        None
    }

    /// A mutual-exclusion lock: `std::sync::Mutex` plus poison recovery and
    /// (in debug builds) the lock-order witness keyed by construction site.
    pub struct Mutex<T: ?Sized> {
        site: SiteField,
        inner: std::sync::Mutex<T>,
    }

    impl<T> Mutex<T> {
        /// Create a mutex whose lock class is this construction site.
        #[cfg_attr(debug_assertions, track_caller)]
        pub fn new(t: T) -> Self {
            Mutex {
                site: here(),
                inner: std::sync::Mutex::new(t),
            }
        }

        /// Create a mutex exempt from the lock-order witness. Use only for
        /// locks with a documented external ordering argument (see the
        /// README's exemption policy).
        pub fn unwitnessed(t: T) -> Self {
            Mutex {
                site: no_site(),
                inner: std::sync::Mutex::new(t),
            }
        }

        /// Consume the mutex and return its inner value, recovering poison.
        pub fn into_inner(self) -> T {
            self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
        }
    }

    impl<T: ?Sized> Mutex<T> {
        /// Acquire the lock; poison is recovered, never propagated.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            witness::on_acquire(as_site(self.site));
            let g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            MutexGuard {
                site: self.site,
                inner: ManuallyDrop::new(g),
            }
        }

        /// Try to acquire the lock without blocking; `None` if contended.
        pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
            match self.inner.try_lock() {
                Ok(g) => {
                    witness::on_acquire(as_site(self.site));
                    Some(MutexGuard {
                        site: self.site,
                        inner: ManuallyDrop::new(g),
                    })
                }
                Err(std::sync::TryLockError::Poisoned(p)) => {
                    witness::on_acquire(as_site(self.site));
                    Some(MutexGuard {
                        site: self.site,
                        inner: ManuallyDrop::new(p.into_inner()),
                    })
                }
                Err(std::sync::TryLockError::WouldBlock) => None,
            }
        }

        /// Mutable access without locking (requires exclusive ownership).
        pub fn get_mut(&mut self) -> &mut T {
            self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
        }
    }

    impl<T: Default> Default for Mutex<T> {
        #[cfg_attr(debug_assertions, track_caller)]
        fn default() -> Self {
            Mutex::new(T::default())
        }
    }

    impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Mutex").finish_non_exhaustive()
        }
    }

    /// RAII guard for [`Mutex`].
    pub struct MutexGuard<'a, T: ?Sized> {
        site: SiteField,
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
            witness::on_release(as_site(self.site));
            // SAFETY: `inner` is dropped exactly once, here; the only other
            // consumer is `into_std`, which forgets `self`.
            unsafe { ManuallyDrop::drop(&mut self.inner) };
        }
    }

    impl<'a, T: ?Sized> MutexGuard<'a, T> {
        /// Split the guard for a condvar wait; records the witness release.
        fn into_std(mut self) -> (SiteField, std::sync::MutexGuard<'a, T>) {
            let site = self.site;
            witness::on_release(as_site(site));
            // SAFETY: `self` is forgotten immediately below, so `Drop`
            // cannot run and double-drop `inner`.
            let g = unsafe { ManuallyDrop::take(&mut self.inner) };
            std::mem::forget(self);
            (site, g)
        }
    }

    /// A condition variable over the shim's [`Mutex`].
    pub struct Condvar {
        inner: std::sync::Condvar,
    }

    impl Condvar {
        /// Create a new condition variable.
        pub const fn new() -> Self {
            Condvar {
                inner: std::sync::Condvar::new(),
            }
        }

        /// Release `guard`, wait for a notification, re-acquire the lock.
        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
            let (site, g) = guard.into_std();
            let g = self.inner.wait(g).unwrap_or_else(|e| e.into_inner());
            witness::on_acquire(as_site(site));
            MutexGuard {
                site,
                inner: ManuallyDrop::new(g),
            }
        }

        /// Like [`Condvar::wait`] with a timeout; the second value is
        /// `true` when the wait timed out.
        pub fn wait_timeout<'a, T>(
            &self,
            guard: MutexGuard<'a, T>,
            dur: Duration,
        ) -> (MutexGuard<'a, T>, bool) {
            let (site, g) = guard.into_std();
            let (g, to) = self
                .inner
                .wait_timeout(g, dur)
                .unwrap_or_else(|e| e.into_inner());
            witness::on_acquire(as_site(site));
            (
                MutexGuard {
                    site,
                    inner: ManuallyDrop::new(g),
                },
                to.timed_out(),
            )
        }

        /// Wake one waiter.
        pub fn notify_one(&self) {
            self.inner.notify_one();
        }

        /// Wake every waiter.
        pub fn notify_all(&self) {
            self.inner.notify_all();
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
}
