//! # qhorn-lockdep
//!
//! A std-only, feature-gated runtime lock-order detector in the spirit of
//! Linux lockdep. The workspace documents its lock hierarchy as prose
//! (`shard < entry < store`); this crate
//! turns that prose into a machine-checked invariant.
//!
//! Every lock in the workspace is an [`OrderedMutex`] (or
//! [`OrderedRwLock`]) tagged with a [`LockClass`] — a named equivalence
//! class of lock instances ("registry.shard", "registry.entry", …). With
//! the `lockdep` feature enabled, each acquisition records, for every
//! class already held by the acquiring thread, a `held-class →
//! acquired-class` edge in a process-global **witness graph**. The first
//! acquisition whose edge would close a cycle panics immediately —
//! naming both acquisition sites (the one forming the new edge and the
//! previously recorded site of the contradicting order) — whether or not
//! the schedule would have deadlocked this run.
//!
//! With the feature **off** (the default), the wrappers compile to plain
//! `std::sync` primitives: no class storage, no thread-local, no graph.
//! The `tests::wrappers_are_zero_cost_when_disabled` assertion pins
//! this at the type level, and the `bench_trajectory` artifact pins the
//! runtime overhead of the pass-through path.
//!
//! ## Poison recovery
//!
//! The PR-9 poison-cascade fix established the workspace rule that
//! worker paths never `lock().unwrap()`: a panic in one handler must not
//! take down every sibling that touches the same lock. The
//! `*_recover` methods ([`OrderedMutex::lock_recover`],
//! [`OrderedRwLock::read_recover`], …) are the shared helpers that rule
//! routes through — they recover the guard from a poisoned lock, which
//! is sound everywhere the workspace uses them because every critical
//! section leaves its protected data structurally valid (maps,
//! histograms and ring buffers are mutated in place, never left
//! half-moved). `qhorn-lint`'s `lock-unwrap` rule enforces the routing.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;
use std::sync::{LockResult, Mutex, MutexGuard, PoisonError, RwLock};
use std::sync::{RwLockReadGuard, RwLockWriteGuard};

#[cfg(feature = "lockdep")]
mod detect;

#[cfg(feature = "lockdep")]
use detect::HeldToken;

/// A named class of lock instances, the unit the witness graph orders.
///
/// Two locks of the same class are interchangeable for ordering purposes
/// (all sixteen registry shard stripes are one class). Acquiring a class
/// while already holding it is reported as a recursive-acquisition
/// violation — no workspace path legitimately nests same-class locks.
///
/// Construction interns the name in a global registry when detection is
/// on and is free when it is off, so callers may create classes at every
/// lock-construction site without caching.
#[derive(Clone, Copy)]
pub struct LockClass {
    #[cfg(feature = "lockdep")]
    id: u32,
    #[cfg(feature = "lockdep")]
    name: &'static str,
}

impl LockClass {
    /// Interns (or looks up) the class named `name`.
    #[must_use]
    pub fn new(name: &'static str) -> LockClass {
        #[cfg(feature = "lockdep")]
        {
            LockClass {
                id: detect::intern(name),
                name,
            }
        }
        #[cfg(not(feature = "lockdep"))]
        {
            let _ = name;
            LockClass {}
        }
    }
}

impl fmt::Debug for LockClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        #[cfg(feature = "lockdep")]
        {
            write!(f, "LockClass({})", self.name)
        }
        #[cfg(not(feature = "lockdep"))]
        {
            write!(f, "LockClass(<off>)")
        }
    }
}

// ---------------------------------------------------------------------------
// OrderedMutex
// ---------------------------------------------------------------------------

/// A [`Mutex`] tagged with a [`LockClass`], checked against the witness
/// graph on every acquisition when the `lockdep` feature is on.
pub struct OrderedMutex<T> {
    #[cfg(feature = "lockdep")]
    class: LockClass,
    inner: Mutex<T>,
}

/// The guard returned by [`OrderedMutex`] acquisitions; releases the
/// lock (and pops the thread's held-class stack) on drop.
pub struct OrderedMutexGuard<'a, T> {
    #[cfg(feature = "lockdep")]
    _held: HeldToken,
    guard: MutexGuard<'a, T>,
}

impl<T> OrderedMutex<T> {
    /// Wraps `value` in a mutex belonging to `class`.
    pub fn new(class: LockClass, value: T) -> OrderedMutex<T> {
        #[cfg(not(feature = "lockdep"))]
        let _ = class;
        OrderedMutex {
            #[cfg(feature = "lockdep")]
            class,
            inner: Mutex::new(value),
        }
    }

    /// Acquires the lock, mirroring [`Mutex::lock`]'s poison semantics.
    /// Checks (and extends) the witness graph before blocking, so an
    /// order violation is reported even on schedules that would not have
    /// deadlocked.
    ///
    /// # Errors
    /// Returns the guard wrapped in [`PoisonError`] when a holder
    /// panicked; worker paths should use [`OrderedMutex::lock_recover`].
    ///
    /// # Panics
    /// With `lockdep` on: on a cycle-forming or same-class-recursive
    /// acquisition, naming both sites.
    #[track_caller]
    pub fn lock(&self) -> LockResult<OrderedMutexGuard<'_, T>> {
        #[cfg(feature = "lockdep")]
        let held = detect::acquire(self.class, std::panic::Location::caller());
        match self.inner.lock() {
            Ok(guard) => Ok(OrderedMutexGuard {
                #[cfg(feature = "lockdep")]
                _held: held,
                guard,
            }),
            Err(poisoned) => Err(PoisonError::new(OrderedMutexGuard {
                #[cfg(feature = "lockdep")]
                _held: held,
                guard: poisoned.into_inner(),
            })),
        }
    }

    /// Acquires the lock, recovering from poisoning: the shared helper
    /// worker paths route through instead of `lock().unwrap()` (see the
    /// crate docs for why recovery is sound here).
    #[track_caller]
    pub fn lock_recover(&self) -> OrderedMutexGuard<'_, T> {
        self.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consumes the mutex, returning the value, mirroring
    /// [`Mutex::into_inner`]'s poison semantics.
    ///
    /// # Errors
    /// [`PoisonError`] carrying the value when a holder panicked.
    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }

    /// Consumes the mutex, returning the value even if poisoned.
    pub fn into_inner_recover(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether a holder has panicked (see [`Mutex::is_poisoned`]).
    pub fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }
}

impl<'a, T> std::ops::Deref for OrderedMutexGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<'a, T> std::ops::DerefMut for OrderedMutexGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("inner", &self.inner)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// OrderedRwLock
// ---------------------------------------------------------------------------

/// An [`RwLock`] tagged with a [`LockClass`]. Read and write acquisitions
/// participate in the witness graph identically: a read-after-write
/// inversion deadlocks just as hard once a writer queues between them,
/// so the detector does not distinguish the modes.
pub struct OrderedRwLock<T> {
    #[cfg(feature = "lockdep")]
    class: LockClass,
    inner: RwLock<T>,
}

/// Shared-read guard for [`OrderedRwLock`].
pub struct OrderedReadGuard<'a, T> {
    #[cfg(feature = "lockdep")]
    _held: HeldToken,
    guard: RwLockReadGuard<'a, T>,
}

/// Exclusive-write guard for [`OrderedRwLock`].
pub struct OrderedWriteGuard<'a, T> {
    #[cfg(feature = "lockdep")]
    _held: HeldToken,
    guard: RwLockWriteGuard<'a, T>,
}

impl<T> OrderedRwLock<T> {
    /// Wraps `value` in an rwlock belonging to `class`.
    pub fn new(class: LockClass, value: T) -> OrderedRwLock<T> {
        #[cfg(not(feature = "lockdep"))]
        let _ = class;
        OrderedRwLock {
            #[cfg(feature = "lockdep")]
            class,
            inner: RwLock::new(value),
        }
    }

    /// Acquires shared read access, mirroring [`RwLock::read`].
    ///
    /// # Errors
    /// [`PoisonError`] when a writer panicked.
    ///
    /// # Panics
    /// With `lockdep` on: on an order violation, naming both sites.
    #[track_caller]
    pub fn read(&self) -> LockResult<OrderedReadGuard<'_, T>> {
        #[cfg(feature = "lockdep")]
        let held = detect::acquire(self.class, std::panic::Location::caller());
        match self.inner.read() {
            Ok(guard) => Ok(OrderedReadGuard {
                #[cfg(feature = "lockdep")]
                _held: held,
                guard,
            }),
            Err(poisoned) => Err(PoisonError::new(OrderedReadGuard {
                #[cfg(feature = "lockdep")]
                _held: held,
                guard: poisoned.into_inner(),
            })),
        }
    }

    /// Acquires exclusive write access, mirroring [`RwLock::write`].
    ///
    /// # Errors
    /// [`PoisonError`] when a writer panicked.
    ///
    /// # Panics
    /// With `lockdep` on: on an order violation, naming both sites.
    #[track_caller]
    pub fn write(&self) -> LockResult<OrderedWriteGuard<'_, T>> {
        #[cfg(feature = "lockdep")]
        let held = detect::acquire(self.class, std::panic::Location::caller());
        match self.inner.write() {
            Ok(guard) => Ok(OrderedWriteGuard {
                #[cfg(feature = "lockdep")]
                _held: held,
                guard,
            }),
            Err(poisoned) => Err(PoisonError::new(OrderedWriteGuard {
                #[cfg(feature = "lockdep")]
                _held: held,
                guard: poisoned.into_inner(),
            })),
        }
    }

    /// Shared read access, recovering from poisoning (the worker-path
    /// helper; see [`OrderedMutex::lock_recover`]).
    #[track_caller]
    pub fn read_recover(&self) -> OrderedReadGuard<'_, T> {
        self.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive write access, recovering from poisoning (the
    /// worker-path helper; see [`OrderedMutex::lock_recover`]).
    #[track_caller]
    pub fn write_recover(&self) -> OrderedWriteGuard<'_, T> {
        self.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether a writer has panicked (see [`RwLock::is_poisoned`]).
    pub fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }
}

impl<'a, T> std::ops::Deref for OrderedReadGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<'a, T> std::ops::Deref for OrderedWriteGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<'a, T> std::ops::DerefMut for OrderedWriteGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("inner", &self.inner)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class(name: &'static str) -> LockClass {
        LockClass::new(name)
    }

    #[test]
    fn lock_and_recover_round_trip() {
        let m = OrderedMutex::new(class("test.basic"), 7u64);
        *m.lock().unwrap() += 1;
        assert_eq!(*m.lock_recover(), 8);
        assert_eq!(m.into_inner_recover(), 8);

        let rw = OrderedRwLock::new(class("test.rw"), vec![1, 2]);
        assert_eq!(rw.read().unwrap().len(), 2);
        rw.write_recover().push(3);
        assert_eq!(rw.read_recover().len(), 3);
    }

    /// The worker-path helper survives a poisoned lock: the guard comes
    /// back usable, exactly like the PR-9 pool fix.
    #[test]
    fn lock_recover_survives_poison() {
        let m = std::sync::Arc::new(OrderedMutex::new(class("test.poison"), 0u64));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        *m.lock_recover() += 1;
        assert_eq!(*m.lock_recover(), 1);
    }

    /// With detection off, the wrappers must add nothing to the lock:
    /// same size as the std primitive, no hidden state. This is the
    /// type-level half of the zero-cost pin (the bench artifact is the
    /// runtime half).
    #[cfg(not(feature = "lockdep"))]
    #[test]
    fn wrappers_are_zero_cost_when_disabled() {
        use std::mem::size_of;
        assert_eq!(
            size_of::<OrderedMutex<u64>>(),
            size_of::<std::sync::Mutex<u64>>()
        );
        assert_eq!(
            size_of::<OrderedRwLock<u64>>(),
            size_of::<std::sync::RwLock<u64>>()
        );
        assert_eq!(size_of::<LockClass>(), 0);
    }

    #[cfg(feature = "lockdep")]
    mod detection {
        use super::*;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
            let err = catch_unwind(f).expect_err("expected a lockdep panic");
            if let Some(s) = err.downcast_ref::<String>() {
                s.clone()
            } else if let Some(s) = err.downcast_ref::<&str>() {
                (*s).to_string()
            } else {
                panic!("non-string panic payload")
            }
        }

        /// Consistent nesting in one order never fires.
        #[test]
        fn consistent_order_is_silent() {
            let a = OrderedMutex::new(class("det.outer"), ());
            let b = OrderedMutex::new(class("det.inner"), ());
            for _ in 0..3 {
                let _ga = a.lock_recover();
                let _gb = b.lock_recover();
            }
        }

        /// The deliberate inversion: A then B on one path, B then A on
        /// another. The second path must panic at the cycle-forming
        /// acquisition, naming the new site AND the previously recorded
        /// site of the contradicting edge.
        #[test]
        fn order_inversion_fires_with_both_sites() {
            let a = OrderedMutex::new(class("det.first"), ());
            let b = OrderedMutex::new(class("det.second"), ());
            {
                let _ga = a.lock_recover(); // establishes det.first -> det.second
                let _gb = b.lock_recover();
            }
            let msg = panic_message(AssertUnwindSafe(|| {
                let _gb = b.lock_recover();
                let _ga = a.lock_recover(); // inverts: would close the cycle
            }));
            assert!(msg.contains("lock-order violation"), "{msg}");
            assert!(
                msg.contains("det.first") && msg.contains("det.second"),
                "{msg}"
            );
            // Both acquisition sites: everything in this file.
            let sites = msg.matches("lib.rs").count();
            assert!(sites >= 2, "expected both acquisition sites in: {msg}");
        }

        /// Same-class nesting is a violation of its own.
        #[test]
        fn recursive_class_acquisition_fires() {
            let a = OrderedMutex::new(class("det.recursive"), ());
            let b = OrderedMutex::new(class("det.recursive"), ());
            let msg = panic_message(AssertUnwindSafe(|| {
                let _ga = a.lock_recover();
                let _gb = b.lock_recover();
            }));
            assert!(msg.contains("recursive"), "{msg}");
            assert!(msg.contains("det.recursive"), "{msg}");
        }

        /// Transitive cycles are caught, not just length-2 inversions.
        #[test]
        fn transitive_cycle_fires() {
            let a = OrderedMutex::new(class("det.tri_a"), ());
            let b = OrderedMutex::new(class("det.tri_b"), ());
            let c = OrderedMutex::new(class("det.tri_c"), ());
            {
                let _ga = a.lock_recover();
                let _gb = b.lock_recover(); // a -> b
            }
            {
                let _gb = b.lock_recover();
                let _gc = c.lock_recover(); // b -> c
            }
            let msg = panic_message(AssertUnwindSafe(|| {
                let _gc = c.lock_recover();
                let _ga = a.lock_recover(); // c -> a closes a->b->c->a
            }));
            assert!(msg.contains("lock-order violation"), "{msg}");
            assert!(
                msg.contains("det.tri_a") && msg.contains("det.tri_c"),
                "{msg}"
            );
        }

        /// RwLock acquisitions participate in the same graph.
        #[test]
        fn rwlock_participates_in_ordering() {
            let a = OrderedRwLock::new(class("det.rw_first"), ());
            let b = OrderedMutex::new(class("det.rw_second"), ());
            {
                let _ga = a.read_recover();
                let _gb = b.lock_recover();
            }
            let msg = panic_message(AssertUnwindSafe(|| {
                let _gb = b.lock_recover();
                let _ga = a.write_recover();
            }));
            assert!(msg.contains("lock-order violation"), "{msg}");
        }

        /// The witness graph is cross-thread: an order observed on one
        /// thread constrains every other thread.
        #[test]
        fn witness_graph_is_global_across_threads() {
            let a = std::sync::Arc::new(OrderedMutex::new(class("det.xt_a"), ()));
            let b = std::sync::Arc::new(OrderedMutex::new(class("det.xt_b"), ()));
            {
                let a = std::sync::Arc::clone(&a);
                let b = std::sync::Arc::clone(&b);
                std::thread::spawn(move || {
                    let _ga = a.lock_recover();
                    let _gb = b.lock_recover();
                })
                .join()
                .unwrap();
            }
            let msg = panic_message(AssertUnwindSafe(|| {
                let _gb = b.lock_recover();
                let _ga = a.lock_recover();
            }));
            assert!(msg.contains("lock-order violation"), "{msg}");
        }
    }
}
