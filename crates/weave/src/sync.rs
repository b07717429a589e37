//! Modeled drop-in replacements for the `std::sync` surface the workspace's
//! concurrent cores use: [`Arc`], [`Mutex`]/[`MutexGuard`], [`Condvar`] and
//! the [`atomic`] types. Inside a [`crate::model`] run every operation is a
//! scheduling point explored by the DFS scheduler; outside a model each
//! call passes straight through to `std`.

use crate::sched;
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::{LockResult, TryLockError, TryLockResult};

// ---------------------------------------------------------------------------
// Arc
// ---------------------------------------------------------------------------

struct Inner<T> {
    value: T,
    /// 1-based registry id inside a model execution; 0 when untracked.
    id: usize,
}

/// A reference-counted pointer with model-tracked lifecycle. Mirrors the
/// `std::sync::Arc` API surface used by `serve`. Inside a model every
/// clone and drop is a scheduling point and moves the allocation's
/// logical count, so a handle still alive when the execution ends is
/// reported as a leak.
pub struct Arc<T> {
    inner: std::sync::Arc<Inner<T>>,
}

impl<T> Arc<T> {
    /// Allocate, registering the allocation with the active model (if any).
    pub fn new(value: T) -> Self {
        let id = if sched::in_model() {
            sched::alloc_register(std::any::type_name::<T>())
        } else {
            0
        };
        Arc {
            inner: std::sync::Arc::new(Inner { value, id }),
        }
    }

    /// Mutable access when this is the only handle, as `std`'s.
    pub fn get_mut(this: &mut Self) -> Option<&mut T> {
        std::sync::Arc::get_mut(&mut this.inner).map(|inner| &mut inner.value)
    }

    /// Strong count, as `std`'s.
    pub fn strong_count(this: &Self) -> usize {
        std::sync::Arc::strong_count(&this.inner)
    }
}

impl<T> Clone for Arc<T> {
    fn clone(&self) -> Self {
        if self.inner.id != 0 {
            sched::alloc_event(self.inner.id, "arc.clone", 1);
        }
        Arc {
            inner: std::sync::Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Arc<T> {
    fn drop(&mut self) {
        if self.inner.id != 0 {
            sched::alloc_event(self.inner.id, "arc.drop", -1);
        }
    }
}

impl<T> Deref for Arc<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner.value
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Arc<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

// ---------------------------------------------------------------------------
// Mutex / Condvar
// ---------------------------------------------------------------------------

/// A mutex whose exclusion is logical under a model (the scheduler runs one
/// thread at a time) and real (`std::sync::Mutex<()>`) otherwise.
pub struct Mutex<T: ?Sized> {
    /// Model registry id, assigned lazily on first model use.
    id: std::sync::atomic::AtomicUsize,
    real: std::sync::Mutex<()>,
    data: UnsafeCell<T>,
}

// SAFETY: same bounds as std::sync::Mutex — exclusion is guaranteed either
// by the scheduler's single-active-thread invariant (model) or by `real`.
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
// SAFETY: see above; `&Mutex<T>` only yields `&mut T` under that exclusion.
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    /// Create an unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            id: std::sync::atomic::AtomicUsize::new(0),
            real: std::sync::Mutex::new(()),
            data: UnsafeCell::new(value),
        }
    }

    /// Consume the mutex, returning the inner value. Never `Err` (weave
    /// ignores poisoning).
    pub fn into_inner(self) -> LockResult<T> {
        Ok(self.data.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    fn model_id(&self) -> usize {
        use std::sync::atomic::Ordering::Relaxed;
        let mut id = self.id.load(Relaxed);
        if id == 0 {
            id = sched::register_mutex();
            self.id.store(id, Relaxed);
        }
        id
    }

    /// Acquire the lock. Never returns `Err`: weave ignores poisoning, so
    /// `.lock().unwrap()` call sites behave identically to std's happy
    /// path.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        if sched::in_model() {
            let id = self.model_id();
            sched::mutex_lock(id);
            Ok(MutexGuard {
                lock: self,
                real: None,
                model_id: id,
            })
        } else {
            let real = self.real.lock().unwrap_or_else(|e| e.into_inner());
            Ok(MutexGuard {
                lock: self,
                real: Some(real),
                model_id: 0,
            })
        }
    }

    /// Non-blocking acquire; in a model this still takes the lock through
    /// the scheduler (which never needs to spin for a free mutex).
    pub fn try_lock(&self) -> TryLockResult<MutexGuard<'_, T>> {
        if sched::in_model() {
            self.lock().map_err(|_| TryLockError::WouldBlock)
        } else {
            match self.real.try_lock() {
                Ok(real) => Ok(MutexGuard {
                    lock: self,
                    real: Some(real),
                    model_id: 0,
                }),
                Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
                Err(TryLockError::Poisoned(e)) => Ok(MutexGuard {
                    lock: self,
                    real: Some(e.into_inner()),
                    model_id: 0,
                }),
            }
        }
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

/// RAII guard for [`Mutex`]; releasing it is a scheduling point in a model.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    real: Option<std::sync::MutexGuard<'a, ()>>,
    model_id: usize,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard proves exclusion (scheduler or real mutex).
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard proves exclusion (scheduler or real mutex).
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.model_id != 0 {
            sched::mutex_unlock(self.model_id);
        }
        // `real` (if any) unlocks via its own Drop.
    }
}

/// Condition variable paired with [`Mutex`]. Model waits park the thread in
/// the scheduler; a wakeup that never arrives is reported as a deadlock.
pub struct Condvar {
    id: std::sync::atomic::AtomicUsize,
    real: std::sync::Condvar,
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

impl Condvar {
    /// Create a condvar.
    pub const fn new() -> Self {
        Condvar {
            id: std::sync::atomic::AtomicUsize::new(0),
            real: std::sync::Condvar::new(),
        }
    }

    fn model_id(&self) -> usize {
        use std::sync::atomic::Ordering::Relaxed;
        let mut id = self.id.load(Relaxed);
        if id == 0 {
            id = sched::register_condvar();
            self.id.store(id, Relaxed);
        }
        id
    }

    /// Atomically release the guard's mutex and wait to be notified, then
    /// re-acquire before returning. Never returns `Err` (no poisoning).
    pub fn wait<'a, T: ?Sized>(
        &self,
        mut guard: MutexGuard<'a, T>,
    ) -> LockResult<MutexGuard<'a, T>> {
        if guard.model_id != 0 {
            sched::condvar_wait(self.model_id(), guard.model_id);
            Ok(guard)
        } else {
            let real = guard
                .real
                .take()
                .expect("non-model guard without real lock");
            let real = self.real.wait(real).unwrap_or_else(|e| e.into_inner());
            guard.real = Some(real);
            Ok(guard)
        }
    }

    /// Wake one waiter (FIFO in a model).
    pub fn notify_one(&self) {
        if sched::in_model() {
            sched::condvar_notify(self.model_id(), false);
        } else {
            self.real.notify_one();
        }
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        if sched::in_model() {
            sched::condvar_notify(self.model_id(), true);
        } else {
            self.real.notify_all();
        }
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

/// Modeled atomic integers and booleans.
///
/// Every operation inside a model is a scheduling point executed at SeqCst
/// strength regardless of the requested `Ordering` (see the crate docs for
/// why this is sound for SeqCst-only code and what Miri/TSan add). Outside
/// a model the requested ordering is honoured verbatim.
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    use crate::sched;

    macro_rules! modeled_atomic_int {
        ($name:ident, $std:ident, $prim:ty, $label:literal) => {
            /// Modeled atomic integer; see [the module docs](self).
            #[derive(Debug, Default)]
            pub struct $name {
                inner: std::sync::atomic::$std,
            }

            impl $name {
                /// Create a new atomic with `v` as its initial value.
                pub const fn new(v: $prim) -> Self {
                    Self {
                        inner: std::sync::atomic::$std::new(v),
                    }
                }

                /// Atomic load (scheduling point in a model).
                pub fn load(&self, order: Ordering) -> $prim {
                    if sched::in_model() {
                        sched::sched_point(concat!($label, ".load"));
                        self.inner.load(Ordering::SeqCst)
                    } else {
                        self.inner.load(order)
                    }
                }

                /// Atomic store (scheduling point in a model).
                pub fn store(&self, val: $prim, order: Ordering) {
                    if sched::in_model() {
                        sched::sched_point(concat!($label, ".store"));
                        self.inner.store(val, Ordering::SeqCst)
                    } else {
                        self.inner.store(val, order)
                    }
                }

                /// Atomic swap (scheduling point in a model).
                pub fn swap(&self, val: $prim, order: Ordering) -> $prim {
                    if sched::in_model() {
                        sched::sched_point(concat!($label, ".swap"));
                        self.inner.swap(val, Ordering::SeqCst)
                    } else {
                        self.inner.swap(val, order)
                    }
                }

                /// Atomic add, returning the previous value.
                pub fn fetch_add(&self, val: $prim, order: Ordering) -> $prim {
                    if sched::in_model() {
                        sched::sched_point(concat!($label, ".fetch_add"));
                        self.inner.fetch_add(val, Ordering::SeqCst)
                    } else {
                        self.inner.fetch_add(val, order)
                    }
                }

                /// Atomic subtract, returning the previous value.
                pub fn fetch_sub(&self, val: $prim, order: Ordering) -> $prim {
                    if sched::in_model() {
                        sched::sched_point(concat!($label, ".fetch_sub"));
                        self.inner.fetch_sub(val, Ordering::SeqCst)
                    } else {
                        self.inner.fetch_sub(val, order)
                    }
                }

                /// Atomic compare-exchange.
                pub fn compare_exchange(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    if sched::in_model() {
                        sched::sched_point(concat!($label, ".compare_exchange"));
                        self.inner.compare_exchange(
                            current,
                            new,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                    } else {
                        self.inner.compare_exchange(current, new, success, failure)
                    }
                }

                /// Weak compare-exchange; the model never fails spuriously.
                pub fn compare_exchange_weak(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    self.compare_exchange(current, new, success, failure)
                }
            }
        };
    }

    modeled_atomic_int!(AtomicUsize, AtomicUsize, usize, "usize");
    modeled_atomic_int!(AtomicU64, AtomicU64, u64, "u64");
    modeled_atomic_int!(AtomicU32, AtomicU32, u32, "u32");

    /// Modeled atomic boolean; see [the module docs](self).
    #[derive(Debug, Default)]
    pub struct AtomicBool {
        inner: std::sync::atomic::AtomicBool,
    }

    impl AtomicBool {
        /// Create a new atomic with `v` as its initial value.
        pub const fn new(v: bool) -> Self {
            Self {
                inner: std::sync::atomic::AtomicBool::new(v),
            }
        }

        /// Atomic load (scheduling point in a model).
        pub fn load(&self, order: Ordering) -> bool {
            if sched::in_model() {
                sched::sched_point("bool.load");
                self.inner.load(Ordering::SeqCst)
            } else {
                self.inner.load(order)
            }
        }

        /// Atomic store (scheduling point in a model).
        pub fn store(&self, val: bool, order: Ordering) {
            if sched::in_model() {
                sched::sched_point("bool.store");
                self.inner.store(val, Ordering::SeqCst)
            } else {
                self.inner.store(val, order)
            }
        }

        /// Atomic swap (scheduling point in a model).
        pub fn swap(&self, val: bool, order: Ordering) -> bool {
            if sched::in_model() {
                sched::sched_point("bool.swap");
                self.inner.swap(val, Ordering::SeqCst)
            } else {
                self.inner.swap(val, order)
            }
        }
    }
}
