//! The std-backed fast path: `parking_lot`-style non-poisoning guards
//! over `std::sync`, with lock-order instrumentation compiled in under
//! `debug_assertions` (see [`crate::order`]) and nothing but the plain
//! std primitive in release builds.

use std::fmt;
use std::ops::{Deref, DerefMut};
#[cfg(debug_assertions)]
use std::panic::Location;
use std::sync::{self, WaitTimeoutResult};
use std::time::Duration;

#[cfg(debug_assertions)]
use crate::order;

/// A mutual-exclusion primitive with the `parking_lot::Mutex` API.
pub struct Mutex<T: ?Sized> {
    #[cfg(debug_assertions)]
    site: order::Site,
    inner: sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
///
/// The inner std guard lives in an `Option` so [`Condvar`] can wait on
/// the guard in place (parking_lot's API) without unsafe code; it is
/// `None` only transiently inside a wait.
pub struct MutexGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    lock: &'a Mutex<T>,
    #[cfg(debug_assertions)]
    token: Option<order::Token>,
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex. Its lock-order class is this call site.
    #[track_caller]
    pub const fn new(value: T) -> Self {
        Self {
            #[cfg(debug_assertions)]
            site: order::Site::new(None, Location::caller()),
            inner: sync::Mutex::new(value),
        }
    }

    /// Creates a new mutex whose lock-order class is `name` instead of
    /// the construction site. Use for locks created in generic helpers,
    /// or to merge/split classes deliberately.
    #[track_caller]
    pub const fn new_named(value: T, name: &'static str) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = name;
        Self {
            #[cfg(debug_assertions)]
            site: order::Site::new(Some(name), Location::caller()),
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = order::on_acquire(
            &self.site,
            self as *const _ as *const () as usize,
            order::Kind::Exclusive,
        );
        MutexGuard {
            #[cfg(debug_assertions)]
            lock: self,
            #[cfg(debug_assertions)]
            token,
            inner: Some(match self.inner.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            }),
        }
    }

    /// Attempts to acquire the mutex without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        // try_lock cannot deadlock, so it records the hold (for release
        // bookkeeping and re-entrancy detection) but tolerates order
        // inversions: a failed try is a legitimate ordering escape hatch.
        Some(MutexGuard {
            #[cfg(debug_assertions)]
            lock: self,
            #[cfg(debug_assertions)]
            token: order::on_acquire_untracked(&self.site, self as *const _ as *const () as usize),
            inner: Some(inner),
        })
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    #[track_caller]
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Mutex(..)")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        #[cfg(debug_assertions)]
        if let Some(t) = self.token.take() {
            order::on_release(&t);
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_deref().expect("guard present outside wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_deref_mut()
            .expect("guard present outside wait")
    }
}

/// A reader-writer lock with the `parking_lot::RwLock` API.
pub struct RwLock<T: ?Sized> {
    #[cfg(debug_assertions)]
    site: order::Site,
    inner: sync::RwLock<T>,
}

/// Shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    token: Option<order::Token>,
    inner: Option<sync::RwLockReadGuard<'a, T>>,
}

/// Exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    token: Option<order::Token>,
    inner: Option<sync::RwLockWriteGuard<'a, T>>,
}

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock. Its lock-order class is this
    /// call site.
    #[track_caller]
    pub const fn new(value: T) -> Self {
        Self {
            #[cfg(debug_assertions)]
            site: order::Site::new(None, Location::caller()),
            inner: sync::RwLock::new(value),
        }
    }

    /// Creates a new reader-writer lock whose lock-order class is `name`.
    #[track_caller]
    pub const fn new_named(value: T, name: &'static str) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = name;
        Self {
            #[cfg(debug_assertions)]
            site: order::Site::new(Some(name), Location::caller()),
            inner: sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = order::on_acquire(
            &self.site,
            self as *const _ as *const () as usize,
            order::Kind::Shared,
        );
        RwLockReadGuard {
            #[cfg(debug_assertions)]
            token,
            inner: Some(match self.inner.read() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            }),
        }
    }

    /// Acquires an exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = order::on_acquire(
            &self.site,
            self as *const _ as *const () as usize,
            order::Kind::Exclusive,
        );
        RwLockWriteGuard {
            #[cfg(debug_assertions)]
            token,
            inner: Some(match self.inner.write() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            }),
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    #[track_caller]
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RwLock(..)")
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        #[cfg(debug_assertions)]
        if let Some(t) = self.token.take() {
            order::on_release(&t);
        }
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        #[cfg(debug_assertions)]
        if let Some(t) = self.token.take() {
            order::on_release(&t);
        }
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_deref().expect("guard present")
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_deref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_deref_mut().expect("guard present")
    }
}

/// A condition variable with the `parking_lot::Condvar` API (waits on a
/// [`MutexGuard`] in place instead of consuming and returning it).
#[derive(Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Self {
            inner: sync::Condvar::new(),
        }
    }

    /// Blocks until notified, atomically releasing the guard's mutex.
    /// The guard's lock-order hold is suspended for the duration of the
    /// wait and re-recorded on wakeup.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        #[cfg(debug_assertions)]
        if let Some(t) = guard.token.take() {
            order::on_release(&t);
        }
        let g = guard.inner.take().expect("guard present outside wait");
        guard.inner = Some(match self.inner.wait(g) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        });
        #[cfg(debug_assertions)]
        {
            guard.token = order::on_acquire(
                &guard.lock.site,
                guard.lock as *const _ as *const () as usize,
                order::Kind::Exclusive,
            );
        }
    }

    /// Blocks until notified or `timeout` elapses. Returns `true` if the
    /// wait timed out.
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) -> bool {
        #[cfg(debug_assertions)]
        if let Some(t) = guard.token.take() {
            order::on_release(&t);
        }
        let g = guard.inner.take().expect("guard present outside wait");
        let (g, r): (_, WaitTimeoutResult) = match self.inner.wait_timeout(g, timeout) {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        };
        guard.inner = Some(g);
        #[cfg(debug_assertions)]
        {
            guard.token = order::on_acquire(
                &guard.lock.site,
                guard.lock as *const _ as *const () as usize,
                order::Kind::Exclusive,
            );
        }
        r.timed_out()
    }

    /// Wakes one waiting thread.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiting threads.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}
