//! Offline stand-in for `parking_lot` (see `shims/README.md`).
//!
//! Wraps `std::sync` primitives behind parking_lot's non-poisoning API:
//! `lock()`/`read()`/`write()` return guards directly, and a poisoned std
//! lock is recovered with `into_inner` instead of propagating a panic
//! (matching parking_lot, which has no poisoning at all). The `arc_lock`
//! feature's owned guards hold the `Arc` alongside a lifetime-erased std
//! guard — the only `unsafe` in the shim, sound because the `Arc` keeps
//! the lock alive for the guard's whole life and is declared after the
//! guard so it drops second.

use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Opaque raw-lock marker (the real crate's `RawRwLock`); only ever used
/// as a type parameter of the owned guards.
pub struct RawRwLock(());

/// Mutual exclusion primitive (non-poisoning facade over `std::sync::Mutex`).
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// Guard returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Creates the mutex.
    pub const fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Mutable access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

/// Reader-writer lock (non-poisoning facade over `std::sync::RwLock`).
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

/// Guard returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
/// Guard returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    /// Creates the lock.
    pub const fn new(value: T) -> Self {
        Self(std::sync::RwLock::new(value))
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Shared access if it can be had without blocking: `None` while a
    /// writer holds the lock (or, as in the real crate, is queued for it).
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.0.try_read() {
            Ok(guard) => Some(guard),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Acquires exclusive access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Mutable access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: 'static> RwLock<T> {
    /// Shared access through an `Arc`, returning an owned guard that keeps
    /// the lock alive (`arc_lock` API).
    pub fn read_arc(self: &Arc<Self>) -> ArcRwLockReadGuard<RawRwLock, T> {
        let lock = Arc::clone(self);
        let guard = lock.0.read().unwrap_or_else(|e| e.into_inner());
        // SAFETY: `lock` is an Arc to the RwLock `guard` borrows.
        let guard = unsafe { erase_read(guard) };
        ArcRwLockReadGuard::new(guard, lock)
    }

    /// [`RwLock::read_arc`] if it can be had without blocking (see
    /// [`RwLock::try_read`]).
    pub fn try_read_arc(self: &Arc<Self>) -> Option<ArcRwLockReadGuard<RawRwLock, T>> {
        let lock = Arc::clone(self);
        let guard = lock.try_read()?;
        // SAFETY: `lock` is an Arc to the RwLock `guard` borrows.
        let guard = unsafe { erase_read(guard) };
        Some(ArcRwLockReadGuard::new(guard, lock))
    }

    /// Exclusive access through an `Arc`, returning an owned guard that
    /// keeps the lock alive (`arc_lock` API).
    pub fn write_arc(self: &Arc<Self>) -> ArcRwLockWriteGuard<RawRwLock, T> {
        let lock = Arc::clone(self);
        let guard = lock.0.write().unwrap_or_else(|e| e.into_inner());
        // SAFETY: as in `read_arc`.
        let guard = unsafe {
            std::mem::transmute::<
                std::sync::RwLockWriteGuard<'_, T>,
                std::sync::RwLockWriteGuard<'static, T>,
            >(guard)
        };
        ArcRwLockWriteGuard {
            guard,
            _lock: lock,
            _raw: PhantomData,
        }
    }
}

/// Owned shared guard holding the lock's `Arc` (the real crate's
/// `ArcRwLockReadGuard`).
pub struct ArcRwLockReadGuard<R, T: 'static> {
    guard: std::sync::RwLockReadGuard<'static, T>,
    _lock: Arc<RwLock<T>>,
    _raw: PhantomData<R>,
}

/// Erases a shared guard's borrow of its lock to `'static`.
///
/// # Safety
/// The caller must store the result in an [`ArcRwLockReadGuard`] beside an
/// `Arc` to the lock `guard` borrows: the `Arc` keeps the referent alive
/// for the guard's whole life, and field order drops the guard first.
unsafe fn erase_read<T>(
    guard: std::sync::RwLockReadGuard<'_, T>,
) -> std::sync::RwLockReadGuard<'static, T> {
    // SAFETY: the caller's promise, above.
    unsafe {
        std::mem::transmute::<
            std::sync::RwLockReadGuard<'_, T>,
            std::sync::RwLockReadGuard<'static, T>,
        >(guard)
    }
}

impl<R, T: 'static> ArcRwLockReadGuard<R, T> {
    fn new(guard: std::sync::RwLockReadGuard<'static, T>, lock: Arc<RwLock<T>>) -> Self {
        Self {
            guard,
            _lock: lock,
            _raw: PhantomData,
        }
    }
}

impl<R, T: 'static> Deref for ArcRwLockReadGuard<R, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

/// Owned exclusive guard holding the lock's `Arc` (the real crate's
/// `ArcRwLockWriteGuard`).
pub struct ArcRwLockWriteGuard<R, T: 'static> {
    guard: std::sync::RwLockWriteGuard<'static, T>,
    _lock: Arc<RwLock<T>>,
    _raw: PhantomData<R>,
}

impl<R, T: 'static> Deref for ArcRwLockWriteGuard<R, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<R, T: 'static> DerefMut for ArcRwLockWriteGuard<R, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arc_guard_outlives_original_handle() {
        let lock = Arc::new(RwLock::new(vec![1, 2, 3]));
        let guard = RwLock::read_arc(&lock);
        drop(lock);
        assert_eq!(*guard, vec![1, 2, 3]);
    }

    #[test]
    fn write_arc_mutates() {
        let lock = Arc::new(RwLock::new(0u32));
        {
            let mut g = RwLock::write_arc(&lock);
            *g = 9;
        }
        assert_eq!(*lock.read(), 9);
    }

    #[test]
    fn try_read_fails_only_while_a_writer_holds_the_lock() {
        let lock = Arc::new(RwLock::new(7u32));
        let shared = lock.read();
        assert_eq!(lock.try_read().as_deref(), Some(&7)); // readers share
        drop(shared);
        let exclusive = lock.write();
        assert!(lock.try_read().is_none());
        assert!(RwLock::try_read_arc(&lock).is_none());
        drop(exclusive);
        assert_eq!(lock.try_read().as_deref(), Some(&7));
    }

    #[test]
    fn try_read_arc_guard_outlives_original_handle_and_blocks_writers() {
        let lock = Arc::new(RwLock::new(vec![4, 5]));
        let guard = RwLock::try_read_arc(&lock).expect("unlocked");
        assert!(lock.0.try_write().is_err());
        drop(lock);
        assert_eq!(*guard, vec![4, 5]);
    }

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(m.into_inner(), 2);
    }
}
