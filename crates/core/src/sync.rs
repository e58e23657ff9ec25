//! Spinlocks for the threaded executor.
//!
//! The paper's runtimes protect each core's event queues with a spinlock
//! ("there is no interest in yielding cores (only one thread per core)",
//! Section II-A) and carefully pad private data structures to avoid false
//! sharing (Section IV-C). [`SpinLock`] follows both: a test-and-test-
//! and-set lock on a cache-padded flag, and a guard that reports how long
//! the acquisition spun so the runtime can account "locking time"
//! (Table III).

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};

use crossbeam_utils::CachePadded;

use crate::cycles;

/// A cache-padded test-and-test-and-set spinlock.
///
/// # Examples
///
/// ```
/// use mely_core::sync::SpinLock;
///
/// let lock = SpinLock::new(0u64);
/// {
///     let mut g = lock.lock();
///     *g += 1;
/// }
/// assert_eq!(*lock.lock(), 1);
/// ```
#[derive(Debug)]
pub struct SpinLock<T> {
    flag: CachePadded<AtomicBool>,
    data: UnsafeCell<T>,
}

// SAFETY: `data` is reached only through a `SpinGuard`, and the flag
// admits one guard at a time, so a shared lock hands the value to one
// thread at a time: that needs `T: Send`, not `T: Sync`.
unsafe impl<T: Send> Sync for SpinLock<T> {}
// SAFETY: the lock owns its `T`; moving the lock moves the value, which
// `T: Send` allows.
unsafe impl<T: Send> Send for SpinLock<T> {}

/// RAII guard for [`SpinLock`]; reports the cycles spent spinning.
pub struct SpinGuard<'a, T> {
    lock: &'a SpinLock<T>,
    waited: u64,
}

impl<T> SpinLock<T> {
    /// Creates an unlocked lock around `value`.
    pub const fn new(value: T) -> Self {
        SpinLock {
            flag: CachePadded::new(AtomicBool::new(false)),
            data: UnsafeCell::new(value),
        }
    }

    /// Acquires the lock, spinning as needed.
    pub fn lock(&self) -> SpinGuard<'_, T> {
        // Fast path: uncontended.
        if self
            .flag
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            return SpinGuard {
                lock: self,
                waited: 0,
            };
        }
        let start = cycles::now();
        loop {
            // Test-and-test-and-set: spin on a read to avoid bouncing the
            // line in exclusive state.
            while self.flag.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
            if self
                .flag
                .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return SpinGuard {
                    lock: self,
                    waited: cycles::now().wrapping_sub(start),
                };
            }
        }
    }

    /// Attempts to acquire the lock without spinning.
    pub fn try_lock(&self) -> Option<SpinGuard<'_, T>> {
        self.flag
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .ok()
            .map(|_| SpinGuard {
                lock: self,
                waited: 0,
            })
    }

    /// Mutable access without locking (requires `&mut self`, hence no
    /// concurrent holders).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<'a, T> SpinGuard<'a, T> {
    /// Cycles this acquisition spent waiting for the lock.
    pub fn waited_cycles(&self) -> u64 {
        self.waited
    }
}

impl<T> Deref for SpinGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard holds the lock.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> DerefMut for SpinGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard holds the lock exclusively.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T> Drop for SpinGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.flag.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn exclusive_increments_under_contention() {
        let lock = Arc::new(SpinLock::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let l = Arc::clone(&lock);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    *l.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*lock.lock(), 40_000);
    }

    #[test]
    fn try_lock_fails_when_held() {
        let lock = SpinLock::new(());
        let g = lock.lock();
        assert!(lock.try_lock().is_none());
        drop(g);
        assert!(lock.try_lock().is_some());
    }

    #[test]
    fn get_mut_bypasses_lock() {
        let mut lock = SpinLock::new(5);
        *lock.get_mut() = 7;
        assert_eq!(*lock.lock(), 7);
    }

    #[test]
    fn uncontended_acquisition_reports_zero_wait() {
        let lock = SpinLock::new(());
        assert_eq!(lock.lock().waited_cycles(), 0);
    }
}
