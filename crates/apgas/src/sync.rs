//! The locks of the runtime and of the data layers above it: `std::sync`'s
//! [`Mutex`], [`RwLock`] and [`Condvar`], minus lock poisoning. Channels are
//! `std::sync::mpsc`, used directly.
//!
//! **Poison policy.** A task that panics while holding a lock must not wedge
//! the other places' dispatchers. Task bodies run under `catch_unwind` and
//! their panic is reported at the enclosing `finish`; the lock is released as
//! the stack unwinds, and whoever takes it next sees the data as the panicking
//! task left it. So no method here returns a `PoisonError`: a poisoned lock is
//! simply taken.

use std::sync::PoisonError;
pub use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// A mutual-exclusion lock whose [`lock`](Self::lock) cannot fail.
#[derive(Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// A new unlocked mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Block until the lock is held, poisoned or not.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader-writer lock whose [`read`](Self::read) and
/// [`write`](Self::write) cannot fail.
#[derive(Default)]
pub struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// A new unlocked reader-writer lock holding `value`.
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Block until shared access is held, poisoned or not.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Block until exclusive access is held, poisoned or not.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A condition variable paired with a [`Mutex`].
#[derive(Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Release `guard` and block while `condition` holds, re-checking it
    /// under the lock after every wake-up; returns with the lock held.
    pub fn wait_while<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        condition: impl FnMut(&mut T) -> bool,
    ) -> MutexGuard<'a, T> {
        self.0.wait_while(guard, condition).unwrap_or_else(PoisonError::into_inner)
    }

    /// Wake every thread blocked in [`wait_while`](Self::wait_while).
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Panic on another thread while holding `lock`'s guard.
    fn poison<L: Send + Sync + 'static>(lock: &Arc<L>, hold: fn(&L)) {
        let lock = Arc::clone(lock);
        let joined = std::thread::spawn(move || hold(&lock)).join();
        assert!(joined.is_err(), "the holder panicked");
    }

    #[test]
    fn a_poisoned_mutex_is_still_taken_with_the_holders_writes() {
        let m = Arc::new(Mutex::new(0));
        poison(&m, |m| {
            let mut held = m.lock();
            *held = 7;
            panic!("poison the mutex");
        });
        assert!(m.0.is_poisoned());
        *m.lock() += 1;
        assert_eq!(*m.lock(), 8);
    }

    #[test]
    fn a_poisoned_rwlock_is_still_read_and_written() {
        let l = Arc::new(RwLock::new(vec![1]));
        poison(&l, |l| {
            let mut held = l.write();
            held.push(2);
            panic!("poison the rwlock");
        });
        assert!(l.0.is_poisoned());
        l.write().push(3);
        let (r1, r2) = (l.read(), l.read());
        assert_eq!((r1.as_slice(), r2.len()), ([1, 2, 3].as_slice(), 3));
    }

    #[test]
    fn wait_while_returns_holding_the_lock_once_the_condition_clears() {
        let pair = Arc::new((Mutex::new(false), Condvar::default()));
        let pair2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut ready = cv.wait_while(lock.lock(), |ready| !*ready);
            *ready = false; // written under the re-acquired lock
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        *pair.0.lock() = true;
        pair.1.notify_all();
        waiter.join().unwrap();
        assert!(!*pair.0.lock());
    }
}
