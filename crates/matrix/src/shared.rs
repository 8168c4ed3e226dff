//! Copy-on-write values: how a checkpoint capture holds a mutable object's
//! state without copying it.
//!
//! Every place-local value of a mutable GML object — a block of a
//! `BlockSet`, a vector segment, a duplicated vector or matrix — is kept in
//! a [`Shared`]. A capture takes a [`held`](Shared::held) handle on it: a
//! refcount, not a copy. The object keeps writing in place; only the first
//! write after a capture, and only while some handle is still alive, copies
//! the value first, so the handle goes on seeing what it was given. Each
//! such copy is counted ([`forced_copies`]), and the copy remembers — by a
//! weak reference, which keeps nothing alive — the very allocation it was
//! copied away from, so that whether a write changed the value can still be
//! asked while that handle lives ([`Shared::changed_from_held`]).

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Copies a write made because a handle still held the value.
static FORCED_COPIES: AtomicU64 = AtomicU64::new(0);

/// How many values a write has copied so far, process-wide, because a
/// [`held`](Shared::held) handle was still alive.
pub fn forced_copies() -> u64 {
    FORCED_COPIES.load(Ordering::Relaxed)
}

/// A value written in place by its owner and held by reference by others
/// (see the module docs). Reads and writes go through `Deref`/`DerefMut`.
#[derive(Debug, Default)]
pub struct Shared<T> {
    value: Arc<T>,
    /// The allocation the last forced copy copied the value away from.
    copied_from: Option<Weak<T>>,
}

impl<T> Shared<T> {
    /// Own `value`, held by no one else yet.
    pub fn new(value: T) -> Self {
        Shared { value: Arc::new(value), copied_from: None }
    }

    /// A handle on the value as it is now: later writes through `self` do
    /// not reach it.
    pub fn held(&self) -> Arc<T> {
        Arc::clone(&self.value)
    }

    /// Whether a [`held`](Self::held) handle on the value is still alive:
    /// the next write would copy it first.
    pub fn is_held(&self) -> bool {
        Arc::strong_count(&self.value) > 1
    }
}

impl<T: PartialEq> Shared<T> {
    /// Whether a write has made the value differ from what a handle it was
    /// copied away from still holds: false while no write has copied it,
    /// once that handle is gone, or where the write left it as it was.
    pub fn changed_from_held(&self) -> bool {
        let held = self.copied_from.as_ref().and_then(Weak::upgrade);
        held.is_some_and(|held| *held != *self.value)
    }
}

impl<T: PartialEq> PartialEq for Shared<T> {
    fn eq(&self, other: &Self) -> bool {
        self.value == other.value
    }
}

impl<T: Clone> Shared<T> {
    /// The value, moved out — or copied, if a handle still holds it.
    pub fn into_inner(self) -> T {
        Arc::try_unwrap(self.value).unwrap_or_else(|held| {
            FORCED_COPIES.fetch_add(1, Ordering::Relaxed);
            T::clone(&held)
        })
    }
}

impl<T> Deref for Shared<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T: Clone> DerefMut for Shared<T> {
    /// The value for writing: copied first if a handle still holds it.
    fn deref_mut(&mut self) -> &mut T {
        if Arc::get_mut(&mut self.value).is_none() {
            FORCED_COPIES.fetch_add(1, Ordering::Relaxed);
            self.copied_from = Some(Arc::downgrade(&self.value));
        }
        Arc::make_mut(&mut self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_write_copies_only_while_a_handle_is_held() {
        let mut v = Shared::new(vec![1.0f64, 2.0]);
        let at = v.as_ptr();
        v[0] = 5.0;
        assert_eq!(v.as_ptr(), at, "no handle: written in place");
        let held = v.held();
        assert!(v.is_held());
        v[1] = 7.0;
        assert!(!v.is_held(), "the copy is the owner's alone");
        assert_ne!(v.as_ptr(), at, "held: copied before the write");
        assert_eq!((&*held, &*v), (&vec![5.0, 2.0], &vec![5.0, 7.0]));
        drop(held);
        let at = v.as_ptr();
        v[0] = 0.0;
        assert_eq!(v.as_ptr(), at, "the handle is gone: in place again");
        let held = v.held();
        assert_eq!(v.into_inner(), *held, "moved out of a held value: a copy");
    }

    #[test]
    fn a_write_is_compared_with_the_handle_it_copied_away_from_while_that_lives() {
        let mut v = Shared::new(vec![1.0f64, 2.0]);
        let held = v.held();
        v[0] = 1.0;
        assert!(!v.changed_from_held(), "copied, but left as it was");
        v[1] = 3.0;
        assert!(v.changed_from_held(), "written away from the handle");
        drop(held);
        assert!(!v.changed_from_held(), "the handle is gone: nothing to differ from");
        let held = v.held();
        assert!(!v.changed_from_held(), "held again, not yet written");
        v[1] = 4.0;
        assert!(v.changed_from_held() && *held == vec![1.0, 3.0]);
    }
}
