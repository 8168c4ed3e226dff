//! Copy-on-write values: how a checkpoint capture holds a mutable object's
//! state without copying it.
//!
//! Every place-local value of a mutable GML object — a block of a
//! `BlockSet`, a vector segment, a duplicated vector or matrix — is kept in
//! a [`Shared`]. A capture takes a [`held`](Shared::held) handle on it: a
//! refcount, not a copy. The object keeps writing in place; only the first
//! write after a capture, and only while some handle is still alive, copies
//! the value first, so the handle goes on seeing what it was given. Each
//! such copy is counted ([`forced_copies`]).

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Copies a write made because a handle still held the value.
static FORCED_COPIES: AtomicU64 = AtomicU64::new(0);

/// How many values a write has copied so far, process-wide, because a
/// [`held`](Shared::held) handle was still alive.
pub fn forced_copies() -> u64 {
    FORCED_COPIES.load(Ordering::Relaxed)
}

/// A value written in place by its owner and held by reference by others
/// (see the module docs). Reads and writes go through `Deref`/`DerefMut`.
#[derive(Debug, Default, PartialEq)]
pub struct Shared<T>(Arc<T>);

impl<T> Shared<T> {
    /// Own `value`, held by no one else yet.
    pub fn new(value: T) -> Self {
        Shared(Arc::new(value))
    }

    /// A handle on the value as it is now: later writes through `self` do
    /// not reach it.
    pub fn held(&self) -> Arc<T> {
        Arc::clone(&self.0)
    }
}

impl<T: Clone> Shared<T> {
    /// The value, moved out — or copied, if a handle still holds it.
    pub fn into_inner(self) -> T {
        Arc::try_unwrap(self.0).unwrap_or_else(|held| {
            FORCED_COPIES.fetch_add(1, Ordering::Relaxed);
            T::clone(&held)
        })
    }
}

impl<T> Deref for Shared<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: Clone> DerefMut for Shared<T> {
    /// The value for writing: copied first if a handle still holds it.
    fn deref_mut(&mut self) -> &mut T {
        if Arc::get_mut(&mut self.0).is_none() {
            FORCED_COPIES.fetch_add(1, Ordering::Relaxed);
        }
        Arc::make_mut(&mut self.0)
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
        v[1] = 7.0;
        assert_ne!(v.as_ptr(), at, "held: copied before the write");
        assert_eq!((&*held, &*v), (&vec![5.0, 2.0], &vec![5.0, 7.0]));
        drop(held);
        let at = v.as_ptr();
        v[0] = 0.0;
        assert_eq!(v.as_ptr(), at, "the handle is gone: in place again");
        let held = v.held();
        assert_eq!(v.into_inner(), *held, "moved out of a held value: a copy");
    }
}
