//! Place-local storage — X10's `PlaceLocalHandle` (PLH).
//!
//! A [`PlaceLocalHandle<T>`] names one `T` *per place*. The handle itself is
//! a small copyable token; the values live in each place's local registry
//! and can only be touched from a task running at that place (enforced at
//! runtime), mirroring X10's rule that a PLH must be dereferenced with `at`.
//!
//! When a place is killed its entire registry is wiped — this is how the
//! simulation models the loss of a process's memory, and it is exactly the
//! "dangling references to the dead places" problem (§III-C1) the paper's
//! `remake` mechanism exists to solve.

use std::any::Any;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::error::{ApgasError, Result};
use crate::place::{Place, PlaceGroup};
use crate::runtime::Ctx;
use crate::sync::{Mutex, RwLock};

type AnyArc = Arc<dyn Any + Send + Sync>;
/// One place's handle-id → value map (the place's "local memory").
type PlaceSlot = Arc<Mutex<HashMap<u64, AnyArc>>>;

/// Per-place storage keyed by handle id. Growable: elastic place creation
/// appends fresh slots at runtime.
pub(crate) struct PlhRegistry {
    slots: RwLock<Vec<PlaceSlot>>,
}

impl PlhRegistry {
    pub(crate) fn new(places: usize) -> Self {
        PlhRegistry {
            slots: RwLock::new(
                (0..places).map(|_| Arc::new(Mutex::new(HashMap::new()))).collect(),
            ),
        }
    }

    /// Grow the registry so ids `< places` are addressable.
    pub(crate) fn ensure_place(&self, places: usize) {
        let mut slots = self.slots.write();
        while slots.len() < places {
            slots.push(Arc::new(Mutex::new(HashMap::new())));
        }
    }

    fn slot(&self, p: Place) -> Arc<Mutex<HashMap<u64, AnyArc>>> {
        Arc::clone(&self.slots.read()[p.id() as usize])
    }

    /// Install `v` at `p` unless `alive()` says `p` is dead. The check runs
    /// under the slot's lock, and `kill_place` clears the alive flag before
    /// it wipes the slot under that lock: a task still running at a killed
    /// place cannot put memory back after the wipe, where nothing would
    /// ever drop it.
    pub(crate) fn set(&self, p: Place, id: u64, v: AnyArc, alive: impl FnOnce() -> bool) {
        let slot = self.slot(p);
        let mut map = slot.lock();
        if alive() {
            map.insert(id, v);
        }
    }

    pub(crate) fn get(&self, p: Place, id: u64) -> Option<AnyArc> {
        self.slot(p).lock().get(&id).cloned()
    }

    pub(crate) fn remove(&self, p: Place, id: u64) {
        self.slot(p).lock().remove(&id);
    }

    /// Wipe everything a place holds: its memory is lost on failure.
    pub(crate) fn clear_place(&self, p: Place) {
        self.slot(p).lock().clear();
    }

    #[cfg(test)]
    pub(crate) fn len_at(&self, p: Place) -> usize {
        self.slot(p).lock().len()
    }
}

/// A handle to a family of values, one per place.
pub struct PlaceLocalHandle<T> {
    id: u64,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for PlaceLocalHandle<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for PlaceLocalHandle<T> {}

impl<T> std::fmt::Debug for PlaceLocalHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PlaceLocalHandle(#{})", self.id)
    }
}

impl<T: Send + Sync + 'static> PlaceLocalHandle<T> {
    /// Collectively create one `T` at every place of `group` by running
    /// `init` there. Fails if any place of the group is dead.
    pub fn make<F>(ctx: &Ctx, group: &PlaceGroup, init: F) -> Result<Self>
    where
        F: Fn(&Ctx) -> T + Send + Sync + 'static,
    {
        let id = ctx.rt().next_plh_id.fetch_add(1, Ordering::Relaxed);
        let handle = PlaceLocalHandle { id, _marker: PhantomData };
        let init = Arc::new(init);
        ctx.finish(|fs| {
            for p in group.iter() {
                let init = Arc::clone(&init);
                fs.async_at(p, move |ctx| handle.set_local(ctx, init(ctx)));
            }
        })?;
        Ok(handle)
    }

    /// The value at the current place.
    ///
    /// Errors with [`ApgasError::MissingPlaceLocal`] if this place never
    /// initialised the handle or its memory was wiped by a failure.
    pub fn local(&self, ctx: &Ctx) -> Result<Arc<T>> {
        let any = ctx.rt().plh.get(ctx.here(), self.id).ok_or_else(|| {
            ApgasError::MissingPlaceLocal {
                place: ctx.here(),
                what: format!("PlaceLocalHandle #{}", self.id),
            }
        })?;
        any.downcast::<T>().map_err(|_| ApgasError::MissingPlaceLocal {
            place: ctx.here(),
            what: format!("PlaceLocalHandle #{} (type mismatch)", self.id),
        })
    }

    /// Install (or replace) the value at the current place. Used by `remake`
    /// when a GML object is re-laid-out over a new place group. At a place
    /// that has been killed it installs nothing: its memory is gone.
    pub fn set_local(&self, ctx: &Ctx, v: T) {
        ctx.rt().plh.set(ctx.here(), self.id, Arc::new(v), || ctx.is_alive(ctx.here()));
    }

    /// True if the current place holds a value for this handle.
    pub fn is_initialized(&self, ctx: &Ctx) -> bool {
        ctx.rt().plh.get(ctx.here(), self.id).is_some()
    }

    /// Drop the value at the current place, if any.
    pub fn remove_local(&self, ctx: &Ctx) {
        ctx.rt().plh.remove(ctx.here(), self.id);
    }

    /// Drop the values at every *live* place of `group` (dead places lost
    /// theirs already). Best effort; used when destroying a GML object.
    pub fn destroy(&self, ctx: &Ctx, group: &PlaceGroup) -> Result<()> {
        let id = self.id;
        ctx.finish(|fs| {
            for p in group.iter() {
                if ctx.is_alive(p) {
                    fs.async_at(p, move |ctx| ctx.rt().plh.remove(ctx.here(), id));
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Runtime, RuntimeConfig};

    #[test]
    fn make_initializes_every_place() {
        Runtime::run(RuntimeConfig::new(4).resilient(true), |ctx| {
            let world = ctx.world();
            let plh =
                PlaceLocalHandle::make(ctx, &world, |ctx| ctx.here().id() * 100).unwrap();
            for p in world.iter() {
                let v = ctx.at(p, move |ctx| *plh.local(ctx).unwrap()).unwrap();
                assert_eq!(v, p.id() * 100);
            }
        })
        .unwrap();
    }

    #[test]
    fn local_values_are_independent_and_mutable() {
        Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
            let world = ctx.world();
            let plh = PlaceLocalHandle::make(ctx, &world, |_| Mutex::new(0u64)).unwrap();
            ctx.finish(|fs| {
                for p in world.iter() {
                    fs.async_at(p, move |ctx| {
                        *plh.local(ctx).unwrap().lock() = ctx.here().id() as u64 + 1;
                    });
                }
            })
            .unwrap();
            let sum: u64 = world
                .iter()
                .map(|p| ctx.at(p, move |ctx| *plh.local(ctx).unwrap().lock()).unwrap())
                .sum();
            assert_eq!(sum, 1 + 2 + 3);
        })
        .unwrap();
    }

    #[test]
    fn missing_at_uninitialized_place() {
        Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
            // Create only at places {0, 1}.
            let sub: PlaceGroup = [Place::new(0), Place::new(1)].into_iter().collect();
            let plh = PlaceLocalHandle::make(ctx, &sub, |_| 7u32).unwrap();
            let res = ctx.at(Place::new(2), move |ctx| plh.local(ctx).is_err()).unwrap();
            assert!(res, "place outside the group must not see a value");
        })
        .unwrap();
    }

    #[test]
    fn failure_wipes_place_storage() {
        Runtime::run(RuntimeConfig::new(3).spares(1).resilient(true), |ctx| {
            let world = ctx.world();
            let plh = PlaceLocalHandle::make(ctx, &world, |_| 1u8).unwrap();
            ctx.kill_place(Place::new(1)).unwrap();
            assert_eq!(ctx.rt().plh.len_at(Place::new(1)), 0, "dead place memory wiped");
            // Data at the surviving places is intact.
            let ok = ctx.at(Place::new(2), move |ctx| plh.is_initialized(ctx)).unwrap();
            assert!(ok);
        })
        .unwrap();
    }

    #[test]
    fn a_task_outliving_its_place_cannot_put_memory_back() {
        Runtime::run(RuntimeConfig::new(2).resilient(true), |ctx| {
            let world = ctx.world();
            let plh = PlaceLocalHandle::make(ctx, &world, |_| 1u8).unwrap();
            let victim = Place::new(1);
            let (started, wait_started) = std::sync::mpsc::channel();
            let (killed, wait_killed) = std::sync::mpsc::channel::<()>();
            let (seen, wait_seen) = std::sync::mpsc::channel();
            let res = ctx.finish(|fs| {
                fs.async_at(victim, move |ctx| {
                    started.send(()).unwrap();
                    wait_killed.recv().unwrap();
                    // Running on after the kill wiped this place's memory.
                    plh.set_local(ctx, 2);
                    seen.send(plh.is_initialized(ctx)).unwrap();
                });
                wait_started.recv().unwrap();
                ctx.kill_place(victim).unwrap();
                killed.send(()).unwrap();
            });
            assert!(res.unwrap_err().is_recoverable());
            assert!(!wait_seen.recv().unwrap(), "the dead place got its value back");
            assert_eq!(ctx.rt().plh.len_at(victim), 0, "dead place memory stays wiped");
        })
        .unwrap();
    }

    #[test]
    fn set_local_reinstalls_after_remake_style_move() {
        Runtime::run(RuntimeConfig::new(2).spares(1).resilient(true), |ctx| {
            let world = ctx.world();
            let plh = PlaceLocalHandle::make(ctx, &world, |_| 5u32).unwrap();
            // Simulate a remake onto the spare place.
            let spare = Place::new(2);
            ctx.at(spare, move |ctx| plh.set_local(ctx, 9))
                .unwrap();
            let v = ctx.at(spare, move |ctx| *plh.local(ctx).unwrap()).unwrap();
            assert_eq!(v, 9);
        })
        .unwrap();
    }

    #[test]
    fn destroy_removes_from_live_places_only() {
        Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
            let world = ctx.world();
            let plh = PlaceLocalHandle::make(ctx, &world, |_| 1u8).unwrap();
            ctx.kill_place(Place::new(2)).unwrap();
            plh.destroy(ctx, &world).unwrap();
            assert!(!plh.is_initialized(ctx));
        })
        .unwrap();
    }
}
