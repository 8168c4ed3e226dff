//! The one per-place collective every multi-place GML operation is built
//! on: X10's `finish for (p in places) at (p) async { … }`.
//!
//! [`each_place`] opens one `finish`, spawns one task per listed place and
//! hands each task's return value back to the caller in the order the places
//! were listed. Per-place tasks *return* what they computed (a partial sum,
//! serialized segments, snapshot entry locations); they do not write into
//! driver-owned state. The helper's slot vector is the only shared reference
//! through which a remote task writes home.
//!
//! `leave_group` is its counterpart for a `remake`: what every class does
//! at the places it no longer occupies.

use std::sync::Arc;

use apgas::prelude::*;
use apgas::sync::Mutex;

use crate::error::{GmlError, GmlResult};

/// Run `task(ctx, idx)` at every `(idx, place)` listed, concurrently under
/// one `finish`, and return the results in the order the places were given.
/// `idx` is whatever the caller paired with the place — by convention its
/// index in the object's group. A place the caller leaves out gets no task.
///
/// When anything fails no results are returned, and the error is chosen as:
/// a task the `finish` itself reports lost (its place died, or it panicked)
/// wins; otherwise the first *recoverable* error a task returned, in the
/// order listed; otherwise the first error of any kind. Recoverable errors
/// take precedence because they are what the executor can act on.
pub fn each_place<R, F>(
    ctx: &Ctx,
    places: impl IntoIterator<Item = (usize, Place)>,
    task: F,
) -> GmlResult<Vec<R>>
where
    R: Send + 'static,
    F: Fn(&Ctx, usize) -> GmlResult<R> + Send + Sync + 'static,
{
    let places: Vec<(usize, Place)> = places.into_iter().collect();
    let task = Arc::new(task);
    // One slot per listed place: each task writes only its own.
    let slots: Arc<Vec<Mutex<Option<GmlResult<R>>>>> =
        Arc::new(places.iter().map(|_| Mutex::new(None)).collect());
    ctx.finish(|fs| {
        for (slot, &(idx, p)) in places.iter().enumerate() {
            let task = Arc::clone(&task);
            let slots = Arc::clone(&slots);
            fs.async_at(p, move |ctx| {
                let result = task(ctx, idx);
                *slots[slot].lock() = Some(result);
            });
        }
    })?;
    let mut results = Vec::with_capacity(places.len());
    let mut first_err: Option<GmlError> = None;
    for slot in slots.iter() {
        // The finish reported no lost task, so every task ran to its end.
        match slot.lock().take().expect("finish returned Ok, so every task filled its slot") {
            Ok(r) => results.push(r),
            Err(e) if e.is_recoverable() => return Err(e),
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(results),
    }
}

/// Drop the value `plh` names at every live place of `old` that `new` does
/// not contain: the places an object leaves when it is remade over `new`
/// (dead places lost theirs already). One synchronous `at` per leaving
/// place, in `old`'s order.
pub(crate) fn leave_group<T: Send + Sync + 'static>(
    ctx: &Ctx,
    plh: PlaceLocalHandle<T>,
    old: &PlaceGroup,
    new: &PlaceGroup,
) -> GmlResult<()> {
    for p in old.iter() {
        if ctx.is_alive(p) && !new.contains(p) {
            ctx.at(p, move |ctx| plh.remove_local(ctx))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use apgas::runtime::{Runtime, RuntimeConfig};
    use apgas::DeadPlaceException;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn run(places: usize, f: impl FnOnce(&Ctx) + Send + 'static) {
        Runtime::run(RuntimeConfig::new(places).resilient(true), f).unwrap();
    }

    fn dead(p: u32) -> GmlError {
        ApgasError::DeadPlace(DeadPlaceException::new(Place::new(p), "reported by a task")).into()
    }

    #[test]
    fn no_places_is_ok_and_empty() {
        run(2, |ctx| {
            let got: Vec<u8> = each_place(ctx, std::iter::empty(), |_, _| Ok(0)).unwrap();
            assert!(got.is_empty());
        });
    }

    #[test]
    fn results_keep_the_listed_order_when_tasks_finish_in_reverse() {
        run(4, |ctx| {
            // Task `i` waits until task `i + 1` has finished, so completion
            // order is exactly the reverse of the listed order.
            let done: Arc<Vec<AtomicBool>> =
                Arc::new((0..5).map(|i| AtomicBool::new(i == 4)).collect());
            let got = each_place(ctx, ctx.world().iter().enumerate(), move |ctx, idx| {
                while !done[idx + 1].load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                done[idx].store(true, Ordering::Release);
                Ok((idx, ctx.here()))
            })
            .unwrap();
            let expect: Vec<(usize, Place)> = ctx.world().iter().enumerate().collect();
            assert_eq!(got, expect);
        });
    }

    #[test]
    fn a_recoverable_task_error_beats_any_other_task_error() {
        run(3, |ctx| {
            let err = each_place(ctx, ctx.world().iter().enumerate(), |_, idx| match idx {
                0 => Err(GmlError::shape("listed first, not recoverable")),
                2 => Err(dead(9)),
                _ => Ok(()),
            })
            .unwrap_err();
            assert!(err.is_recoverable());
            assert_eq!(err.dead_places(), vec![Place::new(9)]);
        });
    }

    #[test]
    fn other_task_errors_surface_in_the_listed_order() {
        run(3, |ctx| {
            let err = each_place(ctx, ctx.world().iter().enumerate(), |_, idx| match idx {
                1 => Err::<(), _>(GmlError::shape("first")),
                2 => Err(GmlError::data_loss("second")),
                _ => Ok(()),
            })
            .unwrap_err();
            assert!(matches!(err, GmlError::Shape(m) if m == "first"));
        });
    }

    #[test]
    fn a_task_lost_by_the_finish_beats_a_recoverable_task_error() {
        run(3, |ctx| {
            // Place 2 is already dead: the finish reports its task lost,
            // while place 1's task returns a dead-place error of its own.
            ctx.kill_place(Place::new(2)).unwrap();
            let err = each_place(ctx, ctx.world().iter().enumerate(), |_, idx| {
                if idx == 1 {
                    Err(dead(7))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
            assert_eq!(err.dead_places(), vec![Place::new(2)]);
        });
    }

    #[test]
    fn a_place_killed_mid_collective_is_recoverable_and_yields_no_results() {
        run(3, |ctx| {
            // Place 1's task is running (it raised `started`) when the
            // driver-side task at place zero kills place 1.
            let started = Arc::new(AtomicBool::new(false));
            let release = Arc::new(AtomicBool::new(false));
            let (started2, release2) = (Arc::clone(&started), Arc::clone(&release));
            let got = each_place(ctx, ctx.world().iter().enumerate(), move |ctx, idx| {
                match idx {
                    0 => {
                        while !started2.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                        ctx.kill_place(Place::new(1))?;
                        release2.store(true, Ordering::Release);
                    }
                    1 => {
                        started2.store(true, Ordering::Release);
                        while !release2.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                    }
                    _ => {}
                }
                Ok(idx)
            });
            let err = got.unwrap_err();
            assert!(err.is_recoverable(), "{err}");
            assert_eq!(err.dead_places(), vec![Place::new(1)]);
        });
    }

    #[test]
    fn places_left_out_get_no_task() {
        run(4, |ctx| {
            let ran = Arc::new(AtomicUsize::new(0));
            let ran2 = Arc::clone(&ran);
            let before = ctx.stats();
            let world = ctx.world();
            let listed = world.iter().enumerate().filter(|&(idx, _)| idx % 2 == 1);
            let got = each_place(ctx, listed, move |ctx, idx| {
                ran2.fetch_add(1, Ordering::Relaxed);
                Ok((idx, ctx.here().id()))
            })
            .unwrap();
            assert_eq!(got, vec![(1, 1), (3, 3)]);
            assert_eq!(ran.load(Ordering::Relaxed), 2);
            assert_eq!(ctx.stats().since(&before).tasks_spawned, 2);
        });
    }
}
