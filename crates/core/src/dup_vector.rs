//! A vector duplicated at every place of a group (`DupVector`).
//!
//! Every place holds a full copy. Mutating collectives either apply the
//! same deterministic operation to every copy in place (no communication)
//! or modify the *root* copy (group index 0) and re-broadcast it with
//! [`DupVector::sync`] — the `P.sync()` of the paper's PageRank listing.

use apgas::prelude::*;
use apgas::sync::Mutex;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use gml_matrix::Vector;

use crate::collective::each_place;
use crate::error::{GmlError, GmlResult};
use crate::snapshot::{Snapshot, Snapshottable};
use crate::store::ResilientStore;

/// A vector with one full duplicate per place of its group.
pub struct DupVector {
    object_id: u64,
    n: usize,
    group: PlaceGroup,
    plh: PlaceLocalHandle<Mutex<Vector>>,
}

impl DupVector {
    /// Create a zero vector of length `n`, duplicated over `group`.
    pub fn make(ctx: &Ctx, n: usize, group: &PlaceGroup) -> GmlResult<Self> {
        let plh = PlaceLocalHandle::make(ctx, group, move |_| Mutex::new(Vector::zeros(n)))?;
        Ok(DupVector { object_id: crate::fresh_object_id(), n, group: group.clone(), plh })
    }

    /// Length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The place group this object is laid out over.
    pub fn group(&self) -> &PlaceGroup {
        &self.group
    }

    /// The copy at the current place (X10's `local()`); the caller must be
    /// executing at a place of the group.
    pub fn local(&self, ctx: &Ctx) -> GmlResult<std::sync::Arc<Mutex<Vector>>> {
        Ok(self.plh.local(ctx)?)
    }

    /// The root place (group index 0) whose copy `sync` broadcasts.
    pub fn root(&self) -> Place {
        self.group.place(0)
    }

    /// The underlying place-local handle (for sibling collectives that need
    /// to read the local copy inside their own tasks).
    pub(crate) fn plh_handle(&self) -> PlaceLocalHandle<Mutex<Vector>> {
        self.plh
    }

    /// Initialise every copy as `v[i] = f(i)` — deterministic, so all
    /// copies agree without communication.
    pub fn init<F>(&self, ctx: &Ctx, f: F) -> GmlResult<()>
    where
        F: Fn(usize) -> f64 + Send + Sync + Clone + 'static,
    {
        self.apply(ctx, move |v| {
            for (i, x) in v.as_mut_slice().iter_mut().enumerate() {
                *x = f(i);
            }
        })
    }

    /// Apply the same in-place operation to the copy at every place.
    pub fn apply<F>(&self, ctx: &Ctx, f: F) -> GmlResult<()>
    where
        F: Fn(&mut Vector) + Send + Sync + Clone + 'static,
    {
        let plh = self.plh;
        each_place(ctx, self.group.iter().enumerate(), move |ctx, _| {
            f(&mut plh.local(ctx)?.lock());
            Ok(())
        })
        .map(drop)
    }

    /// `self += alpha * x` applied to every copy (both duplicated over the
    /// same group).
    pub fn axpy_all(&self, ctx: &Ctx, alpha: f64, x: &DupVector) -> GmlResult<()> {
        if x.n != self.n {
            return Err(GmlError::shape("axpy_all length mismatch"));
        }
        let a = self.plh;
        let b = x.plh;
        each_place(ctx, self.group.iter().enumerate(), move |ctx, _| {
            let xv = b.local(ctx)?.lock().clone();
            a.local(ctx)?.lock().axpy(alpha, &xv);
            Ok(())
        })
        .map(drop)
    }

    /// `self = other` at every place (both duplicated over the same group).
    pub fn copy_from_all(&self, ctx: &Ctx, other: &DupVector) -> GmlResult<()> {
        if other.n != self.n {
            return Err(GmlError::shape("copy_from_all length mismatch"));
        }
        let a = self.plh;
        let b = other.plh;
        each_place(ctx, self.group.iter().enumerate(), move |ctx, _| {
            let src = b.local(ctx)?.lock().clone();
            a.local(ctx)?.lock().copy_from(&src);
            Ok(())
        })
        .map(drop)
    }

    /// `self *= alpha` at every place.
    pub fn scale_all(&self, ctx: &Ctx, alpha: f64) -> GmlResult<()> {
        self.apply(ctx, move |v| {
            v.scale(alpha);
        })
    }

    /// Broadcast the root copy to every other place of the group — the
    /// paper's `P.sync()` gather/broadcast step.
    pub fn sync(&self, ctx: &Ctx) -> GmlResult<()> {
        let root = self.root();
        let plh = self.plh;
        // Serialize once at the root.
        let payload: Bytes = ctx.at(root, move |ctx| -> ApgasResult<Bytes> {
            Ok(ctx.encode(&*plh.local(ctx)?.lock()))
        })??;
        let others: Vec<_> = self.group.iter().enumerate().filter(|&(_, p)| p != root).collect();
        ctx.record_bytes(payload.len() * others.len());
        each_place(ctx, others, move |ctx, _| {
            ctx.record_bytes_received(payload.len());
            *plh.local(ctx)?.lock() = ctx.decode::<Vector>(payload.clone());
            Ok(())
        })
        .map(drop)
    }

    /// Read the value of the copy at the current place (clone).
    pub fn read_local(&self, ctx: &Ctx) -> GmlResult<Vector> {
        Ok(self.local(ctx)?.lock().clone())
    }

    /// Dot product with another DupVector, computed on the local copies.
    pub fn dot_local(&self, ctx: &Ctx, other: &DupVector) -> GmlResult<f64> {
        let a = self.local(ctx)?.lock().clone();
        let b = other.local(ctx)?;
        let r = a.dot(&b.lock());
        Ok(r)
    }

    /// Re-lay the duplicate copies out over `new_places` (§IV-A: "changing
    /// the PlaceGroup simply means duplicating the vector on a different
    /// number of places"). Old contents are discarded; call
    /// [`Snapshottable::restore_snapshot`] to repopulate.
    pub fn remake(&mut self, ctx: &Ctx, new_places: &PlaceGroup) -> GmlResult<()> {
        let plh = self.plh;
        let n = self.n;
        // Drop copies at old live places that leave the group.
        for p in self.group.iter() {
            if ctx.is_alive(p) && !new_places.contains(p) {
                ctx.at(p, move |ctx| plh.remove_local(ctx))?;
            }
        }
        each_place(ctx, new_places.iter().enumerate(), move |ctx, _| {
            plh.set_local(ctx, Mutex::new(Vector::zeros(n)));
            Ok(())
        })?;
        self.group = new_places.clone();
        Ok(())
    }
}

impl Snapshottable for DupVector {
    fn object_id(&self) -> u64 {
        self.object_id
    }

    fn make_snapshot(&self, ctx: &Ctx, store: &ResilientStore) -> GmlResult<Snapshot> {
        let _span = ctx.trace_span(SpanKind::SnapshotObj, self.object_id);
        let snap_id = store.fresh_snap_id();
        let (plh, store, group) = (self.plh, store.clone(), self.group.clone());
        // The root's copy is the one saved.
        let entries = ctx.at(self.root(), move |ctx| -> GmlResult<_> {
            let bytes = ctx.encode(&*plh.local(ctx)?.lock());
            // A single-entry batch: same transport as the multi-block
            // objects, so deferred shipping applies uniformly.
            store.save_local_parts(ctx, snap_id, &group, vec![(0, bytes)])
        })??;
        let mut desc = BytesMut::new();
        desc.put_u64_le(self.n as u64);
        Ok(Snapshot::gathered(ctx, snap_id, self.object_id, &self.group, desc.freeze(), entries))
    }

    fn restore_snapshot(
        &mut self,
        ctx: &Ctx,
        store: &ResilientStore,
        snapshot: &Snapshot,
    ) -> GmlResult<()> {
        let _span = ctx.trace_span(SpanKind::RestoreObj, self.object_id);
        let mut desc = snapshot.descriptor.clone();
        let n = desc.get_u64_le() as usize;
        if n != self.n {
            return Err(GmlError::shape(format!(
                "snapshot length {n} != DupVector length {}",
                self.n
            )));
        }
        // Each place of the (possibly new) group loads its own duplicate
        // concurrently (§IV-B2).
        let (plh, store, snap) = (self.plh, store.clone(), snapshot.clone());
        each_place(ctx, self.group.iter().enumerate(), move |ctx, _| {
            let bytes = snap.fetch(ctx, &store, 0)?;
            *plh.local(ctx)?.lock() = ctx.decode::<Vector>(bytes);
            Ok(())
        })
        .map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apgas::runtime::{Runtime, RuntimeConfig};

    fn run(places: usize, spares: usize, f: impl FnOnce(&Ctx) + Send + 'static) {
        Runtime::run(RuntimeConfig::new(places).spares(spares).resilient(true), f).unwrap();
    }

    #[test]
    fn make_and_init_all_copies_agree() {
        run(4, 0, |ctx| {
            let g = ctx.world();
            let v = DupVector::make(ctx, 5, &g).unwrap();
            v.init(ctx, |i| i as f64).unwrap();
            for p in g.iter() {
                let vv = {
                    let v2 = v.plh;
                    ctx.at(p, move |ctx| v2.local(ctx).unwrap().lock().clone()).unwrap()
                };
                assert_eq!(vv.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0]);
            }
        });
    }

    #[test]
    fn sync_broadcasts_root_changes() {
        run(3, 0, |ctx| {
            let g = ctx.world();
            let v = DupVector::make(ctx, 3, &g).unwrap();
            // Mutate only the root copy.
            v.local(ctx).unwrap().lock().fill(7.0);
            v.sync(ctx).unwrap();
            let plh = v.plh;
            let far = ctx
                .at(g.place(2), move |ctx| plh.local(ctx).unwrap().lock().clone())
                .unwrap();
            assert_eq!(far.as_slice(), &[7.0; 3]);
        });
    }

    #[test]
    fn apply_and_axpy_all() {
        run(3, 0, |ctx| {
            let g = ctx.world();
            let a = DupVector::make(ctx, 4, &g).unwrap();
            let b = DupVector::make(ctx, 4, &g).unwrap();
            a.init(ctx, |_| 1.0).unwrap();
            b.init(ctx, |i| i as f64).unwrap();
            a.axpy_all(ctx, 2.0, &b).unwrap();
            a.scale_all(ctx, 0.5).unwrap();
            // a = (1 + 2i) / 2 at every place
            let plh = a.plh;
            for p in g.iter() {
                let vv = ctx.at(p, move |ctx| plh.local(ctx).unwrap().lock().clone()).unwrap();
                assert_eq!(vv.as_slice(), &[0.5, 1.5, 2.5, 3.5]);
            }
            assert!((a.dot_local(ctx, &b).unwrap() - (0.0 + 1.5 + 5.0 + 10.5)).abs() < 1e-12);
        });
    }

    #[test]
    fn snapshot_restore_same_group() {
        run(3, 0, |ctx| {
            let g = ctx.world();
            let store = ResilientStore::make(ctx).unwrap();
            let mut v = DupVector::make(ctx, 4, &g).unwrap();
            v.init(ctx, |i| (i * i) as f64).unwrap();
            let snap = v.make_snapshot(ctx, &store).unwrap();
            v.apply(ctx, |x| x.fill(-1.0)).unwrap();
            v.restore_snapshot(ctx, &store, &snap).unwrap();
            assert_eq!(v.read_local(ctx).unwrap().as_slice(), &[0.0, 1.0, 4.0, 9.0]);
        });
    }

    #[test]
    fn snapshot_restore_after_failure_shrink() {
        run(4, 0, |ctx| {
            let g = ctx.world();
            let store = ResilientStore::make(ctx).unwrap();
            let mut v = DupVector::make(ctx, 3, &g).unwrap();
            v.init(ctx, |i| i as f64 + 1.0).unwrap();
            let snap = v.make_snapshot(ctx, &store).unwrap();
            ctx.kill_place(Place::new(2)).unwrap();
            let survivors = g.without(&[Place::new(2)]);
            v.remake(ctx, &survivors).unwrap();
            v.restore_snapshot(ctx, &store, &snap).unwrap();
            assert_eq!(v.group().len(), 3);
            assert_eq!(v.read_local(ctx).unwrap().as_slice(), &[1.0, 2.0, 3.0]);
        });
    }

    #[test]
    fn snapshot_survives_owner_death() {
        run(4, 0, |ctx| {
            // Build over a group whose root is place 1, so the snapshot
            // owner can be killed (place 0 is immortal).
            let g: PlaceGroup =
                [Place::new(1), Place::new(2), Place::new(3)].into_iter().collect();
            let store = ResilientStore::make(ctx).unwrap();
            let mut v = DupVector::make(ctx, 2, &g).unwrap();
            v.init(ctx, |_| 5.0).unwrap();
            let snap = v.make_snapshot(ctx, &store).unwrap();
            assert_eq!(snap.entry(0).unwrap().owner, Place::new(1));
            ctx.kill_place(Place::new(1)).unwrap();
            let survivors = g.without(&[Place::new(1)]);
            v.remake(ctx, &survivors).unwrap();
            v.restore_snapshot(ctx, &store, &snap).unwrap();
            let plh = v.plh;
            let vv = ctx
                .at(Place::new(3), move |ctx| plh.local(ctx).unwrap().lock().clone())
                .unwrap();
            assert_eq!(vv.as_slice(), &[5.0, 5.0]);
        });
    }

    #[test]
    fn remake_onto_spare_place() {
        run(2, 1, |ctx| {
            let g = ctx.world();
            let store = ResilientStore::make(ctx).unwrap();
            let mut v = DupVector::make(ctx, 2, &g).unwrap();
            v.init(ctx, |i| i as f64).unwrap();
            let snap = v.make_snapshot(ctx, &store).unwrap();
            ctx.kill_place(Place::new(1)).unwrap();
            let replaced = g.replace(&[Place::new(1)], &ctx.live_spares()).unwrap();
            assert!(replaced.contains(Place::new(2)));
            v.remake(ctx, &replaced).unwrap();
            v.restore_snapshot(ctx, &store, &snap).unwrap();
            let plh = v.plh;
            let vv = ctx
                .at(Place::new(2), move |ctx| plh.local(ctx).unwrap().lock().clone())
                .unwrap();
            assert_eq!(vv.as_slice(), &[0.0, 1.0]);
        });
    }

    #[test]
    fn shape_mismatch_on_restore() {
        run(2, 0, |ctx| {
            let g = ctx.world();
            let store = ResilientStore::make(ctx).unwrap();
            let v = DupVector::make(ctx, 4, &g).unwrap();
            let snap = v.make_snapshot(ctx, &store).unwrap();
            let mut w = DupVector::make(ctx, 5, &g).unwrap();
            assert!(matches!(
                w.restore_snapshot(ctx, &store, &snap),
                Err(GmlError::Shape(_))
            ));
        });
    }
}
