//! Objects duplicated at every place of a group: the generic [`Dup`] and
//! Table I's two duplicated classes, [`DupVector`] and [`DupDenseMatrix`].
//!
//! Every place holds a full copy. Mutating collectives either apply the
//! same deterministic operation to every copy in place (no communication)
//! or modify the *root* copy (group index 0) and re-broadcast it with
//! [`Dup::sync`] — the `P.sync()` of the paper's PageRank listing. Copies
//! trade memory for communication-free reads. Changing the place group
//! "simply means duplicating the vector on a different number of places"
//! (§IV-A2), and restore re-loads a full copy per place. Each copy lives in
//! a [`Shared`], so a capture holds the root's by reference.

use std::collections::HashMap;
use std::sync::Arc;

use apgas::prelude::*;
use apgas::serial::Serial;
use apgas::sync::Mutex;
use bytes::{Bytes, BytesMut};
use gml_matrix::{DenseMatrix, Shared, Vector};

use crate::collective::{each_place, leave_group};
use crate::error::{GmlError, GmlResult};
use crate::snapshot::{modified, Snapshot, Snapshottable};
use crate::store::{Contents, ResilientStore};

/// What a duplicated payload supplies beyond its wire form: the shape that
/// fixes its dimensions, and the zeroed value of a shape. The shape is what
/// a snapshot's descriptor records, in the shape's own wire form.
pub trait DupPayload: Serial + Contents + Clone + PartialEq + Send + Sync + 'static {
    /// A vector's length, a matrix's rows and columns.
    type Shape: Serial + Copy + PartialEq + std::fmt::Debug + Send + Sync + 'static;
    /// The all-zero value of `shape`.
    fn zeros(shape: Self::Shape) -> Self;
}

impl DupPayload for Vector {
    type Shape = usize;
    fn zeros(n: usize) -> Self {
        Vector::zeros(n)
    }
}

impl DupPayload for DenseMatrix {
    type Shape = (usize, usize);
    fn zeros((rows, cols): (usize, usize)) -> Self {
        DenseMatrix::zeros(rows, cols)
    }
}

/// An object with one full duplicate per place of its group.
pub struct Dup<T: DupPayload> {
    object_id: u64,
    shape: T::Shape,
    group: PlaceGroup,
    plh: PlaceLocalHandle<Mutex<Shared<T>>>,
    /// The places whose copy the last remake left as it was, each with
    /// whether a store still held it then — a read-only save's root copy,
    /// unwritten.
    kept: HashMap<Place, bool>,
    /// Whether the last remake found a copy written away from a value a
    /// store still held — a read-only save's root copy, changed.
    changed: bool,
}

/// A vector with one full duplicate per place of its group.
pub type DupVector = Dup<Vector>;

/// A dense matrix with one full duplicate per place of its group.
pub type DupDenseMatrix = Dup<DenseMatrix>;

impl<T: DupPayload> Dup<T> {
    /// An all-zero object of `shape`, duplicated over `group`.
    fn make_shaped(ctx: &Ctx, shape: T::Shape, group: &PlaceGroup) -> GmlResult<Self> {
        let plh = PlaceLocalHandle::make(ctx, group, move |_| Mutex::new(Shared::new(T::zeros(shape))))?;
        let (kept, changed) = (HashMap::new(), false);
        Ok(Dup { object_id: crate::fresh_object_id(), shape, group: group.clone(), plh, kept, changed })
    }

    /// The place group this object is laid out over.
    pub fn group(&self) -> &PlaceGroup {
        &self.group
    }

    /// The copy at the current place (X10's `local()`); the caller must be
    /// executing at a place of the group.
    pub fn local(&self, ctx: &Ctx) -> GmlResult<Arc<Mutex<Shared<T>>>> {
        Ok(self.plh.local(ctx)?)
    }

    /// The root place (group index 0): its copy is the one `sync`
    /// broadcasts and a snapshot saves.
    pub fn root(&self) -> Place {
        self.group.place(0)
    }

    /// The copyable handle naming every place's copy, for collectives that
    /// read the local copy inside their own tasks.
    pub fn handle(&self) -> PlaceLocalHandle<Mutex<Shared<T>>> {
        self.plh
    }

    /// Apply the same in-place operation to the copy at every place.
    pub fn apply<F>(&self, ctx: &Ctx, f: F) -> GmlResult<()>
    where
        F: Fn(&mut T) + Send + Sync + Clone + 'static,
    {
        let plh = self.plh;
        each_place(ctx, self.group.iter().enumerate(), move |ctx, _| {
            f(&mut plh.local(ctx)?.lock());
            Ok(())
        })
        .map(drop)
    }

    /// Broadcast the root copy to every other place of the group — the
    /// paper's `P.sync()` gather/broadcast step.
    pub fn sync(&self, ctx: &Ctx) -> GmlResult<()> {
        let root = self.root();
        let plh = self.plh;
        // Serialize once at the root.
        let payload: Bytes = ctx.at(root, move |ctx| -> ApgasResult<Bytes> {
            Ok(ctx.encode(&**plh.local(ctx)?.lock()))
        })??;
        let others: Vec<_> = self.group.iter().enumerate().filter(|&(_, p)| p != root).collect();
        ctx.record_bytes(payload.len() * others.len());
        each_place(ctx, others, move |ctx, _| {
            ctx.record_bytes_received(payload.len());
            *plh.local(ctx)?.lock() = Shared::new(ctx.decode::<T>(payload.clone()));
            Ok(())
        })
        .map(drop)
    }

    /// Re-duplicate over `new_places`: a place of both groups keeps its
    /// copy, contents and all, and a new one starts zeroed. Call
    /// [`Snapshottable::restore_snapshot`] to repopulate: it rewrites every
    /// copy but, for a read-only snapshot, the kept ones — unless the root's
    /// is not the one the store holds as the entry's first replica. A kept
    /// copy that a write copied away from a value a store still holds is
    /// compared with that value here: a read-only snapshot's restore
    /// refuses the object if it differs.
    pub fn remake(&mut self, ctx: &Ctx, new_places: &PlaceGroup) -> GmlResult<()> {
        let (plh, shape) = (self.plh, self.shape);
        leave_group(ctx, plh, &self.group, new_places)?;
        let kept = each_place(ctx, new_places.iter().enumerate(), move |ctx, _| {
            if let Ok(copy) = plh.local(ctx) {
                let copy = copy.lock();
                return Ok(Some((ctx.here(), copy.is_held(), copy.changed_from_held())));
            }
            plh.set_local(ctx, Mutex::new(Shared::new(T::zeros(shape))));
            Ok(None)
        })?;
        let kept = kept.into_iter().flatten();
        self.changed = kept.clone().any(|(_, _, changed)| changed);
        self.kept = kept.map(|(p, held, _)| (p, held)).collect();
        self.group = new_places.clone();
        Ok(())
    }
}

impl Dup<Vector> {
    /// Create a zero vector of length `n`, duplicated over `group`.
    pub fn make(ctx: &Ctx, n: usize, group: &PlaceGroup) -> GmlResult<Self> {
        Self::make_shaped(ctx, n, group)
    }

    /// Length.
    pub fn len(&self) -> usize {
        self.shape
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.shape == 0
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

    /// `self += alpha * x` applied to every copy (both duplicated over the
    /// same group).
    pub fn axpy_all(&self, ctx: &Ctx, alpha: f64, x: &DupVector) -> GmlResult<()> {
        if x.shape != self.shape {
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
        if other.shape != self.shape {
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
}

impl Dup<DenseMatrix> {
    /// Create an all-zero `rows × cols` matrix duplicated over `group`.
    pub fn make(ctx: &Ctx, rows: usize, cols: usize, group: &PlaceGroup) -> GmlResult<Self> {
        Self::make_shaped(ctx, (rows, cols), group)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.shape.0
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.shape.1
    }

    /// Initialise every copy as `m[i][j] = f(i, j)` (deterministic at each
    /// place, no communication).
    pub fn init<F>(&self, ctx: &Ctx, f: F) -> GmlResult<()>
    where
        F: Fn(usize, usize) -> f64 + Send + Sync + Clone + 'static,
    {
        self.apply(ctx, move |m| {
            for j in 0..m.cols() {
                for i in 0..m.rows() {
                    m.set(i, j, f(i, j));
                }
            }
        })
    }
}

impl<T: DupPayload> Snapshottable for Dup<T> {
    fn object_id(&self) -> u64 {
        self.object_id
    }

    fn make_snapshot(&self, ctx: &Ctx, store: &ResilientStore) -> GmlResult<Snapshot> {
        let _span = ctx.trace_span(SpanKind::SnapshotObj, self.object_id);
        let snap_id = store.fresh_snap_id();
        let (plh, store, group, id) = (self.plh, store.clone(), self.group.clone(), self.object_id);
        // The root's copy is the one saved.
        let entries = ctx.at(self.root(), move |ctx| -> GmlResult<_> {
            let part = store.part(id, &plh.local(ctx)?.lock());
            // A single-entry batch: same transport as the multi-block
            // objects, so deferred shipping applies uniformly.
            store.save_local_parts(ctx, snap_id, &group, vec![(0, part)])
        })??;
        let mut desc = BytesMut::new();
        self.shape.write(&mut desc);
        Ok(Snapshot::gathered(ctx, snap_id, self.object_id, &self.group, desc.freeze(), entries))
    }

    fn restore_snapshot(
        &mut self,
        ctx: &Ctx,
        store: &ResilientStore,
        snapshot: &Snapshot,
    ) -> GmlResult<()> {
        let _span = ctx.trace_span(SpanKind::RestoreObj, self.object_id);
        let shape = T::Shape::read(&mut snapshot.descriptor.clone());
        if shape != self.shape {
            return Err(GmlError::shape(format!(
                "snapshot shape {shape:?} != object shape {:?}",
                self.shape
            )));
        }
        if self.changed && snapshot.read_only {
            return Err(modified(self.object_id, 0));
        }
        // Each place of the (possibly new) group loads its own duplicate
        // concurrently (§IV-B2) — but for a read-only snapshot, a place
        // whose copy `remake` kept keeps it, unless it is the root's and the
        // store does not hold it as the entry's first replica: then it is
        // restored (without changing it: `remake` found it unchanged) and
        // held again.
        let (read_only, root) = (snapshot.read_only, self.root());
        let stays = |p: &Place| read_only && self.kept.get(p).is_some_and(|&held| held || *p != root);
        let places: Vec<_> = self.group.iter().enumerate().filter(|(_, p)| !stays(p)).collect();
        let (plh, store, snap) = (self.plh, store.clone(), snapshot.clone());
        each_place(ctx, places, move |ctx, _| {
            let value = ctx.decode::<T>(snap.fetch(ctx, &store, 0)?);
            let copy = plh.local(ctx)?;
            let mut copy = copy.lock();
            *copy = Shared::new(value);
            if read_only && ctx.here() == root {
                store.rehold(ctx, &snap, 0, &copy)?;
            }
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

    #[test]
    fn init_sync_and_read() {
        run(3, 0, |ctx| {
            let g = ctx.world();
            let m = DupDenseMatrix::make(ctx, 2, 2, &g).unwrap();
            m.init(ctx, |i, j| (i * 2 + j) as f64).unwrap();
            // Mutate root only, then broadcast.
            m.local(ctx).unwrap().lock().set(0, 0, 99.0);
            m.sync(ctx).unwrap();
            let plh = m.plh;
            let far = ctx
                .at(g.place(2), move |ctx| plh.local(ctx).unwrap().lock().clone())
                .unwrap();
            assert_eq!(far.get(0, 0), 99.0);
            assert_eq!(far.get(1, 1), 3.0);
        });
    }

    #[test]
    fn read_only_reuse_and_replica_placement() {
        run(3, 0, |ctx| {
            let g = ctx.world();
            let store = ResilientStore::make(ctx).unwrap();
            let m = DupDenseMatrix::make(ctx, 2, 2, &g).unwrap();
            m.init(ctx, |i, j| (i + j) as f64).unwrap();
            let snap = m.make_snapshot(ctx, &store).unwrap();
            // Owner is the group root, backup the next group member.
            let loc = snap.entry(0).unwrap();
            assert_eq!(loc.owner, g.place(0));
            assert_eq!(loc.backup, g.place(1));
            assert!(snap.fully_redundant(ctx));
            ctx.kill_place(g.place(1)).unwrap();
            assert!(!snap.fully_redundant(ctx), "lost the backup replica");
            assert!(snap.reachable(ctx, &store), "owner copy still serves reads");
        });
    }

    #[test]
    fn snapshot_restore_over_shrunk_group() {
        run(4, 0, |ctx| {
            let g = ctx.world();
            let store = ResilientStore::make(ctx).unwrap();
            let mut m = DupDenseMatrix::make(ctx, 3, 2, &g).unwrap();
            m.init(ctx, |i, j| (10 * i + j) as f64).unwrap();
            let snap = m.make_snapshot(ctx, &store).unwrap();
            ctx.kill_place(Place::new(3)).unwrap();
            let survivors = g.without(&[Place::new(3)]);
            m.remake(ctx, &survivors).unwrap();
            m.restore_snapshot(ctx, &store, &snap).unwrap();
            let got = m.local(ctx).unwrap().lock().clone();
            assert_eq!(got.get(2, 1), 21.0);
            assert_eq!(m.group().len(), 3);
        });
    }
}
