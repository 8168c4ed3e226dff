//! `DupDenseMatrix`: a dense matrix duplicated at every place of a group.
//!
//! Duplicated matrices trade memory for communication-free reads: every
//! place has the full matrix. Changing the place group "simply means
//! duplicating the matrix on a different number of places" (§IV-A2), and
//! restore re-loads a full copy per place.

use apgas::prelude::*;
use apgas::sync::Mutex;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use gml_matrix::DenseMatrix;

use crate::collective::each_place;
use crate::error::{GmlError, GmlResult};
use crate::snapshot::{Snapshot, Snapshottable};
use crate::store::ResilientStore;

/// A dense matrix with one full duplicate per place of its group.
pub struct DupDenseMatrix {
    object_id: u64,
    rows: usize,
    cols: usize,
    group: PlaceGroup,
    plh: PlaceLocalHandle<Mutex<DenseMatrix>>,
}

impl DupDenseMatrix {
    /// Create an all-zero `rows × cols` matrix duplicated over `group`.
    pub fn make(ctx: &Ctx, rows: usize, cols: usize, group: &PlaceGroup) -> GmlResult<Self> {
        let plh =
            PlaceLocalHandle::make(ctx, group, move |_| Mutex::new(DenseMatrix::zeros(rows, cols)))?;
        Ok(DupDenseMatrix {
            object_id: crate::fresh_object_id(),
            rows,
            cols,
            group: group.clone(),
            plh,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The place group this object is laid out over.
    pub fn group(&self) -> &PlaceGroup {
        &self.group
    }

    /// The copy at the current place.
    pub fn local(&self, ctx: &Ctx) -> GmlResult<std::sync::Arc<Mutex<DenseMatrix>>> {
        Ok(self.plh.local(ctx)?)
    }

    /// A copyable handle for app-defined collectives.
    pub fn handle(&self) -> DupDenseHandle {
        DupDenseHandle { plh: self.plh }
    }

    pub(crate) fn plh_handle(&self) -> PlaceLocalHandle<Mutex<DenseMatrix>> {
        self.plh
    }

    /// Initialise every copy as `m[i][j] = f(i, j)` (deterministic at each
    /// place, no communication).
    pub fn init<F>(&self, ctx: &Ctx, f: F) -> GmlResult<()>
    where
        F: Fn(usize, usize) -> f64 + Send + Sync + Clone + 'static,
    {
        let plh = self.plh;
        each_place(ctx, self.group.iter().enumerate(), move |ctx, _| {
            let m = plh.local(ctx)?;
            let mut m = m.lock();
            for j in 0..m.cols() {
                for i in 0..m.rows() {
                    m.set(i, j, f(i, j));
                }
            }
            Ok(())
        })
        .map(drop)
    }

    /// Broadcast the root copy (group index 0) to all other places.
    pub fn sync(&self, ctx: &Ctx) -> GmlResult<()> {
        let root = self.group.place(0);
        let plh = self.plh;
        let payload: Bytes = ctx.at(root, move |ctx| -> ApgasResult<Bytes> {
            Ok(ctx.encode(&*plh.local(ctx)?.lock()))
        })??;
        let others: Vec<_> = self.group.iter().enumerate().filter(|&(_, p)| p != root).collect();
        ctx.record_bytes(payload.len() * others.len());
        each_place(ctx, others, move |ctx, _| {
            ctx.record_bytes_received(payload.len());
            *plh.local(ctx)?.lock() = ctx.decode::<DenseMatrix>(payload.clone());
            Ok(())
        })
        .map(drop)
    }

    /// Re-duplicate over `new_places` (zeroed; restore to repopulate).
    pub fn remake(&mut self, ctx: &Ctx, new_places: &PlaceGroup) -> GmlResult<()> {
        let plh = self.plh;
        let (rows, cols) = (self.rows, self.cols);
        for p in self.group.iter() {
            if ctx.is_alive(p) && !new_places.contains(p) {
                ctx.at(p, move |ctx| plh.remove_local(ctx))?;
            }
        }
        each_place(ctx, new_places.iter().enumerate(), move |ctx, _| {
            plh.set_local(ctx, Mutex::new(DenseMatrix::zeros(rows, cols)));
            Ok(())
        })?;
        self.group = new_places.clone();
        Ok(())
    }
}

/// A copyable handle to a duplicated dense matrix's per-place copies.
#[derive(Clone, Copy)]
pub struct DupDenseHandle {
    plh: PlaceLocalHandle<Mutex<DenseMatrix>>,
}

impl DupDenseHandle {
    /// The copy stored at the current place.
    pub fn local(&self, ctx: &Ctx) -> GmlResult<std::sync::Arc<Mutex<DenseMatrix>>> {
        Ok(self.plh.local(ctx)?)
    }
}

impl Snapshottable for DupDenseMatrix {
    fn object_id(&self) -> u64 {
        self.object_id
    }

    fn make_snapshot(&self, ctx: &Ctx, store: &ResilientStore) -> GmlResult<Snapshot> {
        let _span = ctx.trace_span(SpanKind::SnapshotObj, self.object_id);
        let snap_id = store.fresh_snap_id();
        let (plh, store, group) = (self.plh, store.clone(), self.group.clone());
        // The root's copy is the one saved.
        let entries = ctx.at(self.group.place(0), move |ctx| -> GmlResult<_> {
            let bytes = ctx.encode(&*plh.local(ctx)?.lock());
            // A single-entry batch: same transport as the multi-block
            // objects, so deferred shipping applies uniformly.
            store.save_local_parts(ctx, snap_id, &group, vec![(0, bytes)])
        })??;
        let mut desc = BytesMut::new();
        desc.put_u64_le(self.rows as u64);
        desc.put_u64_le(self.cols as u64);
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
        let rows = desc.get_u64_le() as usize;
        let cols = desc.get_u64_le() as usize;
        if rows != self.rows || cols != self.cols {
            return Err(GmlError::shape("snapshot dims != DupDenseMatrix dims"));
        }
        let (plh, store, snap) = (self.plh, store.clone(), snapshot.clone());
        each_place(ctx, self.group.iter().enumerate(), move |ctx, _| {
            let bytes = snap.fetch(ctx, &store, 0)?;
            *plh.local(ctx)?.lock() = ctx.decode::<DenseMatrix>(bytes);
            Ok(())
        })
        .map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apgas::runtime::{Runtime, RuntimeConfig};

    fn run(places: usize, f: impl FnOnce(&Ctx) + Send + 'static) {
        Runtime::run(RuntimeConfig::new(places).resilient(true), f).unwrap();
    }

    #[test]
    fn init_sync_and_read() {
        run(3, |ctx| {
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
        run(3, |ctx| {
            let g = ctx.world();
            let store = crate::store::ResilientStore::make(ctx).unwrap();
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
        run(4, |ctx| {
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
