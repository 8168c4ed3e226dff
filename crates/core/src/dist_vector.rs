//! A vector partitioned into segments across a place group (`DistVector`).
//!
//! The vector is cut at `splits` into segments; each segment lives at one
//! place (several segments may share a place). When a `DistVector` is the
//! output of `DistBlockMatrix::mult`, its segments are aligned with the
//! matrix's block rows and co-located with the matching blocks — which is
//! what lets the shrink restore keep working when one place holds several
//! block rows after a failure.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use apgas::prelude::*;
use apgas::sync::Mutex;
use bytes::{Buf, BufMut, BytesMut};
use gml_matrix::{Shared, Vector};

use crate::collective::{each_place, leave_group};
use crate::error::{GmlError, GmlResult};
use crate::snapshot::{modified, Snapshot, Snapshottable};
use crate::store::{Held, ResilientStore};

/// The segments one place holds: segment id → data, each in a [`Shared`]
/// so that a capture holds it by reference.
#[derive(Default)]
pub(crate) struct SegmentStore {
    segs: HashMap<usize, Shared<Vector>>,
    /// The layout's splits: segment `s` covers `splits[s]..splits[s + 1]`.
    splits: Arc<Vec<usize>>,
}

impl SegmentStore {
    /// The zero-filled segments `segs` of the layout cut at `splits`.
    fn zeroed(segs: &[usize], splits: &Arc<Vec<usize>>) -> Self {
        let zeros = |s: usize| Shared::new(Vector::zeros(splits[s + 1] - splits[s]));
        let segs = segs.iter().map(|&s| (s, zeros(s))).collect();
        SegmentStore { segs, splits: Arc::clone(splits) }
    }

    /// Segment `s`, which the layout places here: its absence is data loss.
    pub(crate) fn get(&self, s: usize) -> GmlResult<&Vector> {
        self.shared(s).map(|seg| &**seg)
    }

    /// Segment `s`'s cell, for a capture to hold (see [`get`](Self::get)).
    fn shared(&self, s: usize) -> GmlResult<&Shared<Vector>> {
        self.segs.get(&s).ok_or_else(|| Self::missing(s))
    }

    /// Segment `s` for writing (see [`get`](Self::get)): copied first if a
    /// capture still holds it.
    pub(crate) fn get_mut(&mut self, s: usize) -> GmlResult<&mut Vector> {
        self.segs.get_mut(&s).map(|seg| &mut **seg).ok_or_else(|| Self::missing(s))
    }

    /// Set every segment here to `value`.
    pub(crate) fn fill(&mut self, value: f64) {
        self.segs.values_mut().for_each(|seg| seg.fill(value));
    }

    fn missing(s: usize) -> GmlError {
        GmlError::data_loss(format!("segment {s} missing"))
    }
}

/// The default layout's splits: `n` cut into `parts` segments whose lengths
/// differ by at most one, the longer ones first.
fn even_splits(n: usize, parts: usize) -> Vec<usize> {
    let (base, rem) = (n / parts, n % parts);
    let mut splits = Vec::with_capacity(parts + 1);
    splits.push(0);
    for i in 0..parts {
        splits.push(splits[i] + base + usize::from(i < rem));
    }
    splits
}

/// Invert `seg_owner` into per-group-index segment lists (ascending within
/// each place). Done once per layout so collectives never rescan the whole
/// ownership vector per place per call.
fn owner_lists(seg_owner: &[usize], parts: usize) -> Vec<Vec<usize>> {
    let mut lists = vec![Vec::new(); parts];
    for (s, &o) in seg_owner.iter().enumerate() {
        lists[o].push(s);
    }
    lists
}

/// A vector distributed in contiguous segments over a place group.
pub struct DistVector {
    object_id: u64,
    /// Segment boundaries: segment `s` covers `splits[s]..splits[s+1]`.
    pub(crate) splits: Arc<Vec<usize>>,
    /// Segment `s` lives at `group.place(seg_owner[s])`.
    pub(crate) seg_owner: Arc<Vec<usize>>,
    /// Inverse of `seg_owner`, computed once per layout: for each group
    /// index, the ascending list of segment ids it owns. Collectives index
    /// this instead of rescanning `seg_owner` on every call.
    pub(crate) place_segs: Arc<Vec<Vec<usize>>>,
    pub(crate) group: PlaceGroup,
    pub(crate) plh: PlaceLocalHandle<Mutex<SegmentStore>>,
    /// The segments the last remake left, contents and all, on the place
    /// that held them while a store still held them — a read-only save's
    /// segments, unwritten.
    kept: HashSet<usize>,
    /// The index, in the layout before the last remake, of a segment it
    /// found written away from a value a store still held — a read-only
    /// save's segment, changed.
    changed: Option<u64>,
}

impl DistVector {
    /// Create a zero vector of length `n` with one segment per place.
    pub fn make(ctx: &Ctx, n: usize, group: &PlaceGroup) -> GmlResult<Self> {
        let parts = group.len();
        Self::make_with_layout(ctx, even_splits(n, parts), (0..parts).collect(), group)
    }

    /// Create a zero vector with an explicit segment layout.
    pub fn make_with_layout(
        ctx: &Ctx,
        splits: Vec<usize>,
        seg_owner: Vec<usize>,
        group: &PlaceGroup,
    ) -> GmlResult<Self> {
        if splits.len() != seg_owner.len() + 1 {
            return Err(GmlError::shape("splits/owner length mismatch"));
        }
        if seg_owner.iter().any(|&o| o >= group.len()) {
            return Err(GmlError::shape("segment owner outside group"));
        }
        let place_segs = Arc::new(owner_lists(&seg_owner, group.len()));
        let splits = Arc::new(splits);
        let seg_owner = Arc::new(seg_owner);
        let plh = {
            let splits = Arc::clone(&splits);
            let place_segs = Arc::clone(&place_segs);
            let group2 = group.clone();
            PlaceLocalHandle::make(ctx, group, move |ctx| {
                let my_index = group2.index_of(ctx.here()).expect("place in group");
                Mutex::new(SegmentStore::zeroed(&place_segs[my_index], &splits))
            })?
        };
        Ok(DistVector {
            object_id: crate::fresh_object_id(),
            splits,
            seg_owner,
            place_segs,
            group: group.clone(),
            plh,
            kept: HashSet::new(),
            changed: None,
        })
    }

    /// Total length.
    pub fn len(&self) -> usize {
        *self.splits.last().expect("non-empty splits")
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.seg_owner.len()
    }

    /// The place group this object is laid out over.
    pub fn group(&self) -> &PlaceGroup {
        &self.group
    }

    /// Global range `[lo, hi)` of segment `s`.
    pub fn seg_range(&self, s: usize) -> (usize, usize) {
        (self.splits[s], self.splits[s + 1])
    }

    /// The place holding segment `s`.
    pub fn seg_place(&self, s: usize) -> Place {
        self.group.place(self.seg_owner[s])
    }

    /// The `(group index, place)` pairs of the places that hold at least one
    /// segment — the participants of every segment collective.
    fn seg_places(&self) -> Vec<(usize, Place)> {
        self.group.iter().enumerate().filter(|&(idx, _)| !self.place_segs[idx].is_empty()).collect()
    }

    /// Run `f(seg_id, global_offset, segment)` at the owning place of every
    /// segment, concurrently.
    pub fn for_each_segment<F>(&self, ctx: &Ctx, f: F) -> GmlResult<()>
    where
        F: Fn(usize, usize, &mut Vector) + Send + Sync + Clone + 'static,
    {
        let plh = self.plh;
        let place_segs = Arc::clone(&self.place_segs);
        let splits = Arc::clone(&self.splits);
        // One task per place touches all that place's segments.
        each_place(ctx, self.seg_places(), move |ctx, idx| {
            let store = plh.local(ctx)?;
            let mut store = store.lock();
            for &s in &place_segs[idx] {
                f(s, splits[s], store.get_mut(s)?);
            }
            Ok(())
        })
        .map(drop)
    }

    /// Initialise as `v[i] = f(i)` (global index).
    pub fn init<F>(&self, ctx: &Ctx, f: F) -> GmlResult<()>
    where
        F: Fn(usize) -> f64 + Send + Sync + Clone + 'static,
    {
        self.for_each_segment(ctx, move |_, off, seg| {
            for (k, x) in seg.as_mut_slice().iter_mut().enumerate() {
                *x = f(off + k);
            }
        })
    }

    /// Apply `f` element-wise to every segment.
    pub fn map_all<F>(&self, ctx: &Ctx, f: F) -> GmlResult<()>
    where
        F: Fn(f64) -> f64 + Send + Sync + Clone + 'static,
    {
        self.for_each_segment(ctx, move |_, _, seg| {
            seg.map_inplace(&f);
        })
    }

    /// `self *= alpha` (GML's `scale`).
    pub fn scale(&self, ctx: &Ctx, alpha: f64) -> GmlResult<()> {
        self.for_each_segment(ctx, move |_, _, seg| {
            seg.scale(alpha);
        })
    }

    /// Element-wise combine with an **aligned** `DistVector` (same splits
    /// and owners): `f(&mut self_seg, &other_seg)`.
    pub fn zip_apply<F>(&self, ctx: &Ctx, other: &DistVector, f: F) -> GmlResult<()>
    where
        F: Fn(&mut Vector, &Vector) + Send + Sync + Clone + 'static,
    {
        if self.splits != other.splits || self.seg_owner != other.seg_owner {
            return Err(GmlError::shape("zip_apply requires aligned DistVectors"));
        }
        if self.object_id == other.object_id {
            // Same object: the per-place task would lock one mutex twice.
            return Err(GmlError::shape("zip_apply operands must be distinct vectors"));
        }
        let b = other.plh;
        let plh = self.plh;
        let place_segs = Arc::clone(&self.place_segs);
        each_place(ctx, self.seg_places(), move |ctx, idx| {
            let sa = plh.local(ctx)?;
            let sb = b.local(ctx)?;
            let mut sa = sa.lock();
            let sb = sb.lock();
            for &s in &place_segs[idx] {
                f(sa.get_mut(s)?, sb.get(s)?);
            }
            Ok(())
        })
        .map(drop)
    }

    /// One partial per segment, `f(seg_id, global_offset, segment, ctx)`
    /// computed at its owner and gathered to the caller, in ascending
    /// segment order whatever the layout — so that a reduction over them is
    /// deterministic.
    fn segment_partials<F>(&self, ctx: &Ctx, f: F) -> GmlResult<Vec<f64>>
    where
        F: Fn(usize, usize, &Vector, &Ctx) -> GmlResult<f64> + Send + Sync + 'static,
    {
        let plh = self.plh;
        let place_segs = Arc::clone(&self.place_segs);
        let splits = Arc::clone(&self.splits);
        let gathered = each_place(ctx, self.seg_places(), move |ctx, idx| {
            let store = plh.local(ctx)?;
            let store = store.lock();
            let mut local = Vec::with_capacity(place_segs[idx].len());
            for &s in &place_segs[idx] {
                local.push((s, f(s, splits[s], store.get(s)?, ctx)?));
            }
            // One "message" back to the driver per place, 16 B per (segment
            // id, partial) pair; the driver consumes it, so it counts as
            // received too.
            ctx.record_bytes(16 * local.len());
            ctx.record_bytes_received(16 * local.len());
            Ok(local)
        })?;
        let mut per_seg = vec![0.0f64; self.num_segments()];
        for (s, v) in gathered.into_iter().flatten() {
            per_seg[s] = v;
        }
        Ok(per_seg)
    }

    /// Per-segment partials summed in ascending segment order.
    fn reduce_segments<F>(&self, ctx: &Ctx, f: F) -> GmlResult<f64>
    where
        F: Fn(usize, usize, &Vector, &Ctx) -> GmlResult<f64> + Send + Sync + 'static,
    {
        Ok(self.segment_partials(ctx, f)?.into_iter().sum())
    }

    /// Dot product with a duplicated vector of the same total length —
    /// the `U.dot(P)` of the paper's PageRank (local partials + reduction).
    pub fn dot_dup(&self, ctx: &Ctx, x: &crate::DupVector) -> GmlResult<f64> {
        if x.len() != self.len() {
            return Err(GmlError::shape("dot_dup length mismatch"));
        }
        let xl = x.handle();
        self.reduce_segments(ctx, move |_, off, seg, ctx| {
            let dup = xl.local(ctx)?;
            let dup = dup.lock();
            let window = dup.segment(off, seg.len());
            Ok(seg.as_slice().iter().zip(window).map(|(a, b)| a * b).sum())
        })
    }

    /// Dot product with an aligned `DistVector`.
    pub fn dot(&self, ctx: &Ctx, other: &DistVector) -> GmlResult<f64> {
        if self.splits != other.splits || self.seg_owner != other.seg_owner {
            return Err(GmlError::shape("dot requires aligned DistVectors"));
        }
        if self.object_id == other.object_id {
            // dot(self, self): reuse the single-vector reduction instead of
            // deadlocking on a re-entrant lock.
            return self.norm2_sq(ctx);
        }
        let b = other.plh;
        self.reduce_segments(ctx, move |s, _, seg, ctx| {
            let sb = b.local(ctx)?;
            let sb = sb.lock();
            Ok(seg.dot(sb.get(s)?))
        })
    }

    /// Squared Euclidean norm.
    pub fn norm2_sq(&self, ctx: &Ctx) -> GmlResult<f64> {
        self.reduce_segments(ctx, |_, _, seg, _| Ok(seg.norm2_sq()))
    }

    /// Sum of all elements.
    pub fn sum(&self, ctx: &Ctx) -> GmlResult<f64> {
        self.reduce_segments(ctx, |_, _, seg, _| Ok(seg.sum()))
    }

    /// Maximum absolute element (0 for an empty vector).
    pub fn max_abs(&self, ctx: &Ctx) -> GmlResult<f64> {
        let maxima = self.segment_partials(ctx, |_, _, seg, _| {
            Ok(seg.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs())))
        })?;
        Ok(maxima.into_iter().fold(0.0f64, f64::max))
    }

    /// Gather the whole vector to the caller (the paper's
    /// `GP.copyTo(P.local())` gather step). Costs one transfer per segment.
    pub fn gather(&self, ctx: &Ctx) -> GmlResult<Vector> {
        let plh = self.plh;
        let place_segs = Arc::clone(&self.place_segs);
        let pieces = each_place(ctx, self.seg_places(), move |ctx, idx| {
            let store = plh.local(ctx)?;
            let store = store.lock();
            let mut local = Vec::with_capacity(place_segs[idx].len());
            for &s in &place_segs[idx] {
                let bytes = ctx.encode(store.get(s)?);
                ctx.record_bytes(bytes.len());
                local.push((s, bytes));
            }
            Ok(local)
        })?;
        let mut out = Vector::zeros(self.len());
        for (s, bytes) in pieces.into_iter().flatten() {
            ctx.record_bytes_received(bytes.len());
            let seg: Vector = ctx.decode(bytes);
            out.copy_from_at(self.splits[s], seg.as_slice());
        }
        Ok(out)
    }

    /// Re-lay out over `new_places` with a fresh default layout (one segment
    /// per place). For distributed classes the data grid must be
    /// recalculated when the group changes (§IV-A2). What a place keeps is
    /// as [`remake_with_layout`](Self::remake_with_layout) says.
    pub fn remake(&mut self, ctx: &Ctx, new_places: &PlaceGroup) -> GmlResult<()> {
        let parts = new_places.len();
        self.remake_with_layout(ctx, even_splits(self.len(), parts), (0..parts).collect(), new_places)
    }

    /// Re-lay out with an explicit layout (used to stay aligned with a
    /// `DistBlockMatrix` after its shrink/rebalance remake).
    ///
    /// A place that holds a segment over a range the new layout leaves on
    /// it keeps it, contents and all; the others start zeroed. Call
    /// `restore_snapshot` to repopulate: it rewrites every segment but a
    /// read-only snapshot's kept segment that the store still holds as the
    /// entry's first replica. A segment a place gives up that a store holds
    /// — a read-only save's — lives on only there. Every old segment, kept
    /// or given up, that a write copied away from a value a store still
    /// holds is compared with that value here: a read-only snapshot's
    /// restore refuses the vector if one differs.
    pub fn remake_with_layout(
        &mut self,
        ctx: &Ctx,
        splits: Vec<usize>,
        seg_owner: Vec<usize>,
        new_places: &PlaceGroup,
    ) -> GmlResult<()> {
        if splits.len() != seg_owner.len() + 1 {
            return Err(GmlError::shape("splits/owner length mismatch"));
        }
        if *splits.last().expect("non-empty") != self.len() {
            return Err(GmlError::shape("remake cannot change total length"));
        }
        let plh = self.plh;
        leave_group(ctx, plh, &self.group, new_places)?;
        let place_segs = Arc::new(owner_lists(&seg_owner, new_places.len()));
        let splits = Arc::new(splits);
        let found = {
            let place_segs = Arc::clone(&place_segs);
            let splits = Arc::clone(&splits);
            each_place(ctx, new_places.iter().enumerate(), move |ctx, idx| {
                let (mut old, mut changed) = (HashMap::new(), None);
                if let Ok(held) = plh.local(ctx) {
                    let SegmentStore { segs, splits } = std::mem::take(&mut *held.lock());
                    changed = segs.iter().find(|(_, v)| v.changed_from_held()).map(|(&s, _)| s as u64);
                    old.extend(segs.into_iter().map(|(s, v)| ((splits[s], splits[s + 1]), v)));
                }
                let mut kept = Vec::new();
                let segs = place_segs[idx].iter().map(|&s| {
                    let range = (splits[s], splits[s + 1]);
                    let seg = old.remove(&range).inspect(|seg| kept.extend(seg.is_held().then_some(s)));
                    (s, seg.unwrap_or_else(|| Shared::new(Vector::zeros(range.1 - range.0))))
                });
                let store = SegmentStore { segs: segs.collect(), splits: Arc::clone(&splits) };
                plh.set_local(ctx, Mutex::new(store));
                Ok((kept, changed))
            })?
        };
        self.kept = found.iter().flat_map(|(kept, _)| kept.iter().copied()).collect();
        self.changed = found.iter().find_map(|&(_, changed)| changed);
        self.splits = splits;
        self.seg_owner = Arc::new(seg_owner);
        self.place_segs = place_segs;
        self.group = new_places.clone();
        Ok(())
    }
}

impl Snapshottable for DistVector {
    fn object_id(&self) -> u64 {
        self.object_id
    }

    fn make_snapshot(&self, ctx: &Ctx, store: &ResilientStore) -> GmlResult<Snapshot> {
        let _span = ctx.trace_span(SpanKind::SnapshotObj, self.object_id);
        let snap_id = store.fresh_snap_id();
        let plh = self.plh;
        let place_segs = Arc::clone(&self.place_segs);
        let (group, store, id) = (self.group.clone(), store.clone(), self.object_id);
        let entries = each_place(ctx, self.seg_places(), move |ctx, idx| {
            // Capture: hold every local segment under one short lock, then
            // hand them to the store as one batch.
            let parts: Vec<(u64, Held)> = {
                let st = plh.local(ctx)?;
                let st = st.lock();
                place_segs[idx]
                    .iter()
                    .map(|&s| Ok((s as u64, store.part(id, st.shared(s)?))))
                    .collect::<GmlResult<_>>()?
            };
            store.save_local_parts(ctx, snap_id, &group, parts)
        })?;
        // Descriptor: the splits at snapshot time.
        let mut desc = BytesMut::new();
        desc.put_u64_le(self.splits.len() as u64);
        for &s in self.splits.iter() {
            desc.put_u64_le(s as u64);
        }
        let entries = entries.into_iter().flatten();
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
        let ns = desc.get_u64_le() as usize;
        let old_splits: Vec<usize> = (0..ns).map(|_| desc.get_u64_le() as usize).collect();
        if *old_splits.last().expect("non-empty") != self.len() {
            return Err(GmlError::shape("snapshot length != DistVector length"));
        }
        if let Some(key) = self.changed.filter(|_| snapshot.read_only) {
            return Err(modified(self.object_id, key));
        }
        let same_layout = old_splits == **self.splits;
        // Per place, the segments to restore: under an unchanged layout a
        // read-only snapshot's segment `remake` kept is left as it is where
        // the store still holds it as the entry's first replica, and
        // restored where a write copied it away (without changing it:
        // `remake` found none changed); a segment rebuilt is held again.
        let read_only = same_layout && snapshot.read_only;
        let mut todo = self.place_segs.as_ref().clone();
        if read_only {
            todo.iter_mut().for_each(|segs| segs.retain(|s| !self.kept.contains(s)));
        }
        let places: Vec<(usize, Place)> =
            self.group.iter().enumerate().filter(|&(idx, _)| !todo[idx].is_empty()).collect();
        let plh = self.plh;
        let todo = Arc::new(todo);
        let splits = Arc::clone(&self.splits);
        let (store, snap) = (store.clone(), snapshot.clone());
        each_place(ctx, places, move |ctx, idx| {
            for &s in &todo[idx] {
                let (lo, hi) = (splits[s], splits[s + 1]);
                let seg = if same_layout {
                    ctx.decode::<Vector>(snap.fetch(ctx, &store, s as u64)?)
                } else {
                    // Segment-by-overlap restore: pull every old segment
                    // this new segment intersects and copy the sub-ranges.
                    let mut seg = Vector::zeros(hi - lo);
                    let first = old_splits.partition_point(|&b| b <= lo).saturating_sub(1);
                    for os in first..old_splits.len() - 1 {
                        let (olo, ohi) = (old_splits[os], old_splits[os + 1]);
                        if olo >= hi {
                            break;
                        }
                        if ohi <= lo || olo == ohi {
                            continue;
                        }
                        let old = ctx.decode::<Vector>(snap.fetch(ctx, &store, os as u64)?);
                        let a = lo.max(olo);
                        let b = hi.min(ohi);
                        seg.copy_from_at(a - lo, old.segment(a - olo, b - a));
                    }
                    seg
                };
                let st = plh.local(ctx)?;
                let mut st = st.lock();
                st.segs.insert(s, Shared::new(seg));
                if read_only {
                    store.rehold(ctx, &snap, s as u64, st.shared(s)?)?;
                }
            }
            Ok(())
        })
        .map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dup_vector::DupVector;
    use apgas::runtime::{Runtime, RuntimeConfig};

    fn run(places: usize, f: impl FnOnce(&Ctx) + Send + 'static) {
        Runtime::run(RuntimeConfig::new(places).resilient(true), f).unwrap();
    }

    #[test]
    fn make_init_gather_round_trip() {
        run(4, |ctx| {
            let g = ctx.world();
            let v = DistVector::make(ctx, 10, &g).unwrap();
            assert_eq!(v.len(), 10);
            assert_eq!(v.num_segments(), 4);
            v.init(ctx, |i| i as f64).unwrap();
            let full = v.gather(ctx).unwrap();
            assert_eq!(full.as_slice(), (0..10).map(|i| i as f64).collect::<Vec<_>>().as_slice());
        });
    }

    #[test]
    fn uneven_split_boundaries() {
        run(3, |ctx| {
            let v = DistVector::make(ctx, 10, &ctx.world()).unwrap();
            assert_eq!(v.seg_range(0), (0, 4));
            assert_eq!(v.seg_range(1), (4, 7));
            assert_eq!(v.seg_range(2), (7, 10));
        });
    }

    #[test]
    fn dot_and_norm() {
        run(3, |ctx| {
            let g = ctx.world();
            let a = DistVector::make(ctx, 7, &g).unwrap();
            let b = DistVector::make(ctx, 7, &g).unwrap();
            a.init(ctx, |i| i as f64).unwrap();
            b.init(ctx, |_| 2.0).unwrap();
            assert_eq!(a.dot(ctx, &b).unwrap(), 2.0 * 21.0);
            assert_eq!(a.norm2_sq(ctx).unwrap(), (0..7).map(|i| (i * i) as f64).sum::<f64>());
        });
    }

    #[test]
    fn dot_dup_matches_local_computation() {
        run(3, |ctx| {
            let g = ctx.world();
            let u = DistVector::make(ctx, 8, &g).unwrap();
            let p = DupVector::make(ctx, 8, &g).unwrap();
            u.init(ctx, |i| (i % 3) as f64).unwrap();
            p.init(ctx, |i| 1.0 + i as f64).unwrap();
            let got = u.dot_dup(ctx, &p).unwrap();
            let expect: f64 = (0..8).map(|i| ((i % 3) as f64) * (1.0 + i as f64)).sum();
            assert!((got - expect).abs() < 1e-12);
        });
    }

    #[test]
    fn sum_and_max_abs() {
        run(3, |ctx| {
            let g = ctx.world();
            let v = DistVector::make(ctx, 9, &g).unwrap();
            v.init(ctx, |i| if i == 5 { -10.0 } else { i as f64 }).unwrap();
            assert_eq!(v.sum(ctx).unwrap(), (0..9).map(|i| i as f64).sum::<f64>() - 15.0);
            assert_eq!(v.max_abs(ctx).unwrap(), 10.0);
            let z = DistVector::make(ctx, 4, &g).unwrap();
            assert_eq!(z.max_abs(ctx).unwrap(), 0.0);
        });
    }

    #[test]
    fn max_abs_accounts_its_partials_like_the_other_reductions() {
        run(4, |ctx| {
            let v = DistVector::make(ctx, 10, &ctx.world()).unwrap();
            v.init(ctx, |i| -(i as f64)).unwrap();
            let before = ctx.stats();
            assert_eq!(v.max_abs(ctx).unwrap(), 9.0);
            let d = ctx.stats().since(&before);
            assert_eq!(d.bytes_shipped, 16 * 4, "16 B per segment partial brought home");
            assert_eq!(d.bytes_received, d.bytes_shipped);
        });
    }

    #[test]
    fn zip_apply_and_map() {
        run(2, |ctx| {
            let g = ctx.world();
            let a = DistVector::make(ctx, 6, &g).unwrap();
            let b = DistVector::make(ctx, 6, &g).unwrap();
            a.init(ctx, |i| i as f64).unwrap();
            b.init(ctx, |_| 10.0).unwrap();
            a.zip_apply(ctx, &b, |x, y| {
                x.cell_add(y);
            })
            .unwrap();
            a.map_all(ctx, |v| v * 2.0).unwrap();
            a.scale(ctx, 0.5).unwrap();
            let full = a.gather(ctx).unwrap();
            assert_eq!(full.as_slice(), &[10.0, 11.0, 12.0, 13.0, 14.0, 15.0]);
        });
    }

    #[test]
    fn self_aliasing_ops_do_not_deadlock() {
        run(2, |ctx| {
            let g = ctx.world();
            let a = DistVector::make(ctx, 6, &g).unwrap();
            a.init(ctx, |i| i as f64).unwrap();
            // zip_apply(self, self) is rejected instead of deadlocking.
            assert!(matches!(a.zip_apply(ctx, &a, |_, _| {}), Err(GmlError::Shape(_))));
            // dot(self, self) routes through the single-vector reduction.
            assert_eq!(a.dot(ctx, &a).unwrap(), a.norm2_sq(ctx).unwrap());
        });
    }

    #[test]
    fn misaligned_zip_rejected() {
        run(2, |ctx| {
            let g = ctx.world();
            let a = DistVector::make(ctx, 6, &g).unwrap();
            let b = DistVector::make_with_layout(ctx, vec![0, 2, 6], vec![0, 1], &g).unwrap();
            assert!(matches!(a.zip_apply(ctx, &b, |_, _| {}), Err(GmlError::Shape(_))));
        });
    }

    #[test]
    fn snapshot_restore_same_layout() {
        run(3, |ctx| {
            let g = ctx.world();
            let store = ResilientStore::make(ctx).unwrap();
            let mut v = DistVector::make(ctx, 9, &g).unwrap();
            v.init(ctx, |i| i as f64 * 1.5).unwrap();
            let snap = v.make_snapshot(ctx, &store).unwrap();
            assert_eq!(snap.entries.len(), 3);
            v.init(ctx, |_| -1.0).unwrap();
            v.restore_snapshot(ctx, &store, &snap).unwrap();
            let full = v.gather(ctx).unwrap();
            assert_eq!(full.as_slice()[4], 6.0);
        });
    }

    #[test]
    fn shrink_restore_with_repartition() {
        run(4, |ctx| {
            let g = ctx.world();
            let store = ResilientStore::make(ctx).unwrap();
            let mut v = DistVector::make(ctx, 10, &g).unwrap();
            v.init(ctx, |i| (i * i) as f64).unwrap();
            let snap = v.make_snapshot(ctx, &store).unwrap();
            ctx.kill_place(Place::new(2)).unwrap();
            let survivors = g.without(&[Place::new(2)]);
            v.remake(ctx, &survivors).unwrap();
            assert_eq!(v.num_segments(), 3);
            v.restore_snapshot(ctx, &store, &snap).unwrap();
            let full = v.gather(ctx).unwrap();
            let expect: Vec<f64> = (0..10).map(|i| (i * i) as f64).collect();
            assert_eq!(full.as_slice(), expect.as_slice());
        });
    }

    #[test]
    fn restore_with_explicit_multi_segment_layout() {
        run(3, |ctx| {
            let g = ctx.world();
            let store = ResilientStore::make(ctx).unwrap();
            let mut v = DistVector::make(ctx, 12, &g).unwrap();
            v.init(ctx, |i| i as f64).unwrap();
            let snap = v.make_snapshot(ctx, &store).unwrap();
            ctx.kill_place(Place::new(1)).unwrap();
            let survivors = g.without(&[Place::new(1)]);
            // Shrink-style: keep 4 segments (old row-blocks), remap onto 2
            // places — one place now holds two segments.
            v.remake_with_layout(ctx, vec![0, 3, 6, 9, 12], vec![0, 1, 0, 1], &survivors)
                .unwrap();
            v.restore_snapshot(ctx, &store, &snap).unwrap();
            let full = v.gather(ctx).unwrap();
            assert_eq!(full.as_slice(), (0..12).map(|i| i as f64).collect::<Vec<_>>().as_slice());
        });
    }

    #[test]
    fn remake_cannot_change_length() {
        run(2, |ctx| {
            let g = ctx.world();
            let mut v = DistVector::make(ctx, 5, &g).unwrap();
            assert!(v.remake_with_layout(ctx, vec![0, 3], vec![0], &g).is_err());
        });
    }
}
