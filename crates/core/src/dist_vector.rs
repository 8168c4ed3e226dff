//! A vector partitioned into segments across a place group (`DistVector`).
//!
//! A `DistVector` is an `n × 1` [`Dist`]: its segments are the blocks of a
//! one-column grid, laid out block-cyclically over its group, and laid out,
//! remade, captured and restored by the code every distributed class
//! shares. Only the vector operations below are its own. When a
//! `DistVector` is the output of `DistBlockMatrix::mult`, its segments are
//! cut at the matrix's block rows and co-located with the matching blocks
//! ([`DistBlockMatrix::make_aligned_vector`]) — which is what lets the
//! shrink restore keep working when one place holds several block rows
//! after a failure.
//!
//! [`DistBlockMatrix::make_aligned_vector`]: crate::DistBlockMatrix::make_aligned_vector

use apgas::prelude::*;
use gml_matrix::{Grid, Vector};

use crate::collective::each_place;
use crate::dist_block_matrix::{missing, Dist, Layout};
use crate::error::{GmlError, GmlResult};

/// A vector distributed in contiguous segments over a place group.
pub type DistVector = Dist<Vector>;

impl DistVector {
    /// Create a zero vector of length `n` with one segment per place.
    pub fn make(ctx: &Ctx, n: usize, group: &PlaceGroup) -> GmlResult<Self> {
        let parts = group.len();
        let layout = Layout::new(Grid::partition(n, 1, parts, 1), (parts, 1), (1, 1), group);
        Self::with_layout(ctx, layout, false)
    }

    /// Total length.
    pub fn len(&self) -> usize {
        self.layout.grid.rows()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.layout.grid.row_blocks()
    }

    /// Global range `[lo, hi)` of segment `s`.
    pub fn seg_range(&self, s: usize) -> (usize, usize) {
        self.layout.grid.row_range(s)
    }

    /// The place holding segment `s`.
    pub fn seg_place(&self, s: usize) -> Place {
        self.layout.group.place(self.layout.dist[s])
    }

    /// Run `f(seg_id, global_offset, segment)` at the owning place of every
    /// segment, concurrently.
    pub fn for_each_segment<F>(&self, ctx: &Ctx, f: F) -> GmlResult<()>
    where
        F: Fn(usize, usize, &mut Vector) + Send + Sync + Clone + 'static,
    {
        let (plh, grid) = (self.plh, self.layout.grid.clone());
        // One task per place touches all that place's segments.
        each_place(ctx, self.layout.places(), move |ctx, _| {
            let store = plh.local(ctx)?;
            for (s, seg) in store.lock().entries_mut() {
                f(s, grid.row_range(s).0, seg);
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

    /// Element-wise combine with an **aligned** `DistVector` (the same
    /// segments on the same places): `f(&mut self_seg, &other_seg)`.
    pub fn zip_apply<F>(&self, ctx: &Ctx, other: &DistVector, f: F) -> GmlResult<()>
    where
        F: Fn(&mut Vector, &Vector) + Send + Sync + Clone + 'static,
    {
        if !self.layout.rows_aligned(&other.layout) {
            return Err(GmlError::shape("zip_apply requires aligned DistVectors"));
        }
        if self.object_id == other.object_id {
            // Same object: the per-place task would lock one mutex twice.
            return Err(GmlError::shape("zip_apply operands must be distinct vectors"));
        }
        let (plh, b) = (self.plh, other.plh);
        each_place(ctx, self.layout.places(), move |ctx, _| {
            let sa = plh.local(ctx)?;
            let sb = b.local(ctx)?;
            let mut sa = sa.lock();
            let sb = sb.lock();
            for (s, seg) in sa.entries_mut() {
                f(seg, sb.get(s).ok_or_else(|| missing(s))?);
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
        let (plh, grid) = (self.plh, self.layout.grid.clone());
        let gathered = each_place(ctx, self.layout.places(), move |ctx, _| {
            let store = plh.local(ctx)?;
            let store = store.lock();
            let mut local = Vec::with_capacity(store.len());
            for (s, seg) in store.entries() {
                local.push((s, f(s, grid.row_range(s).0, seg, ctx)?));
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
        if !self.layout.rows_aligned(&other.layout) {
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
            Ok(seg.dot(sb.get(s).ok_or_else(|| missing(s))?))
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
        let pieces = each_place(ctx, self.layout.places(), move |ctx, _| {
            let store = plh.local(ctx)?;
            let store = store.lock();
            let mut local = Vec::with_capacity(store.len());
            for (s, seg) in store.entries() {
                let bytes = ctx.encode(&**seg);
                ctx.record_bytes(bytes.len());
                local.push((s, bytes));
            }
            Ok(local)
        })?;
        let mut out = Vector::zeros(self.len());
        for (s, bytes) in pieces.into_iter().flatten() {
            ctx.record_bytes_received(bytes.len());
            let seg: Vector = ctx.decode(bytes);
            out.copy_from_at(self.seg_range(s).0, seg.as_slice());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dup_vector::DupVector;
    use crate::{ResilientStore, Snapshottable};
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
            // Three segments over two places, aligned with a 6 × 1 matrix.
            let m = crate::DistBlockMatrix::make(ctx, 6, 1, 3, 1, 2, 1, &g, false).unwrap();
            let b = m.make_aligned_vector(ctx).unwrap();
            assert!(matches!(a.zip_apply(ctx, &b, |_, _| {}), Err(GmlError::Shape(_))));
            assert!(matches!(a.dot(ctx, &b), Err(GmlError::Shape(_))));
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
            v.remake(ctx, &survivors, true).unwrap();
            assert_eq!(v.num_segments(), 3);
            v.restore_snapshot(ctx, &store, &snap).unwrap();
            let full = v.gather(ctx).unwrap();
            let expect: Vec<f64> = (0..10).map(|i| (i * i) as f64).collect();
            assert_eq!(full.as_slice(), expect.as_slice());
        });
    }

    #[test]
    fn shrink_restore_keeps_the_segments_and_doubles_one_place_up() {
        run(3, |ctx| {
            let g = ctx.world();
            let store = ResilientStore::make(ctx).unwrap();
            let mut v = DistVector::make(ctx, 12, &g).unwrap();
            v.init(ctx, |i| i as f64).unwrap();
            let snap = v.make_snapshot(ctx, &store).unwrap();
            ctx.kill_place(Place::new(1)).unwrap();
            let survivors = g.without(&[Place::new(1)]);
            // The same three segments over two places: place 2, the dead
            // place's successor, keeps its own and takes segment 1.
            v.remake(ctx, &survivors, false).unwrap();
            assert_eq!((v.num_segments(), v.seg_range(2)), (3, (8, 12)));
            let places: Vec<Place> = (0..3).map(|s| v.seg_place(s)).collect();
            assert_eq!(places, [Place::new(0), Place::new(2), Place::new(2)]);
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
            let other = DistVector::make(ctx, 6, &g).unwrap();
            assert!(v.remake_onto(ctx, other.layout.clone()).is_err());
        });
    }
}
