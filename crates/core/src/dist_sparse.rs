//! `DistSparseMatrix`: a sparse matrix with **one block per place**.
//!
//! Sparse analogue of [`DistDenseMatrix`](crate::dist_dense::DistDenseMatrix):
//! every group change recalculates the grid, and the post-failure restore is
//! an overlap-copy restore whose sparse sub-block extraction includes the
//! nnz-counting pre-pass (§IV-B2).

use apgas::prelude::*;
use gml_matrix::{BlockData, DenseMatrix, Grid, SparseCSR};

use crate::dist_block_matrix::DistBlockMatrix;
use crate::dist_vector::DistVector;
use crate::dup_vector::DupVector;
use crate::error::GmlResult;
use crate::snapshot::{Snapshot, Snapshottable};
use crate::store::ResilientStore;

/// A sparse matrix row-partitioned with exactly one block per place.
pub struct DistSparseMatrix {
    inner: DistBlockMatrix,
}

impl DistSparseMatrix {
    /// Create an all-zero sparse `rows × cols` matrix, one row block per
    /// place.
    pub fn make(ctx: &Ctx, rows: usize, cols: usize, group: &PlaceGroup) -> GmlResult<Self> {
        let n = group.len();
        let inner = DistBlockMatrix::make(ctx, rows, cols, n, 1, n, 1, group, true)?;
        Ok(DistSparseMatrix { inner })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.inner.rows()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.inner.cols()
    }

    /// The block partitioning.
    pub fn grid(&self) -> &Grid {
        self.inner.grid()
    }

    /// The place group this object is laid out over.
    pub fn group(&self) -> &PlaceGroup {
        self.inner.group()
    }

    /// Fill each place's block with `f(bi, r0, c0, rows, cols) -> SparseCSR`.
    pub fn init_blocks<F>(&self, ctx: &Ctx, f: F) -> GmlResult<()>
    where
        F: Fn(usize, usize, usize, usize, usize) -> SparseCSR + Send + Sync + Clone + 'static,
    {
        self.inner.init_with(ctx, move |bi, _bj, r0, c0, rows, cols| {
            BlockData::Sparse(f(bi, r0, c0, rows, cols))
        })
    }

    /// `y = self * x` (see [`DistBlockMatrix::mult`]).
    pub fn mult(&self, ctx: &Ctx, y: &DistVector, x: &DupVector) -> GmlResult<()> {
        self.inner.mult(ctx, y, x)
    }

    /// `out = selfᵀ * x` (see [`DistBlockMatrix::mult_trans`]).
    pub fn mult_trans(&self, ctx: &Ctx, out: &DupVector, x: &DistVector) -> GmlResult<()> {
        self.inner.mult_trans(ctx, out, x)
    }

    /// A row-aligned output vector for `mult`.
    pub fn make_aligned_vector(&self, ctx: &Ctx) -> GmlResult<DistVector> {
        self.inner.make_aligned_vector(ctx)
    }

    /// Gather densified (testing aid; O(rows*cols)).
    pub fn gather_dense(&self, ctx: &Ctx) -> GmlResult<DenseMatrix> {
        self.inner.gather_dense(ctx)
    }

    /// Re-lay out over `new_places`; always recalculates the grid.
    pub fn remake(&mut self, ctx: &Ctx, new_places: &PlaceGroup) -> GmlResult<()> {
        self.inner.remake(ctx, new_places, true)
    }
}

impl Snapshottable for DistSparseMatrix {
    fn object_id(&self) -> u64 {
        self.inner.object_id()
    }

    fn make_snapshot(&self, ctx: &Ctx, store: &ResilientStore) -> GmlResult<Snapshot> {
        self.inner.make_snapshot(ctx, store)
    }

    fn restore_snapshot(
        &mut self,
        ctx: &Ctx,
        store: &ResilientStore,
        snapshot: &Snapshot,
    ) -> GmlResult<()> {
        self.inner.restore_snapshot(ctx, store, snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apgas::runtime::{Runtime, RuntimeConfig};
    use gml_matrix::builder;

    fn run(places: usize, f: impl FnOnce(&Ctx) + Send + 'static) {
        Runtime::run(RuntimeConfig::new(places).resilient(true), f).unwrap();
    }

    #[test]
    fn sparse_block_per_place_and_mult() {
        run(3, |ctx| {
            let g = ctx.world();
            let m = DistSparseMatrix::make(ctx, 12, 12, &g).unwrap();
            m.init_blocks(ctx, |_, r0, _, rows, cols| builder::random_csr(rows, cols, 3, r0 as u64))
                .unwrap();
            let x = DupVector::make(ctx, 12, &g).unwrap();
            x.init(ctx, |i| i as f64).unwrap();
            let y = m.make_aligned_vector(ctx).unwrap();
            m.mult(ctx, &y, &x).unwrap();
            let expect = m.gather_dense(ctx).unwrap().mult_vec(&x.read_local(ctx).unwrap());
            assert!(y.gather(ctx).unwrap().max_abs_diff(&expect) < 1e-10);
        });
    }

    #[test]
    fn sparse_shrink_restore_repartitions() {
        run(4, |ctx| {
            let g = ctx.world();
            let store = ResilientStore::make(ctx).unwrap();
            let mut m = DistSparseMatrix::make(ctx, 16, 10, &g).unwrap();
            m.init_blocks(ctx, |_, r0, _, rows, cols| {
                builder::random_csr(rows, cols, 2, (r0 + 3) as u64)
            })
            .unwrap();
            let reference = m.gather_dense(ctx).unwrap();
            let snap = m.make_snapshot(ctx, &store).unwrap();
            ctx.kill_place(Place::new(1)).unwrap();
            let survivors = g.without(&[Place::new(1)]);
            m.remake(ctx, &survivors).unwrap();
            assert_eq!(m.grid().row_blocks(), 3);
            m.restore_snapshot(ctx, &store, &snap).unwrap();
            assert_eq!(m.gather_dense(ctx).unwrap(), reference);
        });
    }
}
