//! Table I's matrices with **one block per place**: the generic
//! [`DistMatrix`] and its two instances, [`DistDenseMatrix`] and
//! [`DistSparseMatrix`].
//!
//! Because each place holds exactly one block, changing the place group
//! *must* recalculate the data grid (§IV-A2: "classes that assign one block
//! to each place ... must recalculate the data grid to generate new blocks
//! equal in number to the size of the new PlaceGroup") — so every
//! post-failure restore is an overlap-copy restore, whose sparse sub-block
//! extraction includes the nnz-counting pre-pass (§IV-B2). This is exactly
//! the flexibility `DistBlockMatrix` was designed to add.

use std::marker::PhantomData;

use apgas::prelude::*;
use gml_matrix::{BlockData, DenseMatrix, Grid, SparseCSR};

use crate::dist_block_matrix::DistBlockMatrix;
use crate::dist_vector::DistVector;
use crate::dup_vector::DupVector;
use crate::error::GmlResult;
use crate::snapshot::{Snapshot, Snapshottable};
use crate::store::ResilientStore;

/// The payload of a one-block-per-place matrix's blocks.
pub trait BlockKind {
    /// True for sparse blocks.
    const SPARSE: bool;
}

impl BlockKind for DenseMatrix {
    const SPARSE: bool = false;
}

impl BlockKind for SparseCSR {
    const SPARSE: bool = true;
}

/// A matrix row-partitioned with exactly one block per place, its blocks
/// of kind `T`.
pub struct DistMatrix<T> {
    pub(crate) inner: DistBlockMatrix,
    kind: PhantomData<T>,
}

/// A dense matrix row-partitioned with exactly one block per place.
pub type DistDenseMatrix = DistMatrix<DenseMatrix>;

/// A sparse matrix row-partitioned with exactly one block per place.
pub type DistSparseMatrix = DistMatrix<SparseCSR>;

impl<T: BlockKind> DistMatrix<T> {
    /// Create an all-zero `rows × cols` matrix, one row block per place.
    pub fn make(ctx: &Ctx, rows: usize, cols: usize, group: &PlaceGroup) -> GmlResult<Self> {
        let n = group.len();
        let inner = DistBlockMatrix::make(ctx, rows, cols, n, 1, n, 1, group, T::SPARSE)?;
        Ok(DistMatrix { inner, kind: PhantomData })
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

    /// True if `v` has the row-aligned layout of this matrix.
    pub fn is_aligned(&self, v: &DistVector) -> bool {
        self.inner.is_aligned(v)
    }

    /// Gather as a single dense matrix (testing aid; O(rows*cols)).
    pub fn gather_dense(&self, ctx: &Ctx) -> GmlResult<DenseMatrix> {
        self.inner.gather_dense(ctx)
    }

    /// Re-lay out over `new_places`. Always recalculates the grid (one
    /// block per place), i.e. always the rebalancing path.
    pub fn remake(&mut self, ctx: &Ctx, new_places: &PlaceGroup) -> GmlResult<()> {
        self.inner.remake(ctx, new_places, true)
    }
}

impl DistMatrix<DenseMatrix> {
    /// Fill with `f(global_row, global_col)`.
    pub fn init<F>(&self, ctx: &Ctx, f: F) -> GmlResult<()>
    where
        F: Fn(usize, usize) -> f64 + Send + Sync + Clone + 'static,
    {
        self.inner.init_with(ctx, move |_, _, r0, c0, rows, cols| {
            let mut d = DenseMatrix::zeros(rows, cols);
            for j in 0..cols {
                for i in 0..rows {
                    d.set(i, j, f(r0 + i, c0 + j));
                }
            }
            BlockData::Dense(d)
        })
    }
}

impl DistMatrix<SparseCSR> {
    /// Fill each place's block with `f(bi, r0, c0, rows, cols) -> SparseCSR`.
    pub fn init_blocks<F>(&self, ctx: &Ctx, f: F) -> GmlResult<()>
    where
        F: Fn(usize, usize, usize, usize, usize) -> SparseCSR + Send + Sync + Clone + 'static,
    {
        self.inner.init_with(ctx, move |bi, _bj, r0, c0, rows, cols| {
            BlockData::Sparse(f(bi, r0, c0, rows, cols))
        })
    }
}

impl<T> Snapshottable for DistMatrix<T> {
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
    fn one_block_per_place() {
        run(3, |ctx| {
            let m = DistDenseMatrix::make(ctx, 9, 4, &ctx.world()).unwrap();
            assert_eq!(m.grid().row_blocks(), 3);
            assert_eq!(m.grid().col_blocks(), 1);
        });
    }

    #[test]
    fn init_and_mult() {
        run(2, |ctx| {
            let g = ctx.world();
            let m = DistDenseMatrix::make(ctx, 6, 3, &g).unwrap();
            m.init(ctx, |r, c| (r + c) as f64).unwrap();
            let x = DupVector::make(ctx, 3, &g).unwrap();
            x.init(ctx, |_| 1.0).unwrap();
            let y = m.make_aligned_vector(ctx).unwrap();
            m.mult(ctx, &y, &x).unwrap();
            let got = y.gather(ctx).unwrap();
            // Row r: (r) + (r+1) + (r+2) = 3r + 3
            let expect: Vec<f64> = (0..6).map(|r| (3 * r + 3) as f64).collect();
            assert_eq!(got.as_slice(), expect.as_slice());
        });
    }

    #[test]
    fn shrink_always_repartitions() {
        run(4, |ctx| {
            let g = ctx.world();
            let store = ResilientStore::make(ctx).unwrap();
            let mut m = DistDenseMatrix::make(ctx, 8, 3, &g).unwrap();
            m.init(ctx, |r, c| (r * 10 + c) as f64).unwrap();
            let reference = m.gather_dense(ctx).unwrap();
            let snap = m.make_snapshot(ctx, &store).unwrap();
            ctx.kill_place(Place::new(2)).unwrap();
            let survivors = g.without(&[Place::new(2)]);
            m.remake(ctx, &survivors).unwrap();
            assert_eq!(m.grid().row_blocks(), 3, "grid recalculated to one block/place");
            m.restore_snapshot(ctx, &store, &snap).unwrap();
            assert_eq!(m.gather_dense(ctx).unwrap(), reference);
        });
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
