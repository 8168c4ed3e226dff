//! Application snapshots spanning *many* GML objects of different classes
//! (the paper's `AppResilientStore` exists precisely to make multi-object
//! checkpoints atomic). One app carries every Table I multi-place class at
//! once; failures must roll all of them back consistently.

use apgas::prelude::*;
use apgas::runtime::{Runtime, RuntimeConfig};
use gml_core::{
    AppResilientStore, AppState, DistBlockMatrix, DistDenseMatrix, DistSparseMatrix, DistVector,
    DupDenseMatrix, DupVector, ExecutorConfig, FailureInjector, GmlResult, ResilientExecutor,
    ResilientIterativeApp, RestoreMode,
};
use gml_matrix::{builder, BlockData, DenseMatrix};

/// A deliberately heterogeneous app: every multi-place class participates.
struct Menagerie {
    dense: DistBlockMatrix,
    one_block: DistDenseMatrix,
    sparse: DistSparseMatrix,
    dist_vec: DistVector,
    dup_vec: DupVector,
    dup_mat: DupDenseMatrix,
    iters: u64,
}

impl Menagerie {
    fn make(ctx: &Ctx, group: &PlaceGroup, iters: u64) -> GmlResult<Self> {
        let n = group.len();
        let dense = DistBlockMatrix::make(ctx, 8 * n, 6, 2 * n, 1, n, 1, group, false)?;
        dense.init_with(ctx, |_, _, r0, c0, r, c| {
            BlockData::Dense(builder::random_dense(r, c, (r0 * 17 + c0) as u64))
        })?;
        let one_block = DistDenseMatrix::make(ctx, 5 * n, 4, group)?;
        one_block.init(ctx, |r, c| (r * 4 + c) as f64 * 0.5)?;
        let sparse = DistSparseMatrix::make(ctx, 12 * n, 12 * n, group)?;
        sparse.init_blocks(ctx, |_, r0, _, rows, cols| {
            builder::random_csr(rows, cols, 3, r0 as u64)
        })?;
        let dist_vec = DistVector::make(ctx, 10 * n, group)?;
        dist_vec.init(ctx, |i| i as f64)?;
        let dup_vec = DupVector::make(ctx, 7, group)?;
        dup_vec.init(ctx, |i| -(i as f64))?;
        let dup_mat = DupDenseMatrix::make(ctx, 3, 3, group)?;
        dup_mat.init(ctx, |i, j| (i * 3 + j) as f64)?;
        Ok(Menagerie { dense, one_block, sparse, dist_vec, dup_vec, dup_mat, iters })
    }

    fn fingerprint(&self, ctx: &Ctx) -> GmlResult<Vec<f64>> {
        Ok(vec![
            self.dense.frobenius_norm_sq(ctx)?,
            self.one_block.gather_dense(ctx)?.frobenius_norm(),
            self.sparse.gather_dense(ctx)?.frobenius_norm(),
            self.dist_vec.sum(ctx)?,
            self.dup_vec.read_local(ctx)?.sum(),
            self.dup_mat.local(ctx)?.lock().frobenius_norm(),
        ])
    }
}

impl ResilientIterativeApp for Menagerie {
    fn is_finished(&self, _ctx: &Ctx, iteration: u64) -> bool {
        iteration >= self.iters
    }

    fn step(&mut self, ctx: &Ctx, _iteration: u64) -> GmlResult<()> {
        // Touch every object every iteration so stale restores would show.
        self.dist_vec.map_all(ctx, |v| v + 1.0)?;
        self.dup_vec.apply(ctx, |v| {
            v.cell_add_scalar(2.0);
        })?;
        {
            let m = self.dup_mat.local(ctx)?;
            let mut m = m.lock();
            let v = m.get(0, 0);
            m.set(0, 0, v + 1.0);
        }
        self.dup_mat.sync(ctx)?;
        self.dense.scale(ctx, 1.0)?; // exercise, value-neutral
        Ok(())
    }

    fn state(&mut self) -> AppState<'_> {
        AppState::default()
            .read_only("dense", &mut self.dense)
            .mutable("one_block", &mut self.one_block)
            .read_only("sparse", &mut self.sparse)
            .mutable("dist_vec", &mut self.dist_vec)
            .mutable("dup_vec", &mut self.dup_vec)
            .mutable("dup_mat", &mut self.dup_mat)
    }
}

#[test]
fn six_object_checkpoint_survives_failure() {
    for (mode, spares) in [
        (RestoreMode::Shrink, 0usize),
        (RestoreMode::ShrinkRebalance, 0),
        (RestoreMode::ReplaceRedundant, 1),
        (RestoreMode::ReplaceElastic, 0),
    ] {
        Runtime::run(RuntimeConfig::new(4).spares(spares).resilient(true), move |ctx| {
            let world = ctx.world();
            // Failure-free fingerprint.
            let mut baseline = Menagerie::make(ctx, &world, 12).unwrap();
            let mut store0 = AppResilientStore::make(ctx).unwrap();
            let exec = ResilientExecutor::new(ExecutorConfig::new(5, mode));
            exec.run(ctx, &mut baseline, &world, &mut store0).unwrap();
            let expect = baseline.fingerprint(ctx).unwrap();

            // Same run with a failure at iteration 8.
            let app = Menagerie::make(ctx, &world, 12).unwrap();
            let mut injected = FailureInjector::new(app, 8, Place::new(2));
            let mut store = AppResilientStore::make(ctx).unwrap();
            let (_, stats) = exec.run(ctx, &mut injected, &world, &mut store).unwrap();
            assert_eq!(stats.restores, 1, "{mode:?}");
            let got = injected.app.fingerprint(ctx).unwrap();
            for (g, e) in got.iter().zip(&expect) {
                assert!(
                    (g - e).abs() < 1e-9,
                    "{mode:?}: fingerprint drifted: {got:?} vs {expect:?}"
                );
            }
        })
        .unwrap();
    }
}

#[test]
fn atomicity_no_partial_snapshot_is_ever_restored() {
    // If a failure hits between save() calls, the executor cancels and the
    // previous snapshot is used: objects must never mix epochs.
    struct EpochApp {
        a: DupVector,
        b: DupVector,
        iters: u64,
        sabotage_next_checkpoint: bool,
    }
    impl ResilientIterativeApp for EpochApp {
        fn is_finished(&self, _ctx: &Ctx, it: u64) -> bool {
            it >= self.iters
        }
        fn step(&mut self, ctx: &Ctx, _it: u64) -> GmlResult<()> {
            // a and b advance in lockstep; equality is the invariant.
            self.a.apply(ctx, |v| {
                v.cell_add_scalar(1.0);
            })?;
            self.b.apply(ctx, |v| {
                v.cell_add_scalar(1.0);
            })
        }
        fn checkpoint(&mut self, ctx: &Ctx, store: &mut AppResilientStore) -> GmlResult<()> {
            store.start_new_snapshot();
            store.save(ctx, &self.a)?;
            if self.sabotage_next_checkpoint {
                self.sabotage_next_checkpoint = false;
                ctx.kill_place(Place::new(2))?;
            }
            store.save(ctx, &self.b)?;
            store.commit(ctx)
        }
        fn state(&mut self) -> AppState<'_> {
            AppState::default().mutable("a", &mut self.a).mutable("b", &mut self.b)
        }
    }

    Runtime::run(RuntimeConfig::new(4).resilient(true), |ctx| {
        let world = ctx.world();
        let a = DupVector::make(ctx, 3, &world).unwrap();
        let b = DupVector::make(ctx, 3, &world).unwrap();
        let mut app = EpochApp { a, b, iters: 10, sabotage_next_checkpoint: false };
        let mut store = AppResilientStore::make(ctx).unwrap();
        // Commit a clean snapshot at iteration 0 first, then arm the
        // sabotage for the checkpoint at iteration 5.
        let exec = ResilientExecutor::new(ExecutorConfig::new(5, RestoreMode::Shrink));
        store.set_current_iteration(0);
        app.checkpoint(ctx, &mut store).unwrap();
        app.sabotage_next_checkpoint = true;
        exec.run(ctx, &mut app, &world, &mut store).unwrap();

        let av = app.a.read_local(ctx).unwrap();
        let bv = app.b.read_local(ctx).unwrap();
        assert_eq!(av, bv, "epoch mixing detected: a={av:?} b={bv:?}");
        assert_eq!(av.get(0), 10.0);
    })
    .unwrap();
}

#[test]
fn dup_dense_participates_in_mult_pipelines() {
    // Cross-class interaction: weights kept in a DupDenseMatrix column and
    // moved into a DupVector for a mat-vec — catches accidental layout
    // assumptions between duplicated classes.
    Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
        let world = ctx.world();
        let m = DistBlockMatrix::make(ctx, 9, 4, 3, 1, 3, 1, &world, false).unwrap();
        m.init_with(ctx, |_, _, r0, c0, r, c| {
            let mut d = DenseMatrix::zeros(r, c);
            for j in 0..c {
                for i in 0..r {
                    d.set(i, j, ((r0 + i) + 10 * (c0 + j)) as f64);
                }
            }
            BlockData::Dense(d)
        })
        .unwrap();
        let w_mat = DupDenseMatrix::make(ctx, 4, 1, &world).unwrap();
        w_mat.init(ctx, |i, _| i as f64 + 1.0).unwrap();
        let w = DupVector::make(ctx, 4, &world).unwrap();
        // Copy the matrix column into the vector at every place.
        let col: Vec<f64> = w_mat.local(ctx).unwrap().lock().col(0).to_vec();
        w.init(ctx, move |i| col[i]).unwrap();
        let y = m.make_aligned_vector(ctx).unwrap();
        m.mult(ctx, &y, &w).unwrap();
        let expect = m
            .gather_dense(ctx)
            .unwrap()
            .mult_vec(&w.read_local(ctx).unwrap());
        assert!(y.gather(ctx).unwrap().max_abs_diff(&expect) < 1e-10);
    })
    .unwrap();
}

/// A block matrix and a one-block-per-place matrix, each with a vector made
/// by its `make_aligned_vector` and declared `aligned` to it.
struct AlignedPairs {
    block: DistBlockMatrix,
    y: DistVector,
    one_block: DistDenseMatrix,
    z: DistVector,
}

impl ResilientIterativeApp for AlignedPairs {
    fn is_finished(&self, _ctx: &Ctx, iteration: u64) -> bool {
        iteration >= 1
    }

    fn step(&mut self, _ctx: &Ctx, _iteration: u64) -> GmlResult<()> {
        Ok(())
    }

    fn state(&mut self) -> AppState<'_> {
        AppState::default()
            .read_only("block", &mut self.block)
            .mutable("y", &mut self.y)
            .aligned("block")
            .read_only("one_block", &mut self.one_block)
            .mutable("z", &mut self.z)
            .aligned("one_block")
    }
}

/// A vector aligned to a matrix follows it through every restore mode: to
/// the block matrix's kept grid under shrink and replace-redundant and its
/// re-cut one under shrink-rebalance, and to the one-block-per-place
/// matrix's grid, which every restore re-cuts. Each is still aligned with
/// its matrix afterwards, holds its values, and takes the matrix's `mult`.
#[test]
fn aligned_vectors_follow_their_matrices_through_every_restore_mode() {
    for (mode, spares) in [
        (RestoreMode::Shrink, 0usize),
        (RestoreMode::ShrinkRebalance, 0),
        (RestoreMode::ReplaceRedundant, 1),
    ] {
        Runtime::run(RuntimeConfig::new(4).spares(spares).resilient(true), move |ctx| {
            let world = ctx.world();
            // Two row blocks per place: a shrink keeps the eight blocks over
            // three places, a rebalance re-cuts them into six.
            let block = DistBlockMatrix::make(ctx, 24, 5, 8, 1, 4, 1, &world, false).unwrap();
            block
                .init_with(ctx, |_, _, r0, c0, r, c| {
                    BlockData::Dense(builder::random_dense(r, c, (r0 * 7 + c0) as u64))
                })
                .unwrap();
            let one_block = DistDenseMatrix::make(ctx, 22, 5, &world).unwrap();
            one_block.init(ctx, |r, c| (r * 5 + c) as f64 * 0.25).unwrap();
            let y = block.make_aligned_vector(ctx).unwrap();
            y.init(ctx, |i| i as f64).unwrap();
            let z = one_block.make_aligned_vector(ctx).unwrap();
            z.init(ctx, |i| -(i as f64)).unwrap();
            let values = (y.gather(ctx).unwrap(), z.gather(ctx).unwrap());
            let mut app = AlignedPairs { block, y, one_block, z };
            let mut store = AppResilientStore::make(ctx).unwrap();
            app.checkpoint(ctx, &mut store).unwrap();

            let dead = [Place::new(2)];
            ctx.kill_place(dead[0]).unwrap();
            let (group, rebalance) = match mode {
                RestoreMode::Shrink => (world.without(&dead), false),
                RestoreMode::ShrinkRebalance => (world.without(&dead), true),
                _ => (world.replace(&dead, &ctx.live_spares()).unwrap(), false),
            };
            app.restore(ctx, &group, &mut store, 0, rebalance).unwrap();
            let row_blocks = if rebalance { 6 } else { 8 };
            assert_eq!(app.block.grid().row_blocks(), row_blocks, "{mode:?}");
            assert_eq!(app.one_block.grid().row_blocks(), group.len(), "{mode:?}");
            assert!(app.block.is_aligned(&app.y), "{mode:?}: y left its matrix");
            assert!(app.one_block.is_aligned(&app.z), "{mode:?}: z left its matrix");
            let restored = (app.y.gather(ctx).unwrap(), app.z.gather(ctx).unwrap());
            assert_eq!(restored, values, "{mode:?}");

            let x = DupVector::make(ctx, 5, &group).unwrap();
            x.init(ctx, |i| 1.0 + i as f64).unwrap();
            let xv = x.read_local(ctx).unwrap();
            app.block.mult(ctx, &app.y, &x).unwrap();
            app.one_block.mult(ctx, &app.z, &x).unwrap();
            let y_expect = app.block.gather_dense(ctx).unwrap().mult_vec(&xv);
            let z_expect = app.one_block.gather_dense(ctx).unwrap().mult_vec(&xv);
            assert!(app.y.gather(ctx).unwrap().max_abs_diff(&y_expect) < 1e-10, "{mode:?}");
            assert!(app.z.gather(ctx).unwrap().max_abs_diff(&z_expect) < 1e-10, "{mode:?}");
        })
        .unwrap();
    }
}
