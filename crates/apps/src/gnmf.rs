//! Gaussian Non-negative Matrix Factorisation (GNMF) on a sparse
//! `DistBlockMatrix` — the fourth GML benchmark (it joins LinReg, LogReg
//! and PageRank in the follow-up evaluations of the paper's framework; the
//! paper itself evaluates three, so Table II reports GNMF as an extension).
//!
//! Factorises `V ≈ W·H` with the Lee–Seung multiplicative updates:
//!
//! ```text
//! H ← H ∘ (WᵀV) ⊘ (WᵀW·H + ε)        W ← W ∘ (V·Hᵀ) ⊘ (W·(H·Hᵀ) + ε)
//! ```
//!
//! `V` (sparse, m×n) and `W` (dense, m×k) are row-distributed and
//! row-aligned; `H` (dense, k×n) is duplicated. Per iteration: two
//! distributed Gram products with allreduce (`WᵀV`, `WᵀW`), the H update
//! at the root and its broadcast, then one place-local pass that updates
//! `W` a row panel at a time, forming only a panel's rows of `V·Hᵀ` and
//! `W·(H·Hᵀ)` ([`DistBlockMatrix::nmf_update`]) — a heavier, gemm-shaped
//! communication pattern than the paper's three benchmarks, exercising the
//! matrix-matrix side of the library.

use std::time::{Duration, Instant};

use apgas::prelude::*;
use gml_core::{
    each_place, AppState, DistBlockMatrix, DupDenseMatrix, GmlResult, ResilientIterativeApp,
    ROW_PANEL,
};
use gml_matrix::{builder, BlockData, DenseMatrix, SparseCSR};

use crate::reference;

/// Workload parameters (weak scaling: rows grow with the group size).
#[derive(Clone, Copy, Debug)]
pub struct GnmfConfig {
    /// Rows of `V` per place.
    pub rows_per_place: usize,
    /// Columns of `V`.
    pub cols: usize,
    /// Factorisation rank `k`.
    pub rank: usize,
    /// Non-zeros per row of `V`.
    pub nnz_per_row: usize,
    /// Multiplicative-update iterations.
    pub iterations: u64,
    /// Division guard ε.
    pub eps: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for GnmfConfig {
    fn default() -> Self {
        GnmfConfig {
            rows_per_place: 500,
            cols: 100,
            rank: 10,
            nnz_per_row: 10,
            iterations: 30,
            eps: 1e-9,
            seed: 41,
        }
    }
}

// ===== TABLE2 NONRESILIENT BEGIN =====
/// The GNMF program state.
pub struct Gnmf {
    /// The workload configuration.
    pub cfg: GnmfConfig,
    /// The matrix being factorised (sparse, row-distributed).
    v: DistBlockMatrix,
    /// Left factor (dense, row-aligned with `v`).
    w: DistBlockMatrix,
    /// Right factor (dense, duplicated).
    h: DupDenseMatrix,
    /// Temporaries: `WᵀV` (k×n) and `WᵀW` (k×k), duplicated. The W
    /// update's `V·Hᵀ` and `W·(H·Hᵀ)` live only a row panel at a time,
    /// inside [`DistBlockMatrix::nmf_update`].
    wtv: DupDenseMatrix,
    wtw: DupDenseMatrix,
}

impl Gnmf {
    /// Build `V` and initialise the factors over `group`.
    pub fn make(ctx: &Ctx, cfg: GnmfConfig, group: &PlaceGroup) -> GmlResult<Self> {
        let m = cfg.rows_per_place * group.len();
        let (n, k, places) = (cfg.cols, cfg.rank, group.len());
        let v = DistBlockMatrix::make(ctx, m, n, places, 1, places, 1, group, true)?;
        let (nnz, seed) = (cfg.nnz_per_row, cfg.seed);
        v.init_with(ctx, move |_, _, r0, _, rows, cols| {
            let mut s = builder::random_csr_rows(cols, nnz, seed, r0, r0 + rows);
            s.map_values(|x| (x + 1.0) / 2.0 + 1e-3); // strictly positive
            BlockData::Sparse(s)
        })?;
        let w = DistBlockMatrix::make(ctx, m, k, places, 1, places, 1, group, false)?;
        let wseed = cfg.seed.wrapping_add(100);
        w.init_with(ctx, move |_, _, r0, _, rows, cols| {
            BlockData::Dense(reference::nonneg_dense_rows(cols, wseed, r0, r0 + rows))
        })?;
        let h = DupDenseMatrix::make(ctx, k, n, group)?;
        let hseed = cfg.seed.wrapping_add(101);
        let h_init = reference::nonneg_dense(k, n, hseed);
        h.init(ctx, move |i, j| h_init.get(i, j))?;
        let wtv = DupDenseMatrix::make(ctx, k, n, group)?;
        let wtw = DupDenseMatrix::make(ctx, k, k, group)?;
        Ok(Gnmf { cfg, v, w, h, wtv, wtw })
    }

    /// One multiplicative update of `H` then `W`.
    pub fn iterate_once(&mut self, ctx: &Ctx) -> GmlResult<()> {
        let eps = self.cfg.eps;
        // H update: H ∘= (WᵀV) ⊘ (WᵀW·H + ε), computed identically at the
        // root from duplicated inputs, then broadcast.
        self.w.gram_into(ctx, &self.wtv, &self.v)?;
        self.w.gram_into(ctx, &self.wtw, &self.w)?;
        {
            let h = self.h.local(ctx)?;
            let mut h = h.lock();
            let wtv = self.wtv.local(ctx)?;
            let wtv = wtv.lock();
            let wtw = self.wtw.local(ctx)?;
            let wtw = wtw.lock();
            let mut denom = DenseMatrix::zeros(h.rows(), h.cols());
            wtw.gemm(1.0, &h, 0.0, &mut denom);
            h.cell_mult(&wtv);
            h.cell_div_guarded(&denom, eps);
        }
        self.h.sync(ctx)?;
        // W update: W ∘= (V·Hᵀ) ⊘ (W·(H·Hᵀ) + ε), fully local per place.
        self.w.nmf_update(ctx, &self.v, &self.h, eps)
    }

    /// The factorisation objective `‖V − W·H‖²_F`, reduced across places in
    /// deterministic block order.
    pub fn objective(&self, ctx: &Ctx) -> GmlResult<f64> {
        let vh = self.v.handle();
        let wh = self.w.handle();
        let hh = self.h.handle();
        let gathered = each_place(ctx, self.v.group().iter().enumerate(), move |ctx, _| {
            let vset = vh.local(ctx)?;
            let vset = vset.lock();
            let wset = wh.local(ctx)?;
            let wset = wset.lock();
            let h = hh.local(ctx)?;
            let h = h.lock();
            let mut local = Vec::with_capacity(vset.len());
            for vb in vset.iter() {
                let wb = wset
                    .find(vb.bi, vb.bj)
                    .ok_or_else(|| gml_core::GmlError::shape("W block missing"))?;
                let (BlockData::Sparse(v), BlockData::Dense(w)) = (&vb.data, &wb.data) else {
                    return Err(gml_core::GmlError::shape("V blocks must be sparse, W's dense"));
                };
                local.push((vb.bi, residual_sq(v, w, &h)));
            }
            Ok(local)
        })?;
        let mut partials: Vec<(usize, f64)> = gathered.into_iter().flatten().collect();
        partials.sort_unstable_by_key(|(bi, _)| *bi);
        Ok(partials.into_iter().map(|(_, v)| v).sum())
    }

    /// The factors, gathered to the caller (testing aid).
    pub fn factors(&self, ctx: &Ctx) -> GmlResult<(DenseMatrix, DenseMatrix)> {
        Ok((self.w.gather_dense(ctx)?, self.h.local(ctx)?.lock().clone()))
    }

    /// Run the non-resilient program, returning the final objective and
    /// per-iteration wall times.
    pub fn run_simple(
        ctx: &Ctx,
        cfg: GnmfConfig,
        group: &PlaceGroup,
    ) -> GmlResult<(f64, Vec<Duration>)> {
        let mut app = Gnmf::make(ctx, cfg, group)?;
        let mut times = Vec::with_capacity(cfg.iterations as usize);
        for _ in 0..cfg.iterations {
            let t = Instant::now();
            app.iterate_once(ctx)?;
            times.push(t.elapsed());
        }
        Ok((app.objective(ctx)?, times))
    }
}

/// `‖V_b − W_b·H‖²_F` for one block, one [`ROW_PANEL`]-row panel at a
/// time: the panel's rows of `W_b` times `H`, less `V_b`'s entries in
/// those rows, squared and summed. Scratch is one panel of `W_b` and one
/// of the residual; no dense copy of `V_b` or `W_b` is made.
fn residual_sq(v: &SparseCSR, w: &DenseMatrix, h: &DenseMatrix) -> f64 {
    let rows = w.rows();
    let mut sum = 0.0;
    for r0 in (0..rows).step_by(ROW_PANEL) {
        let r1 = (r0 + ROW_PANEL).min(rows);
        let mut panel = DenseMatrix::zeros(r1 - r0, h.cols());
        w.sub_matrix(r0, r1, 0, w.cols()).gemm(1.0, h, 0.0, &mut panel);
        for i in r0..r1 {
            let (cols, vals) = v.row(i);
            for (&j, &x) in cols.iter().zip(vals) {
                panel.col_mut(j)[i - r0] -= x;
            }
        }
        sum += panel.as_slice().iter().map(|x| x * x).sum::<f64>();
    }
    sum
}
// ===== TABLE2 NONRESILIENT END =====

// ===== TABLE2 RESILIENT BEGIN =====
/// GNMF under the resilient iterative framework.
pub struct ResilientGnmf {
    /// The wrapped application.
    pub app: Gnmf,
}

impl ResilientGnmf {
    /// Build the application over `group`.
    pub fn make(ctx: &Ctx, cfg: GnmfConfig, group: &PlaceGroup) -> GmlResult<Self> {
        Ok(ResilientGnmf { app: Gnmf::make(ctx, cfg, group)? })
    }
}

impl ResilientIterativeApp for ResilientGnmf {
    fn is_finished(&self, _ctx: &Ctx, iteration: u64) -> bool {
        iteration >= self.app.cfg.iterations
    }

    fn step(&mut self, ctx: &Ctx, _iteration: u64) -> GmlResult<()> {
        self.app.iterate_once(ctx)
    }

    // ===== TABLE2 CHECKPOINT BEGIN =====
    fn state(&mut self) -> AppState<'_> {
        let a = &mut self.app;
        AppState::default()
            .read_only("v", &mut a.v)
            .mutable("w", &mut a.w)
            .mutable("h", &mut a.h)
            .scratch("wtv", &mut a.wtv)
            .scratch("wtw", &mut a.wtw)
    }
    // ===== TABLE2 CHECKPOINT END =====
}
// ===== TABLE2 RESILIENT END =====

#[cfg(test)]
mod tests {
    use super::*;
    use apgas::runtime::{Runtime, RuntimeConfig};
    use gml_core::{
        AppResilientStore, ExecutorConfig, FailureInjector, ResilientExecutor, RestoreMode,
    };

    fn small_cfg() -> GnmfConfig {
        GnmfConfig {
            rows_per_place: 12,
            cols: 10,
            rank: 3,
            nnz_per_row: 4,
            iterations: 15,
            eps: 1e-9,
            seed: 19,
        }
    }

    /// The dense matrix the distributed V describes (for the reference).
    fn reference_v(m: usize, cfg: GnmfConfig) -> DenseMatrix {
        let mut s = builder::random_csr_rows(cfg.cols, cfg.nnz_per_row, cfg.seed, 0, m);
        s.map_values(|x| (x + 1.0) / 2.0 + 1e-3);
        s.to_dense()
    }

    #[test]
    fn distributed_matches_reference_updates() {
        Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
            let cfg = small_cfg();
            let g = ctx.world();
            let mut app = Gnmf::make(ctx, cfg, &g).unwrap();
            for _ in 0..cfg.iterations {
                app.iterate_once(ctx).unwrap();
            }
            let (w, h) = app.factors(ctx).unwrap();
            // Reference with the same V and the same initial factors.
            let v = reference_v(36, cfg);
            let mut wr = reference::nonneg_dense(36, cfg.rank, cfg.seed.wrapping_add(100));
            let mut hr = reference::nonneg_dense(cfg.rank, cfg.cols, cfg.seed.wrapping_add(101));
            for _ in 0..cfg.iterations {
                // Same update order as the distributed implementation.
                let wt = wr.transpose();
                let mut wtv = DenseMatrix::zeros(cfg.rank, cfg.cols);
                wt.gemm(1.0, &v, 0.0, &mut wtv);
                let mut wtw = DenseMatrix::zeros(cfg.rank, cfg.rank);
                wt.gemm(1.0, &wr, 0.0, &mut wtw);
                let mut denom = DenseMatrix::zeros(cfg.rank, cfg.cols);
                wtw.gemm(1.0, &hr, 0.0, &mut denom);
                hr.cell_mult(&wtv);
                hr.cell_div_guarded(&denom, cfg.eps);
                let ht = hr.transpose();
                let mut vht = DenseMatrix::zeros(36, cfg.rank);
                v.gemm(1.0, &ht, 0.0, &mut vht);
                let mut hht = DenseMatrix::zeros(cfg.rank, cfg.rank);
                hr.gemm(1.0, &ht, 0.0, &mut hht);
                let mut whh = DenseMatrix::zeros(36, cfg.rank);
                wr.gemm(1.0, &hht, 0.0, &mut whh);
                wr.cell_mult(&vht);
                wr.cell_div_guarded(&whh, cfg.eps);
            }
            assert!(
                w.max_abs_diff(&wr) < 1e-8,
                "distributed W ≈ reference (diff {})",
                w.max_abs_diff(&wr)
            );
            assert!(h.max_abs_diff(&hr) < 1e-8);
        })
        .unwrap();
    }

    /// The objective as it was formed before panels: each block's whole
    /// residual, from dense copies of `V_b` and `W_b`.
    fn objective_from_dense_copies(app: &Gnmf, ctx: &Ctx) -> f64 {
        let (v, w) = (app.v.gather_dense(ctx).unwrap(), app.w.gather_dense(ctx).unwrap());
        let h = app.h.local(ctx).unwrap().lock().clone();
        let per_place = app.cfg.rows_per_place;
        (0..v.rows() / per_place)
            .map(|b| {
                let (r0, r1) = (b * per_place, (b + 1) * per_place);
                let mut prod = DenseMatrix::zeros(per_place, h.cols());
                w.sub_matrix(r0, r1, 0, w.cols()).gemm(1.0, &h, 0.0, &mut prod);
                prod.scale(-1.0);
                prod.cell_add(&v.sub_matrix(r0, r1, 0, v.cols()));
                prod.as_slice().iter().map(|x| x * x).sum::<f64>()
            })
            .sum()
    }

    #[test]
    fn objective_by_panels_matches_dense_copies() {
        Runtime::run(RuntimeConfig::new(2).resilient(true), |ctx| {
            // Blocks of 2½ panels, so a short last panel too.
            let cfg = GnmfConfig { rows_per_place: 5 * ROW_PANEL / 2, ..small_cfg() };
            let mut app = Gnmf::make(ctx, cfg, &ctx.world()).unwrap();
            for step in 0..3 {
                let got = app.objective(ctx).unwrap();
                let want = objective_from_dense_copies(&app, ctx);
                assert!((got - want).abs() <= 1e-12 * want.abs(), "step {step}: {got} vs {want}");
                app.iterate_once(ctx).unwrap();
            }
        })
        .unwrap();
    }

    #[test]
    fn objective_decreases_monotonically() {
        Runtime::run(RuntimeConfig::new(2).resilient(true), |ctx| {
            let cfg = small_cfg();
            let mut app = Gnmf::make(ctx, cfg, &ctx.world()).unwrap();
            let mut prev = app.objective(ctx).unwrap();
            for _ in 0..10 {
                app.iterate_once(ctx).unwrap();
                let obj = app.objective(ctx).unwrap();
                assert!(obj <= prev + 1e-9, "objective rose: {prev} → {obj}");
                prev = obj;
            }
        })
        .unwrap();
    }

    #[test]
    fn resilient_gnmf_recovers_exactly() {
        for (mode, spares) in [
            (RestoreMode::Shrink, 0),
            (RestoreMode::ShrinkRebalance, 0),
            (RestoreMode::ReplaceRedundant, 1),
        ] {
            Runtime::run(RuntimeConfig::new(4).spares(spares).resilient(true), move |ctx| {
                let cfg = small_cfg();
                let g = ctx.world();
                let mut clean = Gnmf::make(ctx, cfg, &g).unwrap();
                for _ in 0..cfg.iterations {
                    clean.iterate_once(ctx).unwrap();
                }
                let obj_expect = clean.objective(ctx).unwrap();
                // Read before the run: `clean` spans the place it kills.
                let factors_expect = clean.factors(ctx).unwrap();
                let app = ResilientGnmf::make(ctx, cfg, &g).unwrap();
                let mut injected = FailureInjector::new(app, 8, Place::new(2));
                let mut store = AppResilientStore::make(ctx).unwrap();
                let exec = ResilientExecutor::new(ExecutorConfig::new(5, mode));
                let (final_group, stats) =
                    exec.run(ctx, &mut injected, &g, &mut store).unwrap();
                assert_eq!(stats.restores, 1);
                let obj = injected.app.app.objective(ctx).unwrap();
                assert!(
                    (obj - obj_expect).abs() < 1e-9,
                    "{mode:?}: objective after recovery {obj} vs {obj_expect}"
                );
                match mode {
                    // The spare takes the dead place's group index, so every
                    // reduction sums in the clean run's order: the same bits.
                    RestoreMode::ReplaceRedundant => {
                        assert_eq!(final_group.len(), 4);
                        let (w, h) = injected.app.app.factors(ctx).unwrap();
                        assert_eq!((w, h), factors_expect, "{mode:?}: factors");
                    }
                    _ => assert_eq!(final_group.len(), 3),
                }
            })
            .unwrap();
        }
    }
}
