//! Linear Regression via conjugate gradient on a dense `DistBlockMatrix`
//! (the paper's LinReg benchmark).
//!
//! Trains ridge regression `(XᵀX + λI) w = Xᵀ y` by CG. Every iteration
//! runs two distributed matrix-vector products (`X·p`, then `Xᵀ·(X·p)` with
//! its allreduce) plus several duplicated-vector updates — many `finish`
//! constructs per iteration, which is why resilient X10 costs LinReg up to
//! ~120% in the paper's Fig 2.

use std::time::{Duration, Instant};

use apgas::prelude::*;
use gml_core::{AppState, DistBlockMatrix, DistVector, DupVector, GmlResult, ResilientIterativeApp};
use gml_matrix::{builder, BlockData, Vector};

/// Workload parameters (weak scaling: examples grow with the group size).
#[derive(Clone, Copy, Debug)]
pub struct LinRegConfig {
    /// Training examples per place.
    pub examples_per_place: usize,
    /// Model features.
    pub features: usize,
    /// CG iterations.
    pub iterations: u64,
    /// Ridge regularisation λ.
    pub lambda: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for LinRegConfig {
    fn default() -> Self {
        LinRegConfig {
            examples_per_place: 1000,
            features: 50,
            iterations: 30,
            lambda: 1e-6,
            seed: 21,
        }
    }
}

// ===== TABLE2 NONRESILIENT BEGIN =====
/// The LinReg program state.
pub struct LinReg {
    /// The workload configuration.
    pub cfg: LinRegConfig,
    /// Training examples (dense, row-block-distributed).
    x: DistBlockMatrix,
    /// Labels (distributed, row-aligned with `x`).
    y: DistVector,
    /// Model weights and CG state (duplicated, `features` long).
    w: DupVector,
    r: DupVector,
    p: DupVector,
    q: DupVector,
    /// Temporary `X·p` (distributed, row-aligned with `x`).
    tmp: DistVector,
    /// CG residual norm² (recomputable from `r`).
    rho: f64,
}

impl LinReg {
    /// Build the training set over `group` and initialise the CG state.
    pub fn make(ctx: &Ctx, cfg: LinRegConfig, group: &PlaceGroup) -> GmlResult<Self> {
        let m = cfg.examples_per_place * group.len();
        let f = cfg.features;
        let places = group.len();
        let x = DistBlockMatrix::make(ctx, m, f, places, 1, places, 1, group, false)?;
        let seed = cfg.seed;
        x.init_with(ctx, move |_, _, r0, _, rows, cols| {
            BlockData::Dense(builder::random_dense_rows(cols, seed, r0, r0 + rows))
        })?;
        // Hidden weights generate the labels: y = X·w*.
        let w_star = DupVector::make(ctx, f, group)?;
        let star = builder::random_vector(f, cfg.seed.wrapping_add(1));
        w_star.init(ctx, move |i| star.get(i))?;
        let y = x.make_aligned_vector(ctx)?;
        x.mult(ctx, &y, &w_star)?;
        // CG state: w = 0; r = Xᵀy; p = r; rho = r·r.
        let w = DupVector::make(ctx, f, group)?;
        let r = DupVector::make(ctx, f, group)?;
        x.mult_trans(ctx, &r, &y)?;
        let p = DupVector::make(ctx, f, group)?;
        p.copy_from_all(ctx, &r)?;
        let q = DupVector::make(ctx, f, group)?;
        let tmp = x.make_aligned_vector(ctx)?;
        let rho = r.read_local(ctx)?.norm2_sq();
        Ok(LinReg { cfg, x, y, w, r, p, q, tmp, rho })
    }

    /// One CG iteration.
    pub fn iterate_once(&mut self, ctx: &Ctx) -> GmlResult<()> {
        self.x.mult(ctx, &self.tmp, &self.p)?; //      tmp = X·p
        self.x.mult_trans(ctx, &self.q, &self.tmp)?; // q = Xᵀ·tmp
        self.q.axpy_all(ctx, self.cfg.lambda, &self.p)?; // q += λ·p
        let pq = self.p.dot_local(ctx, &self.q)?;
        if pq == 0.0 {
            return Ok(()); // converged exactly
        }
        let alpha = self.rho / pq;
        self.w.axpy_all(ctx, alpha, &self.p)?; //  w += α·p
        self.r.axpy_all(ctx, -alpha, &self.q)?; // r -= α·q
        let rho_new = self.r.read_local(ctx)?.norm2_sq();
        let beta = rho_new / self.rho;
        self.p.scale_all(ctx, beta)?; //           p = r + β·p
        self.p.axpy_all(ctx, 1.0, &self.r)?;
        self.rho = rho_new;
        Ok(())
    }

    /// The trained weights (root copy).
    pub fn weights(&self, ctx: &Ctx) -> GmlResult<Vector> {
        self.w.read_local(ctx)
    }

    /// Residual norm² of the normal equations.
    pub fn residual(&self) -> f64 {
        self.rho
    }

    /// Run the non-resilient program, returning final weights and each
    /// iteration's wall time.
    pub fn run_simple(
        ctx: &Ctx,
        cfg: LinRegConfig,
        group: &PlaceGroup,
    ) -> GmlResult<(Vector, Vec<Duration>)> {
        let mut lr = LinReg::make(ctx, cfg, group)?;
        let mut times = Vec::with_capacity(cfg.iterations as usize);
        for _ in 0..cfg.iterations {
            let t = Instant::now();
            lr.iterate_once(ctx)?;
            times.push(t.elapsed());
        }
        Ok((lr.weights(ctx)?, times))
    }
}
// ===== TABLE2 NONRESILIENT END =====

// ===== TABLE2 RESILIENT BEGIN =====
/// LinReg under the resilient iterative framework.
pub struct ResilientLinReg {
    /// The wrapped application.
    pub app: LinReg,
}

impl ResilientLinReg {
    /// Build the application over `group`.
    pub fn make(ctx: &Ctx, cfg: LinRegConfig, group: &PlaceGroup) -> GmlResult<Self> {
        Ok(ResilientLinReg { app: LinReg::make(ctx, cfg, group)? })
    }
}

impl ResilientIterativeApp for ResilientLinReg {
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
            .read_only("x", &mut a.x)
            .read_only("y", &mut a.y).aligned("x")
            .scratch("tmp", &mut a.tmp).aligned("x")
            .mutable("w", &mut a.w)
            .mutable("r", &mut a.r)
            .mutable("p", &mut a.p)
            .scratch("q", &mut a.q)
    }
    // ===== TABLE2 CHECKPOINT END =====

    // ===== TABLE2 RESTORE BEGIN =====
    fn after_restore(&mut self, ctx: &Ctx) -> GmlResult<()> {
        self.app.rho = self.app.r.read_local(ctx)?.norm2_sq();
        Ok(())
    }
    // ===== TABLE2 RESTORE END =====
}
// ===== TABLE2 RESILIENT END =====

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use apgas::runtime::{Runtime, RuntimeConfig};
    use gml_core::{
        AppResilientStore, ExecutorConfig, FailureInjector, ResilientExecutor, RestoreMode,
    };

    fn small_cfg() -> LinRegConfig {
        LinRegConfig {
            examples_per_place: 40,
            features: 6,
            iterations: 20,
            lambda: 0.0,
            seed: 5,
        }
    }

    #[test]
    fn distributed_matches_reference_cg() {
        Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
            let cfg = small_cfg();
            let (w, _) = LinReg::run_simple(ctx, cfg, &ctx.world()).unwrap();
            let (x, w_star) = reference::training_matrix(120, cfg.features, cfg.seed);
            let y = x.mult_vec(&w_star);
            let expect = reference::linreg_cg(&x, &y, cfg.lambda, cfg.iterations as usize);
            assert!(
                w.max_abs_diff(&expect) < 1e-8,
                "distributed CG ≈ sequential CG (diff {})",
                w.max_abs_diff(&expect)
            );
            // And CG on noiseless data recovers the hidden weights.
            assert!(w.max_abs_diff(&w_star) < 1e-5);
        })
        .unwrap();
    }

    #[test]
    fn residual_decreases() {
        Runtime::run(RuntimeConfig::new(2).resilient(true), |ctx| {
            let mut lr = LinReg::make(ctx, small_cfg(), &ctx.world()).unwrap();
            let r0 = lr.residual();
            for _ in 0..5 {
                lr.iterate_once(ctx).unwrap();
            }
            assert!(lr.residual() < r0 * 1e-2, "CG reduces the residual fast");
        })
        .unwrap();
    }

    #[test]
    fn resilient_run_with_failure_recovers_exactly() {
        for mode in [RestoreMode::Shrink, RestoreMode::ShrinkRebalance] {
            Runtime::run(RuntimeConfig::new(4).resilient(true), move |ctx| {
                let cfg = small_cfg();
                let g = ctx.world();
                // Failure-free baseline.
                let (w_expect, _) = LinReg::run_simple(ctx, cfg, &g).unwrap();

                let app = ResilientLinReg::make(ctx, cfg, &g).unwrap();
                let mut injected = FailureInjector::new(app, 11, Place::new(1));
                let mut store = AppResilientStore::make(ctx).unwrap();
                let exec = ResilientExecutor::new(ExecutorConfig::new(10, mode));
                let (final_group, stats) = exec.run(ctx, &mut injected, &g, &mut store).unwrap();
                assert_eq!(final_group.len(), 3);
                assert_eq!(stats.restores, 1);
                let w = injected.app.app.weights(ctx).unwrap();
                assert!(
                    w.max_abs_diff(&w_expect) < 1e-9,
                    "mode {mode:?}: rollback re-execution reproduces the run (diff {})",
                    w.max_abs_diff(&w_expect)
                );
            })
            .unwrap();
        }
    }
}
