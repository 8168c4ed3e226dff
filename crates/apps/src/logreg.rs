//! Logistic Regression via batch gradient descent on a dense
//! `DistBlockMatrix` (the paper's LogReg benchmark).
//!
//! Trains a binary classifier by full-batch gradient descent:
//! `w ← (1 - η λ) w - (η/m) Xᵀ(σ(X·w) - y)`. Like LinReg it runs two
//! distributed matrix-vector products per iteration plus element-wise
//! passes over the distributed prediction vector.

use std::time::{Duration, Instant};

use apgas::prelude::*;
use gml_core::{AppState, DistBlockMatrix, DistVector, DupVector, GmlResult, ResilientIterativeApp};
use gml_matrix::{builder, BlockData, Vector};

use crate::sigmoid;

/// Workload parameters (weak scaling: examples grow with the group size).
#[derive(Clone, Copy, Debug)]
pub struct LogRegConfig {
    /// Training examples per place.
    pub examples_per_place: usize,
    /// Model features.
    pub features: usize,
    /// Gradient-descent iterations.
    pub iterations: u64,
    /// L2 regularisation λ.
    pub lambda: f64,
    /// Learning rate η.
    pub learning_rate: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for LogRegConfig {
    fn default() -> Self {
        LogRegConfig {
            examples_per_place: 1000,
            features: 50,
            iterations: 30,
            lambda: 1e-3,
            learning_rate: 1.0,
            seed: 33,
        }
    }
}

// ===== TABLE2 NONRESILIENT BEGIN =====
/// The LogReg program state.
pub struct LogReg {
    /// The workload configuration.
    pub cfg: LogRegConfig,
    /// Training examples (dense, row-block-distributed).
    x: DistBlockMatrix,
    /// Binary labels (distributed, row-aligned with `x`).
    y: DistVector,
    /// Model weights (duplicated).
    w: DupVector,
    /// Gradient accumulator (duplicated).
    grad: DupVector,
    /// Temporary predictions `σ(X·w)` (distributed, row-aligned).
    tmp: DistVector,
}

impl LogReg {
    /// Build the training set over `group`.
    pub fn make(ctx: &Ctx, cfg: LogRegConfig, group: &PlaceGroup) -> GmlResult<Self> {
        let m = cfg.examples_per_place * group.len();
        let f = cfg.features;
        let places = group.len();
        let x = DistBlockMatrix::make(ctx, m, f, places, 1, places, 1, group, false)?;
        let seed = cfg.seed;
        x.init_with(ctx, move |_, _, r0, _, rows, cols| {
            BlockData::Dense(builder::random_dense_rows(cols, seed, r0, r0 + rows))
        })?;
        // Labels from a hidden separator: y = 1[X·w* > 0].
        let w_star = DupVector::make(ctx, f, group)?;
        let star = builder::random_vector(f, cfg.seed.wrapping_add(1));
        w_star.init(ctx, move |i| star.get(i))?;
        let y = x.make_aligned_vector(ctx)?;
        x.mult(ctx, &y, &w_star)?;
        y.map_all(ctx, |s| if s > 0.0 { 1.0 } else { 0.0 })?;
        let w = DupVector::make(ctx, f, group)?;
        let grad = DupVector::make(ctx, f, group)?;
        let tmp = x.make_aligned_vector(ctx)?;
        Ok(LogReg { cfg, x, y, w, grad, tmp })
    }

    /// One gradient-descent iteration.
    pub fn iterate_once(&mut self, ctx: &Ctx) -> GmlResult<()> {
        let m = self.x.rows() as f64;
        self.x.mult(ctx, &self.tmp, &self.w)?; //  tmp = X·w
        self.tmp.map_all(ctx, sigmoid)?; //        tmp = σ(tmp)
        self.tmp.zip_apply(ctx, &self.y, |t, y| {
            // tmp -= y  (prediction error)
            for (ti, yi) in t.as_mut_slice().iter_mut().zip(y.as_slice()) {
                *ti -= *yi;
            }
        })?;
        self.x.mult_trans(ctx, &self.grad, &self.tmp)?; // grad = Xᵀ·tmp
        // w = (1 - ηλ)·w - (η/m)·grad
        self.w.scale_all(ctx, 1.0 - self.cfg.learning_rate * self.cfg.lambda)?;
        self.w.axpy_all(ctx, -self.cfg.learning_rate / m, &self.grad)
    }

    /// The trained weights (root copy).
    pub fn weights(&self, ctx: &Ctx) -> GmlResult<Vector> {
        self.w.read_local(ctx)
    }

    /// Training accuracy of the current weights.
    pub fn training_accuracy(&self, ctx: &Ctx) -> GmlResult<f64> {
        self.x.mult(ctx, &self.tmp, &self.w)?;
        let scores = self.tmp.gather(ctx)?;
        let labels = self.y.gather(ctx)?;
        let correct = scores
            .as_slice()
            .iter()
            .zip(labels.as_slice())
            .filter(|(&s, &l)| (s > 0.0) == (l > 0.5))
            .count();
        Ok(correct as f64 / labels.len() as f64)
    }

    /// Run the non-resilient program, returning final weights and each
    /// iteration's wall time.
    pub fn run_simple(
        ctx: &Ctx,
        cfg: LogRegConfig,
        group: &PlaceGroup,
    ) -> GmlResult<(Vector, Vec<Duration>)> {
        let mut lr = LogReg::make(ctx, cfg, group)?;
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
/// LogReg under the resilient iterative framework.
pub struct ResilientLogReg {
    /// The wrapped application.
    pub app: LogReg,
}

impl ResilientLogReg {
    /// Build the application over `group`.
    pub fn make(ctx: &Ctx, cfg: LogRegConfig, group: &PlaceGroup) -> GmlResult<Self> {
        Ok(ResilientLogReg { app: LogReg::make(ctx, cfg, group)? })
    }
}

impl ResilientIterativeApp for ResilientLogReg {
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
            .scratch("grad", &mut a.grad)
    }
    // ===== TABLE2 CHECKPOINT END =====
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

    fn small_cfg() -> LogRegConfig {
        LogRegConfig {
            examples_per_place: 50,
            features: 5,
            iterations: 40,
            lambda: 1e-3,
            learning_rate: 1.0,
            seed: 17,
        }
    }

    #[test]
    fn distributed_matches_reference_gd() {
        Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
            let cfg = small_cfg();
            let (w, _) = LogReg::run_simple(ctx, cfg, &ctx.world()).unwrap();
            let (x, w_star) = reference::training_matrix(150, cfg.features, cfg.seed);
            let y = reference::classification_labels(&x, &w_star);
            let expect = reference::logreg_gd(
                &x,
                &y,
                cfg.lambda,
                cfg.learning_rate,
                cfg.iterations as usize,
            );
            assert!(
                w.max_abs_diff(&expect) < 1e-8,
                "distributed GD ≈ sequential GD (diff {})",
                w.max_abs_diff(&expect)
            );
        })
        .unwrap();
    }

    #[test]
    fn model_learns_the_training_set() {
        Runtime::run(RuntimeConfig::new(2).resilient(true), |ctx| {
            let mut cfg = small_cfg();
            cfg.iterations = 150;
            let mut lr = LogReg::make(ctx, cfg, &ctx.world()).unwrap();
            for _ in 0..cfg.iterations {
                lr.iterate_once(ctx).unwrap();
            }
            let acc = lr.training_accuracy(ctx).unwrap();
            assert!(acc > 0.9, "training accuracy {acc}");
        })
        .unwrap();
    }

    #[test]
    fn resilient_run_with_failure_recovers_exactly() {
        Runtime::run(RuntimeConfig::new(4).spares(1).resilient(true), |ctx| {
            let cfg = small_cfg();
            let g = ctx.world();
            let (w_expect, _) = LogReg::run_simple(ctx, cfg, &g).unwrap();

            let app = ResilientLogReg::make(ctx, cfg, &g).unwrap();
            let mut injected = FailureInjector::new(app, 15, Place::new(3));
            let mut store = AppResilientStore::make(ctx).unwrap();
            let exec =
                ResilientExecutor::new(ExecutorConfig::new(10, RestoreMode::ReplaceRedundant));
            let (final_group, stats) = exec.run(ctx, &mut injected, &g, &mut store).unwrap();
            assert_eq!(final_group.len(), 4, "spare kept the group at full strength");
            assert_eq!(stats.restores, 1);
            let w = injected.app.app.weights(ctx).unwrap();
            assert!(
                w.max_abs_diff(&w_expect) < 1e-9,
                "replace-redundant reproduces the failure-free run (diff {})",
                w.max_abs_diff(&w_expect)
            );
        })
        .unwrap();
    }
}
