//! A user-written framework application: distributed power iteration for
//! the dominant eigenvalue of a symmetric matrix, with *random* failure
//! injection.
//!
//! Unlike the paper's three benchmarks this app terminates on a
//! *convergence condition* rather than an iteration count, and its
//! `after_restore` must re-derive that convergence state from the restored
//! vectors — a pattern the declared-state programming model handles
//! naturally.
//!
//! ```sh
//! cargo run --release --example power_iteration
//! ```

use apgas::runtime::{Runtime, RuntimeConfig};
use resilient_gml::core::ChaosInjector;
use resilient_gml::prelude::*;

struct PowerIteration {
    a: DistBlockMatrix,
    /// Current iterate (duplicated; unit norm).
    v: DupVector,
    /// Workspace A·v (distributed, row-aligned).
    av: DistVector,
    /// Rayleigh-quotient history for the convergence test.
    lambda: f64,
    prev_lambda: f64,
    tol: f64,
    max_iters: u64,
}

impl PowerIteration {
    fn make(ctx: &Ctx, n_per_place: usize, group: &PlaceGroup) -> GmlResult<Self> {
        let n = n_per_place * group.len();
        let places = group.len();
        let a = DistBlockMatrix::make(ctx, n, n, places, 1, places, 1, group, false)?;
        // A symmetric positive matrix: A[i][j] = 1 / (1 + |i - j|).
        a.init_with(ctx, |_, _, r0, c0, rows, cols| {
            let mut d = DenseMatrix::zeros(rows, cols);
            for j in 0..cols {
                for i in 0..rows {
                    let (gi, gj) = (r0 + i, c0 + j);
                    d.set(i, j, 1.0 / (1.0 + gi.abs_diff(gj) as f64));
                }
            }
            BlockData::Dense(d)
        })?;
        let v = DupVector::make(ctx, n, group)?;
        v.init(ctx, move |_| 1.0 / (n as f64).sqrt())?;
        let av = a.make_aligned_vector(ctx)?;
        Ok(PowerIteration {
            a,
            v,
            av,
            lambda: 0.0,
            prev_lambda: f64::MAX,
            tol: 1e-10,
            max_iters: 500,
        })
    }

    fn rayleigh_step(&mut self, ctx: &Ctx) -> GmlResult<()> {
        self.a.mult(ctx, &self.av, &self.v)?; // av = A v
        let gathered = self.av.gather(ctx)?;
        let lambda = gathered.dot(&self.v.read_local(ctx)?); // vᵀAv (v unit)
        let norm = gathered.norm2();
        {
            let local = self.v.local(ctx)?;
            let mut local = local.lock();
            local.copy_from(&gathered);
            local.scale(1.0 / norm);
        }
        self.v.sync(ctx)?;
        self.prev_lambda = self.lambda;
        self.lambda = lambda;
        Ok(())
    }
}

impl ResilientIterativeApp for PowerIteration {
    fn is_finished(&self, _ctx: &Ctx, iteration: u64) -> bool {
        iteration >= self.max_iters || (self.lambda - self.prev_lambda).abs() < self.tol
    }

    fn step(&mut self, ctx: &Ctx, _iteration: u64) -> GmlResult<()> {
        self.rayleigh_step(ctx)
    }

    fn state(&mut self) -> AppState<'_> {
        AppState::default()
            .read_only("a", &mut self.a)
            .scratch("av", &mut self.av).aligned("a")
            .mutable("v", &mut self.v)
    }

    fn after_restore(&mut self, ctx: &Ctx) -> GmlResult<()> {
        // Convergence state is derived, not checkpointed: recompute the
        // Rayleigh quotient from the restored iterate and reset history.
        self.a.mult(ctx, &self.av, &self.v)?;
        self.lambda = self.av.gather(ctx)?.dot(&self.v.read_local(ctx)?);
        self.prev_lambda = f64::MAX;
        Ok(())
    }
}

fn main() {
    Runtime::run(RuntimeConfig::new(4).resilient(true), |ctx| {
        let world = ctx.world();
        let app = PowerIteration::make(ctx, 100, &world).expect("build");
        println!(
            "power iteration on a {0}x{0} symmetric matrix over {1} places",
            app.v.len(),
            world.len()
        );
        // Random failures: ~5% chance per iteration, at most 2, seeded.
        let mut chaos = ChaosInjector::new(app, 0.05, 2, 2024);
        let mut store = AppResilientStore::make(ctx).expect("store");
        let exec = ResilientExecutor::new(ExecutorConfig::new(10, RestoreMode::Shrink));
        let (final_group, stats) =
            exec.run(ctx, &mut chaos, &world, &mut store).expect("resilient run");
        println!(
            "dominant eigenvalue λ = {:.12} (converged, Δ < {:.0e})",
            chaos.app.lambda, chaos.app.tol
        );
        println!(
            "iterations {} | checkpoints {} | random failures {} | restores {} | final group {:?}",
            stats.iterations_run,
            stats.checkpoints,
            chaos.kills(),
            stats.restores,
            final_group
        );
    })
    .expect("runtime");
}
