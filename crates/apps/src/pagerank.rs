//! PageRank over a sparse `DistBlockMatrix` (Listings 1, 2 and 5 of the
//! paper).
//!
//! The iteration is `P = α·G·P + (1-α)·E·UᵀP` over a column-stochastic link
//! matrix `G` (row-distributed), a duplicated rank vector `P`, and a
//! distributed personalization vector `U`. Per iteration: one local SpMV,
//! one distributed dot product, one gather and one broadcast — few `finish`
//! constructs, which is why the paper measures a resilient-X10 overhead of
//! under 5% for PageRank (Fig 4) versus ~100% for the regression codes.

use std::time::{Duration, Instant};

use apgas::prelude::*;
use gml_core::{AppState, DistBlockMatrix, DistVector, DupVector, GmlResult, ResilientIterativeApp};
use gml_matrix::{builder, BlockData, Vector};

/// Workload parameters (weak scaling: the node count grows with the group).
#[derive(Clone, Copy, Debug)]
pub struct PageRankConfig {
    /// Graph nodes per place.
    pub nodes_per_place: usize,
    /// Out-degree of every node (edges per place = nodes_per_place × this).
    pub out_degree: usize,
    /// Iterations to run.
    pub iterations: u64,
    /// Damping factor α.
    pub alpha: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            nodes_per_place: 1000,
            out_degree: 8,
            iterations: 30,
            alpha: 0.85,
            seed: 7,
        }
    }
}

// ===== TABLE2 NONRESILIENT BEGIN =====
/// The PageRank program state: the GML objects of Listing 2.
pub struct PageRank {
    /// The workload configuration.
    pub cfg: PageRankConfig,
    /// Link matrix (sparse, row-block-distributed).
    g: DistBlockMatrix,
    /// Rank vector (duplicated).
    p: DupVector,
    /// Personalization vector (distributed, row-aligned with `g`).
    u: DistVector,
    /// Temporary `G·P` (distributed, row-aligned with `g`).
    gp: DistVector,
}

impl PageRank {
    /// Build the link matrix and vectors over `group`.
    pub fn make(ctx: &Ctx, cfg: PageRankConfig, group: &PlaceGroup) -> GmlResult<Self> {
        let n = cfg.nodes_per_place * group.len();
        let places = group.len();
        let g = DistBlockMatrix::make(ctx, n, n, places, 1, places, 1, group, true)?;
        let (deg, seed) = (cfg.out_degree, cfg.seed);
        g.init_with(ctx, move |_, _, r0, _, rows, _| {
            BlockData::Sparse(builder::link_matrix_rows(n, deg, seed, r0, r0 + rows))
        })?;
        let p = DupVector::make(ctx, n, group)?;
        p.init(ctx, move |_| 1.0 / n as f64)?;
        let u = g.make_aligned_vector(ctx)?;
        u.init(ctx, move |_| 1.0 / n as f64)?;
        let gp = g.make_aligned_vector(ctx)?;
        Ok(PageRank { cfg, g, p, u, gp })
    }

    /// One PageRank iteration (Listing 2, lines 12–18).
    pub fn iterate_once(&mut self, ctx: &Ctx) -> GmlResult<()> {
        let alpha = self.cfg.alpha;
        self.g.mult(ctx, &self.gp, &self.p)?; // GP.mult(G, P)
        self.gp.scale(ctx, alpha)?; //            .scale(alpha)
        let utp1a = self.u.dot_dup(ctx, &self.p)? * (1.0 - alpha);
        let gathered = self.gp.gather(ctx)?; // GP.copyTo(P.local())
        {
            let local = self.p.local(ctx)?;
            let mut local = local.lock();
            local.copy_from(&gathered);
            local.cell_add_scalar(utp1a); // P.local().cellAdd(UtP1a)
        }
        self.p.sync(ctx) // P.sync()
    }

    /// The current rank vector (root copy).
    pub fn ranks(&self, ctx: &Ctx) -> GmlResult<Vector> {
        self.p.read_local(ctx)
    }

    /// Total nodes.
    pub fn nodes(&self) -> usize {
        self.p.len()
    }

    /// Run the non-resilient program: `iterations` steps, returning the
    /// final ranks and each iteration's wall time.
    pub fn run_simple(
        ctx: &Ctx,
        cfg: PageRankConfig,
        group: &PlaceGroup,
    ) -> GmlResult<(Vector, Vec<Duration>)> {
        let mut pr = PageRank::make(ctx, cfg, group)?;
        let mut times = Vec::with_capacity(cfg.iterations as usize);
        for _ in 0..cfg.iterations {
            let t = Instant::now();
            pr.iterate_once(ctx)?;
            times.push(t.elapsed());
        }
        Ok((pr.ranks(ctx)?, times))
    }
}
// ===== TABLE2 NONRESILIENT END =====

// ===== TABLE2 RESILIENT BEGIN =====
/// PageRank under the resilient iterative framework (§V): the same program
/// plus `is_finished`, `step` and the declaration of its state.
pub struct ResilientPageRank {
    /// The wrapped application.
    pub app: PageRank,
}

impl ResilientPageRank {
    /// Build the application over `group`.
    pub fn make(ctx: &Ctx, cfg: PageRankConfig, group: &PlaceGroup) -> GmlResult<Self> {
        Ok(ResilientPageRank { app: PageRank::make(ctx, cfg, group)? })
    }
}

impl ResilientIterativeApp for ResilientPageRank {
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
            .read_only("g", &mut a.g)
            .read_only("u", &mut a.u).aligned("g")
            .scratch("gp", &mut a.gp).aligned("g")
            .mutable("p", &mut a.p)
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

    fn small_cfg() -> PageRankConfig {
        PageRankConfig { nodes_per_place: 25, out_degree: 3, iterations: 15, alpha: 0.85, seed: 11 }
    }

    #[test]
    fn distributed_matches_reference() {
        Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
            let cfg = small_cfg();
            let (ranks, _) = PageRank::run_simple(ctx, cfg, &ctx.world()).unwrap();
            let expect = reference::pagerank(
                75,
                cfg.out_degree,
                cfg.seed,
                cfg.alpha,
                cfg.iterations as usize,
            );
            assert!(ranks.max_abs_diff(&expect) < 1e-12, "distributed == sequential");
        })
        .unwrap();
    }

    #[test]
    fn ranks_form_a_distribution() {
        Runtime::run(RuntimeConfig::new(2).resilient(true), |ctx| {
            let (ranks, _) = PageRank::run_simple(ctx, small_cfg(), &ctx.world()).unwrap();
            let sum = ranks.sum();
            assert!((sum - 1.0).abs() < 1e-6, "rank mass conserved, got {sum}");
            assert!(ranks.as_slice().iter().all(|&r| r > 0.0));
        })
        .unwrap();
    }

    #[test]
    fn resilient_run_with_failure_matches_reference() {
        for (mode, spares) in [
            (RestoreMode::Shrink, 0),
            (RestoreMode::ShrinkRebalance, 0),
            (RestoreMode::ReplaceRedundant, 1),
        ] {
            Runtime::run(RuntimeConfig::new(4).spares(spares).resilient(true), move |ctx| {
                let cfg = small_cfg();
                let g = ctx.world();
                let app = ResilientPageRank::make(ctx, cfg, &g).unwrap();
                let mut store = AppResilientStore::make(ctx).unwrap();
                let mut injected = FailureInjector::new(app, 7, Place::new(2));
                let exec = ResilientExecutor::new(ExecutorConfig::new(5, mode));
                let (final_group, stats) =
                    exec.run(ctx, &mut injected, &g, &mut store).unwrap();
                let expect = reference::pagerank(
                    100,
                    cfg.out_degree,
                    cfg.seed,
                    cfg.alpha,
                    cfg.iterations as usize,
                );
                let ranks = injected.app.app.ranks(ctx).unwrap();
                assert!(
                    ranks.max_abs_diff(&expect) < 1e-12,
                    "mode {mode:?}: result identical despite failure"
                );
                assert_eq!(stats.restores, 1);
                match mode {
                    RestoreMode::ReplaceRedundant => assert_eq!(final_group.len(), 4),
                    _ => assert_eq!(final_group.len(), 3),
                }
            })
            .unwrap();
        }
    }
}
