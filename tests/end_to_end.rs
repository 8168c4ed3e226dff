//! End-to-end integration tests: full applications driven by the resilient
//! executor across all restoration modes, verified against single-place
//! references.

use resilient_gml::prelude::*;

use apgas::runtime::{Runtime, RuntimeConfig};
use resilient_gml::apps::reference;
use resilient_gml::core::FailureInjector;

#[test]
fn pagerank_all_modes_match_failure_free_run() {
    let cfg = PageRankConfig {
        nodes_per_place: 30,
        out_degree: 4,
        iterations: 20,
        alpha: 0.85,
        seed: 2,
    };
    let expect =
        reference::pagerank(30 * 5, cfg.out_degree, cfg.seed, cfg.alpha, cfg.iterations as usize);
    for (mode, spares) in [
        (RestoreMode::Shrink, 0usize),
        (RestoreMode::ShrinkRebalance, 0),
        (RestoreMode::ReplaceRedundant, 2),
        (RestoreMode::ReplaceElastic, 0),
    ] {
        let expect = expect.clone();
        Runtime::run(RuntimeConfig::new(5).spares(spares).resilient(true), move |ctx| {
            let world = ctx.world();
            let app = ResilientPageRank::make(ctx, cfg, &world).unwrap();
            let mut injected = FailureInjector::new(app, 13, Place::new(3));
            let mut store = AppResilientStore::make(ctx).unwrap();
            let exec = ResilientExecutor::new(ExecutorConfig::new(6, mode));
            let (_, stats) = exec.run(ctx, &mut injected, &world, &mut store).unwrap();
            assert_eq!(stats.restores, 1, "{mode:?}");
            let ranks = injected.app.app.ranks(ctx).unwrap();
            assert!(
                ranks.max_abs_diff(&expect) < 1e-12,
                "{mode:?}: diff {}",
                ranks.max_abs_diff(&expect)
            );
        })
        .unwrap();
    }
}

#[test]
fn linreg_failure_at_each_phase_recovers() {
    // Kill at an iteration right before, on, and right after a checkpoint
    // boundary; every case must converge to the failure-free weights.
    let cfg = LinRegConfig {
        examples_per_place: 30,
        features: 5,
        iterations: 18,
        lambda: 0.0,
        seed: 8,
    };
    for kill_at in [5u64, 6, 7, 12, 17] {
        Runtime::run(RuntimeConfig::new(4).resilient(true), move |ctx| {
            let world = ctx.world();
            let (w_expect, _) = LinReg::run_simple(ctx, cfg, &world).unwrap();
            let app = ResilientLinReg::make(ctx, cfg, &world).unwrap();
            let mut injected = FailureInjector::new(app, kill_at, Place::new(2));
            let mut store = AppResilientStore::make(ctx).unwrap();
            let exec = ResilientExecutor::new(ExecutorConfig::new(6, RestoreMode::Shrink));
            exec.run(ctx, &mut injected, &world, &mut store).unwrap();
            let w = injected.app.app.weights(ctx).unwrap();
            assert!(
                w.max_abs_diff(&w_expect) < 1e-9,
                "kill at {kill_at}: diff {}",
                w.max_abs_diff(&w_expect)
            );
        })
        .unwrap();
    }
}

#[test]
fn logreg_rebalance_recovers_exactly() {
    let cfg = LogRegConfig {
        examples_per_place: 40,
        features: 6,
        iterations: 25,
        lambda: 1e-3,
        learning_rate: 1.0,
        seed: 10,
    };
    Runtime::run(RuntimeConfig::new(5).resilient(true), move |ctx| {
        let world = ctx.world();
        let (w_expect, _) = LogReg::run_simple(ctx, cfg, &world).unwrap();
        let app = ResilientLogReg::make(ctx, cfg, &world).unwrap();
        let mut injected = FailureInjector::new(app, 14, Place::new(4));
        let mut store = AppResilientStore::make(ctx).unwrap();
        let exec = ResilientExecutor::new(ExecutorConfig::new(10, RestoreMode::ShrinkRebalance));
        let (final_group, _) = exec.run(ctx, &mut injected, &world, &mut store).unwrap();
        assert_eq!(final_group.len(), 4);
        let w = injected.app.app.weights(ctx).unwrap();
        assert!(w.max_abs_diff(&w_expect) < 1e-9);
    })
    .unwrap();
}

#[test]
fn two_sequential_failures_with_spares_then_shrink() {
    // First failure consumes the only spare; the second must shrink — as
    // laid out, or re-cut over the three places left: either way it reads
    // the snapshot the first recovery repaired, under a further regroup.
    for fallback_rebalance in [false, true] {
        two_failures_one_spare(fallback_rebalance);
    }
}

fn two_failures_one_spare(fallback_rebalance: bool) {
    let cfg = PageRankConfig {
        nodes_per_place: 20,
        out_degree: 3,
        iterations: 24,
        alpha: 0.85,
        seed: 5,
    };
    Runtime::run(RuntimeConfig::new(4).spares(1).resilient(true), move |ctx| {
        let world = ctx.world();
        let expect = reference::pagerank(80, 3, 5, 0.85, 24);

        struct TwoKills {
            inner: ResilientPageRank,
            kills: Vec<(u64, Place)>,
        }
        impl ResilientIterativeApp for TwoKills {
            fn is_finished(&self, ctx: &Ctx, it: u64) -> bool {
                self.inner.is_finished(ctx, it)
            }
            fn step(&mut self, ctx: &Ctx, it: u64) -> GmlResult<()> {
                if let Some(pos) =
                    self.kills.iter().position(|(at, p)| *at == it && ctx.is_alive(*p))
                {
                    let (_, victim) = self.kills.remove(pos);
                    ctx.kill_place(victim)?;
                }
                self.inner.step(ctx, it)
            }
            fn checkpoint(&mut self, ctx: &Ctx, s: &mut AppResilientStore) -> GmlResult<()> {
                self.inner.checkpoint(ctx, s)
            }
            fn restore(
                &mut self,
                ctx: &Ctx,
                g: &PlaceGroup,
                s: &mut AppResilientStore,
                si: u64,
                rb: bool,
            ) -> GmlResult<()> {
                self.inner.restore(ctx, g, s, si, rb)
            }
        }

        let mut app = TwoKills {
            inner: ResilientPageRank::make(ctx, cfg, &world).unwrap(),
            kills: vec![(8, Place::new(1)), (16, Place::new(2))],
        };
        let mut store = AppResilientStore::make(ctx).unwrap();
        let mut exec_cfg = ExecutorConfig::new(6, RestoreMode::ReplaceRedundant);
        exec_cfg.fallback_rebalance = fallback_rebalance;
        let exec = ResilientExecutor::new(exec_cfg);
        let (final_group, stats, report) =
            exec.run_reported(ctx, &mut app, &world, &mut store).unwrap();
        assert_eq!(stats.restores, 2);
        // First restore replaced (kept 4), second shrank (3 left).
        assert_eq!(final_group.len(), 3);
        // The R % of the run and the report's restore rows are one interval
        // each, measured once: settle, decide, restore, repair, post-mortem.
        let costs: Vec<RestoreCost> = report.rows.iter().filter_map(|r| r.restore).collect();
        assert_eq!(costs.len(), 2);
        assert_eq!((costs[0].rebalance, costs[1].rebalance), (false, fallback_rebalance));
        assert_eq!(costs.iter().map(|c| c.time).sum::<std::time::Duration>(), stats.restore_time);
        // The second restore read a snapshot the first one's repair had
        // completed: each re-replicated what its dead place had held.
        assert!(costs.iter().all(|c| c.repaired_entries > 0 && c.repaired_bytes > 0));
        let ranks = app.inner.app.ranks(ctx).unwrap();
        assert!(ranks.max_abs_diff(&expect) < 1e-12);
    })
    .unwrap();
}

#[test]
fn runtime_stats_show_resilience_costs() {
    // The observable counters behind the paper's Figs 2–4 and Table III:
    // resilient mode funnels bookkeeping through place zero, and
    // checkpointing ships bytes.
    let cfg = PageRankConfig {
        nodes_per_place: 20,
        out_degree: 3,
        iterations: 5,
        alpha: 0.85,
        seed: 1,
    };
    let resilient = Runtime::run(RuntimeConfig::new(3).resilient(true), move |ctx| {
        PageRank::run_simple(ctx, cfg, &ctx.world()).unwrap();
        ctx.stats()
    })
    .unwrap();
    let plain = Runtime::run(RuntimeConfig::new(3), move |ctx| {
        PageRank::run_simple(ctx, cfg, &ctx.world()).unwrap();
        ctx.stats()
    })
    .unwrap();
    assert_eq!(plain.ctl_total() + plain.ctl_local, 0);
    assert!(
        resilient.ctl_total() + resilient.ctl_local > 100,
        "resilient finish generates bookkeeping work"
    );
    assert!(resilient.ctl_total() > 0, "remote tasks still report through place zero's mailbox");

    let shipped = Runtime::run(RuntimeConfig::new(3).resilient(true), move |ctx| {
        let world = ctx.world();
        let mut app = ResilientPageRank::make(ctx, cfg, &world).unwrap();
        let mut store = AppResilientStore::make(ctx).unwrap();
        let before = ctx.stats().bytes_shipped;
        app.checkpoint(ctx, &mut store).unwrap();
        ctx.stats().bytes_shipped - before
    })
    .unwrap();
    // Six framed entries and the metadata home: 978 B.
    assert!(shipped > 900, "checkpoint ships data to backup places, got {shipped}");
}
