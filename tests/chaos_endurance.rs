//! Endurance under randomized failures: the full stack (runtime + store +
//! executor + a real application) driven through many random failures with
//! every restoration strategy, including Young's-formula adaptive
//! checkpointing. Results must equal the failure-free run every time.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use apgas::runtime::{Runtime, RuntimeConfig};
use resilient_gml::core::ChaosInjector;
use resilient_gml::prelude::*;

fn pr_cfg() -> PageRankConfig {
    PageRankConfig { nodes_per_place: 20, out_degree: 3, iterations: 40, alpha: 0.85, seed: 13 }
}

#[test]
fn chaos_with_shrink_mode() {
    chaos_run(RestoreMode::Shrink, 0, 101);
}

#[test]
fn chaos_with_elastic_mode() {
    chaos_run(RestoreMode::ReplaceElastic, 0, 202);
}

#[test]
fn chaos_with_redundant_then_fallback() {
    // Two spares, up to three failures: the third must fall back to shrink.
    chaos_run(RestoreMode::ReplaceRedundant, 2, 303);
}

fn chaos_run(mode: RestoreMode, spares: usize, seed: u64) {
    Runtime::run(RuntimeConfig::new(6).spares(spares).resilient(true), move |ctx| {
        let world = ctx.world();
        let cfg = pr_cfg();
        let (expect, _) = PageRank::run_simple(ctx, cfg, &world).unwrap();

        let app = ResilientPageRank::make(ctx, cfg, &world).unwrap();
        // Aggressive chaos: ~20% failure chance each iteration, max 3.
        let mut chaos = ChaosInjector::new(app, 0.2, 3, seed);
        let mut store = AppResilientStore::make(ctx).unwrap();
        let mut exec_cfg = ExecutorConfig::new(8, mode);
        exec_cfg.max_restores = 16;
        let exec = ResilientExecutor::new(exec_cfg);
        let (final_group, stats) = exec.run(ctx, &mut chaos, &world, &mut store).unwrap();

        let ranks = chaos.app.app.ranks(ctx).unwrap();
        assert!(
            ranks.max_abs_diff(&expect) < 1e-12,
            "{mode:?} seed {seed}: chaos changed the answer (diff {:.2e}, kills {})",
            ranks.max_abs_diff(&expect),
            chaos.kills()
        );
        assert!(chaos.kills() >= 1, "seed should produce failures");
        // A kill may land on an idle spare (no restore needed), so restores
        // can be below the kill count but never above it.
        assert!(stats.restores <= chaos.kills() as u64);
        match mode {
            RestoreMode::ReplaceElastic => assert_eq!(final_group.len(), 6),
            RestoreMode::ReplaceRedundant => {
                // With spares available, group-member kills are replaced
                // until the spares (possibly themselves killed) run out.
                assert!(final_group.len() >= 6 - (chaos.kills() as usize).saturating_sub(spares));
            }
            _ => assert_eq!(final_group.len(), 6 - stats.restores as usize),
        }
    })
    .unwrap();
}

#[test]
fn chaos_with_adaptive_checkpointing() {
    Runtime::run(RuntimeConfig::new(5).resilient(true), |ctx| {
        let world = ctx.world();
        let cfg = pr_cfg();
        let (expect, _) = PageRank::run_simple(ctx, cfg, &world).unwrap();

        let app = ResilientPageRank::make(ctx, cfg, &world).unwrap();
        let mut chaos = ChaosInjector::new(app, 0.1, 2, 777);
        let mut store = AppResilientStore::make(ctx).unwrap();
        let exec_cfg = ExecutorConfig::new(10, RestoreMode::Shrink)
            .with_mttf(Duration::from_millis(200));
        let exec = ResilientExecutor::new(exec_cfg);
        let (_, stats) = exec.run(ctx, &mut chaos, &world, &mut store).unwrap();

        let ranks = chaos.app.app.ranks(ctx).unwrap();
        assert!(ranks.max_abs_diff(&expect) < 1e-12);
        assert!(stats.checkpoints >= 2, "adaptive interval still checkpoints: {stats:?}");
    })
    .unwrap();
}

/// PageRank with scheduled kills: `(iteration, place)` pairs fire entering
/// that iteration's step; `under_repair`, once, kills its place while the
/// recovery's repair is parked behind the ship gate — after the application
/// restored, before the repair's transfers run.
struct Kills {
    inner: ResilientPageRank,
    kills: Vec<(u64, Place)>,
    under_repair: Option<(Place, Arc<AtomicBool>)>,
    killer: Option<std::thread::JoinHandle<()>>,
}

impl ResilientIterativeApp for Kills {
    fn is_finished(&self, ctx: &Ctx, it: u64) -> bool {
        self.inner.is_finished(ctx, it)
    }
    fn step(&mut self, ctx: &Ctx, it: u64) -> GmlResult<()> {
        if let Some(pos) = self.kills.iter().position(|(at, p)| *at == it && ctx.is_alive(*p)) {
            let (_, v) = self.kills.remove(pos);
            ctx.kill_place(v)?;
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
        self.inner.restore(ctx, g, s, si, rb)?;
        if let Some((victim, gate)) = self.under_repair.take() {
            gate.store(true, Ordering::Release);
            let ctx = ctx.clone();
            // Kill strictly before release: the parked repair can only run
            // against the dead place.
            self.killer = Some(std::thread::spawn(move || {
                let _ = ctx.kill_place(victim);
                gate.store(false, Ordering::Release);
            }));
        }
        Ok(())
    }
}

/// Run PageRank on five places, checkpoint every 8, under `kills`; returns
/// the executor's verdict and how far the ranks are from a failure-free run.
fn run_with_kills(
    mode: RestoreMode,
    kills: Vec<(u64, Place)>,
    under_repair: Option<Place>,
) -> GmlResult<(PlaceGroup, RunStats, CostReport, f64)> {
    Runtime::run(RuntimeConfig::new(5).resilient(true), move |ctx| {
        let world = ctx.world();
        let cfg = pr_cfg();
        let (expect, _) = PageRank::run_simple(ctx, cfg, &world).unwrap();
        let gate = Arc::new(AtomicBool::new(false));
        let mut app = Kills {
            inner: ResilientPageRank::make(ctx, cfg, &world).unwrap(),
            kills,
            under_repair: under_repair.map(|p| (p, Arc::clone(&gate))),
            killer: None,
        };
        let mut store = AppResilientStore::make(ctx).unwrap();
        store.set_ship_gate(gate);
        let exec = ResilientExecutor::new(ExecutorConfig::new(8, mode));
        let outcome = exec.run_reported(ctx, &mut app, &world, &mut store);
        if let Some(killer) = app.killer.take() {
            killer.join().unwrap();
        }
        let (group, stats, report) = outcome?;
        let diff = app.inner.app.ranks(ctx).unwrap().max_abs_diff(&expect);
        Ok((group, stats, report, diff))
    })
    .unwrap()
}

#[test]
fn back_to_back_failures_between_checkpoints() {
    // Two failures in the *same* inter-checkpoint window, after the
    // checkpoint at 16: the second restore rolls back to the same snapshot.
    // No checkpoint is taken between the two: after place 2 died, what it
    // owned survives on its ring neighbour 3 alone, and what it backed up on
    // 1 alone, until the recovery's repair copies both on. Killing 3 next
    // (the sole holder, were it not for the repair) or 4 (the place the
    // repair copied to) must cost a second restore, no data.
    for mode in [RestoreMode::Shrink, RestoreMode::ShrinkRebalance] {
        for second in [3, 4] {
            let kills = vec![(18, Place::new(2)), (19, Place::new(second))];
            let (final_group, stats, report, diff) = run_with_kills(mode, kills, None).unwrap();
            assert_eq!(final_group.len(), 3, "{mode:?}, then place {second}");
            assert_eq!(stats.restores, 2, "{mode:?}, then place {second}");
            assert_eq!(stats.checkpoints, 5, "{mode:?}: 0, 8, 16, 24, 32 and none extra");
            assert!(diff < 1e-12, "{mode:?}, then place {second}: diff {diff:.2e}");
            for bundle in &report.bundles {
                assert!(bundle.cost.repaired_entries > 0 && bundle.cost.repaired_bytes > 0);
                assert!(bundle.snapshots.iter().all(|a| a.lost == 0 && a.invariant_ok()));
            }
        }
    }
}

#[test]
fn a_place_dying_under_the_repair_costs_another_attempt_or_is_data_loss() {
    // Place 4 is where the repair copies what place 2 owned: losing it
    // mid-repair sends the recovery round again, on the three places left.
    let kills = vec![(18, Place::new(2))];
    let (final_group, stats, report, diff) =
        run_with_kills(RestoreMode::Shrink, kills.clone(), Some(Place::new(4))).unwrap();
    assert_eq!(final_group.len(), 3);
    assert_eq!(stats.restores, 1);
    let cost = report.rows.iter().find_map(|r| r.restore).expect("one recovery");
    assert_eq!(cost.attempts, 2, "the first attempt's repair hit the dead place");
    assert!(diff < 1e-12, "diff {diff:.2e}");
    // One bundle, for the attempt that succeeded: it records the recovery as
    // the row does, and reacted to both victims.
    assert_eq!(report.bundles.len(), 1);
    let b = &report.bundles[0];
    assert_eq!(
        (b.cost.attempts, b.cost.rolled_back_to, b.cost.label),
        (2, cost.rolled_back_to, cost.label)
    );
    assert_eq!(b.dead_places, vec![2, 4]);
    // Place 3 is the one holder of what place 2 owned: losing it before the
    // repair has copied that on is a double failure, and says so.
    let err = run_with_kills(RestoreMode::Shrink, kills, Some(Place::new(3))).unwrap_err();
    assert!(matches!(err, GmlError::DataLoss(_)), "{err}");
}
