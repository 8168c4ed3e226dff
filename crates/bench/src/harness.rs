//! Measurement harness: spins up a fresh runtime per data point and times
//! iterations, checkpoints and failure-recovery runs.

use std::time::Duration;

use apgas::prelude::*;
use apgas::runtime::Runtime;
use gml_apps::{
    LinReg, LogReg, PageRank, ResilientLinReg, ResilientLogReg, ResilientPageRank,
};
use gml_core::{
    AppResilientStore, ExecutorConfig, FailureInjector, GmlResult, ResilientExecutor,
    ResilientIterativeApp, RestoreMode, RunStats,
};

use crate::workloads::{linreg_cfg, logreg_cfg, pagerank_cfg_for, AppKind};

/// Median/min/max time per iteration at one place count. The paper reports
/// mean/min/max over 30 runs on a quiet cluster; on a single oversubscribed
/// machine the mean is hostage to scheduler outliers, so the central
/// tendency reported here is the median (EXPERIMENTS.md discusses this).
#[derive(Clone, Copy, Debug)]
pub struct IterTime {
    /// Place count of this data point.
    pub places: usize,
    /// Median per-iteration time (ms).
    pub median_ms: f64,
    /// Minimum per-iteration time (ms).
    pub min_ms: f64,
    /// Maximum per-iteration time (ms).
    pub max_ms: f64,
}

fn summarize(places: usize, times: &[Duration]) -> IterTime {
    let mut ms: Vec<f64> = times.iter().map(|t| t.as_secs_f64() * 1000.0).collect();
    ms.sort_by(f64::total_cmp);
    let median = if ms.is_empty() {
        0.0
    } else if ms.len() % 2 == 1 {
        ms[ms.len() / 2]
    } else {
        (ms[ms.len() / 2 - 1] + ms[ms.len() / 2]) / 2.0
    };
    let min = ms.first().copied().unwrap_or(0.0);
    let max = ms.last().copied().unwrap_or(0.0);
    IterTime { places, median_ms: median, min_ms: min, max_ms: max }
}

/// Figs 2–4: mean/min/max time per iteration of the *non-checkpointing*
/// program under a resilient or non-resilient runtime.
pub fn time_per_iteration(
    kind: AppKind,
    places: usize,
    resilient: bool,
    iterations: u64,
    runs: usize,
) -> IterTime {
    let mut all = Vec::with_capacity(runs * iterations as usize);
    for _ in 0..runs {
        let cfg = RuntimeConfig::new(places).resilient(resilient);
        let times: Vec<Duration> = Runtime::run(cfg, move |ctx| -> GmlResult<Vec<Duration>> {
            let world = ctx.world();
            Ok(match kind {
                AppKind::LinReg => LinReg::run_simple(ctx, linreg_cfg(iterations), &world)?.1,
                AppKind::LogReg => LogReg::run_simple(ctx, logreg_cfg(iterations), &world)?.1,
                AppKind::PageRank => {
                    PageRank::run_simple(ctx, pagerank_cfg_for(iterations, places), &world)?.1
                }
            })
        })
        .expect("runtime")
        .expect("benchmark run");
        all.extend(times);
    }
    summarize(places, &all)
}

fn run_resilient<A, F>(
    places: usize,
    spares: usize,
    make: F,
    exec_cfg: ExecutorConfig,
    kill_at: Option<u64>,
) -> (RunStats, usize)
where
    A: ResilientIterativeApp + 'static,
    F: FnOnce(&Ctx, &PlaceGroup) -> GmlResult<A> + Send + 'static,
{
    let cfg = RuntimeConfig::new(places).spares(spares).resilient(true);
    Runtime::run(cfg, move |ctx| -> GmlResult<(RunStats, usize)> {
        let world = ctx.world();
        let app = make(ctx, &world)?;
        let mut store = AppResilientStore::make(ctx)?;
        let exec = ResilientExecutor::new(exec_cfg);
        let (group, stats) = match kill_at {
            Some(at) => {
                // Kill the middle place of the group, as in Figs 5–7.
                let victim = world.place(world.len() / 2);
                let mut injected = FailureInjector::new(app, at, victim);
                exec.run(ctx, &mut injected, &world, &mut store)?
            }
            None => {
                let mut app = app;
                exec.run(ctx, &mut app, &world, &mut store)?
            }
        };
        Ok((stats, group.len()))
    })
    .expect("runtime")
    .expect("resilient run")
}

fn dispatch_resilient(
    kind: AppKind,
    places: usize,
    spares: usize,
    iterations: u64,
    exec_cfg: ExecutorConfig,
    kill_at: Option<u64>,
) -> (RunStats, usize) {
    match kind {
        AppKind::LinReg => run_resilient(
            places,
            spares,
            move |ctx, g| ResilientLinReg::make(ctx, linreg_cfg(iterations), g),
            exec_cfg,
            kill_at,
        ),
        AppKind::LogReg => run_resilient(
            places,
            spares,
            move |ctx, g| ResilientLogReg::make(ctx, logreg_cfg(iterations), g),
            exec_cfg,
            kill_at,
        ),
        AppKind::PageRank => run_resilient(
            places,
            spares,
            move |ctx, g| ResilientPageRank::make(ctx, pagerank_cfg_for(iterations, places), g),
            exec_cfg,
            kill_at,
        ),
    }
}

/// Table III: mean time per checkpoint (ms), running the resilient app with
/// a checkpoint every `interval` iterations and no failures.
pub fn checkpoint_time(
    kind: AppKind,
    places: usize,
    iterations: u64,
    interval: u64,
    runs: usize,
) -> f64 {
    let mut total_ms = 0.0;
    let mut count = 0u64;
    for _ in 0..runs {
        let exec_cfg = ExecutorConfig::new(interval, RestoreMode::Shrink);
        let (stats, _) = dispatch_resilient(kind, places, 0, iterations, exec_cfg, None);
        total_ms += stats.checkpoint_time.as_secs_f64() * 1000.0;
        count += stats.checkpoints;
    }
    total_ms / count.max(1) as f64
}

/// One total-runtime data point for Figs 5–7 / Table IV.
#[derive(Clone, Copy, Debug)]
pub struct RestoreRun {
    /// Place count of this data point.
    pub places: usize,
    /// Total wall-clock runtime (s).
    pub total_s: f64,
    /// Share of total time spent checkpointing (%).
    pub checkpoint_pct: f64,
    /// Share of total time spent restoring (%).
    pub restore_pct: f64,
    /// Number of restores performed.
    pub restores: u64,
    /// Size of the final place group.
    pub final_places: usize,
}

/// Figs 5–7: total runtime for `iterations` iterations with a checkpoint
/// every `interval` and (for `Some(mode)`) one failure at `kill_at`;
/// `None` runs the non-resilient no-failure baseline.
pub fn restore_total_time(
    kind: AppKind,
    places: usize,
    mode: Option<RestoreMode>,
    iterations: u64,
    interval: u64,
    kill_at: u64,
) -> RestoreRun {
    match mode {
        None => {
            // Non-resilient baseline: plain iteration under a non-resilient
            // runtime, no checkpoints, no failure.
            let t = std::time::Instant::now();
            let cfg = RuntimeConfig::new(places);
            Runtime::run(cfg, move |ctx| -> GmlResult<()> {
                let world = ctx.world();
                match kind {
                    AppKind::LinReg => {
                        LinReg::run_simple(ctx, linreg_cfg(iterations), &world)?;
                    }
                    AppKind::LogReg => {
                        LogReg::run_simple(ctx, logreg_cfg(iterations), &world)?;
                    }
                    AppKind::PageRank => {
                        PageRank::run_simple(ctx, pagerank_cfg_for(iterations, places), &world)?;
                    }
                }
                Ok(())
            })
            .expect("runtime")
            .expect("baseline run");
            RestoreRun {
                places,
                total_s: t.elapsed().as_secs_f64(),
                checkpoint_pct: 0.0,
                restore_pct: 0.0,
                restores: 0,
                final_places: places,
            }
        }
        Some(mode) => {
            let spares = if mode == RestoreMode::ReplaceRedundant { 1 } else { 0 };
            let exec_cfg = ExecutorConfig::new(interval, mode);
            let t = std::time::Instant::now();
            let (stats, final_places) =
                dispatch_resilient(kind, places, spares, iterations, exec_cfg, Some(kill_at));
            let total_s = t.elapsed().as_secs_f64();
            let total = stats.total_time.as_secs_f64().max(1e-12);
            RestoreRun {
                places,
                total_s,
                checkpoint_pct: 100.0 * stats.checkpoint_time.as_secs_f64() / total,
                restore_pct: 100.0 * stats.restore_time.as_secs_f64() / total,
                restores: stats.restores,
                final_places,
            }
        }
    }
}

/// Per-iteration activity profile under a resilient runtime (ablation: the
/// mechanistic explanation of why the regressions pay more resilient-finish
/// overhead than PageRank).
#[derive(Clone, Copy, Debug)]
pub struct IterationProfile {
    /// Place count of this data point.
    pub places: usize,
    /// Place-zero bookkeeping messages per iteration.
    pub ctl_per_iter: f64,
    /// Tasks spawned per iteration.
    pub tasks_per_iter: f64,
    /// Payload bytes shipped per iteration.
    pub bytes_per_iter: f64,
    /// Mean time per iteration (ms).
    pub ms_per_iter: f64,
}

/// Measure the runtime-activity counters per iteration for one app.
pub fn iteration_profile(kind: AppKind, places: usize, iterations: u64) -> IterationProfile {
    let cfg = RuntimeConfig::new(places).resilient(true);
    let (d, secs) = Runtime::run(cfg, move |ctx| -> GmlResult<_> {
        let world = ctx.world();
        // Build first so construction traffic is excluded.
        let t;
        let before;
        match kind {
            AppKind::LinReg => {
                let mut app = LinReg::make(ctx, linreg_cfg(iterations), &world)?;
                before = ctx.stats();
                t = std::time::Instant::now();
                for _ in 0..iterations {
                    app.iterate_once(ctx)?;
                }
            }
            AppKind::LogReg => {
                let mut app = LogReg::make(ctx, logreg_cfg(iterations), &world)?;
                before = ctx.stats();
                t = std::time::Instant::now();
                for _ in 0..iterations {
                    app.iterate_once(ctx)?;
                }
            }
            AppKind::PageRank => {
                let mut app = PageRank::make(ctx, pagerank_cfg_for(iterations, places), &world)?;
                before = ctx.stats();
                t = std::time::Instant::now();
                for _ in 0..iterations {
                    app.iterate_once(ctx)?;
                }
            }
        }
        Ok((ctx.stats().since(&before), t.elapsed().as_secs_f64()))
    })
    .expect("runtime")
    .expect("profile run");
    let n = iterations.max(1) as f64;
    IterationProfile {
        places,
        ctl_per_iter: d.ctl_total() as f64 / n,
        tasks_per_iter: d.tasks_spawned as f64 / n,
        bytes_per_iter: d.bytes_shipped as f64 / n,
        ms_per_iter: secs * 1000.0 / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_profile_smoke() {
        let p = iteration_profile(AppKind::PageRank, 2, 3);
        assert!(p.ctl_per_iter > 0.0, "resilient runs produce bookkeeping");
        assert!(p.tasks_per_iter > 0.0);
        assert!(p.bytes_per_iter > 0.0);
    }

    #[test]
    fn iteration_timing_smoke() {
        let t = time_per_iteration(AppKind::PageRank, 2, false, 3, 1);
        assert_eq!(t.places, 2);
        assert!(t.median_ms >= t.min_ms && t.median_ms <= t.max_ms);
        assert!(t.min_ms > 0.0);
    }

    #[test]
    fn checkpoint_timing_smoke() {
        let ms = checkpoint_time(AppKind::PageRank, 2, 4, 2, 1);
        assert!(ms > 0.0);
    }

    #[test]
    fn restore_run_smoke_all_modes() {
        for mode in [
            None,
            Some(RestoreMode::Shrink),
            Some(RestoreMode::ShrinkRebalance),
            Some(RestoreMode::ReplaceRedundant),
        ] {
            let r = restore_total_time(AppKind::PageRank, 3, mode, 8, 4, 5);
            assert!(r.total_s > 0.0, "{mode:?}");
            match mode {
                None => assert_eq!(r.restores, 0),
                Some(RestoreMode::ReplaceRedundant) => {
                    assert_eq!(r.restores, 1);
                    assert_eq!(r.final_places, 3);
                }
                Some(_) => {
                    assert_eq!(r.restores, 1);
                    assert_eq!(r.final_places, 2);
                }
            }
        }
    }
}
