//! The four workloads and the two arms every repetition runs.
//!
//! Shapes are fixed by the benchmark's definition (README.md); only the
//! sizes below may be scaled, and a change to them is a benchmark change
//! that needs a new baseline.

use std::sync::Arc;
use std::time::Instant;

use apgas::prelude::*;
use gml_apps::{
    Gnmf, GnmfConfig, LinReg, LinRegConfig, LogReg, LogRegConfig, PageRank, PageRankConfig,
    ResilientGnmf, ResilientLinReg, ResilientLogReg, ResilientPageRank,
};
use gml_core::{
    AppResilientStore, CodecSnapshot, ExecutorConfig, FailureInjector, GmlResult, IterRow,
    ResilientExecutor, ResilientIterativeApp, RestoreMode, RunStats,
};

use crate::replay::{GnmfReplay, LinRegReplay, LogRegReplay, PageRankReplay, StepReplay};
use crate::spans::Recorder;

/// Every workload runs on four places: fewer makes the middle-place kill,
/// the next-place backup ring and rebalancing degenerate (see README.md).
pub const PLACES: usize = 4;

/// One restore mode a failure workload runs per repetition.
#[derive(Clone, Copy, Debug)]
pub struct Mode {
    pub mode: RestoreMode,
    pub spares: usize,
    /// Group size the run must end on.
    pub final_group: usize,
}

const NO_FAILURE: [Mode; 1] = [Mode {
    mode: RestoreMode::Shrink,
    spares: 0,
    final_group: PLACES,
}];
const ALL_RESTORES: [Mode; 3] = [
    Mode {
        mode: RestoreMode::Shrink,
        spares: 0,
        final_group: PLACES - 1,
    },
    Mode {
        mode: RestoreMode::ShrinkRebalance,
        spares: 0,
        final_group: PLACES - 1,
    },
    Mode {
        mode: RestoreMode::ReplaceRedundant,
        spares: 1,
        final_group: PLACES,
    },
];

/// A workload: what runs, on which CPUs, and how its result is checked.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// One sentence on why the workload exists (goes to BENCHMARK.json).
    pub why: &'static str,
    /// The input's shape, for the stamp (the `*_cfg` functions hold it).
    pub sizes: &'static str,
    /// Pin the whole process to one CPU (else: every allowed CPU).
    pub one_cpu: bool,
    pub iterations: u64,
    pub ckpt_interval: u64,
    /// Kill the middle place at the start of this iteration.
    pub kill_at: Option<u64>,
    /// The resilient runs of one repetition.
    pub modes: &'static [Mode],
    /// Largest allowed |resilient − baseline| over the result vector:
    /// 0 means bit-for-bit (compared by FNV digest).
    pub tolerance: f64,
}

impl Spec {
    /// Smoke-test variant: a tenth of the iterations, same shapes. At least
    /// every other step stays free of a checkpoint's background ship, so
    /// that the per-step counts still have a clean step to read.
    pub fn quick(mut self) -> Spec {
        self.iterations = (self.iterations / 10).max(4);
        self.ckpt_interval = (self.ckpt_interval / 10).max(2);
        self.kill_at = self.kill_at.map(|k| (k / 10).max(1));
        self
    }
}

pub const LOGREG_CTL: Spec = Spec {
    name: "logreg_ctl",
    why: "Tiny compute per step and ~60 place-zero bookkeeping messages, pinned to one CPU: \
          finish/mailbox cost is nearly the whole step, kernels and the store do almost nothing.",
    sizes: "LogReg 1000 examples/place x 50 features",
    one_cpu: true,
    iterations: 1500,
    ckpt_interval: 100,
    kill_at: None,
    modes: &NO_FAILURE,
    tolerance: 0.0,
};

pub const PAGERANK_SPMV: Spec = Spec {
    name: "pagerank_spmv",
    why: "Step is one SpMV over a 19.7 MB read-only CSR block per place plus the rank broadcast: \
          gml-matrix does the work, checkpoints are small after the first.",
    sizes: "PageRank 131072 nodes, out-degree 50 (6.55M edges)",
    one_cpu: false,
    iterations: 80,
    ckpt_interval: 20,
    kill_at: None,
    modes: &NO_FAILURE,
    tolerance: 0.0,
};

pub const GNMF_CKPT: Spec = Spec {
    name: "gnmf_ckpt",
    why: "5 MB/place of state rewritten every step and checkpointed every other step: the store \
          write path (capture, codec, serial, ship) is a large share of the run beside dense kernels.",
    sizes: "GNMF 20000 rows/place x 400 cols, rank 32, 10 nnz/row",
    one_cpu: false,
    iterations: 12,
    ckpt_interval: 2,
    kill_at: None,
    modes: &NO_FAILURE,
    tolerance: 0.0,
};

pub const LINREG_RESTORE: Spec = Spec {
    name: "linreg_restore",
    why: "Middle place killed mid-run under shrink, shrink-rebalance and replace-redundant: the \
          store's read path (fetch, decode, remake, resume) is timed beside its writes.",
    sizes: "LinReg 8000 examples/place x 141 features",
    one_cpu: false,
    // CG on 141 features has converged to rounding level well before 141
    // iterations and then divides 0 by 0; 60 keeps every value finite.
    iterations: 60,
    ckpt_interval: 10,
    kill_at: Some(35),
    modes: &ALL_RESTORES,
    tolerance: 1e-8,
};

pub const ALL: [Spec; 4] = [LOGREG_CTL, PAGERANK_SPMV, GNMF_CKPT, LINREG_RESTORE];

/// An application in its two forms. `seed` is the benchmark's `--seed`,
/// mixed into the app's own seed so that every input is generated from it.
pub trait Kind: 'static {
    type Plain;
    type Resilient: ResilientIterativeApp;
    /// The app's step restated as timed public operations.
    type Replay: StepReplay;
    fn make_plain(ctx: &Ctx, seed: u64, iters: u64, g: &PlaceGroup) -> GmlResult<Self::Plain>;
    fn make_resilient(
        ctx: &Ctx,
        seed: u64,
        iters: u64,
        g: &PlaceGroup,
    ) -> GmlResult<Self::Resilient>;
    fn iterate(app: &mut Self::Plain, ctx: &Ctx) -> GmlResult<()>;
    fn plain_of(app: &Self::Resilient) -> &Self::Plain;
    /// The values the run exists to compute.
    fn result(app: &Self::Plain, ctx: &Ctx) -> GmlResult<Vec<f64>>;
}

fn mix(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(salt)
}

pub fn logreg_cfg(seed: u64, iterations: u64) -> LogRegConfig {
    LogRegConfig {
        examples_per_place: 1000,
        features: 50,
        iterations,
        lambda: 1e-3,
        learning_rate: 1.0,
        seed: mix(seed, 33),
    }
}

pub fn pagerank_cfg(seed: u64, iterations: u64) -> PageRankConfig {
    PageRankConfig {
        nodes_per_place: 131_072 / PLACES,
        out_degree: 50,
        iterations,
        alpha: 0.85,
        seed: mix(seed, 7),
    }
}

pub fn gnmf_cfg(seed: u64, iterations: u64) -> GnmfConfig {
    GnmfConfig {
        rows_per_place: 20_000,
        cols: 400,
        rank: 32,
        nnz_per_row: 10,
        iterations,
        eps: 1e-9,
        seed: mix(seed, 41),
    }
}

pub fn linreg_cfg(seed: u64, iterations: u64) -> LinRegConfig {
    LinRegConfig {
        examples_per_place: 8000,
        features: 141,
        iterations,
        lambda: 1e-6,
        seed: mix(seed, 21),
    }
}

/// The four apps share one calling convention (`make`, `iterate_once`, a
/// resilient twin with a public `app`); they differ in their config and in
/// what their result is.
macro_rules! kind {
    ($kind:ident, $plain:ident, $resilient:ident, $replay:ident, $cfg:ident, $result:expr) => {
        pub struct $kind;

        impl Kind for $kind {
            type Plain = $plain;
            type Resilient = $resilient;
            type Replay = $replay;
            fn make_plain(ctx: &Ctx, seed: u64, iters: u64, g: &PlaceGroup) -> GmlResult<$plain> {
                $plain::make(ctx, $cfg(seed, iters), g)
            }
            fn make_resilient(
                ctx: &Ctx,
                seed: u64,
                iters: u64,
                g: &PlaceGroup,
            ) -> GmlResult<$resilient> {
                $resilient::make(ctx, $cfg(seed, iters), g)
            }
            fn iterate(app: &mut $plain, ctx: &Ctx) -> GmlResult<()> {
                app.iterate_once(ctx)
            }
            fn plain_of(app: &$resilient) -> &$plain {
                &app.app
            }
            fn result(app: &$plain, ctx: &Ctx) -> GmlResult<Vec<f64>> {
                let result: fn(&$plain, &Ctx) -> GmlResult<Vec<f64>> = $result;
                result(app, ctx)
            }
        }
    };
}

kind!(
    LogRegKind,
    LogReg,
    ResilientLogReg,
    LogRegReplay,
    logreg_cfg,
    |app, ctx| { Ok(app.weights(ctx)?.into_vec()) }
);
kind!(
    PageRankKind,
    PageRank,
    ResilientPageRank,
    PageRankReplay,
    pagerank_cfg,
    |app, ctx| { Ok(app.ranks(ctx)?.into_vec()) }
);
kind!(
    LinRegKind,
    LinReg,
    ResilientLinReg,
    LinRegReplay,
    linreg_cfg,
    |app, ctx| { Ok(app.weights(ctx)?.into_vec()) }
);
// Both factors, every element: equal factors give an equal objective, and
// `Gnmf::objective` would allocate two dense copies of V per place (64 MB
// each at this size) inside the process whose peak RSS is a metric.
kind!(
    GnmfKind,
    Gnmf,
    ResilientGnmf,
    GnmfReplay,
    gnmf_cfg,
    |app, ctx| {
        let (w, h) = app.factors(ctx)?;
        let mut out = w.as_slice().to_vec();
        out.extend_from_slice(h.as_slice());
        Ok(out)
    }
);

/// The baseline arm's outcome: the paper's "non-resilient" program.
pub struct BaseRun {
    /// Wall time of the iteration loop alone.
    pub wall_s: f64,
    pub result: Vec<f64>,
}

/// Non-resilient runtime, plain app, `iterate_once` loop, no store.
pub fn baseline_arm<K: Kind>(spec: &Spec, seed: u64) -> Result<BaseRun, String> {
    let iters = spec.iterations;
    Runtime::run(
        RuntimeConfig::new(PLACES),
        move |ctx| -> GmlResult<BaseRun> {
            let mut app = K::make_plain(ctx, seed, iters, &ctx.world())?;
            let t = Instant::now();
            for _ in 0..iters {
                K::iterate(&mut app, ctx)?;
            }
            let wall_s = t.elapsed().as_secs_f64();
            Ok(BaseRun {
                wall_s,
                result: K::result(&app, ctx)?,
            })
        },
    )
    .map_err(|e| format!("baseline runtime: {e}"))?
    .map_err(|e| format!("baseline run: {e}"))
}

/// Everything one resilient run yields. Plain data, so it can leave the
/// place-zero activity.
pub struct ResRun {
    /// `Runtime::new` + app `make` + `AppResilientStore::make`.
    pub setup_s: f64,
    pub app_make_s: f64,
    pub store_make_s: f64,
    /// Wall of `ResilientExecutor::run_reported`.
    pub run_s: f64,
    pub stats: RunStats,
    pub rows: Vec<IterRow>,
    pub codec: CodecSnapshot,
    /// Wire bytes the store holds at the end of the run, all places.
    pub wire_resident: u64,
    pub final_group: usize,
    pub result: Vec<f64>,
}

/// Where a traced run records: the recorder and the run's id.
pub type Trace = Option<(Arc<Recorder>, u32)>;

/// Call `f`, as a span under `parent` when the run is traced. `f` gets the
/// span's id to parent its own spans.
fn spanned<R>(
    trace: &Trace,
    name: &'static str,
    layer: &'static str,
    parent: Option<usize>,
    f: impl FnOnce(Option<usize>) -> R,
) -> R {
    match trace {
        Some((rec, run)) => rec.time(name, layer, *run, parent, |id| f(Some(id))),
        None => f(None),
    }
}

/// Resilient runtime, `ResilientApp::make`, `AppResilientStore::make`,
/// `ResilientExecutor::run_reported` — production defaults only.
pub fn resilient_arm<K: Kind>(
    spec: &Spec,
    mode: Mode,
    seed: u64,
    trace: Trace,
) -> Result<ResRun, String> {
    let (iters, interval, kill_at) = (spec.iterations, spec.ckpt_interval, spec.kill_at);
    let cfg = RuntimeConfig::new(PLACES)
        .resilient(true)
        .spares(mode.spares);
    let out = spanned(&trace, "resilient_arm", "bench", None, |root| {
        let t0 = Instant::now();
        let rt = spanned(&trace, "Runtime::new", "apgas.runtime", root, |_| {
            Runtime::new(cfg)
        });
        let trace = trace.clone();
        let out = rt.exec(move |ctx| -> GmlResult<ResRun> {
            let world = ctx.world();
            let t = Instant::now();
            let app = spanned(&trace, "ResilientApp::make", "apps", root, |_| {
                K::make_resilient(ctx, seed, iters, &world)
            })?;
            let app_make_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let mut store = spanned(
                &trace,
                "AppResilientStore::make",
                "core.app_store",
                root,
                |_| AppResilientStore::make(ctx),
            )?;
            let store_make_s = t.elapsed().as_secs_f64();
            let setup_s = t0.elapsed().as_secs_f64();

            let exec = ResilientExecutor::new(ExecutorConfig::new(interval, mode.mode));
            let (app, driven) = match kill_at {
                Some(at) => {
                    let victim = world.place(world.len() / 2);
                    let mut inj = FailureInjector::new(app, at, victim);
                    let d = drive(ctx, &exec, &mut inj, &world, &mut store, &trace, root)?;
                    (inj.app, d)
                }
                None => {
                    let mut app = app;
                    let d = drive(ctx, &exec, &mut app, &world, &mut store, &trace, root)?;
                    (app, d)
                }
            };
            let inventory = store.store().inventory(ctx);
            Ok(ResRun {
                setup_s,
                app_make_s,
                store_make_s,
                run_s: driven.run_s,
                stats: driven.stats,
                rows: driven.rows,
                codec: driven.codec,
                wire_resident: inventory.iter().map(|i| i.wire_bytes).sum(),
                final_group: driven.final_group,
                result: K::result(K::plain_of(&app), ctx)?,
            })
        });
        rt.shutdown();
        out
    });
    out.map_err(|e| format!("resilient runtime: {e}"))?
        .map_err(|e| format!("resilient run ({}): {e}", mode.mode.label()))
}

struct Driven {
    run_s: f64,
    stats: RunStats,
    rows: Vec<IterRow>,
    codec: CodecSnapshot,
    final_group: usize,
}

fn drive<A: ResilientIterativeApp>(
    ctx: &Ctx,
    exec: &ResilientExecutor,
    app: &mut A,
    world: &PlaceGroup,
    store: &mut AppResilientStore,
    trace: &Trace,
    root: Option<usize>,
) -> GmlResult<Driven> {
    let t = Instant::now();
    let (group, stats, report) =
        spanned(trace, "run_reported", "core.framework", root, |id| {
            match (trace, id) {
                (Some((rec, run)), Some(parent)) => {
                    let mut traced = Traced {
                        inner: app,
                        rec: rec.clone(),
                        run: *run,
                        parent,
                    };
                    exec.run_reported(ctx, &mut traced, world, store)
                }
                _ => exec.run_reported(ctx, app, world, store),
            }
        })?;
    Ok(Driven {
        run_s: t.elapsed().as_secs_f64(),
        stats,
        rows: report.rows,
        codec: report.codec_totals,
        final_group: group.len(),
    })
}

/// Spans around each `step`, `checkpoint` and `restore` the executor calls,
/// with the runtime and codec counters read at the same boundaries. A
/// forwarding wrapper in the style of `FailureInjector`.
struct Traced<'a, A> {
    inner: &'a mut A,
    rec: Arc<Recorder>,
    run: u32,
    parent: usize,
}

impl<A> Traced<'_, A> {
    fn span(
        &mut self,
        ctx: &Ctx,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut A) -> GmlResult<()>,
    ) -> GmlResult<()> {
        let id = self.rec.open(name, layer, self.run, Some(self.parent));
        let (s0, c0) = (ctx.stats(), gml_core::codec::counters());
        let out = f(self.inner);
        let (s, c) = (
            ctx.stats().since(&s0),
            gml_core::codec::counters().since(&c0),
        );
        self.rec.close(
            id,
            vec![
                ("ok", u64::from(out.is_ok())),
                ("ctl_msgs", s.ctl_total()),
                ("tasks_spawned", s.tasks_spawned),
                ("bytes_shipped", s.bytes_shipped),
                ("serial_ns", s.encode_nanos + s.decode_nanos),
                ("codec_logical_bytes", c.logical_bytes),
                ("codec_wire_bytes", c.wire_bytes),
                ("codec_ns", c.encode_nanos + c.decode_nanos),
            ],
        );
        out
    }
}

impl<A: ResilientIterativeApp> ResilientIterativeApp for Traced<'_, A> {
    fn is_finished(&self, ctx: &Ctx, iteration: u64) -> bool {
        self.inner.is_finished(ctx, iteration)
    }

    fn step(&mut self, ctx: &Ctx, iteration: u64) -> GmlResult<()> {
        self.span(ctx, "step", "apps", |a| a.step(ctx, iteration))
    }

    fn checkpoint(&mut self, ctx: &Ctx, store: &mut AppResilientStore) -> GmlResult<()> {
        self.span(ctx, "checkpoint", "core.app_store", |a| {
            a.checkpoint(ctx, store)
        })
    }

    fn restore(
        &mut self,
        ctx: &Ctx,
        new_places: &PlaceGroup,
        store: &mut AppResilientStore,
        snapshot_iteration: u64,
        rebalance: bool,
    ) -> GmlResult<()> {
        self.span(ctx, "restore", "core.app_store", |a| {
            a.restore(ctx, new_places, store, snapshot_iteration, rebalance)
        })
    }

    fn as_checksummed(&self) -> Option<&dyn gml_core::ChecksummedStep> {
        self.inner.as_checksummed()
    }
}

/// Why a resilient run's result is wrong, or `None` when it checks out.
pub fn check(spec: &Spec, mode: Mode, base: &BaseRun, run: &ResRun) -> Option<String> {
    if run.result.len() != base.result.len() {
        return Some(format!(
            "result length {} != {}",
            run.result.len(),
            base.result.len()
        ));
    }
    if let Some(bad) = run
        .result
        .iter()
        .chain(&base.result)
        .find(|v| !v.is_finite())
    {
        // Two NaN results could carry the same digest.
        return Some(format!("non-finite value {bad} in a result"));
    }
    if spec.tolerance == 0.0 {
        let (a, b) = (fnv1a_f64s(&run.result), fnv1a_f64s(&base.result));
        if a != b {
            return Some(format!("result digest {a:016x} != baseline {b:016x}"));
        }
    } else {
        let diff = run
            .result
            .iter()
            .zip(&base.result)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        if diff > spec.tolerance {
            return Some(format!(
                "max |result - baseline| = {diff:e} > {:e}",
                spec.tolerance
            ));
        }
    }
    let restores = u64::from(spec.kill_at.is_some());
    if run.stats.restores != restores {
        return Some(format!(
            "{} restores, expected {restores}",
            run.stats.restores
        ));
    }
    if run.final_group != mode.final_group {
        return Some(format!(
            "ended on {} places, expected {}",
            run.final_group, mode.final_group
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(result: Vec<f64>, restores: u64, final_group: usize) -> ResRun {
        ResRun {
            setup_s: 0.0,
            app_make_s: 0.0,
            store_make_s: 0.0,
            run_s: 1.0,
            stats: RunStats {
                restores,
                ..RunStats::default()
            },
            rows: Vec::new(),
            codec: CodecSnapshot::default(),
            wire_resident: 0,
            final_group,
            result,
        }
    }

    #[test]
    fn no_failure_runs_must_match_bit_for_bit() {
        let base = BaseRun {
            wall_s: 1.0,
            result: vec![1.0, 2.0],
        };
        let mode = NO_FAILURE[0];
        assert_eq!(
            check(&LOGREG_CTL, mode, &base, &run(vec![1.0, 2.0], 0, 4)),
            None
        );
        let off = check(&LOGREG_CTL, mode, &base, &run(vec![1.0, 2.0 + 4e-16], 0, 4));
        assert!(
            off.unwrap().contains("digest"),
            "one ulp off is a failed run"
        );
        assert!(check(&LOGREG_CTL, mode, &base, &run(vec![1.0], 0, 4))
            .unwrap()
            .contains("length"));
        assert!(check(&LOGREG_CTL, mode, &base, &run(vec![1.0, 2.0], 1, 4))
            .unwrap()
            .contains("restores"));
    }

    #[test]
    fn failure_runs_need_tolerance_one_restore_and_the_expected_group() {
        let base = BaseRun {
            wall_s: 1.0,
            result: vec![1.0, 2.0],
        };
        let shrink = ALL_RESTORES[0];
        let replace = ALL_RESTORES[2];
        assert_eq!(
            check(
                &LINREG_RESTORE,
                shrink,
                &base,
                &run(vec![1.0, 2.0 + 5e-9], 1, 3)
            ),
            None
        );
        assert!(check(
            &LINREG_RESTORE,
            shrink,
            &base,
            &run(vec![1.0, 2.0 + 5e-8], 1, 3)
        )
        .is_some());
        assert!(check(
            &LINREG_RESTORE,
            shrink,
            &base,
            &run(vec![1.0, f64::NAN], 1, 3)
        )
        .is_some());
        let nan = BaseRun {
            wall_s: 1.0,
            result: vec![f64::NAN],
        };
        let both = check(&LOGREG_CTL, NO_FAILURE[0], &nan, &run(vec![f64::NAN], 0, 4));
        assert!(
            both.unwrap().contains("non-finite"),
            "equal NaN digests are not a match"
        );
        assert!(
            check(&LINREG_RESTORE, shrink, &base, &run(vec![1.0, 2.0], 0, 3))
                .unwrap()
                .contains("restores")
        );
        assert!(
            check(&LINREG_RESTORE, shrink, &base, &run(vec![1.0, 2.0], 1, 4))
                .unwrap()
                .contains("places")
        );
        assert_eq!(
            check(&LINREG_RESTORE, replace, &base, &run(vec![1.0, 2.0], 1, 4)),
            None
        );
    }

    #[test]
    fn quick_keeps_the_shape() {
        let q = LINREG_RESTORE.quick();
        assert_eq!((q.iterations, q.ckpt_interval, q.kill_at), (6, 2, Some(3)));
        assert!(q.kill_at.unwrap() > q.ckpt_interval && q.kill_at.unwrap() < q.iterations);
        assert_eq!(q.modes.len(), 3);
    }
}
