//! Traffic pin for the four applications' checkpoint and restore, in the
//! style of `recovery_traffic.rs`: for each app at a small shape, one
//! failure-free run and one run that loses place 2 at iteration 8 under
//! shrink, both with the commit as the ship barrier. What each run saves,
//! encodes, ships, keeps and computes is asserted as literals, so a change
//! to how an app's objects are saved, remade or fetched cannot pass
//! unnoticed. The run-total ctl message and task counts are pinned too:
//! they repeat exactly from run to run. The codec counters are
//! process-global, which is why every run shares one test.

use resilient_gml::apps::{GnmfConfig, ResilientGnmf};
use resilient_gml::core::FailureInjector;
use resilient_gml::prelude::*;

/// What one run is pinned on.
#[derive(Debug, PartialEq)]
struct Pin {
    /// Checkpoints, restores and iterations run.
    runs: [u64; 3],
    /// Codec totals: frames, verbatim frames, logical bytes, wire bytes.
    codec: [u64; 4],
    /// Bytes shipped over the run and across the restore row.
    shipped: [u64; 2],
    /// Wire bytes each place's store shard holds at the end.
    inventory: [u64; 4],
    /// FNV digest of the result.
    digest: u64,
    /// Run-total ctl messages and tasks spawned.
    ctl_tasks: [u64; 2],
}

/// One run of the app `make` builds over four places, killing place 2 at
/// iteration 8 if `kill`; `result` reads the answer the digest covers.
fn pin<A: ResilientIterativeApp + 'static>(
    kill: bool,
    make: fn(&Ctx, &PlaceGroup) -> A,
    result: fn(&Ctx, &A) -> Vec<f64>,
) -> Pin {
    Runtime::run(RuntimeConfig::new(4).resilient(true), move |ctx| {
        let g = ctx.world();
        let kill_at = if kill { 8 } else { u64::MAX };
        let mut app = FailureInjector::new(make(ctx, &g), kill_at, Place::new(2));
        let mut store = AppResilientStore::make(ctx).unwrap();
        let cfg = ExecutorConfig::new(5, RestoreMode::Shrink).overlap_ship(false);
        let (_, stats, report) =
            ResilientExecutor::new(cfg).run_reported(ctx, &mut app, &g, &mut store).unwrap();
        let (c, t) = (report.codec_totals, report.totals);
        let restore_row = report.rows.iter().find(|r| r.restore.is_some());
        let inventory: Vec<u64> = store.store().inventory(ctx).iter().map(|p| p.wire_bytes).collect();
        Pin {
            runs: [stats.checkpoints, stats.restores, stats.iterations_run],
            codec: [c.frames_full, c.frames_verbatim, c.logical_bytes, c.wire_bytes],
            shipped: [t.bytes_shipped, restore_row.map_or(0, |r| r.delta.bytes_shipped)],
            inventory: inventory.try_into().unwrap(),
            digest: fnv1a_f64s(&result(ctx, &app.app)),
            ctl_tasks: [t.ctl_total(), t.tasks_spawned],
        }
    })
    .unwrap()
}

/// Run `make`'s app failure-free, then with the kill, against `expect`.
fn check<A: ResilientIterativeApp + 'static>(
    name: &str,
    make: fn(&Ctx, &PlaceGroup) -> A,
    result: fn(&Ctx, &A) -> Vec<f64>,
    expect: [Pin; 2],
) {
    for (kill, expect) in [false, true].into_iter().zip(expect) {
        assert_eq!(pin(kill, make, result), expect, "{name}, kill {kill}");
    }
}

#[test]
fn each_app_saves_remakes_and_fetches_exactly_what_it_did() {
    let linreg = |ctx: &Ctx, g: &PlaceGroup| {
        let cfg =
            LinRegConfig { examples_per_place: 40, features: 6, iterations: 15, lambda: 0.0, seed: 5 };
        ResilientLinReg::make(ctx, cfg, g).unwrap()
    };
    check("linreg", linreg, |ctx, a| a.app.weights(ctx).unwrap().as_slice().to_vec(), [
        Pin { runs: [3, 0, 15], codec: [17, 16, 9724, 10385], shipped: [16457, 0],
              inventory: [5065, 5065, 4774, 4774], digest: 0x60cf_db0c_44d5_81e9, ctl_tasks: [372, 539] },
        Pin { runs: [3, 1, 18], codec: [17, 16, 9724, 10385], shipped: [21578, 5065],
              inventory: [7452, 5065, 0, 7161], digest: 0x60cf_db0c_44d5_81e9, ctl_tasks: [391, 618] },
    ]);

    let logreg = |ctx: &Ctx, g: &PlaceGroup| {
        let cfg = LogRegConfig {
            examples_per_place: 50,
            features: 5,
            iterations: 15,
            lambda: 1e-3,
            learning_rate: 1.0,
            seed: 17,
        };
        ResilientLogReg::make(ctx, cfg, g).unwrap()
    };
    check("logreg", logreg, |ctx, a| a.app.weights(ctx).unwrap().as_slice().to_vec(), [
        Pin { runs: [3, 0, 15], codec: [11, 6, 10004, 9257], shipped: [14489, 0],
              inventory: [4601, 4607, 4506, 4500], digest: 0xf579_6645_45cf_136b, ctl_tasks: [327, 461] },
        Pin { runs: [3, 1, 18], codec: [11, 6, 10004, 9257], shipped: [19132, 4595],
              inventory: [6848, 4607, 0, 6759], digest: 0xf579_6645_45cf_136b, ctl_tasks: [339, 520] },
    ]);

    let pagerank = |ctx: &Ctx, g: &PlaceGroup| {
        let cfg =
            PageRankConfig { nodes_per_place: 25, out_degree: 3, iterations: 15, alpha: 0.85, seed: 11 };
        ResilientPageRank::make(ctx, cfg, g).unwrap()
    };
    check("pagerank", pagerank, |ctx, a| a.app.ranks(ctx).unwrap().as_slice().to_vec(), [
        Pin { runs: [3, 0, 15], codec: [11, 2, 9116, 2887], shipped: [52879, 0],
              inventory: [1403, 1403, 553, 553], digest: 0x0044_c89f_0b43_f73a, ctl_tasks: [237, 341] },
        Pin { runs: [3, 1, 18], codec: [11, 2, 9116, 2887], shipped: [56161, 1402],
              inventory: [1685, 1403, 0, 824], digest: 0x0044_c89f_0b43_f73a, ctl_tasks: [249, 393] },
    ]);

    let gnmf = |ctx: &Ctx, g: &PlaceGroup| {
        let cfg = GnmfConfig {
            rows_per_place: 12,
            cols: 10,
            rank: 3,
            nnz_per_row: 4,
            iterations: 15,
            eps: 1e-9,
            seed: 19,
        };
        ResilientGnmf::make(ctx, cfg, g).unwrap()
    };
    let factors = |ctx: &Ctx, a: &ResilientGnmf| {
        let (w, h) = a.app.factors(ctx).unwrap();
        [w.as_slice(), h.as_slice()].concat()
    };
    // The shrunk group sums W's Gram products over three places instead of
    // four, so the recovered factors differ from the clean ones in the last
    // bits (the objective agrees to 1e-9, as the app's own test checks).
    check("gnmf", gnmf, factors, [
        Pin { runs: [3, 0, 15], codec: [19, 15, 8648, 7454], shipped: [57518, 0],
              inventory: [2031, 2030, 1725, 1726], digest: 0xae44_b190_47a2_7347, ctl_tasks: [423, 605] },
        Pin { runs: [3, 1, 18], codec: [19, 15, 8648, 7454], shipped: [60404, 2822],
              inventory: [2893, 2416, 0, 2203], digest: 0x76e2_637e_395c_1dbe, ctl_tasks: [436, 671] },
    ]);
}
