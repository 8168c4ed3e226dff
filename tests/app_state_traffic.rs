//! Traffic pin for the four applications' checkpoint and restore, in the
//! style of `recovery_traffic.rs`: for each app at a small shape, one
//! failure-free run and one run that loses place 2 at iteration 8 under
//! shrink, both with the commit as the ship barrier. What each run saves,
//! encodes, ships, keeps and computes is asserted as literals, so a change
//! to how an app's objects are saved, remade or fetched cannot pass
//! unnoticed. The run-total ctl message and task counts are pinned too:
//! they repeat exactly from run to run. The codec counters are
//! process-global, which is why every run shares one test.
//!
//! Each app's read-only objects are stored once: a place holds the copy of
//! its predecessor's block and segment, never one of its own (the store
//! holds its live block as that replica). The shrink recovery leaves every
//! survivor's blocks where they are and rebuilds the lost block at place 3,
//! the dead place's successor, from the copy it holds there; its repair
//! serializes, from place 1, the block and segment whose copy died with
//! place 2 — the frames a clean run does not encode — and moves the copy
//! that now sits beside its block at place 3 on to place 0.

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
    // Read-only `x` and `y`: a block and a segment, 2 387 B of frames per
    // place, stored once; `w`, `r`, `p`: 291 B at places 0 and 1. The shrink
    // restore ships the three vectors to place 3 (291 B); the repair encodes
    // x's block 1 and y's segment 1 (2 frames, 2 305 B logical, 2 387 B wire)
    // and moves block 2 with its segment from place 3 to place 0: 2 × 2 387
    // B. Against two copies per read-only entry, that is −2 387 B per place
    // clean, and nothing more repaired or shipped. Ctl messages and tasks:
    // the repair probes three places (2 / 3), makes two moves, each an `at`
    // to its holder and one on to its target (0 / 4), and two encodes at
    // place 1 (1 / 3), where two copies from two holders took (2 / 6); the
    // restore leaves two places alone and rebuilds x's block 2 and y's
    // segment 2 at place 3 alone (−2 / −4).
    check("linreg", linreg, |ctx, a| a.app.weights(ctx).unwrap().as_slice().to_vec(), [
        Pin { runs: [3, 0, 15], codec: [17, 16, 9724, 10385], shipped: [16457, 0],
              inventory: [2678, 2678, 2387, 2387], digest: 0x60cf_db0c_44d5_81e9, ctl_tasks: [372, 539] },
        Pin { runs: [3, 1, 18], codec: [17 + 2, 16 + 2, 9724 + 2305, 10385 + 2387],
              shipped: [21578, 2 * 2387 + 291],
              inventory: [2 * 2387 + 291, 2387 + 291, 0, 2387], digest: 0x60cf_db0c_44d5_81e9,
              ctl_tasks: [390, 618] },
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
    // The same shape, in packed frames of data-dependent size: each place's
    // own copies of its `x` block and `y` segment are gone (−2 259, −2 259,
    // −2 247, −2 253 B). The repair encodes x's block 1 and y's segment 1
    // (2 frames, one of them verbatim: 2 465 B logical, 2 259 B wire), which
    // is what the restore row ships more.
    check("logreg", logreg, |ctx, a| a.app.weights(ctx).unwrap().as_slice().to_vec(), [
        Pin { runs: [3, 0, 15], codec: [11, 6, 10004, 9257], shipped: [14489, 0],
              inventory: [2342, 2348, 2259, 2247], digest: 0xf579_6645_45cf_136b, ctl_tasks: [327, 461] },
        Pin { runs: [3, 1, 18], codec: [11 + 2, 6 + 1, 10004 + 2465, 9257 + 2259], shipped: [19132, 4595],
              inventory: [4589, 2348, 0, 2259], digest: 0xf579_6645_45cf_136b, ctl_tasks: [338, 520] },
    ]);

    let pagerank = |ctx: &Ctx, g: &PlaceGroup| {
        let cfg =
            PageRankConfig { nodes_per_place: 25, out_degree: 3, iterations: 15, alpha: 0.85, seed: 11 };
        ResilientPageRank::make(ctx, cfg, g).unwrap()
    };
    // `g` and `u` stored once: −283 B at place 0, −271 at 1, −282 at 2 and
    // −271 at 3. The repair encodes g's block 1 and u's segment 1 (2 packed
    // frames, 1 577 B logical, 271 B wire).
    check("pagerank", pagerank, |ctx, a| a.app.ranks(ctx).unwrap().as_slice().to_vec(), [
        Pin { runs: [3, 0, 15], codec: [11, 2, 9116, 2887], shipped: [52879, 0],
              inventory: [1120, 1132, 271, 282], digest: 0x0044_c89f_0b43_f73a, ctl_tasks: [237, 341] },
        Pin { runs: [3, 1, 18], codec: [11 + 2, 2, 9116 + 1577, 2887 + 271], shipped: [56161, 1402],
              inventory: [1402, 1132, 0, 271], digest: 0x0044_c89f_0b43_f73a, ctl_tasks: [248, 393] },
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
    // bits (the objective agrees to 1e-9, as the app's own test checks);
    // which place sums which blocks — where the shrink left them — sets
    // those bits.
    // Read-only `v` stored once (−476, −477, −476, −478 B); the repair
    // encodes v's block 1 (one packed frame, 929 B logical, 477 B wire).
    check("gnmf", gnmf, factors, [
        Pin { runs: [3, 0, 15], codec: [19, 15, 8648, 7454], shipped: [57518, 0],
              inventory: [1555, 1553, 1249, 1248], digest: 0xae44_b190_47a2_7347, ctl_tasks: [288, 425] },
        Pin { runs: [3, 1, 18], codec: [19 + 1, 15, 8648 + 929, 7454 + 477], shipped: [60436, 2822],
              inventory: [2417, 1553, 0, 1635], digest: 0xb587_8224_badc_2393, ctl_tasks: [301, 481] },
    ]);
}
