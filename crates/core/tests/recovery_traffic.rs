//! Traffic pin for a recovery, in the style of `collective_traffic.rs`: what
//! `ResilientExecutor::recover` ships is the share of the snapshot the dead
//! place held plus what its blocks' new owners fetch — nothing that grows
//! with the state the survivors hold — and it takes no checkpoint of its
//! own. A recovery that re-saves or re-ships the application cannot come
//! back without this failing.
//!
//! One fixed shape: four places (a spare besides, for replace-redundant), a
//! read-only 16 × 6 dense matrix in four blocks of 4 rows (entry wire size
//! `B`; block `k` is live at place `k`, where the store holds it as itself,
//! its one frame at place `k + 1`) and a mutable duplicated vector of 6 (entry wire size `W`, owner
//! place 0, backup place 1), a checkpoint every 10 of 30 iterations, place 2
//! killed entering iteration 15: it held block 2 live and block 1's copy. A
//! step ships nothing and the commit is the ship barrier, so the report row
//! of the failed step holds the recovery's traffic and only that. The codec
//! counters are process-global, which is why the three modes share one test.

use apgas::prelude::*;
use apgas::runtime::{Runtime, RuntimeConfig};
use gml_core::{
    AppResilientStore, AppState, CostReport, DistBlockMatrix, DupVector, ExecutorConfig,
    FailureInjector, GmlResult, ResilientExecutor, ResilientIterativeApp, RestoreMode, RunStats,
};
use gml_matrix::{builder, BlockData};

struct TrafficApp {
    x: DistBlockMatrix,
    w: DupVector,
}

impl ResilientIterativeApp for TrafficApp {
    fn is_finished(&self, _ctx: &Ctx, iteration: u64) -> bool {
        iteration >= 30
    }

    fn step(&mut self, ctx: &Ctx, _iteration: u64) -> GmlResult<()> {
        // Every value changes, none towards a pattern the codec could pack.
        self.w.apply(ctx, |v| v.as_mut_slice().iter_mut().for_each(|x| *x = *x * 1.0001 + 0.3))
    }

    fn state(&mut self) -> AppState<'_> {
        AppState::default().read_only("x", &mut self.x).mutable("w", &mut self.w)
    }
}

/// One run; `kill` is the restore mode to kill place 2 under. Returns the
/// stats, the report, the final per-place wire inventory, the payloads the
/// store handed out and the result.
fn run(kill: Option<RestoreMode>) -> (RunStats, CostReport, Vec<u64>, u64, Vec<f64>) {
    let mode = kill.unwrap_or(RestoreMode::Shrink);
    Runtime::run(RuntimeConfig::new(4).spares(1).resilient(true), move |ctx| {
        let g = ctx.world();
        let x = DistBlockMatrix::make(ctx, 16, 6, 4, 1, 4, 1, &g, false).unwrap();
        x.init_with(ctx, |_, _, r0, _, r, c| {
            BlockData::Dense(builder::random_dense(r, c, 7 + r0 as u64))
        })
        .unwrap();
        let w = DupVector::make(ctx, 6, &g).unwrap();
        w.init(ctx, |i| 0.37 + i as f64 / 7.0).unwrap();
        let kill_at = if kill.is_some() { 15 } else { u64::MAX };
        let mut app = FailureInjector::new(TrafficApp { x, w }, kill_at, Place::new(2));
        let mut store = AppResilientStore::make(ctx).unwrap();
        let exec = ResilientExecutor::new(ExecutorConfig::new(10, mode).overlap_ship(false));
        let (_, stats, report) = exec.run_reported(ctx, &mut app, &g, &mut store).unwrap();
        let inventory = store.store().inventory(ctx).iter().map(|p| p.wire_bytes).collect();
        let fetched = store.store().payloads_handed_out();
        (stats, report, inventory, fetched, app.app.w.read_local(ctx).unwrap().as_slice().to_vec())
    })
    .unwrap()
}

fn frames(report: &CostReport) -> u64 {
    report.codec_totals.frames_full
}

/// The wire size of a stored matrix block of `rows` rows: one verbatim
/// frame of one chunk — a 33-byte header and one chunk digest beside the
/// payload, the block's values under 57 B of block metadata.
fn block_wire(rows: u64) -> u64 {
    rows * 6 * 8 + 57 + 33 + 8
}

#[test]
fn a_recovery_ships_what_the_dead_place_held_and_takes_no_checkpoint() {
    let (clean_stats, clean_report, inventory, clean_fetched, expect) = run(None);
    assert_eq!((clean_stats.checkpoints, clean_stats.restores), (3, 0));
    assert_eq!(clean_fetched, 0);
    // Each place holds the one stored copy of a matrix block, its
    // predecessor's; places 0 and 1 hold the vector's two copies besides.
    assert_eq!(inventory[..4], [inventory[0], inventory[0], inventory[2], inventory[2]]);
    let (b, w) = (inventory[2], inventory[0] - inventory[2]);
    // The vector is a verbatim frame of one chunk too: 48 B under a length
    // word.
    assert_eq!((b, w), (block_wire(4), 48 + 8 + 33 + 8));
    // Every read-only block is stored once: four frames, read off the live
    // blocks by the first checkpoint's ship; the vector is saved three times.
    assert_eq!(frames(&clean_report), 4 + 3);

    // The vector lost nothing; it is fetched by every place of the new
    // group that holds no replica of it.
    for (mode, fetched, payloads, repaired, encoded) in [
        // Blocks 0, 1 and 3 stay live where they are. Block 2, lost, goes
        // to place 3, the dead place's successor, and is rebuilt from the
        // copy there: no matrix byte moves. Place 3 fetches the vector. The
        // repair serializes block 1 (its copy died) from place 1 to place 3
        // and moves the copy of block 2 (now live at 3) to place 0; nothing
        // at place 3 is dropped or rebuilt.
        (RestoreMode::Shrink, w, 1 + 3, (2, 2 * b), 1),
        // Rows 4..6 of block 1 go from its live block at place 1 to place 0
        // and rows 8..11 of block 2 from its copy at place 3 to place 1
        // (blocks of 6, 5, 5 rows now), as column runs of 6 columns; every
        // other run is read where it lands. Four (holder, block) reads and
        // three vector fetches. No block is under a saved key any more: the
        // repair frames the old blocks that places 0, 1 and 3 hold for the
        // store alone where they are (three encodes, nothing shipped), and
        // ships the two left with one copy — block 1 from place 1 to place
        // 3, block 2 from place 3 to place 0.
        (RestoreMode::ShrinkRebalance, (2 + 3) * 6 * 8 + w, 4 + 3, (2, 2 * b), 3),
        // Place 3 sends the spare block 2's 4 × 6 values from its copy, which
        // stays where it is beside the block now live at the spare; the
        // spare and place 3 fetch the vector. The repair serializes block 1
        // from place 1 to the spare.
        (RestoreMode::ReplaceRedundant, 4 * 6 * 8 + 2 * w, 1 + 4, (1, b), 1),
    ] {
        let (stats, report, after, handed_out, got) = run(Some(mode));
        assert_eq!(got, expect, "{mode:?}: the answer");
        assert_eq!(stats.restores, 1, "{mode:?}");
        assert_eq!(stats.checkpoints, clean_stats.checkpoints, "{mode:?}: no checkpoint extra");
        assert_eq!(handed_out, payloads, "{mode:?}: payloads read by the restore");
        // The repair encodes what no stored copy holds any more: the blocks
        // whose copy died, or the old blocks of a re-cut matrix.
        assert_eq!(frames(&report), frames(&clean_report) + encoded, "{mode:?}: frames encoded");

        let at = report.rows.iter().position(|r| r.restore.is_some()).expect("one restore row");
        let (row, cost) = (&report.rows[at], report.rows[at].restore.unwrap());
        assert_eq!(cost.label, mode.label());
        assert_eq!((cost.repaired_entries, cost.repaired_bytes), repaired, "{mode:?}");
        assert_eq!(row.delta.bytes_shipped, repaired.1 + fetched, "{mode:?}: bytes across recover");
        assert_eq!(row.checkpoint, None, "{mode:?}");
        // Rolled back to 10: the ten steps up to the checkpoint of 20 run
        // (five of them again) before anything is encoded.
        let next = &report.rows[at + 1..at + 12];
        assert!(next[..10].iter().all(|r| r.checkpoint.is_none() && r.ckpt_frames == [0; 2]));
        assert_eq!((next[10].iteration, next[10].checkpoint.is_some()), (20, true), "{mode:?}");
        // The matrix snapshot is reused, repaired; only the vector is saved.
        assert_eq!(next[10].ckpt_frames[0], 1, "{mode:?}");
        assert_eq!(stats.restore_time, cost.time, "{mode:?}: one interval, reported twice");
        // The run ends as redundant as a failure-free one: the matrix
        // stored once, the vector twice — or, where the matrix was re-cut,
        // its old four blocks twice.
        let recut = if mode == RestoreMode::ShrinkRebalance { 4 * b } else { 0 };
        assert_eq!(
            after.iter().sum::<u64>(),
            inventory.iter().sum::<u64>() + recut,
            "{mode:?}: the stored copies"
        );
    }
}
