//! Traffic pins for the per-place collectives: one per migrated family
//! (block-matrix reduction, segment reduction, root broadcast, snapshot
//! save, snapshot delete), and one per class for the broadcast and the
//! snapshot save and restore each Table I class spells its own way. Each
//! pins the message pattern of one call on a 4-place resilient runtime
//! driven from place zero — tasks spawned, finish bookkeeping operations
//! (messages + place-zero-local) and payload bytes shipped — so that a
//! change to how collectives are spelled cannot silently change what they
//! send.
//!
//! A finish over `k` places opened at place zero costs `k` local spawn
//! records, one Term per task (a message from every place but zero) and one
//! local wait: `2k + 1` bookkeeping operations. A synchronous `ctx.at` is
//! counted as one task spawned and no bookkeeping.
//!
//! The store keeps every entry as a checkpoint codec frame, so a snapshot
//! ships frames: a head ([`HEAD`]) and a body, which for these small,
//! regular payloads packs to less than the payload.

use std::sync::Mutex;

use apgas::prelude::*;
use apgas::runtime::{Runtime, RuntimeConfig};
use apgas::stats::StatsSnapshot;
use gml_core::{
    AppResilientStore, DistBlockMatrix, DistDenseMatrix, DistSparseMatrix, DistVector,
    DupDenseMatrix, DupVector, ResilientStore, Snapshot, Snapshottable,
};
use gml_matrix::{builder, BlockData};

/// `Vector::write`: a u64 length, then the packed f64s.
fn vector_wire(n: usize) -> u64 {
    8 + 8 * n as u64
}

/// `DenseMatrix::write`: rows and cols, then the packed f64s with their
/// u64 length.
fn dense_wire(rows: usize, cols: usize) -> u64 {
    16 + vector_wire(rows * cols)
}

/// Entry metadata gathered home per entry a place other than zero owns.
const META: u64 = 32;

/// A frame's head: 33 fixed bytes and one 8-byte digest per 4096-byte chunk
/// of the payload — every payload here is one chunk.
const HEAD: u64 = 33 + 8;

/// Held by every test that frames: the codec's counters are process-global,
/// and `save_then_restore` counts the frames its save made.
static FRAMING: Mutex<()> = Mutex::new(());

fn ctl_ops(d: &StatsSnapshot) -> u64 {
    d.ctl_total() + d.ctl_local
}

fn on_four_places(f: impl FnOnce(&Ctx) + Send + 'static) {
    Runtime::run(RuntimeConfig::new(4).resilient(true), f).unwrap();
}

fn delta(ctx: &Ctx, op: impl FnOnce()) -> StatsSnapshot {
    let before = ctx.stats();
    op();
    ctx.stats().since(&before)
}

#[test]
fn mult_trans_is_one_reduction_finish_plus_one_broadcast() {
    on_four_places(|ctx| {
        let g = ctx.world();
        let cols = 6;
        let a = DistBlockMatrix::make(ctx, 16, cols, 4, 1, 4, 1, &g, false).unwrap();
        a.init_with(ctx, |_, _, r0, _, r, c| {
            BlockData::Dense(builder::random_dense(r, c, r0 as u64))
        })
        .unwrap();
        let x = a.make_aligned_vector(ctx).unwrap();
        x.init(ctx, |i| i as f64).unwrap();
        let out = DupVector::make(ctx, cols, &g).unwrap();
        let d = delta(ctx, || a.mult_trans(ctx, &out, &x).unwrap());
        // Partials from all 4 places, then `sync`: one `at` to serialize at
        // the root and the sum to the 3 non-root places.
        assert_eq!(d.tasks_spawned, 4 + 1 + 3);
        assert_eq!(ctl_ops(&d), (2 * 4 + 1) + (2 * 3 + 1));
        assert_eq!(d.bytes_shipped, 7 * vector_wire(cols));
        assert_eq!(d.bytes_received, d.bytes_shipped);
    });
}

#[test]
fn dot_dup_is_one_finish_and_sixteen_bytes_per_segment() {
    on_four_places(|ctx| {
        let g = ctx.world();
        let u = DistVector::make(ctx, 10, &g).unwrap();
        let p = DupVector::make(ctx, 10, &g).unwrap();
        u.init(ctx, |i| i as f64).unwrap();
        p.init(ctx, |_| 2.0).unwrap();
        let mut got = 0.0;
        let d = delta(ctx, || got = u.dot_dup(ctx, &p).unwrap());
        assert_eq!(got, 90.0);
        assert_eq!(d.tasks_spawned, 4);
        assert_eq!(ctl_ops(&d), 2 * 4 + 1);
        assert_eq!(d.bytes_shipped, 16 * 4);
        assert_eq!(d.bytes_received, d.bytes_shipped);
    });
}

#[test]
fn dup_vector_sync_skips_the_root() {
    on_four_places(|ctx| {
        let g = ctx.world();
        let v = DupVector::make(ctx, 5, &g).unwrap();
        v.local(ctx).unwrap().lock().fill(3.0);
        let d = delta(ctx, || v.sync(ctx).unwrap());
        assert_eq!(d.at_calls, 1, "serialize once at the root");
        assert_eq!(d.tasks_spawned, 1 + 3, "the root gets no broadcast task");
        assert_eq!(ctl_ops(&d), 2 * 3 + 1);
        assert_eq!(d.bytes_shipped, 3 * vector_wire(5));
        assert_eq!(d.bytes_received, d.bytes_shipped);
    });
}

#[test]
fn dup_dense_sync_skips_the_root() {
    on_four_places(|ctx| {
        let g = ctx.world();
        let m = DupDenseMatrix::make(ctx, 3, 4, &g).unwrap();
        m.local(ctx).unwrap().lock().set(1, 2, 3.0);
        let d = delta(ctx, || m.sync(ctx).unwrap());
        assert_eq!(d.at_calls, 1, "serialize once at the root");
        assert_eq!(d.tasks_spawned, 1 + 3, "the root gets no broadcast task");
        assert_eq!(ctl_ops(&d), 2 * 3 + 1);
        assert_eq!(d.bytes_shipped, 3 * dense_wire(3, 4));
        assert_eq!(d.bytes_received, d.bytes_shipped);
    });
}

/// Snapshot `obj` into a fresh store, then restore it in place: the
/// traffic of each call. The save frames each entry once, at its owner.
fn save_then_restore(ctx: &Ctx, obj: &mut dyn Snapshottable) -> (StatsSnapshot, StatsSnapshot) {
    let _framing = FRAMING.lock().unwrap_or_else(|e| e.into_inner());
    let store = ResilientStore::make(ctx).unwrap();
    let mut snap: Option<Snapshot> = None;
    let frames = gml_core::codec::counters().frames_full;
    let save = delta(ctx, || snap = Some(obj.make_snapshot(ctx, &store).unwrap()));
    let snap = snap.unwrap();
    let framed = gml_core::codec::counters().frames_full - frames;
    assert_eq!(framed, snap.entries.len() as u64, "one frame per entry");
    let restore = delta(ctx, || obj.restore_snapshot(ctx, &store, &snap).unwrap());
    (save, restore)
}

/// A duplicated object's save is one `at` to the root, which keeps its
/// copy and ships it to its backup, the next place, in a second `at`. Its
/// restore is one finish over the group: the root and the backup read
/// their own replica, the other two places each fetch the root's.
fn assert_dup_save_and_restore(save: &StatsSnapshot, restore: &StatsSnapshot, wire: u64) {
    assert_eq!(save.at_calls, 2, "serialize at the root, ship to the backup");
    assert_eq!(save.tasks_spawned, 2);
    assert_eq!(ctl_ops(save), 0, "no finish");
    assert_eq!(save.bytes_shipped, wire, "one backup copy; the root owns the entry");
    assert_eq!(save.bytes_received, save.bytes_shipped);
    assert_eq!(restore.at_calls, 2, "one fetch per place without a replica");
    assert_eq!(restore.tasks_spawned, 4 + 2);
    assert_eq!(ctl_ops(restore), 2 * 4 + 1);
    assert_eq!(restore.bytes_shipped, 2 * wire);
    assert_eq!(restore.bytes_received, restore.bytes_shipped);
}

#[test]
fn dup_vector_snapshot_saves_the_root_copy_and_restores_it_everywhere() {
    on_four_places(|ctx| {
        let mut v = DupVector::make(ctx, 5, &ctx.world()).unwrap();
        v.init(ctx, |i| i as f64).unwrap();
        let (save, restore) = save_then_restore(ctx, &mut v);
        // vector_wire(5) = 48 B, framed as a head and a 30-byte body.
        assert_dup_save_and_restore(&save, &restore, HEAD + 30);
    });
}

#[test]
fn dup_dense_snapshot_saves_the_root_copy_and_restores_it_everywhere() {
    on_four_places(|ctx| {
        let mut m = DupDenseMatrix::make(ctx, 3, 4, &ctx.world()).unwrap();
        m.init(ctx, |i, j| (i * 4 + j) as f64).unwrap();
        let (save, restore) = save_then_restore(ctx, &mut m);
        // dense_wire(3, 4) = 120 B, framed as a head and a 41-byte body.
        assert_dup_save_and_restore(&save, &restore, HEAD + 41);
    });
}

/// A one-block-per-place matrix's save is one finish over the group in
/// which every place ships its block to the next place in one `at`, and
/// the three places other than zero send their entry's metadata home.
/// `frames` is the four blocks' frames together.
fn assert_one_block_per_place_save(save: &StatsSnapshot, frames: u64) {
    assert_eq!(save.at_calls, 4, "one batched backup transfer per place");
    assert_eq!(save.tasks_spawned, 4 + 4);
    assert_eq!(ctl_ops(save), 2 * 4 + 1);
    assert_eq!(save.bytes_shipped, frames + 3 * META);
    assert_eq!(save.bytes_received, save.bytes_shipped);
}

#[test]
fn dist_dense_snapshot_ships_each_block_to_the_next_place() {
    on_four_places(|ctx| {
        let mut m = DistDenseMatrix::make(ctx, 8, 3, &ctx.world()).unwrap();
        m.init(ctx, |r, c| (r * 3 + c) as f64).unwrap();
        let (save, _) = save_then_restore(ctx, &mut m);
        // Each block is 105 B — a 33-byte `MatrixBlock` header and
        // dense_wire(2, 3) — framed as a head and a body of 35 bytes
        // (block 0) or 39 (blocks 1 to 3).
        assert_one_block_per_place_save(&save, 4 * HEAD + 35 + 3 * 39);
    });
}

#[test]
fn dist_sparse_snapshot_ships_each_block_to_the_next_place() {
    on_four_places(|ctx| {
        let mut m = DistSparseMatrix::make(ctx, 12, 10, &ctx.world()).unwrap();
        m.init_blocks(ctx, |_, r0, _, rows, cols| builder::random_csr(rows, cols, 2, r0 as u64))
            .unwrap();
        let (save, _) = save_then_restore(ctx, &mut m);
        // Three rows of two non-zeros per block: 185 B — a 33-byte
        // `MatrixBlock` header, 24 of CSR shape, 32 of row pointers and 96
        // of non-zeros — framed as a head and a body of 91, 94, 91 and 96
        // bytes.
        assert_one_block_per_place_save(&save, 4 * HEAD + 91 + 94 + 91 + 96);
    });
}

#[test]
fn dist_vector_make_snapshot_skips_places_without_segments() {
    on_four_places(|ctx| {
        // Three segments of 4 over three of the four places: place 3 holds
        // nothing.
        let _framing = FRAMING.lock().unwrap_or_else(|e| e.into_inner());
        let g = PlaceGroup::first(3);
        let store = ResilientStore::make(ctx).unwrap();
        let v = DistVector::make(ctx, 12, &g).unwrap();
        v.init(ctx, |i| i as f64).unwrap();
        let mut snap = None;
        let d = delta(ctx, || snap = Some(v.make_snapshot(ctx, &store).unwrap()));
        let snap = snap.unwrap();
        assert_eq!(d.at_calls, 3, "one batched backup transfer per owner");
        assert_eq!(d.tasks_spawned, 3 + 3, "place 3 has no segment, so no task");
        assert_eq!(ctl_ops(&d), 2 * 3 + 1);
        // One backup copy per segment — vector_wire(4) = 40 B, framed as a
        // head and a 29-byte body — plus 32 B of entry metadata home from
        // each of the two owners that are not the driver's place.
        assert_eq!(d.bytes_shipped, 3 * (HEAD + 29) + 2 * 32);
        assert_eq!(d.bytes_received, d.bytes_shipped);
        for (key, owner) in [(0, 0), (1, 1), (2, 2)] {
            let loc = snap.entry(key).unwrap();
            assert_eq!(loc.owner, g.place(owner));
            assert_eq!(loc.backup, g.place((owner + 1) % 3), "backup = next place of the group");
            assert_eq!(loc.len as u64, vector_wire(4));
        }
    });
}

#[test]
fn a_two_object_commit_retires_both_old_snapshots_in_one_fan_out() {
    let _framing = FRAMING.lock().unwrap_or_else(|e| e.into_inner());
    on_four_places(|ctx| {
        let g = ctx.world();
        let mut store = AppResilientStore::make(ctx).unwrap();
        let u = DistVector::make(ctx, 16, &g).unwrap();
        let p = DupVector::make(ctx, 16, &g).unwrap();
        let mut checkpoint = || {
            delta(ctx, || {
                store.start_new_snapshot();
                store.save(ctx, &u).unwrap();
                store.save(ctx, &p).unwrap();
                store.commit(ctx).unwrap();
            })
        };
        let first = checkpoint();
        let second = checkpoint();
        // The same saves and ships; the second commit also deletes the two
        // snapshot ids of the first: one task per place, not one per place
        // and id.
        assert_eq!(second.tasks_spawned - first.tasks_spawned, 4);
        assert_eq!(ctl_ops(&second) - ctl_ops(&first), 2 * 4 + 1);
        assert_eq!(second.bytes_shipped, first.bytes_shipped);
        // Only the second checkpoint is left: four segments and one
        // duplicated vector, each at its owner and its backup.
        let entries: usize = store.store().inventory(ctx).iter().map(|i| i.entries).sum();
        assert_eq!(entries, 2 * (4 + 1));
    });
}
