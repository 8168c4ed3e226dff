//! Traffic pins for the per-place collectives: one per migrated family
//! (block-matrix reduction, segment reduction, root broadcast, snapshot
//! save, snapshot delete). Each pins the message pattern of one call on a 4-place resilient
//! runtime driven from place zero — tasks spawned, finish bookkeeping
//! operations (messages + place-zero-local) and payload bytes shipped — so
//! that a change to how collectives are spelled cannot silently change what
//! they send.
//!
//! A finish over `k` places opened at place zero costs `k` local spawn
//! records, one Term per task (a message from every place but zero) and one
//! local wait: `2k + 1` bookkeeping operations. A synchronous `ctx.at` is
//! counted as one task spawned and no bookkeeping.

use apgas::prelude::*;
use apgas::runtime::{Runtime, RuntimeConfig};
use apgas::stats::StatsSnapshot;
use gml_core::{
    AppResilientStore, DistBlockMatrix, DistVector, DupVector, ResilientStore, Snapshottable,
};
use gml_matrix::{builder, BlockData};

/// `Vector::write`: a u64 length, then the packed f64s.
fn vector_wire(n: usize) -> u64 {
    8 + 8 * n as u64
}

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
fn dist_vector_make_snapshot_skips_places_without_segments() {
    on_four_places(|ctx| {
        let g = ctx.world();
        let store = ResilientStore::make(ctx).unwrap();
        // Three segments of 4 over four places: place 3 holds nothing.
        let v = DistVector::make_with_layout(ctx, vec![0, 4, 8, 12], vec![0, 1, 2], &g).unwrap();
        v.init(ctx, |i| i as f64).unwrap();
        let mut snap = None;
        let d = delta(ctx, || snap = Some(v.make_snapshot(ctx, &store).unwrap()));
        let snap = snap.unwrap();
        assert_eq!(d.at_calls, 3, "one batched backup transfer per owner");
        assert_eq!(d.tasks_spawned, 3 + 3, "place 3 has no segment, so no task");
        assert_eq!(ctl_ops(&d), 2 * 3 + 1);
        // One backup copy per segment, plus 32 B of entry metadata home from
        // each of the two owners that are not the driver's place.
        assert_eq!(d.bytes_shipped, 3 * vector_wire(4) + 2 * 32);
        assert_eq!(d.bytes_received, d.bytes_shipped);
        for (key, owner) in [(0, 0), (1, 1), (2, 2)] {
            let loc = snap.entry(key).unwrap();
            assert_eq!(loc.owner, g.place(owner));
            assert_eq!(loc.backup, g.place(owner + 1), "backup = next place of the group");
            assert_eq!(loc.len as u64, vector_wire(4));
        }
    });
}

#[test]
fn a_two_object_commit_retires_both_old_snapshots_in_one_fan_out() {
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
