//! Property-based tests on the resilience invariants:
//!
//! * snapshot → (failures) → remake → restore is the identity on matrix and
//!   vector contents, for random shapes, block counts, payload kinds,
//!   victims and restoration modes;
//! * the double in-memory store tolerates any single place failure;
//! * grid overlap computations exactly tile every new block.

use proptest::prelude::*;

use apgas::runtime::{Runtime, RuntimeConfig};
use resilient_gml::core::{
    AppResilientStore, DistBlockMatrix, DistVector, ResilientStore, Snapshottable,
};
use resilient_gml::matrix::{builder, BlockData, Grid};

fn dense_fill(r0: usize, c0: usize, rows: usize, cols: usize) -> BlockData {
    BlockData::Dense(builder::random_dense(rows, cols, (r0 * 100_003 + c0) as u64))
}

fn sparse_fill(r0: usize, c0: usize, rows: usize, cols: usize) -> BlockData {
    BlockData::Sparse(builder::random_csr(rows, cols, 3, (r0 * 99_991 + c0) as u64))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// The fundamental restore invariant, randomized over geometry, payload
    /// kind, victim and mode.
    #[test]
    fn snapshot_restore_is_identity(
        places in 2usize..5,
        blocks_per_place in 1usize..3,
        rows in 8usize..50,
        cols in 2usize..20,
        sparse in any::<bool>(),
        victim_idx in 1usize..4,
        rebalance in any::<bool>(),
    ) {
        let victim_idx = victim_idx.min(places - 1).max(1);
        Runtime::run(RuntimeConfig::new(places).resilient(true), move |ctx| {
            let world = ctx.world();
            let row_blocks = (blocks_per_place * places).min(rows);
            if row_blocks < places {
                return; // degenerate: fewer rows than places
            }
            let store = ResilientStore::make(ctx).unwrap();
            let mut m = DistBlockMatrix::make(
                ctx, rows, cols, row_blocks, 1, places, 1, &world, sparse,
            )
            .unwrap();
            let fill = if sparse { sparse_fill } else { dense_fill };
            m.init_with(ctx, move |_, _, r0, c0, r, c| fill(r0, c0, r, c)).unwrap();
            let reference = m.gather_dense(ctx).unwrap();
            let snap = m.make_snapshot(ctx, &store).unwrap();

            let victim = world.place(victim_idx);
            ctx.kill_place(victim).unwrap();
            let survivors = world.without(&[victim]);
            m.remake(ctx, &survivors, rebalance).unwrap();
            m.restore_snapshot(ctx, &store, &snap).unwrap();
            assert_eq!(m.gather_dense(ctx).unwrap(), reference);
        })
        .unwrap();
    }

    /// DistVector restore after a shrink, under both `rebalance` values: a
    /// vector is remade by the matrix's rule. Re-cut, its segments are
    /// rebuilt from their overlaps; not re-cut, it keeps its segments, and
    /// every survivor keeps its own, contents and all, while the dead
    /// place's goes to its successor — so the restore of its read-only
    /// snapshot fetches the one segment the failure took.
    #[test]
    fn dist_vector_relayout_restore(
        places in 2usize..5,
        len in 4usize..60,
        victim_idx in 1usize..4,
        rebalance in any::<bool>(),
    ) {
        let victim_idx = victim_idx.min(places - 1).max(1);
        Runtime::run(RuntimeConfig::new(places).resilient(true), move |ctx| {
            let world = ctx.world();
            let mut store = AppResilientStore::make(ctx).unwrap();
            let mut v = DistVector::make(ctx, len, &world).unwrap();
            v.init(ctx, |i| (i as f64).sin()).unwrap();
            let reference = v.gather(ctx).unwrap();
            store.start_new_snapshot();
            store.save_read_only(ctx, &v).unwrap();
            store.commit(ctx).unwrap();
            let before: Vec<_> = (0..places).map(|s| (v.seg_range(s), v.seg_place(s))).collect();

            let victim = world.place(victim_idx);
            let successor = world.place(world.next_index(victim_idx));
            ctx.kill_place(victim).unwrap();
            let survivors = world.without(&[victim]);
            v.remake(ctx, &survivors, rebalance).unwrap();
            let reads = store.store().payloads_handed_out();
            if rebalance {
                assert_eq!(v.num_segments(), places - 1, "re-cut for the survivors");
                store.restore(ctx, &mut [&mut v]).unwrap();
            } else {
                // Every survivor keeps its segment; the dead place's goes to
                // its successor, which holds its frame.
                let kept = v.gather(ctx).unwrap();
                for (s, &((lo, hi), place)) in before.iter().enumerate() {
                    assert_eq!(v.seg_range(s), (lo, hi), "the same segments");
                    let stays = place != victim;
                    assert_eq!(v.seg_place(s), if stays { place } else { successor });
                    for i in lo..hi {
                        assert_eq!(kept.get(i), if stays { reference.get(i) } else { 0.0 });
                    }
                }
                store.restore(ctx, &mut [&mut v]).unwrap();
                assert_eq!(store.store().payloads_handed_out() - reads, 1, "the lost segment only");
            }
            assert_eq!(v.gather(ctx).unwrap(), reference);
        })
        .unwrap();
    }

    /// Any single failure leaves every store entry reachable (owner copy or
    /// next-place backup).
    #[test]
    fn double_store_survives_any_single_failure(
        places in 3usize..6,
        keys in 1usize..6,
        victim_idx in 1usize..5,
    ) {
        let victim_idx = victim_idx.min(places - 1).max(1);
        Runtime::run(RuntimeConfig::new(places).resilient(true), move |ctx| {
            let world = ctx.world();
            let store = ResilientStore::make(ctx).unwrap();
            let sid = store.fresh_snap_id();
            // Key k saved by place (k mod places) with backup at the next
            // group index — the paper's placement rule.
            let mut locs = Vec::new();
            for k in 0..keys {
                let owner_idx = k % places;
                let owner = world.place(owner_idx);
                let backup = world.place(world.next_index(owner_idx));
                let store2 = store.clone();
                let payload = bytes::Bytes::from(vec![k as u8; 64]);
                ctx.at(owner, move |ctx| {
                    store2.save_batch(ctx, sid, vec![(k as u64, payload)], backup).unwrap();
                })
                .unwrap();
                locs.push((k as u64, owner, backup));
            }
            ctx.kill_place(world.place(victim_idx)).unwrap();
            for (k, owner, backup) in locs {
                let got = store.fetch(ctx, sid, k, owner, backup).unwrap();
                assert_eq!(got, bytes::Bytes::from(vec![k as u8; 64]));
            }
        })
        .unwrap();
    }

    /// Overlaps of a new grid against an old grid exactly tile each new
    /// block (no gaps, no double cover), for arbitrary grid pairs.
    #[test]
    fn grid_overlaps_tile_exactly(
        rows in 1usize..60,
        cols in 1usize..60,
        old_rb in 1usize..8,
        old_cb in 1usize..8,
        new_rb in 1usize..8,
        new_cb in 1usize..8,
    ) {
        let old = Grid::partition(rows, cols, old_rb, old_cb);
        let new = Grid::partition(rows, cols, new_rb, new_cb);
        let mut covered = vec![0u32; rows * cols];
        for (bi, bj) in new.block_iter() {
            for ov in new.overlaps(&old, bi, bj) {
                for r in ov.r0..ov.r1 {
                    for c in ov.c0..ov.c1 {
                        covered[r * cols + c] += 1;
                    }
                }
            }
        }
        prop_assert!(covered.iter().all(|&n| n == 1));
    }

    /// Serialization of random blocks round-trips.
    #[test]
    fn block_payload_serialization_round_trips(
        rows in 1usize..30,
        cols in 1usize..30,
        sparse in any::<bool>(),
        seed in any::<u64>(),
    ) {
        use apgas::serial::Serial;
        let data = if sparse {
            BlockData::Sparse(builder::random_csr(rows, cols, 3.min(cols), seed))
        } else {
            BlockData::Dense(builder::random_dense(rows, cols, seed))
        };
        let bytes = data.to_bytes();
        prop_assert_eq!(bytes.len(), data.byte_len());
        prop_assert_eq!(BlockData::from_bytes(bytes), data);
    }
}
