//! Failure drills for the two-phase (capture/ship) checkpoint pipeline:
//! a backup killed mid-`save_batch` must abort the checkpoint atomically
//! (cancelled snapshot, no partial inventory), and a place killed during
//! the asynchronous ship phase must surface at the commit barrier so the
//! executor restores from the previous committed snapshot. The same drills
//! run on **verbatim** frames — payloads the codec keeps by reference
//! because nothing in them packs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use resilient_gml::prelude::*;

use apgas::runtime::{Runtime, RuntimeConfig};

/// The per-place inventory lines that must survive a cancelled checkpoint
/// unchanged: (place id, alive, entries, snapshots, bytes).
fn inventory_fingerprint(ctx: &Ctx, store: &AppResilientStore) -> Vec<(u32, bool, u64, u64, u64)> {
    store
        .store()
        .inventory(ctx)
        .into_iter()
        .map(|inv| (inv.place.id(), inv.alive, inv.entries as u64, inv.snapshots as u64, inv.bytes))
        .collect()
}

/// Drill 1 — the backup place dies mid-`save_batch`: the save fails at
/// capture time (dead-backup fail-fast), the attempt is cancelled, and the
/// watermark delete leaves the store inventory bit-identical to its
/// pre-attempt state — no partial inventory, committed snapshot intact and
/// still restorable.
#[test]
fn backup_killed_mid_batch_aborts_checkpoint_atomically() {
    Runtime::run(RuntimeConfig::new(4).resilient(true), |ctx| {
        let world = ctx.world();
        let mut dv = DistVector::make(ctx, 4_096, &world).unwrap();
        dv.init(ctx, |i| i as f64 * 0.5).unwrap();
        let mut dup = DupVector::make(ctx, 512, &world).unwrap();
        dup.init(ctx, |i| 3.0 - i as f64).unwrap();

        let mut store = AppResilientStore::make(ctx).unwrap();
        store.set_current_iteration(0);
        store.start_new_snapshot();
        store.save(ctx, &dv).unwrap();
        store.save(ctx, &dup).unwrap();
        store.commit(ctx).unwrap();
        assert_eq!(store.snapshot_iteration(), Some(0));

        // Place 1 backs up both place 0's DistVector segment and the
        // DupVector master copy (owner place 0, backup = next in group).
        ctx.kill_place(Place::new(1)).unwrap();
        let baseline = inventory_fingerprint(ctx, &store);

        store.set_current_iteration(3);
        store.start_new_snapshot();
        // DupVector first: its owner (place 0) is alive, so this exercises
        // the pure dead-backup fail-fast inside save_batch.
        let err = store.save(ctx, &dup).unwrap_err();
        assert!(err.is_recoverable(), "dead backup must be recoverable: {err:?}");
        // The DistVector save also fails (place 1 is an owner too), but its
        // surviving segments insert owner copies first — real partial state.
        let err = store.save(ctx, &dv).unwrap_err();
        assert!(err.is_recoverable());
        assert_ne!(
            inventory_fingerprint(ctx, &store),
            baseline,
            "the failed attempt must have left partial inserts for cancel to reap"
        );

        // Atomic abort: cancel deletes everything the attempt allocated.
        store.cancel_snapshot(ctx);
        assert_eq!(
            inventory_fingerprint(ctx, &store),
            baseline,
            "cancelled checkpoint left partial inventory behind"
        );
        assert_eq!(store.snapshot_iteration(), Some(0), "committed snapshot must survive");

        // The committed snapshot is still fully restorable on the survivors.
        let survivors = world.without(&[Place::new(1)]);
        dv.remake(ctx, &survivors).unwrap();
        dup.remake(ctx, &survivors).unwrap();
        store.restore(ctx, &mut [&mut dv, &mut dup]).unwrap();
        let v = dv.gather(ctx).unwrap();
        assert!((0..4_096).all(|i| v.get(i) == i as f64 * 0.5));
        let d = dup.read_local(ctx).unwrap();
        assert!((0..512).all(|i| d.get(i) == 3.0 - i as f64));
    })
    .unwrap();
}

/// Counter app whose second checkpoint parks its ship threads behind a
/// gate, kills `victim` from a helper thread, and only then releases the
/// gate — so the backup transfer always runs against a dead place.
struct ShipKillerApp {
    v: DupVector,
    group: PlaceGroup,
    total_iters: u64,
    gate: Arc<AtomicBool>,
    victim: Place,
    checkpoints: u64,
    armed: bool,
    killer: Option<JoinHandle<()>>,
}

impl ResilientIterativeApp for ShipKillerApp {
    fn is_finished(&self, _ctx: &Ctx, iteration: u64) -> bool {
        iteration >= self.total_iters
    }

    fn step(&mut self, ctx: &Ctx, _iteration: u64) -> GmlResult<()> {
        // Make the kill visible before the step runs, so the overlap-on
        // variant fails deterministically at the very next step.
        if let Some(killer) = self.killer.take() {
            let _ = killer.join();
        }
        self.v.apply(ctx, |x| {
            x.cell_add_scalar(1.0);
        })
    }

    fn checkpoint(&mut self, ctx: &Ctx, store: &mut AppResilientStore) -> GmlResult<()> {
        store.start_new_snapshot();
        self.checkpoints += 1;
        let arm = self.checkpoints == 2 && !self.armed;
        if arm {
            // Park the ship threads this save is about to spawn.
            self.gate.store(true, Ordering::Release);
        }
        let saved = store.save(ctx, &self.v);
        if arm {
            self.armed = true;
            let ctx2 = ctx.clone();
            let gate = Arc::clone(&self.gate);
            let victim = self.victim;
            // Kill strictly before release: the parked ship can only run
            // against a dead backup.
            self.killer = Some(std::thread::spawn(move || {
                let _ = ctx2.kill_place(victim);
                gate.store(false, Ordering::Release);
            }));
        }
        saved?;
        store.commit(ctx)
    }

    fn restore(
        &mut self,
        ctx: &Ctx,
        new_places: &PlaceGroup,
        store: &mut AppResilientStore,
        _snapshot_iteration: u64,
        _rebalance: bool,
    ) -> GmlResult<()> {
        self.v.remake(ctx, new_places)?;
        store.restore(ctx, &mut [&mut self.v])?;
        self.group = new_places.clone();
        Ok(())
    }
}

fn ship_killer_app(ctx: &Ctx, group: &PlaceGroup, total: u64, victim: Place) -> ShipKillerApp {
    let v = DupVector::make(ctx, 3, group).unwrap();
    ShipKillerApp {
        v,
        group: group.clone(),
        total_iters: total,
        gate: Arc::new(AtomicBool::new(false)),
        victim,
        checkpoints: 0,
        armed: false,
        killer: None,
    }
}

/// Drill 2 — a place dies during the asynchronous ship phase with overlap
/// disabled: `commit()` is the barrier, drains the in-flight ship, surfaces
/// the dead-place error, and the executor cancels the attempt and restores
/// from the previous committed snapshot.
#[test]
fn place_killed_during_ship_phase_surfaces_at_commit_and_restores() {
    Runtime::run(RuntimeConfig::new(4).resilient(true), |ctx| {
        let world = ctx.world();
        // The DupVector master lives at place 0; place 1 is its backup —
        // killing it fails the ship, not the capture.
        let mut app = ship_killer_app(ctx, &world, 8, Place::new(1));
        let gate = Arc::clone(&app.gate);
        let mut store = AppResilientStore::make(ctx).unwrap();
        store.set_ship_gate(gate);

        let exec = ResilientExecutor::new(
            ExecutorConfig::new(3, RestoreMode::Shrink).overlap_ship(false),
        );
        let (final_group, stats, report) =
            exec.run_reported(ctx, &mut app, &world, &mut store).unwrap();

        assert_eq!(final_group.len(), 3);
        assert_eq!(stats.restores, 1);
        // commit() failed at the iteration-3 checkpoint, so the rollback
        // target is the previous committed snapshot: iteration 0.
        let restore = report
            .rows
            .iter()
            .find_map(|r| r.restore)
            .expect("one restore row expected");
        assert_eq!(restore.rolled_back_to, 0, "must restore the previous committed snapshot");
        assert_eq!(app.v.read_local(ctx).unwrap().get(0), 8.0);
    })
    .unwrap();
}

/// A delta codec configuration pinned explicitly (not `from_env`) so these
/// drills are independent of `GML_CKPT_*` set by the surrounding CI run.
/// The small chunk keeps one-element mutations well under the dirty-ratio
/// fallback on the 4096-element test vectors.
fn delta_codec() -> CodecConfig {
    CodecConfig {
        mode: CodecMode::Delta,
        level: 1,
        chunk: 1024,
        dirty_max: 0.5,
        full_every: 16,
        lossy_tol: None,
    }
}

/// Drill 1b — the backup dies mid-`save_batch` of a **delta** epoch: the
/// attempt aborts atomically (watermark cancel reaps partial delta frames),
/// the committed base chain stays intact, and restoring from it replays the
/// pre-mutation state bit-for-bit.
#[test]
fn backup_killed_mid_delta_epoch_aborts_atomically_and_base_restores() {
    Runtime::run(RuntimeConfig::new(4).resilient(true), |ctx| {
        let world = ctx.world();
        let mut dv = DistVector::make(ctx, 4_096, &world).unwrap();
        dv.init(ctx, |i| (i as f64).sin()).unwrap();
        let mut dup = DupVector::make(ctx, 4_096, &world).unwrap();
        dup.init(ctx, |i| 1.0 / (1.0 + i as f64)).unwrap();

        let mut store = AppResilientStore::make_with_codec(ctx, delta_codec()).unwrap();
        store.set_current_iteration(0);
        store.start_new_snapshot();
        store.save(ctx, &dv).unwrap();
        store.save(ctx, &dup).unwrap();
        store.commit(ctx).unwrap();

        // Small mutations so the doomed second epoch takes the delta path.
        dv.for_each_segment(ctx, |_, _, seg| seg.as_mut_slice()[0] += 0.5).unwrap();
        dup.apply(ctx, |v| v.as_mut_slice()[7] = 42.0).unwrap();

        ctx.kill_place(Place::new(1)).unwrap();
        let baseline = inventory_fingerprint(ctx, &store);

        store.set_current_iteration(5);
        store.start_new_snapshot();
        assert!(store.save(ctx, &dup).unwrap_err().is_recoverable());
        assert!(store.save(ctx, &dv).unwrap_err().is_recoverable());
        store.cancel_snapshot(ctx);
        assert_eq!(
            inventory_fingerprint(ctx, &store),
            baseline,
            "cancelled delta epoch left partial frames behind"
        );

        // The committed (pre-mutation) snapshot restores bit-identically.
        let survivors = world.without(&[Place::new(1)]);
        dv.remake(ctx, &survivors).unwrap();
        dup.remake(ctx, &survivors).unwrap();
        store.restore(ctx, &mut [&mut dv, &mut dup]).unwrap();
        let v = dv.gather(ctx).unwrap();
        assert!((0..4_096).all(|i| v.get(i) == (i as f64).sin()));
        let d = dup.read_local(ctx).unwrap();
        assert!((0..4_096).all(|i| d.get(i) == 1.0 / (1.0 + i as f64)));
    })
    .unwrap();
}

/// FNV-1a digest of a vector's packed f64 contents.
fn vector_fnv(v: &Vector) -> u64 {
    let mut bytes = Vec::with_capacity(v.len() * 8);
    for x in v.as_slice() {
        bytes.extend_from_slice(&x.to_le_bytes());
    }
    apgas::digest::fnv1a_bytes(&bytes)
}

/// Drill 1c — the **owner** dies after a delta epoch committed: restore must
/// replay base + delta frames from the backup copies, and the result must
/// hash identically to a run where nothing was ever killed.
#[test]
fn owner_killed_after_delta_commit_replays_chain_from_backups() {
    let run_once = |kill_owner: bool| -> u64 {
        let digest = Arc::new(std::sync::Mutex::new(0u64));
        let out = Arc::clone(&digest);
        Runtime::run(RuntimeConfig::new(4).resilient(true), move |ctx| {
            let world = ctx.world();
            let mut dv = DistVector::make(ctx, 4_096, &world).unwrap();
            dv.init(ctx, |i| (i as f64) * 0.25 - 7.0).unwrap();
            let mut store = AppResilientStore::make_with_codec(ctx, delta_codec()).unwrap();

            // Epoch 0: full bases.
            store.set_current_iteration(0);
            store.start_new_snapshot();
            store.save(ctx, &dv).unwrap();
            store.commit(ctx).unwrap();

            // Epoch 1: sparse mutation → delta frames chained on epoch 0.
            dv.for_each_segment(ctx, |s, _, seg| {
                seg.as_mut_slice()[0] = s as f64 + 0.125;
            })
            .unwrap();
            store.set_current_iteration(1);
            store.start_new_snapshot();
            store.save(ctx, &dv).unwrap();
            store.commit(ctx).unwrap();

            if kill_owner {
                // Place 2 owned its segments; their frames (delta head *and*
                // chain base) survive only at the backup (place 3).
                ctx.kill_place(Place::new(2)).unwrap();
                let survivors = world.without(&[Place::new(2)]);
                dv.remake(ctx, &survivors).unwrap();
            } else {
                dv.for_each_segment(ctx, |_, _, seg| seg.as_mut_slice().fill(0.0))
                    .unwrap();
            }
            store.restore(ctx, &mut [&mut dv]).unwrap();
            *out.lock().unwrap() = vector_fnv(&dv.gather(ctx).unwrap());
        })
        .unwrap();
        let d = *digest.lock().unwrap();
        d
    };

    let undisturbed = run_once(false);
    let replayed = run_once(true);
    assert_eq!(
        replayed, undisturbed,
        "chain replay from backups must be bit-identical to the never-killed run"
    );
}

/// Element `i` of an incompressible vector: every mantissa bit random, so
/// no byte plane packs and the codec keeps the payload verbatim.
fn noise(i: usize, version: u64) -> f64 {
    let h = (i as u64 ^ version << 40).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h ^ h >> 29) as f64 / u64::MAX as f64
}

/// Wire bytes over logical bytes of a verbatim frame of a 1024-element
/// `DistVector` segment under [`delta_codec`]: 8 200 payload bytes in nine
/// chunks, so a 42-byte header and nine digests — and no record headers.
const VERBATIM_HEAD: u64 = 42 + 8 * 9;

/// Every live entry of the store is a verbatim frame: its wire size is its
/// payload plus exactly one head.
fn assert_all_verbatim(ctx: &Ctx, store: &AppResilientStore) {
    for inv in store.store().inventory(ctx).iter().filter(|inv| inv.alive) {
        assert_eq!(inv.wire_bytes - inv.bytes, inv.entries as u64 * VERBATIM_HEAD, "{inv:?}");
    }
}

/// Drill 1d — the **owner** dies after a verbatim epoch committed: the only
/// surviving replica is the backup's one copy of the payload, and restoring
/// from it must hash identically to a run where nothing was ever killed.
#[test]
fn owner_killed_after_verbatim_commit_restores_from_the_backup_copy() {
    let run_once = |kill_owner: bool| -> u64 {
        let digest = Arc::new(std::sync::Mutex::new(0u64));
        let out = Arc::clone(&digest);
        Runtime::run(RuntimeConfig::new(4).resilient(true), move |ctx| {
            let world = ctx.world();
            let mut dv = DistVector::make(ctx, 4_096, &world).unwrap();
            dv.init(ctx, |i| noise(i, 0)).unwrap();
            let mut store = AppResilientStore::make_with_codec(ctx, delta_codec()).unwrap();
            store.start_new_snapshot();
            store.save(ctx, &dv).unwrap();
            store.commit(ctx).unwrap();
            assert_all_verbatim(ctx, &store);

            if kill_owner {
                ctx.kill_place(Place::new(2)).unwrap();
                dv.remake(ctx, &world.without(&[Place::new(2)])).unwrap();
            } else {
                dv.for_each_segment(ctx, |_, _, seg| seg.as_mut_slice().fill(0.0)).unwrap();
            }
            store.restore(ctx, &mut [&mut dv]).unwrap();
            *out.lock().unwrap() = vector_fnv(&dv.gather(ctx).unwrap());
        })
        .unwrap();
        let d = *digest.lock().unwrap();
        d
    };
    assert_eq!(run_once(true), run_once(false));
}

/// Drill 2b — the backup dies while the ship of a **verbatim** epoch is
/// parked in flight: the owner copies (the serialized payloads themselves)
/// are in place, the backup copies never land, `commit` fails at the
/// barrier, and cancelling leaves the inventory bit-identical to what the
/// kill alone would have left. The committed epoch still restores.
#[test]
fn backup_killed_mid_ship_of_a_verbatim_frame_aborts_atomically() {
    Runtime::run(RuntimeConfig::new(4).resilient(true), |ctx| {
        let world = ctx.world();
        let mut dv = DistVector::make(ctx, 4_096, &world).unwrap();
        dv.init(ctx, |i| noise(i, 0)).unwrap();
        let mut store = AppResilientStore::make_with_codec(ctx, delta_codec()).unwrap();
        let gate = Arc::new(AtomicBool::new(false));
        store.set_ship_gate(Arc::clone(&gate));
        store.set_current_iteration(0);
        store.start_new_snapshot();
        store.save(ctx, &dv).unwrap();
        store.commit(ctx).unwrap();
        let mut baseline = inventory_fingerprint(ctx, &store);

        // Every value changes: the second epoch is verbatim frames again.
        dv.init(ctx, |i| noise(i, 1)).unwrap();
        gate.store(true, Ordering::Release);
        store.set_current_iteration(4);
        store.start_new_snapshot();
        store.save(ctx, &dv).unwrap();
        assert_ne!(inventory_fingerprint(ctx, &store), baseline, "owner copies are in");
        ctx.kill_place(Place::new(1)).unwrap();
        gate.store(false, Ordering::Release);
        let err = store.commit(ctx).unwrap_err();
        assert!(err.is_recoverable(), "a dead backup is a recoverable failure: {err}");
        store.cancel_snapshot(ctx);

        baseline[1] = (1, false, 0, 0, 0);
        assert_eq!(inventory_fingerprint(ctx, &store), baseline, "partial epoch left behind");
        assert_all_verbatim(ctx, &store);
        assert_eq!(store.snapshot_iteration(), Some(0));
        dv.remake(ctx, &world.without(&[Place::new(1)])).unwrap();
        store.restore(ctx, &mut [&mut dv]).unwrap();
        let v = dv.gather(ctx).unwrap();
        assert!((0..4_096).all(|i| v.get(i) == noise(i, 0)));
    })
    .unwrap();
}

/// Drill 1e — a verbatim base under two sparse deltas: restore copies the
/// base's body once and patches both deltas into the copy, from the owners'
/// replicas and — after an owner dies — from the backups'.
#[test]
fn verbatim_base_and_two_sparse_deltas_replay_on_restore() {
    Runtime::run(RuntimeConfig::new(4).resilient(true), |ctx| {
        let world = ctx.world();
        let mut dv = DistVector::make(ctx, 4_096, &world).unwrap();
        dv.init(ctx, |i| noise(i, 0)).unwrap();
        let mut store = AppResilientStore::make_with_codec(ctx, delta_codec()).unwrap();
        for epoch in 0..3u64 {
            if epoch > 0 {
                // One element per segment: one dirty chunk of nine.
                dv.for_each_segment(ctx, move |s, _, seg| {
                    seg.as_mut_slice()[epoch as usize] = s as f64 + epoch as f64;
                })
                .unwrap();
            }
            store.set_current_iteration(epoch);
            store.start_new_snapshot();
            store.save(ctx, &dv).unwrap();
            store.commit(ctx).unwrap();
        }
        let want = dv.gather(ctx).unwrap();
        let head = store.snapshot_of(dv.object_id()).unwrap();
        assert_eq!(head.chain.len(), 2, "a base and the first delta under the head");

        dv.for_each_segment(ctx, |_, _, seg| seg.as_mut_slice().fill(0.0)).unwrap();
        store.restore(ctx, &mut [&mut dv]).unwrap();
        assert_eq!(vector_fnv(&dv.gather(ctx).unwrap()), vector_fnv(&want));

        ctx.kill_place(Place::new(3)).unwrap();
        dv.remake(ctx, &world.without(&[Place::new(3)])).unwrap();
        store.restore(ctx, &mut [&mut dv]).unwrap();
        assert_eq!(vector_fnv(&dv.gather(ctx).unwrap()), vector_fnv(&want));
    })
    .unwrap();
}

/// Drill 2, overlap variant — with overlap on (the executor default),
/// `commit()` promotes optimistically and returns before the parked ship
/// fails; the next settle point audits the provisional snapshot, finds
/// every entry still owner-covered (the dead place held backup copies
/// only), promotes it degraded, and the executor rolls back to *that*
/// checkpoint instead of the one before it.
#[test]
fn ship_failure_under_overlap_settles_degraded_and_restores() {
    Runtime::run(RuntimeConfig::new(4).resilient(true), |ctx| {
        let world = ctx.world();
        let mut app = ship_killer_app(ctx, &world, 8, Place::new(1));
        let gate = Arc::clone(&app.gate);
        let mut store = AppResilientStore::make(ctx).unwrap();
        store.set_ship_gate(gate);

        let exec = ResilientExecutor::new(ExecutorConfig::new(3, RestoreMode::Shrink));
        let (final_group, stats, report) =
            exec.run_reported(ctx, &mut app, &world, &mut store).unwrap();

        assert_eq!(final_group.len(), 3);
        assert_eq!(stats.restores, 1);
        // The iteration-3 checkpoint committed optimistically; the step that
        // follows it hits the dead place, and recovery's settle promotes the
        // provisional snapshot (degraded but coherent) before restoring.
        let restore = report
            .rows
            .iter()
            .find_map(|r| r.restore)
            .expect("one restore row expected");
        assert_eq!(restore.rolled_back_to, 3, "degraded snapshot must be promoted and used");
        assert_eq!(app.v.read_local(ctx).unwrap().get(0), 8.0);
    })
    .unwrap();
}
