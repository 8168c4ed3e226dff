//! Failure drills for the two-phase (capture/ship) checkpoint pipeline:
//! a backup killed mid-`save_batch` must abort the checkpoint atomically
//! (cancelled snapshot, no partial inventory), and a place killed during
//! the asynchronous ship phase must surface at the commit barrier so the
//! executor restores from the previous committed snapshot. The same drills
//! run on both forms a stored frame takes: **packed** — a ramp, whose byte
//! planes compress — and **verbatim** — noise, which the codec keeps by
//! reference because nothing in it packs.

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
        dv.remake(ctx, &survivors, false).unwrap();
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

    fn state(&mut self) -> AppState<'_> {
        AppState::default().mutable("v", &mut self.v)
    }
}

fn ship_killer_app(ctx: &Ctx, group: &PlaceGroup, total: u64, victim: Place) -> ShipKillerApp {
    let v = DupVector::make(ctx, 3, group).unwrap();
    ShipKillerApp {
        v,
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

/// FNV-1a digest of a vector's packed f64 contents.
fn vector_fnv(v: &Vector) -> u64 {
    let mut bytes = Vec::with_capacity(v.len() * 8);
    for x in v.as_slice() {
        bytes.extend_from_slice(&x.to_le_bytes());
    }
    apgas::digest::fnv1a_bytes(&bytes)
}

/// The two forms a stored frame takes, by the payload that brings each about.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Form {
    /// A ramp: steps of 1e-9 leave five of the eight byte planes quiet, so
    /// the codec packs the payload.
    Packed,
    /// Noise: every mantissa bit random, so no byte plane packs and the
    /// codec keeps the payload by reference.
    Verbatim,
}

impl Form {
    /// Element `i` of the vector, different in every `version`.
    fn value(self, i: usize, version: u64) -> f64 {
        match self {
            Form::Packed => 1.0 + version as f64 + i as f64 * 1e-9,
            Form::Verbatim => {
                let h = (i as u64 ^ version << 40).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (h ^ h >> 29) as f64 / u64::MAX as f64
            }
        }
    }
}

/// The head of a frame of a 1024-element `DistVector` segment: 8 200 payload
/// bytes in three chunks, so a 33-byte header and three digests.
const HEAD: u64 = 33 + 8 * 3;

/// Every live entry of the store is a frame of `form`. A verbatim frame's
/// wire size is its payload plus exactly one head; a packed one's is less
/// than half its payload, head and record headers included.
fn assert_all_of_form(ctx: &Ctx, store: &AppResilientStore, form: Form) {
    for inv in store.store().inventory(ctx).iter().filter(|inv| inv.alive) {
        match form {
            Form::Verbatim => {
                assert_eq!(inv.wire_bytes - inv.bytes, inv.entries as u64 * HEAD, "{inv:?}")
            }
            Form::Packed => assert!(inv.wire_bytes < inv.bytes / 2, "{inv:?}"),
        }
    }
}

/// Drill 1d — the **owner** dies after an epoch committed: the only
/// surviving replica is the backup's one copy of the frame, and restoring
/// from it must hash identically to a run where nothing was ever killed.
fn owner_killed_after_commit_restores_from_the_backup_copy(form: Form) {
    let run_once = |kill_owner: bool| -> u64 {
        let digest = Arc::new(std::sync::Mutex::new(0u64));
        let out = Arc::clone(&digest);
        Runtime::run(RuntimeConfig::new(4).resilient(true), move |ctx| {
            let world = ctx.world();
            let mut dv = DistVector::make(ctx, 4_096, &world).unwrap();
            dv.init(ctx, move |i| form.value(i, 0)).unwrap();
            let mut store = AppResilientStore::make(ctx).unwrap();
            store.start_new_snapshot();
            store.save(ctx, &dv).unwrap();
            store.commit(ctx).unwrap();
            assert_all_of_form(ctx, &store, form);

            if kill_owner {
                ctx.kill_place(Place::new(2)).unwrap();
                dv.remake(ctx, &world.without(&[Place::new(2)]), false).unwrap();
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

#[test]
fn owner_killed_after_verbatim_commit_restores_from_the_backup_copy() {
    owner_killed_after_commit_restores_from_the_backup_copy(Form::Verbatim);
}

#[test]
fn owner_killed_after_packed_commit_restores_from_the_backup_copy() {
    owner_killed_after_commit_restores_from_the_backup_copy(Form::Packed);
}

/// Drill 2b — the backup dies while the ship of an epoch is parked in
/// flight: the owner copies (for verbatim frames, the serialized payloads
/// themselves) are in place, the backup copies never land, `commit` fails
/// at the barrier, and cancelling leaves the inventory bit-identical to
/// what the kill alone would have left. The committed epoch still restores.
fn backup_killed_mid_ship_aborts_atomically(form: Form) {
    Runtime::run(RuntimeConfig::new(4).resilient(true), move |ctx| {
        let world = ctx.world();
        let mut dv = DistVector::make(ctx, 4_096, &world).unwrap();
        dv.init(ctx, move |i| form.value(i, 0)).unwrap();
        let mut store = AppResilientStore::make(ctx).unwrap();
        let gate = Arc::new(AtomicBool::new(false));
        store.set_ship_gate(Arc::clone(&gate));
        store.set_current_iteration(0);
        store.start_new_snapshot();
        store.save(ctx, &dv).unwrap();
        store.commit(ctx).unwrap();
        let mut baseline = inventory_fingerprint(ctx, &store);

        // Every value changes: the second epoch is frames of the same form.
        dv.init(ctx, move |i| form.value(i, 1)).unwrap();
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
        assert_all_of_form(ctx, &store, form);
        assert_eq!(store.snapshot_iteration(), Some(0));
        dv.remake(ctx, &world.without(&[Place::new(1)]), false).unwrap();
        store.restore(ctx, &mut [&mut dv]).unwrap();
        let v = dv.gather(ctx).unwrap();
        assert!((0..4_096).all(|i| v.get(i) == form.value(i, 0)));
    })
    .unwrap();
}

#[test]
fn backup_killed_mid_ship_of_a_verbatim_frame_aborts_atomically() {
    backup_killed_mid_ship_aborts_atomically(Form::Verbatim);
}

#[test]
fn backup_killed_mid_ship_of_a_packed_frame_aborts_atomically() {
    backup_killed_mid_ship_aborts_atomically(Form::Packed);
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
        // Redundant by presence, not by liveness alone: the recovery's repair
        // gave every entry the failed ship left short its second replica.
        for snap in store.committed_snapshots() {
            let audit = store.store().audit_snapshot(ctx, &snap);
            assert_eq!(audit.fully_redundant, audit.entries, "{audit:?}");
        }
    })
    .unwrap();
}
