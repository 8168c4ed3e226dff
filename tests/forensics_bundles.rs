//! End-to-end flight-recorder contract: a resilient run with an injected
//! kill must attach exactly one valid post-mortem bundle per restore whose
//! recorded restore mode matches the mode-labeled `exec.restore` trace
//! span, and the victim must read dead to the runtime and in the store's
//! inventory.

use apgas::runtime::{Runtime, RuntimeConfig};
use apgas::trace::Phase;
use resilient_gml::prelude::*;

/// Minimal executor app: a duplicated vector incremented each step; kills
/// `victim` at iteration `kill_at`.
struct CounterDrill {
    v: DupVector,
    iters: u64,
    kill_at: u64,
    victim: Place,
    fired: bool,
}

impl ResilientIterativeApp for CounterDrill {
    fn is_finished(&self, _ctx: &Ctx, iteration: u64) -> bool {
        iteration >= self.iters
    }
    fn step(&mut self, ctx: &Ctx, iteration: u64) -> GmlResult<()> {
        if iteration == self.kill_at && !self.fired {
            self.fired = true;
            ctx.kill_place(self.victim)?;
        }
        self.v.apply(ctx, |x| {
            x.cell_add_scalar(1.0);
        })
    }
    fn state(&mut self) -> AppState<'_> {
        AppState::default().mutable("v", &mut self.v)
    }
}

#[test]
fn a_kill_marks_the_victim_dead_and_records_one_bundle_per_restore() {
    let victim = Place::new(4);
    let rt = Runtime::new(RuntimeConfig::new(5).resilient(true).trace(true));

    let (stats, report) = rt
        .exec(move |ctx| {
            let group = ctx.world();
            let v = DupVector::make(ctx, 4, &group).unwrap();
            let mut app = CounterDrill { v, iters: 10, kill_at: 5, victim, fired: false };
            let mut store = AppResilientStore::make(ctx).unwrap();
            let exec = ResilientExecutor::new(ExecutorConfig::new(3, RestoreMode::Shrink));
            let (_, stats, report) =
                exec.run_reported(ctx, &mut app, &group, &mut store).unwrap();
            assert_eq!(app.v.read_local(ctx).unwrap().get(0), 10.0, "exact recovery");
            // (a) The kill flipped the victim's liveness; the store's
            // inventory reports its shard as dead too.
            assert!(!ctx.is_alive(victim), "victim reads dead");
            assert!(ctx.is_alive(Place::ZERO), "place zero is immortal");
            let inv = store.store().inventory(ctx);
            assert!(inv.iter().all(|p| p.alive == (p.place != victim)), "{inv:?}");
            (stats, report)
        })
        .unwrap();

    // (b) Exactly one valid bundle per restore, and the recorded mode
    // matches the label on the Restore span that actually ran.
    assert_eq!(stats.restores, 1);
    assert_eq!(report.bundles.len(), 1, "one bundle per restore");
    let b = &report.bundles[0];
    b.validate().expect("bundle must serialize to valid JSON");
    assert_eq!(b.seq, 1);
    assert_eq!(b.decision.configured_mode, "shrink");
    assert_eq!(b.decision.dead_places, vec![victim.id()]);
    assert_eq!(b.decision.rolled_back_to, 3, "rolled back to the iteration-3 checkpoint");
    let restore_labels: Vec<&str> = rt
        .tracer()
        .events()
        .iter()
        .filter(|e| e.kind == SpanKind::Restore && e.phase == Phase::End)
        .map(|e| e.label)
        .collect();
    assert_eq!(restore_labels, vec![b.decision.effective_label], "bundle matches the span");

    // The bundle's store audit saw the committed snapshot.
    assert!(!b.snapshots.is_empty(), "committed snapshots were audited");
    assert!(!b.store.is_empty(), "store inventory captured");
    assert!(b.store.iter().any(|p| p.place == victim && !p.alive));

    rt.shutdown();
}

/// A place added at run time reads like a configured one: alive once
/// spawned, dead once killed, and the kill leaves the others alive.
#[test]
fn a_spawned_place_reads_alive_and_then_dead() {
    let rt = Runtime::new(RuntimeConfig::new(2).resilient(true));
    let fresh = Place::new(2);
    let alive = |rt: &Runtime| {
        rt.exec(move |ctx| [0, 1, 2].map(|p| ctx.is_alive(Place::new(p)))).unwrap()
    };
    assert_eq!(alive(&rt), [true, true, false], "no place 2 yet");
    assert_eq!(rt.exec(|ctx| ctx.spawn_place().unwrap()).unwrap(), fresh);
    assert_eq!(alive(&rt), [true, true, true], "spawned place is alive");
    rt.kill_place(fresh).unwrap();
    assert_eq!(alive(&rt), [true, true, false], "killed place is dead, the others alive");
    rt.shutdown();
}

/// Drill for the *double-failure window*: the backup place dies between two
/// checkpoints, so the next `ResilientStore` save hits a dead backup
/// mid-snapshot. Kills `victim` at the start of checkpoint call `kill_at`.
struct BackupKillerDrill {
    v: DupVector,
    iters: u64,
    kill_at: u64,
    victim: Place,
    checkpoint_calls: u64,
    save_error: Option<(bool, String)>,
}

impl ResilientIterativeApp for BackupKillerDrill {
    fn is_finished(&self, _ctx: &Ctx, iteration: u64) -> bool {
        iteration >= self.iters
    }
    fn step(&mut self, ctx: &Ctx, _iteration: u64) -> GmlResult<()> {
        self.v.apply(ctx, |x| {
            x.cell_add_scalar(1.0);
        })
    }
    fn checkpoint(&mut self, ctx: &Ctx, store: &mut AppResilientStore) -> GmlResult<()> {
        self.checkpoint_calls += 1;
        if self.checkpoint_calls == self.kill_at {
            // The backup dies while the snapshot is in flight.
            ctx.kill_place(self.victim)?;
        }
        store.start_new_snapshot();
        if let Err(e) = store.save(ctx, &self.v) {
            self.save_error = Some((e.is_recoverable(), e.to_string()));
            return Err(e);
        }
        store.commit(ctx)
    }
    fn state(&mut self) -> AppState<'_> {
        AppState::default().mutable("v", &mut self.v)
    }
}

/// Killing the snapshot *backup* place mid-save must surface a recoverable
/// dead-place error from the store, roll back to the last committed (now
/// degraded but not lost) snapshot, and leave a forensics bundle that
/// records the degraded redundancy and the repair that ended it.
#[test]
fn backup_death_mid_save_recovers_and_forensics_records_degraded_snapshot() {
    // DupVector snapshots save from the group's place 0 with the backup at
    // the next place in the group — Place(1) is the one whose death lands
    // inside the save path.
    let victim = Place::new(1);
    let rt = Runtime::new(RuntimeConfig::new(4).resilient(true).trace(true));
    let (stats, report, save_error) = rt
        .exec(move |ctx| {
            let group = ctx.world();
            let v = DupVector::make(ctx, 4, &group).unwrap();
            let mut app = BackupKillerDrill {
                v,
                iters: 5,
                kill_at: 2,
                victim,
                checkpoint_calls: 0,
                save_error: None,
            };
            let mut store = AppResilientStore::make(ctx).unwrap();
            let exec = ResilientExecutor::new(ExecutorConfig::new(2, RestoreMode::Shrink));
            let (_, stats, report) =
                exec.run_reported(ctx, &mut app, &group, &mut store).unwrap();
            assert_eq!(app.v.read_local(ctx).unwrap().get(0), 5.0, "exact recovery");
            (stats, report, app.save_error)
        })
        .unwrap();

    // The dead backup surfaced as a *recoverable* error from the save.
    let (recoverable, msg) = save_error.expect("the in-flight save must fail");
    assert!(recoverable, "dead backup must be recoverable, got: {msg}");
    assert!(msg.contains("dead") || msg.contains("Dead"), "error names the dead place: {msg}");

    // The executor restored once from the surviving replica.
    assert_eq!(stats.restores, 1);
    assert_eq!(report.bundles.len(), 1, "one bundle for the one restore");
    let b = &report.bundles[0];
    b.validate().expect("bundle must serialize to valid JSON");
    assert_eq!(b.decision.dead_places, vec![victim.id()]);
    assert_eq!(b.decision.rolled_back_to, 0, "rolled back to the first committed snapshot");

    // The audited snapshot lost its backup but not its data: degraded, not
    // lost, and the invariant still holds — one more failure from loss.
    assert!(!b.snapshots.is_empty(), "committed snapshot was audited");
    let audit = &b.snapshots[0];
    assert!(audit.degraded >= 1, "backup death leaves the snapshot degraded");
    assert_eq!(audit.lost, 0, "owner replica survives — nothing lost");
    assert!(audit.invariant_ok(), "degradation is not an invariant violation");
    // ... and that what the recovery then did about it: the one entry, copied
    // from its owner to the owner's next place among the survivors.
    assert_eq!(b.repair.entries, 1);
    assert_eq!(b.repair.pairs, vec![(Place::ZERO, Place::new(2))]);
    assert!(b.repair.wire_bytes > 0 && b.to_json().contains("\"repair\":{\"entries\":1,"));

    // The bundle's store inventory shows the dead backup, and the recorded
    // pool width makes the replay comparable.
    assert!(b.store.iter().any(|p| p.place == victim && !p.alive));
    assert!(b.pool_workers >= 1, "bundle records the kernel pool width");

    rt.shutdown();
}
