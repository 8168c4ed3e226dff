//! Adversarial failure-timing tests: kills landing *inside* collective
//! operations, during checkpoints, during restores, and in rapid succession.
//! The contract under test: a failure either surfaces as a recoverable
//! error (dead-place) or the operation completes — never a hang, never a
//! wrong answer.

use std::sync::Mutex;

use apgas::prelude::*;
use apgas::runtime::{Runtime, RuntimeConfig};
use resilient_gml::core::{
    AppResilientStore, AppState, ChecksummedStep, DistBlockMatrix, DupVector, ExecutorConfig,
    GmlError, GmlResult, ResilientExecutor, ResilientIterativeApp, ResilientStore, RestoreMode,
    Snapshottable,
};
use resilient_gml::matrix::{builder, BlockData};

/// Serializes every test that charges the process-global `store_shard`
/// memory ledger: the drills below reconcile that ledger against one
/// store's live inventory, which is only meaningful if no other store in
/// this process is concurrently charging it (same pattern as
/// `tests/mem_plane.rs`).
static STORE_LEDGER: Mutex<()> = Mutex::new(());

fn fill(r0: usize, c0: usize, rows: usize, cols: usize) -> BlockData {
    BlockData::Dense(builder::random_dense(rows, cols, (r0 * 31 + c0) as u64))
}

/// A failure injected concurrently with a collective mult either kills the
/// operation (recoverably) or the operation completes; repeated attempts
/// never wedge the runtime.
#[test]
fn kill_racing_a_collective_is_recoverable_or_harmless() {
    Runtime::run(RuntimeConfig::new(4).resilient(true), |ctx| {
        let g = ctx.world();
        let m = DistBlockMatrix::make(ctx, 400, 40, 4, 1, 4, 1, &g, false).unwrap();
        m.init_with(ctx, |_, _, r0, c0, r, c| fill(r0, c0, r, c)).unwrap();
        let x = DupVector::make(ctx, 40, &g).unwrap();
        x.init(ctx, |i| i as f64 * 0.01).unwrap();
        let y = m.make_aligned_vector(ctx).unwrap();

        // Fire the kill from another place mid-operation.
        let killer = std::thread::spawn({
            let ctx2 = ctx.clone();
            move || {
                std::thread::sleep(std::time::Duration::from_micros(150));
                let _ = ctx2.kill_place(Place::new(3));
            }
        });
        let result = m.mult(ctx, &y, &x);
        killer.join().unwrap();
        match result {
            Ok(()) => {} // raced ahead of the kill
            Err(e) => assert!(e.is_recoverable(), "unexpected error kind: {e}"),
        }
        // The runtime is still fully functional on the survivors.
        let survivors = ctx.live_subset(&g);
        assert_eq!(survivors.len(), 3);
        let n = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        ctx.finish(|fs| {
            for p in survivors.iter() {
                let n = std::sync::Arc::clone(&n);
                fs.async_at(p, move |_| {
                    n.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                });
            }
        })
        .unwrap();
        assert_eq!(n.load(std::sync::atomic::Ordering::Relaxed), 3);
    })
    .unwrap();
}

/// Killing a place between snapshot and restore still restores every block
/// (backups serve the dead owner's blocks).
#[test]
fn restore_after_kill_between_snapshot_and_restore() {
    let _guard = STORE_LEDGER.lock().unwrap_or_else(|e| e.into_inner());
    Runtime::run(RuntimeConfig::new(5).resilient(true), |ctx| {
        let g = ctx.world();
        let store = ResilientStore::make(ctx).unwrap();
        let mut m = DistBlockMatrix::make(ctx, 100, 10, 10, 1, 5, 1, &g, false).unwrap();
        m.init_with(ctx, |_, _, r0, c0, r, c| fill(r0, c0, r, c)).unwrap();
        let reference = m.gather_dense(ctx).unwrap();
        let snap = m.make_snapshot(ctx, &store).unwrap();
        // Two non-adjacent victims: every key keeps one replica.
        ctx.kill_place(Place::new(1)).unwrap();
        ctx.kill_place(Place::new(3)).unwrap();
        let survivors = g.without(&[Place::new(1), Place::new(3)]);
        m.remake(ctx, &survivors, false).unwrap();
        m.restore_snapshot(ctx, &store, &snap).unwrap();
        assert_eq!(m.gather_dense(ctx).unwrap(), reference);
    })
    .unwrap();
}

/// Adjacent owner+backup failures lose data — and the library must say so,
/// not hang or fabricate zeros.
#[test]
fn adjacent_double_failure_reports_data_loss() {
    let _guard = STORE_LEDGER.lock().unwrap_or_else(|e| e.into_inner());
    Runtime::run(RuntimeConfig::new(4).resilient(true), |ctx| {
        let g = ctx.world();
        let store = ResilientStore::make(ctx).unwrap();
        let mut m = DistBlockMatrix::make(ctx, 40, 8, 4, 1, 4, 1, &g, false).unwrap();
        m.init_with(ctx, |_, _, r0, c0, r, c| fill(r0, c0, r, c)).unwrap();
        let snap = m.make_snapshot(ctx, &store).unwrap();
        // Place 1 owns block 1, backed up at place 2: kill both.
        ctx.kill_place(Place::new(1)).unwrap();
        ctx.kill_place(Place::new(2)).unwrap();
        let survivors = g.without(&[Place::new(1), Place::new(2)]);
        m.remake(ctx, &survivors, false).unwrap();
        let err = m.restore_snapshot(ctx, &store, &snap).unwrap_err();
        assert!(
            matches!(err, resilient_gml::core::GmlError::DataLoss(_)),
            "expected DataLoss, got {err}"
        );
    })
    .unwrap();
}

/// A checkpoint that fails mid-save is cancelled cleanly; the store's
/// previous committed snapshot remains usable and no partial entries leak.
#[test]
fn cancelled_checkpoint_leaks_nothing() {
    let _guard = STORE_LEDGER.lock().unwrap_or_else(|e| e.into_inner());
    Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
        let g = ctx.world();
        let mut store = AppResilientStore::make(ctx).unwrap();
        let v = DupVector::make(ctx, 8, &g).unwrap();
        v.init(ctx, |i| i as f64).unwrap();

        store.set_current_iteration(0);
        store.start_new_snapshot();
        store.save(ctx, &v).unwrap();
        store.commit(ctx).unwrap();
        let baseline_entries: usize = g
            .iter()
            .map(|p| store.store().entries_at(ctx, p).unwrap())
            .sum();

        // Second snapshot attempt: the backup target dies first, so save
        // fails; cancel must remove whatever was written.
        v.apply(ctx, |x| x.fill(99.0)).unwrap();
        store.set_current_iteration(5);
        store.start_new_snapshot();
        ctx.kill_place(Place::new(1)).unwrap();
        let res = store.save(ctx, &v);
        assert!(res.is_err(), "backup place is dead; save must fail");
        store.cancel_snapshot(ctx);

        let after_entries: usize = ctx
            .live_subset(&g)
            .iter()
            .map(|p| store.store().entries_at(ctx, p).unwrap())
            .sum();
        assert!(
            after_entries <= baseline_entries,
            "cancel leaked entries: {after_entries} > {baseline_entries}"
        );
        assert_eq!(store.snapshot_iteration(), Some(0), "old snapshot still the recovery point");
    })
    .unwrap();
}

/// The silent-error drill: a checksum flip between the digest a step
/// recorded and the pre-commit verification is detected and restored on the
/// unchanged group under the `silent_error` effective mode. Afterwards the
/// result is bit-exact, the flight recorder carries the mismatching digest
/// pair, and the store ledger still reconciles byte-for-byte with the live
/// inventory.
#[test]
fn silent_error_drill_rolls_back_and_reconciles() {
    let _guard = STORE_LEDGER.lock().unwrap_or_else(|e| e.into_inner());

    /// A counter app (the duplicated vector gains 1.0 per iteration) that
    /// corrupts its own output once, at the `corrupt_at_digest_call`-th
    /// digest it is asked for.
    struct SilentFlipApp {
        v: DupVector,
        total_iters: u64,
        corrupt_at_digest_call: u64,
        digest_calls: std::cell::Cell<u64>,
    }

    impl ResilientIterativeApp for SilentFlipApp {
        fn is_finished(&self, _ctx: &Ctx, iteration: u64) -> bool {
            iteration >= self.total_iters
        }

        fn step(&mut self, ctx: &Ctx, _iteration: u64) -> GmlResult<()> {
            self.v.apply(ctx, |x| {
                x.cell_add_scalar(1.0);
            })
        }

        fn state(&mut self) -> AppState<'_> {
            AppState::default().mutable("v", &mut self.v)
        }

        fn as_checksummed(&self) -> Option<&dyn ChecksummedStep> {
            Some(self)
        }
    }

    impl ChecksummedStep for SilentFlipApp {
        fn output_digest(&self, ctx: &Ctx) -> GmlResult<u64> {
            let n = self.digest_calls.get() + 1;
            self.digest_calls.set(n);
            if n == self.corrupt_at_digest_call {
                // Flip the data after the step recorded its digest so the
                // pre-commit verification sees a silent error.
                self.v.apply(ctx, |x| {
                    x.cell_add_scalar(0.5);
                })?;
            }
            Ok(fnv1a_f64s(self.v.read_local(ctx)?.as_slice()))
        }
    }

    Runtime::run(RuntimeConfig::new(4).resilient(true), |ctx| {
        let g = ctx.world();
        let mut store = AppResilientStore::make(ctx).unwrap();
        let mut app = SilentFlipApp {
            v: DupVector::make(ctx, 3, &g).unwrap(),
            total_iters: 8,
            // One record after each step, one verify before each commit:
            // with interval 4, the verify at iteration 4 is call #5.
            corrupt_at_digest_call: 5,
            digest_calls: std::cell::Cell::new(0),
        };
        let exec = ResilientExecutor::new(ExecutorConfig::new(4, RestoreMode::Shrink));
        let (final_group, stats, report) =
            exec.run_reported(ctx, &mut app, &g, &mut store).unwrap();

        // Bit-exact result on the unchanged group: nothing died, and the
        // flip was rolled back below the application's answer.
        assert_eq!(app.v.read_local(ctx).unwrap().get(0), 8.0);
        assert_eq!(final_group, g, "no place died; the group must be unchanged");
        assert_eq!(stats.restores, 1, "exactly the silent-error rollback");
        // Iterations 0..4 re-ran after rolling back to snapshot@0.
        assert_eq!(stats.iterations_run, 12);

        // The flight recorder pinned the silent error: effective mode
        // silent_error, no dead places, mismatching digest pair.
        let pm = &report.bundles[0];
        assert_eq!(pm.decision.effective_label, "silent_error");
        assert!(pm.decision.dead_places.is_empty());
        assert_ne!(pm.decision.expected_digest, pm.decision.observed_digest);
        pm.validate().unwrap();
        assert!(stats.detect_time > std::time::Duration::ZERO);
        assert!(report.consistent_with_totals(), "rows must telescope to totals");

        // Memory plane: after the rollback the store ledger still equals the
        // summed live inventory, byte for byte. The ledger charges wire
        // (framed) bytes, so reconcile against the wire column.
        if mem::enabled() {
            let inv: u64 = store.store().inventory(ctx).iter().map(|p| p.wire_bytes).sum();
            assert_eq!(mem::current(MemTag::StoreShard), inv, "ledger must reconcile");
        }
    })
    .unwrap();
}

/// A task that panics inside a step is a program error, not a failure to
/// recover from: every task runs once, and the executor returns the panic
/// as a non-recoverable `TaskPanic` carrying its text. No restore is
/// attempted, the last committed snapshot is still the recovery point, and
/// the store ledger reconciles with the live inventory.
#[test]
fn a_task_panic_in_a_step_fails_the_run_without_a_restore() {
    let _guard = STORE_LEDGER.lock().unwrap_or_else(|e| e.into_inner());

    /// A counter app whose step at `panic_at` spawns a task that panics,
    /// before the step touches its vector.
    struct PanickingApp {
        v: DupVector,
        panic_at: u64,
    }

    impl ResilientIterativeApp for PanickingApp {
        fn is_finished(&self, _ctx: &Ctx, iteration: u64) -> bool {
            iteration >= 8
        }

        fn step(&mut self, ctx: &Ctx, iteration: u64) -> GmlResult<()> {
            if iteration == self.panic_at {
                ctx.finish(|fs| fs.async_at(Place::new(1), |_| panic!("step task fault")))?;
            }
            self.v.apply(ctx, |x| {
                x.cell_add_scalar(1.0);
            })
        }

        fn state(&mut self) -> AppState<'_> {
            AppState::default().mutable("v", &mut self.v)
        }
    }

    Runtime::run(RuntimeConfig::new(4).resilient(true), |ctx| {
        let g = ctx.world();
        let before = ctx.stats();
        let mut store = AppResilientStore::make(ctx).unwrap();
        let mut app = PanickingApp { v: DupVector::make(ctx, 3, &g).unwrap(), panic_at: 3 };
        let exec = ResilientExecutor::new(ExecutorConfig::new(2, RestoreMode::Shrink));
        let err = exec.run_reported(ctx, &mut app, &g, &mut store).unwrap_err();

        assert!(!err.is_recoverable(), "a task panic is not recoverable: {err}");
        match &err {
            GmlError::Apgas(ApgasError::TaskPanic(msg)) => {
                assert!(msg.contains("step task fault"), "the panic text is kept: {msg}");
            }
            other => panic!("expected TaskPanic, got {other:?}"),
        }
        // Steps 0..3 ran once each and nothing was rolled back: a restore
        // to the snapshot taken at iteration 2 would read 2.0.
        assert_eq!(app.v.read_local(ctx).unwrap().get(0), 3.0, "no restore was attempted");
        assert_eq!(store.snapshot_iteration(), Some(2), "the last commit is the recovery point");
        assert_eq!(ctx.stats().since(&before).failures, 0);
        assert_eq!(ctx.live_subset(&g), g, "no place died");

        if mem::enabled() {
            let inv: u64 = store.store().inventory(ctx).iter().map(|p| p.wire_bytes).sum();
            assert_eq!(mem::current(MemTag::StoreShard), inv, "ledger must reconcile");
        }
    })
    .unwrap();
}

/// GmlError classification drives executor decisions; double-check the
/// surface most app code relies on.
#[test]
fn error_classification_matches_executor_contract() {
    Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
        ctx.kill_place(Place::new(2)).unwrap();
        let g = ctx.world();
        // Collective over a group containing a dead place: recoverable.
        let err = DupVector::make(ctx, 4, &g).map(|_| ()).unwrap_err();
        assert!(err.is_recoverable());
        assert_eq!(err.dead_places(), vec![Place::new(2)]);
        // Shape errors: not recoverable.
        let live = ctx.live_subset(&g);
        let a = DupVector::make(ctx, 4, &live).unwrap();
        let b = DupVector::make(ctx, 5, &live).unwrap();
        let err = a.axpy_all(ctx, 1.0, &b).unwrap_err();
        assert!(!err.is_recoverable());
    })
    .unwrap();
}
