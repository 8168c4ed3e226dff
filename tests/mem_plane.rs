//! Memory-observability drills: the `GML_MEM_BUDGET` watchdog pressure
//! alarm, the store ledger tag reconciling byte-for-byte with the
//! resilient store's live inventory through save / delete / restore / kill
//! cycles, and the memory bound of a checkpointing run: the heap stays flat
//! from checkpoint to checkpoint and the buffer pool parks no more than its
//! budget.
//!
//! The ledger and the allocator counters are process-global, so the tests
//! here serialize on one mutex and this binary keeps the whole process to
//! itself (integration tests each run as their own process).

use std::sync::Mutex;

use apgas::runtime::{Runtime, RuntimeConfig};
use resilient_gml::core::FailureInjector;
use resilient_gml::prelude::*;

/// Serializes the tests: both read process-global state (env knobs, the
/// memory ledger), so they must not interleave.
static PROCESS_STATE: Mutex<()> = Mutex::new(());

/// Drill: with a tiny `GML_MEM_BUDGET`, the first heap sample must trip
/// the watchdog's memory-pressure anomaly (the process heap is far above
/// any 1 KiB budget) and flag place zero on the health board.
#[test]
fn tiny_mem_budget_trips_memory_pressure_anomaly() {
    let _guard = PROCESS_STATE.lock().unwrap();
    if !mem::enabled() {
        return; // heap_bytes() reads 0 with mem-profile off: budget never trips
    }
    std::env::set_var("GML_MEM_BUDGET", "1024");
    Runtime::run(RuntimeConfig::new(2).resilient(true), |ctx| {
        assert_eq!(ctx.anomaly_mask(), 0, "board starts clean");
        ctx.observe_memory();
        ctx.observe_memory();
        let wd = ctx.watchdog().report();
        assert!(
            wd.mem_alarms >= 1,
            "heap {} must press a 1 KiB budget (alarms: {})",
            mem::heap_bytes(),
            wd.mem_alarms
        );
        assert_ne!(
            ctx.anomaly_mask() & 1,
            0,
            "memory pressure flags place zero on the health board"
        );
    })
    .unwrap();
    std::env::remove_var("GML_MEM_BUDGET");
}

/// With no budget configured, the same observations raise nothing.
#[test]
fn unset_mem_budget_stays_quiet() {
    let _guard = PROCESS_STATE.lock().unwrap();
    std::env::remove_var("GML_MEM_BUDGET");
    Runtime::run(RuntimeConfig::new(2).resilient(true), |ctx| {
        assert!(!ctx.observe_memory());
        assert!(!ctx.observe_memory());
        assert_eq!(ctx.watchdog().report().mem_alarms, 0);
        assert_eq!(ctx.anomaly_mask(), 0);
    })
    .unwrap();
}

/// The executor samples the heap on every pass whether or not tracing is
/// on: an untraced run under a tiny budget raises the alarm too.
#[test]
fn untraced_executor_run_raises_memory_pressure() {
    let _guard = PROCESS_STATE.lock().unwrap();
    if !mem::enabled() {
        return;
    }
    std::env::set_var("GML_MEM_BUDGET", "1024");
    Runtime::run(RuntimeConfig::new(2).resilient(true).trace(false), |ctx| {
        let world = ctx.world();
        let dv = DistVector::make(ctx, 64, &world).unwrap();
        let dup = DupVector::make(ctx, 64, &world).unwrap();
        let mut store = AppResilientStore::make(ctx).unwrap();
        let exec = ResilientExecutor::new(ExecutorConfig::new(5, RestoreMode::Shrink));
        exec.run(ctx, &mut Steady { dv, dup }, &world, &mut store).unwrap();
        assert!(!ctx.tracer().is_on());
        assert!(ctx.watchdog().report().mem_alarms >= 1, "an untraced run must sample the heap");
        assert_ne!(ctx.anomaly_mask() & 1, 0, "memory pressure flags place zero");
    })
    .unwrap();
    std::env::remove_var("GML_MEM_BUDGET");
}

/// Sum of live-place **wire** bytes, as the store reports them — the ledger
/// charges framed (post-codec) bytes, so that is the reconcilable column.
fn inventory_bytes(ctx: &Ctx, store: &AppResilientStore) -> u64 {
    store.store().inventory(ctx).iter().map(|p| p.wire_bytes).sum()
}

/// Reconciliation: the ledger's `store_shard` tag is charged at insert and
/// discharged at evict / failure, so it must equal the summed live
/// inventory at every settle point — after a commit, after the watermark
/// delete of an old snapshot, after a restore, and after a place is killed
/// (the dead shard's bytes leave both sides) and after the repair that puts
/// the dead shard's share back on the survivors.
#[test]
fn store_ledger_reconciles_with_inventory_through_lifecycle() {
    let _guard = PROCESS_STATE.lock().unwrap();
    if !mem::enabled() {
        return;
    }
    Runtime::run(RuntimeConfig::new(4).resilient(true), |ctx| {
        let world = ctx.world();
        let mut dv = DistVector::make(ctx, 4_096, &world).unwrap();
        dv.init(ctx, |i| i as f64 * 0.25).unwrap();
        // A second object nothing packs in: its frames are verbatim, a head
        // beside the payload itself, and the ledger is charged for both.
        let mut noisy = DupVector::make(ctx, 4_096, &world).unwrap();
        noisy
            .init(ctx, |i| (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) as f64)
            .unwrap();
        let verbatim_before = resilient_gml::core::codec::counters().frames_verbatim;
        let mut store = AppResilientStore::make(ctx).unwrap();

        let reconcile = |ctx: &Ctx, store: &AppResilientStore, when: &str| {
            let inv = inventory_bytes(ctx, store);
            let ledger = mem::current(MemTag::StoreShard);
            assert_eq!(ledger, inv, "ledger != inventory {when}");
        };

        // First committed snapshot: owner + backup copies both charged.
        store.set_current_iteration(0);
        store.start_new_snapshot();
        store.save(ctx, &dv).unwrap();
        store.save(ctx, &noisy).unwrap();
        store.commit(ctx).unwrap();
        let after_first = inventory_bytes(ctx, &store);
        assert!(after_first > 0, "snapshot must occupy the store");
        let verbatim = resilient_gml::core::codec::counters().frames_verbatim - verbatim_before;
        assert_eq!(verbatim, 1, "the noisy vector, and only it, is kept verbatim");
        reconcile(ctx, &store, "after first commit");

        // Second snapshot: the commit's watermark delete evicts the first,
        // discharging exactly what it charged.
        dv.scale(ctx, 2.0).unwrap();
        noisy.apply(ctx, |v| v.as_mut_slice()[9] = 1.0).unwrap();
        store.set_current_iteration(1);
        store.start_new_snapshot();
        store.save(ctx, &dv).unwrap();
        store.save(ctx, &noisy).unwrap();
        store.commit(ctx).unwrap();
        reconcile(ctx, &store, "after second commit (old snapshot evicted)");

        // Restore re-reads without moving ownership: levels unchanged.
        store.restore(ctx, &mut [&mut dv, &mut noisy]).unwrap();
        reconcile(ctx, &store, "after restore");

        // Kill a place: its shard dies with it, and the ledger must drop
        // by the dead shard's share while inventory reports it as zero.
        let before_kill = inventory_bytes(ctx, &store);
        ctx.kill_place(Place::new(2)).unwrap();
        let after_kill = inventory_bytes(ctx, &store);
        assert!(after_kill < before_kill, "dead shard leaves the inventory");
        reconcile(ctx, &store, "after killing place 2");

        // Repair: every frame the dead shard held is copied from its
        // surviving replica, so the store is as full as before the failure
        // and the ledger was charged for each copy.
        let report = store.repair(ctx, &world.without(&[Place::new(2)])).unwrap();
        assert_eq!(report.wire_bytes, before_kill - after_kill);
        assert_eq!(inventory_bytes(ctx, &store), before_kill, "the dead shard's share is back");
        reconcile(ctx, &store, "after the repair");
        for snap in store.committed_snapshots() {
            let audit = store.store().audit_snapshot(ctx, &snap);
            assert_eq!(audit.fully_redundant, audit.entries, "{audit:?}");
            assert!(audit.invariant_ok(), "{audit:?}");
        }

        // The next checkpoint, on the survivors, retires the repaired
        // generation whole — the copies the repair placed included.
        let survivors = world.without(&[Place::new(2)]);
        dv.remake(ctx, &survivors).unwrap();
        noisy.remake(ctx, &survivors).unwrap();
        store.restore(ctx, &mut [&mut dv, &mut noisy]).unwrap();
        store.set_current_iteration(2);
        store.start_new_snapshot();
        store.save(ctx, &dv).unwrap();
        store.save(ctx, &noisy).unwrap();
        store.commit(ctx).unwrap();
        reconcile(ctx, &store, "after the first commit past the repair");
        let entries: usize = store.store().inventory(ctx).iter().map(|p| p.entries).sum();
        assert_eq!(entries, 2 * (3 + 1), "three segments and the vector, twice each");
    })
    .unwrap();
}

/// Elements of the distributed state: 2 MiB over four places, so that one
/// checkpoint dwarfs what the rest of the process allocates per iteration.
const DIST_LEN: usize = 1 << 18;

/// A distributed and a duplicated vector, both rewritten by every step and
/// saved by every checkpoint.
struct Steady {
    dv: DistVector,
    dup: DupVector,
}

impl ResilientIterativeApp for Steady {
    fn is_finished(&self, _ctx: &Ctx, iteration: u64) -> bool {
        iteration >= 10
    }

    fn step(&mut self, ctx: &Ctx, _iteration: u64) -> GmlResult<()> {
        self.dv.map_all(ctx, |x| x * 1.0001 + 0.3)?;
        self.dup.apply(ctx, |v| v.as_mut_slice().iter_mut().for_each(|x| *x = *x * 1.0001 + 0.3))
    }

    fn state(&mut self) -> AppState<'_> {
        AppState::default().mutable("dv", &mut self.dv).mutable("dup", &mut self.dup)
    }
}

/// Forwards to the app and records the process heap level after every
/// checkpoint it takes.
struct HeapAfterCheckpoint<A> {
    app: A,
    heap: Vec<u64>,
}

impl<A: ResilientIterativeApp> ResilientIterativeApp for HeapAfterCheckpoint<A> {
    fn is_finished(&self, ctx: &Ctx, iteration: u64) -> bool {
        self.app.is_finished(ctx, iteration)
    }

    fn step(&mut self, ctx: &Ctx, iteration: u64) -> GmlResult<()> {
        self.app.step(ctx, iteration)
    }

    fn checkpoint(&mut self, ctx: &Ctx, store: &mut AppResilientStore) -> GmlResult<()> {
        self.app.checkpoint(ctx, store)?;
        self.heap.push(mem::heap_bytes());
        Ok(())
    }

    fn restore(
        &mut self,
        ctx: &Ctx,
        new_places: &PlaceGroup,
        store: &mut AppResilientStore,
        snapshot_iteration: u64,
        rebalance: bool,
    ) -> GmlResult<()> {
        self.app.restore(ctx, new_places, store, snapshot_iteration, rebalance)
    }
}

/// The memory bound as a test: resident ≤ app state + two replicas of the
/// committed and the provisional checkpoint + the pool's parked budget. A
/// run with overlap on checkpoints every iteration, ten times, then loses a
/// place and repairs. From the third checkpoint on, a checkpoint's buffers
/// are ones an earlier checkpoint retired, so the heap stays within a
/// checkpoint of where it stood; the pool never parks more than its budget;
/// and the store ledger still equals the inventory after the kill and the
/// repair.
#[test]
fn checkpointing_heap_is_flat_and_the_pool_stays_within_its_budget() {
    let _guard = PROCESS_STATE.lock().unwrap();
    if !mem::enabled() {
        return;
    }
    Runtime::run(RuntimeConfig::new(4).resilient(true), |ctx| {
        let world = ctx.world();
        let dv = DistVector::make(ctx, DIST_LEN, &world).unwrap();
        // Values nothing packs: every frame is verbatim and as long as the
        // last, so a retired buffer fits the next checkpoint's request.
        let noise = |i: usize| (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) as f64;
        dv.init(ctx, noise).unwrap();
        let dup = DupVector::make(ctx, 4_096, &world).unwrap();
        dup.init(ctx, noise).unwrap();
        let app = HeapAfterCheckpoint { app: Steady { dv, dup }, heap: Vec::new() };
        // Killed entering step 9, after the tenth checkpoint: the run rolls
        // back, repairs, and finishes before another one is due.
        let mut app = FailureInjector::new(app, 9, Place::new(2));
        let mut store = AppResilientStore::make(ctx).unwrap();
        let exec =
            ResilientExecutor::new(ExecutorConfig::new(1, RestoreMode::Shrink).overlap_ship(true));
        let (group, stats, report) = exec.run_reported(ctx, &mut app, &world, &mut store).unwrap();
        assert_eq!((stats.checkpoints, stats.restores, group.len()), (10, 1, 3));
        let repaired = report.rows.iter().find_map(|r| r.restore).expect("one restore row");
        assert!(repaired.repaired_entries > 0, "the dead place's copies are re-replicated");

        let heap = &app.app.heap;
        assert_eq!(heap.len(), 10, "one reading per checkpoint");
        let logical = report.rows.iter().map(|r| r.ckpt_logical).max().unwrap();
        assert!(logical >= (DIST_LEN * 8) as u64, "a checkpoint saves the whole state");
        // A ship that runs late holds one generation of backup copies past
        // the next capture, so the pool may settle up to one checkpoint
        // higher than it stood after the third. A pool whose buffers stay
        // on the thread that dropped them grows about a checkpoint per
        // checkpoint instead.
        assert!(
            heap[9].saturating_sub(heap[2]) < 2 * logical,
            "heap after checkpoint 10 grew by two checkpoints or more over checkpoint 3: \
             {heap:?} (one checkpoint: {logical} B)"
        );

        let pool = bytes::global_pool_stats();
        assert!(pool.parked_bytes_high_water <= bytes::POOL_MAX_PARKED as u64, "{pool:?}");

        let inventory = inventory_bytes(ctx, &store);
        assert_eq!(mem::current(MemTag::StoreShard), inventory, "ledger != inventory");
        for snap in store.committed_snapshots() {
            let audit = store.store().audit_snapshot(ctx, &snap);
            assert_eq!(audit.fully_redundant, audit.entries, "{audit:?}");
        }
    })
    .unwrap();
}
