//! Memory-observability drills: the store ledger tag reconciling
//! byte-for-byte with the resilient store's live inventory through save /
//! delete / restore / kill cycles, the memory bound of a checkpointing run:
//! the heap stays flat from checkpoint to checkpoint and the buffer pool
//! parks no more than its budget, and a GNMF step's kernels allocating no
//! block-sized buffer.
//!
//! The ledger and the allocator counters are process-global, so the tests
//! here serialize on one mutex and this binary keeps the whole process to
//! itself (integration tests each run as their own process).

use std::sync::Mutex;

use apgas::runtime::{Runtime, RuntimeConfig};
use resilient_gml::core::{each_place, DupOperand, FailureInjector};
use resilient_gml::prelude::*;

/// Serializes the tests: they read process-global state (the memory
/// ledger, the allocator counters), so they must not interleave.
static PROCESS_STATE: Mutex<()> = Mutex::new(());

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
        // Re-cut for the three survivors (a shrink without rebalance would
        // keep four segments, one survivor holding two).
        let survivors = world.without(&[Place::new(2)]);
        dv.remake(ctx, &survivors, true).unwrap();
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

/// Rows of each of the read-only matrix's four blocks: 2 MiB of values per
/// block, so a block dwarfs what a checkpoint allocates besides.
const RO_ROWS: usize = 16_384;
/// Columns of the read-only matrix.
const RO_COLS: usize = 16;

/// A read-only matrix of values nothing packs, beside a small mutable vector.
struct ReadOnlyBeside {
    x: DistBlockMatrix,
    v: DupVector,
}

impl ResilientIterativeApp for ReadOnlyBeside {
    fn is_finished(&self, _ctx: &Ctx, iteration: u64) -> bool {
        iteration >= 1
    }

    fn step(&mut self, ctx: &Ctx, _iteration: u64) -> GmlResult<()> {
        self.v.apply(ctx, |v| v.as_mut_slice().iter_mut().for_each(|x| *x = *x * 1.0001 + 0.3))
    }

    fn state(&mut self) -> AppState<'_> {
        AppState::default().read_only("x", &mut self.x).mutable("v", &mut self.v)
    }
}

/// A read-only matrix of `RO_ROWS`-row blocks of values nothing packs, one
/// block per place of `g`, beside a small mutable vector.
fn read_only_beside(ctx: &Ctx, g: &PlaceGroup) -> ReadOnlyBeside {
    let n = g.len();
    let x = DistBlockMatrix::make(ctx, n * RO_ROWS, RO_COLS, n, 1, n, 1, g, false).unwrap();
    x.init_with(ctx, |_, _, r0, _, r, c| {
        let noise = |i: usize| (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) as f64;
        BlockData::Dense(DenseMatrix::from_vec(r, c, (r0..r0 + r * c).map(noise).collect()))
    })
    .unwrap();
    let v = DupVector::make(ctx, 64, g).unwrap();
    v.init(ctx, |i| i as f64).unwrap();
    ReadOnlyBeside { x, v }
}

/// The stored placement of a read-only snapshot, as the store holds it:
/// each block's first replica is the block itself — a handle the store
/// holds on the live block's own allocation — beside one frame on another
/// live place; or, with `twice`, two frames per block of a re-cut matrix's
/// old layout, on two live places. Every entry is fully redundant, and the
/// store holds nothing else but the mutable vector's two copies.
fn assert_stored(ctx: &Ctx, store: &AppResilientStore, x: &DistBlockMatrix, twice: bool) {
    let snap = store.snapshot_of(x.object_id()).unwrap();
    for (key, loc) in snap.entries.iter() {
        assert!(loc.backup != loc.owner, "block {key}: {loc:?}");
        assert!(ctx.is_alive(loc.owner) && ctx.is_alive(loc.backup), "block {key}: {loc:?}");
    }
    let audit = store.store().audit_snapshot(ctx, &snap);
    assert_eq!((audit.fully_redundant, audit.entries), (4, 4), "{audit:?}");
    assert!(audit.invariant_ok(), "{audit:?}");
    // The other side of each handle: every block the matrix holds is held
    // by the store, or, once re-cut, by nothing else.
    let h = x.handle();
    let held = each_place(ctx, x.group().iter().enumerate(), move |ctx, _| {
        Ok(h.local(ctx)?.lock().iter_shared().map(|b| b.is_held()).collect::<Vec<_>>())
    });
    let held: Vec<bool> = held.unwrap().into_iter().flatten().collect();
    assert!(held.iter().all(|&h| h != twice), "blocks held by the store: {held:?}");
    let entries: usize = store.store().inventory(ctx).iter().map(|p| p.entries).sum();
    let frames = if twice { 2 * 4 } else { 4 };
    assert_eq!(entries, frames + 2, "the matrix's frames, and the vector twice");
}

/// A read-only object is stored once: its live blocks are the owner
/// replicas, held by the store. After the first checkpoint settles each
/// block has one stored frame, on another place, and the heap has grown by
/// that replica and at most one block in flight — not by two replicas. A
/// kill under each mode, the restore and the repair copy no block and leave
/// the same placement (but for shrink-rebalance, which re-cuts the matrix:
/// its old blocks are then kept twice, like a mutable object's), ledger and
/// inventory agreeing, and the failure-free values.
#[test]
fn a_read_only_object_is_stored_once() {
    let _guard = PROCESS_STATE.lock().unwrap();
    if !mem::enabled() {
        return;
    }
    for mode in [
        RestoreMode::Shrink,
        RestoreMode::ShrinkRebalance,
        RestoreMode::ReplaceRedundant,
        RestoreMode::ReplaceElastic,
    ] {
        Runtime::run(RuntimeConfig::new(4).spares(1).resilient(true), move |ctx| {
            let g = ctx.world();
            let mut app = read_only_beside(ctx, &g);
            let x_values = app.x.gather_dense(ctx).unwrap();
            let v_values = app.v.read_local(ctx).unwrap();
            let mut store = AppResilientStore::make(ctx).unwrap();
            store.set_overlap(true);

            let before = mem::heap_bytes();
            app.checkpoint(ctx, &mut store).unwrap();
            store.drain(ctx).unwrap();
            let rise = mem::heap_bytes().saturating_sub(before);
            assert_stored(ctx, &store, &app.x, false);
            let wire: Vec<u64> =
                store.store().inventory(ctx).iter().map(|p| p.wire_bytes).collect();
            // A block's frame: its values, 57 B of block metadata and a head;
            // each place keeps its predecessor's.
            let block = wire[2];
            assert!(block > (RO_ROWS * RO_COLS * 8) as u64, "{wire:?}");
            assert!(rise < 4 * block + block, "{mode:?}: heap +{rise} B (block {block} B)");

            let copies = resilient_gml::matrix::shared::forced_copies();
            let dead = [Place::new(2)];
            ctx.kill_place(dead[0]).unwrap();
            let (group, rebalance) = match mode {
                RestoreMode::Shrink => (g.without(&dead), false),
                RestoreMode::ShrinkRebalance => (g.without(&dead), true),
                RestoreMode::ReplaceRedundant => {
                    (g.replace(&dead, &ctx.live_spares()).unwrap(), false)
                }
                RestoreMode::ReplaceElastic => {
                    (g.replace(&dead, &[ctx.spawn_place().unwrap()]).unwrap(), false)
                }
            };
            app.restore(ctx, &group, &mut store, 0, rebalance).unwrap();
            store.repair(ctx, &group).unwrap();
            let copied = resilient_gml::matrix::shared::forced_copies() - copies;
            assert_eq!(copied, 0, "{mode:?}: the recovery copied a block the store holds");
            assert_stored(ctx, &store, &app.x, rebalance);
            let inventory: u64 = store.store().inventory(ctx).iter().map(|p| p.wire_bytes).sum();
            assert_eq!(mem::current(MemTag::StoreShard), inventory, "{mode:?}: ledger");
            assert_eq!(app.x.gather_dense(ctx).unwrap(), x_values, "{mode:?}");
            assert_eq!(app.v.read_local(ctx).unwrap(), v_values, "{mode:?}");
        })
        .unwrap();
    }
}

/// A shrink moves only what the failure took: with a read-only matrix of
/// one 2 MiB block per place on four places, losing place 2 leaves every
/// survivor's block where it is, rebuilds block 2 at place 3 — the dead
/// place's successor — from the frame there, and the repair serializes
/// block 1 (its frame died) and moves block 2's frame on to place 0. That
/// block and that frame take the room the dead place's block and frame
/// left, so the heap's peak rises over its pre-kill level by slack alone
/// (17 KB), under a quarter of a block; a block-cyclic re-map over the
/// survivors also rebuilds block 3 at place 0 before place 3 drops its
/// own, and lifts the peak by a whole block. The ledger still equals the
/// inventory, and the values are the failure-free ones.
#[test]
fn a_shrink_rebuilds_only_the_dead_places_block() {
    let _guard = PROCESS_STATE.lock().unwrap();
    if !mem::enabled() {
        return;
    }
    Runtime::run(RuntimeConfig::new(4).resilient(true), |ctx| {
        let g = ctx.world();
        let mut app = read_only_beside(ctx, &g);
        let x_values = app.x.gather_dense(ctx).unwrap();
        let mut store = AppResilientStore::make(ctx).unwrap();
        app.checkpoint(ctx, &mut store).unwrap();
        store.drain(ctx).unwrap();
        let block = (RO_ROWS * RO_COLS * 8) as u64;
        let dead = [Place::new(2)];
        let survivors = g.without(&dead);
        let rise = peak_rise(|| {
            ctx.kill_place(dead[0]).unwrap();
            app.restore(ctx, &survivors, &mut store, 0, false).unwrap();
            store.repair(ctx, &survivors).unwrap();
        });
        assert!(rise < block / 4, "kill, restore and repair: peak +{rise} B (block {block} B)");
        assert_eq!(mem::current(MemTag::StoreShard), inventory_bytes(ctx, &store), "ledger");
        assert_eq!(app.x.gather_dense(ctx).unwrap(), x_values);
    })
    .unwrap();
}

/// Rows of a tall operand per place: GNMF's, so that a 32-column block
/// holds 5 MB.
const TALL: usize = 20_000;
/// Columns of the tall operands (GNMF's rank).
const RANK: usize = 32;
/// Columns of the sparse matrix the GNMF-shaped drill factorises.
const WIDE: usize = 400;
/// What one kernel call may add to the heap's peak: a fifth of a block.
const MIB: u64 = 1 << 20;

/// How far `f` lifts the heap's peak above the live heap it starts from.
/// A ballast first lifts the live heap to the peak so far, so that any
/// transient `f` allocates raises the peak, whatever ran before.
fn peak_rise(f: impl FnOnce()) -> u64 {
    let gap = mem::heap_peak_bytes().saturating_sub(mem::heap_bytes());
    let ballast = Vec::<u8>::with_capacity(gap as usize);
    let before = mem::heap_peak_bytes();
    f();
    let rise = mem::heap_peak_bytes() - before;
    drop(ballast);
    rise
}

/// The packed GEMMs pack bounded panels: with its operands allocated, one
/// call at GNMF's per-place shapes — `W·(H·Hᵀ)` into a 5 MB block, and
/// the `WᵀW` partial over 20 000 rows — raises the heap's peak by less
/// than 1 MiB, where packing the whole tall operand took 5 MB.
#[test]
fn a_gemm_packs_bounded_panels() {
    let _guard = PROCESS_STATE.lock().unwrap();
    if !mem::enabled() {
        return;
    }
    let w = builder::random_dense(TALL, RANK, 1);
    let hht = builder::random_dense(RANK, RANK, 2);
    let mut whh = DenseMatrix::zeros(TALL, RANK);
    let rise = peak_rise(|| w.gemm(1.0, &hht, 0.0, &mut whh));
    assert!(rise < MIB, "gemm {TALL}x{RANK}·{RANK}x{RANK}: peak +{rise} B");
    let mut wtw = DenseMatrix::zeros(RANK, RANK);
    let rise = peak_rise(|| w.gemm_tn_acc(&whh, &mut wtw));
    assert!(rise < MIB, "gemm_tn_acc {TALL}x{RANK}ᵀ·{TALL}x{RANK}: peak +{rise} B");
}

/// The address of the values of each of the dense matrix `x`'s blocks,
/// per place.
fn block_addresses(ctx: &Ctx, x: &DistBlockMatrix) -> Vec<Vec<usize>> {
    let h = x.handle();
    each_place(ctx, x.group().iter().enumerate(), move |ctx, _| {
        let set = h.local(ctx)?;
        let set = set.lock();
        let address = |b: &MatrixBlock| match &b.data {
            BlockData::Dense(d) => d.as_slice().as_ptr() as usize,
            BlockData::Sparse(_) => unreachable!("the output is dense"),
        };
        Ok(set.iter().map(address).collect())
    })
    .unwrap()
}

/// `mult_dup_into` writes each product into its output block: with GNMF's
/// per-place shapes on two places (5 MB output blocks), each of GNMF's two
/// products raises the heap's peak by less than 1 MiB and leaves every
/// output block's buffer where it was. A block of another shape, as a
/// remake over another grid leaves, is replaced, and gets the same values.
#[test]
fn mult_dup_into_writes_into_its_output_blocks() {
    let _guard = PROCESS_STATE.lock().unwrap();
    if !mem::enabled() {
        return;
    }
    Runtime::run(RuntimeConfig::new(2).resilient(true), |ctx| {
        let g = ctx.world();
        let v = DistBlockMatrix::make(ctx, 2 * TALL, WIDE, 2, 1, 2, 1, &g, true).unwrap();
        v.init_with(ctx, |_, _, r0, _, r, c| {
            BlockData::Sparse(builder::random_csr_rows(c, 10, 3, r0, r0 + r))
        })
        .unwrap();
        let v_rows = builder::random_csr_rows(WIDE, 10, 3, 0, 2 * TALL);
        let w = DistBlockMatrix::make(ctx, 2 * TALL, RANK, 2, 1, 2, 1, &g, false).unwrap();
        w.init_with(ctx, |_, _, r0, _, r, c| {
            BlockData::Dense(builder::random_dense(r, c, 4 + r0 as u64))
        })
        .unwrap();
        let h = DupDenseMatrix::make(ctx, RANK, WIDE, &g).unwrap();
        h.init(ctx, |i, j| 1.0 / (1.0 + (i * WIDE + j) as f64)).unwrap();
        let out = DistBlockMatrix::make(ctx, 2 * TALL, RANK, 2, 1, 2, 1, &g, false).unwrap();
        let hd = h.local(ctx).unwrap().lock().clone();

        for (x, operand) in [(&v, DupOperand::Transpose), (&w, DupOperand::Gram)] {
            let held = block_addresses(ctx, &out);
            let rise = peak_rise(|| x.mult_dup_into(ctx, &out, &h, operand).unwrap());
            assert!(rise < MIB, "{operand:?}: peak +{rise} B");
            assert_eq!(block_addresses(ctx, &out), held, "{operand:?}: an output block moved");
            // The product a freshly allocated block gets, bit for bit.
            let want = match operand {
                DupOperand::Gram => {
                    let mut hht = DenseMatrix::zeros(RANK, RANK);
                    hd.gemm(1.0, &hd.transpose(), 0.0, &mut hht);
                    let mut whh = DenseMatrix::zeros(2 * TALL, RANK);
                    w.gather_dense(ctx).unwrap().gemm(1.0, &hht, 0.0, &mut whh);
                    whh
                }
                _ => v_rows.spmm(&hd.transpose()),
            };
            let got = out.gather_dense(ctx).unwrap();
            assert_eq!(got, want, "{operand:?}");

            // Every output block of another shape: recomputed bit for bit.
            let oh = out.handle();
            each_place(ctx, g.iter().enumerate(), move |ctx, _| {
                for b in oh.local(ctx)?.lock().iter_mut() {
                    b.data = BlockData::Dense(DenseMatrix::zeros(1, RANK + 1));
                }
                Ok(())
            })
            .unwrap();
            x.mult_dup_into(ctx, &out, &h, operand).unwrap();
            assert_eq!(out.gather_dense(ctx).unwrap(), got, "{operand:?}: re-shaped blocks");
        }
    })
    .unwrap();
}

/// GNMF's W update forms its products a row panel at a time: with GNMF's
/// per-place shapes on two places (5 MB `W` blocks), one `nmf_update`
/// raises the heap's peak by less than 1 MiB — where the products it
/// replaced took two m×k matrices — and, with no capture holding `W`,
/// leaves every `W` block's buffer where it was, holding the update the
/// whole products give.
#[test]
fn nmf_update_updates_w_where_it_lies() {
    let _guard = PROCESS_STATE.lock().unwrap();
    if !mem::enabled() {
        return;
    }
    Runtime::run(RuntimeConfig::new(2).resilient(true), |ctx| {
        let g = ctx.world();
        let eps = 1e-9;
        let v = DistBlockMatrix::make(ctx, 2 * TALL, WIDE, 2, 1, 2, 1, &g, true).unwrap();
        v.init_with(ctx, |_, _, r0, _, r, c| {
            BlockData::Sparse(builder::random_csr_rows(c, 10, 3, r0, r0 + r))
        })
        .unwrap();
        let v_rows = builder::random_csr_rows(WIDE, 10, 3, 0, 2 * TALL);
        let w = DistBlockMatrix::make(ctx, 2 * TALL, RANK, 2, 1, 2, 1, &g, false).unwrap();
        w.init_with(ctx, |_, _, r0, _, r, c| {
            BlockData::Dense(builder::random_dense(r, c, 4 + r0 as u64))
        })
        .unwrap();
        let h = DupDenseMatrix::make(ctx, RANK, WIDE, &g).unwrap();
        h.init(ctx, |i, j| 1.0 / (1.0 + (i * WIDE + j) as f64)).unwrap();
        let hd = h.local(ctx).unwrap().lock().clone();
        let mut want = w.gather_dense(ctx).unwrap();

        let held = block_addresses(ctx, &w);
        let rise = peak_rise(|| w.nmf_update(ctx, &v, &h, eps).unwrap());
        assert!(rise < MIB, "nmf_update: peak +{rise} B");
        assert_eq!(block_addresses(ctx, &w), held, "a W block moved");

        let mut hht = DenseMatrix::zeros(RANK, RANK);
        hd.gemm(1.0, &hd.transpose(), 0.0, &mut hht);
        let mut whh = DenseMatrix::zeros(2 * TALL, RANK);
        want.gemm(1.0, &hht, 0.0, &mut whh);
        want.cell_mult(&v_rows.spmm(&hd.transpose()));
        want.cell_div_guarded(&whh, eps);
        assert_eq!(w.gather_dense(ctx).unwrap(), want);
    })
    .unwrap();
}

/// A capture holds its objects by reference: at GNMF's per-place shapes on
/// two places — `W`'s 5 MB dense blocks and the duplicated `H` — saving
/// both raises the heap's peak by less than 1 MiB, where serializing them
/// took a block per place. The commit's ship serializes them.
#[test]
fn a_capture_serializes_nothing() {
    let _guard = PROCESS_STATE.lock().unwrap();
    if !mem::enabled() {
        return;
    }
    Runtime::run(RuntimeConfig::new(2).resilient(true), |ctx| {
        let g = ctx.world();
        let w = DistBlockMatrix::make(ctx, 2 * TALL, RANK, 2, 1, 2, 1, &g, false).unwrap();
        w.init_with(ctx, |_, _, r0, _, r, c| {
            BlockData::Dense(builder::random_dense(r, c, 4 + r0 as u64))
        })
        .unwrap();
        let h = DupDenseMatrix::make(ctx, RANK, WIDE, &g).unwrap();
        h.init(ctx, |i, j| 1.0 / (1.0 + (i * WIDE + j) as f64)).unwrap();
        let mut store = AppResilientStore::make(ctx).unwrap();
        store.start_new_snapshot();
        let rise = peak_rise(|| {
            store.save(ctx, &w).unwrap();
            store.save(ctx, &h).unwrap();
        });
        assert!(rise < MIB, "capture: peak +{rise} B");
        store.commit(ctx).unwrap();
        let stored: u64 = store.store().inventory(ctx).iter().map(|p| p.bytes).sum();
        let saved = [&w as &dyn Snapshottable, &h].map(|o| store.snapshot_of(o.object_id()).unwrap());
        let saved: usize = saved.iter().map(|s| s.total_bytes()).sum();
        assert_eq!(stored, 2 * saved as u64, "the commit's ship stored both replicas");
    })
    .unwrap();
}

/// PageRank's link matrix per place (131 072 nodes over four places):
/// 32 768 rows of 131 072 columns, 50 entries a row on average.
const LINK_ROWS: usize = 32_768;
/// Columns of the link matrix: its nodes.
const LINK_NODES: usize = 131_072;

/// A packed frame is made from its value: at PageRank's per-place shape a
/// read-only block's save, commit and ship raise the heap's peak by less
/// than a quarter of the block's serialized size — its packed frame, about
/// 15 % of it, and the passes' chunk-sized buffers — where serializing the
/// block first took the whole block again. The other place's block has no
/// entries, so that the one block framed is the one the rise is held to.
#[test]
fn a_packed_frame_is_made_from_its_value() {
    let _guard = PROCESS_STATE.lock().unwrap();
    if !mem::enabled() {
        return;
    }
    Runtime::run(RuntimeConfig::new(2).resilient(true), |ctx| {
        let g = ctx.world();
        let x = DistBlockMatrix::make(ctx, 2 * LINK_ROWS, LINK_NODES, 2, 1, 2, 1, &g, true).unwrap();
        x.init_with(ctx, |bi, _, r0, _, r, c| {
            BlockData::Sparse(match bi {
                0 => builder::link_matrix_rows(LINK_NODES, 50, 7, r0, r0 + r),
                _ => SparseCSR::zeros(r, c),
            })
        })
        .unwrap();
        let mut store = AppResilientStore::make(ctx).unwrap();
        store.start_new_snapshot();
        let rise = peak_rise(|| {
            store.save_read_only(ctx, &x).unwrap();
            store.commit(ctx).unwrap();
        });
        let snap = store.snapshot_of(x.object_id()).unwrap();
        let block = snap.entries.values().map(|loc| loc.len).max().unwrap() as u64;
        assert!(block > (LINK_ROWS * 50 * 16) as u64 * 9 / 10, "block {block} B");
        assert!(rise < block / 4, "save, commit and ship: peak +{rise} B (block {block} B)");
        let inventory = inventory_bytes(ctx, &store);
        assert_eq!(mem::current(MemTag::StoreShard), inventory, "ledger != inventory");
    })
    .unwrap();
}
