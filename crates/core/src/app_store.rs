//! The application resilient store (`AppResilientStore`, Listing 4).
//!
//! A coherent application checkpoint is a set of object snapshots taken
//! **atomically**: the new application snapshot is valid only once every
//! `save` succeeded and `commit` was called; any failure in between cancels
//! the whole attempt and the previous committed snapshot remains the
//! recovery point. With coordinated checkpointing only one committed
//! snapshot needs to be retained — `commit` deletes the previous one —
//! except that **read-only** objects' snapshots are shared across
//! application snapshots (`save_read_only`), which is why the paper's
//! PageRank checkpoints are so much cheaper than a full re-save. A read-only
//! object is also framed only once: it is captured like any other object,
//! and its ship frames each held block for the backup alone and keeps the
//! owner's handle on the block as the owner replica
//! ([`Snapshot::read_only`]). A restore that re-cuts a read-only object
//! leaves none of its blocks under a saved key, and the repair then keeps
//! that snapshot framed twice, like a mutable one's.
//!
//! After a failure the committed snapshot is still the state the
//! application rolled back to, only short of a replica for the entries the
//! dead place held. [`AppResilientStore::repair`] re-replicates exactly
//! those; the executor calls it at the end of every recovery, so the next
//! `save_read_only` reuses the snapshot as before. A direct user of this
//! store that restores without repairing gets the older behaviour: the
//! degraded snapshot is refused for reuse and the object re-saved.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use apgas::prelude::*;

use crate::error::{GmlError, GmlResult};
use crate::snapshot::{Snapshot, Snapshottable};
use crate::store::{wait_while_set, RepairReport, ResilientStore, ShipOrder};

/// One committed (or in-flight) application snapshot.
#[derive(Clone)]
struct AppSnapshot {
    /// The iteration this snapshot captures.
    iteration: u64,
    /// Object id → that object's snapshot.
    map: HashMap<u64, Snapshot>,
    /// snap_ids inherited from the previous application snapshot
    /// (read-only reuse) — not to be deleted when that snapshot retires.
    reused: HashSet<u64>,
    /// Store-id watermark at `start_new_snapshot`: every snap id this
    /// attempt allocated lies in `first_snap_id..end_snap_id` (the end is
    /// stamped at commit; `u64::MAX` while the attempt is open). The range
    /// lets cancellation delete ids burned by saves that failed *before*
    /// their snapshot entered `map`.
    first_snap_id: u64,
    end_snap_id: u64,
}

/// One background ship: executes a saved object's backup transfers,
/// returning the first error and its busy time.
type ShipTask = Helper<(GmlResult<()>, Duration)>;

/// Driver-side coordinator for atomic application checkpoints.
///
/// Checkpoints are **two-phase**: `save` runs only the short synchronous
/// *capture* phase, which copies nothing: under the object lock each owner
/// keeps a handle on its values, and the object's next write copies a value
/// away from its handle instead ([`gml_matrix::Shared`]). The rest, read off
/// the resulting snapshot as [`ShipOrder`]s, runs on background threads
/// started by `commit` — the *ship* phase, which serializes each held value
/// at its owner, frames it there ([`crate::codec`]), keeps the frame in the
/// handle's place and ships it. The ships start only once every object is
/// captured, so no capture competes with a ship for the places' CPUs; the
/// sooner a ship is done, the fewer values a step's writes copy. With
/// overlap off (the
/// default) `commit` is the barrier that drains this snapshot's own ships,
/// failing atomically if one of them hit a dead place. With overlap on (the
/// executor's default) `commit` promotes the snapshot optimistically and the
/// ships keep running while the next iterations compute; the *next* settle
/// point (commit, [`drain`](Self::drain), or a recovery) becomes the barrier.
pub struct AppResilientStore {
    store: ResilientStore,
    committed: Option<AppSnapshot>,
    /// Committed by the application but with backup ships possibly still in
    /// flight (overlap mode). Becomes `committed` once its ships settle.
    provisional: Option<AppSnapshot>,
    provisional_ships: Vec<ShipTask>,
    pending: Option<AppSnapshot>,
    /// The pending snapshot's backup transfers, one list per saved object;
    /// `commit` starts a ship thread for each.
    pending_orders: Vec<Vec<ShipOrder>>,
    current_iteration: u64,
    /// When true, `commit` defers the ship barrier to the next settle point
    /// so backup transfers overlap with compute. Off by default so direct
    /// users see the classic synchronous commit; the executor turns it on.
    overlap: bool,
    /// Error from a failed provisional settle, surfaced by the next commit.
    deferred_error: Option<GmlError>,
    capture_time: Duration,
    ship_time: Duration,
    ship_gate: Option<Arc<AtomicBool>>,
}

/// Start the ship phase for one saved object: its backup transfers run on
/// one of the runtime's cached threads ([`Ctx::spawn_helper`]) while the
/// driver goes on computing. Every order is attempted: one that fails on a
/// dead place must not leave an unrelated pair's entries short of the
/// replica the snapshot records — a settle promotes the snapshot when
/// nothing is lost, and a repair re-replicates only entries with a dead side.
fn spawn_ship(
    ctx: &Ctx,
    store: &ResilientStore,
    orders: Vec<ShipOrder>,
    gate: Option<Arc<AtomicBool>>,
) -> ShipTask {
    let store = store.clone();
    ctx.spawn_helper(move |ctx| {
        let t0 = Instant::now();
        wait_while_set(gate.as_deref());
        let mut first_err = None;
        for order in orders {
            if let Err(e) = store.execute_ship(ctx, order) {
                keep_actionable(&mut first_err, e);
            }
        }
        (first_err.map_or(Ok(()), Err), t0.elapsed())
    })
}

/// Keep the first error seen — preferring a recoverable (dead-place) one,
/// since that is what the executor can act on.
fn keep_actionable(first_err: &mut Option<GmlError>, e: GmlError) {
    if first_err.as_ref().is_none_or(|f| !f.is_recoverable() && e.is_recoverable()) {
        *first_err = Some(e);
    }
}

/// Join every ship task, accumulating busy time into `ship_time` and
/// returning the first error ([`keep_actionable`]).
fn drain_ships(ships: &mut Vec<ShipTask>, ship_time: &mut Duration) -> GmlResult<()> {
    let mut first_err: Option<GmlError> = None;
    for task in ships.drain(..) {
        match task.join() {
            Ok((res, busy)) => {
                *ship_time += busy;
                if let Err(e) = res {
                    keep_actionable(&mut first_err, e);
                }
            }
            Err(_) => {
                first_err
                    .get_or_insert_with(|| GmlError::shape("checkpoint ship thread panicked"));
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

impl AppResilientStore {
    /// Create the store over a [`ResilientStore`] (shards at every place,
    /// spares included): every entry kept twice, as self-contained
    /// checkpoint codec frames ([`crate::codec`]).
    pub fn make(ctx: &Ctx) -> GmlResult<Self> {
        Ok(AppResilientStore {
            store: ResilientStore::make(ctx)?,
            committed: None,
            provisional: None,
            provisional_ships: Vec::new(),
            pending: None,
            pending_orders: Vec::new(),
            current_iteration: 0,
            overlap: false,
            deferred_error: None,
            capture_time: Duration::ZERO,
            ship_time: Duration::ZERO,
            ship_gate: None,
        })
    }

    /// Toggle checkpoint/compute overlap (see the type docs). The executor
    /// sets this from [`ExecutorConfig`](crate::framework::ExecutorConfig).
    pub fn set_overlap(&mut self, overlap: bool) {
        self.overlap = overlap;
    }

    /// Test hook: while the gate is `true`, ship threads — and a
    /// [`repair`](Self::repair)'s planned transfers — park before executing,
    /// which lets failure drills deterministically kill a place "during the
    /// async ship phase" or "during the repair".
    #[doc(hidden)]
    pub fn set_ship_gate(&mut self, gate: Arc<AtomicBool>) {
        self.ship_gate = Some(gate);
    }

    /// Harvest and reset the accumulated capture/ship phase times. Capture
    /// is save-side wall time; ship is background-thread busy time,
    /// harvested when ships are *joined* — with overlap on, a checkpoint's
    /// ship time typically shows up at the next settle point.
    pub fn take_phases(&mut self) -> (Duration, Duration) {
        (
            std::mem::take(&mut self.capture_time),
            std::mem::take(&mut self.ship_time),
        )
    }

    /// The underlying key/value store.
    pub fn store(&self) -> &ResilientStore {
        &self.store
    }

    /// Tell the store which iteration the next snapshot captures (called by
    /// the executor before the application's `checkpoint` method runs).
    pub fn set_current_iteration(&mut self, iteration: u64) {
        self.current_iteration = iteration;
    }

    /// Begin a new application snapshot, discarding any uncommitted one.
    pub fn start_new_snapshot(&mut self) {
        self.pending_orders.clear();
        self.pending = Some(AppSnapshot {
            iteration: self.current_iteration,
            map: HashMap::new(),
            reused: HashSet::new(),
            first_snap_id: self.store.peek_next_id(),
            end_snap_id: u64::MAX,
        });
    }

    /// Snapshot `obj` into the pending application snapshot.
    ///
    /// This is the **capture** phase only: under its lock the object hands
    /// its owners a handle on each value, through a capture-only handle on
    /// the store; serializing and shipping them is queued for the ship thread
    /// that [`commit`](Self::commit) starts.
    pub fn save(&mut self, ctx: &Ctx, obj: &dyn Snapshottable) -> GmlResult<()> {
        self.capture(ctx, obj, false)
    }

    /// [`save`](Self::save), or for a `read_only` object its first save: the
    /// same capture, whose ship keeps the held blocks as the owner replicas
    /// ([`Snapshot::read_only`]).
    fn capture(&mut self, ctx: &Ctx, obj: &dyn Snapshottable, read_only: bool) -> GmlResult<()> {
        // Checked before anything is allocated: without an open attempt
        // there is no watermark, so nothing `make_snapshot` inserted could
        // ever be reclaimed by `cancel_snapshot`.
        if self.pending.is_none() {
            return Err(GmlError::shape("save() before start_new_snapshot()"));
        }
        let t0 = Instant::now();
        let result = obj.make_snapshot(ctx, &self.store.capturing());
        self.capture_time += t0.elapsed();
        // A failed capture yields no snapshot and so no order; the watermark
        // in `cancel_snapshot` wipes the partial owner inserts.
        let snap = Snapshot { read_only, ..result? };
        let orders = self.store.ship_orders(&snap);
        if !orders.is_empty() {
            self.pending_orders.push(orders);
        }
        let pending = self.pending.as_mut().expect("checked on entry");
        pending.map.insert(obj.object_id(), snap);
        Ok(())
    }

    /// Snapshot `obj` unless a **fully redundant** snapshot of it exists in
    /// the committed application snapshot, in which case that one is reused
    /// (the paper's `saveReadOnly`). A snapshot that lost one replica to a
    /// failure and was not [repaired](Self::repair) — the executor repairs,
    /// a direct user of this store may not have — is *not* reused: it is
    /// re-saved, so that every committed checkpoint can absorb the next
    /// failure.
    ///
    /// A save frames one copy of each entry, the backup: the owner keeps
    /// its capture's handle on each of `obj`'s blocks as the owner replica,
    /// and the ship serializes one block at a time for the backup. `obj`
    /// must not change after its first save: a write copies a block away
    /// from the store's handle, and a recovery whose remake finds a block
    /// so copied, kept or given up, that differs from the handle's value
    /// fails, naming the object.
    pub fn save_read_only(&mut self, ctx: &Ctx, obj: &dyn Snapshottable) -> GmlResult<()> {
        // With overlap on, the newest committed state may still be the
        // provisional snapshot — reuse from it first so the reuse chain
        // stays inside the snapshot that will survive the next promotion.
        let newest = self.provisional.as_ref().or(self.committed.as_ref());
        let reusable = newest.and_then(|c| {
            c.map.get(&obj.object_id()).filter(|s| s.fully_redundant(ctx)).cloned()
        });
        match reusable {
            Some(snap) => {
                let pending = self
                    .pending
                    .as_mut()
                    .ok_or_else(|| GmlError::shape("save_read_only() before start_new_snapshot()"))?;
                pending.reused.insert(snap.snap_id);
                pending.map.insert(obj.object_id(), snap);
                Ok(())
            }
            None => self.capture(ctx, obj, true),
        }
    }

    /// Atomically promote the pending snapshot to committed and delete the
    /// retired one's entries (except those reused by the new snapshot).
    ///
    /// This is also the **barrier that drains in-flight ships**: it first
    /// settles the previous overlap-mode snapshot, surfacing any dead-place
    /// error its background ships hit; then, with overlap off, it joins this
    /// snapshot's own ships so a failed ship fails the commit atomically.
    pub fn commit(&mut self, ctx: &Ctx) -> GmlResult<()> {
        self.settle_provisional(ctx);
        if let Some(e) = self.deferred_error.take() {
            // The caller's cancel_snapshot will clean up the still-pending
            // attempt; the previous committed snapshot stays the recovery
            // point.
            return Err(e);
        }
        let mut pending = self
            .pending
            .take()
            .ok_or_else(|| GmlError::shape("commit() before start_new_snapshot()"))?;
        pending.end_snap_id = self.store.peek_next_id();
        let mut ships: Vec<ShipTask> = std::mem::take(&mut self.pending_orders)
            .into_iter()
            .map(|orders| spawn_ship(ctx, &self.store, orders, self.ship_gate.clone()))
            .collect();
        if self.overlap {
            self.provisional = Some(pending);
            self.provisional_ships = ships;
            return Ok(());
        }
        if let Err(e) = drain_ships(&mut ships, &mut self.ship_time) {
            // Put the attempt back so cancel_snapshot can clean it up.
            self.pending = Some(pending);
            return Err(e);
        }
        self.promote(ctx, pending);
        Ok(())
    }

    /// Join every in-flight ship of the provisional snapshot and either
    /// promote it to committed or, when payload was truly lost, discard it
    /// and stash the error for the next `commit`/`drain` to surface.
    fn settle_provisional(&mut self, ctx: &Ctx) {
        if self.provisional.is_none() && self.provisional_ships.is_empty() {
            return;
        }
        let mut ships = std::mem::take(&mut self.provisional_ships);
        let res = drain_ships(&mut ships, &mut self.ship_time);
        let Some(snap) = self.provisional.take() else {
            if let Err(e) = res {
                self.deferred_error.get_or_insert(e);
            }
            return;
        };
        match res {
            Ok(()) => self.promote(ctx, snap),
            Err(e) => {
                // A place died while this snapshot's backups were in
                // flight. If every entry still has a live replica, the end
                // state is identical to "the ships completed, then the
                // place died" — a degraded but coherent snapshot. Promote
                // it and let the failure surface through normal failure
                // detection. Only when payload was truly lost (an owner
                // died before its backups shipped) is the snapshot
                // discarded; the older committed one stays the recovery
                // point and the error is surfaced at the next settle call.
                let usable =
                    snap.map.values().all(|s| self.store.audit_snapshot(ctx, s).lost == 0);
                if usable {
                    self.promote(ctx, snap);
                } else {
                    let mut exclude = snap.reused.clone();
                    if let Some(p) = self.pending.as_ref() {
                        exclude.extend(p.reused.iter().copied());
                    }
                    self.delete_range(ctx, snap.first_snap_id, snap.end_snap_id, &exclude);
                    self.deferred_error.get_or_insert(e);
                }
            }
        }
    }

    /// Replace `committed` with `snap` and delete the retired snapshot's ids
    /// that the new one does not reuse.
    fn promote(&mut self, ctx: &Ctx, snap: AppSnapshot) {
        let Some(old) = self.committed.replace(snap) else {
            return;
        };
        let new = self.committed.as_ref().expect("just replaced");
        let dead: Vec<u64> =
            old.map.values().map(|s| s.snap_id).filter(|id| !new.reused.contains(id)).collect();
        // Deleting old checkpoints is best-effort cleanup; a failure here
        // must not fail the commit.
        let _ = self.store.delete_snapshots(ctx, &dead);
    }

    /// Best-effort delete of every snap id in `first..end` except `exclude`.
    fn delete_range(&self, ctx: &Ctx, first: u64, end: u64, exclude: &HashSet<u64>) {
        let dead: Vec<u64> = (first..end).filter(|id| !exclude.contains(id)).collect();
        let _ = self.store.delete_snapshots(ctx, &dead);
    }

    /// Barrier: settle the overlap-mode snapshot (joining its in-flight
    /// ships) and surface any deferred ship error. The executor calls this
    /// before reading the committed snapshot for a restore and at the end
    /// of a run.
    pub fn drain(&mut self, ctx: &Ctx) -> GmlResult<()> {
        self.settle_provisional(ctx);
        match self.deferred_error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Abort the pending snapshot, deleting any entries it created (but not
    /// reused read-only snapshots, which still belong to the committed one).
    pub fn cancel_snapshot(&mut self, ctx: &Ctx) {
        if let Some(pending) = self.pending.take() {
            // Its ships never started: their orders go with its entries.
            self.pending_orders.clear();
            // Watermark delete: every id the attempt allocated, including
            // ids burned by saves that failed before their snapshot entered
            // the map — previously those leaked partial inventory.
            let end = self.store.peek_next_id();
            self.delete_range(ctx, pending.first_snap_id, end, &pending.reused);
        }
    }

    /// True once a committed application snapshot exists.
    pub fn has_snapshot(&self) -> bool {
        self.committed.is_some()
    }

    /// The iteration captured by the committed snapshot.
    pub fn snapshot_iteration(&self) -> Option<u64> {
        self.committed.as_ref().map(|c| c.iteration)
    }

    /// The committed snapshot of one object.
    pub fn snapshot_of(&self, object_id: u64) -> GmlResult<Snapshot> {
        self.committed
            .as_ref()
            .and_then(|c| c.map.get(&object_id))
            .cloned()
            .ok_or_else(|| GmlError::data_loss(format!("no committed snapshot for object {object_id}")))
    }

    /// Every object snapshot in the committed application snapshot, sorted
    /// by snap id (for the flight recorder's redundancy audit).
    pub fn committed_snapshots(&self) -> Vec<Snapshot> {
        self.committed
            .as_ref()
            .map(|c| {
                let mut v: Vec<Snapshot> = c.map.values().cloned().collect();
                v.sort_by_key(|s| s.snap_id);
                v
            })
            .unwrap_or_default()
    }

    /// Re-replicate what a failure took from the committed application
    /// snapshot: every entry of it that is down to one live replica gets its
    /// stored frame copied to the holder's next place in `group` — the group
    /// the application continues on — and is fully redundant again under the
    /// snap id it always had; a read-only object's entry gets a frame apart
    /// from its held block, or, where the restore re-cut the object, is
    /// framed twice (see `ResilientStore`'s repair).
    /// Costs what the dead places held, whatever the application's size;
    /// with nothing degraded (a silent-error rollback) it does nothing.
    /// Errors as [`ResilientStore`]'s repair does: data loss when an entry
    /// has no live replica, a recoverable dead-place error — locations
    /// untouched but for copies already moved — when a place dies
    /// underneath it.
    pub fn repair(&mut self, ctx: &Ctx, group: &PlaceGroup) -> GmlResult<RepairReport> {
        let Some(committed) = self.committed.as_mut() else {
            return Ok(RepairReport::default());
        };
        let mut snaps: Vec<&mut Snapshot> = committed.map.values_mut().collect();
        snaps.sort_unstable_by_key(|s| s.snap_id);
        self.store.repair(ctx, &mut snaps, group, self.ship_gate.as_deref())
    }

    /// Restore every object in `objs` from the committed application
    /// snapshot (the paper's single `restore()` call restoring all saved
    /// GML objects).
    pub fn restore(&self, ctx: &Ctx, objs: &mut [&mut dyn Snapshottable]) -> GmlResult<()> {
        for obj in objs.iter_mut() {
            let snap = self.snapshot_of(obj.object_id())?;
            obj.restore_snapshot(ctx, &self.store, &snap)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist_vector::DistVector;
    use crate::dup_vector::DupVector;
    use crate::framework::{ExecutorConfig, ResilientExecutor, ResilientIterativeApp, RestoreMode};
    use apgas::runtime::{Runtime, RuntimeConfig};
    use std::sync::atomic::Ordering;

    fn run(places: usize, f: impl FnOnce(&Ctx) + Send + 'static) {
        Runtime::run(RuntimeConfig::new(places).resilient(true), f).unwrap();
    }

    #[test]
    fn checkpoint_commit_restore_cycle() {
        run(3, |ctx| {
            let g = ctx.world();
            let mut store = AppResilientStore::make(ctx).unwrap();
            let mut v = DupVector::make(ctx, 4, &g).unwrap();
            v.init(ctx, |i| i as f64).unwrap();

            store.set_current_iteration(10);
            store.start_new_snapshot();
            store.save(ctx, &v).unwrap();
            store.commit(ctx).unwrap();
            assert!(store.has_snapshot());
            assert_eq!(store.snapshot_iteration(), Some(10));

            v.apply(ctx, |x| x.fill(0.0)).unwrap();
            store.restore(ctx, &mut [&mut v]).unwrap();
            assert_eq!(v.read_local(ctx).unwrap().as_slice(), &[0.0, 1.0, 2.0, 3.0]);
        });
    }

    #[test]
    fn save_requires_open_snapshot_and_leaves_nothing_behind() {
        run(2, |ctx| {
            let g = ctx.world();
            let mut store = AppResilientStore::make(ctx).unwrap();
            let v = DupVector::make(ctx, 2, &g).unwrap();
            let next_id = store.store().peek_next_id();
            assert!(matches!(store.save(ctx, &v), Err(GmlError::Shape(_))));
            assert!(matches!(store.save_read_only(ctx, &v), Err(GmlError::Shape(_))));
            // Refused before a snap id was allocated or an owner copy
            // inserted: with no open attempt there is no watermark, so
            // `cancel_snapshot` could not have reclaimed either.
            assert_eq!(store.store().peek_next_id(), next_id);
            for shard in store.store().inventory(ctx) {
                assert_eq!((shard.entries, shard.wire_bytes), (0, 0), "{shard:?}");
            }
            assert!(store.commit(ctx).is_err());
        });
    }

    #[test]
    fn commit_deletes_previous_snapshot_entries() {
        run(2, |ctx| {
            let g = ctx.world();
            let mut store = AppResilientStore::make(ctx).unwrap();
            let v = DupVector::make(ctx, 2, &g).unwrap();

            store.start_new_snapshot();
            store.save(ctx, &v).unwrap();
            store.commit(ctx).unwrap();
            let first = store.snapshot_of(v.object_id()).unwrap();

            store.start_new_snapshot();
            store.save(ctx, &v).unwrap();
            store.commit(ctx).unwrap();

            // The first snapshot's payload must be gone.
            assert!(first.fetch(ctx, store.store(), 0).is_err());
            // The new one is intact.
            let second = store.snapshot_of(v.object_id()).unwrap();
            assert!(second.fetch(ctx, store.store(), 0).is_ok());
        });
    }

    /// A read-only ramp (its frames pack) beside noise rewritten every step
    /// (its frame is verbatim). After every commit it holds the store to the
    /// generation invariant and records what the store then holds.
    struct TwoObjectApp {
        x: DistVector,
        v: DupVector,
        total_iters: u64,
        kill_at: Option<(u64, Place)>,
        /// Per checkpoint: the snap ids of `x` and `v`, and the store's
        /// entries, logical bytes and wire bytes over all live places.
        checkpoints: Vec<([u64; 2], [u64; 3])>,
    }

    /// Element `i` of a vector nothing packs in — every mantissa bit random
    /// — and different in every version.
    fn noise(i: usize, version: u64) -> f64 {
        let h = (i as u64 ^ version << 40).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h ^ h >> 29) as f64 / u64::MAX as f64
    }

    /// How many frames of `snap`'s entries `place` should hold, and their
    /// logical bytes: an entry's first replica is a frame unless the store
    /// holds the block itself there.
    fn held_at(ctx: &Ctx, store: &ResilientStore, snap: &Snapshot, place: Place) -> (usize, u64) {
        let copies = |(&key, e): (&u64, &crate::snapshot::EntryLoc)| {
            let block = e.owner == place && store.held_at(ctx, place, snap.snap_id, key).is_some();
            let frames = usize::from(e.owner == place && !block)
                + usize::from(e.backup == place && e.backup != e.owner);
            (frames, (e.len * frames) as u64)
        };
        snap.entries.iter().map(copies).fold((0, 0), |(n, b), (m, c)| (n + m, b + c))
    }

    /// Every live place holds exactly the replicas the committed object
    /// snapshots record there — nothing of a retired generation, of a
    /// cancelled attempt or of a repair gone astray, and nothing missing.
    /// Every entry whose places are alive has both its replicas; a first
    /// replica the store holds as a block is the block its object holds;
    /// every other replica is a frame (the store is
    /// `AppResilientStore::make`'s), and the two frames of an entry are
    /// bit-identical. Returns the store's entries, logical bytes and wire
    /// bytes.
    fn assert_holds_exactly_the_committed_generation(
        ctx: &Ctx,
        store: &AppResilientStore,
    ) -> [u64; 3] {
        let snaps = store.committed_snapshots();
        let mut totals = [0; 3];
        for inv in store.store().inventory(ctx).iter().filter(|inv| inv.alive) {
            let held: Vec<(usize, u64)> =
                snaps.iter().map(|s| held_at(ctx, store.store(), s, inv.place)).collect();
            let entries: usize = held.iter().map(|h| h.0).sum();
            let snapshots = held.iter().filter(|h| h.0 > 0).count();
            let bytes: u64 = held.iter().map(|h| h.1).sum();
            assert_eq!((inv.entries, inv.snapshots, inv.bytes), (entries, snapshots, bytes), "{inv:?}");
            totals[0] += inv.entries as u64;
            totals[1] += inv.bytes;
            totals[2] += inv.wire_bytes;
        }
        for snap in &snaps {
            let audit = store.store().audit_snapshot(ctx, snap);
            let alive = |e: &&crate::snapshot::EntryLoc| ctx.is_alive(e.owner) && ctx.is_alive(e.backup);
            let whole = snap.entries.values().filter(alive);
            assert_eq!((audit.fully_redundant, audit.lost), (whole.count(), 0), "{audit:?}");
            assert!(audit.invariant_ok(), "{audit:?}");
            for (&key, e) in snap.entries.iter() {
                let at = format!("snapshot {} key {key}", snap.snap_id);
                let block = store.store().held_at(ctx, e.owner, snap.snap_id, key);
                assert!(block.is_none_or(|live| live), "{at}: a held block its object gave up");
                let stored = [(e.owner, block.is_none()), (e.backup, e.backup != e.owner)];
                let held = stored.into_iter().filter(|&(p, copy)| copy && ctx.is_alive(p));
                let copies: Vec<_> = held
                    .map(|(p, _)| store.store().stored_at(ctx, p, snap.snap_id, key).expect("counted"))
                    .collect();
                assert!(copies.iter().all(|c| c.head.is_some()), "{at}: a replica is not framed");
                if let [a, b] = &copies[..] {
                    assert!(a.head == b.head && a.body == b.body, "{at}: the replicas differ");
                }
            }
        }
        totals
    }

    impl ResilientIterativeApp for TwoObjectApp {
        fn is_finished(&self, _ctx: &Ctx, iteration: u64) -> bool {
            iteration >= self.total_iters
        }

        fn step(&mut self, ctx: &Ctx, iteration: u64) -> GmlResult<()> {
            if let Some((_, victim)) = self.kill_at.take_if(|(at, _)| *at == iteration) {
                ctx.kill_place(victim)?;
            }
            self.v.init(ctx, move |i| noise(i, iteration + 1))
        }

        fn state(&mut self) -> crate::AppState<'_> {
            crate::AppState::default().read_only("x", &mut self.x).mutable("v", &mut self.v)
        }

        fn checkpoint(&mut self, ctx: &Ctx, store: &mut AppResilientStore) -> GmlResult<()> {
            self.state().checkpoint(ctx, store)?;
            if !store.overlap {
                // The commit has settled: the retired generation is gone.
                let ids = [&self.x as &dyn Snapshottable, &self.v]
                    .map(|obj| store.snapshot_of(obj.object_id()).unwrap().snap_id);
                let totals = assert_holds_exactly_the_committed_generation(ctx, store);
                self.checkpoints.push((ids, totals));
            }
            Ok(())
        }
    }

    /// Three checkpoints, the middle place killed, a restore under `mode`,
    /// three more checkpoints.
    fn checkpoints_around_a_restore(mode: RestoreMode, spares: usize, overlap: bool) {
        Runtime::run(RuntimeConfig::new(4).spares(spares).resilient(true), move |ctx| {
            let g = ctx.world();
            let x = DistVector::make(ctx, 4096, &g).unwrap();
            x.init(ctx, |i| 1.0 + i as f64 * 1e-9).unwrap();
            let v = DupVector::make(ctx, 1024, &g).unwrap();
            v.init(ctx, |i| noise(i, 0)).unwrap();
            let kill_at = Some((7, Place::new(1)));
            let mut app = TwoObjectApp { x, v, total_iters: 16, kill_at, checkpoints: Vec::new() };
            let mut store = AppResilientStore::make(ctx).unwrap();
            let exec = ResilientExecutor::new(ExecutorConfig::new(3, mode).overlap_ship(overlap));
            let (_, stats) = exec.run(ctx, &mut app, &g, &mut store).unwrap();
            assert_eq!((stats.checkpoints, stats.restores), (6, 1), "{mode:?}");

            // The run's last settle point: one generation, whatever the mode.
            let [entries, logical, wire] = assert_holds_exactly_the_committed_generation(ctx, &store);
            assert_eq!(store.snapshot_iteration(), Some(15));
            // `x`: four packed frames of 1 024 values, stored once beside
            // its held segments since its first save (a shrink re-maps the
            // same four segments); or, where shrink-rebalance re-cut it over
            // three places, twice since the repair framed the old segments
            // the store alone still held. `v`: one verbatim frame of 8 200
            // bytes in three chunks, a head beside the payload, stored twice.
            let recut = mode == RestoreMode::ShrinkRebalance;
            let x_copies = if recut { 2 } else { 1 };
            let (x_entries, x_logical) = (x_copies * 4, x_copies * 4 * 8200);
            let v_wire = 8200 + 33 + 8 * 3;
            assert_eq!((entries, logical), (x_entries + 2, x_logical + 2 * 8200), "{mode:?}");
            assert!(wire - 2 * v_wire < x_logical, "the ramp is stored packed: {wire}");
            if overlap {
                return;
            }
            // No checkpoint is special: not the first after the restore (the
            // fourth), nor any other after the first — the same entries, the
            // same bytes in the same forms, `x` under the id it always had
            // and `v` under a fresh one. Only a re-cut `x` changes, once, at
            // the restore: it gains its second copies.
            assert_eq!(app.checkpoints.len(), 6);
            assert_eq!(app.checkpoints[0].1[..2], [4 + 2, 4 * 8200 + 2 * 8200], "{mode:?}");
            for (i, pair) in app.checkpoints.windows(2).enumerate() {
                let ((ids, totals), (next_ids, next_totals)) = (pair[0], pair[1]);
                assert!(next_ids[1] > ids[1], "the mutable one is saved anew");
                assert_eq!(next_ids[0], ids[0], "the read-only snapshot is reused");
                if !(recut && i == 2) {
                    assert_eq!(next_totals, totals, "{mode:?}");
                }
            }
            assert_eq!(app.checkpoints[5].1, [entries, logical, wire]);
        })
        .unwrap();
    }

    #[test]
    fn every_place_holds_exactly_the_live_generation_around_a_restore_under_each_mode() {
        checkpoints_around_a_restore(RestoreMode::Shrink, 0, false);
        checkpoints_around_a_restore(RestoreMode::ShrinkRebalance, 0, false);
        checkpoints_around_a_restore(RestoreMode::ReplaceRedundant, 1, false);
        checkpoints_around_a_restore(RestoreMode::ReplaceElastic, 0, false);
    }

    #[test]
    fn overlapped_ships_settle_to_exactly_the_live_generation_too() {
        checkpoints_around_a_restore(RestoreMode::Shrink, 0, true);
        checkpoints_around_a_restore(RestoreMode::ReplaceRedundant, 1, true);
    }

    /// Three settle points the executor runs above do not reach, held to the
    /// same invariant: a one-place group, whose pair collapses onto its place
    /// and so has no ship to frame it; a degraded promote (the backup killed
    /// while its ship is parked); and the repair after it.
    #[test]
    fn the_committed_generation_is_framed_on_one_place_after_a_degraded_promote_and_its_repair() {
        run(3, |ctx| {
            let g = ctx.world();
            let one: PlaceGroup = [g.place(2)].into_iter().collect();
            let mut alone = AppResilientStore::make(ctx).unwrap();
            let w = DistVector::make(ctx, 1024, &one).unwrap();
            w.init(ctx, |i| noise(i, 1)).unwrap();
            alone.start_new_snapshot();
            alone.save(ctx, &w).unwrap();
            alone.commit(ctx).unwrap();
            assert_eq!(assert_holds_exactly_the_committed_generation(ctx, &alone)[0], 1);

            let mut store = AppResilientStore::make(ctx).unwrap();
            let mut v = DupVector::make(ctx, 1024, &g).unwrap();
            v.init(ctx, |i| noise(i, 0)).unwrap();
            store.set_overlap(true);
            let gate = Arc::new(AtomicBool::new(true));
            store.set_ship_gate(gate.clone());
            store.start_new_snapshot();
            store.save(ctx, &v).unwrap();
            store.commit(ctx).unwrap();
            ctx.kill_place(g.place(1)).unwrap();
            gate.store(false, Ordering::Release);
            store.drain(ctx).unwrap();
            assert!(store.has_snapshot(), "promoted, degraded");
            assert_holds_exactly_the_committed_generation(ctx, &store);

            let survivors = g.without(&[g.place(1)]);
            v.remake(ctx, &survivors).unwrap();
            store.restore(ctx, &mut [&mut v]).unwrap();
            assert_eq!(store.repair(ctx, &survivors).unwrap().entries, 1);
            assert_holds_exactly_the_committed_generation(ctx, &store);
        });
    }

    #[test]
    fn read_only_snapshot_is_reused_across_commits() {
        run(2, |ctx| {
            let g = ctx.world();
            let mut store = AppResilientStore::make(ctx).unwrap();
            let v = DupVector::make(ctx, 2, &g).unwrap();

            store.start_new_snapshot();
            store.save_read_only(ctx, &v).unwrap();
            store.commit(ctx).unwrap();
            let first = store.snapshot_of(v.object_id()).unwrap();

            store.start_new_snapshot();
            store.save_read_only(ctx, &v).unwrap();
            store.commit(ctx).unwrap();
            let second = store.snapshot_of(v.object_id()).unwrap();

            assert_eq!(first.snap_id, second.snap_id, "snapshot reused, not recreated");
            assert!(second.fetch(ctx, store.store(), 0).is_ok(), "survived the commit cleanup");
        });
    }

    #[test]
    fn cancel_discards_pending_but_keeps_committed() {
        run(2, |ctx| {
            let g = ctx.world();
            let mut store = AppResilientStore::make(ctx).unwrap();
            let mut v = DupVector::make(ctx, 2, &g).unwrap();
            v.init(ctx, |_| 1.0).unwrap();

            store.set_current_iteration(5);
            store.start_new_snapshot();
            store.save(ctx, &v).unwrap();
            store.commit(ctx).unwrap();

            // A later snapshot attempt is cancelled mid-way.
            v.apply(ctx, |x| x.fill(2.0)).unwrap();
            store.set_current_iteration(9);
            store.start_new_snapshot();
            store.save(ctx, &v).unwrap();
            store.cancel_snapshot(ctx);

            assert_eq!(store.snapshot_iteration(), Some(5), "committed point unchanged");
            store.restore(ctx, &mut [&mut v]).unwrap();
            assert_eq!(v.read_local(ctx).unwrap().as_slice(), &[1.0, 1.0]);
        });
    }

    #[test]
    fn cancel_preserves_reused_read_only_snapshots() {
        run(2, |ctx| {
            let g = ctx.world();
            let mut store = AppResilientStore::make(ctx).unwrap();
            let v = DupVector::make(ctx, 2, &g).unwrap();

            store.start_new_snapshot();
            store.save_read_only(ctx, &v).unwrap();
            store.commit(ctx).unwrap();

            store.start_new_snapshot();
            store.save_read_only(ctx, &v).unwrap();
            store.cancel_snapshot(ctx);

            let snap = store.snapshot_of(v.object_id()).unwrap();
            assert!(snap.fetch(ctx, store.store(), 0).is_ok(), "cancel must not nuke shared data");
        });
    }

    #[test]
    fn overlap_commit_promotes_at_the_next_settle_point() {
        run(2, |ctx| {
            let g = ctx.world();
            let mut store = AppResilientStore::make(ctx).unwrap();
            let mut v = DupVector::make(ctx, 2, &g).unwrap();
            v.init(ctx, |_| 1.0).unwrap();
            store.set_overlap(true);

            store.set_current_iteration(3);
            store.start_new_snapshot();
            store.save(ctx, &v).unwrap();
            store.commit(ctx).unwrap();
            // Overlap mode: the snapshot is provisional until its ships are
            // drained at the next settle point.
            assert!(!store.has_snapshot(), "promotion deferred past commit");

            v.apply(ctx, |x| x.fill(2.0)).unwrap();
            store.set_current_iteration(7);
            store.start_new_snapshot();
            store.save(ctx, &v).unwrap();
            store.commit(ctx).unwrap();
            assert_eq!(store.snapshot_iteration(), Some(3), "previous snapshot settled");

            store.drain(ctx).unwrap();
            assert_eq!(store.snapshot_iteration(), Some(7), "drain settles the last one");
            store.restore(ctx, &mut [&mut v]).unwrap();
            assert_eq!(v.read_local(ctx).unwrap().as_slice(), &[2.0, 2.0]);
        });
    }

    /// The capture holds the blocks and encodes nothing; the commit's ships
    /// serialize and frame them, each once, and ship the backups.
    #[test]
    fn backups_ship_after_the_commit_not_during_the_capture() {
        run(2, |ctx| {
            let g = ctx.world();
            let v = DistVector::make(ctx, 8, &g).unwrap();
            v.init(ctx, |i| i as f64).unwrap();
            let entries = |store: &AppResilientStore| -> usize {
                store.store().inventory(ctx).iter().map(|i| i.entries).sum()
            };

            // The codec counters are process-wide and other tests encode
            // beside this one: an attempt whose readings they moved is made
            // again, on a store of its own.
            let attempt = || {
                let mut store = AppResilientStore::make(ctx).unwrap();
                store.start_new_snapshot();
                let before = crate::codec::counters();
                store.save(ctx, &v).unwrap();
                let captured = crate::codec::counters().since(&before);
                // Long enough for a ship started by the save to have landed.
                std::thread::sleep(Duration::from_millis(50));
                assert_eq!(entries(&store), 2, "only the owner copies before the commit");
                store.commit(ctx).unwrap();
                let committed = crate::codec::counters().since(&before);
                assert_eq!(entries(&store), 4, "the commit ships one backup per block");
                let saved = store.snapshot_of(v.object_id()).unwrap().total_bytes() as u64;
                let readings = (captured, committed.logical_bytes, saved);
                (captured == Default::default() && committed.logical_bytes == saved)
                    .then_some(store)
                    .ok_or(readings)
            };
            let mut readings = Vec::new();
            let mut store = (0..20)
                .find_map(|_| attempt().map_err(|r| readings.push(r)).ok())
                .unwrap_or_else(|| panic!("(capture, commit's logical bytes, saved): {readings:?}"));

            // A cancelled attempt's queued orders never run.
            store.start_new_snapshot();
            store.save(ctx, &v).unwrap();
            store.cancel_snapshot(ctx);
            std::thread::sleep(Duration::from_millis(50));
            assert_eq!(entries(&store), 4, "the cancelled attempt left nothing");
        });
    }

    /// One object of each of the four mutable classes.
    type Mutables = (crate::DistBlockMatrix, DistVector, DupVector, crate::DupDenseMatrix);

    /// Every value of `objs`, gathered to the driver.
    fn values(ctx: &Ctx, (m, x, v, d): &Mutables) -> impl PartialEq {
        let d = d.local(ctx).unwrap().lock().clone();
        (m.gather_dense(ctx).unwrap(), x.gather(ctx).unwrap(), v.read_local(ctx).unwrap(), d)
    }

    /// Scale every value of `objs` by `alpha`, at every place.
    fn scale_all(ctx: &Ctx, (m, x, v, d): &Mutables, alpha: f64) {
        m.scale(ctx, alpha).unwrap();
        x.scale(ctx, alpha).unwrap();
        v.scale_all(ctx, alpha).unwrap();
        d.apply(ctx, move |a| {
            a.scale(alpha);
        })
        .unwrap();
    }

    /// A capture holds each of the four mutable classes by reference. Each
    /// held block a write reaches while the ship is parked is copied once —
    /// a duplicated object's capture holds its root's copy only — and the
    /// ship serializes what the capture saw. A write after the drain copies
    /// nothing.
    #[test]
    fn a_write_between_the_commit_and_the_ship_copies_each_held_block_once() {
        run(4, |ctx| {
            let g = ctx.world();
            let m = crate::DistBlockMatrix::make(ctx, 64, 3, 8, 1, 4, 1, &g, false).unwrap();
            m.init_with(ctx, |_, _, r0, _, rows, cols| {
                let values = (0..rows * cols).map(|i| (r0 * cols + i) as f64).collect();
                gml_matrix::BlockData::Dense(gml_matrix::DenseMatrix::from_vec(rows, cols, values))
            })
            .unwrap();
            let x = DistVector::make(ctx, 64, &g).unwrap();
            x.init(ctx, |i| i as f64).unwrap();
            let v = DupVector::make(ctx, 16, &g).unwrap();
            v.init(ctx, |i| -(i as f64)).unwrap();
            let d = crate::DupDenseMatrix::make(ctx, 3, 4, &g).unwrap();
            d.init(ctx, |i, j| (i * 4 + j) as f64).unwrap();
            let mut objs: Mutables = (m, x, v, d);
            // Eight blocks, four segments and the two roots' copies.
            let held_blocks = 8 + 4 + 1 + 1;
            let copies_writing = |objs: &Mutables| {
                let before = crate::codec::counters().cow_copies;
                scale_all(ctx, objs, 2.0);
                crate::codec::counters().cow_copies - before
            };

            // The counter is process-wide and other tests write beside this
            // one: an attempt whose readings they moved is made again.
            let attempt = |objs: &Mutables| {
                let captured = values(ctx, objs);
                let mut store = AppResilientStore::make(ctx).unwrap();
                store.set_overlap(true);
                let gate = Arc::new(AtomicBool::new(true));
                store.set_ship_gate(gate.clone());
                store.start_new_snapshot();
                let (m, x, v, d) = objs;
                for obj in [m as &dyn Snapshottable, x, v, d] {
                    store.save(ctx, obj).unwrap();
                }
                store.commit(ctx).unwrap();
                let parked = copies_writing(objs);
                gate.store(false, Ordering::Release);
                store.drain(ctx).unwrap();
                let shipped = copies_writing(objs);
                let exact = (parked, shipped) == (held_blocks, 0);
                exact.then_some((store, captured)).ok_or((parked, shipped))
            };
            let mut readings = Vec::new();
            let (store, captured) = (0..20)
                .find_map(|_| attempt(&objs).map_err(|r| readings.push(r)).ok())
                .unwrap_or_else(|| panic!("(copies while parked, after the drain): {readings:?}"));

            scale_all(ctx, &objs, 0.0);
            let (m, x, v, d) = &mut objs;
            store.restore(ctx, &mut [m, x, v, d]).unwrap();
            assert!(values(ctx, &objs) == captured, "the restore brings back what the capture saw");
        });
    }

    #[test]
    fn overlap_ship_failure_with_live_owner_promotes_degraded_snapshot() {
        run(3, |ctx| {
            let g = ctx.world();
            let mut store = AppResilientStore::make(ctx).unwrap();
            let mut v = DupVector::make(ctx, 2, &g).unwrap();
            v.init(ctx, |_| 4.0).unwrap();
            store.set_overlap(true);
            let gate = Arc::new(AtomicBool::new(true));
            store.set_ship_gate(gate.clone());

            store.set_current_iteration(6);
            store.start_new_snapshot();
            store.save(ctx, &v).unwrap();
            store.commit(ctx).unwrap();

            // The backup place dies while the ship is parked in flight. The
            // owner copy survives, so the end state equals "ship completed,
            // then the place died": the snapshot promotes, degraded.
            ctx.kill_place(g.place(1)).unwrap();
            gate.store(false, Ordering::Release);
            store.drain(ctx).unwrap();
            assert_eq!(store.snapshot_iteration(), Some(6));

            let survivors = g.without(&[g.place(1)]);
            v.remake(ctx, &survivors).unwrap();
            v.apply(ctx, |x| x.fill(0.0)).unwrap();
            store.restore(ctx, &mut [&mut v]).unwrap();
            assert_eq!(v.read_local(ctx).unwrap().as_slice(), &[4.0, 4.0]);
        });
    }

    #[test]
    fn overlap_ship_failure_with_lost_payload_discards_and_surfaces() {
        run(4, |ctx| {
            // Group not containing place 0 so the snapshot owner can die.
            let g: PlaceGroup =
                [Place::new(1), Place::new(2), Place::new(3)].into_iter().collect();
            let mut store = AppResilientStore::make(ctx).unwrap();
            let v = DupVector::make(ctx, 2, &g).unwrap();
            v.init(ctx, |_| 5.0).unwrap();
            store.set_overlap(true);

            store.set_current_iteration(5);
            store.start_new_snapshot();
            store.save(ctx, &v).unwrap();
            store.commit(ctx).unwrap();
            store.drain(ctx).unwrap();
            assert_eq!(store.snapshot_iteration(), Some(5));

            // Second checkpoint: the owner dies while its ship is parked, so
            // the backup copy never lands and the payload is lost. The
            // provisional snapshot must be discarded and the error surfaced;
            // the iteration-5 snapshot stays the recovery point.
            let gate = Arc::new(AtomicBool::new(true));
            store.set_ship_gate(gate.clone());
            v.apply(ctx, |x| x.fill(6.0)).unwrap();
            store.set_current_iteration(9);
            store.start_new_snapshot();
            store.save(ctx, &v).unwrap();
            store.commit(ctx).unwrap();
            ctx.kill_place(Place::new(1)).unwrap();
            gate.store(false, Ordering::Release);
            let err = store.drain(ctx).unwrap_err();
            assert!(err.is_recoverable(), "dead-place ship error: {err}");
            assert_eq!(store.snapshot_iteration(), Some(5), "rolled back to settled snapshot");
        });
    }

    #[test]
    fn the_orders_of_a_dist_vector_come_out_in_group_order_on_every_run() {
        run(4, |ctx| {
            let store = ResilientStore::make(ctx).unwrap();
            let x = DistVector::make(ctx, 4096, &ctx.world()).unwrap();
            // A snapshot's entry map iterates in a different order each time.
            for _ in 0..8 {
                let snap = x.make_snapshot(ctx, &store.capturing()).unwrap();
                let pairs: Vec<(u32, u32)> =
                    store.ship_orders(&snap).iter().map(|o| (o.owner.id(), o.backup.id())).collect();
                assert_eq!(pairs, [(0, 1), (1, 2), (2, 3), (3, 0)]);
            }
        });
    }

    #[test]
    fn a_ship_thread_attempts_every_order_and_returns_the_dead_place_error() {
        run(4, |ctx| {
            let store = ResilientStore::make(ctx).unwrap();
            let x = DistVector::make(ctx, 4096, &ctx.world()).unwrap();
            let snap = x.make_snapshot(ctx, &store.capturing()).unwrap();
            // p0 → p1, then p2 → p3; p1 dies before either runs.
            let mut orders = store.ship_orders(&snap);
            orders.retain(|o| o.owner.id() % 2 == 0);
            ctx.kill_place(Place::new(1)).unwrap();
            let (res, _) = spawn_ship(ctx, &store, orders, None).join().unwrap();
            assert!(res.unwrap_err().is_recoverable());
            // The failed order did not stop the one behind it: p3 holds its
            // own segment and p2's backup, so no entry with two live places
            // is short of a replica the snapshot records.
            assert_eq!(store.entries_at(ctx, Place::new(3)).unwrap(), 2);
            let audit = store.audit_snapshot(ctx, &snap);
            assert_eq!((audit.fully_redundant, audit.degraded, audit.lost), (1, 2, 1));
        });
    }

    #[test]
    fn a_panicking_ship_fails_the_drain() {
        run(2, |ctx| {
            let mut ships: Vec<ShipTask> = vec![
                ctx.spawn_helper(|_| (Ok(()), Duration::from_millis(1))),
                ctx.spawn_helper(|_| panic!("ship boom")),
            ];
            let mut busy = Duration::ZERO;
            let err = drain_ships(&mut ships, &mut busy).unwrap_err();
            assert!(err.to_string().contains("ship thread panicked"), "{err}");
            assert!(!err.is_recoverable());
            assert_eq!(busy, Duration::from_millis(1), "the clean ship's time still counts");
            assert!(ships.is_empty());
        });
    }

    /// The paper's Listing 5 by hand on a read-only matrix and vector:
    /// `save_read_only`, a kill, the public `remake`s and `restore` bring
    /// back the failure-free values before any repair, whether the remake
    /// keeps the layout or re-cuts it — also where the block and segment
    /// whose stored copies died move.
    #[test]
    fn a_read_only_object_restored_by_hand_after_a_public_remake_has_its_values() {
        for rebalance in [false, true] {
            run(4, move |ctx| {
                let g = ctx.world();
                let mut m = crate::DistBlockMatrix::make(ctx, 16, 3, 4, 1, 4, 1, &g, false).unwrap();
                m.init_with(ctx, |_, _, r0, _, rows, cols| {
                    let values = (0..rows * cols).map(|i| (r0 * cols + i) as f64).collect();
                    gml_matrix::BlockData::Dense(gml_matrix::DenseMatrix::from_vec(rows, cols, values))
                })
                .unwrap();
                let mut y = DistVector::make(ctx, 64, &g).unwrap();
                y.init(ctx, |i| i as f64 * 0.5).unwrap();
                let (m_values, y_values) = (m.gather_dense(ctx).unwrap(), y.gather(ctx).unwrap());
                let mut store = AppResilientStore::make(ctx).unwrap();
                store.start_new_snapshot();
                store.save_read_only(ctx, &m).unwrap();
                store.save_read_only(ctx, &y).unwrap();
                store.commit(ctx).unwrap();
                ctx.kill_place(Place::new(2)).unwrap();
                let survivors = g.without(&[Place::new(2)]);
                m.remake(ctx, &survivors, rebalance).unwrap();
                y.remake(ctx, &survivors, rebalance).unwrap();
                store.restore(ctx, &mut [&mut m, &mut y]).unwrap();
                assert_eq!(m.gather_dense(ctx).unwrap(), m_values, "rebalance {rebalance}");
                assert_eq!(y.gather(ctx).unwrap(), y_values, "rebalance {rebalance}");
            });
        }
    }

    /// A read-only vector its step changes after its first save: breaking
    /// the contract `save_read_only` states.
    struct Tampered {
        x: DistVector,
        v: DupVector,
    }

    impl ResilientIterativeApp for Tampered {
        fn is_finished(&self, _ctx: &Ctx, iteration: u64) -> bool {
            iteration >= 8
        }

        fn step(&mut self, ctx: &Ctx, iteration: u64) -> GmlResult<()> {
            if iteration == 2 {
                self.x.map_all(ctx, |a| a + 1.0)?;
            }
            if iteration == 5 {
                ctx.kill_place(Place::new(2))?;
            }
            self.v.init(ctx, move |i| (i as u64 + iteration) as f64)
        }

        fn state(&mut self) -> crate::AppState<'_> {
            crate::AppState::default().read_only("x", &mut self.x).mutable("v", &mut self.v)
        }
    }

    #[test]
    fn a_read_only_object_changed_after_its_first_save_fails_the_next_recovery() {
        for mode in [RestoreMode::Shrink, RestoreMode::ReplaceElastic] {
            run(4, move |ctx| {
                let g = ctx.world();
                let x = DistVector::make(ctx, 4096, &g).unwrap();
                x.init(ctx, |i| i as f64).unwrap();
                let v = DupVector::make(ctx, 16, &g).unwrap();
                let id = x.object_id();
                let mut app = Tampered { x, v };
                let mut store = AppResilientStore::make(ctx).unwrap();
                // Saved at 0, changed at 2 — each segment copied away from
                // the store's handle on it — and reused at 3; place 2 dies
                // at 5. The remake compares each segment of places 0, 1 and
                // 3 with the value the store's handle still holds, whether
                // it keeps the segment (a replacement keeps the layout) or
                // gives it up (shrink re-cuts the vector), and the restore
                // refuses the changed object, before the run resumes.
                let cfg = ExecutorConfig::new(3, mode).overlap_ship(false);
                let err = ResilientExecutor::new(cfg).run(ctx, &mut app, &g, &mut store).unwrap_err();
                assert!(!err.is_recoverable(), "{mode:?}: {err}");
                let named = format!("read-only object {id} was modified after its first save");
                assert!(err.to_string().contains(&named), "{mode:?}: {err}");
            });
        }
    }

    /// A read-only matrix's and duplicated vector's blocks that a write
    /// copied away from the store's handles, and that a remake then keeps
    /// or — re-cutting the matrix — gives up: restored, and refused only
    /// where the write changed them.
    #[test]
    fn a_read_only_block_a_write_changed_is_refused_and_one_it_left_alone_restored() {
        for (alpha, rebalance) in [(1.0, false), (2.0, false), (1.0, true), (2.0, true)] {
            run(4, move |ctx| {
                let g = ctx.world();
                let mut m = crate::DistBlockMatrix::make(ctx, 16, 3, 4, 1, 4, 1, &g, false).unwrap();
                m.init_with(ctx, |_, _, r0, _, rows, cols| {
                    let values = (0..rows * cols).map(|i| (r0 * cols + i) as f64).collect();
                    gml_matrix::BlockData::Dense(gml_matrix::DenseMatrix::from_vec(rows, cols, values))
                })
                .unwrap();
                let mut d = DupVector::make(ctx, 8, &g).unwrap();
                d.init(ctx, |i| i as f64).unwrap();
                let (m_values, d_values) = (m.gather_dense(ctx).unwrap(), d.read_local(ctx).unwrap());
                let mut store = AppResilientStore::make(ctx).unwrap();
                store.start_new_snapshot();
                store.save_read_only(ctx, &m).unwrap();
                store.save_read_only(ctx, &d).unwrap();
                store.commit(ctx).unwrap();
                m.scale(ctx, alpha).unwrap();
                d.scale_all(ctx, alpha).unwrap();
                ctx.kill_place(Place::new(2)).unwrap();
                let survivors = g.without(&[Place::new(2)]);
                m.remake(ctx, &survivors, rebalance).unwrap();
                d.remake(ctx, &survivors).unwrap();
                let objs: [&mut dyn Snapshottable; 2] = [&mut m, &mut d];
                for (obj, object) in objs.into_iter().zip(["matrix", "vector"]) {
                    let id = obj.object_id();
                    match (store.restore(ctx, &mut [obj]), alpha) {
                        (Ok(()), 1.0) => {}
                        (Err(e), 2.0) => {
                            let named = format!("read-only object {id} was modified after its first save");
                            assert!(!e.is_recoverable() && e.to_string().contains(&named), "{object}: {e}");
                        }
                        (res, _) => panic!("{object}, written by {alpha}, rebalance {rebalance}: {res:?}"),
                    }
                }
                if alpha == 1.0 {
                    assert_eq!(m.gather_dense(ctx).unwrap(), m_values);
                    assert_eq!(d.read_local(ctx).unwrap(), d_values);
                }
            });
        }
    }

    #[test]
    fn read_only_resnapshots_when_replicas_lost() {
        run(4, |ctx| {
            // Group not containing place 0 so the owner can die.
            let g: PlaceGroup =
                [Place::new(1), Place::new(2), Place::new(3)].into_iter().collect();
            let mut store = AppResilientStore::make(ctx).unwrap();
            let mut v = DupVector::make(ctx, 2, &g).unwrap();
            v.init(ctx, |_| 3.0).unwrap();

            store.start_new_snapshot();
            store.save_read_only(ctx, &v).unwrap();
            store.commit(ctx).unwrap();
            let first = store.snapshot_of(v.object_id()).unwrap();

            // Kill both replicas of the read-only snapshot.
            ctx.kill_place(Place::new(1)).unwrap();
            ctx.kill_place(Place::new(2)).unwrap();
            let survivors = g.without(&[Place::new(1), Place::new(2)]);
            v.remake(ctx, &survivors).unwrap();
            v.init(ctx, |_| 3.0).unwrap();

            store.start_new_snapshot();
            store.save_read_only(ctx, &v).unwrap();
            store.commit(ctx).unwrap();
            let second = store.snapshot_of(v.object_id()).unwrap();
            assert_ne!(first.snap_id, second.snap_id, "unreachable snapshot re-created");
        });
    }
}
