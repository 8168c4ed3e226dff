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
//! PageRank checkpoints are so much cheaper than a full re-save.
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

use crate::codec::{CaptureCtx, CodecConfig};
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

/// One background ship: executes a saved object's deferred backup
/// transfers, returning the first error and its busy time.
type ShipTask = Helper<(GmlResult<()>, Duration)>;

/// Driver-side coordinator for atomic application checkpoints.
///
/// Checkpoints are **two-phase**: `save` runs only the short synchronous
/// *capture* phase (serialize under the object lock, owner-side inserts),
/// queueing the backup transfers as [`ShipOrder`]s that a background thread
/// executes — the *ship* phase. With overlap off (the default) `commit` is
/// the barrier that drains this snapshot's own ships, failing atomically if
/// one of them hit a dead place. With overlap on (the executor's default)
/// `commit` promotes the snapshot optimistically and the ships keep running
/// while the next iterations compute; the *next* settle point (commit,
/// [`drain`](Self::drain), or a recovery) becomes the barrier.
pub struct AppResilientStore {
    store: ResilientStore,
    committed: Option<AppSnapshot>,
    /// Committed by the application but with backup ships possibly still in
    /// flight (overlap mode). Becomes `committed` once its ships settle.
    provisional: Option<AppSnapshot>,
    provisional_ships: Vec<ShipTask>,
    pending: Option<AppSnapshot>,
    pending_ships: Vec<ShipTask>,
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
    /// Snap ids that are *delta bases* of the committed snapshot's chains —
    /// older snapshots' ids kept alive past their own retirement because a
    /// committed delta frame still references them. Swept by the chain-aware
    /// GC in `promote` once no live chain needs them.
    retained_chain: HashSet<u64>,
}

/// Start the ship phase for one saved object: its deferred backup transfers
/// run on one of the runtime's cached threads ([`Ctx::spawn_helper`]) while
/// the driver goes on computing.
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
        let mut res = Ok(());
        for order in orders {
            if let Err(e) = store.execute_ship(ctx, order) {
                res = Err(e);
                break;
            }
        }
        (res, t0.elapsed())
    })
}

/// Join every ship task, accumulating busy time into `ship_time` and
/// returning the first error — preferring a recoverable (dead-place) one,
/// since that is what the executor can act on.
fn drain_ships(ships: &mut Vec<ShipTask>, ship_time: &mut Duration) -> GmlResult<()> {
    let mut first_err: Option<GmlError> = None;
    for task in ships.drain(..) {
        match task.join() {
            Ok((res, busy)) => {
                *ship_time += busy;
                if let Err(e) = res {
                    let replace = match &first_err {
                        None => true,
                        Some(f) => !f.is_recoverable() && e.is_recoverable(),
                    };
                    if replace {
                        first_err = Some(e);
                    }
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
    /// Create the store (shards at every place, spares included), with the
    /// checkpoint codec configured from the `GML_CKPT_*` environment —
    /// delta frames with lossless compression by default
    /// (`GML_CKPT_CODEC=raw` restores the pre-codec byte-identical path).
    pub fn make(ctx: &Ctx) -> GmlResult<Self> {
        Self::make_with_codec(ctx, CodecConfig::from_env())
    }

    /// Create the store with an explicit codec configuration (tests and
    /// parity drills pass configs directly to stay independent of the
    /// environment, which is shared across concurrently running tests).
    pub fn make_with_codec(ctx: &Ctx, config: CodecConfig) -> GmlResult<Self> {
        Ok(Self::with_store(ResilientStore::make_with_codec(ctx, config)?))
    }

    /// Create the store with backup copies toggled (ablation; see
    /// [`ResilientStore::make_with_redundancy`]). The ablation path keeps
    /// the codec off so its byte accounting stays directly comparable to
    /// the historical baselines.
    pub fn make_with_redundancy(ctx: &Ctx, redundant: bool) -> GmlResult<Self> {
        Ok(Self::with_store(ResilientStore::make_with_redundancy(ctx, redundant)?))
    }

    fn with_store(store: ResilientStore) -> Self {
        AppResilientStore {
            store,
            committed: None,
            provisional: None,
            provisional_ships: Vec::new(),
            pending: None,
            pending_ships: Vec::new(),
            current_iteration: 0,
            overlap: false,
            deferred_error: None,
            capture_time: Duration::ZERO,
            ship_time: Duration::ZERO,
            ship_gate: None,
            retained_chain: HashSet::new(),
        }
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
    /// This is the **capture** phase only: the object serializes under its
    /// lock and inserts the owner copies; the backup transfers it queued are
    /// handed to a background ship thread before this method returns.
    pub fn save(&mut self, ctx: &Ctx, obj: &dyn Snapshottable) -> GmlResult<()> {
        // Checked before anything is allocated: without an open attempt
        // there is no watermark, so nothing `make_snapshot` inserted could
        // ever be reclaimed by `cancel_snapshot`.
        if self.pending.is_none() {
            return Err(GmlError::shape("save() before start_new_snapshot()"));
        }
        let t0 = Instant::now();
        // Delta base for the codec: the newest settled snapshot of this
        // same object — but only while it is still fully redundant. A
        // degraded snapshot (one replica lost) is never a delta base: its
        // frames may live on a dead place, and the next checkpoint must
        // re-establish a self-contained full base anyway to restore double
        // redundancy. After a restore, `force_full` does the same for one
        // epoch so chains never straddle a recovery.
        let ref_snap = if self.store.codec_config().is_raw() || self.store.force_full() {
            None
        } else {
            self.provisional
                .as_ref()
                .or(self.committed.as_ref())
                .and_then(|c| c.map.get(&obj.object_id()))
                .filter(|s| s.fully_redundant(ctx))
                .cloned()
        };
        self.store
            .begin_capture(CaptureCtx { ref_snap: ref_snap.clone(), class: obj.payload_class() });
        self.store.begin_deferred_ships();
        let result = obj.make_snapshot(ctx, &self.store);
        let orders = self.store.take_deferred_ships();
        let used_delta = self.store.end_capture();
        self.capture_time += t0.elapsed();
        // On failure the queued orders are dropped unexecuted; the
        // watermark in `cancel_snapshot` wipes the partial owner inserts.
        let mut snap = result?;
        if used_delta {
            // At least one place emitted a delta frame: this snapshot's
            // restore needs the base's frames, so the base id (and whatever
            // it in turn references) rides along for the chain-aware GC.
            if let Some(base) = &ref_snap {
                snap.chain = base.chain.clone();
                snap.chain.push(base.snap_id);
            }
        }
        if !orders.is_empty() {
            self.pending_ships.push(spawn_ship(ctx, &self.store, orders, self.ship_gate.clone()));
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
            None => self.save(ctx, obj),
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
        if self.overlap {
            self.provisional = Some(pending);
            self.provisional_ships = std::mem::take(&mut self.pending_ships);
            return Ok(());
        }
        let mut ships = std::mem::take(&mut self.pending_ships);
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

    /// Replace `committed` with `snap` and delete the retired snapshot's
    /// entries (except those `snap` reuses, and except delta-chain bases the
    /// new snapshot's frames still reference). A base and its deltas promote
    /// or retire **atomically**: a chain id is deleted only once no live
    /// snapshot — head or chain — needs it.
    fn promote(&mut self, ctx: &Ctx, snap: AppSnapshot) {
        let old = self.committed.replace(snap);
        let new = self.committed.as_ref().expect("just replaced");
        let mut keep: HashSet<u64> = new.map.values().map(|s| s.snap_id).collect();
        for s in new.map.values() {
            keep.extend(s.chain.iter().copied());
        }
        // Candidates for deletion: the previously retained chain bases plus
        // the retired snapshot's heads and chains.
        let mut stale: HashSet<u64> = std::mem::take(&mut self.retained_chain);
        if let Some(old) = &old {
            for s in old.map.values() {
                stale.insert(s.snap_id);
                stale.extend(s.chain.iter().copied());
            }
        }
        // Deleting old checkpoints is best-effort cleanup; a failure here
        // must not fail the commit.
        let dead: Vec<u64> = stale.difference(&keep).copied().collect();
        let _ = self.store.delete_snapshots(ctx, &dead);
        self.retained_chain =
            new.map.values().flat_map(|s| s.chain.iter().copied()).collect();
        // A snapshot settled cleanly: the post-restore full-base override
        // (if any) has produced its full frames and can lift.
        self.store.clear_force_full();
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
            // Join this attempt's ship threads first: their orders reference
            // the ids about to be deleted (execute_ship skips stale orders,
            // but the join keeps deletion and shipping from racing).
            let mut ships = std::mem::take(&mut self.pending_ships);
            let _ = drain_ships(&mut ships, &mut self.ship_time);
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
    /// snap id it always had. Costs what the dead places held, whatever the
    /// application's size; with nothing degraded (a silent-error rollback)
    /// it does nothing. Errors as [`ResilientStore`]'s repair does: data
    /// loss when an entry has no live replica, a recoverable dead-place
    /// error — locations untouched — when a place dies underneath it.
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
        // Any restore breaks delta continuity: the surviving replicas may be
        // mid-rebuild and the restored in-memory state no longer descends
        // from the last committed frames' successor. The next checkpoint
        // emits full bases (cleared once that checkpoint settles).
        self.store.mark_force_full();
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
    use crate::dup_vector::DupVector;
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
            // Raw codec: with deltas on, the previous snapshot would be
            // *retained* as the new head's chain base (covered below).
            let mut store =
                AppResilientStore::make_with_codec(ctx, CodecConfig::raw()).unwrap();
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

    #[test]
    fn delta_commit_retains_chain_bases_until_superseded() {
        run(2, |ctx| {
            let g = ctx.world();
            let mut store =
                AppResilientStore::make_with_codec(ctx, CodecConfig::from_env()).unwrap();
            // Big enough to span many chunks, so a one-element mutation
            // stays under the dirty-ratio threshold and deltas.
            let mut v = DupVector::make(ctx, 4096, &g).unwrap();
            v.init(ctx, |i| i as f64).unwrap();

            store.start_new_snapshot();
            store.save(ctx, &v).unwrap();
            store.commit(ctx).unwrap();
            let first = store.snapshot_of(v.object_id()).unwrap();
            assert!(first.chain.is_empty(), "first snapshot is a full base");

            // Small mutation → the second snapshot deltas against the first,
            // so the first's frames must survive the commit as chain bases.
            v.apply(ctx, |x| x.as_mut_slice()[0] = 7.0).unwrap();
            store.start_new_snapshot();
            store.save(ctx, &v).unwrap();
            store.commit(ctx).unwrap();
            let second = store.snapshot_of(v.object_id()).unwrap();
            assert_eq!(second.chain, vec![first.snap_id], "head records its base");
            assert!(first.fetch(ctx, store.store(), 0).is_ok(), "base retained");
            let got = second.fetch(ctx, store.store(), 0).unwrap();
            let want = ctx.encode(&*v.local(ctx).unwrap().lock());
            assert_eq!(&got[..], &want[..], "delta head replays bit-identically");

            // Restoring flips force_full: the next snapshot re-bases (full
            // frames, empty chain) and promotion garbage-collects the
            // superseded head *and* its chain bases.
            store.restore(ctx, &mut [&mut v]).unwrap();
            store.start_new_snapshot();
            store.save(ctx, &v).unwrap();
            store.commit(ctx).unwrap();
            let third = store.snapshot_of(v.object_id()).unwrap();
            assert!(third.chain.is_empty(), "post-restore snapshot is a full base");
            assert!(second.fetch(ctx, store.store(), 0).is_err(), "old head GC'd");
            assert!(first.fetch(ctx, store.store(), 0).is_err(), "old chain base GC'd");
            assert!(third.fetch(ctx, store.store(), 0).is_ok());
        });
    }

    #[test]
    fn wild_codec_knobs_are_clamped_and_the_longest_chain_still_restores() {
        run(2, |ctx| {
            let g = ctx.world();
            // chunk 0 used to divide by zero; full_every above 255 used to
            // wrap the frame's u8 chain depth at the 256th delta epoch.
            let wild = CodecConfig { chunk: 0, full_every: 100_000, ..CodecConfig::from_env() };
            let mut store = AppResilientStore::make_with_codec(ctx, wild).unwrap();
            let cfg = *store.store().codec_config();
            assert_eq!((cfg.chunk, cfg.full_every), (64, 255));
            let v = DupVector::make(ctx, 4096, &g).unwrap();
            v.init(ctx, |i| i as f64).unwrap();
            let mut longest = 0;
            for epoch in 0..300 {
                v.apply(ctx, move |x| x.as_mut_slice()[0] = epoch as f64).unwrap();
                store.start_new_snapshot();
                store.save(ctx, &v).unwrap();
                store.commit(ctx).unwrap();
                longest = longest.max(store.snapshot_of(v.object_id()).unwrap().chain.len());
            }
            assert_eq!(longest, 254, "255 frames: a full base and 254 deltas");
            let head = store.snapshot_of(v.object_id()).unwrap();
            let got = head.fetch(ctx, store.store(), 0).unwrap();
            let want = ctx.encode(&*v.local(ctx).unwrap().lock());
            assert_eq!(&got[..], &want[..], "a deep chain replays bit-identically");
            // A chain whose base is gone is data loss, never data.
            assert!(!head.chain.is_empty());
            store.store().delete_snapshot(ctx, head.chain[0]).unwrap();
            let err = head.fetch(ctx, store.store(), 0).unwrap_err();
            assert!(matches!(err, GmlError::DataLoss(_)), "{err}");
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
