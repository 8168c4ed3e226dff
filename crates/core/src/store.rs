//! The double in-memory resilient store (§IV-B of the paper).
//!
//! Every key/value pair saved into the store is kept **twice**: once at the
//! place that produced it (the *owner*) and once at the **next place** of
//! the object's place group (the *backup*). A single place failure can
//! therefore never lose snapshot data: either the owner copy or the backup
//! copy survives. As the paper notes, the cost of *saving* is uniform (one
//! local insert plus one remote copy), while the cost of *loading* depends
//! on whether the requested data happens to live at the loading place.
//!
//! The store spans **all** places, spares included, so that a spare place
//! substituted by the replace-redundant mode can fetch data saved before it
//! joined the group.
//!
//! A failure leaves the entries the dead place owned or backed up with one
//! replica. [`AppResilientStore::repair`] gives exactly those their second
//! copy back — the surviving frame shipped as stored to the holder's next
//! place in the group the application continues on — so recovering costs
//! what the dead place held, not what the application holds. The executor
//! repairs after every restore; a direct store user that does not call it
//! re-saves instead (`save_read_only` will not reuse a degraded snapshot).
//!
//! [`AppResilientStore::repair`]: crate::app_store::AppResilientStore::repair
//!
//! What a shard holds per entry is fixed by how the store was made: the bare
//! store keeps the serialized payload as it came (*raw*); the store under
//! [`AppResilientStore::make`] keeps a checkpoint-codec frame
//! ([`crate::codec`], *framed*) — a small *head* (header + chunk-digest
//! manifest) and a *body*, which for a payload that would not shrink is that
//! same serialized buffer, held by refcount. A frame restores from itself
//! alone, so an entry is recoverable exactly when one of its two replica
//! places is alive. Either way a payload is copied once per place boundary
//! it crosses (owner → backup on save, holder → fetcher on restore) and
//! nowhere else.
//!
//! [`AppResilientStore::make`]: crate::app_store::AppResilientStore::make

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apgas::prelude::*;
use apgas::sync::Mutex;
use bytes::Bytes;

use crate::codec;
use crate::collective::each_place;
use crate::error::{GmlError, GmlResult};
use crate::snapshot::{EntryLoc, Snapshot};

/// One stored replica. Without a `head` (the raw store) `body` *is* the
/// logical payload. With one, the entry is a codec frame decoding to
/// `logical` bytes: `head` is its header + digest manifest and `body` its
/// record stream or, under a verbatim head, again the payload itself.
#[derive(Clone)]
pub(crate) struct StoredEntry {
    pub(crate) head: Option<Bytes>,
    pub(crate) body: Bytes,
    pub(crate) logical: u64,
}

impl StoredEntry {
    fn raw(payload: Bytes) -> Self {
        StoredEntry { head: None, logical: payload.len() as u64, body: payload }
    }

    /// Wire bytes: what the entry occupies in a shard and costs to ship.
    fn wire(&self) -> usize {
        self.head.as_ref().map_or(0, |h| h.len()) + self.body.len()
    }

    /// One-honest-copy invariant: crossing a place boundary costs exactly
    /// one physical copy of each part, made at the receiving place. The copy
    /// must not share the sender's allocation, or the simulated failure
    /// would not cost a transfer (and `kill` would not model memory loss).
    /// Called at the receiver, which is also where the bytes are accounted.
    fn received(&self, ctx: &Ctx) -> Self {
        ctx.record_bytes_received(self.wire());
        StoredEntry {
            head: self.head.as_deref().map(Bytes::copy_from_slice),
            body: Bytes::copy_from_slice(&self.body),
            logical: self.logical,
        }
    }
}

/// Per-place storage shard: `(snapshot id, key) → stored replica`.
///
/// Every byte held here is charged to the memory ledger's
/// [`StoreShard`](apgas::mem::MemTag::StoreShard) tag — **wire** bytes (the
/// frames actually resident), the same quantity
/// [`ResilientStore::inventory`] reports as `wire_bytes`, so the two
/// reconcile exactly at any quiescent point. *Logical* payload bytes — what
/// the frames decode back to — are reported separately; in a raw store the
/// two quantities coincide. (Owner copies may share the
/// encoder's allocation by refcount; the ledger counts held bytes, not
/// unique heap blocks — the allocator-level view is `mem::heap_bytes`.)
pub(crate) struct PlaceStore {
    map: Mutex<HashMap<(u64, u64), StoredEntry>>,
}

impl PlaceStore {
    fn new() -> Self {
        PlaceStore { map: Mutex::new(HashMap::new()) }
    }

    fn insert(&self, snap_id: u64, key: u64, value: StoredEntry) {
        let added = value.wire();
        let replaced = self.map.lock().insert((snap_id, key), value);
        mem::charge(MemTag::StoreShard, added);
        if let Some(old) = replaced {
            mem::discharge(MemTag::StoreShard, old.wire());
        }
    }

    fn get(&self, snap_id: u64, key: u64) -> Option<StoredEntry> {
        self.map.lock().get(&(snap_id, key)).cloned()
    }

    fn remove_snapshots(&self, snap_ids: &[u64]) {
        let mut freed = 0usize;
        self.map.lock().retain(|(sid, _), v| {
            let keep = !snap_ids.contains(sid);
            if !keep {
                freed += v.wire();
            }
            keep
        });
        mem::discharge(MemTag::StoreShard, freed);
    }

    fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// Presence test without cloning the payload (audit probes).
    fn contains(&self, snap_id: u64, key: u64) -> bool {
        self.map.lock().contains_key(&(snap_id, key))
    }

    /// `(entries, distinct snapshots, logical bytes, wire bytes)` under one
    /// lock.
    fn inventory(&self) -> (usize, usize, u64, u64) {
        let map = self.map.lock();
        let mut snaps = std::collections::HashSet::new();
        let mut logical = 0u64;
        let mut wire = 0u64;
        for ((sid, _), v) in map.iter() {
            snaps.insert(*sid);
            logical += v.logical;
            wire += v.wire() as u64;
        }
        (map.len(), snaps.len(), logical, wire)
    }
}

impl Drop for PlaceStore {
    /// A killed place drops its whole shard (`clear_place` wipes the
    /// place-local map), so the remaining charge is discharged here —
    /// keeping the ledger equal to the *live* inventory across failures.
    fn drop(&mut self) {
        let held: usize = self.map.lock().values().map(StoredEntry::wire).sum();
        mem::discharge(MemTag::StoreShard, held);
    }
}

/// Per-place inventory of one store shard, as reported by
/// [`ResilientStore::inventory`] — the exporter's
/// `gml_store_*{place=...}` gauges and the flight recorder's store section.
#[derive(Clone, Copy, Debug)]
pub struct PlaceInventory {
    /// The shard's place.
    pub place: Place,
    /// Liveness at inventory time; a dead place reports zeroes (its memory,
    /// and with it the shard, is gone).
    pub alive: bool,
    /// Stored `(snapshot, key)` entries.
    pub entries: usize,
    /// Distinct snapshot ids with at least one entry here.
    pub snapshots: usize,
    /// Total *logical* payload bytes held — what the stored entries decode
    /// back to. Equals `wire_bytes` in a raw store.
    pub bytes: u64,
    /// Total *wire* bytes actually resident (frames as stored/shipped).
    /// This is the quantity the `StoreShard` memory-ledger tag charges.
    pub wire_bytes: u64,
}

/// Result of auditing one [`Snapshot`](crate::snapshot::Snapshot) against
/// the double-redundancy invariant (§IV-B): every entry present at both its
/// replica places, the second of them the first's *next place* in the group
/// the copy was placed under (the rule of `second_replica`).
#[derive(Clone, Copy, Debug)]
pub struct SnapshotAudit {
    /// The audited snapshot's store namespace.
    pub snap_id: u64,
    /// The object the snapshot belongs to.
    pub object_id: u64,
    /// Entries the snapshot's metadata records.
    pub entries: usize,
    /// Entries whose payload is present at both replica places.
    pub fully_redundant: usize,
    /// Entries down to exactly one surviving replica (one more failure away
    /// from loss). A non-redundant (ablation) store reports every entry
    /// here by design.
    pub degraded: usize,
    /// Entries with **no** surviving replica — the invariant violation a
    /// double failure produces.
    pub lost: usize,
    /// Entries whose recorded backup is not the owner's next place in the
    /// group the copy was placed under — the snapshot's, or for a repaired
    /// entry the one it was repaired under (misplacement would silently void
    /// the one-failure-survivability guarantee).
    pub placement_violations: usize,
    /// Metadata payload bytes across all entries.
    pub bytes: u64,
}

impl SnapshotAudit {
    /// True when the snapshot still honours the store's invariant: nothing
    /// lost and every backup where the placement rule says it must be.
    pub fn invariant_ok(&self) -> bool {
        self.lost == 0 && self.placement_violations == 0
    }
}

/// What one [`AppResilientStore::repair`] did.
///
/// [`AppResilientStore::repair`]: crate::app_store::AppResilientStore::repair
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Entries that were down to one replica and have two again.
    pub entries: usize,
    /// Wire bytes copied: those entries' frames, as stored.
    pub wire_bytes: u64,
    /// The holder → target transfers; distinct pairs ran concurrently.
    pub pairs: Vec<(Place, Place)>,
    /// Wall time of the repair.
    pub time: Duration,
}

/// The §IV-B placement rule, stated once: an entry's two replicas live at
/// two distinct places, the second the first's successor (wrapping) in the
/// group the copy was placed under; over a one-place group the pair
/// collapses onto that place. [`ResilientStore::save_local_parts`] places a
/// save by it (first = the owner), [`ResilientStore::repair`] a
/// re-replication (first = the surviving holder), and
/// [`ResilientStore::audit_snapshot`] checks every recorded pair against it.
fn second_replica(group: &PlaceGroup, first: Place) -> GmlResult<Place> {
    group
        .next_place(first)
        .ok_or_else(|| GmlError::shape(format!("{first} keeps a replica for a group it is not in")))
}

/// One backup transfer of entries already in their holder's shard: a
/// capture's ([`ResilientStore::ship_orders`]) or a repair's. The order
/// carries only metadata; the payloads are re-read by key at ship time.
#[derive(Clone, Debug)]
pub(crate) struct ShipOrder {
    pub(crate) snap_id: u64,
    pub(crate) owner: Place,
    pub(crate) backup: Place,
    pub(crate) keys: Vec<u64>,
    /// Total payload bytes (for spans; the authoritative sizes live in the
    /// shard).
    pub(crate) total: usize,
}

/// Handle to the distributed double in-memory store. Cheap to clone and
/// `Send`, so collectives can carry it into remote tasks.
#[derive(Clone)]
pub struct ResilientStore {
    plh: PlaceLocalHandle<PlaceStore>,
    next_snap_id: Arc<AtomicU64>,
    /// When false, backup copies are skipped — an **ablation** switch that
    /// halves checkpoint cost but loses snapshot data with the owning
    /// place. Production use keeps this on.
    redundant: bool,
    /// When true, [`save_batch`](Self::save_batch) inserts the owner copies
    /// and ships nothing: the backup transfers are left to whoever holds the
    /// resulting [`Snapshot`] ([`ship_orders`](Self::ship_orders)). Only the
    /// handle an `AppResilientStore` passes to `make_snapshot` is built so.
    capture_only: bool,
    /// When true, `save_batch` stores and ships every entry as a checkpoint
    /// codec frame ([`crate::codec`]). Bare stores are raw — the parity
    /// reference; [`AppResilientStore::make`] builds a framed one.
    ///
    /// [`AppResilientStore::make`]: crate::app_store::AppResilientStore::make
    framed: bool,
    /// Entry payloads handed out by [`fetch`](Self::fetch), at any place.
    handed_out: Arc<AtomicU64>,
}

impl ResilientStore {
    /// Create the store's shard at every place (including spares).
    pub fn make(ctx: &Ctx) -> GmlResult<Self> {
        Self::make_full(ctx, true, false)
    }

    /// Create the store with the backup copies toggled (see `redundant`).
    pub fn make_with_redundancy(ctx: &Ctx, redundant: bool) -> GmlResult<Self> {
        Self::make_full(ctx, redundant, false)
    }

    /// Every public constructor, here and on `AppResilientStore`, ends here.
    pub(crate) fn make_full(ctx: &Ctx, redundant: bool, framed: bool) -> GmlResult<Self> {
        let all = ctx.all_places();
        let plh = PlaceLocalHandle::make(ctx, &all, |_| PlaceStore::new())?;
        Ok(ResilientStore {
            plh,
            next_snap_id: Arc::new(AtomicU64::new(1)),
            redundant,
            capture_only: false,
            framed,
            handed_out: Arc::new(AtomicU64::new(0)),
        })
    }

    /// This store as a handle that only captures (see `capture_only`).
    pub(crate) fn capturing(&self) -> Self {
        ResilientStore { capture_only: true, ..self.clone() }
    }

    /// Whether backup copies are being written.
    pub fn is_redundant(&self) -> bool {
        self.redundant
    }

    /// Allocate a namespace for one object snapshot.
    pub fn fresh_snap_id(&self) -> u64 {
        self.next_snap_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The next id [`fresh_snap_id`](Self::fresh_snap_id) would hand out,
    /// without allocating it. `AppResilientStore` reads this as a watermark
    /// when opening a checkpoint attempt, so a cancelled attempt can delete
    /// *every* id the attempt allocated — including ids burned by a
    /// `make_snapshot` that failed before its snapshot entered the attempt's
    /// map (which would otherwise leak partial inventory).
    pub fn peek_next_id(&self) -> u64 {
        self.next_snap_id.load(Ordering::Relaxed)
    }

    /// This place's shard, creating it on first use — elastically spawned
    /// places join the store lazily.
    fn shard(&self, ctx: &Ctx) -> GmlResult<std::sync::Arc<PlaceStore>> {
        if let Ok(s) = self.plh.local(ctx) {
            return Ok(s);
        }
        self.plh.set_local(ctx, PlaceStore::new());
        Ok(self.plh.local(ctx)?)
    }

    /// Save the parts of an object that the **current place** owns, and say
    /// where they went: the backup of everything a place owns lives at its
    /// `second_replica` in the object's group. Every `make_snapshot` calls
    /// this from a task running at the owning place and hands the returned
    /// locations to [`Snapshot::gathered`](crate::snapshot::Snapshot::gathered).
    pub fn save_local_parts(
        &self,
        ctx: &Ctx,
        snap_id: u64,
        group: &PlaceGroup,
        parts: Vec<(u64, Bytes)>,
    ) -> GmlResult<Vec<(u64, EntryLoc)>> {
        let owner = ctx.here();
        let backup = second_replica(group, owner)?;
        let locs =
            parts.iter().map(|(key, v)| (*key, EntryLoc { owner, backup, len: v.len() })).collect();
        self.save_batch(ctx, snap_id, parts, backup)?;
        Ok(locs)
    }

    /// Save a whole place's snapshot entries at once: local inserts for
    /// every pair, then **one** batched backup transfer carrying the entire
    /// frame to `backup` — a single `at` round trip whatever the number of
    /// keys. Must be called from a task running at the owning place. Returns
    /// the total payload size.
    ///
    /// Over a single-place group the backup collapses onto the owner
    /// (`backup == here`), leaving one copy only — a one-place application
    /// has no second place to survive on, matching the paper's model.
    ///
    /// A capture-only handle stops after the owner inserts. Either way a
    /// backup that is already dead fails the save here, so the enclosing
    /// checkpoint aborts and is cancelled (atomic commit).
    pub fn save_batch(
        &self,
        ctx: &Ctx,
        snap_id: u64,
        entries: Vec<(u64, Bytes)>,
        backup: Place,
    ) -> GmlResult<usize> {
        let total: usize = entries.iter().map(|(_, v)| v.len()).sum();
        let _span = ctx.trace_span(SpanKind::StoreSaveBatch, total as u64);
        let shard = self.shard(ctx)?;
        let stored = self.encode_batch(ctx, entries);
        for (key, entry) in &stored {
            // Owner copies: a refcount bump only — the serialized buffer
            // produced at this place IS the stored replica; no place
            // boundary is crossed.
            shard.insert(snap_id, *key, entry.clone());
        }
        if self.redundant && backup != ctx.here() && !stored.is_empty() {
            // Fail fast on a backup that is already dead, so the enclosing
            // checkpoint aborts at save time (atomic cancel) rather than at
            // the ship barrier. A death *after* this check is caught by the
            // transfer itself.
            if !ctx.is_alive(backup) {
                return Err(GmlError::from(apgas::ApgasError::DeadPlace(
                    apgas::DeadPlaceException::new(backup, "backup died before batch ship"),
                )));
            }
            if !self.capture_only {
                self.ship_entries(ctx, snap_id, stored, backup)?;
            }
        }
        Ok(total)
    }

    /// What one place's batch is stored and shipped as: the payloads as they
    /// came in a raw store, else each framed by `codec::encode_entry` —
    /// packed where that is proven to pay, else kept verbatim, the
    /// serialized buffer itself becoming the entry's body.
    fn encode_batch(&self, ctx: &Ctx, entries: Vec<(u64, Bytes)>) -> Vec<(u64, StoredEntry)> {
        if !self.framed {
            return entries.into_iter().map(|(k, v)| (k, StoredEntry::raw(v))).collect();
        }
        let total: usize = entries.iter().map(|(_, v)| v.len()).sum();
        let _span = ctx.trace_span(SpanKind::CkptEncode, total as u64);
        let framed = entries.into_iter().map(|(key, payload)| {
            let codec::EncodeOutcome { head, body } = codec::encode_entry(&payload);
            (key, StoredEntry { head: Some(head), body, logical: payload.len() as u64 })
        });
        framed.collect()
    }

    /// The batched backup transfer: one `at` to `backup` carrying the whole
    /// frame of `(key, stored entry)` pairs. Runs at the owning place.
    fn ship_entries(
        &self,
        ctx: &Ctx,
        snap_id: u64,
        entries: Vec<(u64, StoredEntry)>,
        backup: Place,
    ) -> GmlResult<()> {
        // Wire accounting: what actually crosses the place boundary is the
        // stored (possibly framed) bytes — in a framed store this is where
        // packing shows up in `bytes_shipped`.
        let total: usize = entries.iter().map(|(_, e)| e.wire()).sum();
        let store = self.clone();
        ctx.record_bytes(total);
        // Causal context rides the batch frame as a real 12-byte serialized
        // header (`TraceCtx: Serial`) and is decoded + adopted before the
        // receiving side does its work, so the backup's copies link back to
        // the owning place's save span. Trace plumbing, not payload: the
        // header is deliberately excluded from `record_bytes` accounting,
        // as is the per-entry logical length.
        let header = TraceCtx::capture(ctx.tracer(), ctx.here().id()).to_bytes();
        ctx.at(backup, move |ctx| -> GmlResult<()> {
            let _adopt = TraceCtx::from_bytes(header).adopt();
            let shard = store.shard(ctx)?;
            for (key, entry) in entries {
                // Batching collapses B round trips into one, but each entry
                // still costs its one copy — the only wire copy on the
                // batched save path, and for a verbatim frame the only copy
                // of the payload after it was serialized. Frames ship as
                // stored, so the backup replica is bit-identical to the
                // owner's.
                shard.insert(snap_id, key, entry.received(ctx));
            }
            Ok(())
        })??;
        Ok(())
    }

    /// The backup transfers a capture of `snap` left undone, read off the
    /// snapshot: its entries grouped by `(owner, backup)` replica pair, in
    /// the owner's group order, keys ascending — the same on every run. None
    /// for a non-redundant store, nor for a pair collapsed onto one place.
    pub(crate) fn ship_orders(&self, snap: &Snapshot) -> Vec<ShipOrder> {
        let shipped = snap.entries.iter().filter(|(_, loc)| self.redundant && loc.owner != loc.backup);
        let mut entries: Vec<(u64, EntryLoc)> = shipped.map(|(&key, &loc)| (key, loc)).collect();
        entries.sort_unstable_by_key(|&(key, loc)| (snap.group.index_of(loc.owner), loc.backup, key));
        let of_one_pair = entries.chunk_by(|a, b| (a.1.owner, a.1.backup) == (b.1.owner, b.1.backup));
        let orders = of_one_pair.map(|entries| ShipOrder {
            snap_id: snap.snap_id,
            owner: entries[0].1.owner,
            backup: entries[0].1.backup,
            keys: entries.iter().map(|&(key, _)| key).collect(),
            total: entries.iter().map(|(_, loc)| loc.len).sum(),
        });
        orders.collect()
    }

    /// Execute one backup transfer: re-read the captured payloads from the
    /// owner's shard and run the batched ship. Callable from any
    /// place (the checkpoint pipeline runs it from a driver-side helper
    /// thread while the next iteration computes).
    pub(crate) fn execute_ship(&self, ctx: &Ctx, order: ShipOrder) -> GmlResult<()> {
        let _span = ctx.trace_span(SpanKind::CkptShip, order.total as u64);
        let store = self.clone();
        ctx.at(order.owner, move |ctx| store.ship_from_here(ctx, &order))??;
        Ok(())
    }

    /// The owner's half of a [`ShipOrder`]: re-read the entries from this
    /// place's shard and ship them as stored. Returns how many entries and
    /// wire bytes went.
    fn ship_from_here(&self, ctx: &Ctx, order: &ShipOrder) -> GmlResult<(usize, usize)> {
        let shard = self.shard(ctx)?;
        let entries: Vec<(u64, StoredEntry)> = order
            .keys
            .iter()
            // A missing key means the snapshot was cancelled between
            // capture and ship; the order is stale and skipping is the
            // correct quiet outcome.
            .filter_map(|&k| shard.get(order.snap_id, k).map(|v| (k, v)))
            .collect();
        let shipped = (entries.len(), entries.iter().map(|(_, e)| e.wire()).sum());
        self.ship_entries(ctx, order.snap_id, entries, order.backup)?;
        Ok(shipped)
    }

    /// Give every entry of `snaps` that a failure left with **one** live
    /// replica its second one back: the surviving frame is shipped *as
    /// stored* (no decode, no re-encode; one copy, at the receiver, like a
    /// save's backup) from its holder to the holder's `second_replica` in
    /// `group`, the group the application continues on. Transfers of
    /// distinct holder → target pairs run concurrently. The snap ids stay
    /// what they were, so read-only reuse is unaffected; the entries'
    /// recorded locations are rewritten (first replica = the holder) and
    /// remember the group they were placed under, so the snapshots are
    /// fully redundant again and audit clean.
    ///
    /// An entry with no live replica is [`GmlError::DataLoss`]. A place
    /// dying under the repair is a recoverable error and leaves every
    /// recorded location as it was (copies that did land are harmless
    /// strays under ids the snapshot's deletion sweeps): the caller
    /// recovers and repairs again. Never reads a dead place and never
    /// touches a replica that is still alive. `gate` is the failure drills'
    /// ship gate: while it is set the planned transfers wait.
    pub(crate) fn repair(
        &self,
        ctx: &Ctx,
        snaps: &mut [&mut Snapshot],
        group: &PlaceGroup,
        gate: Option<&AtomicBool>,
    ) -> GmlResult<RepairReport> {
        let t0 = Instant::now();
        let mut report = RepairReport::default();
        if !self.redundant {
            // The ablation store keeps one copy by design.
            return Ok(report);
        }
        // Per holder → target pair, the (snapshot index, key) entries to
        // re-home.
        let mut plan: BTreeMap<(Place, Place), Vec<(usize, u64)>> = BTreeMap::new();
        for (si, snap) in snaps.iter().enumerate() {
            for (&key, loc) in snap.entries.iter() {
                let holder = match (ctx.is_alive(loc.owner), ctx.is_alive(loc.backup)) {
                    (true, true) => continue,
                    (true, false) => loc.owner,
                    (false, true) => loc.backup,
                    (false, false) => {
                        return Err(GmlError::data_loss(format!(
                            "snapshot {} key {key}: owner {} and backup {} both dead",
                            snap.snap_id, loc.owner, loc.backup
                        )))
                    }
                };
                let target = second_replica(group, holder)?;
                if target != holder {
                    plan.entry((holder, target)).or_default().push((si, key));
                }
            }
        }
        if plan.is_empty() {
            return Ok(report);
        }
        // Per pair, one order per snapshot with entries to re-home.
        let orders: Vec<Vec<ShipOrder>> = plan
            .iter_mut()
            .map(|(&(owner, backup), moved)| {
                moved.sort_unstable();
                let of_one_snap = moved.chunk_by(|a, b| a.0 == b.0);
                let orders = of_one_snap.map(|moved| {
                    let snap = &snaps[moved[0].0];
                    let keys: Vec<u64> = moved.iter().map(|&(_, key)| key).collect();
                    let total = keys.iter().map(|k| snap.entries[k].len).sum();
                    ShipOrder { snap_id: snap.snap_id, owner, backup, keys, total }
                });
                orders.collect()
            })
            .collect();
        wait_while_set(gate);
        let (pairs, moved): (Vec<_>, Vec<_>) = plan.into_iter().unzip();
        let (store, orders) = (self.clone(), Arc::new(orders));
        let holders = pairs.iter().enumerate().map(|(i, &(holder, _))| (i, holder));
        let shipped = each_place(ctx, holders, move |ctx, i| {
            let mut wire = 0;
            for order in &orders[i] {
                let _span = ctx.trace_span(SpanKind::CkptShip, order.total as u64);
                let (found, bytes) = store.ship_from_here(ctx, order)?;
                if found != order.keys.len() {
                    return Err(GmlError::data_loss(format!(
                        "snapshot {}: {} holds {found} of the {} entries it should",
                        order.snap_id,
                        order.owner,
                        order.keys.len()
                    )));
                }
                wire += bytes as u64;
            }
            Ok(wire)
        })?;
        for (&(holder, target), moved) in pairs.iter().zip(moved) {
            for (si, key) in moved {
                let snap = &mut *snaps[si];
                let loc = Arc::make_mut(&mut snap.entries).get_mut(&key).expect("planned from it");
                (loc.owner, loc.backup) = (holder, target);
                snap.placed_under.insert(key, group.clone());
                report.entries += 1;
            }
        }
        report.wire_bytes = shipped.iter().sum();
        report.pairs = pairs;
        report.time = t0.elapsed();
        Ok(report)
    }

    /// Fetch an entry's **logical payload** from wherever it survives. A raw
    /// entry is its payload; a frame is decoded from its own head and body,
    /// every chunk digest-verified — the body of a verbatim frame is then
    /// handed on by refcount. Any mismatch is reported as data loss, never
    /// returned as data.
    pub fn fetch(
        &self,
        ctx: &Ctx,
        snap_id: u64,
        key: u64,
        owner: Place,
        backup: Place,
    ) -> GmlResult<Bytes> {
        let entry = self.fetch_stored(ctx, snap_id, key, owner, backup)?;
        let payload = match &entry.head {
            None => entry.body,
            Some(head) => {
                let _span = ctx.trace_span(SpanKind::CkptDecode, entry.wire() as u64);
                codec::decode_frame(head, &entry.body).map_err(|e| {
                    GmlError::data_loss(format!("key {key}: frame decode failed: {e}"))
                })?
            }
        };
        self.handed_out.fetch_add(1, Ordering::Relaxed);
        Ok(payload)
    }

    /// How many entry payloads [`fetch`](Self::fetch) has handed out so far,
    /// over all places — verified and decoded each time, so this is what a
    /// restore's read amplification is counted in (raw and framed stores
    /// alike).
    pub fn payloads_handed_out(&self) -> u64 {
        self.handed_out.load(Ordering::Relaxed)
    }

    /// Fetch an entry **as stored** (frame or raw) from this place's shard
    /// first, then the owner's, then the backup's.
    fn fetch_stored(
        &self,
        ctx: &Ctx,
        snap_id: u64,
        key: u64,
        owner: Place,
        backup: Place,
    ) -> GmlResult<StoredEntry> {
        let mut span = ctx.trace_span(SpanKind::StoreFetch, 0);
        // Local shard hit: no place boundary crossed, so a refcount handoff
        // of the stored buffer is honest (and free).
        if let Ok(shard) = self.plh.local(ctx) {
            if let Some(e) = shard.get(snap_id, key) {
                span.set_arg(e.wire() as u64);
                return Ok(e);
            }
        }
        for source in [owner, backup] {
            if source == ctx.here() || !ctx.is_alive(source) {
                continue;
            }
            let plh = self.plh;
            // The remote lookup hands back the shard's buffer by refcount
            // (free in the simulation); the single honest wire copy for this
            // place crossing is made below, at the fetching place. The
            // fetch's causal context crosses as a framed 12-byte header,
            // excluded from byte accounting like the save path's.
            let header = TraceCtx::capture(ctx.tracer(), ctx.here().id()).to_bytes();
            let got: Option<StoredEntry> = ctx
                .at(source, move |ctx| {
                    let _adopt = TraceCtx::from_bytes(header).adopt();
                    plh.local(ctx).ok().and_then(|s| s.get(snap_id, key))
                })
                .unwrap_or(None);
            if let Some(e) = got {
                span.set_arg(e.wire() as u64);
                ctx.record_bytes(e.wire());
                // The only wire copy on the fetch path — the entry lands in
                // this place's "memory". In a framed store, what crosses
                // (and is accounted) is the frame, not its decoded
                // expansion; a verbatim frame needs no other copy to become
                // the payload again.
                return Ok(e.received(ctx));
            }
        }
        Err(GmlError::data_loss(format!(
            "snapshot {snap_id} key {key}: owner {owner} and backup {backup} both unavailable"
        )))
    }

    /// True if the entry is still reachable (some replica's place is alive).
    pub fn reachable(&self, ctx: &Ctx, owner: Place, backup: Place) -> bool {
        ctx.is_alive(owner) || ctx.is_alive(backup)
    }

    /// Drop every entry of every snapshot in `snap_ids` at all live places
    /// (old checkpoints are deleted once a new one commits), in one fan-out:
    /// a task per live place whatever the number of ids.
    pub fn delete_snapshots(&self, ctx: &Ctx, snap_ids: &[u64]) -> GmlResult<()> {
        let Some(&first) = snap_ids.first() else {
            return Ok(());
        };
        let _span = ctx.trace_span(SpanKind::StoreDelete, first);
        let plh = self.plh;
        let ids: Arc<[u64]> = snap_ids.into();
        let all = ctx.all_places();
        let live = all.iter().enumerate().filter(|&(_, p)| ctx.is_alive(p));
        each_place(ctx, live, move |ctx, _| {
            if let Ok(shard) = plh.local(ctx) {
                shard.remove_snapshots(&ids);
            }
            Ok(())
        })
        .map(drop)
    }

    /// Number of entries stored at `p` (diagnostics/tests).
    pub fn entries_at(&self, ctx: &Ctx, p: Place) -> GmlResult<usize> {
        let plh = self.plh;
        Ok(ctx.at(p, move |ctx| plh.local(ctx).map(|s| s.len()).unwrap_or(0))?)
    }

    /// Inventory every place's shard: entry/snapshot counts and logical +
    /// wire payload bytes. Dead places report zeroes rather than failing —
    /// the whole point is to read the store's shape *during* a failure.
    pub fn inventory(&self, ctx: &Ctx) -> Vec<PlaceInventory> {
        let mut out = Vec::new();
        for place in ctx.all_places().iter() {
            if !ctx.is_alive(place) {
                out.push(PlaceInventory {
                    place,
                    alive: false,
                    entries: 0,
                    snapshots: 0,
                    bytes: 0,
                    wire_bytes: 0,
                });
                continue;
            }
            let plh = self.plh;
            let (entries, snapshots, bytes, wire_bytes) = ctx
                .at(place, move |ctx| {
                    plh.local(ctx).map(|s| s.inventory()).unwrap_or((0, 0, 0, 0))
                })
                // Lost a race with a kill: same as dead.
                .unwrap_or((0, 0, 0, 0));
            out.push(PlaceInventory { place, alive: true, entries, snapshots, bytes, wire_bytes });
        }
        out
    }

    /// Audit one snapshot against the double-redundancy invariant: probe
    /// every recorded replica for presence (one batched `at` per live
    /// place) and check backup placement against the group's next-place
    /// rule. Tolerates any pattern of dead places — after losing both
    /// replicas of an entry it *reports* the loss instead of failing.
    pub fn audit_snapshot(
        &self,
        ctx: &Ctx,
        snap: &Snapshot,
    ) -> SnapshotAudit {
        // Batch presence probes: every (place, key) pair we must check,
        // grouped by place so each live place is visited exactly once.
        let mut probes: HashMap<Place, Vec<u64>> = HashMap::new();
        for (key, loc) in snap.entries.iter() {
            probes.entry(loc.owner).or_default().push(*key);
            if loc.backup != loc.owner {
                probes.entry(loc.backup).or_default().push(*key);
            }
        }
        let snap_id = snap.snap_id;
        let mut present: std::collections::HashSet<(Place, u64)> = std::collections::HashSet::new();
        for (place, keys) in probes {
            if !ctx.is_alive(place) {
                continue;
            }
            let plh = self.plh;
            let keys2 = keys.clone();
            let found: Vec<bool> = ctx
                .at(place, move |ctx| match plh.local(ctx) {
                    Ok(shard) => keys2.iter().map(|k| shard.contains(snap_id, *k)).collect(),
                    Err(_) => vec![false; keys2.len()],
                })
                // The place died between the liveness check and the probe.
                .unwrap_or_else(|_| vec![false; keys.len()]);
            for (key, ok) in keys.into_iter().zip(found) {
                if ok {
                    present.insert((place, key));
                }
            }
        }
        let mut audit = SnapshotAudit {
            snap_id,
            object_id: snap.object_id,
            entries: snap.entries.len(),
            fully_redundant: 0,
            degraded: 0,
            lost: 0,
            placement_violations: 0,
            bytes: snap.total_bytes() as u64,
        };
        for (key, loc) in snap.entries.iter() {
            let owner_ok = present.contains(&(loc.owner, *key));
            let backup_ok = if loc.backup == loc.owner {
                owner_ok
            } else {
                present.contains(&(loc.backup, *key))
            };
            match (owner_ok, backup_ok) {
                (true, true) => audit.fully_redundant += 1,
                (false, false) => audit.lost += 1,
                _ => audit.degraded += 1,
            }
            let placed_under = snap.placed_under.get(key).unwrap_or(&snap.group);
            if second_replica(placed_under, loc.owner).ok() != Some(loc.backup) {
                audit.placement_violations += 1;
            }
        }
        audit
    }

    /// Register a Prometheus collector reporting this store's per-place
    /// inventory (`gml_store_*` gauges) plus the data-plane pool counters
    /// the runtime can't see from `apgas` (`gml_tile_*`, the kernel
    /// scratch-buffer pool in `gml-matrix`) on every scrape of the
    /// runtime's monitor endpoint. No-op when monitoring is disabled.
    pub fn register_monitor(&self, ctx: &Ctx) {
        if ctx.monitor_addr().is_none() {
            return;
        }
        let store = self.clone();
        let cx = ctx.clone();
        ctx.add_monitor_collector(move || {
            let mut out = render_inventory(&store.inventory(&cx));
            render_tile_stats(&mut out);
            codec::render_codec(&mut out);
            out
        });
    }
}

/// Failure-drill hook: park while the ship gate is set, so a test can kill a
/// place between a transfer being planned and being carried out.
pub(crate) fn wait_while_set(gate: Option<&AtomicBool>) {
    while gate.is_some_and(|g| g.load(Ordering::Acquire)) {
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Render the process-wide tile-pool rent counters (`gml_tile_*` families).
pub fn render_tile_stats(out: &mut String) {
    let s = gml_matrix::tile::stats();
    for (name, v, help) in [
        ("gml_tile_hits_total", s.hits, "Tile scratch rents served from parked capacity."),
        ("gml_tile_misses_total", s.misses, "Tile scratch rents that had to allocate."),
    ] {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"));
    }
}

/// Render a store inventory as Prometheus text (`gml_store_*` families).
pub fn render_inventory(inv: &[PlaceInventory]) -> String {
    let mut out = String::new();
    for (name, help, get) in [
        (
            "gml_store_place_alive",
            "1 while the shard's place is alive.",
            (|i: &PlaceInventory| u64::from(i.alive)) as fn(&PlaceInventory) -> u64,
        ),
        ("gml_store_entries", "Stored (snapshot, key) entries at the place.", |i| {
            i.entries as u64
        }),
        ("gml_store_snapshots", "Distinct snapshot ids present at the place.", |i| {
            i.snapshots as u64
        }),
        ("gml_store_bytes", "Logical payload bytes held at the place.", |i| i.bytes),
        ("gml_store_wire_bytes", "Wire (framed) bytes resident at the place.", |i| {
            i.wire_bytes
        }),
    ] {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
        for i in inv {
            out.push_str(&format!("{name}{{place=\"{}\"}} {}\n", i.place.id(), get(i)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use apgas::runtime::{Runtime, RuntimeConfig};

    fn with_store(places: usize, spares: usize, f: impl FnOnce(&Ctx, ResilientStore) + Send + 'static) {
        Runtime::run(RuntimeConfig::new(places).spares(spares).resilient(true), move |ctx| {
            let store = ResilientStore::make(ctx).expect("store");
            f(ctx, store);
        })
        .unwrap();
    }

    #[test]
    fn save_and_fetch_locally() {
        with_store(3, 0, |ctx, store| {
            let sid = store.fresh_snap_id();
            let payload = Bytes::from_static(b"hello");
            store.save_batch(ctx, sid, vec![(7, payload.clone())], Place::new(1)).unwrap();
            let got = store.fetch(ctx, sid, 7, Place::ZERO, Place::new(1)).unwrap();
            assert_eq!(got, payload);
        });
    }

    #[test]
    fn save_from_remote_place_and_fetch_from_third() {
        with_store(4, 0, |ctx, store| {
            let sid = store.fresh_snap_id();
            let s2 = store.clone();
            // Save at place 1, backup at place 2.
            ctx.at(Place::new(1), move |ctx| {
                s2.save_batch(ctx, sid, vec![(3, Bytes::from_static(b"xyz"))], Place::new(2)).unwrap();
            })
            .unwrap();
            // Fetch from place 3 (neither owner nor backup): goes remote.
            let s3 = store.clone();
            let got = ctx
                .at(Place::new(3), move |ctx| {
                    s3.fetch(ctx, sid, 3, Place::new(1), Place::new(2)).unwrap()
                })
                .unwrap();
            assert_eq!(got, Bytes::from_static(b"xyz"));
        });
    }

    #[test]
    fn backup_survives_owner_failure() {
        with_store(4, 0, |ctx, store| {
            let sid = store.fresh_snap_id();
            let s2 = store.clone();
            ctx.at(Place::new(1), move |ctx| {
                s2.save_batch(ctx, sid, vec![(1, Bytes::from_static(b"vital"))], Place::new(2)).unwrap();
            })
            .unwrap();
            ctx.kill_place(Place::new(1)).unwrap();
            let got = store.fetch(ctx, sid, 1, Place::new(1), Place::new(2)).unwrap();
            assert_eq!(got, Bytes::from_static(b"vital"));
        });
    }

    #[test]
    fn owner_survives_backup_failure() {
        with_store(4, 0, |ctx, store| {
            let sid = store.fresh_snap_id();
            let s2 = store.clone();
            ctx.at(Place::new(1), move |ctx| {
                s2.save_batch(ctx, sid, vec![(1, Bytes::from_static(b"vital"))], Place::new(2)).unwrap();
            })
            .unwrap();
            ctx.kill_place(Place::new(2)).unwrap();
            let got = store.fetch(ctx, sid, 1, Place::new(1), Place::new(2)).unwrap();
            assert_eq!(got, Bytes::from_static(b"vital"));
        });
    }

    #[test]
    fn double_failure_is_data_loss() {
        with_store(4, 0, |ctx, store| {
            let sid = store.fresh_snap_id();
            let s2 = store.clone();
            ctx.at(Place::new(1), move |ctx| {
                s2.save_batch(ctx, sid, vec![(1, Bytes::from_static(b"gone"))], Place::new(2)).unwrap();
            })
            .unwrap();
            ctx.kill_place(Place::new(1)).unwrap();
            ctx.kill_place(Place::new(2)).unwrap();
            assert!(!store.reachable(ctx, Place::new(1), Place::new(2)));
            let err = store.fetch(ctx, sid, 1, Place::new(1), Place::new(2)).unwrap_err();
            assert!(matches!(err, GmlError::DataLoss(_)));
        });
    }

    #[test]
    fn backup_is_a_physical_copy() {
        with_store(2, 0, |ctx, store| {
            let sid = store.fresh_snap_id();
            let before = ctx.stats().bytes_shipped;
            store
                .save_batch(ctx, sid, vec![(0, Bytes::from(vec![7u8; 1024]))], Place::new(1))
                .unwrap();
            let after = ctx.stats().bytes_shipped;
            assert_eq!(after - before, 1024, "backup transfer is accounted");
        });
    }

    #[test]
    fn delete_snapshot_removes_everywhere() {
        with_store(3, 0, |ctx, store| {
            let sid = store.fresh_snap_id();
            store.save_batch(ctx, sid, vec![(0, Bytes::from_static(b"a"))], Place::new(1)).unwrap();
            store.save_batch(ctx, sid, vec![(1, Bytes::from_static(b"b"))], Place::new(1)).unwrap();
            assert_eq!(store.entries_at(ctx, Place::ZERO).unwrap(), 2);
            assert_eq!(store.entries_at(ctx, Place::new(1)).unwrap(), 2);
            store.delete_snapshots(ctx, &[sid]).unwrap();
            for p in ctx.world().iter() {
                assert_eq!(store.entries_at(ctx, p).unwrap(), 0);
            }
        });
    }

    #[test]
    fn delete_only_targets_one_snapshot() {
        with_store(2, 0, |ctx, store| {
            let a = store.fresh_snap_id();
            let b = store.fresh_snap_id();
            store.save_batch(ctx, a, vec![(0, Bytes::from_static(b"a"))], Place::new(1)).unwrap();
            store.save_batch(ctx, b, vec![(0, Bytes::from_static(b"b"))], Place::new(1)).unwrap();
            store.delete_snapshots(ctx, &[a]).unwrap();
            assert!(store.fetch(ctx, a, 0, Place::ZERO, Place::new(1)).is_err());
            assert!(store.fetch(ctx, b, 0, Place::ZERO, Place::new(1)).is_ok());
        });
    }

    #[test]
    fn spare_places_carry_shards() {
        with_store(2, 1, |ctx, store| {
            let sid = store.fresh_snap_id();
            // Owner place 1, backup the *spare* place 2 (stores span spares).
            let s2 = store.clone();
            ctx.at(Place::new(1), move |ctx| {
                s2.save_batch(ctx, sid, vec![(9, Bytes::from_static(b"s"))], Place::new(2)).unwrap();
            })
            .unwrap();
            ctx.kill_place(Place::new(1)).unwrap();
            let got = store.fetch(ctx, sid, 9, Place::new(1), Place::new(2)).unwrap();
            assert_eq!(got, Bytes::from_static(b"s"));
        });
    }

    #[test]
    fn non_redundant_store_is_cheaper_but_fragile() {
        Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
            let store = ResilientStore::make_with_redundancy(ctx, false).unwrap();
            assert!(!store.is_redundant());
            let sid = store.fresh_snap_id();
            let s2 = store.clone();
            let before = ctx.stats().bytes_shipped;
            ctx.at(Place::new(1), move |ctx| {
                s2.save_batch(ctx, sid, vec![(0, Bytes::from(vec![1u8; 512]))], Place::new(2)).unwrap();
            })
            .unwrap();
            // Ablation: no backup transfer happened...
            assert_eq!(ctx.stats().bytes_shipped - before, 0);
            // ...so the data dies with its owner.
            ctx.kill_place(Place::new(1)).unwrap();
            assert!(store.fetch(ctx, sid, 0, Place::new(1), Place::new(2)).is_err());
        })
        .unwrap();
    }

    #[test]
    fn save_fails_when_backup_dies() {
        with_store(3, 0, |ctx, store| {
            ctx.kill_place(Place::new(2)).unwrap();
            let sid = store.fresh_snap_id();
            // A capture ships nothing, and still refuses a dead backup.
            let err = store
                .capturing()
                .save_batch(ctx, sid, vec![(0, Bytes::from_static(b"x"))], Place::new(2))
                .unwrap_err();
            assert!(err.is_recoverable(), "dead backup is a recoverable failure: {err}");
        });
    }

    /// Save one entry per group place through the owner-side call every
    /// `make_snapshot` uses, and package the metadata the same way.
    fn saved_snapshot(ctx: &Ctx, store: &ResilientStore, group: &PlaceGroup) -> Snapshot {
        let sid = store.fresh_snap_id();
        let mut entries = Vec::new();
        for (i, owner) in group.iter().enumerate() {
            let (s2, g2) = (store.clone(), group.clone());
            let part = vec![(i as u64, Bytes::from(vec![i as u8; 64]))];
            let locs = ctx.at(owner, move |ctx| s2.save_local_parts(ctx, sid, &g2, part).unwrap());
            entries.extend(locs.unwrap());
        }
        Snapshot::gathered(ctx, sid, 42, group, Bytes::new(), entries)
    }

    #[test]
    fn save_local_parts_places_the_backup_at_the_next_group_place() {
        with_store(4, 0, |ctx, store| {
            // A group that neither starts at place zero nor is in id order.
            let group: PlaceGroup =
                [Place::new(3), Place::new(1), Place::new(2)].into_iter().collect();
            let snap = saved_snapshot(ctx, &store, &group);
            for (key, owner, backup) in [(0, 3, 1), (1, 1, 2), (2, 2, 3)] {
                let loc = snap.entry(key).unwrap();
                assert_eq!((loc.owner, loc.backup), (Place::new(owner), Place::new(backup)));
                assert_eq!(loc.len, 64);
            }
            assert!(store.audit_snapshot(ctx, &snap).invariant_ok());
            // A place outside the group has no next place to back up to.
            let sid = store.fresh_snap_id();
            let outsider = store.save_local_parts(ctx, sid, &group, vec![(0, Bytes::new())]);
            assert!(matches!(outsider, Err(GmlError::Shape(_))));
        });
    }

    #[test]
    fn audit_confirms_double_redundancy_when_healthy() {
        with_store(4, 0, |ctx, store| {
            let group = ctx.world();
            let snap = saved_snapshot(ctx, &store, &group);
            let audit = store.audit_snapshot(ctx, &snap);
            assert_eq!(audit.entries, 4);
            assert_eq!(audit.fully_redundant, 4);
            assert_eq!(audit.degraded, 0);
            assert_eq!(audit.lost, 0);
            assert_eq!(audit.placement_violations, 0);
            assert_eq!(audit.bytes, 4 * 64);
            assert!(audit.invariant_ok());
        });
    }

    #[test]
    fn audit_reports_degraded_after_single_failure() {
        with_store(4, 0, |ctx, store| {
            let group = ctx.world();
            let snap = saved_snapshot(ctx, &store, &group);
            // Place 1 owns key 1 and backs up key 0.
            ctx.kill_place(Place::new(1)).unwrap();
            let audit = store.audit_snapshot(ctx, &snap);
            assert_eq!(audit.degraded, 2, "owner of key 1 and backup of key 0 are gone");
            assert_eq!(audit.fully_redundant, 2);
            assert_eq!(audit.lost, 0);
            assert!(audit.invariant_ok(), "one failure never violates the invariant");
            assert!(snap.reachable(ctx, &store));
            assert!(!snap.fully_redundant(ctx));
        });
    }

    #[test]
    fn audit_reports_violation_after_owner_and_backup_die() {
        with_store(5, 0, |ctx, store| {
            let group = ctx.world();
            let snap = saved_snapshot(ctx, &store, &group);
            // Key 1: owner place 1, backup place 2. Kill both replicas.
            ctx.kill_place(Place::new(1)).unwrap();
            ctx.kill_place(Place::new(2)).unwrap();
            assert!(!store.reachable(ctx, Place::new(1), Place::new(2)));
            assert!(!snap.reachable(ctx, &store));
            // The audit must *report* the loss, not panic or error out.
            let audit = store.audit_snapshot(ctx, &snap);
            assert_eq!(audit.lost, 1, "key 1 lost both replicas");
            // Key 0 (backup at 1) and key 2 (owner at 2) are degraded; key 3
            // and key 4 keep both replicas.
            assert_eq!(audit.degraded, 2);
            assert_eq!(audit.fully_redundant, 2);
            assert!(!audit.invariant_ok());
            assert_eq!(audit.placement_violations, 0, "placement was always correct");
        });
    }

    fn wire_total(ctx: &Ctx, store: &ResilientStore) -> u64 {
        store.inventory(ctx).iter().map(|i| i.wire_bytes).sum()
    }

    #[test]
    fn repair_gives_the_degraded_entries_their_second_replica_back() {
        with_store(4, 0, |ctx, store| {
            let group = ctx.world();
            let mut snap = saved_snapshot(ctx, &store, &group);
            let before = wire_total(ctx, &store);
            // Place 1 owns key 1 (backup at 2) and backs up key 0 (owner 0).
            ctx.kill_place(Place::new(1)).unwrap();
            let survivors = group.without(&[Place::new(1)]);
            let shipped = ctx.stats().bytes_shipped;
            let report = store.repair(ctx, &mut [&mut snap], &survivors, None).unwrap();
            // Each holder copies to *its* next place among the survivors;
            // keys 2 and 3 kept both replicas and are not touched.
            assert_eq!(report.entries, 2);
            assert_eq!(report.wire_bytes, 2 * 64);
            assert_eq!(ctx.stats().bytes_shipped - shipped, 2 * 64);
            let pairs = [(Place::ZERO, Place::new(2)), (Place::new(2), Place::new(3))];
            assert_eq!(report.pairs, pairs);
            for (key, (owner, backup)) in [(0, pairs[0]), (1, pairs[1])] {
                assert_eq!(snap.entry(key).unwrap(), EntryLoc { owner, backup, len: 64 });
            }
            assert_eq!(snap.entry(2).unwrap().owner, Place::new(2));
            assert_eq!(snap.group, group, "keys still index the group they were saved under");
            let audit = store.audit_snapshot(ctx, &snap);
            assert_eq!((audit.fully_redundant, audit.entries), (4, 4));
            assert_eq!(audit.placement_violations, 0, "placed under the survivors' group");
            assert!(audit.invariant_ok() && snap.fully_redundant(ctx));
            assert_eq!(wire_total(ctx, &store), before, "the dead shard's share is back");
            // Nothing left to do; and any one further failure is survivable.
            let again = store.repair(ctx, &mut [&mut snap], &survivors, None).unwrap();
            assert_eq!(again, RepairReport::default());
            ctx.kill_place(Place::new(2)).unwrap();
            for key in 0..4u64 {
                assert_eq!(snap.fetch(ctx, &store, key).unwrap(), Bytes::from(vec![key as u8; 64]));
            }
        });
    }

    #[test]
    fn repair_reports_an_entry_without_a_live_replica_as_data_loss() {
        with_store(5, 0, |ctx, store| {
            let group = ctx.world();
            let mut snap = saved_snapshot(ctx, &store, &group);
            let dead = [Place::new(1), Place::new(2)];
            dead.iter().for_each(|&p| ctx.kill_place(p).unwrap());
            let before = snap.entries.clone();
            let err = store.repair(ctx, &mut [&mut snap], &group.without(&dead), None).unwrap_err();
            assert!(matches!(err, GmlError::DataLoss(_)), "{err}");
            assert_eq!(snap.entries, before, "nothing is rewritten on the way out");
        });
    }

    #[test]
    fn a_target_dying_under_the_repair_is_recoverable_and_rewrites_nothing() {
        with_store(5, 0, |ctx, store| {
            let group = ctx.world();
            let mut snap = saved_snapshot(ctx, &store, &group);
            ctx.kill_place(Place::new(1)).unwrap();
            let survivors = group.without(&[Place::new(1)]);
            // Planned: 0 → 2 (key 0) and 2 → 3 (key 1). Place 3 dies after
            // the plan is made, before the transfers run.
            let gate = Arc::new(AtomicBool::new(true));
            let (ctx2, gate2) = (ctx.clone(), Arc::clone(&gate));
            let killer = std::thread::spawn(move || {
                ctx2.kill_place(Place::new(3)).unwrap();
                gate2.store(false, Ordering::Release);
            });
            let before = snap.entries.clone();
            let err = store.repair(ctx, &mut [&mut snap], &survivors, Some(&gate)).unwrap_err();
            killer.join().unwrap();
            assert!(err.is_recoverable(), "{err}");
            assert_eq!(snap.entries, before);
            assert!(snap.placed_under.is_empty());
            // Going round again, on the group that is left, completes it:
            // keys 0 and 1 as planned before, keys 2 and 3 for place 3.
            let left = survivors.without(&[Place::new(3)]);
            let report = store.repair(ctx, &mut [&mut snap], &left, None).unwrap();
            assert_eq!(report.entries, 4);
            let audit = store.audit_snapshot(ctx, &snap);
            assert_eq!((audit.fully_redundant, audit.entries), (5, 5));
            assert!(audit.invariant_ok());
        });
    }

    #[test]
    fn a_non_redundant_store_has_nothing_to_repair() {
        Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
            let store = ResilientStore::make_with_redundancy(ctx, false).unwrap();
            let group = ctx.world();
            let mut snap = saved_snapshot(ctx, &store, &group);
            ctx.kill_place(Place::new(2)).unwrap();
            let survivors = group.without(&[Place::new(2)]);
            let report = store.repair(ctx, &mut [&mut snap], &survivors, None).unwrap();
            assert_eq!(report, RepairReport::default());
            assert_eq!(store.entries_at(ctx, Place::ZERO).unwrap(), 1, "one copy by design");
        })
        .unwrap();
    }

    #[test]
    fn audit_flags_backup_misplacement() {
        with_store(4, 0, |ctx, store| {
            let sid = store.fresh_snap_id();
            let group = ctx.world();
            // Backup deliberately placed two hops away instead of next.
            let wrong_backup = Place::new(2);
            store.save_batch(ctx, sid, vec![(0, Bytes::from_static(b"misplaced"))], wrong_backup).unwrap();
            let loc = EntryLoc { owner: Place::ZERO, backup: wrong_backup, len: 9 };
            let snap = Snapshot::gathered(ctx, sid, 7, &group, Bytes::new(), [(0, loc)]);
            let audit = store.audit_snapshot(ctx, &snap);
            assert_eq!(audit.fully_redundant, 1, "both copies exist...");
            assert_eq!(audit.placement_violations, 1, "...but the backup is misplaced");
            assert!(!audit.invariant_ok());
        });
    }

    #[test]
    fn save_batch_ships_once_and_accounts_every_byte() {
        with_store(2, 0, |ctx, store| {
            let sid = store.fresh_snap_id();
            let before = ctx.stats();
            let entries: Vec<(u64, Bytes)> =
                (0..8u64).map(|k| (k, Bytes::from(vec![k as u8; 128]))).collect();
            let total = store.save_batch(ctx, sid, entries, Place::new(1)).unwrap();
            assert_eq!(total, 8 * 128);
            let after = ctx.stats();
            assert_eq!(after.bytes_shipped - before.bytes_shipped, 8 * 128);
            assert_eq!(after.bytes_received - before.bytes_received, 8 * 128);
            // One batched round trip, not eight.
            assert_eq!(after.at_calls - before.at_calls, 1, "a batch is one `at`");
            for k in 0..8u64 {
                let got = store.fetch(ctx, sid, k, Place::ZERO, Place::new(1)).unwrap();
                assert_eq!(got, Bytes::from(vec![k as u8; 128]));
            }
        });
    }

    #[test]
    fn save_batch_backup_survives_owner_failure() {
        with_store(3, 0, |ctx, store| {
            let sid = store.fresh_snap_id();
            let s2 = store.clone();
            ctx.at(Place::new(1), move |ctx| {
                let entries = vec![
                    (0u64, Bytes::from_static(b"alpha")),
                    (1u64, Bytes::from_static(b"beta")),
                ];
                s2.save_batch(ctx, sid, entries, Place::new(2)).unwrap();
            })
            .unwrap();
            ctx.kill_place(Place::new(1)).unwrap();
            let got = store.fetch(ctx, sid, 1, Place::new(1), Place::new(2)).unwrap();
            assert_eq!(got, Bytes::from_static(b"beta"));
        });
    }

    #[test]
    fn save_batch_fails_fast_when_backup_is_dead() {
        with_store(3, 0, |ctx, store| {
            ctx.kill_place(Place::new(2)).unwrap();
            let sid = store.fresh_snap_id();
            let err = store
                .save_batch(ctx, sid, vec![(0, Bytes::from_static(b"x"))], Place::new(2))
                .unwrap_err();
            assert!(err.is_recoverable(), "dead backup is a recoverable failure: {err}");
        });
    }

    #[test]
    fn a_capture_ships_nothing_and_its_snapshots_orders_ship_exactly_the_backups() {
        with_store(4, 0, |ctx, store| {
            let group = ctx.world();
            let before = ctx.stats().bytes_shipped;
            let (a, b) = (
                saved_snapshot(ctx, &store.capturing(), &group),
                saved_snapshot(ctx, &store.capturing(), &group),
            );
            // Each owner holds its copy of both objects; nothing has shipped
            // but the entry metadata gathered from places 1 to 3.
            let meta = 2 * 3 * crate::snapshot::ENTRY_META_WIRE_BYTES as u64;
            assert_eq!(ctx.stats().bytes_shipped - before, meta, "no backup shipped");
            for p in group.iter() {
                assert_eq!(store.entries_at(ctx, p).unwrap(), 2);
            }
            assert_eq!(store.audit_snapshot(ctx, &a).degraded, 4);
            // One order per owner, in group order whatever order the map
            // yields its entries in, and the two objects' orders disjoint.
            let orders = |snap: &Snapshot| -> Vec<(u64, u32, u32, Vec<u64>, usize)> {
                let orders = store.ship_orders(snap).into_iter();
                orders.map(|o| (o.snap_id, o.owner.id(), o.backup.id(), o.keys, o.total)).collect()
            };
            for snap in [&a, &b] {
                let expected: Vec<_> =
                    (0..4).map(|p| (snap.snap_id, p, (p + 1) % 4, vec![p as u64], 64)).collect();
                assert_eq!(orders(snap), expected);
            }
            for order in store.ship_orders(&a) {
                store.execute_ship(ctx, order).unwrap();
            }
            assert_eq!(ctx.stats().bytes_shipped - before, meta + 4 * 64, "exactly a's backups");
            let (a, b) = (store.audit_snapshot(ctx, &a), store.audit_snapshot(ctx, &b));
            assert_eq!((a.fully_redundant, b.fully_redundant), (4, 0));
            assert!(a.invariant_ok() && b.invariant_ok());
        });
    }

    #[test]
    fn a_one_place_group_and_a_non_redundant_store_yield_no_ship_order() {
        Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
            let alone: PlaceGroup = [Place::new(1)].into_iter().collect();
            let store = ResilientStore::make(ctx).unwrap();
            let snap = saved_snapshot(ctx, &store.capturing(), &alone);
            assert_eq!(snap.entry(0).unwrap().backup, Place::new(1), "collapsed onto the owner");
            assert!(store.ship_orders(&snap).is_empty());
            let single = ResilientStore::make_with_redundancy(ctx, false).unwrap();
            let snap = saved_snapshot(ctx, &single.capturing(), &ctx.world());
            assert!(single.ship_orders(&snap).is_empty());
        })
        .unwrap();
    }

    #[test]
    fn a_verbatim_entry_is_the_serialized_buffer_at_the_owner_and_one_copy_at_the_backup() {
        Runtime::run(RuntimeConfig::new(2).resilient(true), |ctx| {
            let store = ResilientStore::make_full(ctx, true, true).unwrap();
            let sid = store.fresh_snap_id();
            // Noise: no byte plane packs, so the frame is verbatim.
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            let noise = (0..10_000).map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            });
            let payload = Bytes::from(noise.collect::<Vec<u8>>());
            let before = ctx.stats().bytes_shipped;
            store.save_batch(ctx, sid, vec![(0, payload.clone())], Place::new(1)).unwrap();

            let owner = store.shard(ctx).unwrap().get(sid, 0).unwrap();
            let s2 = store.clone();
            let at_backup = move |ctx: &Ctx| s2.shard(ctx).unwrap().get(sid, 0).unwrap();
            let backup = ctx.at(Place::new(1), at_backup).unwrap();
            let (owner_head, backup_head) = (owner.head.unwrap(), backup.head.unwrap());
            // One honest copy per hop: none at the owner, one at the backup.
            assert_eq!(owner.body.as_ptr(), payload.as_ptr(), "the owner holds the serializer's buffer");
            assert_ne!(backup.body.as_ptr(), payload.as_ptr(), "the backup holds its own");
            assert_ne!(backup_head.as_ptr(), owner_head.as_ptr());
            assert_eq!((&backup_head, &backup.body), (&owner_head, &payload), "bit-identical");
            let wire = (owner_head.len() + payload.len()) as u64;
            assert_eq!(ctx.stats().bytes_shipped - before, wire, "head and body are what ships");
            assert_eq!(store.inventory(ctx)[1].wire_bytes, wire);
            // Reading it back at the owner verifies it and copies nothing.
            let got = store.fetch(ctx, sid, 0, Place::ZERO, Place::new(1)).unwrap();
            assert_eq!(got.as_ptr(), payload.as_ptr());
        })
        .unwrap();
    }

    #[test]
    fn tile_families_render_as_counters() {
        let mut out = String::new();
        render_tile_stats(&mut out);
        assert!(out.contains("# TYPE gml_tile_hits_total counter"));
        assert!(out.contains("gml_tile_misses_total "));
    }

    #[test]
    fn ledger_reconciles_with_inventory_through_save_delete_and_kill() {
        // The StoreShard ledger tag must equal the summed inventory payload
        // bytes at every quiescent point — including after a kill drops a
        // whole shard. Guarded on mem profiling being compiled in; other
        // tests' stores run concurrently, so compare *deltas* of this
        // store's inventory against ledger movement bounds rather than
        // absolute equality (the absolute check lives in tests/mem_plane.rs,
        // which serializes).
        if !mem::enabled() {
            return;
        }
        with_store(3, 0, |ctx, store| {
            let sid = store.fresh_snap_id();
            store.save_batch(ctx, sid, vec![(0, Bytes::from(vec![1u8; 4096]))], Place::new(1)).unwrap();
            let inv: u64 = store.inventory(ctx).iter().map(|i| i.bytes).sum();
            assert_eq!(inv, 2 * 4096, "owner + backup copies");
            assert!(mem::current(MemTag::StoreShard) >= inv);
            store.delete_snapshots(ctx, &[sid]).unwrap();
            let inv_after: u64 = store.inventory(ctx).iter().map(|i| i.bytes).sum();
            assert_eq!(inv_after, 0);
        });
    }

    #[test]
    fn inventory_counts_entries_and_zeroes_dead_places() {
        with_store(3, 0, |ctx, store| {
            let sid = store.fresh_snap_id();
            store.save_batch(ctx, sid, vec![(0, Bytes::from(vec![1u8; 100]))], Place::new(1)).unwrap();
            store.save_batch(ctx, sid, vec![(1, Bytes::from(vec![2u8; 50]))], Place::new(1)).unwrap();
            ctx.kill_place(Place::new(2)).unwrap();
            let inv = store.inventory(ctx);
            assert_eq!(inv.len(), 3);
            assert_eq!(inv[0].entries, 2);
            assert_eq!(inv[0].snapshots, 1);
            assert_eq!(inv[0].bytes, 150);
            assert!(inv[0].alive);
            assert_eq!(inv[1].entries, 2, "backup copies land at place 1");
            assert!(!inv[2].alive);
            assert_eq!(inv[2].entries, 0, "dead place reports zeroes");
            let text = render_inventory(&inv);
            assert!(text.contains("gml_store_entries{place=\"0\"} 2"));
            assert!(text.contains("gml_store_place_alive{place=\"2\"} 0"));
            assert!(text.contains("gml_store_bytes{place=\"0\"} 150"));
        });
    }
}
