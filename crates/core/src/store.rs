//! The double in-memory resilient store (§IV-B of the paper).
//!
//! Every key/value pair of a **mutable** object is kept **twice**: once at
//! the place that produced it (the *owner*) and once at the **next place**
//! of the object's place group (the *backup*). A single place failure can
//! therefore never lose snapshot data: either the owner copy or the backup
//! copy survives. As the paper notes, the cost of *saving* is uniform (one
//! local insert plus one remote copy), while the cost of *loading* depends
//! on whether the requested data happens to live at the loading place.
//!
//! A **read-only** object's pair is kept **once**, at the backup
//! ([`EntryLoc::live`]): its first replica is the object's live block,
//! which never rolls back and dies with the same place an owner copy would.
//! The capture records only where each block is; the ship then takes one
//! live block at a time to its backup, serialized and encoded at the owner.
//! After a restore has kept every survivor's block where the new layout
//! keeps it and rebuilt the rest, [`AppResilientStore::repair`] leaves each
//! block one stored copy on a live place other than the one holding it
//! live: it moves a copy that now sits beside its block, and serializes the
//! live block whose copy died. A restore that re-cut the object leaves no
//! block under a saved key: the repair then turns each old block, retired
//! at its place, into that place's stored copy, and the snapshot is kept
//! twice like a mutable one.
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
//! nowhere else. A live entry is serialized at its owner into a buffer made
//! for that one transfer, of which the owner keeps no handle: that
//! serialization is the crossing's one copy, and the receiver keeps the
//! buffer as it came.
//!
//! [`AppResilientStore::make`]: crate::app_store::AppResilientStore::make

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apgas::metrics::{Family, Kind};
use apgas::prelude::*;
use apgas::serial::Serial;
use apgas::sync::Mutex;
use bytes::Bytes;

use crate::codec;
use crate::collective::each_place;
use crate::error::{GmlError, GmlResult};
use crate::snapshot::{live_digest, EntryLoc, Live, LiveSource, Snapshot};

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

    /// The same crossing for a frame the sender serialized for this one
    /// transfer and keeps no handle on: that serialization was the
    /// crossing's one copy, so the receiver keeps the frame as it came.
    fn received_fresh(self, ctx: &Ctx) -> Self {
        ctx.record_bytes_received(self.wire());
        self
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

    fn remove(&self, snap_id: u64, key: u64) {
        if let Some(old) = self.map.lock().remove(&(snap_id, key)) {
            mem::discharge(MemTag::StoreShard, old.wire());
        }
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
/// the copy was placed under (the rule of `second_replica`) — for a live
/// entry, any place but the one holding the block live. A live replica is
/// present only while its place is alive and holds the block, in the
/// object's current layout or retired there by a remake until the repair.
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

/// One backup transfer: a capture's ([`ResilientStore::ship_orders`]) or a
/// repair's. The order carries only metadata; the payloads are read by key
/// at ship time, at `owner`, from `source`.
#[derive(Clone)]
pub(crate) struct ShipOrder {
    pub(crate) snap_id: u64,
    pub(crate) owner: Place,
    pub(crate) backup: Place,
    pub(crate) keys: Vec<u64>,
    /// Total payload bytes (for spans; the authoritative sizes live in the
    /// shard).
    pub(crate) total: usize,
    pub(crate) source: Source,
}

/// Where a [`ShipOrder`]'s payloads are read.
#[derive(Clone)]
pub(crate) enum Source {
    /// The frames in the holder's shard, shipped in one batch.
    Stored,
    /// The frames in the holder's shard, one at a time, each deleted there
    /// once its copy landed: a repair moving a stored copy off the place
    /// that holds its block live.
    Moved,
    /// The live blocks at the holder, serialized and encoded one at a time:
    /// a read-only object's first save, or a repair whose stored copy died.
    Live(Live),
}

/// What one [`ShipOrder`] shipped, as its holder reports it back: entries
/// and wire bytes and, in a debug build, each live block's digest as read
/// there.
struct Shipped {
    found: usize,
    wire: usize,
    digests: Vec<(u64, Option<u64>)>,
}

impl Shipped {
    /// Hold the live blocks the order read to their first save. Runs at the
    /// driver, which keeps the digests.
    fn check(&self, order: &ShipOrder) -> GmlResult<()> {
        let Source::Live(live) = &order.source else { return Ok(()) };
        self.digests.iter().try_for_each(|&(key, digest)| live.check(key, digest))
    }
}

/// What [`ResilientStore::probe_live`] found out about the live entries of
/// a repair's snapshots (by snapshot index and key): the place holding each
/// block, the entries whose stored copy is where recorded, and the places
/// keeping retired blocks.
#[derive(Default)]
struct Probe {
    live_at: HashMap<(usize, u64), Place>,
    stored_at: HashSet<(usize, u64)>,
    retired_at: Vec<Place>,
}

/// One part of an object as its capture hands it to
/// [`ResilientStore::save_local_parts`].
pub enum Part {
    /// Serialized now; stored at its owner, shipped to its backup.
    Stored(Bytes),
    /// A read-only object's block, of this serialized length: it stays the
    /// owner replica, and only the ship serializes it.
    Live(usize),
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
    /// When true, captures record live entries ([`Part::Live`]): only the
    /// handle `save_read_only` passes to `make_snapshot` is built so.
    live: bool,
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
            live: false,
            handed_out: Arc::new(AtomicU64::new(0)),
        })
    }

    /// This store as a handle that only captures (see `capture_only`).
    pub(crate) fn capturing(&self) -> Self {
        ResilientStore { capture_only: true, ..self.clone() }
    }

    /// This store as a capturing handle whose captures keep a read-only
    /// object's live blocks as owner replicas (see `live`).
    pub(crate) fn capturing_live(&self) -> Self {
        ResilientStore { live: true, ..self.capturing() }
    }

    /// `item` as a capture hands it to [`save_local_parts`]: serialized, or
    /// under a live-capturing handle only measured.
    ///
    /// [`save_local_parts`]: Self::save_local_parts
    pub(crate) fn part<T: Serial>(&self, ctx: &Ctx, item: &T) -> Part {
        if self.live {
            Part::Live(item.byte_len())
        } else {
            Part::Stored(ctx.encode(item))
        }
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
    /// A live part is only recorded: its block is the owner replica, and
    /// the ship reads it.
    pub fn save_local_parts(
        &self,
        ctx: &Ctx,
        snap_id: u64,
        group: &PlaceGroup,
        parts: Vec<(u64, Part)>,
    ) -> GmlResult<Vec<(u64, EntryLoc)>> {
        let owner = ctx.here();
        let backup = second_replica(group, owner)?;
        let mut locs = Vec::with_capacity(parts.len());
        let mut stored = Vec::new();
        for (key, part) in parts {
            let (len, live) = match part {
                Part::Stored(payload) => {
                    let len = payload.len();
                    stored.push((key, payload));
                    (len, false)
                }
                Part::Live(len) => (len, true),
            };
            locs.push((key, EntryLoc { owner, backup, len, live }));
        }
        if stored.is_empty() {
            self.check_backup(ctx, backup)?;
        } else {
            self.save_batch(ctx, snap_id, stored, backup)?;
        }
        Ok(locs)
    }

    /// Fail fast on a backup that is already dead, so the enclosing
    /// checkpoint aborts at save time (atomic cancel) rather than at the
    /// ship barrier. A death *after* this check is caught by the transfer
    /// itself.
    fn check_backup(&self, ctx: &Ctx, backup: Place) -> GmlResult<()> {
        if self.redundant && backup != ctx.here() && !ctx.is_alive(backup) {
            return Err(GmlError::from(apgas::ApgasError::DeadPlace(
                apgas::DeadPlaceException::new(backup, "backup died before batch ship"),
            )));
        }
        Ok(())
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
            self.check_backup(ctx, backup)?;
            if !self.capture_only {
                self.ship_entries(ctx, snap_id, stored, backup, false)?;
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
        entries.into_iter().map(|(key, payload)| (key, self.frame(&payload))).collect()
    }

    /// One payload as this store keeps it (see [`encode_batch`](Self::encode_batch)).
    fn frame(&self, payload: &Bytes) -> StoredEntry {
        if !self.framed {
            return StoredEntry::raw(payload.clone());
        }
        let codec::EncodeOutcome { head, body } = codec::encode_entry(payload);
        StoredEntry { head: Some(head), body, logical: payload.len() as u64 }
    }

    /// The batched backup transfer: one `at` to `backup` carrying the whole
    /// frame of `(key, stored entry)` pairs. Runs at the owning place. With
    /// `fresh` the entries were serialized for this transfer, and nothing
    /// here refers to them any more (see `StoredEntry::received_fresh`).
    fn ship_entries(
        &self,
        ctx: &Ctx,
        snap_id: u64,
        entries: Vec<(u64, StoredEntry)>,
        backup: Place,
        fresh: bool,
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
                let entry = if fresh { entry.received_fresh(ctx) } else { entry.received(ctx) };
                shard.insert(snap_id, key, entry);
            }
            Ok(())
        })??;
        Ok(())
    }

    /// The backup transfers a capture of `snap` left undone, read off the
    /// snapshot: its entries grouped by `(owner, backup)` replica pair, in
    /// the owner's group order, keys ascending — the same on every run. None
    /// for a non-redundant store, nor for a pair collapsed onto one place.
    /// A live snapshot's orders read its live blocks.
    pub(crate) fn ship_orders(&self, snap: &Snapshot) -> Vec<ShipOrder> {
        let shipped = snap.entries.iter().filter(|(_, loc)| self.redundant && loc.owner != loc.backup);
        let mut entries: Vec<(u64, EntryLoc)> = shipped.map(|(&key, &loc)| (key, loc)).collect();
        entries.sort_unstable_by_key(|&(key, loc)| (snap.group.index_of(loc.owner), loc.backup, key));
        let of_one_pair = entries.chunk_by(|a, b| (a.1.owner, a.1.backup) == (b.1.owner, b.1.backup));
        let source = snap.live.clone().map_or(Source::Stored, Source::Live);
        let orders = of_one_pair.map(|entries| ShipOrder {
            snap_id: snap.snap_id,
            owner: entries[0].1.owner,
            backup: entries[0].1.backup,
            keys: entries.iter().map(|&(key, _)| key).collect(),
            total: entries.iter().map(|(_, loc)| loc.len).sum(),
            source: source.clone(),
        });
        orders.collect()
    }

    /// Execute one backup transfer at the order's owner (see
    /// [`ship_from_here`](Self::ship_from_here)). Callable from any place
    /// (the checkpoint pipeline runs it from a driver-side helper thread
    /// while the next iteration computes).
    pub(crate) fn execute_ship(&self, ctx: &Ctx, order: ShipOrder) -> GmlResult<()> {
        let _span = ctx.trace_span(SpanKind::CkptShip, order.total as u64);
        let (store, sent) = (self.clone(), order.clone());
        let shipped = ctx.at(order.owner, move |ctx| store.ship_from_here(ctx, &sent))??;
        shipped.check(&order)
    }

    /// The owner's half of a [`ShipOrder`]: read the entries from its
    /// source here and ship them. Stored frames go as stored, in one batch;
    /// moved frames and live blocks go one entry at a time, so that at most
    /// one is in flight: a moved frame is deleted here once its copy landed,
    /// and a live block is serialized and encoded here and shipped.
    fn ship_from_here(&self, ctx: &Ctx, order: &ShipOrder) -> GmlResult<Shipped> {
        let shard = self.shard(ctx)?;
        // A missing key means the snapshot was cancelled between capture
        // and ship; the order is stale and skipping is the correct quiet
        // outcome.
        if let Source::Stored = order.source {
            let entries: Vec<(u64, StoredEntry)> = order
                .keys
                .iter()
                .filter_map(|&k| shard.get(order.snap_id, k).map(|v| (k, v)))
                .collect();
            let wire = entries.iter().map(|(_, e)| e.wire()).sum();
            let found = entries.len();
            self.ship_entries(ctx, order.snap_id, entries, order.backup, false)?;
            return Ok(Shipped { found, wire, digests: Vec::new() });
        }
        let mut shipped = Shipped { found: 0, wire: 0, digests: Vec::new() };
        for &key in &order.keys {
            let wire = match &order.source {
                Source::Live(live) => {
                    let Some(payload) = live.source.read(ctx, key) else { continue };
                    shipped.digests.push((key, live_digest(&payload)));
                    let entry = {
                        let _span = ctx.trace_span(SpanKind::CkptEncode, payload.len() as u64);
                        self.frame(&payload)
                    };
                    drop(payload);
                    let (wire, entries) = (entry.wire(), vec![(key, entry)]);
                    self.ship_entries(ctx, order.snap_id, entries, order.backup, true)?;
                    wire
                }
                _ => {
                    let Some(entry) = shard.get(order.snap_id, key) else { continue };
                    let wire = entry.wire();
                    self.ship_entries(ctx, order.snap_id, vec![(key, entry)], order.backup, false)?;
                    shard.remove(order.snap_id, key);
                    wire
                }
            };
            shipped.found += 1;
            shipped.wire += wire;
        }
        Ok(shipped)
    }

    /// Give every entry of `snaps` that a failure left short of a replica
    /// its second one back, in `group`, the group the application continues
    /// on. Moves run one after another, first; the other transfers of
    /// distinct holders run concurrently. The snap ids stay what they were,
    /// so read-only reuse is unaffected; the entries' recorded locations are
    /// rewritten and remember the group they were placed under, so the
    /// snapshots are fully redundant again and audit clean.
    ///
    /// - A stored entry with one live replica has that frame shipped *as
    ///   stored* (no decode, no re-encode; one copy, at the receiver, like a
    ///   save's backup) from its holder to the holder's `second_replica`.
    /// - A live entry is left one stored copy on a live place other than the
    ///   one now holding its block live (found by asking each place of
    ///   `group`): a copy that sits beside the block moves to that place's
    ///   `second_replica`, and a block whose copy died is serialized there.
    /// - A live entry whose block no place holds any more — the restore
    ///   re-cut its object — becomes a stored one: its owner turns the block
    ///   a remake retired there into its stored copy, and an entry left with
    ///   one copy gets a second as above.
    ///
    /// Then every place drops the blocks a remake retired. An entry with no
    /// live replica is [`GmlError::DataLoss`]. A place dying under the
    /// repair is a recoverable error and leaves every recorded location as
    /// it was, except for the copies it had already moved (copies that did
    /// land elsewhere are harmless strays under ids the snapshot's deletion
    /// sweeps): the caller recovers and repairs again. Never reads a dead
    /// place and never touches a replica that is still alive where it
    /// should be. `gate` is the failure drills' ship gate: while it is set
    /// the planned transfers wait.
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
        let probe = self.probe_live(ctx, snaps, group)?;
        let owner_copies = self.demote(ctx, snaps, group, &probe)?;
        // Per holder → target pair, the (snapshot index, key, source) entries
        // to re-home; the live entries whose block moved away from a stored
        // copy that can stay where it is; and the entries that stop being
        // live.
        let mut plan: BTreeMap<_, Vec<(usize, u64, Source)>> = BTreeMap::new();
        let (mut relabel, mut demoted) = (Vec::new(), Vec::new());
        for (si, snap) in snaps.iter().enumerate() {
            for (&key, loc) in snap.entries.iter() {
                let stored = probe.stored_at.contains(&(si, key));
                let (holder, source) = match (loc.live, &snap.live) {
                    (true, Some(_)) if !probe.live_at.contains_key(&(si, key)) => {
                        demoted.push((si, key));
                        match (owner_copies.contains(&(si, key)), stored) {
                            (true, true) => continue,
                            (true, false) => (loc.owner, Source::Stored),
                            (false, true) => (loc.backup, Source::Stored),
                            (false, false) => {
                                return Err(GmlError::data_loss(format!(
                                    "snapshot {} key {key}: its block is gone and its copy at {} \
                                     with it",
                                    snap.snap_id, loc.backup
                                )))
                            }
                        }
                    }
                    (true, Some(live)) => {
                        let at = probe.live_at[&(si, key)];
                        if stored && loc.backup != at {
                            if loc.owner != at {
                                relabel.push((si, key, at));
                            }
                            continue;
                        }
                        (at, if stored { Source::Moved } else { Source::Live(live.clone()) })
                    }
                    _ => match (ctx.is_alive(loc.owner), ctx.is_alive(loc.backup)) {
                        (true, true) => continue,
                        (true, false) => (loc.owner, Source::Stored),
                        (false, true) => (loc.backup, Source::Stored),
                        (false, false) => {
                            return Err(GmlError::data_loss(format!(
                                "snapshot {} key {key}: owner {} and backup {} both dead",
                                snap.snap_id, loc.owner, loc.backup
                            )))
                        }
                    },
                };
                let target = second_replica(group, holder)?;
                if target != holder {
                    plan.entry((holder, target)).or_default().push((si, key, source));
                }
            }
        }
        // Per pair: one batch per snapshot of stored frames to copy, one
        // order per moved or live entry.
        let orders: Vec<Vec<ShipOrder>> = plan
            .iter_mut()
            .map(|(&(owner, backup), moved)| {
                moved.sort_unstable_by_key(|&(si, key, _)| (si, key));
                let batch = |a: &(usize, u64, Source), b: &(usize, u64, Source)| {
                    a.0 == b.0 && matches!((&a.2, &b.2), (Source::Stored, Source::Stored))
                };
                let orders = moved.chunk_by(batch).map(|moved| {
                    let snap = &snaps[moved[0].0];
                    let keys: Vec<u64> = moved.iter().map(|&(_, key, _)| key).collect();
                    let total = keys.iter().map(|k| snap.entries[k].len).sum();
                    let (snap_id, source) = (snap.snap_id, moved[0].2.clone());
                    ShipOrder { snap_id, owner, backup, keys, total, source }
                });
                orders.collect()
            })
            .collect();
        if orders.is_empty() {
            self.relabel(snaps, relabel, demoted);
            self.release_retired(ctx, snaps, probe.retired_at)?;
            return Ok(report);
        }
        wait_while_set(gate);
        let report_pairs: Vec<(Place, Place)> = plan.keys().copied().collect();
        let (moves, rest): (Vec<ShipOrder>, Vec<ShipOrder>) =
            orders.into_iter().flatten().partition(|o| matches!(o.source, Source::Moved));
        // Moves go first, one after another: the buffer a moved copy leaves
        // is what the next copy lands in, so moving holds at most one frame
        // more than the store does. Each is recorded once it landed — its old
        // copy is gone — whatever happens after it.
        let mut landed: Vec<(&ShipOrder, u64)> = Vec::new();
        let mut outcome = Ok(());
        for order in &moves {
            let (store, sent) = (self.clone(), order.clone());
            match ctx.at(order.owner, move |ctx| store.repair_order(ctx, &sent)) {
                Ok(Ok(shipped)) => landed.push((order, shipped.wire as u64)),
                Ok(Err(e)) => outcome = Err(e),
                Err(e) => outcome = Err(e.into()),
            }
            if outcome.is_err() {
                break;
            }
        }
        // The other transfers of distinct holders run concurrently, and are
        // recorded only if all of them landed and every live block they read
        // is the one first saved.
        let mut by_holder: BTreeMap<Place, Vec<ShipOrder>> = BTreeMap::new();
        rest.into_iter().for_each(|o| by_holder.entry(o.owner).or_default().push(o));
        let (holders, batches): (Vec<Place>, Vec<Vec<ShipOrder>>) = by_holder.into_iter().unzip();
        let batches = Arc::new(batches);
        if outcome.is_ok() && !holders.is_empty() {
            let (store, tasks) = (self.clone(), Arc::clone(&batches));
            let shipped = each_place(ctx, holders.into_iter().enumerate(), move |ctx, i| {
                let orders = tasks[i].iter();
                orders.map(|order| store.repair_order(ctx, order)).collect::<GmlResult<Vec<_>>>()
            });
            let sent = batches.iter().flatten();
            match shipped.map(|s| sent.zip(s.into_iter().flatten()).collect::<Vec<_>>()) {
                Ok(shipped) => {
                    outcome = shipped.iter().try_for_each(|(order, s)| s.check(order));
                    landed.extend(shipped.into_iter().map(|(order, s)| (order, s.wire as u64)));
                }
                Err(e) => outcome = Err(e),
            }
        }
        for (order, wire) in landed {
            let snap = snaps.iter_mut().find(|s| s.snap_id == order.snap_id).expect("planned");
            for &key in &order.keys {
                let loc = Arc::make_mut(&mut snap.entries).get_mut(&key).expect("planned from it");
                (loc.owner, loc.backup) = (order.owner, order.backup);
                snap.placed_under.insert(key, group.clone());
                report.entries += 1;
            }
            report.wire_bytes += wire;
        }
        outcome?;
        self.relabel(snaps, relabel, demoted);
        self.release_retired(ctx, snaps, probe.retired_at)?;
        report.pairs = report_pairs;
        report.time = t0.elapsed();
        Ok(report)
    }

    /// Record what a repair found without shipping: the live entries whose
    /// block now sits at another place than recorded, and the entries that
    /// stop being live.
    fn relabel(
        &self,
        snaps: &mut [&mut Snapshot],
        moved: Vec<(usize, u64, Place)>,
        demoted: Vec<(usize, u64)>,
    ) {
        for (si, key, at) in moved {
            let loc = Arc::make_mut(&mut snaps[si].entries).get_mut(&key).expect("planned from it");
            loc.owner = at;
        }
        for (si, key) in demoted {
            let loc = Arc::make_mut(&mut snaps[si].entries).get_mut(&key).expect("planned from it");
            loc.live = false;
        }
    }

    /// One order of a repair, at its holder: every entry it names must be
    /// here to go.
    fn repair_order(&self, ctx: &Ctx, order: &ShipOrder) -> GmlResult<Shipped> {
        let _span = ctx.trace_span(SpanKind::CkptShip, order.total as u64);
        let shipped = self.ship_from_here(ctx, order)?;
        if shipped.found != order.keys.len() {
            return Err(GmlError::data_loss(format!(
                "snapshot {}: {} holds {} of the {} entries it should",
                order.snap_id,
                order.owner,
                shipped.found,
                order.keys.len()
            )));
        }
        Ok(shipped)
    }

    /// Ask every live place of `group` about the live entries of `snaps`:
    /// which it holds in its object's current layout, which it keeps the
    /// stored copy of, and whether it keeps blocks a remake retired. The
    /// first answer of a place holding a block is the one recorded. No task
    /// when no snapshot is live. In a debug build each place also sends
    /// back the digest of every block it holds, which is held to the first
    /// save here.
    fn probe_live(&self, ctx: &Ctx, snaps: &[&mut Snapshot], group: &PlaceGroup) -> GmlResult<Probe> {
        let lives: Vec<_> = snaps
            .iter()
            .enumerate()
            .filter_map(|(si, snap)| {
                let keys = snap.entries.iter().filter(|(_, loc)| loc.live);
                let keys: Vec<(u64, EntryLoc)> = keys.map(|(&key, &loc)| (key, loc)).collect();
                Some((si, snap.snap_id, Arc::clone(&snap.live.as_ref()?.source), keys))
            })
            .collect();
        let mut probe = Probe::default();
        if lives.is_empty() {
            return Ok(probe);
        }
        let lives = Arc::new(lives);
        let places: Vec<(usize, Place)> =
            group.iter().filter(|&p| ctx.is_alive(p)).enumerate().collect();
        let plh = self.plh;
        let probed = each_place(ctx, places.clone(), move |ctx, _| {
            let shard = plh.local(ctx).ok();
            let here = ctx.here();
            let (mut held, mut stored, mut retired) = (Vec::new(), Vec::new(), false);
            for (si, snap_id, source, keys) in lives.iter() {
                for &(key, loc) in keys {
                    if source.holds(ctx, key, false) {
                        let digest = cfg!(debug_assertions)
                            .then(|| source.read(ctx, key))
                            .flatten()
                            .and_then(|payload| live_digest(&payload));
                        held.push((*si, key, digest));
                    }
                    let copy_here = shard.as_ref().is_some_and(|s| s.contains(*snap_id, key));
                    if loc.backup == here && copy_here {
                        stored.push((*si, key));
                    }
                }
                retired |= source.has_retired(ctx);
            }
            Ok((held, stored, retired))
        })?;
        for ((_, place), (held, stored, retired)) in places.into_iter().zip(probed) {
            for (si, key, digest) in held {
                if let Some(live) = &snaps[si].live {
                    live.check(key, digest)?;
                }
                probe.live_at.entry((si, key)).or_insert(place);
            }
            probe.stored_at.extend(stored);
            if retired {
                probe.retired_at.push(place);
            }
        }
        Ok(probe)
    }

    /// Turn the live entries whose block no place of `group` holds — a
    /// restore re-cut their object — into stored ones: at each place that
    /// keeps retired blocks, every such entry it owns has its block
    /// serialized into the place's stored copy (one block at a time, each
    /// dropped as it goes), or keeps the copy an earlier attempt made.
    /// Returns the entries whose owner now has a stored copy. A place of
    /// `group` that died since the restore is a recoverable error: the
    /// blocks it was given are gone, and the caller restores again.
    fn demote(
        &self,
        ctx: &Ctx,
        snaps: &[&mut Snapshot],
        group: &PlaceGroup,
        probe: &Probe,
    ) -> GmlResult<HashSet<(usize, u64)>> {
        let mut gone: BTreeMap<Place, Vec<(usize, u64, u64)>> = BTreeMap::new();
        for (si, snap) in snaps.iter().enumerate() {
            let live = snap.entries.iter().filter(|(_, loc)| loc.live && snap.live.is_some());
            for (&key, loc) in live.filter(|(key, _)| !probe.live_at.contains_key(&(si, **key))) {
                gone.entry(loc.owner).or_default().push((si, snap.snap_id, key));
            }
        }
        if gone.is_empty() {
            return Ok(HashSet::new());
        }
        if let Some(dead) = group.iter().find(|&p| !ctx.is_alive(p)) {
            let why = "died holding a restored block";
            return Err(GmlError::from(apgas::ApgasError::DeadPlace(
                apgas::DeadPlaceException::new(dead, why),
            )));
        }
        gone.retain(|&owner, _| ctx.is_alive(owner));
        let sources: Vec<Option<Arc<dyn LiveSource>>> =
            snaps.iter().map(|s| s.live.as_ref().map(|l| Arc::clone(&l.source))).collect();
        let (owners, keys): (Vec<Place>, Vec<_>) = gone.into_iter().unzip();
        let (store, keys, sources) = (self.clone(), Arc::new(keys), Arc::new(sources));
        let copied = each_place(ctx, owners.into_iter().enumerate(), move |ctx, i| {
            let shard = store.shard(ctx)?;
            let mut copied = Vec::new();
            for &(si, snap_id, key) in &keys[i] {
                let source = sources[si].as_ref().expect("a live snapshot");
                if let Some(payload) = source.take_retired(ctx, key) {
                    copied.push((si, key, live_digest(&payload)));
                    shard.insert(snap_id, key, store.frame(&payload));
                } else if shard.contains(snap_id, key) {
                    copied.push((si, key, None));
                }
            }
            Ok(copied)
        })?;
        let mut owner_copies = HashSet::new();
        for (si, key, digest) in copied.into_iter().flatten() {
            if let Some(live) = &snaps[si].live {
                live.check(key, digest)?;
            }
            owner_copies.insert((si, key));
        }
        Ok(owner_copies)
    }

    /// Drop the blocks a remake retired at `places`: the repair has left
    /// every live entry a stored copy apart from its block.
    fn release_retired(
        &self,
        ctx: &Ctx,
        snaps: &[&mut Snapshot],
        places: Vec<Place>,
    ) -> GmlResult<()> {
        if places.is_empty() {
            return Ok(());
        }
        let sources = snaps.iter().filter_map(|s| s.live.as_ref().map(|l| Arc::clone(&l.source)));
        let sources: Arc<Vec<Arc<dyn LiveSource>>> = Arc::new(sources.collect());
        each_place(ctx, places.into_iter().enumerate(), move |ctx, _| {
            sources.iter().for_each(|source| source.release(ctx));
            Ok(())
        })
        .map(drop)
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

    /// A live entry's payload: the block here if this is its owner, else
    /// its stored copy at the backup (or one that a repair which did not
    /// complete left at the owner), else the block at its owner, serialized
    /// there for this transfer.
    pub(crate) fn fetch_live(
        &self,
        ctx: &Ctx,
        snap: &Snapshot,
        key: u64,
        loc: EntryLoc,
        live: &Live,
    ) -> GmlResult<Bytes> {
        let here = loc.owner == ctx.here();
        if let Some(payload) = here.then(|| live.source.read(ctx, key)).flatten() {
            self.handed_out.fetch_add(1, Ordering::Relaxed);
            return Ok(payload);
        }
        if let Ok(payload) = self.fetch(ctx, snap.snap_id, key, loc.backup, loc.owner) {
            return Ok(payload);
        }
        let source = Arc::clone(&live.source);
        let read = move |ctx: &Ctx| source.read(ctx, key).inspect(|p| ctx.record_bytes(p.len()));
        let sent = (!here && ctx.is_alive(loc.owner)).then(|| ctx.at(loc.owner, read).ok()).flatten();
        let Some(payload) = sent.flatten() else {
            return Err(GmlError::data_loss(format!(
                "snapshot {} key {key}: stored copy at {} and block at {} both unavailable",
                snap.snap_id, loc.backup, loc.owner
            )));
        };
        // The owner serialized the block for this transfer and keeps no
        // handle on it: that was the crossing's one copy.
        ctx.record_bytes_received(payload.len());
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
        // Batch presence probes: every (place, key) pair we must check —
        // a stored copy, or a live block in its object's current layout —
        // grouped by place so each live place is visited exactly once.
        let mut probes: HashMap<Place, Vec<(u64, bool)>> = HashMap::new();
        for (key, loc) in snap.entries.iter() {
            probes.entry(loc.owner).or_default().push((*key, loc.live));
            if loc.backup != loc.owner {
                probes.entry(loc.backup).or_default().push((*key, false));
            }
        }
        let snap_id = snap.snap_id;
        let mut present: HashSet<(Place, u64)> = HashSet::new();
        for (place, keys) in probes {
            if !ctx.is_alive(place) {
                continue;
            }
            let (plh, live) = (self.plh, snap.live.as_ref().map(|l| Arc::clone(&l.source)));
            let keys2 = keys.clone();
            let found: Vec<bool> = ctx
                .at(place, move |ctx| {
                    let shard = plh.local(ctx).ok();
                    let held = |&(key, is_live): &(u64, bool)| match (is_live, &live, &shard) {
                        (true, Some(live), _) => live.holds(ctx, key, true),
                        (false, _, Some(shard)) => shard.contains(snap_id, key),
                        _ => false,
                    };
                    keys2.iter().map(held).collect()
                })
                // The place died between the liveness check and the probe.
                .unwrap_or_else(|_| vec![false; keys.len()]);
            for ((key, _), ok) in keys.into_iter().zip(found) {
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
            let next = second_replica(placed_under, loc.owner).ok() == Some(loc.backup);
            if !(next || loc.live && loc.backup != loc.owner) {
                audit.placement_violations += 1;
            }
        }
        audit
    }

    /// Register a Prometheus collector reporting this store's per-place
    /// inventory (`gml_store_*` gauges) plus the checkpoint codec's
    /// counters on every scrape of the runtime's monitor endpoint. No-op
    /// when monitoring is disabled.
    pub fn register_monitor(&self, ctx: &Ctx) {
        if ctx.monitor_addr().is_none() {
            return;
        }
        let store = self.clone();
        let cx = ctx.clone();
        ctx.add_monitor_collector(move || {
            let mut out = inventory_families(&store.inventory(&cx));
            out.extend(codec::families());
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

/// A store inventory as Prometheus families (`gml_store_*` gauges).
pub fn inventory_families(inv: &[PlaceInventory]) -> Vec<Family> {
    Family::table("place", inv, |i| i.place.id().to_string(), &[
        (Kind::Gauge, "gml_store_place_alive", "1 while the shard's place is alive.", |i| i.alive.into()),
        (Kind::Gauge, "gml_store_entries", "Stored (snapshot, key) entries at the place.", |i| {
            (i.entries as u64).into()
        }),
        (Kind::Gauge, "gml_store_snapshots", "Distinct snapshot ids present at the place.", |i| {
            (i.snapshots as u64).into()
        }),
        (Kind::Gauge, "gml_store_bytes", "Logical payload bytes held at the place.", |i| i.bytes.into()),
        (Kind::Gauge, "gml_store_wire_bytes", "Wire (framed) bytes resident at the place.", |i| {
            i.wire_bytes.into()
        }),
    ])
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
            let part = vec![(i as u64, Part::Stored(Bytes::from(vec![i as u8; 64])))];
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
            let part = vec![(0, Part::Stored(Bytes::new()))];
            let outsider = store.save_local_parts(ctx, sid, &group, part);
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
                let loc = EntryLoc { owner, backup, len: 64, live: false };
                assert_eq!(snap.entry(key).unwrap(), loc);
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
            let loc = EntryLoc { owner: Place::ZERO, backup: wrong_backup, len: 9, live: false };
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
            let text = apgas::metrics::exposition(&inventory_families(&inv));
            assert!(text.contains("gml_store_entries{place=\"0\"} 2"));
            assert!(text.contains("gml_store_place_alive{place=\"2\"} 0"));
            assert!(text.contains("gml_store_bytes{place=\"0\"} 150"));
        });
    }
}
