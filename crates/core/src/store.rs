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
//! A **read-only** object's pair is framed **once**, at the backup
//! ([`Snapshot::read_only`]): its first replica is the owner's [`Held`]
//! handle on the object's own block, which nothing writes and which dies
//! with the same place an owner frame would. It is captured like a mutable
//! object; its ship frames each held block for the backup alone and keeps
//! the handle. A restore leaves each block the object still holds where the
//! store holds it, and re-holds each block it rebuilds under its saved key
//! at the block's new place, so a block a remake gives up lives on only
//! through the store's handle. [`AppResilientStore::repair`] then decides
//! from what the live places hold, one rule for every entry: a held block
//! its object no longer holds is dropped where the entry's block is held
//! live on another place and framed where it is otherwise; a frame beside a
//! live handle of its entry moves to that place's next place; an entry left
//! on one place gets a frame at its next place. A restore that re-cut the
//! object leaves no block under a saved key, so each old block ends with
//! two frames, like a mutable object's.
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
//! A capture copies nothing: its owner's shard keeps a [`Held`] handle on
//! each value, and the object's next write copies the value away from it
//! instead ([`gml_matrix::Shared`]). The ship that follows turns the handle
//! into a stored replica at the owner and keeps that in the handle's place,
//! then ships it; a pair collapsed onto a one-place group's place is made
//! the same way by an order that ships nothing. Every stored replica is a
//! checkpoint-codec frame ([`crate::codec`]): a small *head* (header +
//! chunk-digest manifest) and a *body*. A frame is made from the value's
//! wire runs where they lie: a frame that packs never has the value
//! serialized in one buffer, and a frame that would not shrink keeps as its
//! body the value's one serialization, held by refcount. So every committed
//! replica is a frame, or a read-only object's held block. A frame restores
//! from itself alone, so an entry is recoverable exactly when one of its
//! two replica places is alive. Either way a payload is copied once per
//! place boundary it crosses (owner → backup on save, holder → fetcher on
//! restore) and nowhere else. A held block crosses as a frame or buffer
//! made at its holder for that one transfer, of which the holder keeps no
//! handle — a verbatim frame's serialization, or for a fetch the block
//! serialized: that is the crossing's one copy, and the receiver keeps it
//! as it came. (A packed frame is smaller than the block, so nothing
//! payload-sized is made for it at all.)

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apgas::digest::Fnv1a;
use apgas::metrics::{Family, Kind};
use apgas::prelude::*;
use apgas::serial::{Run, Runs, Serial};
use apgas::sync::Mutex;
use bytes::Bytes;
use gml_matrix::{BlockData, DenseMatrix, MatrixBlock, Shared, Vector};

use crate::codec;
use crate::collective::each_place;
use crate::error::{GmlError, GmlResult};
use crate::snapshot::{EntryLoc, Snapshot};

/// One serialized replica: a codec frame decoding to `logical` bytes, `head`
/// its header + digest manifest and `body` its record stream or, under a
/// verbatim head, the payload itself. Only a read-only object's held block
/// serialized for one fetch ([`PlaceStore::read`]) has no head: its `body`
/// *is* the payload.
#[derive(Clone)]
pub(crate) struct StoredEntry {
    pub(crate) head: Option<Bytes>,
    pub(crate) body: Bytes,
    pub(crate) logical: u64,
}

/// `(key, stored replica)` pairs, as one place saves, frames or ships them.
type Entries = Vec<(u64, StoredEntry)>;

/// An object's value as a capture holds it: a handle on the value, not a
/// copy ([`Shared::held`]) — the object's next write copies away from it
/// instead. Its owner's shard keeps it until the ship serializes it there
/// or, for a read-only object, for as long as the snapshot lives.
#[derive(Clone)]
pub struct Held {
    value: Arc<dyn Captured>,
    /// The value's serialized length.
    len: usize,
    /// In a debug build, the object and the value's digest at capture, which
    /// the ship holds the value to when it serializes it.
    witness: Option<(u64, u64)>,
}

/// What a ship needs of a captured value, whatever its type.
trait Captured: Send + Sync {
    fn encode(&self, ctx: &Ctx) -> Bytes;
    fn runs(&self) -> Vec<Run<'_>>;
    fn digest(&self) -> u64;
}

impl<T: Serial + Contents + Send + Sync> Captured for T {
    fn encode(&self, ctx: &Ctx) -> Bytes {
        ctx.encode(self)
    }

    fn runs(&self) -> Vec<Run<'_>> {
        Runs::of(self)
    }

    fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.fold(&mut h);
        h.finish()
    }
}

/// What a debug build's capture check reads of a captured value: its
/// contents where they lie, with no copy made.
pub trait Contents {
    /// Fold the value's shape and contents into `h`.
    fn fold(&self, h: &mut Fnv1a);
}

impl Contents for Vector {
    fn fold(&self, h: &mut Fnv1a) {
        h.write_f64s(self.as_slice());
    }
}

impl Contents for DenseMatrix {
    fn fold(&self, h: &mut Fnv1a) {
        h.write_u64(self.rows() as u64);
        h.write_u64(self.cols() as u64);
        h.write_f64s(self.as_slice());
    }
}

impl Contents for MatrixBlock {
    fn fold(&self, h: &mut Fnv1a) {
        [self.bi, self.bj, self.row_offset, self.col_offset].iter().for_each(|&x| h.write_u64(x as u64));
        match &self.data {
            BlockData::Dense(d) => d.fold(h),
            BlockData::Sparse(s) => s.iter().for_each(|(i, j, v)| {
                [i, j].iter().for_each(|&x| h.write_u64(x as u64));
                h.write_f64s(&[v]);
            }),
        }
    }
}

impl Held {
    /// In a debug build, fail a value that no longer matches its digest at
    /// capture, naming the object and the entry's key: resuming from it
    /// would resume from data the capture never saw.
    fn check(&self, key: u64) -> GmlResult<()> {
        match self.witness {
            Some((object, digest)) if self.value.digest() != digest => {
                Err(GmlError::Unrecoverable(format!(
                    "object {object} changed under its capture: entry {key} no longer matches \
                     the digest taken then"
                )))
            }
            _ => Ok(()),
        }
    }

    /// Whether something besides the store — its object — still holds the
    /// value: the object has not written it since, nor given it up. The
    /// repair reads this when nothing else can hold it: the executor drains
    /// the store before it restores, so no ship holds a clone and a re-save
    /// of a degraded read-only object has replaced its old snapshot, whose
    /// handles would share the allocation; a fetch's clone lives only while
    /// it serializes.
    fn is_live(&self) -> bool {
        Arc::strong_count(&self.value) > 1
    }
}

/// What a shard keeps under one key of [`Shard::slots`].
#[derive(Clone)]
enum Slot {
    /// A capture's handle, until its ship serializes it here. Charged
    /// nothing: it is the object's own memory until a write copies away
    /// from it.
    Held(Held),
    /// A serialized replica.
    Stored(StoredEntry),
}

impl Slot {
    fn wire(&self) -> usize {
        match self {
            Slot::Held(_) => 0,
            Slot::Stored(e) => e.wire(),
        }
    }

    fn logical(&self) -> u64 {
        match self {
            Slot::Held(h) => h.len as u64,
            Slot::Stored(e) => e.logical,
        }
    }
}

impl StoredEntry {
    /// Wire bytes: what the entry occupies in a shard and costs to ship.
    fn wire(&self) -> usize {
        self.head.as_ref().map_or(0, |h| h.len()) + self.body.len()
    }

    /// One-honest-copy invariant: crossing a place boundary costs exactly
    /// one physical copy of each part, made at the receiving place. The copy
    /// must not share the sender's allocation, or the simulated failure
    /// would not cost a transfer (and `kill` would not model memory loss).
    /// Called at the receiver, which is also where the bytes are accounted.
    /// An entry the sender serialized for this one transfer, of which it
    /// keeps no handle, is `fresh`: that serialization was the crossing's
    /// one copy, so the receiver keeps it as it came.
    fn received(self, ctx: &Ctx, fresh: bool) -> Self {
        ctx.record_bytes_received(self.wire());
        if fresh {
            return self;
        }
        StoredEntry {
            head: self.head.as_deref().map(Bytes::copy_from_slice),
            body: Bytes::copy_from_slice(&self.body),
            logical: self.logical,
        }
    }
}

/// One place's `(snapshot id, key)` → replica maps.
#[derive(Default)]
struct Shard {
    /// What a save stored, or a capture holds until its ship serializes it.
    slots: HashMap<(u64, u64), Slot>,
    /// A read-only object's first replicas: handles on its own blocks. App
    /// state, not the store's: charged nothing and not in the inventory.
    held: HashMap<(u64, u64), Held>,
}

/// What a live place holds of a read-only snapshot's entry, as the repair
/// reads it.
#[derive(Clone, Copy, PartialEq)]
enum Holding {
    /// A frame.
    Frame,
    /// A handle on a block its object still holds.
    Block,
    /// A handle on a block its object gave up or copied away from.
    Orphan,
}

/// Per-place storage shard.
///
/// Every serialized byte held here is charged to the memory ledger's
/// [`StoreShard`](apgas::mem::MemTag::StoreShard) tag — **wire** bytes (the
/// frames actually resident), the same quantity
/// [`ResilientStore::inventory`] reports as `wire_bytes`, so the two
/// reconcile exactly at any quiescent point. *Logical* payload bytes — what
/// the frames decode back to — are reported separately. (Owner copies may
/// share the encoder's allocation by refcount; the ledger counts held bytes,
/// not unique heap blocks — the allocator-level view is `mem::heap_bytes`.)
pub(crate) struct PlaceStore {
    map: Mutex<Shard>,
}

impl PlaceStore {
    fn new() -> Self {
        PlaceStore { map: Mutex::new(Shard::default()) }
    }

    fn insert(&self, snap_id: u64, key: u64, value: StoredEntry) {
        self.put(snap_id, key, Slot::Stored(value));
    }

    fn put(&self, snap_id: u64, key: u64, slot: Slot) {
        let added = slot.wire();
        let replaced = self.map.lock().slots.insert((snap_id, key), slot);
        mem::charge(MemTag::StoreShard, added);
        if let Some(old) = replaced {
            mem::discharge(MemTag::StoreShard, old.wire());
        }
    }

    /// The serialized replica of `(snap_id, key)`: none while a capture's
    /// handle is all there is.
    fn get(&self, snap_id: u64, key: u64) -> Option<StoredEntry> {
        match self.map.lock().slots.get(&(snap_id, key)) {
            Some(Slot::Stored(e)) => Some(e.clone()),
            _ => None,
        }
    }

    /// What is here of `(snap_id, key)` as it would cross to a fetcher: its
    /// frame, or a read-only object's held block serialized here into an
    /// entry without a head, made for the transfer (`true`). A capture's
    /// handle is not served: its ship has not run.
    fn read(&self, ctx: &Ctx, snap_id: u64, key: u64) -> Option<(StoredEntry, bool)> {
        let held = {
            let shard = self.map.lock();
            if let Some(Slot::Stored(e)) = shard.slots.get(&(snap_id, key)) {
                return Some((e.clone(), false));
            }
            shard.held.get(&(snap_id, key))?.clone()
        };
        let payload = held.value.encode(ctx);
        Some((StoredEntry { head: None, logical: payload.len() as u64, body: payload }, true))
    }

    /// What is here of each of `keys`, in their order.
    fn slots(&self, snap_id: u64, keys: &[u64]) -> Vec<(u64, Slot)> {
        let shard = self.map.lock();
        keys.iter().filter_map(|&k| shard.slots.get(&(snap_id, k)).map(|slot| (k, slot.clone()))).collect()
    }

    fn remove(&self, snap_id: u64, key: u64) {
        if let Some(old) = self.map.lock().slots.remove(&(snap_id, key)) {
            mem::discharge(MemTag::StoreShard, old.wire());
        }
    }

    fn remove_snapshots(&self, snap_ids: &[u64]) {
        let mut shard = self.map.lock();
        let gone = shard.slots.iter().filter(|((sid, _), _)| snap_ids.contains(sid));
        let freed: usize = gone.map(|(_, slot)| slot.wire()).sum();
        shard.slots.retain(|(sid, _), _| !snap_ids.contains(sid));
        shard.held.retain(|(sid, _), _| !snap_ids.contains(sid));
        drop(shard);
        mem::discharge(MemTag::StoreShard, freed);
    }

    fn len(&self) -> usize {
        self.map.lock().slots.len()
    }

    /// Under one lock, put each serialized entry in place of its key's
    /// handle, and return the entries whose key is still here. The handles
    /// are dropped after the lock.
    fn replace_held(&self, snap_id: u64, entries: Entries) -> Entries {
        let (mut added, mut released, mut shard) = (0, Vec::new(), self.map.lock());
        let kept: Entries = entries
            .into_iter()
            .filter(|(key, entry)| {
                let Some(slot) = shard.slots.get_mut(&(snap_id, *key)) else { return false };
                if let Slot::Held(_) = slot {
                    added += entry.wire();
                    released.push(std::mem::replace(slot, Slot::Stored(entry.clone())));
                }
                true
            })
            .collect();
        drop(shard);
        mem::charge(MemTag::StoreShard, added);
        drop(released);
        kept
    }

    /// Keep, as a read-only object's first replicas, each of `keys` that a
    /// capture holds here, and return the handles this place holds of them.
    fn keep(&self, snap_id: u64, keys: &[u64]) -> Vec<(u64, Held)> {
        let mut shard = self.map.lock();
        for &key in keys {
            if let Some(Slot::Held(h)) = shard.slots.remove(&(snap_id, key)) {
                shard.held.insert((snap_id, key), h);
            }
        }
        keys.iter().filter_map(|&k| shard.held.get(&(snap_id, k)).map(|h| (k, h.clone()))).collect()
    }

    /// Presence test without cloning the payload (audit probes): a frame
    /// or a handle.
    fn holds(&self, snap_id: u64, key: u64) -> bool {
        let shard = self.map.lock();
        shard.held.contains_key(&(snap_id, key)) || shard.slots.contains_key(&(snap_id, key))
    }

    /// What this place holds of each snapshot in `snaps` (by index and id):
    /// its frames, and its handles on blocks.
    fn holdings(&self, snaps: &[(usize, u64)]) -> Vec<(usize, u64, Holding)> {
        let shard = self.map.lock();
        let index = |snap_id: u64| snaps.iter().find(|&&(_, id)| id == snap_id).map(|&(si, _)| si);
        let frames = shard.slots.iter().filter_map(|(&(id, key), slot)| match slot {
            Slot::Stored(_) => Some((index(id)?, key, Holding::Frame)),
            Slot::Held(_) => None,
        });
        let handles = shard.held.iter().filter_map(|(&(id, key), h)| {
            Some((index(id)?, key, if h.is_live() { Holding::Block } else { Holding::Orphan }))
        });
        frames.chain(handles).collect()
    }

    /// `(entries, distinct snapshots, logical bytes, wire bytes)` under one
    /// lock.
    fn inventory(&self) -> (usize, usize, u64, u64) {
        let shard = self.map.lock();
        let snaps: HashSet<u64> = shard.slots.keys().map(|&(sid, _)| sid).collect();
        let logical = shard.slots.values().map(Slot::logical).sum();
        let wire = shard.slots.values().map(|v| v.wire() as u64).sum();
        (shard.slots.len(), snaps.len(), logical, wire)
    }
}

impl Drop for PlaceStore {
    /// A killed place drops its whole shard (`clear_place` wipes the
    /// place-local map), so the remaining charge is discharged here —
    /// keeping the ledger equal to the *live* inventory across failures.
    fn drop(&mut self) {
        let held: usize = self.map.lock().slots.values().map(Slot::wire).sum();
        mem::discharge(MemTag::StoreShard, held);
    }
}

/// Per-place inventory of one store shard, as reported by
/// [`ResilientStore::inventory`] — the exporter's
/// `gml_store_*{place=...}` gauges and the flight recorder's store section.
/// A read-only object's held blocks are its own memory, not the store's,
/// and are not counted.
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
    /// Total *logical* payload bytes held — what the stored frames decode
    /// back to.
    pub bytes: u64,
    /// Total *wire* bytes actually resident (frames as stored/shipped).
    /// This is the quantity the `StoreShard` memory-ledger tag charges.
    pub wire_bytes: u64,
}

/// Result of auditing one [`Snapshot`](crate::snapshot::Snapshot) against
/// the double-redundancy invariant (§IV-B): every entry present at both its
/// replica places, the second of them the first's *next place* in the group
/// the copy was placed under (the rule of `second_replica`) — for a
/// read-only object's entry, any place but the first. A replica is present
/// while its place is alive and its shard holds a frame or a handle of it.
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
    /// from loss).
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
/// at ship time, at `owner`, from `source`. A capture's order whose
/// `backup` is its `owner` ships nothing: it only serializes what the
/// capture holds there, or keeps a read-only object's handles.
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

/// What a [`ShipOrder`] ships of the holder's shard.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Source {
    /// Its frames, in one batch, and what a capture holds there, framed in
    /// place first: a mutable object's save, or a repair copying a frame.
    Stored,
    /// Its frames, one at a time, each deleted there once its copy landed:
    /// a repair moving a frame off the place holding its block.
    Moved,
    /// Its handles on a read-only object's blocks, which it keeps: each
    /// framed there for the backup alone, one at a time — the object's first
    /// save, or a repair whose frame died.
    Held,
}

/// What a repair read off the live places' shards of its read-only
/// snapshots' entries (by snapshot index and key).
#[derive(Default)]
struct Holdings {
    /// The place where each entry's object holds its block.
    blocks: HashMap<(usize, u64), Place>,
    /// The places holding each entry's frame.
    frames: HashMap<(usize, u64), Vec<Place>>,
    /// Per place, the entries whose block it holds for no object any more.
    orphans: BTreeMap<Place, Vec<(usize, u64)>>,
}

/// Handle to the distributed double in-memory store. Cheap to clone and
/// `Send`, so collectives can carry it into remote tasks.
#[derive(Clone)]
pub struct ResilientStore {
    plh: PlaceLocalHandle<PlaceStore>,
    next_snap_id: Arc<AtomicU64>,
    /// When true, [`save_local_parts`](Self::save_local_parts) only keeps
    /// the captured handles at their owner: serializing and shipping them
    /// is left to whoever holds the resulting [`Snapshot`]
    /// ([`ship_orders`](Self::ship_orders)). Only the handle an
    /// `AppResilientStore` passes to `make_snapshot` is built so; any other
    /// serializes and ships its captures before `save_local_parts` returns.
    capture_only: bool,
    /// Entry payloads handed out by [`fetch`](Self::fetch), at any place.
    handed_out: Arc<AtomicU64>,
}

impl ResilientStore {
    /// Create the store's shard at every place (including spares).
    pub fn make(ctx: &Ctx) -> GmlResult<Self> {
        let plh = PlaceLocalHandle::make(ctx, &ctx.all_places(), |_| PlaceStore::new())?;
        Ok(ResilientStore {
            plh,
            next_snap_id: Arc::new(AtomicU64::new(1)),
            capture_only: false,
            handed_out: Arc::new(AtomicU64::new(0)),
        })
    }

    /// This store as a handle that only captures (see `capture_only`).
    pub(crate) fn capturing(&self) -> Self {
        ResilientStore { capture_only: true, ..self.clone() }
    }

    /// `item`, a value of object `object_id`, as a capture hands it to
    /// [`save_local_parts`]: held by reference. Nothing is serialized; a
    /// debug build digests the value where it lies.
    ///
    /// [`save_local_parts`]: Self::save_local_parts
    pub(crate) fn part<T>(&self, object_id: u64, item: &Shared<T>) -> Held
    where
        T: Serial + Contents + Send + Sync + 'static,
    {
        let witness = cfg!(debug_assertions).then(|| (object_id, Captured::digest(&**item)));
        Held { value: item.held(), len: item.byte_len(), witness }
    }

    /// Hold `item`, a block a restore rebuilt here under entry `key` of
    /// read-only snapshot `snap`, as that entry's first replica at this
    /// place — in place of a handle this place had on it.
    pub(crate) fn rehold<T>(&self, ctx: &Ctx, snap: &Snapshot, key: u64, item: &Shared<T>) -> GmlResult<()>
    where
        T: Serial + Contents + Send + Sync + 'static,
    {
        let held = self.part(snap.object_id, item);
        self.shard(ctx)?.map.lock().held.insert((snap.snap_id, key), held);
        Ok(())
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
    /// places join the store lazily. A task still running at a killed place
    /// gets an error instead: `set_local` installs nothing there, so no
    /// shard is charged where nothing would ever drop it.
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
    /// this from a task running at the owning place, with the values its
    /// capture held (`part`), and hands the returned locations to
    /// [`Snapshot::gathered`](crate::snapshot::Snapshot::gathered).
    pub fn save_local_parts(
        &self,
        ctx: &Ctx,
        snap_id: u64,
        group: &PlaceGroup,
        parts: Vec<(u64, Held)>,
    ) -> GmlResult<Vec<(u64, EntryLoc)>> {
        let owner = ctx.here();
        let backup = second_replica(group, owner)?;
        let locs = parts.iter().map(|(key, value)| (*key, EntryLoc { owner, backup, len: value.len }));
        let locs = locs.collect();
        self.hold(ctx, snap_id, backup, parts)?;
        Ok(locs)
    }

    /// Keep `held` in this place's shard, the owner's, under `snap_id`.
    /// Unless this handle only captures, then serialize them here and ship
    /// them to `backup` in **one** batched transfer — a single `at` round
    /// trip whatever the number of keys — before returning. Over a
    /// single-place group the backup collapses onto the owner (`backup ==
    /// here`), leaving one copy only — a one-place application has no second
    /// place to survive on, matching the paper's model. A backup that is
    /// already dead fails the save, so the enclosing checkpoint aborts and is
    /// cancelled (atomic commit).
    fn hold(&self, ctx: &Ctx, snap_id: u64, backup: Place, held: Vec<(u64, Held)>) -> GmlResult<()> {
        let total: usize = held.iter().map(|(_, value)| value.len).sum();
        let _span = ctx.trace_span(SpanKind::StoreSaveBatch, total as u64);
        let shard = self.shard(ctx)?;
        let keys: Vec<u64> = held.iter().map(|&(key, _)| key).collect();
        held.into_iter().for_each(|(key, value)| shard.put(snap_id, key, Slot::Held(value)));
        self.check_backup(ctx, backup)?;
        if self.capture_only || keys.is_empty() {
            return Ok(());
        }
        let order = ShipOrder { snap_id, owner: ctx.here(), backup, keys, total, source: Source::Stored };
        self.ship_from_here(ctx, &order).map(drop)
    }

    /// Fail fast on a backup that is already dead, so the enclosing
    /// checkpoint aborts at save time (atomic cancel) rather than at the
    /// ship barrier. A death *after* this check is caught by the transfer
    /// itself.
    fn check_backup(&self, ctx: &Ctx, backup: Place) -> GmlResult<()> {
        if backup != ctx.here() && !ctx.is_alive(backup) {
            return Err(GmlError::from(apgas::ApgasError::DeadPlace(
                apgas::DeadPlaceException::new(backup, "backup died before batch ship"),
            )));
        }
        Ok(())
    }

    /// Entry `key`'s held value framed by `codec::encode_entry` from the
    /// value's wire runs where they lie — packed where that is proven to
    /// pay, with no serialized copy of the value made; else kept verbatim,
    /// its one serialization becoming the body.
    fn frame(&self, ctx: &Ctx, key: u64, value: &Held) -> GmlResult<StoredEntry> {
        value.check(key)?;
        let serialized = || value.value.encode(ctx);
        let codec::EncodeOutcome { head, body } = codec::encode_entry(&value.value.runs(), serialized);
        Ok(StoredEntry { head: Some(head), body, logical: value.len as u64 })
    }

    /// [`frame`](Self::frame), under its own span.
    fn frame_held(&self, ctx: &Ctx, key: u64, value: &Held) -> GmlResult<StoredEntry> {
        let _span = ctx.trace_span(SpanKind::CkptEncode, value.len as u64);
        self.frame(ctx, key, value)
    }

    /// The entries of a `Stored` order that are here, as they ship: each
    /// one a capture still holds is framed first, at the owner, and kept in
    /// the shard in place of its handle. An entry deleted
    /// since it was read — a cancel — is left out, like a missing key.
    fn serialize_held(&self, ctx: &Ctx, shard: &PlaceStore, order: &ShipOrder) -> GmlResult<Entries> {
        let (mut entries, mut held) = (Vec::new(), Vec::new());
        for (key, slot) in shard.slots(order.snap_id, &order.keys) {
            match slot {
                Slot::Stored(entry) => entries.push((key, entry)),
                Slot::Held(value) => held.push((key, value)),
            }
        }
        if held.is_empty() {
            return Ok(entries);
        }
        let span = ctx.trace_span(SpanKind::CkptEncode, held.iter().map(|(_, h)| h.len as u64).sum());
        let serialized = held.iter().map(|(key, value)| Ok((*key, self.frame(ctx, *key, value)?)));
        let serialized = serialized.collect::<GmlResult<Entries>>()?;
        drop((span, held));
        entries.extend(shard.replace_held(order.snap_id, serialized));
        Ok(entries)
    }

    /// The batched backup transfer: one `at` to `backup` carrying the whole
    /// frame of `(key, stored entry)` pairs. Runs at the owning place. With
    /// `fresh` the entries were serialized for this transfer, and nothing
    /// here refers to them any more (see `StoredEntry::received`).
    fn ship_entries(
        &self,
        ctx: &Ctx,
        snap_id: u64,
        entries: Entries,
        backup: Place,
        fresh: bool,
    ) -> GmlResult<()> {
        // Wire accounting: what actually crosses the place boundary is the
        // frames as stored — this is where packing shows up in
        // `bytes_shipped`.
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
                shard.insert(snap_id, key, entry.received(ctx, fresh));
            }
            Ok(())
        })??;
        Ok(())
    }

    /// What a capture of `snap` left undone, read off the snapshot: its
    /// entries grouped by `(owner, backup)` replica pair, in the owner's
    /// group order, keys ascending — the same on every run. An entry whose
    /// pair collapsed onto one place has an order whose backup is its
    /// owner: it only serializes — or, for a read-only object, keeps the
    /// handles.
    pub(crate) fn ship_orders(&self, snap: &Snapshot) -> Vec<ShipOrder> {
        let mut entries: Vec<(u64, Place, Place, usize)> =
            snap.entries.iter().map(|(&key, loc)| (key, loc.owner, loc.backup, loc.len)).collect();
        entries.sort_unstable_by_key(|&(key, owner, backup, _)| (snap.group.index_of(owner), backup, key));
        let of_one_pair = entries.chunk_by(|a, b| (a.1, a.2) == (b.1, b.2));
        let source = if snap.read_only { Source::Held } else { Source::Stored };
        let orders = of_one_pair.map(|entries| ShipOrder {
            snap_id: snap.snap_id,
            owner: entries[0].1,
            backup: entries[0].2,
            keys: entries.iter().map(|&(key, ..)| key).collect(),
            total: entries.iter().map(|&(.., len)| len).sum(),
            source,
        });
        orders.collect()
    }

    /// Execute one backup transfer at the order's owner (see
    /// [`ship_from_here`](Self::ship_from_here)). Callable from any place
    /// (the checkpoint pipeline runs it from a driver-side helper thread
    /// while the next iteration computes).
    pub(crate) fn execute_ship(&self, ctx: &Ctx, order: ShipOrder) -> GmlResult<()> {
        let _span = ctx.trace_span(SpanKind::CkptShip, order.total as u64);
        let store = self.clone();
        ctx.at(order.owner, move |ctx| store.ship_from_here(ctx, &order))?.map(drop)
    }

    /// The owner's half of a [`ShipOrder`]: read the entries from its
    /// source here and ship them; return how many it found and their wire
    /// bytes. Stored entries go in one batch, as stored once what a capture
    /// holds here is framed in place — an order whose backup is its owner
    /// stops there; moved frames and held blocks go one entry at a time, so
    /// that at most one is in flight: a moved frame is deleted here once its
    /// copy landed, and a held block is framed here for the backup, its
    /// handle kept.
    fn ship_from_here(&self, ctx: &Ctx, order: &ShipOrder) -> GmlResult<(usize, usize)> {
        let shard = self.shard(ctx)?;
        let (snap_id, backup) = (order.snap_id, order.backup);
        // A missing key means the snapshot was cancelled between capture
        // and ship; the order is stale and skipping is the correct quiet
        // outcome.
        match order.source {
            Source::Stored => {
                let entries = self.serialize_held(ctx, &shard, order)?;
                let found = (entries.len(), entries.iter().map(|(_, e)| e.wire()).sum());
                if backup != order.owner {
                    self.ship_entries(ctx, snap_id, entries, backup, false)?;
                }
                Ok(found)
            }
            Source::Moved => order.keys.iter().try_fold((0, 0), |(found, wire), &key| {
                let Some(entry) = shard.get(snap_id, key) else { return Ok((found, wire)) };
                let sent = entry.wire();
                self.ship_entries(ctx, snap_id, vec![(key, entry)], backup, false)?;
                shard.remove(snap_id, key);
                Ok((found + 1, wire + sent))
            }),
            Source::Held => {
                let held = shard.keep(snap_id, &order.keys);
                if backup == order.owner {
                    return Ok((held.len(), 0));
                }
                held.into_iter().try_fold((0, 0), |(found, wire), (key, value)| {
                    let entry = self.frame_held(ctx, key, &value)?;
                    let sent = entry.wire();
                    self.ship_entries(ctx, snap_id, vec![(key, entry)], backup, true)?;
                    Ok((found + 1, wire + sent))
                })
            }
        }
    }

    /// Give every entry of `snaps` that a failure left short of a replica
    /// its second one back, in `group`, the group the application continues
    /// on. Moves run one after another, first; the other transfers of
    /// distinct holders run concurrently. The snap ids stay what they were,
    /// so read-only reuse is unaffected; the entries' recorded locations are
    /// rewritten and remember the group they were placed under, so the
    /// snapshots are fully redundant again and audit clean.
    ///
    /// - A mutable object's entry with one live replica has that frame
    ///   shipped *as stored* (no decode, no re-encode; one copy, at the
    ///   receiver, like a save's backup) from its holder to the holder's
    ///   `second_replica`.
    /// - A read-only object's entry is decided from what the live places of
    ///   `group` hold of it, asked first: a held block its object no longer
    ///   holds is dropped where the entry's block is held live on another
    ///   place, and framed where it is otherwise; then a frame beside a live
    ///   handle of its entry moves to that place's `second_replica`, and an
    ///   entry left on one place gets a frame at that place's
    ///   `second_replica` — its frame shipped as stored, or its handle
    ///   serialized. Its recorded locations are the places holding it.
    ///
    /// An entry with no live replica is [`GmlError::DataLoss`]. A place
    /// dying under the repair is a recoverable error and leaves every
    /// recorded location as it was, except for the copies it had already
    /// moved (copies that did land elsewhere are harmless strays under ids
    /// the snapshot's deletion sweeps): the caller recovers and repairs
    /// again, from what the shards then hold. Never reads a dead place and
    /// never touches a replica that is still alive where it should be.
    /// `gate` is the failure drills' ship gate: while it is set the planned
    /// transfers wait.
    pub(crate) fn repair(
        &self,
        ctx: &Ctx,
        snaps: &mut [&mut Snapshot],
        group: &PlaceGroup,
        gate: Option<&AtomicBool>,
    ) -> GmlResult<RepairReport> {
        let t0 = Instant::now();
        let mut report = RepairReport::default();
        let mut held = self.probe(ctx, snaps, group)?;
        self.settle_orphans(ctx, snaps, &mut held)?;
        // Per holder → target pair, the (snapshot index, key, source) entries
        // to re-home; and the read-only entries whose two replicas stay where
        // they are, with the places they are at.
        let mut plan: BTreeMap<_, Vec<(usize, u64, Source)>> = BTreeMap::new();
        let mut placed = Vec::new();
        for (si, snap) in snaps.iter().enumerate() {
            for (&key, loc) in snap.entries.iter() {
                let lost = || format!("snapshot {} key {key}: no live replica", snap.snap_id);
                let (holder, source) = if snap.read_only {
                    let live = held.blocks.get(&(si, key)).copied();
                    let frames = held.frames.get(&(si, key)).map_or(&[][..], Vec::as_slice);
                    // The places holding the entry: its live block's first,
                    // then its recorded owner's.
                    let mut at: Vec<Place> = frames.iter().copied().chain(live).collect();
                    at.sort_by_key(|&p| (Some(p) != live, p != loc.owner));
                    at.dedup();
                    match at[..] {
                        [owner, backup, ..] => {
                            placed.push((si, key, owner, backup));
                            continue;
                        }
                        [_] if live.is_none() => (at[0], Source::Stored),
                        [_] => (at[0], if frames.is_empty() { Source::Held } else { Source::Moved }),
                        [] => return Err(GmlError::data_loss(lost())),
                    }
                } else {
                    match (ctx.is_alive(loc.owner), ctx.is_alive(loc.backup)) {
                        (true, true) => continue,
                        (true, false) => (loc.owner, Source::Stored),
                        (false, true) => (loc.backup, Source::Stored),
                        (false, false) => return Err(GmlError::data_loss(lost())),
                    }
                };
                let target = second_replica(group, holder)?;
                if target != holder {
                    plan.entry((holder, target)).or_default().push((si, key, source));
                }
            }
        }
        // Per pair: one batch per snapshot of stored frames to copy, one
        // order per moved frame or held block.
        let orders: Vec<Vec<ShipOrder>> = plan
            .iter_mut()
            .map(|(&(owner, backup), moved)| {
                moved.sort_unstable_by_key(|&(si, key, _)| (si, key));
                let batch = |a: &(usize, u64, Source), b: &(usize, u64, Source)| {
                    a.0 == b.0 && (a.2, b.2) == (Source::Stored, Source::Stored)
                };
                let orders = moved.chunk_by(batch).map(|moved| {
                    let snap = &snaps[moved[0].0];
                    let keys: Vec<u64> = moved.iter().map(|&(_, key, _)| key).collect();
                    let total = keys.iter().map(|k| snap.entries[k].len).sum();
                    let (snap_id, source) = (snap.snap_id, moved[0].2);
                    ShipOrder { snap_id, owner, backup, keys, total, source }
                });
                orders.collect()
            })
            .collect();
        if !orders.is_empty() {
            wait_while_set(gate);
            report.pairs = plan.keys().copied().collect();
            self.ship_repairs(ctx, snaps, group, orders.into_iter().flatten(), &mut report)?;
        }
        for (si, key, owner, backup) in placed {
            let loc = Arc::make_mut(&mut snaps[si].entries).get_mut(&key).expect("planned from it");
            (loc.owner, loc.backup) = (owner, backup);
        }
        if !report.pairs.is_empty() {
            report.time = t0.elapsed();
        }
        Ok(report)
    }

    /// Carry out a repair's `orders` — the moves first, one after another,
    /// then the rest, concurrently per holder — and record in `snaps` and
    /// `report` the ones that landed.
    fn ship_repairs(
        &self,
        ctx: &Ctx,
        snaps: &mut [&mut Snapshot],
        group: &PlaceGroup,
        orders: impl Iterator<Item = ShipOrder>,
        report: &mut RepairReport,
    ) -> GmlResult<()> {
        let (moves, rest): (Vec<ShipOrder>, Vec<ShipOrder>) = orders.partition(|o| o.source == Source::Moved);
        // Moves go first, one after another: the buffer a moved copy leaves
        // is what the next copy lands in, so moving holds at most one frame
        // more than the store does. Each is recorded once it landed — its old
        // copy is gone — whatever happens after it.
        let mut landed: Vec<(&ShipOrder, usize)> = Vec::new();
        let mut outcome = Ok(());
        for order in &moves {
            let (store, sent) = (self.clone(), order.clone());
            match ctx.at(order.owner, move |ctx| store.repair_order(ctx, &sent)) {
                Ok(Ok(wire)) => landed.push((order, wire)),
                Ok(Err(e)) => outcome = Err(e),
                Err(e) => outcome = Err(e.into()),
            }
            if outcome.is_err() {
                break;
            }
        }
        // The other transfers of distinct holders run concurrently, and are
        // recorded only if all of them landed.
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
            match shipped {
                Ok(shipped) => landed.extend(batches.iter().flatten().zip(shipped.into_iter().flatten())),
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
            report.wire_bytes += wire as u64;
        }
        outcome
    }

    /// One order of a repair, at its holder: every entry it names must be
    /// here to go. Returns the wire bytes it shipped.
    fn repair_order(&self, ctx: &Ctx, order: &ShipOrder) -> GmlResult<usize> {
        let _span = ctx.trace_span(SpanKind::CkptShip, order.total as u64);
        let (found, wire) = self.ship_from_here(ctx, order)?;
        if found != order.keys.len() {
            return Err(GmlError::data_loss(format!(
                "snapshot {}: {} holds {found} of the {} entries it should",
                order.snap_id,
                order.owner,
                order.keys.len()
            )));
        }
        Ok(wire)
    }

    /// Ask every live place of `group` what it holds of the read-only
    /// snapshots among `snaps`: frames, handles on blocks their object still
    /// holds, and handles on blocks it holds for no object any more. The
    /// first place found holding an entry's block live is the one recorded.
    /// No task when no snapshot is read-only.
    fn probe(&self, ctx: &Ctx, snaps: &[&mut Snapshot], group: &PlaceGroup) -> GmlResult<Holdings> {
        let read_only: Vec<(usize, u64)> =
            snaps.iter().enumerate().filter(|(_, s)| s.read_only).map(|(si, s)| (si, s.snap_id)).collect();
        let mut held = Holdings::default();
        if read_only.is_empty() {
            return Ok(held);
        }
        let places: Vec<(usize, Place)> = group.iter().filter(|&p| ctx.is_alive(p)).enumerate().collect();
        let (plh, read_only) = (self.plh, Arc::new(read_only));
        let probed = each_place(ctx, places.clone(), move |ctx, _| {
            Ok(plh.local(ctx).map(|shard| shard.holdings(&read_only)).unwrap_or_default())
        })?;
        for ((_, place), holdings) in places.into_iter().zip(probed) {
            for (si, key, holding) in holdings {
                match holding {
                    Holding::Frame => held.frames.entry((si, key)).or_default().push(place),
                    Holding::Block => {
                        held.blocks.entry((si, key)).or_insert(place);
                    }
                    Holding::Orphan => held.orphans.entry(place).or_default().push((si, key)),
                }
            }
        }
        Ok(held)
    }

    /// Settle, where it is, each handle a place holds on a block no object
    /// holds any more: drop it where the entry's block is held live on
    /// another place, and frame it otherwise — a restore re-cut its object —
    /// recording the frame in `held`.
    fn settle_orphans(&self, ctx: &Ctx, snaps: &[&mut Snapshot], held: &mut Holdings) -> GmlResult<()> {
        if held.orphans.is_empty() {
            return Ok(());
        }
        let (places, orphans): (Vec<Place>, Vec<Vec<(usize, u64)>>) =
            std::mem::take(&mut held.orphans).into_iter().unzip();
        let alone = |e: &(usize, u64)| !held.blocks.contains_key(e);
        let todo: Vec<Vec<(u64, u64, bool)>> = orphans
            .iter()
            .map(|entries| entries.iter().map(|e @ &(si, key)| (snaps[si].snap_id, key, alone(e))).collect())
            .collect();
        let (store, todo) = (self.clone(), Arc::new(todo));
        each_place(ctx, places.iter().copied().enumerate(), move |ctx, i| {
            let shard = store.shard(ctx)?;
            for &(snap_id, key, frame) in &todo[i] {
                let value = shard.map.lock().held.remove(&(snap_id, key));
                if let Some(value) = value.filter(|_| frame) {
                    shard.insert(snap_id, key, store.frame_held(ctx, key, &value)?);
                }
            }
            Ok(())
        })?;
        for (place, entries) in places.into_iter().zip(orphans) {
            entries.into_iter().filter(alone).for_each(|e| held.frames.entry(e).or_default().push(place));
        }
        Ok(())
    }

    /// Fetch an entry's **logical payload** from wherever it survives: this
    /// place's shard, else `first`'s, else `then`'s. A frame is decoded from
    /// its own head and body, every chunk digest-verified — the body of a
    /// verbatim frame is then handed on by refcount; a read-only object's
    /// held block is serialized where it is held, and that is the payload.
    /// Any mismatch is reported as data loss, never returned as data.
    pub fn fetch(
        &self,
        ctx: &Ctx,
        snap_id: u64,
        key: u64,
        first: Place,
        then: Place,
    ) -> GmlResult<Bytes> {
        let entry = self.fetch_stored(ctx, snap_id, key, first, then)?;
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
    /// restore's read amplification is counted in.
    pub fn payloads_handed_out(&self) -> u64 {
        self.handed_out.load(Ordering::Relaxed)
    }

    /// Fetch an entry **as stored** (a frame, or a held block serialized)
    /// from this place's shard first, then `first`'s, then `then`'s.
    fn fetch_stored(
        &self,
        ctx: &Ctx,
        snap_id: u64,
        key: u64,
        first: Place,
        then: Place,
    ) -> GmlResult<StoredEntry> {
        let mut span = ctx.trace_span(SpanKind::StoreFetch, 0);
        // Local shard hit: no place boundary crossed, so a refcount handoff
        // of the stored buffer is honest (and free).
        if let Some((e, _)) = self.plh.local(ctx).ok().and_then(|shard| shard.read(ctx, snap_id, key)) {
            span.set_arg(e.wire() as u64);
            return Ok(e);
        }
        for source in [first, then] {
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
            let got = ctx
                .at(source, move |ctx| {
                    let _adopt = TraceCtx::from_bytes(header).adopt();
                    plh.local(ctx).ok().and_then(|s| s.read(ctx, snap_id, key))
                })
                .unwrap_or(None);
            if let Some((e, fresh)) = got {
                span.set_arg(e.wire() as u64);
                ctx.record_bytes(e.wire());
                // The only wire copy on the fetch path — the entry lands in
                // this place's "memory". What crosses (and is accounted) is
                // the frame, not its decoded expansion; a verbatim frame
                // needs no other copy to become the payload again.
                return Ok(e.received(ctx, fresh));
            }
        }
        Err(GmlError::data_loss(format!(
            "snapshot {snap_id} key {key}: replicas at {first} and {then} both unavailable"
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
    /// every recorded replica's shard for presence (one batched `at` per
    /// live place) and check backup placement against the group's
    /// next-place rule. Tolerates any pattern of dead places — after losing
    /// both replicas of an entry it *reports* the loss instead of failing.
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
        let mut present: HashSet<(Place, u64)> = HashSet::new();
        for (place, keys) in probes {
            if !ctx.is_alive(place) {
                continue;
            }
            let (plh, keys2) = (self.plh, keys.clone());
            let found: Vec<bool> = ctx
                .at(place, move |ctx| {
                    let shard = plh.local(ctx).ok();
                    keys2.iter().map(|&key| shard.as_ref().is_some_and(|s| s.holds(snap_id, key))).collect()
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
            let backup_ok = loc.backup == loc.owner && owner_ok || present.contains(&(loc.backup, *key));
            match (owner_ok, backup_ok) {
                (true, true) => audit.fully_redundant += 1,
                (false, false) => audit.lost += 1,
                _ => audit.degraded += 1,
            }
            let placed_under = snap.placed_under.get(key).unwrap_or(&snap.group);
            let next = second_replica(placed_under, loc.owner).ok() == Some(loc.backup);
            if !(next || snap.read_only && loc.backup != loc.owner) {
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
impl ResilientStore {
    /// The replica of `(snap_id, key)` that `at` holds, as stored: `None`
    /// where there is none, or the place is dead.
    pub(crate) fn stored_at(&self, ctx: &Ctx, at: Place, snap_id: u64, key: u64) -> Option<StoredEntry> {
        let plh = self.plh;
        let read = move |ctx: &Ctx| plh.local(ctx).ok().and_then(|s| s.get(snap_id, key));
        ctx.at(at, read).ok().flatten()
    }

    /// Whether `at` holds a handle on the block of `(snap_id, key)` that its
    /// object still holds: `None` where it holds no handle, or is dead.
    pub(crate) fn held_at(&self, ctx: &Ctx, at: Place, snap_id: u64, key: u64) -> Option<bool> {
        let plh = self.plh;
        let read = move |ctx: &Ctx| {
            plh.local(ctx).ok().and_then(|s| s.map.lock().held.get(&(snap_id, key)).map(Held::is_live))
        };
        ctx.at(at, read).ok().flatten()
    }
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
            save(ctx, &store, sid, vec![(7, payload.clone())], Place::new(1)).unwrap();
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
                save(ctx, &s2, sid, vec![(3, Bytes::from_static(b"xyz"))], Place::new(2)).unwrap();
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
                save(ctx, &s2, sid, vec![(1, Bytes::from_static(b"vital"))], Place::new(2)).unwrap();
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
                save(ctx, &s2, sid, vec![(1, Bytes::from_static(b"vital"))], Place::new(2)).unwrap();
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
                save(ctx, &s2, sid, vec![(1, Bytes::from_static(b"gone"))], Place::new(2)).unwrap();
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
            save(ctx, &store, sid, vec![(0, Bytes::from(vec![7u8; 1024]))], Place::new(1))
                .unwrap();
            let after = ctx.stats().bytes_shipped;
            // The frame: a 41-byte head (33 fixed + one 8-byte chunk digest)
            // and a 33-byte packed body.
            assert_eq!(after - before, 41 + 33, "backup transfer is accounted");
        });
    }

    #[test]
    fn delete_snapshot_removes_everywhere() {
        with_store(3, 0, |ctx, store| {
            let sid = store.fresh_snap_id();
            save(ctx, &store, sid, vec![(0, Bytes::from_static(b"a"))], Place::new(1)).unwrap();
            save(ctx, &store, sid, vec![(1, Bytes::from_static(b"b"))], Place::new(1)).unwrap();
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
            save(ctx, &store, a, vec![(0, Bytes::from_static(b"a"))], Place::new(1)).unwrap();
            save(ctx, &store, b, vec![(0, Bytes::from_static(b"b"))], Place::new(1)).unwrap();
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
                save(ctx, &s2, sid, vec![(9, Bytes::from_static(b"s"))], Place::new(2)).unwrap();
            })
            .unwrap();
            ctx.kill_place(Place::new(1)).unwrap();
            let got = store.fetch(ctx, sid, 9, Place::new(1), Place::new(2)).unwrap();
            assert_eq!(got, Bytes::from_static(b"s"));
        });
    }

    /// A value that serializes as its bytes alone.
    struct Raw(Vec<u8>);

    impl Serial for Raw {
        fn write(&self, buf: &mut bytes::BytesMut) {
            buf.extend_from_slice(&self.0);
        }
        fn read(buf: &mut Bytes) -> Self {
            Raw(std::mem::take(buf).to_vec())
        }
        fn byte_len(&self) -> usize {
            self.0.len()
        }
    }

    impl Contents for Raw {
        fn fold(&self, h: &mut Fnv1a) {
            h.write(&self.0);
        }
    }

    /// `bytes`, held by a capture through `store`.
    fn held(store: &ResilientStore, bytes: Vec<u8>) -> Held {
        store.part(42, &Shared::new(Raw(bytes)))
    }

    /// Save `entries` as this place's entries of `sid`, backed up at
    /// `backup`, the way a `make_snapshot` saves a place's blocks: held by a
    /// capture, then framed here and shipped in one batch.
    fn save(
        ctx: &Ctx,
        store: &ResilientStore,
        sid: u64,
        entries: Vec<(u64, Bytes)>,
        backup: Place,
    ) -> GmlResult<()> {
        let parts = entries.into_iter().map(|(key, bytes)| (key, held(store, bytes.to_vec())));
        store.hold(ctx, sid, backup, parts.collect())
    }

    #[test]
    fn save_fails_when_backup_dies() {
        with_store(3, 0, |ctx, store| {
            ctx.kill_place(Place::new(2)).unwrap();
            let sid = store.fresh_snap_id();
            // A capture ships nothing, and still refuses a dead backup.
            let group: PlaceGroup = [Place::ZERO, Place::new(2)].into_iter().collect();
            let part = vec![(0, held(&store, b"x".to_vec()))];
            let err = store.capturing().save_local_parts(ctx, sid, &group, part).unwrap_err();
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
            let part = vec![(i as u64, held(store, vec![i as u8; 64]))];
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
            let part = vec![(0, held(&store, Vec::new()))];
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
            // Keys 0 and 1's frames: a 41-byte head each, and packed bodies
            // of 17 (zeros) and 33 bytes.
            assert_eq!(report.wire_bytes, 2 * 41 + 17 + 33);
            assert_eq!(ctx.stats().bytes_shipped - shipped, 2 * 41 + 17 + 33);
            let pairs = [(Place::ZERO, Place::new(2)), (Place::new(2), Place::new(3))];
            assert_eq!(report.pairs, pairs);
            for (key, (owner, backup)) in [(0, pairs[0]), (1, pairs[1])] {
                let loc = EntryLoc { owner, backup, len: 64 };
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
    fn audit_flags_backup_misplacement() {
        with_store(4, 0, |ctx, store| {
            let sid = store.fresh_snap_id();
            let group = ctx.world();
            // Backup deliberately placed two hops away instead of next.
            let wrong_backup = Place::new(2);
            save(ctx, &store, sid, vec![(0, Bytes::from_static(b"misplaced"))], wrong_backup).unwrap();
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
            save(ctx, &store, sid, entries, Place::new(1)).unwrap();
            let after = ctx.stats();
            // Eight frames, each a 41-byte head and a packed body: 17 bytes
            // for key 0's zeros, 33 for each other key.
            let wire = 8 * 41 + 17 + 7 * 33;
            assert_eq!(after.bytes_shipped - before.bytes_shipped, wire);
            assert_eq!(after.bytes_received - before.bytes_received, wire);
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
                save(ctx, &s2, sid, entries, Place::new(2)).unwrap();
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
            let err = save(ctx, &store, sid, vec![(0, Bytes::from_static(b"x"))], Place::new(2))
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
            // a's four frames: a 41-byte head each, and packed bodies of 17
            // (key 0's zeros) and 3 × 33 bytes.
            let frames = 4 * 41 + 17 + 3 * 33;
            assert_eq!(ctx.stats().bytes_shipped - before, meta + frames, "exactly a's backups");
            let (a, b) = (store.audit_snapshot(ctx, &a), store.audit_snapshot(ctx, &b));
            assert_eq!((a.fully_redundant, b.fully_redundant), (4, 0));
            assert!(a.invariant_ok() && b.invariant_ok());
        });
    }

    /// A held value that no longer matches its digest at capture is not
    /// serialized: the ship fails, naming the object and the entry's key.
    #[test]
    fn a_held_value_unlike_its_capture_fails_its_ship_naming_object_and_key() {
        with_store(2, 0, |_, store| {
            let mut value = held(&store, vec![1, 2, 3]);
            let digest = Captured::digest(&Raw(vec![1, 2, 3]));
            value.witness = Some((42, digest));
            assert!(value.check(7).is_ok(), "as captured");
            value.witness = Some((42, digest ^ 1));
            let err = value.check(7).unwrap_err();
            assert!(!err.is_recoverable(), "{err}");
            assert!(err.to_string().contains("object 42 changed under its capture: entry 7"), "{err}");
        });
    }

    /// A capture with no second place to ship to is serialized where it
    /// is held, by an order whose backup is its owner.
    #[test]
    fn a_one_place_group_yields_orders_that_ship_nothing() {
        with_store(3, 0, |ctx, store| {
            let alone: PlaceGroup = [Place::new(1)].into_iter().collect();
            let snap = saved_snapshot(ctx, &store.capturing(), &alone);
            assert_eq!(snap.entry(0).unwrap().backup, Place::new(1), "collapsed onto the owner");
            let orders = store.ship_orders(&snap);
            assert_eq!(orders.len(), 1, "one order for the one owner");
            assert!(orders.iter().all(|o| o.owner == o.backup), "none ships");
            assert!(snap.fetch(ctx, &store, 0).is_err(), "nothing serialized before the order runs");
            let before = ctx.stats().bytes_shipped;
            orders.into_iter().for_each(|o| store.execute_ship(ctx, o).unwrap());
            assert_eq!(ctx.stats().bytes_shipped, before, "nothing shipped");
            assert_eq!(snap.fetch(ctx, &store, 0).unwrap(), vec![0u8; 64]);
        });
    }

    #[test]
    fn a_verbatim_entry_is_the_serialized_buffer_at_the_owner_and_one_copy_at_the_backup() {
        with_store(2, 0, |ctx, store| {
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
            save(ctx, &store, sid, vec![(0, payload.clone())], Place::new(1)).unwrap();

            let owner = store.shard(ctx).unwrap().get(sid, 0).unwrap();
            let s2 = store.clone();
            let at_backup = move |ctx: &Ctx| s2.shard(ctx).unwrap().get(sid, 0).unwrap();
            let backup = ctx.at(Place::new(1), at_backup).unwrap();
            let (owner_head, backup_head) = (owner.head.unwrap(), backup.head.unwrap());
            // One honest copy per hop: none at the owner, one at the backup.
            assert_eq!(owner.body, payload, "the owner's body is the value's one serialization");
            assert_ne!(backup.body.as_ptr(), owner.body.as_ptr(), "the backup holds its own");
            assert_ne!(backup_head.as_ptr(), owner_head.as_ptr());
            assert_eq!((&backup_head, &backup.body), (&owner_head, &payload), "bit-identical");
            let wire = (owner_head.len() + payload.len()) as u64;
            assert_eq!(ctx.stats().bytes_shipped - before, wire, "head and body are what ships");
            assert_eq!(store.inventory(ctx)[1].wire_bytes, wire);
            // Reading it back at the owner verifies it and copies nothing.
            let got = store.fetch(ctx, sid, 0, Place::ZERO, Place::new(1)).unwrap();
            assert_eq!(got.as_ptr(), owner.body.as_ptr());
        });
    }

    #[test]
    fn ledger_reconciles_with_inventory_through_save_delete_and_kill() {
        // The StoreShard ledger tag must equal the summed inventory wire
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
            save(ctx, &store, sid, vec![(0, Bytes::from(vec![1u8; 4096]))], Place::new(1)).unwrap();
            let inv: u64 = store.inventory(ctx).iter().map(|i| i.bytes).sum();
            assert_eq!(inv, 2 * 4096, "owner + backup copies");
            // Each copy a frame: a 41-byte head and a 57-byte packed body.
            let wire: u64 = store.inventory(ctx).iter().map(|i| i.wire_bytes).sum();
            assert_eq!(wire, 2 * (41 + 57));
            assert!(mem::current(MemTag::StoreShard) >= wire);
            store.delete_snapshots(ctx, &[sid]).unwrap();
            let inv_after: u64 = store.inventory(ctx).iter().map(|i| i.bytes).sum();
            assert_eq!(inv_after, 0);
        });
    }

    #[test]
    fn inventory_counts_entries_and_zeroes_dead_places() {
        with_store(3, 0, |ctx, store| {
            let sid = store.fresh_snap_id();
            save(ctx, &store, sid, vec![(0, Bytes::from(vec![1u8; 100]))], Place::new(1)).unwrap();
            save(ctx, &store, sid, vec![(1, Bytes::from(vec![2u8; 50]))], Place::new(1)).unwrap();
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
