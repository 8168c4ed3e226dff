//! Snapshot metadata and the `Snapshottable` interface (Listing 3 of the
//! paper).
//!
//! A [`Snapshot`] records, for one GML object, *where* each piece of its
//! serialized state lives (owner place + backup place per key) plus a small
//! class-specific descriptor (grids, dimensions, the group at snapshot
//! time). The payload itself lives in the [`ResilientStore`]; the metadata
//! is held by the driver activity at place zero, matching the paper's
//! place-zero-coordinated checkpoints.
//!
//! A read-only object's snapshot ([`AppResilientStore::save_read_only`],
//! [`Snapshot::read_only`]) stores one frame of each entry, at the backup:
//! its first replica is a handle on the object's own block, which the
//! owner's shard holds ([`crate::store`]).
//!
//! [`AppResilientStore::save_read_only`]: crate::app_store::AppResilientStore::save_read_only

use std::collections::HashMap;
use std::sync::Arc;

use apgas::prelude::*;
use bytes::Bytes;

use crate::error::{GmlError, GmlResult};
use crate::store::ResilientStore;

/// Where one snapshot entry's replicas live.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EntryLoc {
    /// The first replica's place: the place that produced the entry or,
    /// once a repair re-replicated it, the holder that survived — for a
    /// read-only object's entry, the place whose shard holds its block,
    /// where one does.
    pub owner: Place,
    /// The second replica's place: `owner`'s next place in the group the
    /// copy was placed under (for a read-only object's entry, any live
    /// place but `owner`).
    pub backup: Place,
    /// Payload size in bytes.
    pub len: usize,
}

/// Metadata for one object snapshot: a key → location map plus a
/// class-specific descriptor. Cloning is cheap (shared map).
#[derive(Clone)]
pub struct Snapshot {
    /// Namespace of this snapshot's entries in the store.
    pub snap_id: u64,
    /// The object this snapshot belongs to.
    pub object_id: u64,
    /// The object's place group at snapshot time. Keys that are "place
    /// index" keys refer to indices in *this* group.
    pub group: PlaceGroup,
    /// Key → replica locations.
    pub entries: Arc<HashMap<u64, EntryLoc>>,
    /// Class-specific metadata (serialized grid, dims, ...).
    pub descriptor: Bytes,
    /// For each entry a repair re-replicated
    /// ([`AppResilientStore::repair`](crate::app_store::AppResilientStore::repair)),
    /// the group its replica pair was placed under; every other entry was
    /// placed under `group`.
    pub placed_under: HashMap<u64, PlaceGroup>,
    /// Saved by [`save_read_only`]: each entry's first replica is the
    /// owner's handle on the object's own block, which its ship keeps and a
    /// restore leaves where the object still holds it; only the backup is a
    /// frame.
    ///
    /// [`save_read_only`]: crate::app_store::AppResilientStore::save_read_only
    pub read_only: bool,
}

/// The error of a read-only object found written since its first save at
/// entry `key`: resuming from it would resume from data the checkpoint
/// never held.
pub(crate) fn modified(object_id: u64, key: u64) -> GmlError {
    GmlError::Unrecoverable(format!(
        "read-only object {object_id} was modified after its first save: entry {key} no longer \
         matches what the store holds of it"
    ))
}

/// Wire size of one gathered [`EntryLoc`] record: key, owner, backup and
/// length, each as a `u64` (the workspace's uniform LE wire width).
pub const ENTRY_META_WIRE_BYTES: usize = 32;

impl Snapshot {
    /// Package the entry locations the owning places returned from
    /// [`ResilientStore::save_local_parts`] into a snapshot, at the driver.
    ///
    /// The key → [`EntryLoc`] map is gathered by the driver activity (the
    /// paper's place-zero checkpoint coordinator), so every entry owned by
    /// some other place corresponds to [`ENTRY_META_WIRE_BYTES`] of control
    /// traffic back to the driver. Charging it to `bytes_shipped` /
    /// `bytes_received` keeps the cost report from undercounting
    /// checkpoints. Every `make_snapshot` finishes through here.
    pub fn gathered(
        ctx: &Ctx,
        snap_id: u64,
        object_id: u64,
        group: &PlaceGroup,
        descriptor: Bytes,
        entries: impl IntoIterator<Item = (u64, EntryLoc)>,
    ) -> Snapshot {
        let entries: HashMap<u64, EntryLoc> = entries.into_iter().collect();
        let meta =
            entries.values().filter(|e| e.owner != ctx.here()).count() * ENTRY_META_WIRE_BYTES;
        if meta > 0 {
            ctx.record_bytes(meta);
            ctx.record_bytes_received(meta);
        }
        Snapshot {
            snap_id,
            object_id,
            group: group.clone(),
            entries: Arc::new(entries),
            descriptor,
            placed_under: HashMap::new(),
            read_only: false,
        }
    }

    /// Total payload bytes across all entries.
    pub fn total_bytes(&self) -> usize {
        self.entries.values().map(|e| e.len).sum()
    }

    /// True if every entry still has at least one live replica.
    pub fn reachable(&self, ctx: &Ctx, store: &ResilientStore) -> bool {
        self.entries.values().all(|e| store.reachable(ctx, e.owner, e.backup))
    }

    /// True if every entry still has **both** replicas alive, i.e. the
    /// snapshot can absorb one more failure. Read-only snapshot reuse
    /// requires this: a snapshot that a failure degraded to single replicas
    /// is reused only once a repair has re-replicated them, and re-saved
    /// otherwise.
    pub fn fully_redundant(&self, ctx: &Ctx) -> bool {
        self.entries.values().all(|e| ctx.is_alive(e.owner) && ctx.is_alive(e.backup))
    }

    /// Look up an entry's location.
    pub fn entry(&self, key: u64) -> GmlResult<EntryLoc> {
        self.entries
            .get(&key)
            .copied()
            .ok_or_else(|| GmlError::data_loss(format!("snapshot {} has no key {key}", self.snap_id)))
    }

    /// Fetch an entry's payload from wherever it survives: this place's
    /// replica, else the owner's, else the backup's — a read-only entry's
    /// frame at its backup before its block at the owner, which is
    /// serialized there.
    pub fn fetch(&self, ctx: &Ctx, store: &ResilientStore, key: u64) -> GmlResult<Bytes> {
        let loc = self.entry(key)?;
        let (first, then) =
            if self.read_only { (loc.backup, loc.owner) } else { (loc.owner, loc.backup) };
        store.fetch(ctx, self.snap_id, key, first, then)
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Snapshot(id={}, object={}, {} entries, {} bytes)",
            self.snap_id,
            self.object_id,
            self.entries.len(),
            self.total_bytes()
        )
    }
}

/// GML objects whose state can be saved to and restored from a resilient
/// store — the paper's `Snapshottable` interface, with the store passed
/// explicitly (Rust has no ambient place-zero singleton).
pub trait Snapshottable {
    /// Process-unique identity used to key application snapshots.
    fn object_id(&self) -> u64;

    /// Save this object's distributed state into `store`; returns the
    /// metadata needed to restore it.
    fn make_snapshot(&self, ctx: &Ctx, store: &ResilientStore) -> GmlResult<Snapshot>;

    /// Overwrite this object's (already re-allocated) distributed state from
    /// `snapshot`. The object may be laid out over a different place group
    /// and/or grid than at snapshot time (`remake` first, then restore).
    fn restore_snapshot(
        &mut self,
        ctx: &Ctx,
        store: &ResilientStore,
        snapshot: &Snapshot,
    ) -> GmlResult<()>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use apgas::runtime::{Runtime, RuntimeConfig};

    fn loc(owner: u32, backup: u32, len: usize) -> EntryLoc {
        EntryLoc { owner: Place::new(owner), backup: Place::new(backup), len }
    }

    #[test]
    fn gathered_packages_entries_and_metadata() {
        Runtime::run(RuntimeConfig::new(2), |ctx| {
            let entries = vec![(0, loc(0, 1, 100)), (1, loc(1, 0, 50))];
            let s = Snapshot::gathered(ctx, 9, 42, &PlaceGroup::first(2), Bytes::new(), entries);
            assert_eq!(s.snap_id, 9);
            assert_eq!(s.object_id, 42);
            assert_eq!(s.total_bytes(), 150);
            assert_eq!(s.entry(1).unwrap().owner, Place::new(1));
            assert!(s.entry(7).is_err());
            assert!(format!("{s:?}").contains("2 entries"));
        })
        .unwrap();
    }

    #[test]
    fn gathered_charges_metadata_for_remote_owners_only() {
        Runtime::run(RuntimeConfig::new(3), |ctx| {
            let before = ctx.stats();
            // Gathered at place zero: the entries of places 1 and 2 crossed.
            let entries = vec![(0, loc(0, 1, 8)), (1, loc(1, 2, 8)), (2, loc(2, 0, 8))];
            Snapshot::gathered(ctx, 1, 1, &PlaceGroup::first(3), Bytes::new(), entries);
            let d = ctx.stats().since(&before);
            assert_eq!(d.bytes_shipped, 2 * ENTRY_META_WIRE_BYTES as u64);
            assert_eq!(d.bytes_received, d.bytes_shipped);
        })
        .unwrap();
    }
}
