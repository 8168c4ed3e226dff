//! Memory observability plane: a counting global allocator plus a
//! lock-free per-subsystem byte ledger.
//!
//! The paper's double in-memory store makes RAM the scarce resource — every
//! snapshot lives twice — so this module gives the framework the space
//! counterpart of its time observability ([`trace`](crate::trace)):
//!
//! * a **counting global allocator** wrapping the system allocator,
//!   maintaining the process-wide live heap level, its peak, and a
//!   cumulative allocation count;
//! * a **tagged byte ledger**: each framework subsystem *charges* bytes
//!   against its [`MemTag`] when it takes ownership of a buffer and
//!   *discharges* them when it lets go. Per tag the ledger keeps the
//!   current level, its high-water mark, and a charge count.
//!
//! The two views are deliberately different. The allocator sees every byte
//! but cannot attribute a deallocation to a subsystem (free sites don't
//! know who allocated); the ledger attributes precisely but only counts
//! what subsystems explicitly account for (payload bytes, not container
//! headers — see DESIGN.md §3.12 for the charging rules). Reconciliation
//! tests pin the [`StoreShard`](MemTag::StoreShard) tag to
//! `ResilientStore::inventory` payload bytes.
//!
//! Everything here is compiled behind the `mem-profile` cargo feature
//! (default-on, like `trace`). With the feature off the API stays
//! available but every function is a constant-folding no-op and the
//! process keeps the plain system allocator — downstream crates never
//! need a feature gate of their own.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::metrics::{Family, Kind};

/// Number of ledger tags. Kept in sync with [`MemTag`] by `TAGS`.
pub const TAG_COUNT: usize = 5;

/// Subsystem scopes of the byte ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MemTag {
    /// Resilient-store shard payloads: the owner + backup snapshot copies
    /// a `PlaceStore` holds (logical payload bytes; owner copies may share
    /// the encoder's allocation via refcounting).
    #[default]
    StoreShard = 0,
    /// Encode and payload buffers parked in the process-wide `bytes` pool
    /// (level mirrors the pool's own; folded in by [`report`]).
    SerialArena = 1,
    /// Trace event ring slots, allocated once per place when tracing is on.
    TraceRing = 2,
    /// Envelopes queued in place mailboxes (header-size accounting: the
    /// closure's captures are opaque to the runtime and not charged).
    Mailbox = 3,
    /// Application matrices/vectors, charged cooperatively via [`MemScope`].
    AppMatrix = 4,
}

/// Every tag, in discriminant order (for iteration in renderers).
pub const TAGS: [MemTag; TAG_COUNT] = [
    MemTag::StoreShard,
    MemTag::SerialArena,
    MemTag::TraceRing,
    MemTag::Mailbox,
    MemTag::AppMatrix,
];

impl MemTag {
    /// Stable label used in Prometheus `tag="..."` values and forensics JSON.
    pub fn label(self) -> &'static str {
        match self {
            MemTag::StoreShard => "store_shard",
            MemTag::SerialArena => "serial_arena",
            MemTag::TraceRing => "trace_ring",
            MemTag::Mailbox => "mailbox",
            MemTag::AppMatrix => "app_matrix",
        }
    }
}

struct TagCell {
    current: AtomicU64,
    high: AtomicU64,
    charges: AtomicU64,
}

impl TagCell {
    const fn new() -> Self {
        TagCell {
            current: AtomicU64::new(0),
            high: AtomicU64::new(0),
            charges: AtomicU64::new(0),
        }
    }
}

#[allow(clippy::declare_interior_mutable_const)]
const TAG_CELL_INIT: TagCell = TagCell::new();
static LEDGER: [TagCell; TAG_COUNT] = [TAG_CELL_INIT; TAG_COUNT];

/// `true` when the `mem-profile` feature is compiled in.
#[inline]
pub const fn enabled() -> bool {
    cfg!(feature = "mem-profile")
}

/// Charge `bytes` against `tag`: the subsystem took ownership of a buffer.
#[inline]
pub fn charge(tag: MemTag, bytes: usize) {
    #[cfg(feature = "mem-profile")]
    {
        let cell = &LEDGER[tag as usize];
        let now = cell.current.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
        cell.high.fetch_max(now, Ordering::Relaxed);
        cell.charges.fetch_add(1, Ordering::Relaxed);
    }
    #[cfg(not(feature = "mem-profile"))]
    {
        let _ = (tag, bytes);
    }
}

/// Discharge `bytes` from `tag`: the subsystem released a buffer.
/// Saturates at zero so a racy or duplicated release can never wrap the
/// level around to 2^64.
#[inline]
pub fn discharge(tag: MemTag, bytes: usize) {
    #[cfg(feature = "mem-profile")]
    {
        let _ = LEDGER[tag as usize].current.fetch_update(
            Ordering::Relaxed,
            Ordering::Relaxed,
            |v| Some(v.saturating_sub(bytes as u64)),
        );
    }
    #[cfg(not(feature = "mem-profile"))]
    {
        let _ = (tag, bytes);
    }
}

/// Current level of one tag, in bytes. The [`SerialArena`](MemTag::SerialArena)
/// tag is maintained by the `bytes` pool itself; read it through here (or
/// [`report`]) rather than the raw cell.
pub fn current(tag: MemTag) -> u64 {
    if tag == MemTag::SerialArena && enabled() {
        return bytes::global_pool_stats().parked_bytes;
    }
    LEDGER[tag as usize].current.load(Ordering::Relaxed)
}

/// High-water mark of one tag, in bytes.
pub fn high_water(tag: MemTag) -> u64 {
    if tag == MemTag::SerialArena && enabled() {
        return bytes::global_pool_stats().parked_bytes_high_water;
    }
    LEDGER[tag as usize].high.load(Ordering::Relaxed)
}

/// Cumulative charge count of one tag.
pub fn charges(tag: MemTag) -> u64 {
    if tag == MemTag::SerialArena && enabled() {
        return bytes::global_pool_stats().recycled;
    }
    LEDGER[tag as usize].charges.load(Ordering::Relaxed)
}

/// Live heap level as seen by the counting allocator, in bytes.
/// Zero when `mem-profile` is off.
pub fn heap_bytes() -> u64 {
    #[cfg(feature = "mem-profile")]
    {
        alloc_counter::HEAP_CURRENT.load(Ordering::Relaxed)
    }
    #[cfg(not(feature = "mem-profile"))]
    {
        0
    }
}

/// Peak live heap level since process start, in bytes.
pub fn heap_peak_bytes() -> u64 {
    #[cfg(feature = "mem-profile")]
    {
        alloc_counter::HEAP_PEAK.load(Ordering::Relaxed)
    }
    #[cfg(not(feature = "mem-profile"))]
    {
        0
    }
}

/// Cumulative count of heap allocations since process start.
pub fn heap_allocs() -> u64 {
    #[cfg(feature = "mem-profile")]
    {
        alloc_counter::HEAP_ALLOCS.load(Ordering::Relaxed)
    }
    #[cfg(not(feature = "mem-profile"))]
    {
        0
    }
}

/// One tag's frozen ledger row.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TagStat {
    /// Which subsystem scope this row describes.
    pub tag: MemTag,
    /// Bytes currently charged.
    pub current: u64,
    /// High-water mark of `current`.
    pub high_water: u64,
    /// Cumulative charge operations.
    pub charges: u64,
}

/// A frozen snapshot of the whole memory plane: every ledger tag plus the
/// allocator-level heap counters. All zeros when `mem-profile` is off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemReport {
    /// Per-tag ledger rows, in [`TAGS`] order.
    pub tags: [TagStat; TAG_COUNT],
    /// Live heap bytes (counting allocator).
    pub heap_bytes: u64,
    /// Peak live heap bytes since process start.
    pub heap_peak_bytes: u64,
    /// Cumulative heap allocations since process start.
    pub heap_allocs: u64,
}

impl Default for MemReport {
    fn default() -> Self {
        let mut tags = [TagStat::default(); TAG_COUNT];
        for (slot, tag) in tags.iter_mut().zip(TAGS) {
            slot.tag = tag;
        }
        MemReport { tags, heap_bytes: 0, heap_peak_bytes: 0, heap_allocs: 0 }
    }
}

/// Snapshot the whole memory plane.
pub fn report() -> MemReport {
    let mut r = MemReport::default();
    for (slot, tag) in r.tags.iter_mut().zip(TAGS) {
        *slot = TagStat {
            tag,
            current: current(tag),
            high_water: high_water(tag),
            charges: charges(tag),
        };
    }
    r.heap_bytes = heap_bytes();
    r.heap_peak_bytes = heap_peak_bytes();
    r.heap_allocs = heap_allocs();
    r
}

/// The memory plane as Prometheus families: the per-tag ledger, the
/// counting allocator's heap gauges, then the `bytes` buffer pool's reuse
/// counters and parked level (the `serial_arena` tag). With `mem-profile`
/// compiled out the ledger and heap samples are 0.
pub fn families() -> Vec<Family> {
    let r = report();
    let mut out = Family::table("tag", &r.tags, |t| t.tag.label().to_string(), &[
        (Kind::Gauge, "gml_mem_tag_bytes", "Bytes currently charged to each subsystem ledger tag.", |t| {
            t.current.into()
        }),
        (
            Kind::Gauge,
            "gml_mem_tag_high_water_bytes",
            "High-water mark of bytes charged to each subsystem ledger tag.",
            |t| t.high_water.into(),
        ),
        (
            Kind::Counter,
            "gml_mem_tag_charges_total",
            "Cumulative charge operations against each subsystem ledger tag.",
            |t| t.charges.into(),
        ),
    ]);
    let a = bytes::global_pool_stats();
    for (kind, name, help, v) in [
        (Kind::Gauge, "gml_mem_heap_bytes", "Live heap bytes (counting allocator).", r.heap_bytes),
        (Kind::Gauge, "gml_mem_heap_peak_bytes", "Peak live heap bytes since process start.", r.heap_peak_bytes),
        (Kind::Counter, "gml_mem_heap_allocs_total", "Heap allocations since process start.", r.heap_allocs),
        (Kind::Counter, "gml_arena_hits_total", "Buffer requests served from the pool.", a.hits),
        (Kind::Counter, "gml_arena_misses_total", "Buffer requests that hit the allocator.", a.misses),
        (Kind::Counter, "gml_arena_recycled_total", "Retired buffers parked back into the pool.", a.recycled),
        (Kind::Gauge, "gml_arena_parked_bytes", "Capacity currently parked in the buffer pool.", a.parked_bytes),
        (
            Kind::Gauge,
            "gml_arena_parked_high_water_bytes",
            "High-water mark of parked pool capacity.",
            a.parked_bytes_high_water,
        ),
    ] {
        out.push(Family::new(kind, name, help).value(v));
    }
    out
}

/// RAII charge: charges `bytes` against `tag` on construction, discharges
/// on drop. This is the cooperative accounting path for types that cannot
/// carry a `Drop` impl themselves (application matrices hand out their
/// backing `Vec` by value), and for scoping a phase's working set:
///
/// ```
/// use apgas::mem::{self, MemScope, MemTag};
/// let data = vec![0.0f64; 1024];
/// let _guard = MemScope::new(MemTag::AppMatrix, data.len() * 8);
/// assert!(!mem::enabled() || mem::current(MemTag::AppMatrix) >= 8192);
/// ```
#[derive(Debug)]
pub struct MemScope {
    tag: MemTag,
    bytes: usize,
}

impl MemScope {
    /// Charge `bytes` against `tag` until the guard drops.
    pub fn new(tag: MemTag, bytes: usize) -> Self {
        charge(tag, bytes);
        MemScope { tag, bytes }
    }

    /// Grow the scoped charge by `additional` bytes.
    pub fn grow(&mut self, additional: usize) {
        charge(self.tag, additional);
        self.bytes += additional;
    }

    /// Bytes this guard currently holds charged.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

impl Drop for MemScope {
    fn drop(&mut self) {
        discharge(self.tag, self.bytes);
    }
}

/// The counting allocator. Compiled (and installed as the process global
/// allocator) only with `mem-profile`; accounting uses relaxed atomics, so
/// the per-allocation overhead is two uncontended counter updates.
#[cfg(feature = "mem-profile")]
mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub(super) static HEAP_CURRENT: AtomicU64 = AtomicU64::new(0);
    pub(super) static HEAP_PEAK: AtomicU64 = AtomicU64::new(0);
    pub(super) static HEAP_ALLOCS: AtomicU64 = AtomicU64::new(0);

    struct CountingAlloc;

    #[inline]
    fn on_alloc(n: usize) {
        let now = HEAP_CURRENT.fetch_add(n as u64, Ordering::Relaxed) + n as u64;
        HEAP_PEAK.fetch_max(now, Ordering::Relaxed);
        HEAP_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn on_dealloc(n: usize) {
        // A plain sub is safe here: every dealloc's size comes from a layout
        // previously passed to alloc, so the level cannot go negative.
        HEAP_CURRENT.fetch_sub(n as u64, Ordering::Relaxed);
    }

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                on_alloc(layout.size());
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) };
            on_dealloc(layout.size());
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let p = unsafe { System.alloc_zeroed(layout) };
            if !p.is_null() {
                on_alloc(layout.size());
            }
            p
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = unsafe { System.realloc(ptr, layout, new_size) };
            if !p.is_null() {
                on_dealloc(layout.size());
                on_alloc(new_size);
            }
            p
        }
    }

    #[global_allocator]
    static COUNTING_ALLOC: CountingAlloc = CountingAlloc;
}

#[cfg(test)]
mod tests {
    use super::*;

    // The ledger is process-global and the test harness is multi-threaded,
    // so tests only assert on tags no other apgas test touches, and on
    // monotone quantities (high-water, counts) or deltas large enough to
    // dominate noise.

    #[test]
    fn charge_discharge_roundtrip() {
        let before = current(MemTag::AppMatrix);
        charge(MemTag::AppMatrix, 1 << 20);
        if enabled() {
            assert!(current(MemTag::AppMatrix) >= before + (1 << 20));
            assert!(high_water(MemTag::AppMatrix) >= 1 << 20);
        } else {
            assert_eq!(current(MemTag::AppMatrix), 0);
        }
        discharge(MemTag::AppMatrix, 1 << 20);
        assert!(current(MemTag::AppMatrix) <= before + (1 << 20));
    }

    #[test]
    fn discharge_saturates_at_zero() {
        // Discharging more than was ever charged must clamp, not wrap.
        discharge(MemTag::TraceRing, u64::MAX as usize >> 1);
        assert!(current(MemTag::TraceRing) < u64::MAX / 2);
    }

    #[test]
    fn scope_guard_charges_and_discharges() {
        let before = current(MemTag::AppMatrix);
        {
            let mut g = MemScope::new(MemTag::AppMatrix, 4096);
            g.grow(4096);
            assert_eq!(g.bytes(), 8192);
            if enabled() {
                assert!(current(MemTag::AppMatrix) >= before + 8192);
            }
        }
        assert!(current(MemTag::AppMatrix) <= before + 8192);
    }

    #[test]
    fn report_covers_every_tag_in_order() {
        let r = report();
        assert_eq!(r.tags.len(), TAG_COUNT);
        for (row, tag) in r.tags.iter().zip(TAGS) {
            assert_eq!(row.tag, tag);
        }
        // Labels are unique (they key Prometheus series and JSON rows).
        let mut labels: Vec<_> = TAGS.iter().map(|t| t.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), TAG_COUNT);
    }

    #[cfg(feature = "mem-profile")]
    #[test]
    fn counting_allocator_observes_heap_traffic() {
        let before_allocs = heap_allocs();
        let before_bytes = heap_bytes();
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        assert!(heap_allocs() > before_allocs, "allocation must be counted");
        assert!(heap_peak_bytes() >= heap_bytes());
        drop(v);
        // Other test threads allocate concurrently; the 1 MiB delta must
        // still be visibly released.
        assert!(heap_bytes() < before_bytes + (2 << 20));
    }
}
