//! Structured tracing: per-place lock-free event rings, RAII spans, and a
//! Chrome `trace_event` exporter.
//!
//! The paper's evaluation is a cost decomposition — checkpoint vs. step time
//! (Table III), restore cost by mode (Figs 5–7), resilient-finish place-zero
//! overhead (Figs 2–4). Flat lifetime counters cannot attribute time to
//! those phases; this module can. Every instrumented operation emits
//! [`TraceEvent`]s (span begin/end, or an instant) into a fixed-capacity
//! ring owned by the place it ran at, and feeds a latency histogram in the
//! [`crate::metrics::MetricsRegistry`]. Three sinks read it back:
//!
//! 1. [`Tracer::chrome_json`] — a Chrome `trace_event` JSON document,
//!    loadable in `chrome://tracing` / Perfetto (one track per place);
//! 2. the metrics registry's [`report`](crate::metrics::MetricsRegistry::report)
//!    table (p50/p95/p99/max per span kind);
//! 3. the executor's per-iteration cost report (`gml-core`), built from
//!    counter deltas plus these spans.
//!
//! **Zero-cost when off.** Tracing is enabled per runtime, via
//! `RuntimeConfig::trace(true)` or `GML_TRACE=1`. When disabled, every
//! instrumentation point is one predictable branch on a plain `bool` —
//! no clock reads, no atomics, no allocation (benched in
//! `crates/bench/benches/trace_overhead.rs`). Compiling with
//! `--no-default-features` (dropping the `trace` feature) folds that bool
//! to a compile-time `false`.
//!
//! **Best-effort rings.** Writers claim a slot with one `fetch_add` and
//! publish through a per-slot sequence word (seqlock style); the ring never
//! blocks and overwrites the oldest events when full. Readers validate the
//! sequence word before and after copying a slot and drop torn slots, so a
//! drain is always consistent, merely possibly incomplete — the right trade
//! for instrumentation threaded through hot paths.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::metrics::{Family, Kind, MetricsRegistry};
use crate::sync::RwLock;

/// Declares every span kind once: its variant, its dotted display name and
/// its critical-path [`CostClass`](critical_path::CostClass).
macro_rules! span_kinds {
    ($( $(#[$doc:meta])* $kind:ident => $name:literal, $class:ident; )*) => {
        /// What an instrumented operation is. Kinds are POD (`u8`) so events
        /// pack into atomic words; [`SpanKind::name`] gives the dotted display
        /// name used in trace files and the metrics report.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u8)]
        pub enum SpanKind {
            $( $(#[$doc])* $kind, )*
        }

        impl SpanKind {
            /// Every kind, in discriminant order.
            pub const ALL: [SpanKind; SPAN_KIND_COUNT] = [$(SpanKind::$kind),*];

            /// Dotted display name (`"exec.restore"`, `"serial.encode"`, …).
            pub fn name(self) -> &'static str {
                match self {
                    $( SpanKind::$kind => $name, )*
                }
            }

            /// How this kind counts in the critical-path breakdown.
            pub fn class(self) -> critical_path::CostClass {
                match self {
                    $( SpanKind::$kind => critical_path::CostClass::$class, )*
                }
            }
        }
    };
}

span_kinds! {
    /// `Ctx::encode` — serializing a cross-place payload.
    Encode => "serial.encode", Ship;
    /// `Ctx::decode` — deserializing a received payload.
    Decode => "serial.decode", Ship;
    /// `Ctx::at` — a synchronous remote-execution round trip.
    At => "apgas.at", Ship;
    /// `FinishScope::async_at` — an asynchronous task dispatch.
    AsyncAt => "apgas.async_at", Ship;
    /// Resilient-finish spawn record: the synchronous round trip to place
    /// zero before a task may be sent (the paper's main overhead source).
    CtlSpawn => "finish.ctl_spawn", Ctl;
    /// Resilient-finish termination record (fire-and-forget to place zero).
    CtlTerm => "finish.ctl_term", Ctl;
    /// Resilient-finish wait registration + block until quiescence.
    CtlWait => "finish.ctl_wait", Ctl;
    /// `ResilientStore::fetch` — snapshot read (local, owner, or backup).
    StoreFetch => "store.fetch", Ship;
    /// `ResilientStore::delete_snapshots` — collective old-snapshot cleanup.
    StoreDelete => "store.delete_snapshot", Ship;
    /// A GML object writing its snapshot into the store.
    SnapshotObj => "object.snapshot", Compute;
    /// A GML object restoring itself from a snapshot.
    RestoreObj => "object.restore", Compute;
    /// One `ResilientIterativeApp::step` call driven by the executor.
    Step => "exec.step", Structural;
    /// One coordinated checkpoint (all registered objects + commit).
    Checkpoint => "exec.checkpoint", Structural;
    /// One restore attempt; the label names the effective `RestoreMode`.
    Restore => "exec.restore", Structural;
    /// Fail-stop failure injection (instant).
    KillPlace => "place.kill", Structural;
    /// Place-zero failure detection: a `PlaceDied` ctl message (instant).
    PlaceDied => "place.died", Structural;
    /// Elastic place creation (instant).
    SpawnPlace => "place.spawn", Structural;
    /// One multi-chunk compute-pool job (`apgas::pool::run`); the numeric
    /// argument is the chunk count.
    PoolRun => "pool.run", Compute;
    /// One place's save of its entries of a snapshot (the store's `hold`):
    /// the owner keeps what its capture holds and, unless the ship is
    /// deferred, frames it and sends it in one batched backup transfer; the
    /// numeric argument is the total payload bytes of the batch.
    StoreSaveBatch => "store.save_batch", Ship;
    /// One deferred checkpoint ship: a batched backup transfer executed in
    /// the background after the synchronous capture phase returned.
    CkptShip => "ckpt.ship", Ship;
    /// The receiving-place body of a `Ctx::at` closure: what the remote
    /// place actually executed while the sender's [`SpanKind::At`] span was
    /// blocked on the round trip. Parented on the sender's `At` span.
    AtRemote => "apgas.at_remote", Compute;
    /// The receiving-place body of an `async_at` task. Parented on the
    /// sender's [`SpanKind::AsyncAt`] dispatch instant.
    AsyncTask => "apgas.async_task", Compute;
    /// Checkpoint codec encode of one place's batch (delta diff +
    /// compression); the numeric argument is the logical payload bytes in.
    CkptEncode => "ckpt.encode", Ship;
    /// Checkpoint codec decode of one fetched entry (chain replay
    /// included); the numeric argument is the head frame's wire bytes.
    CkptDecode => "ckpt.decode", Ship;
}

/// Number of span kinds (size of per-kind arrays).
pub const SPAN_KIND_COUNT: usize = 24;

impl SpanKind {
    fn from_u8(v: u8) -> Option<SpanKind> {
        SpanKind::ALL.get(v as usize).copied()
    }
}

/// Event phase, Chrome-trace style.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Span begin.
    Begin,
    /// Span end (carries the duration).
    End,
    /// A point event with no duration.
    Instant,
}

impl Phase {
    fn from_u8(v: u8) -> Option<Phase> {
        match v {
            0 => Some(Phase::Begin),
            1 => Some(Phase::End),
            2 => Some(Phase::Instant),
            _ => None,
        }
    }
}

/// One decoded trace event, as returned by [`Tracer::events`].
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Nanoseconds since the tracer's epoch (runtime start).
    pub t_nanos: u64,
    /// Span duration in nanoseconds (nonzero only for [`Phase::End`]).
    pub dur_nanos: u64,
    /// The place the event occurred at.
    pub place: u32,
    /// Begin / End / Instant.
    pub phase: Phase,
    /// What kind of operation this is.
    pub kind: SpanKind,
    /// Optional static label (e.g. the restore mode); `""` when unset.
    pub label: &'static str,
    /// Free argument: payload bytes for data-plane spans, an id or
    /// iteration number for control-plane spans.
    pub arg: u64,
    /// Process-unique identity of this span/instant (0 only for legacy or
    /// synthesized events). Begin and End of the same span share one id.
    pub span_id: u64,
    /// The causal parent's [`span_id`](Self::span_id): the enclosing span on
    /// the same thread, or — for a receiving-place span — the *sender's*
    /// span carried across the place crossing. 0 means "root".
    pub parent_id: u64,
}

// ---------------------------------------------------------------------------
// Span identity and causal context propagation.
// ---------------------------------------------------------------------------

/// Process-global span-id allocator. Ids are unique across every tracer,
/// place, and thread in the process; 0 is reserved for "no span".
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh, process-unique span id.
#[inline]
pub fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    /// The innermost live span on this thread — the causal parent of any
    /// event this thread emits next. Crossing helpers ([`TraceCtx`])
    /// transplant it into the receiving task's thread.
    static CURRENT_SPAN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The current thread's innermost live span id (0 when outside every span).
#[inline]
pub fn current_span_id() -> u64 {
    CURRENT_SPAN.with(|c| c.get())
}

/// The causal trace context carried across a place crossing: the sender-side
/// span the receiving place's work should be parented on, plus the place it
/// was captured at. This is the framed header the serialization plane ships
/// with `at`/`async_at`/ctl messages and store save/fetch traffic (see
/// `impl Serial for TraceCtx` in [`crate::serial`] for the wire format).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCtx {
    /// The sender-side span id receiver spans adopt as their parent
    /// (0 = no causal parent / tracing off).
    pub parent: u64,
    /// The place the context was captured at.
    pub origin: u32,
}

impl TraceCtx {
    /// An empty context: no parent, origin place 0.
    pub const NONE: TraceCtx = TraceCtx { parent: 0, origin: 0 };

    /// Capture the current thread's causal context at `origin`. When the
    /// tracer is off this is a single branch returning [`TraceCtx::NONE`],
    /// so disabled runs capture (and later adopt) nothing.
    #[inline]
    pub fn capture(tracer: &Tracer, origin: u32) -> TraceCtx {
        if !tracer.is_on() {
            return TraceCtx::NONE;
        }
        TraceCtx { parent: current_span_id(), origin }
    }

    /// Install this context as the receiving thread's causal parent for the
    /// guard's lifetime; the previous parent is restored on drop. A `NONE`
    /// context installs nothing (zero TLS traffic on untraced runs).
    #[inline]
    pub fn adopt(self) -> AdoptGuard {
        if self.parent == 0 {
            return AdoptGuard { prev: None };
        }
        let prev = CURRENT_SPAN.with(|c| c.replace(self.parent));
        AdoptGuard { prev: Some(prev) }
    }
}

/// RAII guard for [`TraceCtx::adopt`]: restores the thread's previous causal
/// parent when dropped.
pub struct AdoptGuard {
    prev: Option<u64>,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev {
            CURRENT_SPAN.with(|c| c.set(prev));
        }
    }
}

// ---------------------------------------------------------------------------
// Label interning: &'static str ⇄ u16, lock-free.
// ---------------------------------------------------------------------------

const MAX_LABELS: usize = 64;

/// Interns `&'static str` labels to small ids so events stay POD. Fixed
/// capacity; when full, further labels degrade to the empty label rather
/// than block or allocate.
struct LabelTable {
    // Pointer + length of each interned &'static str. Length is published
    // before the pointer CAS so a reader that sees the pointer sees the
    // length too.
    ptrs: [AtomicUsize; MAX_LABELS],
    lens: [AtomicUsize; MAX_LABELS],
}

impl Default for LabelTable {
    fn default() -> Self {
        LabelTable {
            ptrs: std::array::from_fn(|_| AtomicUsize::new(0)),
            lens: std::array::from_fn(|_| AtomicUsize::new(0)),
        }
    }
}

impl LabelTable {
    /// Id for `label`; 0 is the empty label.
    fn intern(&self, label: &'static str) -> u16 {
        if label.is_empty() {
            return 0;
        }
        let ptr = label.as_ptr() as usize;
        for i in 0..MAX_LABELS {
            let cur = self.ptrs[i].load(Ordering::Acquire);
            if cur == ptr {
                return (i + 1) as u16;
            }
            if cur == 0 {
                self.lens[i].store(label.len(), Ordering::Release);
                match self.ptrs[i].compare_exchange(
                    0,
                    ptr,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => return (i + 1) as u16,
                    Err(existing) if existing == ptr => return (i + 1) as u16,
                    Err(_) => continue, // someone else took the slot; next one
                }
            }
        }
        // Distinct &'static strs with equal content (cross-crate dedup
        // misses) or genuine overflow land here; drop the label.
        0
    }

    fn get(&self, id: u16) -> &'static str {
        if id == 0 || id as usize > MAX_LABELS {
            return "";
        }
        let i = id as usize - 1;
        let ptr = self.ptrs[i].load(Ordering::Acquire);
        if ptr == 0 {
            return "";
        }
        let len = self.lens[i].load(Ordering::Acquire);
        // SAFETY: (ptr, len) were stored from a live &'static str, with len
        // published before ptr; 'static data never moves or frees.
        unsafe {
            std::str::from_utf8_unchecked(std::slice::from_raw_parts(ptr as *const u8, len))
        }
    }
}

// ---------------------------------------------------------------------------
// The per-place event ring.
// ---------------------------------------------------------------------------

/// Slot sequence value meaning "never written".
const SEQ_EMPTY: u64 = u64::MAX;
/// OR-ed into the sequence while a writer owns the slot.
const SEQ_BUSY: u64 = 1 << 63;

struct Slot {
    seq: AtomicU64,
    // t_nanos, dur_nanos, meta (place<<32 | label<<16 | kind<<8 | phase),
    // arg, span_id, parent_id
    words: [AtomicU64; 6],
}

/// One packed ring record: `(t_nanos, dur_nanos, meta, arg, span_id,
/// parent_id)` — the drain-side twin of [`Slot::words`].
pub type PackedEvent = (u64, u64, u64, u64, u64, u64);

/// A fixed-capacity, lock-free, overwrite-oldest ring of packed events.
///
/// Writers never block and never allocate; readers ([`EventRing::drain`])
/// are best-effort and skip slots a concurrent writer is mid-update on.
pub struct EventRing {
    slots: Box<[Slot]>,
    mask: u64,
    head: AtomicU64,
}

impl EventRing {
    /// A ring holding up to `capacity` events (rounded up to a power of two,
    /// minimum 16).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(16);
        let slots = (0..cap)
            .map(|_| Slot {
                seq: AtomicU64::new(SEQ_EMPTY),
                words: Default::default(),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        crate::mem::charge(crate::mem::MemTag::TraceRing, cap * std::mem::size_of::<Slot>());
        EventRing { slots, mask: cap as u64 - 1, head: AtomicU64::new(0) }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

impl Drop for EventRing {
    fn drop(&mut self) {
        crate::mem::discharge(
            crate::mem::MemTag::TraceRing,
            self.slots.len() * std::mem::size_of::<Slot>(),
        );
    }
}

impl EventRing {

    /// Total events ever pushed (≥ what a drain can return once wrapped).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Events lost to ring wraparound so far: everything pushed beyond the
    /// retained window has been overwritten. Feeds the
    /// `gml_trace_dropped_total` Prometheus family and lets the
    /// critical-path analyzer flag drop-affected iterations as incomplete
    /// instead of reporting a bogus path.
    pub fn dropped(&self) -> u64 {
        self.pushed().saturating_sub(self.slots.len() as u64)
    }

    /// Append one packed event, overwriting the oldest if full.
    #[inline]
    #[allow(clippy::too_many_arguments)] // packed-word fan-in, not an API
    pub fn push(&self, t_nanos: u64, dur_nanos: u64, meta: u64, arg: u64, span: u64, parent: u64) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket & self.mask) as usize];
        slot.seq.store(ticket | SEQ_BUSY, Ordering::Release);
        slot.words[0].store(t_nanos, Ordering::Relaxed);
        slot.words[1].store(dur_nanos, Ordering::Relaxed);
        slot.words[2].store(meta, Ordering::Relaxed);
        slot.words[3].store(arg, Ordering::Relaxed);
        slot.words[4].store(span, Ordering::Relaxed);
        slot.words[5].store(parent, Ordering::Release);
        slot.seq.store(ticket, Ordering::Release);
    }

    /// Copy out the retained window, oldest first. Torn slots (concurrently
    /// overwritten during the copy) are skipped.
    pub fn drain(&self) -> Vec<PackedEvent> {
        let head = self.head.load(Ordering::Acquire);
        let start = head.saturating_sub(self.slots.len() as u64);
        let mut out = Vec::with_capacity((head - start) as usize);
        for ticket in start..head {
            let slot = &self.slots[(ticket & self.mask) as usize];
            if slot.seq.load(Ordering::Acquire) != ticket {
                continue;
            }
            let t = slot.words[0].load(Ordering::Acquire);
            let d = slot.words[1].load(Ordering::Acquire);
            let m = slot.words[2].load(Ordering::Acquire);
            let a = slot.words[3].load(Ordering::Acquire);
            let s = slot.words[4].load(Ordering::Acquire);
            let p = slot.words[5].load(Ordering::Acquire);
            if slot.seq.load(Ordering::Acquire) == ticket {
                out.push((t, d, m, a, s, p));
            }
        }
        out
    }
}

#[inline]
fn pack_meta(place: u32, label: u16, kind: SpanKind, phase: Phase) -> u64 {
    ((place as u64) << 32) | ((label as u64) << 16) | ((kind as u64) << 8) | phase as u64
}

fn unpack_meta(meta: u64) -> (u32, u16, Option<SpanKind>, Option<Phase>) {
    (
        (meta >> 32) as u32,
        (meta >> 16) as u16,
        SpanKind::from_u8((meta >> 8) as u8),
        Phase::from_u8(meta as u8),
    )
}

// ---------------------------------------------------------------------------
// Tracer.
// ---------------------------------------------------------------------------

/// Per-place ring capacity (events) of an enabled runtime tracer.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Whether tracing support is compiled in at all. With the `trace` cargo
/// feature disabled, every instrumentation check folds to constant `false`
/// and the instrumentation is dead-code-eliminated.
#[inline(always)]
pub fn compiled_in() -> bool {
    cfg!(feature = "trace")
}

/// The per-runtime trace collector: one [`EventRing`] per place, a label
/// interner, a wall-clock epoch, and the [`MetricsRegistry`].
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    ring_capacity: usize,
    rings: RwLock<Vec<Arc<EventRing>>>,
    labels: LabelTable,
    metrics: MetricsRegistry,
    /// Flow halves dropped at export time: drawn events whose causal parent
    /// was overwritten in a ring before export, so the viewer would have
    /// shown an arrow from nowhere. Counted per [`chrome_json`] call.
    ///
    /// [`chrome_json`]: Tracer::chrome_json
    flow_dropped: AtomicU64,
}

impl Tracer {
    /// A disabled tracer: every instrumentation call is a single branch.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            ring_capacity: 16,
            rings: RwLock::new(Vec::new()),
            labels: LabelTable::default(),
            metrics: MetricsRegistry::new(),
            flow_dropped: AtomicU64::new(0),
        }
    }

    /// An enabled tracer with the given per-place ring capacity.
    pub fn enabled(ring_capacity: usize) -> Self {
        Tracer { enabled: true, ring_capacity, ..Tracer::disabled() }
    }

    /// Is this tracer collecting events? Inlined to a constant `false` when
    /// the `trace` feature is off.
    #[inline(always)]
    pub fn is_on(&self) -> bool {
        compiled_in() && self.enabled
    }

    /// Latency histograms fed by every ended span.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Nanoseconds since the tracer's epoch.
    #[inline]
    pub fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Grow the per-place ring list to cover `n` places. Called by the
    /// runtime whenever a place starts (including elastic growth).
    pub fn ensure_place(&self, n: usize) {
        if !self.is_on() {
            return;
        }
        let mut rings = self.rings.write();
        while rings.len() < n {
            rings.push(Arc::new(EventRing::new(self.ring_capacity)));
        }
    }

    fn ring(&self, place: u32) -> Option<Arc<EventRing>> {
        self.rings.read().get(place as usize).cloned()
    }

    /// Per-place counts of events lost to ring wraparound (index = place).
    pub fn dropped(&self) -> Vec<u64> {
        self.rings.read().iter().map(|r| r.dropped()).collect()
    }

    /// Trace-ring overflow as a Prometheus family: events lost per place,
    /// plus the flow halves suppressed at export. A nonzero value means a
    /// consumer of the trace (critical path, forensics tail) saw an
    /// incomplete record of the early run.
    pub fn dropped_family(&self) -> Family {
        let f = Family::new(
            Kind::Counter,
            "gml_trace_dropped_total",
            "Trace events lost to ring wraparound, per place; the kind=\"flow_half\" \
             series counts flow arrows suppressed at Chrome export because their \
             start span had been overwritten.",
        );
        let f = self.dropped().into_iter().enumerate().fold(f, |f, (p, d)| f.labelled("place", p, d));
        f.labelled("kind", "flow_half", self.flow_dropped())
    }

    /// Flow halves dropped at Chrome-export time because the matching start
    /// span had been overwritten in a ring (cumulative across exports).
    /// Without this suppression the export would draw arrows from nowhere.
    pub fn flow_dropped(&self) -> u64 {
        self.flow_dropped.load(Ordering::Relaxed)
    }

    #[inline]
    #[allow(clippy::too_many_arguments)] // internal POD fan-in, not an API
    fn emit(
        &self,
        place: u32,
        phase: Phase,
        kind: SpanKind,
        label: u16,
        arg: u64,
        t: u64,
        dur: u64,
        span: u64,
        parent: u64,
    ) {
        if let Some(ring) = self.ring(place) {
            ring.push(t, dur, pack_meta(place, label, kind, phase), arg, span, parent);
        }
    }

    /// Record an instant event (no duration). Returns the instant's
    /// process-unique span id (0 when tracing is off) so a dispatch site can
    /// hand it to the receiving place as the causal parent.
    #[inline]
    pub fn instant(&self, place: u32, kind: SpanKind, arg: u64) -> u64 {
        if !self.is_on() {
            return 0;
        }
        let span = next_span_id();
        self.emit(place, Phase::Instant, kind, 0, arg, self.now_nanos(), 0, span, current_span_id());
        span
    }

    /// Begin a span; the returned guard emits the end event (and feeds the
    /// kind's histogram) when dropped. When tracing is off this is a single
    /// branch: no clock read, no ring write.
    #[inline]
    pub fn span(&self, place: u32, kind: SpanKind, arg: u64) -> SpanGuard<'_> {
        self.span_labeled(place, kind, "", arg)
    }

    /// Begin a labeled span (e.g. the restore mode name).
    #[inline]
    pub fn span_labeled(
        &self,
        place: u32,
        kind: SpanKind,
        label: &'static str,
        arg: u64,
    ) -> SpanGuard<'_> {
        if !self.is_on() {
            return SpanGuard {
                tracer: None,
                place,
                kind,
                label: 0,
                arg,
                t0: 0,
                span_id: 0,
                parent_id: 0,
                prev: 0,
            };
        }
        let label = self.labels.intern(label);
        let t0 = self.now_nanos();
        let span_id = next_span_id();
        // This span becomes the thread's innermost live span: its children
        // (including work adopted at other places) parent on it.
        let prev = CURRENT_SPAN.with(|c| c.replace(span_id));
        self.emit(place, Phase::Begin, kind, label, arg, t0, 0, span_id, prev);
        SpanGuard { tracer: Some(self), place, kind, label, arg, t0, span_id, parent_id: prev, prev }
    }

    /// Record a complete span whose duration was measured externally (the
    /// codec paths time themselves even with tracing off, for the stats
    /// counters). Emits begin/end retroactively and feeds the histogram.
    #[inline]
    pub fn complete(&self, place: u32, kind: SpanKind, arg: u64, dur: Duration) {
        if !self.is_on() {
            return;
        }
        let dur_nanos = dur.as_nanos() as u64;
        let end = self.now_nanos();
        let begin = end.saturating_sub(dur_nanos);
        let span = next_span_id();
        let parent = current_span_id();
        self.emit(place, Phase::Begin, kind, 0, arg, begin, 0, span, parent);
        self.emit(place, Phase::End, kind, 0, arg, end, dur_nanos, span, parent);
        self.metrics.kind(kind).record(dur_nanos);
    }

    /// Decode and merge every place's retained events, ordered by time.
    pub fn events(&self) -> Vec<TraceEvent> {
        let rings: Vec<Arc<EventRing>> = self.rings.read().clone();
        let mut out = Vec::new();
        for ring in rings {
            for (t, d, m, a, s, p) in ring.drain() {
                let (place, label, kind, phase) = unpack_meta(m);
                if let (Some(kind), Some(phase)) = (kind, phase) {
                    out.push(TraceEvent {
                        t_nanos: t,
                        dur_nanos: d,
                        place,
                        phase,
                        kind,
                        label: self.labels.get(label),
                        arg: a,
                        span_id: s,
                        parent_id: p,
                    });
                }
            }
        }
        out.sort_by_key(|e| e.t_nanos);
        out
    }

    /// Export the retained events as a Chrome `trace_event` JSON document
    /// (one thread track per place; span ends become complete `"X"` events
    /// so rendering is robust to interleaved same-place spans). Cross-place
    /// parent links become `flow` events (`"s"` at the sender span, `"f"`
    /// with `"bp":"e"` at the receiver span), so the viewer draws an arrow
    /// from every `at`/`async_at` dispatch to the work it caused.
    pub fn chrome_json(&self) -> String {
        let events = self.events();
        let mut out = String::with_capacity(events.len() * 96 + 256);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let places: std::collections::BTreeSet<u32> =
            events.iter().map(|e| e.place).collect();
        let mut first = true;
        for p in places {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{p},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"place {p}\"}}}}"
            ));
        }
        // Span id → (place, begin ts) of the *drawn* event (End slices and
        // instants), for resolving cross-place flow arrows. `known` also
        // remembers Begin-only (still-open) spans: a parent found there was
        // not lost, merely unfinished, so its flows are not "dropped".
        let mut drawn: std::collections::HashMap<u64, (u32, u64)> = std::collections::HashMap::new();
        let known: std::collections::HashSet<u64> = events.iter().map(|e| e.span_id).collect();
        for e in &events {
            match e.phase {
                Phase::End => {
                    drawn.insert(e.span_id, (e.place, e.t_nanos.saturating_sub(e.dur_nanos)));
                }
                Phase::Instant => {
                    drawn.entry(e.span_id).or_insert((e.place, e.t_nanos));
                }
                Phase::Begin => {}
            }
        }
        for e in &events {
            let (ph, ts, dur) = match e.phase {
                // Begin events are kept in the ring for programmatic
                // matching; the End event carries everything the viewer
                // needs as a complete ("X") slice.
                Phase::Begin => continue,
                Phase::End => ("X", e.t_nanos.saturating_sub(e.dur_nanos), Some(e.dur_nanos)),
                Phase::Instant => ("i", e.t_nanos, None),
            };
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"{}\",\"ts\":{:.3},\"pid\":0,\"tid\":{}",
                e.kind.name(),
                ph,
                ts as f64 / 1e3,
                e.place
            ));
            if let Some(d) = dur {
                out.push_str(&format!(",\"dur\":{:.3}", d as f64 / 1e3));
            }
            if e.phase == Phase::Instant {
                out.push_str(",\"s\":\"t\"");
            }
            out.push_str(&format!(
                ",\"args\":{{\"arg\":{},\"label\":\"{}\",\"span\":{},\"parent\":{}}}}}",
                e.arg,
                escape_json(e.label),
                e.span_id,
                e.parent_id,
            ));
            // Cross-place causality: if this drawn event's parent was drawn
            // at another place, emit a flow pair (id = the child span id)
            // linking sender → receiver. A parent absent from the drained
            // events entirely was overwritten in its ring — emitting the
            // finish half alone would draw an arrow from nowhere, so the
            // flow is dropped and counted instead.
            if e.parent_id != 0 {
                match drawn.get(&e.parent_id) {
                    Some(&(pplace, pts)) if pplace != e.place => {
                        out.push_str(&format!(
                            ",{{\"name\":\"{}\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":{},\
                             \"ts\":{:.3},\"pid\":0,\"tid\":{}}}",
                            e.kind.name(),
                            e.span_id,
                            pts as f64 / 1e3,
                            pplace
                        ));
                        out.push_str(&format!(
                            ",{{\"name\":\"{}\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\
                             \"id\":{},\"ts\":{:.3},\"pid\":0,\"tid\":{}}}",
                            e.kind.name(),
                            e.span_id,
                            ts as f64 / 1e3,
                            e.place
                        ));
                    }
                    Some(_) => {} // same-place nesting: no arrow to draw
                    None if !known.contains(&e.parent_id) => {
                        self.flow_dropped.fetch_add(1, Ordering::Relaxed);
                    }
                    None => {} // parent span still open (Begin retained): not lost
                }
            }
        }
        out.push_str("]}");
        out
    }
}

/// Count the cross-place flow pairs ([`"ph":"s"`] starts) a Chrome export
/// holds. `trace_smoke` uses this to assert a multi-place run's export links
/// sender spans to receiver spans.
pub fn count_flow_events(chrome_json: &str) -> usize {
    chrome_json.matches("\"ph\":\"s\"").count()
}

/// Prepare a trace export destination: create any missing parent
/// directories and probe writability, warning on stderr when the path
/// cannot be used. Returns whether an export to `path` can be expected to
/// succeed. Called at runtime startup so a bad `GML_TRACE_OUT` is
/// reported *before* the run, not after its data is already collected.
pub fn prepare_out_path(path: &std::path::Path) -> bool {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() && !parent.exists() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!(
                    "{}: cannot create parent directory {}: {e}; \
                     trace export will be skipped",
                    crate::env::TRACE_OUT,
                    parent.display()
                );
                return false;
            }
        }
    }
    // Probe writability without clobbering existing content; the export
    // itself rewrites the file from scratch.
    match std::fs::OpenOptions::new().append(true).create(true).open(path) {
        Ok(_) => true,
        Err(e) => {
            eprintln!(
                "{}: {} is not writable: {e}; trace export will be skipped",
                crate::env::TRACE_OUT,
                path.display()
            );
            false
        }
    }
}

/// Escape a string for embedding in a JSON string literal (the Chrome
/// trace's labels, the forensics bundles' strings).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// RAII span: emits the end event and feeds the kind's latency histogram on
/// drop. Obtained from [`Tracer::span`] / [`Tracer::span_labeled`]; inert
/// (and free) when tracing is off.
pub struct SpanGuard<'a> {
    tracer: Option<&'a Tracer>,
    place: u32,
    kind: SpanKind,
    label: u16,
    arg: u64,
    t0: u64,
    span_id: u64,
    parent_id: u64,
    /// The thread's previous innermost span, restored on drop.
    prev: u64,
}

impl SpanGuard<'_> {
    /// Update the span's argument (e.g. bytes moved, discovered mid-span).
    pub fn set_arg(&mut self, arg: u64) {
        self.arg = arg;
    }

    /// This span's process-unique id (0 when tracing is off). While the
    /// guard lives, this is also the thread's current span — the causal
    /// parent a [`TraceCtx::capture`] inside the span will carry.
    pub fn id(&self) -> u64 {
        self.span_id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(tr) = self.tracer {
            let t1 = tr.now_nanos();
            let dur = t1.saturating_sub(self.t0);
            tr.emit(
                self.place,
                Phase::End,
                self.kind,
                self.label,
                self.arg,
                t1,
                dur,
                self.span_id,
                self.parent_id,
            );
            tr.metrics.kind(self.kind).record(dur);
            CURRENT_SPAN.with(|c| c.set(self.prev));
        }
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON validation (no external JSON crate in this workspace).
// ---------------------------------------------------------------------------

/// Validate that `s` is a syntactically well-formed JSON document. Used by
/// the CI trace smoke test; intentionally strict and dependency-free.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    parse_value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing garbage at byte {i}"));
    }
    Ok(())
}

/// Validate a Chrome trace document and return how many events its
/// `traceEvents` array holds. Errors if the JSON is malformed, the key is
/// missing, or the array is empty.
pub fn validate_chrome_trace(s: &str) -> Result<usize, String> {
    validate_json(s)?;
    if !s.contains("\"traceEvents\"") {
        return Err("no traceEvents key".into());
    }
    // The document was just validated, so counting phase markers is an
    // accurate event count (every event object has exactly one "ph" key).
    let n = s.matches("\"ph\":").count();
    if n == 0 {
        return Err("traceEvents is empty".into());
    }
    Ok(n)
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn parse_value(b: &[u8], i: &mut usize) -> Result<(), String> {
    skip_ws(b, i);
    match b.get(*i) {
        Some(b'{') => parse_object(b, i),
        Some(b'[') => parse_array(b, i),
        Some(b'"') => parse_string(b, i),
        Some(b't') => parse_lit(b, i, b"true"),
        Some(b'f') => parse_lit(b, i, b"false"),
        Some(b'n') => parse_lit(b, i, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, i),
        Some(c) => Err(format!("unexpected byte {c:?} at {i:?}")),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_object(b: &[u8], i: &mut usize) -> Result<(), String> {
    *i += 1; // consume '{'
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        if b.get(*i) != Some(&b'"') {
            return Err(format!("expected object key at byte {i:?}"));
        }
        parse_string(b, i)?;
        skip_ws(b, i);
        if b.get(*i) != Some(&b':') {
            return Err(format!("expected ':' at byte {i:?}"));
        }
        *i += 1;
        parse_value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b'}') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {i:?}")),
        }
    }
}

fn parse_array(b: &[u8], i: &mut usize) -> Result<(), String> {
    *i += 1; // consume '['
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Ok(());
    }
    loop {
        parse_value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b']') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {i:?}")),
        }
    }
}

fn parse_lit(b: &[u8], i: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b[*i..].starts_with(lit) {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {i:?}"))
    }
}

fn parse_string(b: &[u8], i: &mut usize) -> Result<(), String> {
    *i += 1; // consume '"'
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => {
                *i += 2; // escape + escaped byte (unicode escapes advance below)
                if b.get(*i - 1) == Some(&b'u') {
                    *i += 4;
                }
            }
            _ => *i += 1,
        }
    }
    Err("unterminated string".into())
}

fn parse_number(b: &[u8], i: &mut usize) -> Result<(), String> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    while b.get(*i).is_some_and(|c| c.is_ascii_digit()) {
        *i += 1;
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        while b.get(*i).is_some_and(|c| c.is_ascii_digit()) {
            *i += 1;
        }
    }
    if matches!(b.get(*i), Some(b'e') | Some(b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+') | Some(b'-')) {
            *i += 1;
        }
        while b.get(*i).is_some_and(|c| c.is_ascii_digit()) {
            *i += 1;
        }
    }
    if *i == start || (*i == start + 1 && b[start] == b'-') {
        return Err(format!("bad number at byte {start}"));
    }
    Ok(())
}

// The per-iteration critical-path analyzer lives in its own file but is
// addressed as `trace::critical_path`, mirroring how it consumes this
// module's events.
#[path = "critical_path.rs"]
pub mod critical_path;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_basic_push_drain() {
        let r = EventRing::new(16);
        for k in 0..5u64 {
            r.push(k, 0, pack_meta(0, 0, SpanKind::Encode, Phase::Instant), k * 10, k + 1, 0);
        }
        let got = r.drain();
        assert_eq!(got.len(), 5);
        assert_eq!(got[0].0, 0);
        assert_eq!(got[4].3, 40);
        assert_eq!(got[4].4, 5, "span id survives the round trip");
        assert_eq!(r.dropped(), 0, "nothing wrapped yet");
    }

    #[test]
    fn ring_wraparound_keeps_newest() {
        let r = EventRing::new(16); // exact power of two
        assert_eq!(r.capacity(), 16);
        for k in 0..40u64 {
            r.push(k, 0, pack_meta(0, 0, SpanKind::At, Phase::Instant), k, 0, 0);
        }
        assert_eq!(r.pushed(), 40);
        assert_eq!(r.dropped(), 24, "wrap loss is counted, not silent");
        let got = r.drain();
        // The newest `capacity` events survive, oldest first.
        assert_eq!(got.len(), 16);
        assert_eq!(got.first().unwrap().0, 24);
        assert_eq!(got.last().unwrap().0, 39);
        // And they are contiguous.
        for (idx, e) in got.iter().enumerate() {
            assert_eq!(e.0, 24 + idx as u64);
        }
    }

    #[test]
    fn ring_capacity_rounds_up() {
        assert_eq!(EventRing::new(0).capacity(), 16);
        assert_eq!(EventRing::new(17).capacity(), 32);
    }

    #[test]
    fn ring_concurrent_writers_never_tear() {
        let r = Arc::new(EventRing::new(64));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for k in 0..1000u64 {
                    // Writer-tagged payload: arg == t_nanos == span_id lets
                    // the reader verify slot integrity across all words.
                    let v = t * 1_000_000 + k;
                    r.push(v, 0, pack_meta(t as u32, 0, SpanKind::At, Phase::Instant), v, v, v);
                }
            }));
        }
        for _ in 0..50 {
            for e in r.drain() {
                assert_eq!(e.0, e.3, "torn slot surfaced to a reader");
                assert_eq!(e.0, e.4, "torn span word surfaced to a reader");
                assert_eq!(e.0, e.5, "torn parent word surfaced to a reader");
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        for e in r.drain() {
            assert_eq!(e.0, e.3);
            assert_eq!(e.0, e.4);
        }
    }

    #[test]
    fn label_interning_round_trips() {
        let t = LabelTable::default();
        let a = t.intern("shrink");
        let b = t.intern("replace_redundant");
        assert_ne!(a, b);
        assert_eq!(t.intern("shrink"), a, "stable on re-intern");
        assert_eq!(t.get(a), "shrink");
        assert_eq!(t.get(b), "replace_redundant");
        assert_eq!(t.get(0), "");
        assert_eq!(t.intern(""), 0);
    }

    #[test]
    fn span_guard_emits_matched_pair_and_feeds_histogram() {
        let tr = Tracer::enabled(256);
        tr.ensure_place(2);
        {
            let _g = tr.span_labeled(1, SpanKind::Restore, "shrink", 7);
            std::thread::sleep(Duration::from_millis(1));
        }
        let ev = tr.events();
        let begins: Vec<_> = ev
            .iter()
            .filter(|e| e.kind == SpanKind::Restore && e.phase == Phase::Begin)
            .collect();
        let ends: Vec<_> = ev
            .iter()
            .filter(|e| e.kind == SpanKind::Restore && e.phase == Phase::End)
            .collect();
        assert_eq!(begins.len(), 1);
        assert_eq!(ends.len(), 1);
        assert_eq!(ends[0].label, "shrink");
        assert_eq!(ends[0].place, 1);
        assert_eq!(ends[0].arg, 7);
        assert!(ends[0].dur_nanos >= 1_000_000, "slept ≥ 1ms");
        assert_eq!(tr.metrics().kind(SpanKind::Restore).snapshot().count, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::disabled();
        tr.ensure_place(4);
        {
            let _g = tr.span(0, SpanKind::Step, 0);
        }
        tr.instant(0, SpanKind::KillPlace, 1);
        tr.complete(0, SpanKind::Encode, 10, Duration::from_micros(5));
        assert!(tr.events().is_empty());
        assert_eq!(tr.metrics().kind(SpanKind::Step).snapshot().count, 0);
    }

    #[test]
    fn chrome_json_is_valid_and_nonempty() {
        let tr = Tracer::enabled(256);
        tr.ensure_place(2);
        tr.instant(0, SpanKind::KillPlace, 1);
        {
            let _g = tr.span_labeled(1, SpanKind::Restore, "shrink_rebalance", 3);
        }
        tr.complete(0, SpanKind::Encode, 4096, Duration::from_micros(12));
        let json = tr.chrome_json();
        let n = validate_chrome_trace(&json).expect("valid chrome trace");
        // 1 instant + 2 X slices + 2 thread-name metadata events.
        assert_eq!(n, 5);
        assert!(json.contains("\"exec.restore\""));
        assert!(json.contains("shrink_rebalance"));
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        validate_json("{\"a\":[1,2.5,-3e4,\"x\\\"y\",true,null]}").unwrap();
        validate_json("[]").unwrap();
        assert!(validate_json("{\"a\":}").is_err());
        assert!(validate_json("[1,2").is_err());
        assert!(validate_json("{} extra").is_err());
        assert!(validate_json("{'a':1}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[]}").is_err());
        // The escaper's output is a valid string literal, control chars too
        // (quote, backslash, \n and \u0001 are pinned in gml-core's forensics).
        assert_eq!(escape_json("\r\t"), "\\r\\t");
        validate_json(&format!("\"{}\"", escape_json("q\"\\\n\r\t\u{1f}é"))).unwrap();
    }

    #[test]
    fn span_ids_are_unique_and_nest_as_parents() {
        let tr = Tracer::enabled(256);
        tr.ensure_place(1);
        let (outer_id, inner_id);
        {
            let outer = tr.span(0, SpanKind::Step, 1);
            outer_id = outer.id();
            assert_ne!(outer_id, 0);
            assert_eq!(current_span_id(), outer_id, "guard installs itself as current");
            {
                let inner = tr.span(0, SpanKind::Checkpoint, 2);
                inner_id = inner.id();
                assert_ne!(inner_id, outer_id);
                assert_eq!(current_span_id(), inner_id);
            }
            assert_eq!(current_span_id(), outer_id, "inner drop restores the parent");
        }
        assert_eq!(current_span_id(), 0, "outer drop restores the root");
        let ev = tr.events();
        let inner_end = ev
            .iter()
            .find(|e| e.kind == SpanKind::Checkpoint && e.phase == Phase::End)
            .unwrap();
        assert_eq!(inner_end.span_id, inner_id);
        assert_eq!(inner_end.parent_id, outer_id, "nesting is recorded as parentage");
        let outer_end =
            ev.iter().find(|e| e.kind == SpanKind::Step && e.phase == Phase::End).unwrap();
        assert_eq!(outer_end.parent_id, 0, "top-level span is a root");
    }

    #[test]
    fn trace_ctx_carries_parent_across_threads() {
        let tr = Arc::new(Tracer::enabled(256));
        tr.ensure_place(2);
        let ctx = {
            let _g = tr.span(0, SpanKind::At, 9);
            TraceCtx::capture(&tr, 0)
        };
        assert_ne!(ctx.parent, 0);
        // Simulate the receiving place's dispatcher thread adopting the
        // context before running the task body.
        let tr2 = Arc::clone(&tr);
        std::thread::spawn(move || {
            let _adopt = ctx.adopt();
            let _g = tr2.span(1, SpanKind::AtRemote, 0);
        })
        .join()
        .unwrap();
        let ev = tr.events();
        let remote =
            ev.iter().find(|e| e.kind == SpanKind::AtRemote && e.phase == Phase::End).unwrap();
        assert_eq!(remote.parent_id, ctx.parent, "receiver span parents on the sender span");
        assert_eq!(current_span_id(), 0, "adoption never leaks into other threads");
    }

    #[test]
    fn disabled_tracer_captures_no_context() {
        let tr = Tracer::disabled();
        let ctx = TraceCtx::capture(&tr, 3);
        assert_eq!(ctx, TraceCtx::NONE);
        let _adopt = ctx.adopt(); // must be inert
        assert_eq!(current_span_id(), 0);
    }

    #[test]
    fn chrome_json_links_cross_place_spans_with_flow_events() {
        let tr = Arc::new(Tracer::enabled(256));
        tr.ensure_place(2);
        let ctx = {
            let _g = tr.span(0, SpanKind::At, 0);
            TraceCtx::capture(&tr, 0)
        };
        let tr2 = Arc::clone(&tr);
        std::thread::spawn(move || {
            let _adopt = ctx.adopt();
            let _g = tr2.span(1, SpanKind::AtRemote, 0);
        })
        .join()
        .unwrap();
        let json = tr.chrome_json();
        validate_chrome_trace(&json).expect("flow-bearing export stays valid JSON");
        assert_eq!(count_flow_events(&json), 1, "one cross-place edge, one flow pair");
        assert!(json.contains("\"ph\":\"f\""), "flow finish present");
        assert!(json.contains("\"bp\":\"e\""), "flow binds to the enclosing slice");
        // Same-place nesting must NOT produce flows.
        let tr3 = Tracer::enabled(256);
        tr3.ensure_place(1);
        {
            let _a = tr3.span(0, SpanKind::Step, 0);
            let _b = tr3.span(0, SpanKind::Checkpoint, 0);
        }
        assert_eq!(count_flow_events(&tr3.chrome_json()), 0);
    }

    #[test]
    fn tracer_reports_per_place_drops() {
        let tr = Tracer::enabled(16);
        tr.ensure_place(2);
        for i in 0..40 {
            tr.instant(0, SpanKind::At, i);
        }
        tr.instant(1, SpanKind::At, 0);
        let dropped = tr.dropped();
        assert_eq!(dropped.len(), 2);
        assert_eq!(dropped[0], 24, "place 0 wrapped");
        assert_eq!(dropped[1], 0, "place 1 did not");
        assert_eq!(dropped.iter().sum::<u64>(), 24);
    }

    #[test]
    fn prepare_out_path_creates_parents_and_rejects_directories() {
        let base = std::env::temp_dir().join(format!(
            "gml_trace_out_test_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&base);
        let nested = base.join("a/b/c/trace.json");
        assert!(prepare_out_path(&nested), "missing parents should be created");
        assert!(nested.parent().unwrap().is_dir());
        // A directory at the target path is not a writable file.
        assert!(!prepare_out_path(&base.join("a/b")));
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn from_env_defaults_off() {
        // The test runner does not set the variable; tracing must then be
        // off (zero impact when unset).
        if std::env::var_os(crate::env::TRACE).is_none() {
            assert!(!crate::env::trace());
        }
    }
}
