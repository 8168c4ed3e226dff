//! The checkpoint codec plane: delta frames + lossless f64 compression,
//! sitting between *capture* and *ship* in the resilient store.
//!
//! Every snapshot entry the store would ship raw can instead be wrapped in a
//! self-describing **frame** of two parts: a *head* (fixed header + one chunk
//! digest per chunk of the payload) and a *body*.
//!
//! * **Delta frames** — the payload is split into fixed-size chunks and a
//!   per-chunk digest manifest ([`content_digest`], eight bytes per step) is
//!   compared against the digests carried by the last committed frame for
//!   the same key; only dirty chunks are stored/shipped. The manifest always
//!   covers the *full* new state, so the next epoch can diff against this
//!   frame's head without its body. Chains are bounded: a full base is
//!   re-emitted when the dirty ratio exceeds `GML_CKPT_DIRTY_MAX`, every
//!   `GML_CKPT_FULL_EVERY` epochs, and after every restore.
//! * **Lossless compression** (`GML_CKPT_LEVEL=1`) — a stored chunk is
//!   XOR-ed against its previous 64-bit word (Gorilla/fpzip idiom: iterative
//!   f64 state mutates low mantissa bits, so residuals are mostly zero
//!   bytes) and byte-plane transposed with u64 mask-and-shift rounds; each
//!   plane is run-length packed or copied, decided per plane from its zero
//!   bytes and zero runs (a mode byte per chunk records the choice). Only a
//!   chunk *proven* to shrink by [`PACK_MIN_SAVING`] is packed at all.
//! * **Verbatim frames** — a full frame in which nothing packs has no
//!   records: its body *is* the serialized payload, held by refcount, never
//!   copied into a frame buffer and handed back by refcount on restore.
//! * **Lossy quantization** (`GML_CKPT_LOSSY_TOL`, off by default) — f64
//!   payloads ([`PayloadClass::F64Tail`]) are rounded to a uniform grid of
//!   step `2·tol` *before* digesting, bounding the absolute restore error by
//!   `tol`. Opaque payloads (topology, integer indices, mixed metadata)
//!   reject quantization and stay bit-exact.
//!
//! **Decide, then emit.** Pass 1 reads each chunk once: its digest and, if a
//! delta would store it, the zero-byte / zero-run counts of its XOR
//! residuals — which planes pack and how many bytes that provably saves,
//! with no transpose and no store. The frame's form (delta / packed /
//! verbatim) is a pure function of those numbers. Pass 2 writes only the
//! records the form calls for, in chunk order, so a frame's bytes do not
//! depend on how many pool workers shared the passes.
//!
//! **What a frame guarantees.** Restore is bit-identical in the lossless
//! modes (exactly the quantized payload in the lossy one). The header
//! carries a digest of its own fields and of the manifest — a whole-payload
//! digest derived from the chunk digests, not a second pass — and decode
//! verifies it, then *every* chunk of the payload — stored, inherited from
//! the delta base, or lying in a verbatim body — against the manifest.
//! Truncation, a bit flipped anywhere in head or body, trailing bytes, a
//! missing base and a wrong base all surface as
//! [`GmlError::DataLoss`](crate::error::GmlError), never as silently wrong
//! data. The digest is error detection, not cryptography (see
//! [`apgas::digest`]).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use apgas::digest::content_digest;
use bytes::{BufMut, Bytes, BytesMut};
use apgas::monitor::{env_parsed, env_parsed_float};
use apgas::pool;
use apgas::serial::arena;

use crate::snapshot::Snapshot;

/// Frame magic: `"GLCK"` little-endian. A payload that does not start with
/// this is not a frame (raw entries never collide: the store tracks
/// framed-ness explicitly and never guesses from content).
const FRAME_MAGIC: u32 = 0x4b43_4c47;

/// Frame flag: the frame stores only dirty chunks against `ref_snap_id`.
const FLAG_DELTA: u8 = 1;
/// Frame flag: at least one stored chunk is RLE-compressed.
const FLAG_COMPRESSED: u8 = 2;
/// Frame flag: the payload was lossily quantized before digesting.
const FLAG_LOSSY: u8 = 4;
/// Frame flag: a full frame without records — the body is the payload.
const FLAG_VERBATIM: u8 = 8;

/// Fixed header bytes before the chunk-digest manifest: magic (u32), header
/// digest (u64), flags (u8), chain depth (u8), chunk size (u32), logical
/// length (u64), delta-base snapshot id (u64), chunk count (u32), stored
/// record count (u32).
const HEADER_FIXED: usize = 4 + 8 + 1 + 1 + 4 + 8 + 8 + 4 + 4;
/// The header digest covers everything from here to the end of the manifest.
const DIGEST_COVERS_FROM: usize = 4 + 8;
/// Per-stored-chunk record overhead: index (u32) + plane mask (u8) + len (u32).
const CHUNK_RECORD: usize = 4 + 1 + 4;
/// Fewest chunks worth a pool worker of their own (1 MiB at the default
/// chunk size).
const PAR_MIN_CHUNKS: usize = 256;
/// A chunk is packed only if pass 1 proves it shrinks by at least one part
/// in this many, and a frame packs at all only if its packed chunks together
/// save that share of everything it stores. Packing never pays in time here
/// (it runs at about the speed a saved byte ships, DESIGN.md §3.14): what it
/// buys is resident memory, two replicas per generation, and what it costs
/// besides CPU is the by-reference body. The recorded payloads save 0.3 %
/// and 12 % (dense numeric state) or 84 % (CSR indices), nothing in
/// between; a quarter sits in that gap.
const PACK_MIN_SAVING: usize = 4;

/// How the codec treats a snapshot payload for the *lossy* mode.
///
/// Returned by [`Snapshottable::payload_class`](crate::snapshot::Snapshottable::payload_class);
/// the default is [`Opaque`](PayloadClass::Opaque), which keeps every object
/// bit-exact unless it explicitly opts in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PayloadClass {
    /// Arbitrary bytes (topology, integer indices, mixed metadata).
    /// Quantization is rejected; the payload is always lossless.
    Opaque,
    /// The payload is `offset` header bytes followed by a packed `[f64]`
    /// tail (the layout of the `Serial` impls for `Vector` and
    /// `DenseMatrix`). Only such payloads may be quantized.
    F64Tail {
        /// Byte offset where the packed f64 run begins.
        offset: usize,
    },
}

/// Which frames the store emits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecMode {
    /// Bypass the codec plane entirely: entries are stored and shipped as
    /// the raw capture bytes (the pre-codec store behavior, and the
    /// reference leg of the checkpoint-parity drill).
    Raw,
    /// Frame every entry but never emit deltas (full base every epoch).
    /// Compression still applies per `level`.
    Full,
    /// Emit delta frames against the last committed/provisional snapshot
    /// when eligible, full bases otherwise.
    Delta,
}

/// Codec knobs, normally read from the `GML_CKPT_*` environment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CodecConfig {
    /// Frame emission mode (`GML_CKPT_CODEC` = `raw` | `full` | `delta`).
    pub mode: CodecMode,
    /// Compression level (`GML_CKPT_LEVEL`): 0 stores chunks raw, 1 applies
    /// XOR-residual byte-plane RLE.
    pub level: u8,
    /// Chunk size in bytes (`GML_CKPT_CHUNK`), the delta granularity;
    /// clamped to 64 ..= 16 MiB and rounded down to a multiple of 8.
    pub chunk: usize,
    /// Dirty-chunk ratio above which a delta degenerates to a full base
    /// (`GML_CKPT_DIRTY_MAX`).
    pub dirty_max: f64,
    /// Emit a full base at least every this many epochs per entry
    /// (`GML_CKPT_FULL_EVERY`); equivalently the maximum chain length.
    /// Clamped to 1 ..= 255, what the frame's `u8` chain depth can count.
    pub full_every: u32,
    /// Absolute-error bound for lossy quantization (`GML_CKPT_LOSSY_TOL`);
    /// `None` keeps every payload lossless.
    pub lossy_tol: Option<f64>,
}

impl CodecConfig {
    /// The codec disabled: raw passthrough (what bare
    /// [`ResilientStore::make`](crate::store::ResilientStore::make) uses).
    pub fn raw() -> Self {
        CodecConfig {
            mode: CodecMode::Raw,
            level: 0,
            chunk: 4096,
            dirty_max: 0.5,
            full_every: 16,
            lossy_tol: None,
        }
    }

    /// Read the `GML_CKPT_*` knobs; defaults to delta frames with
    /// compression on and lossy off. This is what
    /// [`AppResilientStore::make`](crate::app_store::AppResilientStore::make)
    /// uses, so the whole executor stack runs through the codec by default.
    pub fn from_env() -> Self {
        let mode = match env_parsed::<String>("GML_CKPT_CODEC", "delta".into()).as_str() {
            "raw" => CodecMode::Raw,
            "full" => CodecMode::Full,
            _ => CodecMode::Delta,
        };
        let level = env_parsed::<u64>("GML_CKPT_LEVEL", 1).min(1) as u8;
        let chunk = env_parsed::<usize>("GML_CKPT_CHUNK", 4096);
        let dirty_max = env_parsed_float("GML_CKPT_DIRTY_MAX", 0.5, 0.0, 1.0);
        let full_every = env_parsed::<u32>("GML_CKPT_FULL_EVERY", 16);
        let tol = env_parsed_float("GML_CKPT_LOSSY_TOL", 0.0, 0.0, f64::MAX);
        CodecConfig {
            mode,
            level,
            chunk,
            dirty_max,
            full_every,
            lossy_tol: (tol > 0.0).then_some(tol),
        }
        .clamped()
    }

    /// Bring the knobs into the ranges the frame format can hold: a chunk of
    /// 64 B ..= 16 MiB in whole 8-byte words (rounded down), and a chain of
    /// at most 255 frames (`chain_depth` is a `u8`). Applied to every
    /// config a store is built with, whether it came from the environment
    /// or from a caller.
    fn clamped(mut self) -> Self {
        self.chunk = self.chunk.clamp(64, 1 << 24) & !7;
        self.full_every = self.full_every.clamp(1, 255);
        self
    }

    /// Whether the codec plane is bypassed.
    pub fn is_raw(&self) -> bool {
        self.mode == CodecMode::Raw
    }

    /// One-line config stamp for bench metadata and skip-with-reason
    /// comparisons: `"delta"`, `"full"`, `"raw"`.
    pub fn mode_label(&self) -> &'static str {
        match self.mode {
            CodecMode::Raw => "raw",
            CodecMode::Full => "full",
            CodecMode::Delta => "delta",
        }
    }
}

/// Per-object capture context, set by `AppResilientStore::save` around
/// `make_snapshot` so every place's `save_batch` can see the delta base and
/// the payload class of the object being captured.
#[derive(Clone)]
pub(crate) struct CaptureCtx {
    /// The last committed/provisional snapshot of the object, if delta
    /// encoding against it is allowed (fully redundant, no forced full).
    pub ref_snap: Option<Snapshot>,
    /// The object's payload class (gates lossy quantization).
    pub class: PayloadClass,
}

/// Shared codec state hanging off a `ResilientStore` (one `Arc`, shared by
/// every clone of the store across places — places are threads here).
pub(crate) struct CodecState {
    /// The immutable knob set this store was built with.
    pub config: CodecConfig,
    /// The capture context of the object currently inside `make_snapshot`
    /// (captures are serialized by the app thread, so one slot suffices).
    pub capture: parking_lot::Mutex<Option<CaptureCtx>>,
    /// Set by any place that emitted a delta frame during the current
    /// capture; read + cleared by `AppResilientStore::save` to attach the
    /// chain to the built snapshot.
    pub used_delta: AtomicBool,
    /// Force full bases until the next successful commit (set after every
    /// restore: the surviving replicas may be rebuilding).
    pub force_full: AtomicBool,
}

impl CodecState {
    pub(crate) fn new(config: CodecConfig) -> Self {
        CodecState {
            config: config.clamped(),
            capture: parking_lot::Mutex::new(None),
            used_delta: AtomicBool::new(false),
            force_full: AtomicBool::new(false),
        }
    }
}

// ---------------------------------------------------------------------------
// Process-global codec counters (logical vs wire bytes, frame mix, time).
// ---------------------------------------------------------------------------

static LOGICAL_BYTES: AtomicU64 = AtomicU64::new(0);
static WIRE_BYTES: AtomicU64 = AtomicU64::new(0);
static FRAMES_FULL: AtomicU64 = AtomicU64::new(0);
static FRAMES_VERBATIM: AtomicU64 = AtomicU64::new(0);
static FRAMES_DELTA: AtomicU64 = AtomicU64::new(0);
static FRAMES_LOSSY: AtomicU64 = AtomicU64::new(0);
static ENCODE_NANOS: AtomicU64 = AtomicU64::new(0);
static DECODE_NANOS: AtomicU64 = AtomicU64::new(0);

/// A point-in-time view of the codec counters. Monotonic; subtract two with
/// [`since`](CodecSnapshot::since) for an interval, exactly like
/// `apgas::stats::StatsSnapshot`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CodecSnapshot {
    /// Pre-codec (logical) payload bytes encoded.
    pub logical_bytes: u64,
    /// Post-codec (wire) frame bytes produced.
    pub wire_bytes: u64,
    /// Full base frames emitted (verbatim ones included).
    pub frames_full: u64,
    /// Full frames emitted *verbatim*: nothing packed, so the payload was
    /// stored by reference instead of being copied into records.
    pub frames_verbatim: u64,
    /// Delta frames emitted.
    pub frames_delta: u64,
    /// Frames whose payload was lossily quantized.
    pub frames_lossy: u64,
    /// Nanoseconds place threads were busy encoding frames, summed over the
    /// places encoding concurrently — codec CPU time, which can exceed the
    /// wall time of the checkpoint it was spent in.
    pub encode_nanos: u64,
    /// Nanoseconds place threads were busy decoding frames (chain replay
    /// included), summed over places like `encode_nanos`.
    pub decode_nanos: u64,
}

impl CodecSnapshot {
    /// Counter-wise difference `self - earlier`.
    pub fn since(&self, earlier: &CodecSnapshot) -> CodecSnapshot {
        CodecSnapshot {
            logical_bytes: self.logical_bytes - earlier.logical_bytes,
            wire_bytes: self.wire_bytes - earlier.wire_bytes,
            frames_full: self.frames_full - earlier.frames_full,
            frames_verbatim: self.frames_verbatim - earlier.frames_verbatim,
            frames_delta: self.frames_delta - earlier.frames_delta,
            frames_lossy: self.frames_lossy - earlier.frames_lossy,
            encode_nanos: self.encode_nanos - earlier.encode_nanos,
            decode_nanos: self.decode_nanos - earlier.decode_nanos,
        }
    }

    /// Wire/logical ratio (1.0 when nothing was encoded yet).
    pub fn compression_ratio(&self) -> f64 {
        if self.logical_bytes == 0 {
            1.0
        } else {
            self.wire_bytes as f64 / self.logical_bytes as f64
        }
    }
}

/// Read the process-global codec counters.
pub fn counters() -> CodecSnapshot {
    CodecSnapshot {
        logical_bytes: LOGICAL_BYTES.load(Ordering::Relaxed),
        wire_bytes: WIRE_BYTES.load(Ordering::Relaxed),
        frames_full: FRAMES_FULL.load(Ordering::Relaxed),
        frames_verbatim: FRAMES_VERBATIM.load(Ordering::Relaxed),
        frames_delta: FRAMES_DELTA.load(Ordering::Relaxed),
        frames_lossy: FRAMES_LOSSY.load(Ordering::Relaxed),
        encode_nanos: ENCODE_NANOS.load(Ordering::Relaxed),
        decode_nanos: DECODE_NANOS.load(Ordering::Relaxed),
    }
}

/// Render the `gml_ckpt_*` Prometheus families (registered alongside the
/// `gml_store_*` gauges by `ResilientStore::register_monitor`).
pub fn render_codec(out: &mut String) {
    let c = counters();
    out.push_str("# TYPE gml_ckpt_logical_bytes_total counter\n");
    out.push_str(&format!("gml_ckpt_logical_bytes_total {}\n", c.logical_bytes));
    out.push_str("# TYPE gml_ckpt_wire_bytes_total counter\n");
    out.push_str(&format!("gml_ckpt_wire_bytes_total {}\n", c.wire_bytes));
    out.push_str("# TYPE gml_ckpt_frames_total counter\n");
    out.push_str(&format!("gml_ckpt_frames_total{{kind=\"full\"}} {}\n", c.frames_full));
    out.push_str(&format!("gml_ckpt_frames_total{{kind=\"verbatim\"}} {}\n", c.frames_verbatim));
    out.push_str(&format!("gml_ckpt_frames_total{{kind=\"delta\"}} {}\n", c.frames_delta));
    out.push_str(&format!("gml_ckpt_frames_total{{kind=\"lossy\"}} {}\n", c.frames_lossy));
    out.push_str("# TYPE gml_ckpt_encode_nanos_total counter\n");
    out.push_str(&format!("gml_ckpt_encode_nanos_total {}\n", c.encode_nanos));
    out.push_str("# TYPE gml_ckpt_decode_nanos_total counter\n");
    out.push_str(&format!("gml_ckpt_decode_nanos_total {}\n", c.decode_nanos));
    out.push_str("# TYPE gml_ckpt_compression_ratio gauge\n");
    out.push_str(&format!("gml_ckpt_compression_ratio {:.6}\n", c.compression_ratio()));
}

// ---------------------------------------------------------------------------
// Frame header
// ---------------------------------------------------------------------------

/// Parsed, digest-verified frame head (header + manifest) borrowing its
/// bytes.
pub(crate) struct FrameHeader<'a> {
    pub flags: u8,
    /// 0 for a full base, `base.depth + 1` for a delta.
    pub chain_depth: u8,
    pub chunk_size: usize,
    pub logical_len: u64,
    /// Snapshot id of the delta base (0 and unused for full frames).
    pub ref_snap_id: u64,
    /// Number of stored-chunk records in the body (0 for a verbatim frame).
    n_stored: usize,
    /// The chunk manifest: one LE `content_digest` per chunk of the full
    /// logical payload.
    manifest: &'a [u8],
}

impl FrameHeader<'_> {
    pub(crate) fn is_delta(&self) -> bool {
        self.flags & FLAG_DELTA != 0
    }

    fn is_verbatim(&self) -> bool {
        self.flags & FLAG_VERBATIM != 0
    }

    #[cfg(test)]
    pub(crate) fn is_lossy(&self) -> bool {
        self.flags & FLAG_LOSSY != 0
    }

    fn n_chunks(&self) -> usize {
        self.manifest.len() / 8
    }

    /// The manifest's digest of chunk `i`.
    fn digest(&self, i: usize) -> u64 {
        le_word(&self.manifest[i * 8..i * 8 + 8])
    }
}

fn le_word(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8-byte word"))
}

fn rd_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("4-byte field"))
}

/// Parse a frame head and verify its digest, which covers every header
/// field and the manifest; `Err` describes the corruption.
pub(crate) fn parse_header(head: &[u8]) -> Result<FrameHeader<'_>, String> {
    let fixed = head.get(..HEADER_FIXED).ok_or("frame truncated in header")?;
    let magic = rd_u32(fixed, 0);
    if magic != FRAME_MAGIC {
        return Err(format!("bad frame magic {magic:#x}"));
    }
    let chunk_size = rd_u32(fixed, 14) as usize;
    let logical_len = le_word(&fixed[18..26]);
    let n_chunks = rd_u32(fixed, 34) as usize;
    let n_stored = rd_u32(fixed, 38) as usize;
    if chunk_size == 0 {
        return Err("zero chunk size".into());
    }
    let expect = logical_len.div_ceil(chunk_size as u64);
    if n_chunks as u64 != expect {
        return Err(format!("chunk count {n_chunks} != expected {expect}"));
    }
    if n_stored > n_chunks {
        return Err(format!("stored chunk count {n_stored} > chunk count {n_chunks}"));
    }
    if head.len() != HEADER_FIXED + 8 * n_chunks {
        return Err("frame head is not header + digest manifest".into());
    }
    if content_digest(&head[DIGEST_COVERS_FROM..]) != le_word(&fixed[4..12]) {
        return Err("header digest mismatch".into());
    }
    Ok(FrameHeader {
        flags: fixed[12],
        chain_depth: fixed[13],
        chunk_size,
        logical_len,
        ref_snap_id: le_word(&fixed[26..34]),
        n_stored,
        manifest: &head[HEADER_FIXED..],
    })
}

// ---------------------------------------------------------------------------
// Chunk compression: XOR-vs-previous-word residuals, 8x8 byte-plane
// transpose, run-length packing of the planes that are mostly zero.
// ---------------------------------------------------------------------------

/// Transpose the 8x8 byte matrix held in eight words (row `r` is `x[r]`,
/// column `c` its byte `c`) with three rounds of masked block swaps — 2x2
/// blocks of bytes, then of byte pairs, then of byte quads. Its own inverse.
fn transpose8x8(x: &mut [u64; 8]) {
    for (shift, mask, pairs) in [
        (8, 0x00ff_00ff_00ff_00ffu64, [(0, 1), (2, 3), (4, 5), (6, 7)]),
        (16, 0x0000_ffff_0000_ffff, [(0, 2), (1, 3), (4, 6), (5, 7)]),
        (32, 0x0000_0000_ffff_ffff, [(0, 4), (1, 5), (2, 6), (3, 7)]),
    ] {
        for (a, b) in pairs {
            let t = ((x[a] >> shift) ^ x[b]) & mask;
            x[a] ^= t << shift;
            x[b] ^= t;
        }
    }
}

/// `0x80` in exactly the bytes of `w` that are zero (the sum cannot carry
/// from one byte into the next).
fn zero_bytes(w: u64) -> u64 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    !(((w & LOW7) + LOW7) | w | LOW7)
}

/// Length of the run of zero (`zeros`) or of non-zero bytes that `bytes`
/// starts with, scanned eight at a time.
fn run_len(bytes: &[u8], zeros: bool) -> usize {
    let mut words = bytes.chunks_exact(8);
    let mut n = 0;
    for w in &mut words {
        let w = le_word(w);
        // `0x80` in the bytes that end the run.
        let stop = if zeros { !zero_bytes(w) & 0x8080_8080_8080_8080 } else { zero_bytes(w) };
        if stop != 0 {
            return n + (stop.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    n + words.remainder().iter().take_while(|&&b| (b == 0) == zeros).count()
}

/// Run-length pack `plane` into `dst`, returning the bytes written. Token
/// space: `0x00..=0x7f` introduces a literal run of `t+1` bytes,
/// `0x80..=0xff` encodes a zero run of `t - 0x7f` (1..=128) bytes. A literal
/// run ends at any zero byte. `dst` must hold the result; `plane.len() * 3 / 2
/// + 1` bytes always do.
fn rle_pack(plane: &[u8], dst: &mut [u8]) -> usize {
    let (mut i, mut at) = (0, 0);
    while i < plane.len() {
        let zeros = run_len(&plane[i..], true);
        i += zeros;
        for z in (0..zeros).step_by(128) {
            dst[at] = 0x7f + (zeros - z).min(128) as u8;
            at += 1;
        }
        let rest = &plane[i..plane.len().min(i + 128)];
        let l = run_len(rest, false);
        if l > 0 {
            dst[at] = (l - 1) as u8;
            dst[at + 1..at + 1 + l].copy_from_slice(&rest[..l]);
            at += 1 + l;
            i += l;
        }
    }
    at
}

/// Inverse of [`rle_pack`]: consume tokens from `src` until `plane` is
/// exactly full; returns the bytes consumed.
fn rle_unpack(src: &[u8], plane: &mut [u8]) -> Result<usize, String> {
    let (mut at, mut i) = (0, 0);
    while i < plane.len() {
        let t = *src.get(at).ok_or("compressed chunk truncated at token")?;
        at += 1;
        let run = if t >= 0x80 { (t - 0x7f) as usize } else { t as usize + 1 };
        let dst = plane.get_mut(i..i + run).ok_or("compressed chunk overran plane boundary")?;
        if t >= 0x80 {
            dst.fill(0);
        } else {
            dst.copy_from_slice(
                src.get(at..at + run).ok_or("compressed chunk truncated in literal")?,
            );
            at += run;
        }
        i += run;
    }
    Ok(at)
}

/// Reusable buffers of [`pack_chunk`] / [`decompress_chunk`]: one per encode
/// part or decode call, small enough to stay cache-resident.
#[derive(Default)]
struct Scratch {
    /// The chunk's eight byte planes, each as long as the chunk's word count
    /// rounded up to whole transpose groups.
    planes: Vec<u8>,
    /// The compressed chunk before it is appended to the frame.
    packed: Vec<u8>,
}

/// Pass 1 on one chunk: which byte planes of its XOR residuals (each word
/// against its predecessor — iterative f64 state leaves sign, exponent and
/// high mantissa unchanged, so those residual bytes are zero) are worth
/// run-length packing, and how many bytes packing them is *proven* to save.
/// The zero bytes and zero runs of every plane are counted in the byte lanes
/// of one word; nothing is transposed or stored. Packed, a plane costs its
/// literals plus at most one token per zero run, one per literal run between
/// them, and one per 128-byte split, so it packs exactly when its zeros
/// outnumber that — a mantissa-noise plane never does — and the difference
/// is a lower bound of what [`pack_chunk`] then saves.
fn probe_chunk(chunk: &[u8]) -> (u8, usize) {
    /// Words per counting block: a byte lane holds their count without carry.
    const BLOCK_WORDS: usize = 248;
    let n_words = chunk.len() / 8;
    let (mut zeros, mut runs) = ([0usize; 8], [0usize; 8]);
    let (mut prev, mut prev_zero) = (0u64, 0u64);
    for block in chunk[..n_words * 8].chunks(8 * BLOCK_WORDS) {
        let (mut zero_lanes, mut run_lanes) = (0u64, 0u64);
        for w in block.chunks_exact(8) {
            let w = le_word(w);
            // Byte `p` of a residual belongs to plane `p`: 1 in the lanes
            // whose byte is zero, and in those where a run starts.
            let zero = zero_bytes(w ^ prev) >> 7;
            prev = w;
            zero_lanes += zero;
            run_lanes += zero & !prev_zero;
            prev_zero = zero;
        }
        for p in 0..8 {
            zeros[p] += (zero_lanes >> (8 * p)) as usize & 0xff;
            runs[p] += (run_lanes >> (8 * p)) as usize & 0xff;
        }
    }
    let (mut mask, mut saving) = (0u8, 0);
    for p in 0..8 {
        let tokens = 2 * runs[p] + 1 + n_words / 128;
        if zeros[p] > tokens {
            mask |= 1 << p;
            saving += zeros[p] - tokens;
        }
    }
    (mask, saving)
}

/// Pass 2 on one chunk that [`probe_chunk`] found worth it: XOR residuals
/// transposed into eight byte planes, the planes of `mask` run-length
/// packed, the others copied, the 1–7 byte tail verbatim. Returns the
/// compressed bytes (in `scratch.packed`), shorter than the chunk by at
/// least the probe's saving.
fn pack_chunk<'a>(chunk: &[u8], mask: u8, scratch: &'a mut Scratch) -> &'a [u8] {
    let n_words = chunk.len() / 8;
    let (body, tail) = chunk.split_at(n_words * 8);
    let stride = n_words.next_multiple_of(8);
    let Scratch { planes, packed: dst } = scratch;
    planes.resize(8 * stride, 0);
    dst.resize(chunk.len(), 0);
    let mut prev = 0u64;
    for (g, group) in body.chunks(64).enumerate() {
        // A short last group leaves zero residuals: padding, never emitted.
        let mut x = [0u64; 8];
        for (r, w) in x.iter_mut().zip(group.chunks_exact(8)) {
            let w = le_word(w);
            *r = w ^ prev;
            prev = w;
        }
        transpose8x8(&mut x);
        for (p, row) in x.iter().enumerate() {
            planes[p * stride + g * 8..][..8].copy_from_slice(&row.to_le_bytes());
        }
    }
    let mut at = 0;
    for p in 0..8 {
        let plane = &planes[p * stride..p * stride + n_words];
        if mask >> p & 1 == 1 {
            at += rle_pack(plane, &mut dst[at..]);
        } else {
            dst[at..at + n_words].copy_from_slice(plane);
            at += n_words;
        }
    }
    dst[at..at + tail.len()].copy_from_slice(tail);
    &dst[..at + tail.len()]
}

/// Decompress one stored chunk into `out` (its exact logical extent).
/// `mask == 0` is a raw chunk; otherwise bit `p` says plane `p` is packed.
fn decompress_chunk(
    mask: u8,
    data: &[u8],
    out: &mut [u8],
    scratch: &mut Scratch,
) -> Result<(), String> {
    if mask == 0 {
        if data.len() != out.len() {
            return Err(format!("raw chunk len {} != logical {}", data.len(), out.len()));
        }
        out.copy_from_slice(data);
        return Ok(());
    }
    let n_words = out.len() / 8;
    let stride = n_words.next_multiple_of(8);
    let planes = &mut scratch.planes;
    planes.resize(8 * stride, 0);
    let mut at = 0;
    for p in 0..8 {
        let plane = &mut planes[p * stride..p * stride + n_words];
        if mask >> p & 1 == 1 {
            at += rle_unpack(&data[at..], plane)?;
        } else {
            plane.copy_from_slice(
                data.get(at..at + n_words).ok_or("compressed chunk truncated in raw plane")?,
            );
            at += n_words;
        }
    }
    let (body, tail) = out.split_at_mut(n_words * 8);
    if data.len() - at != tail.len() {
        return Err("compressed chunk tail length mismatch".into());
    }
    tail.copy_from_slice(&data[at..]);
    let mut prev = 0u64;
    for (g, group) in body.chunks_mut(64).enumerate() {
        let mut x = [0u64; 8];
        for (p, row) in x.iter_mut().enumerate() {
            *row = le_word(&planes[p * stride + g * 8..][..8]);
        }
        transpose8x8(&mut x);
        for (r, w) in x.iter().zip(group.chunks_exact_mut(8)) {
            prev ^= r;
            w.copy_from_slice(&prev.to_le_bytes());
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Frame encode / decode
// ---------------------------------------------------------------------------

/// The result of encoding one entry: the two parts of its frame.
pub(crate) struct EncodeOutcome {
    /// Header + digest manifest — all the next epoch's delta needs.
    pub head: Bytes,
    /// The record stream, or — verbatim — the payload itself, by refcount.
    pub body: Bytes,
    /// Whether a delta frame was emitted (the caller must then record the
    /// chain on the snapshot).
    pub delta: bool,
}

/// What pass 1 learned about one chunk.
#[derive(Clone, Copy, Default)]
struct Probe {
    digest: u64,
    /// [`probe_chunk`]'s verdict; zero for a chunk that equals the delta
    /// base's (it is not probed) and at level 0.
    mask: u8,
    saving: usize,
}

/// Encode one logical payload into a frame. `ref_head` is the head of the
/// candidate delta base (same key, same owner/backup, locally present);
/// `lossy` marks that `payload` was already quantized. Placement eligibility
/// is the caller's job; this function additionally requires matching
/// geometry and a bounded chain before emitting a delta.
pub(crate) fn encode_entry(
    cfg: &CodecConfig,
    payload: &Bytes,
    ref_head: Option<&[u8]>,
    ref_snap_id: u64,
    lossy: bool,
) -> EncodeOutcome {
    // Fan out over contiguous chunk ranges when there is enough to probe.
    let n_parts = match payload.len() / cfg.chunk / PAR_MIN_CHUNKS {
        wide if wide >= 2 && cfg.level >= 1 => pool::workers().min(wide),
        _ => 1,
    };
    encode_in_parts(cfg, payload, ref_head, ref_snap_id, lossy, n_parts)
}

/// [`encode_entry`] over `n_parts` contiguous chunk ranges; the frame does
/// not depend on `n_parts`.
fn encode_in_parts(
    cfg: &CodecConfig,
    payload: &Bytes,
    ref_head: Option<&[u8]>,
    ref_snap_id: u64,
    lossy: bool,
    n_parts: usize,
) -> EncodeOutcome {
    let t0 = Instant::now();
    let n_chunks = payload.len().div_ceil(cfg.chunk);
    // Delta eligibility: a parseable base with identical geometry and a
    // bounded chain. The dirty ratio is judged once the chunks are read.
    let base = ref_head
        .filter(|_| cfg.mode == CodecMode::Delta && n_chunks > 0)
        .and_then(|rh| parse_header(rh).ok())
        .filter(|h| {
            u32::from(h.chain_depth) + 1 < cfg.full_every.min(256)
                && h.logical_len == payload.len() as u64
                && h.chunk_size == cfg.chunk
        });
    let chunk = |ci: usize| &payload[ci * cfg.chunk..payload.len().min((ci + 1) * cfg.chunk)];
    let dirty = |ci: usize, p: &Probe| base.as_ref().is_none_or(|b| b.digest(ci) != p.digest);
    let part = |i: usize| pool::chunk_range(n_chunks, n_parts, i);

    // Pass 1 reads every chunk once: its digest and, for a chunk a delta
    // would store, what packing it would save.
    let mut probes = vec![Probe::default(); n_chunks];
    pool::run_split(&mut probes, n_parts, part, |i, probes| {
        for (ci, p) in part(i).zip(probes) {
            p.digest = content_digest(chunk(ci));
            if cfg.level >= 1 && dirty(ci, p) {
                (p.mask, p.saving) = probe_chunk(chunk(ci));
            }
        }
    });

    // The frame's form, from pass 1 alone. Delta: few enough chunks differ
    // from the base. A chunk packs if that saves its share of the chunk, the
    // frame packs at all if that saves its share of what the frame stores.
    let n_dirty = probes.iter().enumerate().filter(|(ci, p)| dirty(*ci, p)).count();
    let is_delta = base.is_some() && n_dirty as f64 <= cfg.dirty_max * n_chunks as f64;
    let stored = |ci: usize| !is_delta || dirty(ci, &probes[ci]);
    let packable = |ci: usize| probes[ci].saving * PACK_MIN_SAVING >= chunk(ci).len();
    // The stored chunks of `range`: how many, their bytes, and how many of
    // those bytes packing the packable ones is proven to save.
    let tally = |range: std::ops::Range<usize>| {
        range.filter(|&ci| stored(ci)).fold((0, 0, 0), |(n, bytes, saved), ci| {
            let saving = if packable(ci) { probes[ci].saving } else { 0 };
            (n + 1, bytes + chunk(ci).len(), saved + saving)
        })
    };
    let (n_stored, bytes, saved) = tally(0..n_chunks);
    let pack = saved > 0 && saved * PACK_MIN_SAVING >= bytes;
    let verbatim = !is_delta && !pack;

    // Pass 2 writes what the form calls for: nothing for a verbatim frame —
    // the payload itself, by refcount, is the body — else one record per
    // stored chunk, in chunk order, each part into its own buffer.
    let body = if verbatim {
        payload.clone()
    } else {
        let mut outs: Vec<BytesMut> = (0..n_parts).map(|_| BytesMut::new()).collect();
        pool::run_split(&mut outs, n_parts, |i| i..i + 1, |i, out| {
            // Part 0's buffer becomes the body: it has room for the others.
            let (n, bytes, saved) = if i == 0 { (n_stored, bytes, saved) } else { tally(part(i)) };
            // `with_capacity` draws from the serial arena.
            let mut buf =
                BytesMut::with_capacity(n * CHUNK_RECORD + bytes - if pack { saved } else { 0 });
            let mut scratch = Scratch::default();
            for ci in part(i).filter(|&ci| stored(ci)) {
                let (mask, data) = if pack && packable(ci) {
                    (probes[ci].mask, pack_chunk(chunk(ci), probes[ci].mask, &mut scratch))
                } else {
                    (0, chunk(ci))
                };
                buf.put_u32_le(ci as u32);
                buf.put_u8(mask);
                buf.put_u32_le(data.len() as u32);
                buf.put_slice(data);
            }
            out[0] = buf;
        });
        let mut outs = outs.into_iter();
        let mut body = outs.next().expect("at least one part");
        outs.for_each(|out| body.put_slice(&out));
        // The arena may have lent a far bigger buffer than asked for: keep
        // the records, hand the buffer back.
        if body.len() < body.capacity() / 2 {
            Bytes::from(body.to_vec())
        } else {
            body.freeze()
        }
    };

    let flag = |on: bool, bit: u8| if on { bit } else { 0 };
    let flags = flag(is_delta, FLAG_DELTA)
        | flag(pack, FLAG_COMPRESSED)
        | flag(lossy, FLAG_LOSSY)
        | flag(verbatim, FLAG_VERBATIM);
    let depth = base.as_ref().filter(|_| is_delta).map_or(0, |h| h.chain_depth + 1);
    // A plain `Vec`, not an arena buffer: the head outlives the epoch as the
    // next delta's base and must not pin a payload-sized allocation.
    let mut head = Vec::with_capacity(HEADER_FIXED + 8 * n_chunks);
    head.put_u32_le(FRAME_MAGIC);
    head.put_u64_le(0); // header digest, below
    head.put_u8(flags);
    head.put_u8(depth);
    head.put_u32_le(cfg.chunk as u32);
    head.put_u64_le(payload.len() as u64);
    head.put_u64_le(if is_delta { ref_snap_id } else { 0 });
    head.put_u32_le(n_chunks as u32);
    head.put_u32_le(if verbatim { 0 } else { n_stored as u32 });
    probes.iter().for_each(|p| head.put_u64_le(p.digest));
    let header_digest = content_digest(&head[DIGEST_COVERS_FROM..]);
    head[4..12].copy_from_slice(&header_digest.to_le_bytes());

    LOGICAL_BYTES.fetch_add(payload.len() as u64, Ordering::Relaxed);
    WIRE_BYTES.fetch_add((head.len() + body.len()) as u64, Ordering::Relaxed);
    let kind = if is_delta { &FRAMES_DELTA } else { &FRAMES_FULL };
    kind.fetch_add(1, Ordering::Relaxed);
    FRAMES_VERBATIM.fetch_add(u64::from(verbatim), Ordering::Relaxed);
    FRAMES_LOSSY.fetch_add(u64::from(lossy), Ordering::Relaxed);
    ENCODE_NANOS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    EncodeOutcome { head: Bytes::from(head), body, delta: is_delta }
}

/// A decoded logical payload: the very buffer a verbatim frame (or the raw
/// store) holds, shared by refcount, or one built by this decode.
pub(crate) enum Payload {
    Shared(Bytes),
    Built(BytesMut),
}

impl Payload {
    pub(crate) fn freeze(self) -> Bytes {
        match self {
            Payload::Shared(b) => b,
            Payload::Built(m) => m.freeze(),
        }
    }

    /// A buffer a delta may patch: a shared payload is copied, once.
    fn into_mut(self) -> BytesMut {
        match self {
            Payload::Shared(b) => {
                let mut copy = BytesMut::with_capacity(b.len());
                copy.extend_from_slice(&b);
                copy
            }
            Payload::Built(m) => m,
        }
    }
}

/// Decode one frame back into its full logical payload. `base` is the
/// *decoded* logical payload of the delta base (required iff the frame is a
/// delta); it is patched in place and returned. After the header digest
/// (checked by [`parse_header`]) every chunk of the result — stored,
/// inherited, or lying in a verbatim body, which is then handed back by
/// refcount — is verified against the manifest: a truncated or flipped
/// frame, a missing base and a wrong base are corruption, never data.
pub(crate) fn decode_frame(
    head: &[u8],
    body: &Bytes,
    base: Option<Payload>,
) -> Result<Payload, String> {
    let t0 = Instant::now();
    let h = parse_header(head)?;
    let n = h.logical_len as usize;
    let verify = |ci: usize, chunk: &[u8]| {
        if content_digest(chunk) == h.digest(ci) {
            Ok(())
        } else {
            Err(format!("chunk {ci} does not match the manifest"))
        }
    };
    let extent = |ci: usize| ci * h.chunk_size..n.min((ci + 1) * h.chunk_size);
    let payload = if h.is_verbatim() {
        if h.is_delta() || h.n_stored != 0 {
            return Err("verbatim frame claims a base or records".into());
        }
        if body.len() != n {
            return Err(format!("verbatim body len {} != logical len {n}", body.len()));
        }
        (0..h.n_chunks()).try_for_each(|ci| verify(ci, &body[extent(ci)]))?;
        Payload::Shared(body.clone())
    } else {
        if !h.is_delta() && h.n_stored != h.n_chunks() {
            return Err(format!("full frame stores {} of {} chunks", h.n_stored, h.n_chunks()));
        }
        let mut out = match (h.is_delta(), base.map(Payload::into_mut)) {
            (true, None) => return Err("delta frame decoded without its base".into()),
            (true, Some(b)) if b.len() != n => {
                return Err(format!("delta base len {} != logical len {n}", b.len()));
            }
            (true, Some(b)) => b,
            (false, _) => {
                let mut b = BytesMut::with_capacity(n);
                b.resize(n, 0);
                b
            }
        };
        let mut stored = vec![false; h.n_chunks()];
        let mut scratch = Scratch::default();
        let mut records = &body[..];
        for _ in 0..h.n_stored {
            let (rec, rest) =
                records.split_at_checked(CHUNK_RECORD).ok_or("frame truncated at chunk record")?;
            let (ci, mask, len) = (rd_u32(rec, 0) as usize, rec[4], rd_u32(rec, 5) as usize);
            let (data, rest) = rest.split_at_checked(len).ok_or("frame truncated in chunk data")?;
            records = rest;
            if stored.get(ci) != Some(&false) {
                return Err(format!("chunk index {ci} out of range or repeated"));
            }
            stored[ci] = true;
            let dst = &mut out[extent(ci)];
            decompress_chunk(mask, data, dst, &mut scratch)?;
            verify(ci, dst)?;
        }
        if !records.is_empty() {
            return Err("trailing garbage after frame".into());
        }
        // What a delta did not store it inherited from its base.
        for ci in (0..stored.len()).filter(|&ci| !stored[ci]) {
            verify(ci, &out[extent(ci)])?;
        }
        Payload::Built(out)
    };
    DECODE_NANOS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    Ok(payload)
}

/// Quantize an f64-tail payload to a uniform grid of step `2·tol` (absolute
/// restore error ≤ `tol`). Returns `None` — leave the payload lossless —
/// when the class is opaque, the tail is misaligned, or `tol` is not
/// positive. Non-finite values pass through unchanged.
pub(crate) fn quantize_payload(payload: &Bytes, class: PayloadClass, tol: f64) -> Option<Bytes> {
    let PayloadClass::F64Tail { offset } = class else {
        return None;
    };
    // `tol <= 0.0` also rejects NaN tolerances (NaN fails every comparison).
    if tol <= 0.0 || tol.is_nan() || payload.len() < offset {
        return None;
    }
    if !(payload.len() - offset).is_multiple_of(8) {
        return None;
    }
    let step = 2.0 * tol;
    let out = arena::encode_with(payload.len(), |buf| {
        buf.extend_from_slice(&payload[..offset]);
        for w in payload[offset..].chunks_exact(8) {
            let v = f64::from_le_bytes(w.try_into().expect("8-byte f64"));
            let q = if v.is_finite() { (v / step).round() * step } else { v };
            buf.put_f64_le(q);
        }
    });
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Encode a borrowed payload, optionally against `base` as snapshot `id`.
    fn encode(
        cfg: &CodecConfig,
        payload: &[u8],
        base: Option<&EncodeOutcome>,
        id: u64,
    ) -> EncodeOutcome {
        encode_entry(cfg, &Bytes::copy_from_slice(payload), base.map(|b| &b.head[..]), id, false)
    }

    /// `decode_frame` on borrowed parts, against a borrowed base payload.
    fn decode_parts(head: &[u8], body: &[u8], base: Option<&[u8]>) -> Result<Bytes, String> {
        let base = base.map(|b| Payload::Shared(Bytes::copy_from_slice(b)));
        decode_frame(head, &Bytes::copy_from_slice(body), base).map(Payload::freeze)
    }

    fn decode(frame: &EncodeOutcome, base: Option<&[u8]>) -> Result<Bytes, String> {
        decode_parts(&frame.head, &frame.body, base)
    }

    fn flags(frame: &EncodeOutcome) -> u8 {
        parse_header(&frame.head).unwrap().flags
    }

    fn is_verbatim(frame: &EncodeOutcome) -> bool {
        flags(frame) & FLAG_VERBATIM != 0
    }

    fn roundtrip_full(cfg: &CodecConfig, payload: &[u8]) -> Bytes {
        let out = encode(cfg, payload, None, 0);
        assert!(!out.delta);
        decode(&out, None).expect("full frame decodes")
    }

    fn cfg_delta() -> CodecConfig {
        CodecConfig { mode: CodecMode::Delta, level: 1, ..CodecConfig::raw() }
    }

    fn f64_payload(values: &[f64]) -> Vec<u8> {
        let mut v = (values.len() as u64).to_le_bytes().to_vec();
        for x in values {
            v.extend_from_slice(&x.to_le_bytes());
        }
        v
    }

    /// xorshift64 stream for the fixed-seed guard payloads.
    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    fn noise_bytes(len: usize, seed: &mut u64) -> Vec<u8> {
        (0..len).map(|_| (xorshift(seed) >> 32) as u8).collect()
    }

    /// f64s stepping by 1e-9 from 1.0: five quiet byte planes out of eight.
    fn ramp_bytes(values: usize) -> Vec<u8> {
        (0..values).flat_map(|i| (1.0 + i as f64 * 1e-9).to_le_bytes()).collect()
    }

    /// The three fixed-seed payloads of the wire-size guard: a ramp, noise
    /// in [0, 1) and CSR index arrays.
    fn guard_payloads() -> [Vec<u8>; 3] {
        let ramp: Vec<f64> = (0..8192).map(|i| 1.0 + i as f64 * 1e-9).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let noise: Vec<f64> =
            (0..8192).map(|_| xorshift(&mut x) as f64 / u64::MAX as f64).collect();
        // CSR index arrays: 1024 row pointers 10 apart, then 10 ascending
        // column indices below 400 per row.
        let mut csr: Vec<u8> = Vec::new();
        for r in 0..=1024u64 {
            csr.extend_from_slice(&(r * 10).to_le_bytes());
        }
        for _ in 0..1024 {
            let mut cols: Vec<u64> = (0..10).map(|_| xorshift(&mut x) % 400).collect();
            cols.sort_unstable();
            for c in cols {
                csr.extend_from_slice(&c.to_le_bytes());
            }
        }
        [f64_payload(&ramp), f64_payload(&noise), csr]
    }

    #[test]
    fn frames_are_no_larger_than_the_byte_serial_encoder_made_them() {
        // Frame sizes of the encoder this one replaced (RLE on all eight
        // planes or none), recorded before it was deleted.
        const BEFORE: [usize; 3] = [32_095, 58_499, 18_486];
        let [ramp, noise, csr] = guard_payloads();
        for (payload, before) in [(&ramp, BEFORE[0]), (&csr, BEFORE[2])] {
            let out = encode(&cfg_delta(), payload, None, 0);
            let wire = out.head.len() + out.body.len();
            assert!(wire <= before && !is_verbatim(&out), "{wire} > {before}");
            assert_eq!(&decode(&out, None).unwrap()[..], &payload[..]);
        }
        // Noise in [0, 1): sign and exponent bytes used to pack it down to
        // 58 499 bytes, 11 % off. Short of a quarter, it is now kept
        // verbatim: its own bytes plus a head of 42 + 8 per chunk.
        let out = encode(&cfg_delta(), &noise, None, 0);
        assert!(is_verbatim(&out));
        assert_eq!(out.body.len(), noise.len());
        assert_eq!(out.head.len(), HEADER_FIXED + 8 * noise.len().div_ceil(4096));
        assert_eq!(out.head.len() + out.body.len(), 65_544 + 178);
        assert_eq!(&decode(&out, None).unwrap()[..], &noise[..]);
    }

    #[test]
    fn the_provable_saving_is_a_lower_bound_of_the_real_one() {
        let mut scratch = Scratch::default();
        let mut packed_chunks = 0;
        for payload in guard_payloads() {
            for chunk_size in [64, 1000, 4096] {
                for chunk in payload.chunks(chunk_size) {
                    let (mask, saving) = probe_chunk(chunk);
                    assert_eq!(mask == 0, saving == 0);
                    let packed = pack_chunk(chunk, mask, &mut scratch).len();
                    assert!(packed + saving <= chunk.len(), "{packed} + {saving}");
                    packed_chunks += usize::from(mask != 0);
                }
            }
        }
        assert!(packed_chunks > 100, "the guard payloads exercise the bound");
    }

    #[test]
    fn transpose_matches_the_naive_double_loop() {
        let mut seed = 0x0123_4567_89ab_cdefu64;
        for _ in 0..200 {
            let rows: [u64; 8] = std::array::from_fn(|_| xorshift(&mut seed));
            let mut naive = [0u64; 8];
            for (r, row) in rows.iter().enumerate() {
                for (c, col) in naive.iter_mut().enumerate() {
                    *col |= (row >> (8 * c) & 0xff) << (8 * r);
                }
            }
            let mut fast = rows;
            transpose8x8(&mut fast);
            assert_eq!(fast, naive);
            transpose8x8(&mut fast);
            assert_eq!(fast, rows, "its own inverse");
        }
    }

    #[test]
    fn rle_roundtrips_runs_of_every_shape() {
        let mut seed = 0xdead_beef_0bad_f00du64;
        for len in [0usize, 1, 7, 8, 9, 127, 128, 129, 300, 512, 1000] {
            for zero_share in [0u64, 1, 4, 7, 8] {
                // Zeros and literals arrive in bursts of random length.
                let mut plane = Vec::with_capacity(len);
                while plane.len() < len {
                    let burst = (xorshift(&mut seed) % 40 + 1) as usize;
                    let zero = xorshift(&mut seed) % 8 < zero_share;
                    for _ in 0..burst.min(len - plane.len()) {
                        plane.push(if zero { 0 } else { (xorshift(&mut seed) % 255 + 1) as u8 });
                    }
                }
                let mut packed = vec![0u8; len * 3 / 2 + 1];
                let n = rle_pack(&plane, &mut packed);
                let mut back = vec![0xaau8; len];
                assert_eq!(rle_unpack(&packed[..n], &mut back), Ok(n));
                assert_eq!(back, plane, "len {len} zero share {zero_share}/8");
                if n > 0 {
                    assert!(rle_unpack(&packed[..n - 1], &mut back).is_err(), "truncated");
                }
            }
        }
    }

    #[test]
    fn noise_planes_are_copied_and_quiet_planes_packed() {
        // Smooth values with random low mantissas: the top planes of the
        // residuals are zero, the bottom ones noise.
        let mut seed = 0x5eed_5eed_5eed_5eedu64;
        let chunk: Vec<u8> = (0..512)
            .flat_map(|_| (1.0f64.to_bits() | xorshift(&mut seed) >> 40).to_le_bytes())
            .collect();
        let mut scratch = Scratch::default();
        let (mask, saving) = probe_chunk(&chunk);
        assert_eq!(mask, 0b1111_1000, "planes 0-2 carry the noise, 3-7 are quiet");
        assert!(saving > chunk.len() / 2);
        let packed = pack_chunk(&chunk, mask, &mut scratch).to_vec();
        assert!(packed.len() <= chunk.len() - saving);
        let mut back = vec![0u8; chunk.len()];
        decompress_chunk(mask, &packed, &mut back, &mut scratch).unwrap();
        assert_eq!(back, chunk);
        // All noise: no plane is worth packing, nothing is proven saved.
        assert_eq!(probe_chunk(&noise_bytes(4096, &mut seed)), (0, 0));
    }

    #[test]
    fn too_dirty_delta_becomes_a_full_frame_identical_for_any_part_count() {
        let cfg = CodecConfig { chunk: 64, dirty_max: 0.25, ..cfg_delta() };
        let mut seed = 0x1357_9bdf_0246_8aceu64;
        // Three chunks of four are zeros and pack, so the frames keep
        // records; the fourth is noise; a 13-byte tail.
        let mut base: Vec<u8> = Vec::new();
        for c in 0..40 {
            base.extend(if c % 4 == 3 { noise_bytes(64, &mut seed) } else { vec![0; 64] });
        }
        base.extend(noise_bytes(13, &mut seed));
        let base_frame = encode(&cfg, &base, None, 0);
        assert!(flags(&base_frame) & FLAG_COMPRESSED != 0);
        for dirty_chunks in [3usize, 30] {
            let mut next = base.clone();
            for c in 0..dirty_chunks {
                next[c * 64 + 5] ^= 0x10;
            }
            let next = Bytes::from(next);
            let head = Some(&base_frame.head[..]);
            let one = encode_in_parts(&cfg, &next, head, 9, false, 1);
            assert_eq!(one.delta, dirty_chunks == 3);
            assert!(flags(&one) & FLAG_COMPRESSED != 0, "records, packed ones among them");
            for n_parts in [2, 3, 7] {
                let many = encode_in_parts(&cfg, &next, head, 9, false, n_parts);
                assert_eq!(many.delta, one.delta);
                assert_eq!((&many.head, &many.body), (&one.head, &one.body), "{n_parts} parts");
            }
            let got = decode(&one, one.delta.then_some(&base[..])).unwrap();
            assert_eq!(&got[..], &next[..]);
        }
    }

    #[test]
    fn a_payload_wide_enough_to_fan_out_encodes_to_the_same_frame() {
        // 3 MiB: two pool-sized ranges wherever the pool has two workers.
        let values: Vec<f64> = (0..3 << 17).map(|i| (i as f64).sqrt()).collect();
        let payload = Bytes::from(f64_payload(&values));
        let fanned = encode_entry(&cfg_delta(), &payload, None, 0, false);
        let serial = encode_in_parts(&cfg_delta(), &payload, None, 0, false, 1);
        assert_eq!((&fanned.head, &fanned.body), (&serial.head, &serial.body));
        assert_eq!(&decode(&fanned, None).unwrap()[..], &payload[..]);
    }

    #[test]
    fn a_verbatim_body_is_the_payload_itself_going_in_and_coming_out() {
        let mut seed = 0x0f1e_2d3c_4b5a_6978u64;
        let payload = Bytes::from(noise_bytes(10_000, &mut seed));
        for level in [0, 1] {
            let out = encode_entry(
                &CodecConfig { level, ..cfg_delta() },
                &payload,
                None,
                0,
                false,
            );
            assert!(is_verbatim(&out) && !out.delta);
            assert_eq!(out.body.as_ptr(), payload.as_ptr(), "stored by reference");
            let Payload::Shared(back) = decode_frame(&out.head, &out.body, None).unwrap() else {
                panic!("a verbatim frame decodes to its own body");
            };
            assert_eq!(back.as_ptr(), payload.as_ptr(), "and handed back by reference");
        }
        // Level 0 never packs, whatever the payload; level 1 packs a ramp.
        let ramp = ramp_bytes(4096);
        assert!(is_verbatim(&encode(&CodecConfig { level: 0, ..cfg_delta() }, &ramp, None, 0)));
        assert!(!is_verbatim(&encode(&cfg_delta(), &ramp, None, 0)));
    }

    #[test]
    fn every_single_bit_flip_and_every_truncation_fails_to_decode() {
        let cfg = CodecConfig { chunk: 64, ..cfg_delta() };
        let values: Vec<f64> = (0..40).map(|i| 1.0 + i as f64 * 1e-9).collect();
        let base = f64_payload(&values);
        let mut next = base.clone();
        next[100] ^= 1;
        let full = encode(&cfg, &base, None, 0);
        let delta = encode(&cfg, &next, Some(&full), 5);
        assert!(delta.delta && flags(&full) & FLAG_COMPRESSED != 0);
        // The same pair with a base nothing packs in: a verbatim frame, and
        // a delta against it.
        let mut seed = 0x2468_ace0_1357_9bdfu64;
        let noise = noise_bytes(64 * 5 + 3, &mut seed);
        let mut noise_next = noise.clone();
        noise_next[70] ^= 1;
        let verbatim = encode(&cfg, &noise, None, 0);
        let on_verbatim = encode(&cfg, &noise_next, Some(&verbatim), 6);
        assert!(is_verbatim(&verbatim) && on_verbatim.delta);
        assert_eq!(&decode(&on_verbatim, Some(&noise)).unwrap()[..], &noise_next[..]);

        for (frame, base) in [
            (&full, None),
            (&delta, Some(&base[..])),
            (&verbatim, None),
            (&on_verbatim, Some(&noise[..])),
        ] {
            assert!(decode(frame, base).is_ok());
            let (head, body) = (&frame.head[..], &frame.body[..]);
            // Damage one part at a time, the other intact.
            let with = |bad: &[u8], in_head: bool| {
                let (h, b) = if in_head { (bad, body) } else { (head, bad) };
                decode_parts(h, b, base)
            };
            for (part, in_head) in [(head, true), (body, false)] {
                for bit in 0..part.len() * 8 {
                    let mut bad = part.to_vec();
                    bad[bit / 8] ^= 1 << (bit % 8);
                    assert!(with(&bad, in_head).is_err(), "bit {bit} flipped silently");
                }
                for len in 0..part.len() {
                    assert!(with(&part[..len], in_head).is_err(), "truncated to {len}");
                }
                let mut long = part.to_vec();
                long.push(0);
                assert!(with(&long, in_head).is_err(), "a byte appended");
            }
        }
        // A manifest that no longer matches the header digest is caught
        // before any chunk is touched.
        let mut bad = full.head.to_vec();
        bad[HEADER_FIXED] ^= 1;
        assert_eq!(decode_parts(&bad, &full.body, None).unwrap_err(), "header digest mismatch");
        let mut long = full.body.to_vec();
        long.push(0);
        assert!(decode_parts(&full.head, &long, None).unwrap_err().contains("trailing garbage"));
    }

    #[test]
    fn out_of_range_knobs_are_clamped_where_the_store_is_built() {
        let wild = CodecConfig { chunk: 0, full_every: 100_000, ..cfg_delta() };
        let cfg = CodecState::new(wild).config;
        assert_eq!((cfg.chunk, cfg.full_every), (64, 255));
        let odd = CodecConfig { chunk: 1003, full_every: 0, ..cfg_delta() };
        let cfg = CodecState::new(odd).config;
        assert_eq!((cfg.chunk, cfg.full_every), (1000, 1));
        assert_eq!(CodecState::new(cfg_delta()).config, cfg_delta(), "in range: untouched");
        // The longest chain `full_every` can ask for still fits the frame's
        // u8 depth: 254 deltas, then a full base again.
        let cfg = CodecState::new(wild).config;
        let data = vec![3u8; 256];
        let mut frame = encode(&cfg, &data, None, 0);
        for epoch in 1..=600u64 {
            let out = encode(&cfg, &data, Some(&frame), epoch);
            assert_eq!(out.delta, epoch % 255 != 0, "epoch {epoch}");
            assert_eq!(parse_header(&out.head).unwrap().chain_depth as u64, epoch % 255);
            frame = out;
        }
    }

    #[test]
    fn full_frame_roundtrips_bit_identically() {
        let cfg = cfg_delta();
        for payload in [
            vec![],
            vec![1u8],
            vec![0u8; 5000],
            (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect::<Vec<u8>>(),
            f64_payload(&[f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, 5e-324]),
        ] {
            assert_eq!(&roundtrip_full(&cfg, &payload)[..], &payload[..]);
        }
    }

    #[test]
    fn smooth_f64_run_compresses() {
        let cfg = cfg_delta();
        let values: Vec<f64> = (0..4096).map(|i| 1.0 + i as f64 * 1e-9).collect();
        let payload = f64_payload(&values);
        let out = encode(&cfg, &payload, None, 0);
        let wire = out.head.len() + out.body.len();
        assert!(wire < payload.len() / 2, "smooth run should compress >2x: {wire}");
        assert_eq!(&decode(&out, None).unwrap()[..], &payload[..]);
    }

    #[test]
    fn delta_ships_only_dirty_chunks_and_replays() {
        let cfg = CodecConfig { chunk: 256, ..cfg_delta() };
        let base: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let base_out = encode(&cfg, &base, None, 0);
        let mut next = base.clone();
        next[700] ^= 0xff; // dirties exactly one 256-byte chunk
        let delta_out = encode(&cfg, &next, Some(&base_out), 41);
        assert!(delta_out.delta);
        assert!(
            delta_out.body.len() < base_out.body.len() / 4,
            "one dirty chunk of sixteen must ship small: {} vs {}",
            delta_out.body.len(),
            base_out.body.len()
        );
        let hdr = parse_header(&delta_out.head).unwrap();
        assert_eq!(hdr.ref_snap_id, 41);
        assert_eq!(hdr.chain_depth, 1);
        let base_logical = decode(&base_out, None).unwrap();
        let got = decode(&delta_out, Some(&base_logical)).unwrap();
        assert_eq!(&got[..], &next[..]);
    }

    #[test]
    fn clean_payload_produces_empty_delta() {
        let cfg = CodecConfig { chunk: 512, ..cfg_delta() };
        let data = vec![7u8; 8192];
        let base = encode(&cfg, &data, None, 0);
        let delta = encode(&cfg, &data, Some(&base), 1);
        assert!(delta.delta);
        assert!(delta.body.is_empty() && delta.head.len() < 300, "no dirty chunks: manifest only");
        let got = decode(&delta, Some(&decode(&base, None).unwrap())).unwrap();
        assert_eq!(&got[..], &data[..]);
    }

    #[test]
    fn dirty_ratio_knob_forces_full_base() {
        let cfg = CodecConfig { chunk: 256, dirty_max: 0.25, ..cfg_delta() };
        let base: Vec<u8> = vec![1u8; 4096];
        let base_out = encode(&cfg, &base, None, 0);
        // Dirty 8 of 16 chunks: over the 25% knob, must fall back to full.
        let mut next = base.clone();
        for c in 0..8 {
            next[c * 512] ^= 1;
        }
        let out = encode(&cfg, &next, Some(&base_out), 1);
        assert!(!out.delta, "over-dirty delta degrades to a full base");
        assert_eq!(&decode(&out, None).unwrap()[..], &next[..]);
    }

    #[test]
    fn chain_depth_is_bounded_by_full_every() {
        let cfg = CodecConfig { chunk: 256, full_every: 3, ..cfg_delta() };
        let data = vec![3u8; 1024];
        let f0 = encode(&cfg, &data, None, 0);
        let f1 = encode(&cfg, &data, Some(&f0), 1);
        assert!(f1.delta, "depth 1 < full_every 3");
        let f2 = encode(&cfg, &data, Some(&f1), 2);
        assert!(f2.delta, "depth 2 < full_every 3");
        let f3 = encode(&cfg, &data, Some(&f2), 3);
        assert!(!f3.delta, "depth 3 would reach full_every: full base re-emitted");
    }

    #[test]
    fn geometry_mismatch_refuses_delta() {
        let cfg = CodecConfig { chunk: 256, ..cfg_delta() };
        let base = encode(&cfg, &vec![1u8; 1024], None, 0);
        let grown = encode(&cfg, &vec![1u8; 2048], Some(&base), 1);
        assert!(!grown.delta, "resized payload must emit a full base");
    }

    #[test]
    fn decode_detects_corruption() {
        let cfg = cfg_delta();
        let payload: Vec<u8> = (0..5000u32).flat_map(|i| i.to_le_bytes()).collect();
        let out = encode(&cfg, &payload, None, 0);
        let mut bad = out.body.to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(decode_parts(&out.head, &bad, None).is_err(), "bit flip must not decode silently");
        assert!(decode_parts(&out.head, &out.body[..out.body.len() - 3], None).is_err());
        assert!(decode_parts(b"not a frame", &out.body, None).is_err());
    }

    #[test]
    fn delta_without_base_is_an_error() {
        let cfg = CodecConfig { chunk: 256, ..cfg_delta() };
        let data = vec![9u8; 1024];
        let base = encode(&cfg, &data, None, 0);
        let delta = encode(&cfg, &data, Some(&base), 7);
        assert!(delta.delta);
        assert!(decode(&delta, None).is_err());
        // A wrong base fails the digest check instead of returning garbage.
        let wrong = vec![8u8; 1024];
        assert!(decode(&delta, Some(&wrong)).is_err());
    }

    #[test]
    fn quantize_bounds_error_and_rejects_opaque() {
        let values = [1.234567, -9.87654, 0.333333, f64::NAN, f64::INFINITY, -0.0];
        let payload = Bytes::from(f64_payload(&values));
        let tol = 1e-3;
        let q = quantize_payload(&payload, PayloadClass::F64Tail { offset: 8 }, tol).unwrap();
        assert_eq!(q.len(), payload.len());
        assert_eq!(&q[..8], &payload[..8], "length prefix untouched");
        for (i, w) in q[8..].chunks_exact(8).enumerate() {
            let got = f64::from_le_bytes(w.try_into().unwrap());
            let want = values[i];
            if want.is_finite() {
                assert!((got - want).abs() <= tol, "|{got} - {want}| > {tol}");
            } else {
                assert_eq!(got.to_bits(), want.to_bits(), "non-finite passes through");
            }
        }
        assert!(quantize_payload(&payload, PayloadClass::Opaque, tol).is_none());
        // Misaligned tail: refuse rather than corrupt.
        let odd = Bytes::from(vec![0u8; 13]);
        assert!(quantize_payload(&odd, PayloadClass::F64Tail { offset: 8 }, tol).is_none());
        // A lossy encode is flagged in the frame header and still decodes to
        // exactly the quantized payload (lossy-to-wire, lossless-from-wire).
        let out = encode_entry(&cfg_delta(), &q, None, 0, true);
        let header = parse_header(&out.head).unwrap();
        assert!(header.is_lossy());
        assert_eq!(&decode(&out, None).unwrap()[..], &q[..]);
    }

    #[test]
    fn counters_accumulate() {
        let before = counters();
        let cfg = cfg_delta();
        let _ = encode(&cfg, &vec![5u8; 4096], None, 0);
        let mut seed = 0x7777_1111_5555_3333u64;
        let _ = encode(&cfg, &noise_bytes(4096, &mut seed), None, 0);
        let d = counters().since(&before);
        assert!(d.logical_bytes >= 2 * 4096);
        assert!(d.wire_bytes > 4096);
        assert!(d.frames_full >= 2, "a verbatim frame is a full frame too");
        assert!(d.frames_verbatim >= 1 && d.frames_verbatim < d.frames_full);
        let mut s = String::new();
        render_codec(&mut s);
        assert!(s.contains("gml_ckpt_wire_bytes_total"));
        assert!(s.contains("gml_ckpt_frames_total{kind=\"delta\"}"));
        assert!(s.contains("gml_ckpt_frames_total{kind=\"verbatim\"}"));
        assert!(s.contains("gml_ckpt_compression_ratio"));
    }

    proptest! {
        // Adversarial payload roundtrip: NaN/±0/inf/denormal f64 soups of
        // every alignment (1–7 byte tails included), empty and 1-element
        // included, at level 0 and 1, full and delta — decode must be
        // bit-identical.
        #[test]
        fn codec_roundtrip_bit_identity(
            specials in prop::collection::vec(0u8..8, 0..64),
            raw_tail in prop::collection::vec(any::<u8>(), 0..41),
            chunk_words in 8usize..130,
            level in 0u8..2,
        ) {
            let mut payload: Vec<u8> = Vec::new();
            for s in &specials {
                let v: f64 = match s {
                    0 => f64::NAN,
                    1 => -0.0,
                    2 => 0.0,
                    3 => f64::INFINITY,
                    4 => f64::NEG_INFINITY,
                    5 => 5e-324,          // smallest positive denormal
                    6 => f64::MIN_POSITIVE,
                    _ => 1.0 + *s as f64,
                };
                payload.extend_from_slice(&v.to_le_bytes());
            }
            payload.extend_from_slice(&raw_tail);
            let cfg = CodecConfig {
                mode: CodecMode::Delta,
                level,
                // Every multiple of 8 from 64 up, most of them not a
                // multiple of the 64-byte transpose group.
                chunk: 8 * chunk_words,
                ..CodecConfig::raw()
            };
            let full = encode(&cfg, &payload, None, 0);
            let round = decode(&full, None).unwrap();
            prop_assert_eq!(&round[..], &payload[..]);
            // Mutate one byte (if any) and delta against the base.
            let mut next = payload.clone();
            if !next.is_empty() {
                let mid = next.len() / 2;
                next[mid] = next[mid].wrapping_add(1);
            }
            let second = encode(&cfg, &next, Some(&full), 9);
            let got = decode(&second, second.delta.then_some(&round[..])).unwrap();
            prop_assert_eq!(&got[..], &next[..]);
        }

        // Payloads on both sides of the pack-or-not decision, and across
        // it: all noise, all ramp, half and half, and one packable chunk in
        // a thousand. Whatever form the frame takes it decodes to the
        // payload, and form and bytes — record order included — are the
        // same however many parts shared the passes.
        #[test]
        fn the_form_of_a_frame_does_not_depend_on_the_part_count(
            shape in 0u8..4,
            chunk_words in 8usize..40,
            seed in any::<u64>(),
            tail in 0usize..8,
        ) {
            let chunk = 8 * chunk_words;
            let mut seed = seed | 1;
            let (n_chunks, is_ramp): (usize, fn(usize) -> bool) = match shape {
                0 => (60, |_| false),
                1 => (60, |_| true),
                2 => (60, |c| c % 2 == 0),
                _ => (1000, |c| c == 517),
            };
            let mut payload: Vec<u8> = Vec::new();
            for c in 0..n_chunks {
                payload.extend(if is_ramp(c) {
                    ramp_bytes(chunk_words)
                } else {
                    noise_bytes(chunk, &mut seed)
                });
            }
            payload.extend(noise_bytes(tail, &mut seed));
            let payload = Bytes::from(payload);
            let cfg = CodecConfig { chunk, ..cfg_delta() };
            let one = encode_in_parts(&cfg, &payload, None, 0, false, 1);
            // Half and half saves 17 – 28 %, on either side of the line.
            if shape != 2 {
                prop_assert_eq!(is_verbatim(&one), shape != 1);
            }
            prop_assert_eq!(is_verbatim(&one), flags(&one) & FLAG_COMPRESSED == 0);
            prop_assert_eq!(&decode(&one, None).unwrap()[..], &payload[..]);
            // A sparse change on top: a delta whose records pack or not by
            // the same rule.
            let mut next = payload.to_vec();
            for c in [0, n_chunks / 2, n_chunks - 1] {
                next[c * chunk + 3] ^= 0x5a;
            }
            let next = Bytes::from(next);
            let delta = encode_in_parts(&cfg, &next, Some(&one.head), 4, false, 1);
            prop_assert!(delta.delta);
            prop_assert_eq!(&decode(&delta, Some(&payload)).unwrap()[..], &next[..]);
            for n_parts in [2, 3, 7] {
                let many = encode_in_parts(&cfg, &payload, None, 0, false, n_parts);
                prop_assert_eq!((&many.head, &many.body), (&one.head, &one.body));
                let many = encode_in_parts(&cfg, &next, Some(&one.head), 4, false, n_parts);
                prop_assert_eq!((&many.head, &many.body), (&delta.head, &delta.body));
            }
        }
    }
}
