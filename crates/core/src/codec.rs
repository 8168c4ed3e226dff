//! The checkpoint codec plane: delta frames + lossless f64 compression,
//! sitting between *capture* and *ship* in the resilient store.
//!
//! Every snapshot entry the store would ship raw can instead be wrapped in a
//! self-describing **frame**:
//!
//! * **Delta frames** — the payload is split into fixed-size chunks and a
//!   per-chunk digest manifest ([`content_digest`], eight bytes per step) is
//!   compared against the digests carried by the last committed frame for
//!   the same key; only dirty chunks are stored/shipped. The manifest always
//!   covers the *full* new state, so the next epoch can diff against this
//!   frame without decoding it. Chains are bounded: a full base is
//!   re-emitted when the dirty ratio exceeds `GML_CKPT_DIRTY_MAX`, every
//!   `GML_CKPT_FULL_EVERY` epochs, and after every restore.
//! * **Lossless compression** (`GML_CKPT_LEVEL=1`) — each stored chunk is
//!   XOR-ed against its previous 64-bit word (Gorilla/fpzip idiom: iterative
//!   f64 state mutates low mantissa bits, so residuals are mostly zero
//!   bytes) and byte-plane transposed with u64 mask-and-shift rounds; each
//!   plane is run-length packed or copied, decided per plane from its zero
//!   bytes and zero runs (a mode byte per chunk records the choice). Chunks
//!   that do not shrink are stored raw, so the wire size never exceeds raw +
//!   frame overhead.
//! * **Lossy quantization** (`GML_CKPT_LOSSY_TOL`, off by default) — f64
//!   payloads ([`PayloadClass::F64Tail`]) are rounded to a uniform grid of
//!   step `2·tol` *before* digesting, bounding the absolute restore error by
//!   `tol`. Opaque payloads (topology, integer indices, mixed metadata)
//!   reject quantization and stay bit-exact.
//!
//! **One pass each way.** Encoding reads a payload once: a chunk is digested
//! and, if it has to be stored, compressed while still in cache, through one
//! reusable scratch, into a frame buffer drawn from the serial arena; large
//! payloads fan out over the kernel pool in contiguous chunk ranges.
//! Decoding writes chunks straight into the output, a delta patching the
//! buffer its base was decoded into.
//!
//! **What a frame guarantees.** Restore is bit-identical in the lossless
//! modes (exactly the quantized payload in the lossy one). The header
//! carries a digest of its own fields and of the manifest — a whole-payload
//! digest derived from the chunk digests, not a second pass — and decode
//! verifies it, then *every* chunk of the reconstructed payload, stored or
//! inherited from the delta base, against the manifest. Truncation, a bit
//! flipped anywhere in the frame, trailing bytes, a missing base and a wrong
//! base all surface as [`GmlError::DataLoss`](crate::error::GmlError), never
//! as silently wrong data. The digest is error detection, not cryptography
//! (see [`apgas::digest`]).

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
    /// Full base frames emitted.
    pub frames_full: u64,
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

/// Parsed, digest-verified frame header borrowing the frame's bytes.
pub(crate) struct FrameHeader<'a> {
    pub flags: u8,
    /// 0 for a full base, `base.depth + 1` for a delta.
    pub chain_depth: u8,
    pub chunk_size: usize,
    pub logical_len: u64,
    /// Snapshot id of the delta base (0 and unused for full frames).
    pub ref_snap_id: u64,
    /// Number of stored-chunk records that follow the manifest.
    n_stored: usize,
    /// The chunk manifest: one LE `content_digest` per chunk of the full
    /// logical payload.
    manifest: &'a [u8],
    /// Everything after the manifest: the stored-chunk records.
    records: &'a [u8],
}

impl FrameHeader<'_> {
    pub(crate) fn is_delta(&self) -> bool {
        self.flags & FLAG_DELTA != 0
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

/// Parse a frame header and verify its digest, which covers every header
/// field and the manifest; `Err` describes the corruption.
pub(crate) fn parse_header(frame: &[u8]) -> Result<FrameHeader<'_>, String> {
    let fixed = frame.get(..HEADER_FIXED).ok_or("frame truncated in header")?;
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
    let head = HEADER_FIXED + 8 * n_chunks;
    let manifest = frame.get(HEADER_FIXED..head).ok_or("frame truncated in digest manifest")?;
    if content_digest(&frame[DIGEST_COVERS_FROM..head]) != le_word(&fixed[4..12]) {
        return Err("header digest mismatch".into());
    }
    Ok(FrameHeader {
        flags: fixed[12],
        chain_depth: fixed[13],
        chunk_size,
        logical_len,
        ref_snap_id: le_word(&fixed[26..34]),
        n_stored,
        manifest,
        records: &frame[head..],
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
/// run ends at any zero byte. `dst` must hold `plane.len() * 3 / 2 + 1`.
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

/// Reusable buffers of [`compress_chunk`] / [`decompress_chunk`]: one per
/// encode part or decode call, small enough to stay cache-resident.
#[derive(Default)]
struct Scratch {
    /// The chunk's eight byte planes, each as long as the chunk's word count
    /// rounded up to whole transpose groups.
    planes: Vec<u8>,
    /// The compressed chunk before it is appended to the frame.
    packed: Vec<u8>,
}

/// Compress one chunk into `scratch.packed`. Words are XOR-ed against their
/// predecessor (iterative f64 state leaves sign, exponent and high mantissa
/// unchanged, so those residual bytes are zero) and transposed into eight
/// byte planes. On the way the zero bytes and zero runs of every plane are
/// counted, in byte lanes of one word; a plane is run-length packed exactly
/// when those two counts prove the tokens cost less than the zeros save — a
/// mantissa-noise plane is copied, never tokenised. The 1–7 byte tail
/// follows verbatim. Returns the mask of packed planes and the compressed
/// bytes, or `None` when the chunk is to be stored raw (no plane packs, or
/// the result is no smaller).
fn compress_chunk<'a>(chunk: &[u8], scratch: &'a mut Scratch) -> Option<(u8, &'a [u8])> {
    /// Words per counting block: a byte lane holds their count without carry.
    const BLOCK_GROUPS: usize = 31;
    let n_words = chunk.len() / 8;
    let (body, tail) = chunk.split_at(n_words * 8);
    let stride = n_words.next_multiple_of(8);
    let Scratch { planes, packed: dst } = scratch;
    planes.resize(8 * stride, 0);
    // Packing grows a plane by at most half (literal, zero, literal, ...).
    dst.resize(chunk.len() * 3 / 2 + 16, 0);
    let (mut zeros, mut runs) = ([0usize; 8], [0usize; 8]);
    let (mut prev, mut prev_zero) = (0u64, 0u64);
    for (b, block) in body.chunks(64 * BLOCK_GROUPS).enumerate() {
        let (mut zero_lanes, mut run_lanes) = (0u64, 0u64);
        for (g, group) in block.chunks(64).enumerate() {
            // A short last group leaves zero residuals: padding, never emitted.
            let mut x = [0u64; 8];
            for (r, w) in x.iter_mut().zip(group.chunks_exact(8)) {
                let w = le_word(w);
                *r = w ^ prev;
                prev = w;
                // Byte `p` of a residual belongs to plane `p`: 1 in the
                // lanes whose byte is zero, and in those where a run starts.
                let zero = zero_bytes(*r) >> 7;
                zero_lanes += zero;
                run_lanes += zero & !prev_zero;
                prev_zero = zero;
            }
            transpose8x8(&mut x);
            let at = (b * BLOCK_GROUPS + g) * 8;
            for (p, row) in x.iter().enumerate() {
                planes[p * stride + at..][..8].copy_from_slice(&row.to_le_bytes());
            }
        }
        for p in 0..8 {
            zeros[p] += (zero_lanes >> (8 * p)) as usize & 0xff;
            runs[p] += (run_lanes >> (8 * p)) as usize & 0xff;
        }
    }
    // Packed, a plane costs its literals plus at most one token per zero
    // run, one per literal run between them, and one per 128-byte split.
    let packs = |p: usize| zeros[p] > 2 * runs[p] + 1 + n_words / 128;
    let mask = (0..8).fold(0u8, |m, p| m | u8::from(packs(p)) << p);
    if mask == 0 {
        return None;
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
    at += tail.len();
    (at < chunk.len()).then_some((mask, &dst[..at]))
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

/// The result of encoding one entry.
pub(crate) struct EncodeOutcome {
    /// The framed wire bytes.
    pub frame: Bytes,
    /// Whether a delta frame was emitted (the caller must then record the
    /// chain on the snapshot).
    pub delta: bool,
}

/// One contiguous range of a payload's chunks, encoded by one pool worker
/// into its own buffer. Part 0's buffer is the frame itself (header space
/// reserved up front); the others are appended to it in order.
struct Part {
    chunks: std::ops::Range<usize>,
    digests: Vec<u64>,
    out: BytesMut,
    stored: usize,
    compressed: bool,
}

impl Part {
    /// Read each chunk of the range once: digest it and, if it differs from
    /// `base`'s (or there is no base), append its record. With `spill` the
    /// digests are known and the chunks *equal* to the base are appended —
    /// the second half of a delta that turned out too dirty.
    fn encode(
        &mut self,
        cfg: &CodecConfig,
        payload: &[u8],
        base: Option<&FrameHeader>,
        spill: bool,
    ) {
        let mut scratch = Scratch::default();
        for ci in self.chunks.clone() {
            let lo = ci * cfg.chunk;
            let data = &payload[lo..payload.len().min(lo + cfg.chunk)];
            let slot = ci - self.chunks.start;
            if !spill {
                self.digests[slot] = content_digest(data);
            }
            let clean = base.is_some_and(|b| b.digest(ci) == self.digests[slot]);
            if clean != spill {
                continue;
            }
            let packed = if cfg.level >= 1 { compress_chunk(data, &mut scratch) } else { None };
            let (mask, body) = packed.unwrap_or((0, data));
            self.out.put_u32_le(ci as u32);
            self.out.put_u8(mask);
            self.out.put_u32_le(body.len() as u32);
            self.out.put_slice(body);
            self.stored += 1;
            self.compressed |= mask != 0;
        }
    }
}

/// Encode one logical payload into a frame. `ref_frame` is the candidate
/// delta base (same key, same owner/backup, locally present); `lossy` marks
/// that `payload` was already quantized. Placement eligibility is the
/// caller's job; this function additionally requires matching geometry and a
/// bounded chain before emitting a delta.
pub(crate) fn encode_entry(
    cfg: &CodecConfig,
    payload: &[u8],
    ref_frame: Option<&[u8]>,
    ref_snap_id: u64,
    lossy: bool,
) -> EncodeOutcome {
    // Fan out over contiguous chunk ranges when there is enough to compress.
    let n_parts = match payload.len() / cfg.chunk / PAR_MIN_CHUNKS {
        wide if wide >= 2 && cfg.level >= 1 => pool::workers().min(wide),
        _ => 1,
    };
    encode_in_parts(cfg, payload, ref_frame, ref_snap_id, lossy, n_parts)
}

/// [`encode_entry`] over `n_parts` contiguous chunk ranges. The decoded
/// payload and the frame's size do not depend on `n_parts`; neither do its
/// bytes, except for the record order of a too-dirty delta.
fn encode_in_parts(
    cfg: &CodecConfig,
    payload: &[u8],
    ref_frame: Option<&[u8]>,
    ref_snap_id: u64,
    lossy: bool,
    n_parts: usize,
) -> EncodeOutcome {
    let t0 = Instant::now();
    let n_chunks = payload.len().div_ceil(cfg.chunk);
    // Delta eligibility: a parseable base with identical geometry and a
    // bounded chain. The dirty ratio is judged once the chunks are read.
    let base = ref_frame
        .filter(|_| cfg.mode == CodecMode::Delta && n_chunks > 0)
        .and_then(|rf| parse_header(rf).ok())
        .filter(|h| {
            u32::from(h.chain_depth) + 1 < cfg.full_every.min(256)
                && h.logical_len == payload.len() as u64
                && h.chunk_size == cfg.chunk
        });

    let head = HEADER_FIXED + 8 * n_chunks;
    let mut parts: Vec<Part> = (0..n_parts)
        .map(|i| {
            let chunks = pool::chunk_range(n_chunks, n_parts, i);
            // Worst case (every chunk stored raw) so appending never
            // regrows; part 0 also has room for the header and for the other
            // parts. `with_capacity` draws from the serial arena.
            let mut out = BytesMut::with_capacity(if i == 0 {
                head + payload.len() + n_chunks * CHUNK_RECORD
            } else {
                chunks.len() * (cfg.chunk + CHUNK_RECORD)
            });
            out.resize(if i == 0 { head } else { 0 }, 0);
            Part { digests: vec![0; chunks.len()], chunks, out, stored: 0, compressed: false }
        })
        .collect();
    let run = |parts: &mut [Part], spill| {
        pool::run_split(parts, n_parts, |i| i..i + 1, |_, p| {
            p[0].encode(cfg, payload, base.as_ref(), spill)
        })
    };
    run(&mut parts, false);
    let dirty: usize = parts.iter().map(|p| p.stored).sum();
    let is_delta = base.is_some() && dirty as f64 <= cfg.dirty_max * n_chunks as f64;
    if base.is_some() && !is_delta {
        // Too dirty for a delta: add the clean chunks, making it a full base
        // (records carry their index, so their order is free).
        run(&mut parts, true);
    }

    let mut parts = parts.into_iter();
    let Part { out: mut frame, mut digests, mut stored, mut compressed, .. } =
        parts.next().expect("at least one part");
    for p in parts {
        frame.put_slice(&p.out);
        digests.extend_from_slice(&p.digests);
        stored += p.stored;
        compressed |= p.compressed;
    }
    let flag = |on: bool, bit: u8| if on { bit } else { 0 };
    let flags =
        flag(is_delta, FLAG_DELTA) | flag(compressed, FLAG_COMPRESSED) | flag(lossy, FLAG_LOSSY);
    let depth = base.as_ref().filter(|_| is_delta).map_or(0, |h| h.chain_depth + 1);
    let mut fixed = Vec::with_capacity(HEADER_FIXED);
    fixed.put_u32_le(FRAME_MAGIC);
    fixed.put_u64_le(0); // header digest, below
    fixed.put_u8(flags);
    fixed.put_u8(depth);
    fixed.put_u32_le(cfg.chunk as u32);
    fixed.put_u64_le(payload.len() as u64);
    fixed.put_u64_le(if is_delta { ref_snap_id } else { 0 });
    fixed.put_u32_le(n_chunks as u32);
    fixed.put_u32_le(stored as u32);
    frame[..HEADER_FIXED].copy_from_slice(&fixed);
    for (slot, d) in frame[HEADER_FIXED..head].chunks_exact_mut(8).zip(&digests) {
        slot.copy_from_slice(&d.to_le_bytes());
    }
    let header_digest = content_digest(&frame[DIGEST_COVERS_FROM..head]);
    frame[4..12].copy_from_slice(&header_digest.to_le_bytes());
    // A sparse delta fills a sliver of its worst-case buffer: keep the
    // sliver, hand the buffer back to the arena.
    let frame = if frame.len() < frame.capacity() / 2 {
        Bytes::copy_from_slice(&frame)
    } else {
        frame.freeze()
    };

    LOGICAL_BYTES.fetch_add(payload.len() as u64, Ordering::Relaxed);
    WIRE_BYTES.fetch_add(frame.len() as u64, Ordering::Relaxed);
    if is_delta {
        FRAMES_DELTA.fetch_add(1, Ordering::Relaxed);
    } else {
        FRAMES_FULL.fetch_add(1, Ordering::Relaxed);
    }
    if lossy {
        FRAMES_LOSSY.fetch_add(1, Ordering::Relaxed);
    }
    ENCODE_NANOS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    EncodeOutcome { frame, delta: is_delta }
}

/// Decode one frame back into its full logical payload. `base` is the
/// *decoded* logical payload of the delta base (required iff the frame is a
/// delta); it is patched in place and returned. After the header digest
/// (checked by [`parse_header`]) every chunk of the result, stored or
/// inherited, is verified against the manifest — a truncated or flipped
/// frame, a missing base and a wrong base are corruption, never data.
pub(crate) fn decode_frame(frame: &[u8], base: Option<BytesMut>) -> Result<BytesMut, String> {
    let t0 = Instant::now();
    let h = parse_header(frame)?;
    let n = h.logical_len as usize;
    if !h.is_delta() && h.n_stored != h.n_chunks() {
        return Err(format!("full frame stores {} of {} chunks", h.n_stored, h.n_chunks()));
    }
    let mut out = match (h.is_delta(), base) {
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
    let verify = |ci: usize, chunk: &[u8]| {
        if content_digest(chunk) == h.digest(ci) {
            Ok(())
        } else {
            Err(format!("chunk {ci} does not match the manifest"))
        }
    };
    let extent = |ci: usize| ci * h.chunk_size..n.min((ci + 1) * h.chunk_size);
    let mut stored = vec![false; h.n_chunks()];
    let mut scratch = Scratch::default();
    let mut records = h.records;
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
    DECODE_NANOS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    Ok(out)
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

    /// `decode_frame` against a borrowed base (copied: decode patches it).
    fn decode(frame: &[u8], base: Option<&[u8]>) -> Result<BytesMut, String> {
        decode_frame(
            frame,
            base.map(|b| {
                let mut copy = BytesMut::new();
                copy.extend_from_slice(b);
                copy
            }),
        )
    }

    fn roundtrip_full(cfg: &CodecConfig, payload: &[u8]) -> BytesMut {
        let out = encode_entry(cfg, payload, None, 0, false);
        assert!(!out.delta);
        decode(&out.frame, None).expect("full frame decodes")
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

    /// The three fixed-seed payloads of the wire-size guard.
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
        for (payload, before) in guard_payloads().iter().zip(BEFORE) {
            let out = encode_entry(&cfg_delta(), payload, None, 0, false);
            assert!(out.frame.len() <= before, "{} > {before}", out.frame.len());
            assert_eq!(&decode(&out.frame, None).unwrap()[..], &payload[..]);
        }
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
        let (mask, packed) = compress_chunk(&chunk, &mut scratch).expect("compresses");
        assert_eq!(mask, 0b1111_1000, "planes 0-2 carry the noise, 3-7 are quiet");
        assert!(packed.len() < chunk.len() / 2);
        let packed = packed.to_vec();
        let mut back = vec![0u8; chunk.len()];
        decompress_chunk(mask, &packed, &mut back, &mut scratch).unwrap();
        assert_eq!(back, chunk);
        // All noise: no plane is worth packing, the chunk is stored raw.
        let noise: Vec<u8> = (0..4096).map(|_| (xorshift(&mut seed) >> 32) as u8).collect();
        assert!(compress_chunk(&noise, &mut scratch).is_none());
    }

    #[test]
    fn too_dirty_delta_spills_into_a_full_base_for_any_part_count() {
        let cfg = CodecConfig { chunk: 64, dirty_max: 0.25, ..cfg_delta() };
        let mut seed = 0x1357_9bdf_0246_8aceu64;
        let base: Vec<u8> = (0..64 * 40 + 13).map(|_| (xorshift(&mut seed) >> 8) as u8).collect();
        let base_frame = encode_entry(&cfg, &base, None, 0, false).frame;
        for dirty_chunks in [3usize, 20] {
            let mut next = base.clone();
            for c in 0..dirty_chunks {
                next[c * 128 + 5] ^= 0x10; // every other chunk
            }
            let one = encode_in_parts(&cfg, &next, Some(&base_frame), 9, false, 1);
            assert_eq!(one.delta, dirty_chunks == 3);
            for n_parts in [2, 3, 7] {
                let many = encode_in_parts(&cfg, &next, Some(&base_frame), 9, false, n_parts);
                assert_eq!(many.delta, one.delta);
                assert_eq!(many.frame.len(), one.frame.len());
                if one.delta {
                    assert_eq!(many.frame, one.frame, "in-order records: identical bytes");
                }
                let got = decode(&many.frame, one.delta.then_some(&base[..])).unwrap();
                assert_eq!(&got[..], &next[..]);
            }
        }
    }

    #[test]
    fn a_payload_wide_enough_to_fan_out_encodes_to_the_same_frame() {
        // 3 MiB: two pool-sized ranges wherever the pool has two workers.
        let values: Vec<f64> = (0..3 << 17).map(|i| (i as f64).sqrt()).collect();
        let payload = f64_payload(&values);
        let fanned = encode_entry(&cfg_delta(), &payload, None, 0, false);
        let serial = encode_in_parts(&cfg_delta(), &payload, None, 0, false, 1);
        assert_eq!(fanned.frame, serial.frame);
        assert_eq!(&decode(&fanned.frame, None).unwrap()[..], &payload[..]);
    }

    #[test]
    fn every_single_bit_flip_and_every_truncation_fails_to_decode() {
        let cfg = CodecConfig { chunk: 64, ..cfg_delta() };
        let values: Vec<f64> = (0..40).map(|i| 1.0 + i as f64 * 1e-9).collect();
        let base = f64_payload(&values);
        let mut next = base.clone();
        next[100] ^= 1;
        let full = encode_entry(&cfg, &base, None, 0, false);
        let delta = encode_entry(&cfg, &next, Some(&full.frame), 5, false);
        assert!(delta.delta && parse_header(&full.frame).unwrap().flags & FLAG_COMPRESSED != 0);
        for (frame, base) in [(&full.frame, None), (&delta.frame, Some(&base[..]))] {
            assert!(decode(frame, base).is_ok());
            for bit in 0..frame.len() * 8 {
                let mut bad = frame.to_vec();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(decode(&bad, base).is_err(), "bit {bit} flipped silently");
            }
            for len in 0..frame.len() {
                assert!(decode(&frame[..len], base).is_err(), "truncated to {len}");
            }
            let mut long = frame.to_vec();
            long.push(0);
            assert!(decode(&long, base).unwrap_err().contains("trailing garbage"));
        }
        // A manifest that no longer matches the header digest is caught
        // before any chunk is touched.
        let mut bad = full.frame.to_vec();
        bad[HEADER_FIXED] ^= 1;
        assert_eq!(decode(&bad, None).unwrap_err(), "header digest mismatch");
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
        let mut frame = encode_entry(&cfg, &data, None, 0, false).frame;
        for epoch in 1..=600u64 {
            let out = encode_entry(&cfg, &data, Some(&frame), epoch, false);
            assert_eq!(out.delta, epoch % 255 != 0, "epoch {epoch}");
            assert_eq!(parse_header(&out.frame).unwrap().chain_depth as u64, epoch % 255);
            frame = out.frame;
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
        let out = encode_entry(&cfg, &payload, None, 0, false);
        assert!(
            out.frame.len() < payload.len() / 2,
            "smooth run should compress >2x: {} vs {}",
            out.frame.len(),
            payload.len()
        );
        assert_eq!(&decode(&out.frame, None).unwrap()[..], &payload[..]);
    }

    #[test]
    fn delta_ships_only_dirty_chunks_and_replays() {
        let cfg = CodecConfig { chunk: 256, ..cfg_delta() };
        let base: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let base_out = encode_entry(&cfg, &base, None, 0, false);
        let mut next = base.clone();
        next[700] ^= 0xff; // dirties exactly one 256-byte chunk
        let delta_out = encode_entry(&cfg, &next, Some(&base_out.frame), 41, false);
        assert!(delta_out.delta);
        assert!(
            delta_out.frame.len() < base_out.frame.len() / 4,
            "one dirty chunk of sixteen must ship small: {} vs {}",
            delta_out.frame.len(),
            base_out.frame.len()
        );
        let hdr = parse_header(&delta_out.frame).unwrap();
        assert_eq!(hdr.ref_snap_id, 41);
        assert_eq!(hdr.chain_depth, 1);
        let base_logical = decode(&base_out.frame, None).unwrap();
        let got = decode(&delta_out.frame, Some(&base_logical)).unwrap();
        assert_eq!(&got[..], &next[..]);
    }

    #[test]
    fn clean_payload_produces_empty_delta() {
        let cfg = CodecConfig { chunk: 512, ..cfg_delta() };
        let data = vec![7u8; 8192];
        let base = encode_entry(&cfg, &data, None, 0, false);
        let delta = encode_entry(&cfg, &data, Some(&base.frame), 1, false);
        assert!(delta.delta);
        assert!(delta.frame.len() < 300, "no dirty chunks: manifest only");
        let got =
            decode(&delta.frame, Some(&decode(&base.frame, None).unwrap())).unwrap();
        assert_eq!(&got[..], &data[..]);
    }

    #[test]
    fn dirty_ratio_knob_forces_full_base() {
        let cfg = CodecConfig { chunk: 256, dirty_max: 0.25, ..cfg_delta() };
        let base: Vec<u8> = vec![1u8; 4096];
        let base_out = encode_entry(&cfg, &base, None, 0, false);
        // Dirty 8 of 16 chunks: over the 25% knob, must fall back to full.
        let mut next = base.clone();
        for c in 0..8 {
            next[c * 512] ^= 1;
        }
        let out = encode_entry(&cfg, &next, Some(&base_out.frame), 1, false);
        assert!(!out.delta, "over-dirty delta degrades to a full base");
        assert_eq!(&decode(&out.frame, None).unwrap()[..], &next[..]);
    }

    #[test]
    fn chain_depth_is_bounded_by_full_every() {
        let cfg = CodecConfig { chunk: 256, full_every: 3, ..cfg_delta() };
        let data = vec![3u8; 1024];
        let f0 = encode_entry(&cfg, &data, None, 0, false);
        let f1 = encode_entry(&cfg, &data, Some(&f0.frame), 1, false);
        assert!(f1.delta, "depth 1 < full_every 3");
        let f2 = encode_entry(&cfg, &data, Some(&f1.frame), 2, false);
        assert!(f2.delta, "depth 2 < full_every 3");
        let f3 = encode_entry(&cfg, &data, Some(&f2.frame), 3, false);
        assert!(!f3.delta, "depth 3 would reach full_every: full base re-emitted");
    }

    #[test]
    fn geometry_mismatch_refuses_delta() {
        let cfg = CodecConfig { chunk: 256, ..cfg_delta() };
        let base = encode_entry(&cfg, &vec![1u8; 1024], None, 0, false);
        let grown = encode_entry(&cfg, &vec![1u8; 2048], Some(&base.frame), 1, false);
        assert!(!grown.delta, "resized payload must emit a full base");
    }

    #[test]
    fn decode_detects_corruption() {
        let cfg = cfg_delta();
        let payload: Vec<u8> = (0..5000u32).flat_map(|i| i.to_le_bytes()).collect();
        let out = encode_entry(&cfg, &payload, None, 0, false);
        let mut bad = out.frame.to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(decode(&bad, None).is_err(), "bit flip must not decode silently");
        let truncated = &out.frame[..out.frame.len() - 3];
        assert!(decode(truncated, None).is_err());
        assert!(decode(b"not a frame", None).is_err());
    }

    #[test]
    fn delta_without_base_is_an_error() {
        let cfg = CodecConfig { chunk: 256, ..cfg_delta() };
        let data = vec![9u8; 1024];
        let base = encode_entry(&cfg, &data, None, 0, false);
        let delta = encode_entry(&cfg, &data, Some(&base.frame), 7, false);
        assert!(delta.delta);
        assert!(decode(&delta.frame, None).is_err());
        // A wrong base fails the digest check instead of returning garbage.
        let wrong = vec![8u8; 1024];
        assert!(decode(&delta.frame, Some(&wrong)).is_err());
    }

    #[test]
    fn incompressible_chunks_are_stored_raw() {
        let cfg = cfg_delta();
        // xorshift noise: every byte plane is dense, RLE cannot win.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let payload: Vec<u8> = (0..8192)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let out = encode_entry(&cfg, &payload, None, 0, false);
        // Wire = payload + frame overhead only (digest manifest + records).
        let overhead = out.frame.len() as i64 - payload.len() as i64;
        assert!(
            (0..1024).contains(&overhead),
            "noise must be stored raw with bounded overhead, got {overhead}"
        );
        assert_eq!(&decode(&out.frame, None).unwrap()[..], &payload[..]);
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
        let header = parse_header(&out.frame).unwrap();
        assert!(header.is_lossy());
        assert_eq!(&decode(&out.frame, None).unwrap()[..], &q[..]);
    }

    #[test]
    fn counters_accumulate() {
        let before = counters();
        let cfg = cfg_delta();
        let payload = vec![5u8; 4096];
        let _ = encode_entry(&cfg, &payload, None, 0, false);
        let after = counters();
        let d = after.since(&before);
        assert!(d.logical_bytes >= 4096);
        assert!(d.wire_bytes > 0);
        assert!(d.frames_full >= 1);
        let mut s = String::new();
        render_codec(&mut s);
        assert!(s.contains("gml_ckpt_wire_bytes_total"));
        assert!(s.contains("gml_ckpt_frames_total{kind=\"delta\"}"));
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
            let full = encode_entry(&cfg, &payload, None, 0, false);
            let round = decode(&full.frame, None).unwrap();
            prop_assert_eq!(&round[..], &payload[..]);
            // Mutate one byte (if any) and delta against the base.
            let mut next = payload.clone();
            if !next.is_empty() {
                let mid = next.len() / 2;
                next[mid] = next[mid].wrapping_add(1);
            }
            let second = encode_entry(&cfg, &next, Some(&full.frame), 9, false);
            let base = decode(&full.frame, None).unwrap();
            let got = decode(
                &second.frame,
                if second.delta { Some(&base[..]) } else { None },
            ).unwrap();
            prop_assert_eq!(&got[..], &next[..]);
        }
    }
}
