//! The checkpoint codec plane: self-contained frames with lossless f64
//! compression, sitting between *capture* and *ship* in the resilient store.
//!
//! The capture copies nothing: its owner keeps a handle on each value, and
//! the object's next write copies away from it instead (copy-on-write). The
//! ship frames the value there, once, puts the frame in the handle's place
//! and sends that frame to the backup, behind the steps. A replica with no
//! second place to ship to — a pair collapsed onto a one-place group's
//! place — is framed the same way by an order that ships nothing.
//!
//! **Framed from the value.** [`encode_entry`] reads the payload as the
//! value's wire runs ([`apgas::serial::Serial::write_runs`]): a small
//! written header, then each array viewed where it lies. A chunk inside one
//! run is read in place; only a chunk that straddles runs is copied, into a
//! chunk-sized buffer. So a packed frame's payload never exists in one
//! buffer; a verbatim frame's body is the value's one serialization, made
//! once the form is decided.
//!
//! Every snapshot entry the store keeps is a self-describing **frame** of
//! two parts: a *head* (fixed header + one chunk digest per chunk of the
//! payload, [`content_digest`], eight bytes per step) and a *body*. A frame
//! restores from its own head and body alone, and takes one of two forms:
//!
//! * **Packed** — every chunk of the payload is a record in the body. A
//!   chunk that shrinks is XOR-ed against its previous 64-bit word
//!   (Gorilla/fpzip idiom: iterative f64 state mutates low mantissa bits, so
//!   residuals are mostly zero bytes) and byte-plane transposed with u64
//!   mask-and-shift rounds; each plane is run-length packed or copied,
//!   decided per plane from its zero bytes and zero runs (a mask byte per
//!   record holds the choice). Only a chunk *proven* to shrink by
//!   [`PACK_MIN_SAVING`] is packed; the others are records of raw bytes.
//! * **Verbatim** — a frame in which packing would not save that share has
//!   no records: its body *is* the serialized payload, held by refcount,
//!   never copied into a frame buffer and handed back by refcount on restore.
//!   The runs end to end are that payload, byte for byte.
//!
//! **Decide, then emit.** Pass 1 reads each chunk once, where it lies: its
//! digest and the zero-byte / zero-run counts of its XOR residuals — which
//! planes pack and how many bytes that provably saves, with no transpose
//! and no store. The frame's form is a pure function of those numbers.
//! Pass 2 writes the records of a packed frame, in chunk order, into one
//! body buffer that pass 1 bounds, so a frame's bytes depend neither on how
//! many pool workers shared the passes nor on where the runs split the
//! payload.
//!
//! **What a frame guarantees.** Restore is bit-identical. The header carries
//! a digest of its own fields and of the manifest — a whole-payload digest
//! derived from the chunk digests, not a second pass — and decode verifies
//! it, then *every* chunk of the payload, unpacked from its record or lying
//! in a verbatim body, against the manifest. Truncation, a bit flipped
//! anywhere in head or body, trailing bytes and a reserved flag bit all
//! surface as [`GmlError::DataLoss`](crate::error::GmlError), never as
//! silently wrong data. The digest is error detection, not cryptography
//! (see [`apgas::digest`]).

use std::ops::Range;
use std::sync::atomic::Ordering;
use std::time::Instant;

use apgas::digest::content_digest;
use apgas::metrics::{Family, Kind};
use apgas::pool;
use apgas::serial::Run;
use bytes::{BufMut, Bytes, BytesMut};

/// Frame magic: `"GLCK"` little-endian. A head that does not start with this
/// is not a frame.
const FRAME_MAGIC: u32 = 0x4b43_4c47;

/// Frame flag: no records — the body is the payload. Clear: the frame is
/// packed, every chunk a record.
const FLAG_VERBATIM: u8 = 1;
/// No other flag bit means anything: a head with one set is corrupt.
const FLAGS_RESERVED: u8 = !FLAG_VERBATIM;

/// Fixed header bytes before the chunk-digest manifest: magic (u32), header
/// digest (u64), flags (u8), chunk size (u32), logical length (u64), chunk
/// count (u32), record count (u32).
const HEADER_FIXED: usize = 4 + 8 + 1 + 4 + 8 + 4 + 4;
/// The header digest covers everything from here to the end of the manifest.
const DIGEST_COVERS_FROM: usize = 4 + 8;
/// Per-stored-chunk record overhead: index (u32) + plane mask (u8) + len (u32).
const CHUNK_RECORD: usize = 4 + 1 + 4;
/// Bytes per chunk: the granularity of the digest manifest and of the
/// pack-or-not decision. A multiple of the 64-byte transpose group.
const CHUNK: usize = 4096;
/// Fewest chunks worth a pool worker of their own (1 MiB).
const PAR_MIN_CHUNKS: usize = 256;
/// A chunk is packed only if pass 1 proves it shrinks by at least one part
/// in this many, and a frame packs at all only if its packed chunks together
/// save that share of the payload. Packing never pays in time here
/// (it runs at about the speed a saved byte ships, DESIGN.md §3.14): what it
/// buys is resident memory, two replicas per generation, and what it costs
/// besides CPU is the by-reference body. The recorded payloads save 0.3 %
/// and 12 % (dense numeric state) or 84 % (CSR indices), nothing in
/// between; a quarter sits in that gap. Packing costs no payload-sized
/// buffer: a packed frame is made from the value's runs where they lie.
const PACK_MIN_SAVING: usize = 4;

// ---------------------------------------------------------------------------
// Process-global codec counters (logical vs wire bytes, frame mix, time).
// ---------------------------------------------------------------------------

apgas::counter_set! {
    /// The codec counters themselves, bumped by [`encode_entry`] and [`decode_frame`].
    pub(crate) struct CodecCounters;
    /// A point-in-time view of the codec counters. Monotonic; subtract two
    /// with [`since`](CodecSnapshot::since) for an interval, exactly like
    /// `apgas::stats::StatsSnapshot`.
    pub struct CodecSnapshot {
        logical_bytes => "gml_ckpt_logical_bytes_total", "Pre-codec (logical) payload bytes encoded.";
        wire_bytes => "gml_ckpt_wire_bytes_total", "Post-codec (wire) frame bytes produced.";
        /// Verbatim frames included.
        frames_full => "gml_ckpt_frames_total" { kind = "full" },
            "Checkpoint frames emitted, by kind: full counts every frame, verbatim those kept by reference.";
        /// Packing would not pay, so the payload was stored by reference
        /// instead of being copied into records.
        frames_verbatim => "gml_ckpt_frames_total" { kind = "verbatim" },
            "Checkpoint frames emitted verbatim.";
        /// Always 0: there are no delta frames. Retained because the
        /// end-to-end benchmark reads it, until a benchmark-only change drops
        /// `core.codec.frames_delta_share`.
        frames_delta;
        /// Summed over the places encoding concurrently — codec CPU time,
        /// which can exceed the wall time of the checkpoint it was spent in.
        /// All of the framing: a verbatim frame's serialization included
        /// (which apgas's `gml_encode_nanos_total` counts as well); a packed
        /// frame has none.
        encode_nanos => "gml_ckpt_encode_nanos_total", "Nanoseconds place threads spent encoding frames.";
        /// Summed over places like `encode_nanos`.
        decode_nanos => "gml_ckpt_decode_nanos_total", "Nanoseconds place threads spent decoding frames.";
        /// Counted where the write copies, in `gml_matrix::shared`, which
        /// cannot reach this crate: [`counters`] reads it from there, and the
        /// live field stays zero.
        cow_copies => "gml_ckpt_cow_copies_total", "Values a write copied because a checkpoint capture still held them.";
    }
}

static COUNTERS: CodecCounters = CodecCounters::new();

impl CodecSnapshot {
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
    CodecSnapshot { cow_copies: gml_matrix::shared::forced_copies(), ..COUNTERS.snapshot() }
}

/// The `gml_ckpt_*` Prometheus families: the counters plus their
/// compression ratio (registered alongside the `gml_store_*` gauges by
/// `ResilientStore::register_monitor`).
pub fn families() -> Vec<Family> {
    let c = counters();
    let ratio = Family::new(Kind::Gauge, "gml_ckpt_compression_ratio", "Wire/logical checkpoint bytes.");
    let mut out = c.families();
    out.push(ratio.value(c.compression_ratio()));
    out
}

// ---------------------------------------------------------------------------
// Frame header
// ---------------------------------------------------------------------------

/// Parsed, digest-verified frame head (header + manifest) borrowing its
/// bytes.
struct FrameHeader<'a> {
    verbatim: bool,
    chunk_size: usize,
    logical_len: usize,
    /// The chunk manifest: one LE `content_digest` per chunk of the logical
    /// payload.
    manifest: &'a [u8],
}

impl FrameHeader<'_> {
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
fn parse_header(head: &[u8]) -> Result<FrameHeader<'_>, String> {
    let fixed = head.get(..HEADER_FIXED).ok_or("frame truncated in header")?;
    let magic = rd_u32(fixed, 0);
    if magic != FRAME_MAGIC {
        return Err(format!("bad frame magic {magic:#x}"));
    }
    let flags = fixed[12];
    if flags & FLAGS_RESERVED != 0 {
        return Err(format!("reserved frame flags {flags:#x}"));
    }
    let verbatim = flags & FLAG_VERBATIM != 0;
    let chunk_size = rd_u32(fixed, 13) as usize;
    let logical_len = le_word(&fixed[17..25]);
    let n_chunks = rd_u32(fixed, 25) as usize;
    let n_records = rd_u32(fixed, 29) as usize;
    if chunk_size == 0 {
        return Err("zero chunk size".into());
    }
    let expect = logical_len.div_ceil(chunk_size as u64);
    if n_chunks as u64 != expect {
        return Err(format!("chunk count {n_chunks} != expected {expect}"));
    }
    // A packed frame has one record per chunk, a verbatim one none.
    if n_records != if verbatim { 0 } else { n_chunks } {
        return Err(format!("{n_records} records for {n_chunks} chunks, verbatim: {verbatim}"));
    }
    if head.len() != HEADER_FIXED + 8 * n_chunks {
        return Err("frame head is not header + digest manifest".into());
    }
    if content_digest(&head[DIGEST_COVERS_FROM..]) != le_word(&fixed[4..12]) {
        return Err("header digest mismatch".into());
    }
    Ok(FrameHeader {
        verbatim,
        chunk_size,
        logical_len: logical_len as usize,
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
    /// Header + digest manifest.
    pub head: Bytes,
    /// The record stream, or — verbatim — the payload itself, by refcount.
    pub body: Bytes,
}

/// What pass 1 learned about one chunk: its digest and [`probe_chunk`]'s
/// verdict.
#[derive(Clone, Copy, Default)]
struct Probe {
    digest: u64,
    mask: u8,
    saving: usize,
}

/// Bytes `at` of the payload that `runs` make up, run `i` starting at
/// byte `starts[i]`: borrowed from the one run that holds them, else copied
/// into `buf` from the runs they straddle.
fn read_runs<'a>(runs: &'a [Run], starts: &[usize], at: Range<usize>, buf: &'a mut Vec<u8>) -> &'a [u8] {
    let of = |i: usize, r: Range<usize>| &runs[i][r.start - starts[i]..r.end - starts[i]];
    // The run the range starts in: the last to start at or before it.
    let mut i = starts.partition_point(|&s| s <= at.start) - 1;
    if at.end <= starts[i + 1] {
        return of(i, at);
    }
    buf.clear();
    while buf.len() < at.len() {
        buf.extend_from_slice(of(i, at.start + buf.len()..at.end.min(starts[i + 1])));
        i += 1;
    }
    buf
}

/// Encode one logical payload, given as its wire runs, into a frame.
/// `serialized` makes the payload in one buffer, the runs end to end; only
/// a verbatim frame calls it, for its body.
pub(crate) fn encode_entry(runs: &[Run], serialized: impl FnOnce() -> Bytes) -> EncodeOutcome {
    // Fan out over contiguous chunk ranges when there is enough to probe.
    let n_parts = match runs.iter().map(|run| run.len()).sum::<usize>() / CHUNK / PAR_MIN_CHUNKS {
        wide if wide >= 2 => pool::workers().min(wide),
        _ => 1,
    };
    encode_in_parts(runs, serialized, CHUNK, n_parts)
}

/// [`encode_entry`] in chunks of `chunk_size` bytes (a multiple of 8) over
/// `n_parts` contiguous chunk ranges; the frame depends neither on
/// `n_parts` nor on where the runs split the payload.
fn encode_in_parts(
    runs: &[Run],
    serialized: impl FnOnce() -> Bytes,
    chunk_size: usize,
    n_parts: usize,
) -> EncodeOutcome {
    let t0 = Instant::now();
    // Where each run starts, then the payload's length.
    let mut starts = vec![0];
    runs.iter().for_each(|run| starts.push(starts[starts.len() - 1] + run.len()));
    let len = starts[runs.len()];
    let n_chunks = len.div_ceil(chunk_size);
    let extent = |ci: usize| ci * chunk_size..len.min((ci + 1) * chunk_size);
    let part = |i: usize| pool::chunk_range(n_chunks, n_parts, i);

    // Pass 1 reads every chunk once, where it lies: its digest and what
    // packing it would save.
    let mut probes = vec![Probe::default(); n_chunks];
    pool::run_split(&mut probes, n_parts, part, |i, probes| {
        let mut buf = Vec::new();
        for (ci, p) in part(i).zip(probes) {
            let chunk = read_runs(runs, &starts, extent(ci), &mut buf);
            p.digest = content_digest(chunk);
            (p.mask, p.saving) = probe_chunk(chunk);
        }
    });

    // The frame's form, from pass 1 alone. A chunk packs if that saves its
    // share of the chunk, the frame packs if that saves its share of the
    // payload.
    let packable = |ci: usize| probes[ci].saving * PACK_MIN_SAVING >= extent(ci).len();
    // How many bytes packing chunk `ci` is proven to save.
    let saving = |ci: usize| if packable(ci) { probes[ci].saving } else { 0 };
    let saved: usize = (0..n_chunks).map(saving).sum();
    let verbatim = saved == 0 || saved * PACK_MIN_SAVING < len;

    // Pass 2 writes what the form calls for: for a verbatim frame the
    // serialized payload, whose buffer is the body; else one record per
    // chunk, in chunk order, each part into its own stretch of the body, as
    // long as pass 1 bounds its records. The stretches are then closed up.
    let body = if verbatim {
        serialized()
    } else {
        let bound = |i: usize| part(i).map(|ci| CHUNK_RECORD + extent(ci).len() - saving(ci)).sum();
        let bounds: Vec<usize> = (0..n_parts).map(bound).collect();
        let mut body = BytesMut::with_capacity(bounds.iter().sum());
        body.resize(bounds.iter().sum(), 0);
        let (mut stretches, mut rest) = (Vec::new(), &mut body[..]);
        for &bound in &bounds {
            let (stretch, tail) = std::mem::take(&mut rest).split_at_mut(bound);
            stretches.push((stretch, 0));
            rest = tail;
        }
        pool::run_split(&mut stretches, n_parts, |i| i..i + 1, |i, stretch| {
            let (dst, at) = &mut stretch[0];
            let (mut scratch, mut buf) = (Scratch::default(), Vec::new());
            for ci in part(i) {
                let chunk = read_runs(runs, &starts, extent(ci), &mut buf);
                let (mask, data) = if packable(ci) {
                    (probes[ci].mask, pack_chunk(chunk, probes[ci].mask, &mut scratch))
                } else {
                    (0, chunk)
                };
                let record = &mut dst[*at..*at + CHUNK_RECORD + data.len()];
                record[..4].copy_from_slice(&(ci as u32).to_le_bytes());
                record[4] = mask;
                record[5..CHUNK_RECORD].copy_from_slice(&(data.len() as u32).to_le_bytes());
                record[CHUNK_RECORD..].copy_from_slice(data);
                *at += record.len();
            }
        });
        let lens: Vec<usize> = stretches.into_iter().map(|(_, len)| len).collect();
        let (mut from, mut end) = (0, 0);
        for (bound, len) in bounds.into_iter().zip(lens) {
            body.copy_within(from..from + len, end);
            (from, end) = (from + bound, end + len);
        }
        body.resize(end, 0);
        body.freeze()
    };

    let mut head = BytesMut::with_capacity(HEADER_FIXED + 8 * n_chunks);
    head.put_u32_le(FRAME_MAGIC);
    head.put_u64_le(0); // header digest, below
    head.put_u8(if verbatim { FLAG_VERBATIM } else { 0 });
    head.put_u32_le(chunk_size as u32);
    head.put_u64_le(len as u64);
    head.put_u32_le(n_chunks as u32);
    head.put_u32_le(if verbatim { 0 } else { n_chunks as u32 });
    probes.iter().for_each(|p| head.put_u64_le(p.digest));
    let header_digest = content_digest(&head[DIGEST_COVERS_FROM..]);
    head[4..12].copy_from_slice(&header_digest.to_le_bytes());

    COUNTERS.logical_bytes.fetch_add(len as u64, Ordering::Relaxed);
    COUNTERS.wire_bytes.fetch_add((head.len() + body.len()) as u64, Ordering::Relaxed);
    COUNTERS.frames_full.fetch_add(1, Ordering::Relaxed);
    COUNTERS.frames_verbatim.fetch_add(u64::from(verbatim), Ordering::Relaxed);
    COUNTERS.encode_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    EncodeOutcome { head: head.freeze(), body }
}

/// Decode one frame back into its logical payload. After the header digest
/// (checked by [`parse_header`]) every chunk of the result — unpacked from
/// its record, or lying in a verbatim body, which is then handed back by
/// refcount — is verified against the manifest: a truncated or flipped
/// frame is corruption, never data.
pub(crate) fn decode_frame(head: &[u8], body: &Bytes) -> Result<Bytes, String> {
    let t0 = Instant::now();
    let h = parse_header(head)?;
    let n = h.logical_len;
    let verify = |ci: usize, chunk: &[u8]| {
        if content_digest(chunk) == h.digest(ci) {
            Ok(())
        } else {
            Err(format!("chunk {ci} does not match the manifest"))
        }
    };
    let extent = |ci: usize| ci * h.chunk_size..n.min((ci + 1) * h.chunk_size);
    let payload = if h.verbatim {
        if body.len() != n {
            return Err(format!("verbatim body len {} != logical len {n}", body.len()));
        }
        (0..h.n_chunks()).try_for_each(|ci| verify(ci, &body[extent(ci)]))?;
        body.clone()
    } else {
        let mut out = BytesMut::with_capacity(n);
        out.resize(n, 0);
        let mut scratch = Scratch::default();
        let mut records = &body[..];
        // Every chunk has exactly one record, in chunk order.
        for ci in 0..h.n_chunks() {
            let (rec, rest) =
                records.split_at_checked(CHUNK_RECORD).ok_or("frame truncated at chunk record")?;
            let (index, mask, len) = (rd_u32(rec, 0) as usize, rec[4], rd_u32(rec, 5) as usize);
            let (data, rest) = rest.split_at_checked(len).ok_or("frame truncated in chunk data")?;
            records = rest;
            if index != ci {
                return Err(format!("record {ci} is of chunk {index}"));
            }
            let dst = &mut out[extent(ci)];
            decompress_chunk(mask, data, dst, &mut scratch)?;
            verify(ci, dst)?;
        }
        if !records.is_empty() {
            return Err("trailing garbage after frame".into());
        }
        out.freeze()
    };
    COUNTERS.decode_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Encode a borrowed payload as the store encodes a serialized one.
    fn encode(payload: &[u8]) -> EncodeOutcome {
        let payload = Bytes::copy_from_slice(payload);
        encode_entry(&[Run::Written(payload.clone())], || payload)
    }

    /// Encode a borrowed payload in chunks of `chunk` bytes, in one part.
    fn encode_chunked(payload: &[u8], chunk: usize) -> EncodeOutcome {
        encode_runs(&[Run::View(payload)], chunk, 1)
    }

    /// `runs` encoded in chunks of `chunk` bytes over `n_parts` parts, a
    /// verbatim body made by joining them.
    fn encode_runs(runs: &[Run], chunk: usize, n_parts: usize) -> EncodeOutcome {
        let joined = || Bytes::from(runs.iter().flat_map(|run| run.to_vec()).collect::<Vec<u8>>());
        encode_in_parts(runs, joined, chunk, n_parts)
    }

    /// `decode_frame` on borrowed parts.
    fn decode_parts(head: &[u8], body: &[u8]) -> Result<Bytes, String> {
        decode_frame(head, &Bytes::copy_from_slice(body))
    }

    fn decode(frame: &EncodeOutcome) -> Result<Bytes, String> {
        decode_parts(&frame.head, &frame.body)
    }

    fn is_verbatim(frame: &EncodeOutcome) -> bool {
        parse_header(&frame.head).unwrap().verbatim
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
            let out = encode(payload);
            let wire = out.head.len() + out.body.len();
            assert!(wire <= before && !is_verbatim(&out), "{wire} > {before}");
            assert_eq!(&decode(&out).unwrap()[..], &payload[..]);
        }
        // Noise in [0, 1): sign and exponent bytes used to pack it down to
        // 58 499 bytes, 11 % off. Short of a quarter, it is now kept
        // verbatim: its own bytes plus a head of 33 + 8 per chunk.
        let out = encode(&noise);
        assert!(is_verbatim(&out));
        assert_eq!(out.body.len(), noise.len());
        assert_eq!(out.head.len(), HEADER_FIXED + 8 * noise.len().div_ceil(CHUNK));
        assert_eq!(out.head.len() + out.body.len(), 65_544 + 169);
        assert_eq!(&decode(&out).unwrap()[..], &noise[..]);
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
    fn a_payload_wide_enough_to_fan_out_encodes_to_the_same_frame() {
        // 3 MiB: two pool-sized ranges wherever the pool has two workers.
        let values: Vec<f64> = (0..3 << 17).map(|i| (i as f64).sqrt()).collect();
        let payload = Bytes::from(f64_payload(&values));
        let fanned = encode_entry(&[Run::View(&payload)], || payload.clone());
        let serial = encode_runs(&[Run::View(&payload)], CHUNK, 1);
        assert_eq!((&fanned.head, &fanned.body), (&serial.head, &serial.body));
        assert_eq!(&decode(&fanned).unwrap()[..], &payload[..]);
    }

    #[test]
    fn a_value_framed_from_its_runs_is_framed_as_its_serialization() {
        use apgas::serial::Serial;
        use gml_matrix::{builder, BlockData, DenseMatrix, MatrixBlock};
        // A CSR block packs (its indices do), a noise block does not; each
        // framed from the header and arrays where they lie, and from its
        // serialization, at every part count.
        let grid = gml_matrix::Grid::partition(4000, 300, 1, 1);
        let sparse = BlockData::Sparse(builder::random_csr(4000, 300, 9, 5));
        let dense = BlockData::Dense(DenseMatrix::from_vec(100, 300, noise_f64s(30_000)));
        for (data, packs) in [(sparse, true), (dense, false)] {
            let block = MatrixBlock { data, ..MatrixBlock::zeros(&grid, 0, 0, false) };
            let runs = apgas::serial::Runs::of(&block);
            assert!(runs.len() > 1, "a header, then the arrays in place");
            let whole = [Run::Written(block.to_bytes())];
            let one = encode_runs(&whole, CHUNK, 1);
            assert_eq!(is_verbatim(&one), !packs);
            for n_parts in [1, 2, 3, 7] {
                let framed = encode_runs(&runs, CHUNK, n_parts);
                assert_eq!((&framed.head, &framed.body), (&one.head, &one.body));
            }
            assert_eq!(decode(&one).unwrap(), whole[0][..]);
        }
    }

    fn noise_f64s(n: usize) -> Vec<f64> {
        let mut seed = 0x1357_2468_aceb_df01u64;
        (0..n).map(|_| f64::from_bits(xorshift(&mut seed) >> 2)).collect()
    }

    #[test]
    fn a_verbatim_body_is_the_payload_itself_going_in_and_coming_out() {
        let mut seed = 0x0f1e_2d3c_4b5a_6978u64;
        let payload = Bytes::from(noise_bytes(10_000, &mut seed));
        let out = encode_entry(&[Run::View(&payload)], || payload.clone());
        assert!(is_verbatim(&out));
        assert_eq!(out.body.as_ptr(), payload.as_ptr(), "stored by reference");
        let back = decode_frame(&out.head, &out.body).unwrap();
        assert_eq!(back.as_ptr(), payload.as_ptr(), "and handed back by reference");
        // A ramp packs: its body is a record stream of its own.
        assert!(!is_verbatim(&encode(&ramp_bytes(4096))));
    }

    /// A packed and a verbatim frame of five 64-byte chunks and a short one.
    fn one_frame_of_each_form() -> [EncodeOutcome; 2] {
        let mut seed = 0x2468_ace0_1357_9bdfu64;
        let packed = encode_chunked(&ramp_bytes(41), 64);
        let verbatim = encode_chunked(&noise_bytes(64 * 5 + 3, &mut seed), 64);
        assert!(!is_verbatim(&packed) && is_verbatim(&verbatim));
        [packed, verbatim]
    }

    #[test]
    fn every_single_bit_flip_and_every_truncation_fails_to_decode() {
        for frame in &one_frame_of_each_form() {
            assert!(decode(frame).is_ok());
            let (head, body) = (&frame.head[..], &frame.body[..]);
            // Damage one part at a time, the other intact.
            let with = |bad: &[u8], in_head: bool| {
                let (h, b) = if in_head { (bad, body) } else { (head, bad) };
                decode_parts(h, b)
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
        let [packed, _] = one_frame_of_each_form();
        let mut bad = packed.head.to_vec();
        bad[HEADER_FIXED] ^= 1;
        assert_eq!(decode_parts(&bad, &packed.body).unwrap_err(), "header digest mismatch");
        let mut long = packed.body.to_vec();
        long.push(0);
        assert!(decode_parts(&packed.head, &long).unwrap_err().contains("trailing garbage"));
    }

    #[test]
    fn a_head_with_a_reserved_flag_bit_is_corrupt_even_under_a_valid_digest() {
        for frame in &one_frame_of_each_form() {
            for bit in (0..8).filter(|bit| FLAGS_RESERVED >> bit & 1 == 1) {
                let mut head = frame.head.to_vec();
                head[12] |= 1 << bit;
                let digest = content_digest(&head[DIGEST_COVERS_FROM..]);
                head[4..12].copy_from_slice(&digest.to_le_bytes());
                let err = decode_parts(&head, &frame.body).unwrap_err();
                assert!(err.contains("reserved frame flags"), "bit {bit}: {err}");
            }
        }
    }

    #[test]
    fn full_frame_roundtrips_bit_identically() {
        for payload in [
            vec![],
            vec![1u8],
            vec![0u8; 5000],
            (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect::<Vec<u8>>(),
            f64_payload(&[f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, 5e-324]),
        ] {
            assert_eq!(&decode(&encode(&payload)).unwrap()[..], &payload[..]);
        }
    }

    #[test]
    fn smooth_f64_run_compresses() {
        let values: Vec<f64> = (0..4096).map(|i| 1.0 + i as f64 * 1e-9).collect();
        let payload = f64_payload(&values);
        let out = encode(&payload);
        let wire = out.head.len() + out.body.len();
        assert!(wire < payload.len() / 2, "smooth run should compress >2x: {wire}");
        assert_eq!(&decode(&out).unwrap()[..], &payload[..]);
    }

    #[test]
    fn decode_detects_corruption() {
        let payload: Vec<u8> = (0..5000u32).flat_map(|i| i.to_le_bytes()).collect();
        let out = encode(&payload);
        let mut bad = out.body.to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(decode_parts(&out.head, &bad).is_err(), "bit flip must not decode silently");
        assert!(decode_parts(&out.head, &out.body[..out.body.len() - 3]).is_err());
        assert!(decode_parts(b"not a frame", &out.body).is_err());
    }

    #[test]
    fn counters_accumulate() {
        let before = counters();
        let _ = encode(&vec![5u8; 4096]);
        let mut seed = 0x7777_1111_5555_3333u64;
        let _ = encode(&noise_bytes(4096, &mut seed));
        let d = counters().since(&before);
        assert!(d.logical_bytes >= 2 * 4096);
        assert!(d.wire_bytes > 4096);
        assert!(d.frames_full >= 2, "a verbatim frame is counted as a frame too");
        assert!(d.frames_verbatim >= 1 && d.frames_verbatim < d.frames_full);
        assert_eq!(d.frames_delta, 0);
        let s = apgas::metrics::exposition(&families());
        assert!(s.contains("gml_ckpt_wire_bytes_total"));
        assert!(s.contains("gml_ckpt_frames_total{kind=\"full\"}"));
        assert!(s.contains("gml_ckpt_frames_total{kind=\"verbatim\"}"));
        assert!(s.contains("gml_ckpt_compression_ratio"));
    }

    proptest! {
        // Adversarial payload roundtrip: NaN/±0/inf/denormal f64 soups of
        // every alignment (1–7 byte tails included), empty and 1-element
        // included — decode must be bit-identical, before and after a
        // one-byte change.
        #[test]
        fn codec_roundtrip_bit_identity(
            specials in prop::collection::vec(0u8..8, 0..64),
            raw_tail in prop::collection::vec(any::<u8>(), 0..41),
            chunk_words in 8usize..130,
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
            // Every multiple of 8 from 64 up, most of them not a multiple
            // of the 64-byte transpose group.
            let chunk = 8 * chunk_words;
            let round = decode(&encode_chunked(&payload, chunk)).unwrap();
            prop_assert_eq!(&round[..], &payload[..]);
            let mut next = payload.clone();
            if !next.is_empty() {
                let mid = next.len() / 2;
                next[mid] = next[mid].wrapping_add(1);
            }
            let got = decode(&encode_chunked(&next, chunk)).unwrap();
            prop_assert_eq!(&got[..], &next[..]);
            prop_assert_eq!(&decode(&encode(&next)).unwrap()[..], &next[..]);
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
            let one = encode_runs(&[Run::View(&payload)], chunk, 1);
            // Half and half saves 17 – 28 %, on either side of the line.
            if shape != 2 {
                prop_assert_eq!(is_verbatim(&one), shape != 1);
            }
            prop_assert_eq!(&decode(&one).unwrap()[..], &payload[..]);
            for n_parts in [2, 3, 7] {
                let many = encode_runs(&[Run::View(&payload)], chunk, n_parts);
                prop_assert_eq!((&many.head, &many.body), (&one.head, &one.body));
            }
        }

        // The same frames from the payload split into runs anywhere: empty
        // runs, runs shorter than a chunk and chunks spread over three runs
        // and more, of either form, at every part count. A verbatim body is
        // the serialized payload itself.
        #[test]
        fn a_frame_does_not_depend_on_where_its_runs_split_the_payload(
            shape in 0u8..3,
            chunk_words in 8usize..40,
            seed in any::<u64>(),
            tail in 0usize..8,
            cuts in prop::collection::vec((0u8..4, any::<u64>()), 0..40),
        ) {
            let chunk = 8 * chunk_words;
            let mut seed = seed | 1;
            let mut payload: Vec<u8> = Vec::new();
            for c in 0..12 {
                let ramp = shape == 1 || (shape == 2 && c % 2 == 0);
                let bytes = if ramp { ramp_bytes(chunk_words) } else { noise_bytes(chunk, &mut seed) };
                payload.extend(bytes);
            }
            payload.extend(noise_bytes(tail, &mut seed));
            // Each cut ends a run: empty, a few bytes, under a chunk or a
            // few chunks long.
            let mut runs = Vec::new();
            let mut at = 0;
            for &(size, r) in &cuts {
                let len = match size {
                    0 => 0,
                    1 => r as usize % 8 + 1,
                    2 => r as usize % chunk,
                    _ => r as usize % (3 * chunk),
                };
                let end = payload.len().min(at + len);
                runs.push(Run::View(&payload[at..end]));
                at = end;
            }
            runs.push(Run::View(&payload[at..]));
            let whole = Bytes::from(payload.clone());
            let one = encode_in_parts(&[Run::View(&payload)], || whole.clone(), chunk, 1);
            // Half and half lies on either side of the line.
            if shape != 2 {
                prop_assert_eq!(is_verbatim(&one), shape == 0);
            }
            if is_verbatim(&one) {
                prop_assert_eq!(one.body.as_ptr(), whole.as_ptr(), "a lone run is the body");
            }
            // And every chunk spread over many runs, with empty ones between.
            let fine: Vec<Run> =
                payload.chunks(5).flat_map(|c| [Run::View(c), Run::View(&[])]).collect();
            for n_parts in [1, 2, 3, 7] {
                for runs in [&runs, &fine] {
                    let split = encode_runs(runs, chunk, n_parts);
                    prop_assert_eq!((&split.head, &split.body), (&one.head, &one.body));
                }
            }
        }
    }
}
