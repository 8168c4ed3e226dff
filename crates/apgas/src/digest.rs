//! Content digests, shared by every output-validation surface.
//!
//! Two digests live here, both exact over the little-endian byte pattern
//! (no float rounding: `f64::to_bits` hashes the representation, so `0.0`
//! and `-0.0` differ and NaN payloads are preserved) and stable across
//! platforms of either endianness:
//!
//! * **FNV-1a** ([`fnv1a_bytes`], [`fnv1a_f64s`], [`Fnv1a`]) — one multiply
//!   per byte. The parity gates in `crates/bench`, the executor's
//!   `ChecksummedStep` hook and the end-to-end benchmark print and compare
//!   it, so its values are part of their output and never change.
//! * **[`content_digest`]** — four independent multiply-rotate lanes over
//!   64-bit words, eight bytes per step. The checkpoint codec's chunk
//!   manifest and the debug-build check of a read-only object's live
//!   blocks hash whole payloads with it. Every lane step is a bijection of the lane state and injective in
//!   the word it absorbs, the lanes are combined by an operation that is a
//!   bijection in each lane, and the length is folded in before a bijective
//!   finalizer — so two payloads of equal length that differ in exactly
//!   one aligned word (a flipped bit, a torn store) **never** collide, the
//!   guarantee FNV-1a gives per byte. Everything else collides with
//!   probability about 2⁻⁶⁴.
//!
//! Both are *error-detection* checksums, not cryptographic hashes: they
//! catch bit flips, truncation and divergent computations, not adversaries.

/// FNV-1a offset basis (64-bit).
pub const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// FNV-1a prime (64-bit).
pub const FNV_PRIME: u64 = 0x100000001b3;

/// A running FNV-1a digest, for feeding heterogeneous data incrementally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// A fresh digest at the offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold raw bytes into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Fold an `f64` slice in by bit pattern (little-endian), matching
    /// [`fnv1a_f64s`].
    pub fn write_f64s(&mut self, values: &[f64]) {
        for v in values {
            self.write(&v.to_bits().to_le_bytes());
        }
    }

    /// Fold a `u64` in (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest value so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a over raw bytes.
pub fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// One-shot FNV-1a over an `f64` slice by bit pattern — byte-for-byte the
/// digest the parity gates (`kernel_parity`, `checkpoint_parity`) have
/// always printed, now shared instead of copied.
pub fn fnv1a_f64s(values: &[f64]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_f64s(values);
    h.finish()
}

/// Lane seeds of [`content_digest`]: four distinct odd constants, so equal
/// words landing in different lanes hash differently.
const LANE_SEED: [u64; 4] = [
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0x27d4_eb2f_1656_67c5,
];

/// Lane multiplier (odd, so multiplication is a bijection mod 2⁶⁴).
const LANE_MUL: u64 = 0xff51_afd7_ed55_8ccd;

/// One lane step: xor the word in, rotate, multiply by an odd constant.
/// Each of the three is a bijection of the state for a fixed word and the
/// xor is injective in the word for a fixed state.
#[inline(always)]
fn lane_step(state: u64, word: u64) -> u64 {
    (state ^ word).rotate_left(29).wrapping_mul(LANE_MUL)
}

#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte word"))
}

/// Word-parallel 64-bit content digest of `bytes` (see the module docs for
/// its guarantee). Word `i` of the payload goes to lane `i % 4`; a 1–7 byte
/// tail is zero-padded into one last word, and the length is folded in so
/// the padding (or appended zero bytes) cannot go unnoticed.
pub fn content_digest(bytes: &[u8]) -> u64 {
    let mut lanes = LANE_SEED;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = lane_step(*lane, le_word(word));
        }
    }
    // Under 32 bytes remain: at most four words, the last one short.
    for (lane, word) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        let mut padded = [0u8; 8];
        padded[..word.len()].copy_from_slice(word);
        *lane = lane_step(*lane, u64::from_le_bytes(padded));
    }
    // Addition is a bijection in each lane with the others fixed; the
    // finalizer (xor-shift and odd multiplies) is a bijection of the sum.
    let mut h = lanes[0]
        .rotate_left(1)
        .wrapping_add(lanes[1].rotate_left(7))
        .wrapping_add(lanes[2].rotate_left(12))
        .wrapping_add(lanes[3].rotate_left(18))
        .wrapping_add((bytes.len() as u64).wrapping_mul(LANE_SEED[0]));
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 29;
    h = h.wrapping_mul(LANE_MUL);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Classic FNV-1a test vectors.
        assert_eq!(fnv1a_bytes(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_bytes(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_bytes(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn f64_digest_is_bit_exact() {
        // Same bytes, same digest — incremental and one-shot agree.
        let vals = [1.0, -0.0, f64::NAN, 3.5e-12];
        let mut inc = Fnv1a::new();
        for v in vals {
            inc.write_f64s(&[v]);
        }
        assert_eq!(inc.finish(), fnv1a_f64s(&vals));
        // Bit-pattern hashing distinguishes 0.0 from -0.0.
        assert_ne!(fnv1a_f64s(&[0.0]), fnv1a_f64s(&[-0.0]));
        // A single flipped mantissa bit changes the digest.
        let flipped = f64::from_bits(1.0f64.to_bits() ^ 1);
        assert_ne!(fnv1a_f64s(&[1.0]), fnv1a_f64s(&[flipped]));
    }

    #[test]
    fn u64_and_byte_feeds_compose() {
        let mut a = Fnv1a::new();
        a.write_u64(0x0102030405060708);
        let mut b = Fnv1a::new();
        b.write(&[0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01]);
        assert_eq!(a.finish(), b.finish());
    }

    /// Deterministic test payload (xorshift64).
    fn noise(len: usize, mut x: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn content_digest_sees_every_single_bit_flip() {
        // Lengths 0..=40 cover every block/word/tail split, non-multiples of
        // eight included; the longer ones span several 32-byte blocks.
        for len in (0..=40).chain([63, 64, 65, 257, 1000]) {
            let base = noise(len, 0x1234_5678_9abc_def1 + len as u64);
            let d = content_digest(&base);
            assert_eq!(d, content_digest(&base.clone()), "deterministic");
            for bit in 0..len * 8 {
                let mut flipped = base.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(content_digest(&flipped), d, "len {len} bit {bit}");
            }
        }
    }

    #[test]
    fn content_digest_sees_swapped_words_and_appended_zeros() {
        let base = noise(256, 0xfeed_beef_cafe_f00d);
        let d = content_digest(&base);
        for (a, b) in [(0, 1), (0, 4), (3, 9), (30, 31), (5, 20)] {
            let mut swapped = base.clone();
            for k in 0..8 {
                swapped.swap(a * 8 + k, b * 8 + k);
            }
            assert_ne!(content_digest(&swapped), d, "words {a} and {b} swapped");
        }
        // Zero bytes pad the tail word, so only the folded length tells
        // them apart — for every starting length, from the empty payload on.
        for len in 0..=40 {
            let mut grown = noise(len, 77 + len as u64);
            let mut seen = vec![content_digest(&grown)];
            for _ in 0..16 {
                grown.push(0);
                let next = content_digest(&grown);
                assert!(!seen.contains(&next), "len {len}: appended zeros collide");
                seen.push(next);
            }
        }
    }
}
