//! Property tests for the bulk serialization fast path: for every
//! specialized element type, the single-`memcpy` encode must be
//! byte-identical to the element-wise reference encoding (the big-endian
//! fallback), and decode must round-trip exactly — including non-finite
//! floats, whose bit patterns must survive untouched.

use apgas::serial::{read_vec, write_slice, Serial};
use bytes::BytesMut;
use proptest::prelude::*;

/// The element-wise reference codec the bulk path must match byte for byte:
/// what a big-endian target runs, written out so that it runs here too.
mod fallback {
    use apgas::serial::Serial;
    use bytes::{Buf, BufMut, Bytes, BytesMut};

    /// Element-wise length-prefixed encode.
    pub fn write_slice<T: Serial>(data: &[T], buf: &mut BytesMut) {
        buf.put_u64_le(data.len() as u64);
        for v in data {
            v.write(buf);
        }
    }

    /// Element-wise length-prefixed decode.
    pub fn read_vec<T: Serial>(buf: &mut Bytes) -> Vec<T> {
        let n = buf.get_u64_le() as usize;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::read(buf));
        }
        out
    }
}

/// Deterministically expand a seed into `n` raw 64-bit patterns
/// (SplitMix64), so the suites cover arbitrary bit patterns — not just
/// "nice" values — without needing a stateful RNG in the strategy.
fn patterns(seed: u64, n: usize) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

/// Assert bulk encode == element-wise reference encode, and that both the
/// bulk and element-wise decoders recover the input from that encoding.
fn assert_bulk_matches_reference<T>(data: Vec<T>)
where
    T: apgas::serial::SerialElem + PartialEq + std::fmt::Debug + Clone,
{
    let mut bulk = BytesMut::new();
    write_slice(&data, &mut bulk);
    let mut reference = BytesMut::new();
    fallback::write_slice(&data, &mut reference);
    assert_eq!(bulk.as_ref(), reference.as_ref(), "bulk and element-wise bytes differ");

    let mut via_bulk = bulk.freeze();
    let decoded: Vec<T> = read_vec(&mut via_bulk);
    assert_eq!(decoded, data, "bulk decode mismatch");
    assert!(via_bulk.is_empty(), "bulk decode left trailing bytes");

    let mut via_ref = reference.freeze();
    let decoded: Vec<T> = fallback::read_vec(&mut via_ref);
    assert_eq!(decoded, data, "element-wise decode mismatch");
    assert!(via_ref.is_empty(), "element-wise decode left trailing bytes");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn f64_bulk_is_byte_identical(seed in any::<u64>(), n in 0usize..600) {
        // Raw bit patterns: exercises NaNs, infinities, subnormals.
        let data: Vec<f64> = patterns(seed, n).into_iter().map(f64::from_bits).collect();
        let mut bulk = BytesMut::new();
        write_slice(&data, &mut bulk);
        let mut reference = BytesMut::new();
        fallback::write_slice(&data, &mut reference);
        prop_assert_eq!(bulk.as_ref(), reference.as_ref());
        // Round-trip compared bitwise (NaN != NaN under PartialEq).
        let decoded: Vec<f64> = read_vec(&mut bulk.freeze());
        prop_assert_eq!(decoded.len(), data.len());
        for (d, x) in decoded.iter().zip(&data) {
            prop_assert_eq!(d.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn u64_bulk_is_byte_identical(seed in any::<u64>(), n in 0usize..600) {
        assert_bulk_matches_reference(patterns(seed, n));
    }

    #[test]
    fn i64_bulk_is_byte_identical(seed in any::<u64>(), n in 0usize..600) {
        assert_bulk_matches_reference(
            patterns(seed, n).into_iter().map(|p| p as i64).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn u32_bulk_is_byte_identical(seed in any::<u64>(), n in 0usize..600) {
        assert_bulk_matches_reference(
            patterns(seed, n).into_iter().map(|p| p as u32).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn u16_bulk_is_byte_identical(seed in any::<u64>(), n in 0usize..600) {
        assert_bulk_matches_reference(
            patterns(seed, n).into_iter().map(|p| p as u16).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn u8_bulk_is_byte_identical(seed in any::<u64>(), n in 0usize..600) {
        assert_bulk_matches_reference(
            patterns(seed, n).into_iter().map(|p| p as u8).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn usize_bulk_is_byte_identical(seed in any::<u64>(), n in 0usize..600) {
        assert_bulk_matches_reference(
            patterns(seed, n).into_iter().map(|p| p as usize).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn vec_serial_uses_the_same_wire_format(seed in any::<u64>(), n in 0usize..300) {
        // Vec<T>::write must produce the identical stream (length prefix +
        // slice body) as the standalone helpers, on both paths.
        let data: Vec<u64> = patterns(seed, n);
        let mut via_vec = BytesMut::new();
        data.write(&mut via_vec);
        let mut via_helper = BytesMut::new();
        write_slice(&data, &mut via_helper);
        prop_assert_eq!(via_vec.as_ref(), via_helper.as_ref());
        prop_assert_eq!(via_vec.len(), data.byte_len());
    }

    #[test]
    fn composite_elements_round_trip(seed in any::<u64>(), n in 0usize..40) {
        // Element types without a bulk override flow through the same
        // Vec<T> impl; they must keep round-tripping.
        let data: Vec<(u64, String)> = patterns(seed, n)
            .into_iter()
            .map(|p| (p, format!("k{:x}", p % 4096)))
            .collect();
        let back = Vec::<(u64, String)>::from_bytes(data.to_bytes());
        prop_assert_eq!(back, data);
    }
}
