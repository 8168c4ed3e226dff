//! Byte-level serialization for cross-place payloads.
//!
//! In the real system a place is an OS process, so every matrix block or
//! vector segment that crosses a place boundary is serialized onto the wire.
//! The simulation keeps that cost honest: the GML layers move numeric data
//! between places exclusively as [`bytes::Bytes`] buffers produced by this
//! codec, never as shared references. Snapshot/restore costs in the paper's
//! Table III and Figs 5–7 are dominated by exactly these copies — which is
//! why the codec must be as close to memcpy speed as the hardware allows.
//!
//! # The bulk fast path
//!
//! The wire format is a private **little-endian** stream. On little-endian
//! targets (every machine this simulation realistically runs on) the wire
//! image of a `&[f64]`/`&[u64]`/... payload is byte-identical to its
//! in-memory representation, so [`SerialElem`] moves whole slices with a
//! single `put_slice`/`copy_to_slice` — one `memcpy` per payload instead of
//! one bounds-checked push per element. Big-endian targets transparently
//! fall back to an element-wise `to_le_bytes` loop, the [`SerialElem`]
//! defaults; `tests/serial_bulk_properties.rs` holds the bulk path to that
//! element-wise reference byte for byte.
//! Encode buffers come from the process-wide pool inside the vendored
//! `bytes` crate, so steady-state checkpoint loops reallocate nothing.
//!
//! # Wire runs
//!
//! [`Serial::write_runs`] yields a value's wire image as [`Run`]s whose
//! concatenation is its serialization: a small written header and then,
//! for the types that hold big numeric arrays, each array's LE byte view
//! where it lies (the same view the bulk `write_slice` copies from). A
//! reader that only needs the image — the checkpoint codec probing and
//! packing chunks — then needs no serialized copy of the value.
//!
//! The fast path changes how many *intermediate* copies the codec makes,
//! never how many wire crossings the simulation charges for: each place
//! crossing still materializes exactly one freshly-owned buffer (see
//! `gml-core`'s store for the one-honest-copy invariant).
//!
//! The format is not a stable interchange format and both ends are always
//! the same binary, so decode errors are programming errors and panic.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Types that can be written to / read from a cross-place byte stream.
pub trait Serial: Sized {
    /// Append this value to `buf`.
    fn write(&self, buf: &mut BytesMut);
    /// Read one value from the front of `buf`.
    fn read(buf: &mut Bytes) -> Self;
    /// Exact encoded size in bytes, used to pre-reserve buffers.
    fn byte_len(&self) -> usize;

    /// Serialize a single value into a freshly owned buffer sized by
    /// `byte_len()` (a parked one when the `bytes` pool has a fit, so a
    /// steady-state checkpoint loop reallocates nothing).
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.byte_len());
        self.write(&mut buf);
        buf.freeze()
    }

    /// Deserialize a single value, asserting the buffer is fully consumed.
    fn from_bytes(bytes: Bytes) -> Self {
        let mut buf = bytes;
        let v = Self::read(&mut buf);
        debug_assert!(buf.is_empty(), "trailing bytes after deserialization");
        v
    }

    /// Append this value's wire image to `runs`, as byte runs whose
    /// concatenation is exactly what [`write`](Self::write) writes. The
    /// default writes the serialization: alone in [`Runs`], one run. A type
    /// that holds big numeric arrays overrides it to yield its small header
    /// and then the arrays viewed where they lie ([`Runs::put_elems`]), so
    /// that a reader of the image — the checkpoint codec — needs no
    /// serialized copy of the value.
    fn write_runs<'a>(&'a self, runs: &mut Runs<'a>) {
        runs.put(self);
    }
}

/// One run of a value's wire image ([`Serial::write_runs`]).
pub enum Run<'a> {
    /// Bytes of the value, viewed where they lie.
    View(&'a [u8]),
    /// Bytes written for the image: a header, or a whole serialization.
    Written(Bytes),
}

impl std::ops::Deref for Run<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            Run::View(view) => view,
            Run::Written(bytes) => bytes,
        }
    }
}

/// A value's wire image being built as [`Run`]s: what is written collects in
/// one open run, which a view closes.
#[derive(Default)]
pub struct Runs<'a> {
    runs: Vec<Run<'a>>,
    open: BytesMut,
}

impl<'a> Runs<'a> {
    /// `value`'s wire image as runs.
    pub fn of<T: Serial>(value: &'a T) -> Vec<Run<'a>> {
        let mut runs = Runs::default();
        value.write_runs(&mut runs);
        runs.close();
        runs.runs
    }

    /// Append `value` serialized.
    pub fn put<T: Serial>(&mut self, value: &T) {
        self.open.reserve(value.byte_len());
        value.write(&mut self.open);
    }

    /// Append `data`'s elements as [`SerialElem::write_slice`] writes them
    /// (no length prefix): viewed where they lie when that is their wire
    /// image, else written.
    pub fn put_elems<T: SerialElem>(&mut self, data: &'a [T]) {
        match T::wire_view(data) {
            Some(view) => {
                self.close();
                self.runs.push(Run::View(view));
            }
            None => T::write_slice(data, &mut self.open),
        }
    }

    fn close(&mut self) {
        if !self.open.is_empty() {
            self.runs.push(Run::Written(std::mem::take(&mut self.open).freeze()));
        }
    }
}

macro_rules! impl_serial_primitive {
    ($t:ty, $put:ident, $get:ident, $len:expr) => {
        impl Serial for $t {
            #[inline]
            fn write(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }
            #[inline]
            fn read(buf: &mut Bytes) -> Self {
                buf.$get()
            }
            #[inline]
            fn byte_len(&self) -> usize {
                $len
            }
        }
    };
}

impl_serial_primitive!(u8, put_u8, get_u8, 1);
impl_serial_primitive!(u16, put_u16_le, get_u16_le, 2);
impl_serial_primitive!(u32, put_u32_le, get_u32_le, 4);
impl_serial_primitive!(u64, put_u64_le, get_u64_le, 8);
impl_serial_primitive!(i64, put_i64_le, get_i64_le, 8);
impl_serial_primitive!(f64, put_f64_le, get_f64_le, 8);

impl Serial for usize {
    #[inline]
    fn write(&self, buf: &mut BytesMut) {
        buf.put_u64_le(*self as u64);
    }
    #[inline]
    fn read(buf: &mut Bytes) -> Self {
        buf.get_u64_le() as usize
    }
    #[inline]
    fn byte_len(&self) -> usize {
        8
    }
}

impl Serial for bool {
    #[inline]
    fn write(&self, buf: &mut BytesMut) {
        buf.put_u8(*self as u8);
    }
    #[inline]
    fn read(buf: &mut Bytes) -> Self {
        buf.get_u8() != 0
    }
    #[inline]
    fn byte_len(&self) -> usize {
        1
    }
}

impl Serial for String {
    fn write(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.len() as u64);
        buf.put_slice(self.as_bytes());
    }
    fn read(buf: &mut Bytes) -> Self {
        let n = buf.get_u64_le() as usize;
        let raw = buf.split_to(n);
        // Validate in place on the split slice; copy into the String once.
        std::str::from_utf8(&raw).expect("valid utf-8 in serial stream").to_owned()
    }
    fn byte_len(&self) -> usize {
        8 + self.len()
    }
}

// ---------------------------------------------------------------------------
// SerialElem: element types with (optionally bulk) slice codecs
// ---------------------------------------------------------------------------

/// Slice-level codec for element types of `Vec<T>`.
///
/// The default methods are the element-wise reference encoding; fixed-width
/// primitives override them with single-`memcpy` bulk transfers whose byte
/// output is identical (asserted by the property tests in
/// `tests/serial_bulk_properties.rs`). Rust has no stable specialization, so
/// this trait *is* the specialization point: `Vec<T>: Serial` routes through
/// it, and composite element types (strings, options, tuples, nested
/// vectors) just keep the defaults.
pub trait SerialElem: Serial {
    /// `data`'s memory, where it is also its wire image (no length prefix):
    /// on a little-endian target, for the fixed-width primitives.
    fn wire_view(_data: &[Self]) -> Option<&[u8]> {
        None
    }

    /// Append all elements of `data` (no length prefix) to `buf`: its
    /// [`wire_view`](Self::wire_view) in bulk, else element by element.
    fn write_slice(data: &[Self], buf: &mut BytesMut) {
        match Self::wire_view(data) {
            Some(raw) => bulk_write_bytes(raw, buf),
            None => data.iter().for_each(|v| v.write(buf)),
        }
    }

    /// Read `n` elements from `buf`, appending to `out`.
    fn read_slice_into(n: usize, buf: &mut Bytes, out: &mut Vec<Self>) {
        out.reserve(n);
        for _ in 0..n {
            out.push(Self::read(buf));
        }
    }

    /// Exact encoded size of `data` (no length prefix).
    fn slice_byte_len(data: &[Self]) -> usize {
        data.iter().map(Serial::byte_len).sum()
    }
}

/// Payload size above which the bulk `memcpy` fans out to the compute pool
/// (4 MiB: at least four [`pool::PAR_COPY_CHUNK`](crate::pool::PAR_COPY_CHUNK)
/// chunks). Below it a single `memcpy` wins outright.
const PAR_BULK_MIN: usize = 4 << 20;

/// Append `raw` to `buf` — one `memcpy` for small payloads, a pool-chunked
/// copy above [`PAR_BULK_MIN`]. Byte-identical either way, for any worker
/// count: the chunks are fixed-size disjoint ranges of one copy.
fn bulk_write_bytes(raw: &[u8], buf: &mut BytesMut) {
    if raw.len() < PAR_BULK_MIN {
        buf.put_slice(raw);
        return;
    }
    buf.reserve(raw.len());
    let start = buf.len();
    crate::pool::copy_into_uninit(raw, &mut buf.spare_capacity_mut()[..raw.len()]);
    // Safety: the copy above initialized exactly `raw.len()` bytes of the
    // spare capacity reserved for them.
    unsafe { buf.set_len(start + raw.len()) };
}

/// Fill `dst` with the next `dst.len()` bytes of `buf`, pool-chunked above
/// [`PAR_BULK_MIN`]; the serial path is `copy_to_slice` unchanged.
#[cfg(target_endian = "little")]
fn bulk_read_bytes(buf: &mut Bytes, dst: &mut [u8]) {
    if dst.len() < PAR_BULK_MIN {
        buf.copy_to_slice(dst);
        return;
    }
    let n = dst.len();
    // Safety: a `&mut [u8]` is also valid uninitialized storage, and the
    // pool copy writes every byte exactly once.
    let uninit = unsafe {
        std::slice::from_raw_parts_mut(dst.as_mut_ptr().cast::<std::mem::MaybeUninit<u8>>(), n)
    };
    crate::pool::copy_into_uninit(&buf.chunk()[..n], uninit);
    buf.advance(n);
}

mod sealed {
    /// Fixed-width numeric types without padding, whose every byte pattern
    /// is a value.
    pub trait Plain: Copy {}
}

/// `data`'s memory as bytes: on a little-endian target, its LE wire image.
fn le_view<T: sealed::Plain>(data: &[T]) -> &[u8] {
    // Safety: `Plain` is implemented only below, for padding-free
    // fixed-width numeric types, so every byte of the slice is initialized
    // and reading it as `u8` is valid for the slice's lifetime.
    unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), std::mem::size_of_val(data)) }
}

/// Marks a primitive as bit-identical between memory and the LE wire format,
/// enabling the whole-slice `memcpy` fast path on little-endian targets.
/// Big-endian targets keep the element-wise default (still correct: the wire
/// stays LE via `to_le_bytes` in the per-element codecs).
macro_rules! impl_serial_elem_bulk {
    ($t:ty) => {
        impl sealed::Plain for $t {}

        impl SerialElem for $t {
            #[cfg(target_endian = "little")]
            #[inline]
            fn wire_view(data: &[Self]) -> Option<&[u8]> {
                Some(le_view(data))
            }

            #[cfg(target_endian = "little")]
            #[inline]
            fn read_slice_into(n: usize, buf: &mut Bytes, out: &mut Vec<Self>) {
                let byte_len = n * std::mem::size_of::<$t>();
                assert!(buf.remaining() >= byte_len, "buffer underflow in bulk read");
                out.reserve(n);
                let start = out.len();
                // Safety: the spare capacity reserved above is at least n
                // elements; we fill exactly n * size_of::<$t>() bytes of it
                // with a valid LE image (any byte pattern is a valid $t) and
                // only then extend the length over the initialized region.
                unsafe {
                    let dst = std::slice::from_raw_parts_mut(
                        out.as_mut_ptr().add(start) as *mut u8,
                        byte_len,
                    );
                    bulk_read_bytes(buf, dst);
                    out.set_len(start + n);
                }
            }

            #[inline]
            fn slice_byte_len(data: &[Self]) -> usize {
                std::mem::size_of::<$t>() * data.len()
            }
        }
    };
}

impl_serial_elem_bulk!(u8);
impl_serial_elem_bulk!(u16);
impl_serial_elem_bulk!(u32);
impl_serial_elem_bulk!(u64);
impl_serial_elem_bulk!(i64);
impl_serial_elem_bulk!(f64);
// usize is wire-encoded as u64; its in-memory image matches only on 64-bit
// targets, where it is a u64 in all but name.
#[cfg(target_pointer_width = "64")]
impl_serial_elem_bulk!(usize);
#[cfg(not(target_pointer_width = "64"))]
impl SerialElem for usize {}

// Composite element types keep the element-wise defaults.
impl SerialElem for bool {}
impl SerialElem for String {}
impl<T: Serial> SerialElem for Option<T> {}
impl<T: SerialElem> SerialElem for Vec<T> {}
impl<A: Serial, B: Serial> SerialElem for (A, B) {}
impl<A: Serial, B: Serial, C: Serial> SerialElem for (A, B, C) {}

impl<T: SerialElem> Serial for Vec<T> {
    fn write(&self, buf: &mut BytesMut) {
        buf.reserve(self.byte_len());
        buf.put_u64_le(self.len() as u64);
        T::write_slice(self, buf);
    }
    fn read(buf: &mut Bytes) -> Self {
        let n = buf.get_u64_le() as usize;
        let mut out = Vec::new();
        T::read_slice_into(n, buf, &mut out);
        out
    }
    fn byte_len(&self) -> usize {
        8 + T::slice_byte_len(self)
    }
}

impl<T: Serial> Serial for Option<T> {
    fn write(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.write(buf);
            }
        }
    }
    fn read(buf: &mut Bytes) -> Self {
        match buf.get_u8() {
            0 => None,
            _ => Some(T::read(buf)),
        }
    }
    fn byte_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Serial::byte_len)
    }
}

impl<A: Serial, B: Serial> Serial for (A, B) {
    fn write(&self, buf: &mut BytesMut) {
        self.0.write(buf);
        self.1.write(buf);
    }
    fn read(buf: &mut Bytes) -> Self {
        let a = A::read(buf);
        let b = B::read(buf);
        (a, b)
    }
    fn byte_len(&self) -> usize {
        self.0.byte_len() + self.1.byte_len()
    }
}

impl<A: Serial, B: Serial, C: Serial> Serial for (A, B, C) {
    fn write(&self, buf: &mut BytesMut) {
        self.0.write(buf);
        self.1.write(buf);
        self.2.write(buf);
    }
    fn read(buf: &mut Bytes) -> Self {
        let a = A::read(buf);
        let b = B::read(buf);
        let c = C::read(buf);
        (a, b, c)
    }
    fn byte_len(&self) -> usize {
        self.0.byte_len() + self.1.byte_len() + self.2.byte_len()
    }
}

// ---------------------------------------------------------------------------
// Length-prefixed slice helpers (the data-plane codecs' building blocks)
// ---------------------------------------------------------------------------

/// Append a length-prefixed slice using the bulk fast path.
pub fn write_slice<T: SerialElem>(data: &[T], buf: &mut BytesMut) {
    buf.reserve(8 + T::slice_byte_len(data));
    buf.put_u64_le(data.len() as u64);
    T::write_slice(data, buf);
}

/// Read a length-prefixed slice using the bulk fast path.
pub fn read_vec<T: SerialElem>(buf: &mut Bytes) -> Vec<T> {
    let n = buf.get_u64_le() as usize;
    let mut out = Vec::new();
    T::read_slice_into(n, buf, &mut out);
    out
}

/// Append a `&[f64]` (length-prefixed) without building a `Vec` first.
pub fn write_f64_slice(data: &[f64], buf: &mut BytesMut) {
    write_slice(data, buf);
}

/// Read a length-prefixed `f64` sequence into a `Vec`.
pub fn read_f64_vec(buf: &mut Bytes) -> Vec<f64> {
    read_vec(buf)
}

/// Append a `&[usize]` (length-prefixed, encoded as LE u64 on the wire).
pub fn write_usize_slice(data: &[usize], buf: &mut BytesMut) {
    write_slice(data, buf);
}

/// Read a length-prefixed `usize` sequence (LE u64 on the wire).
pub fn read_usize_vec(buf: &mut Bytes) -> Vec<usize> {
    read_vec(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Serial + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), v.byte_len(), "byte_len must match encoding");
        let back = T::from_bytes(bytes);
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(65535u16);
        round_trip(123456789u32);
        round_trip(u64::MAX);
        round_trip(-42i64);
        round_trip(std::f64::consts::PI);
        round_trip(f64::NEG_INFINITY);
        round_trip(true);
        round_trip(false);
        round_trip(usize::MAX);
    }

    #[test]
    fn nan_round_trips_bitwise() {
        let bytes = f64::NAN.to_bytes();
        let back = f64::from_bytes(bytes);
        assert!(back.is_nan());
    }

    #[test]
    fn strings_and_containers() {
        round_trip(String::from(""));
        round_trip(String::from("résilience ✓"));
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<f64>::new());
        round_trip(vec![vec![1u8], vec![], vec![2, 3]]);
        round_trip(Some(7u64));
        round_trip(Option::<u64>::None);
        round_trip((1u32, 2.5f64));
        round_trip((1u32, String::from("x"), vec![9u8]));
    }

    #[test]
    fn f64_slice_helpers_match_vec_encoding() {
        let data = vec![1.0, -2.5, 3.75];
        let mut a = BytesMut::new();
        write_f64_slice(&data, &mut a);
        let mut b = BytesMut::new();
        data.write(&mut b);
        assert_eq!(a.freeze(), b.freeze());
        let mut buf = {
            let mut m = BytesMut::new();
            write_f64_slice(&data, &mut m);
            m.freeze()
        };
        assert_eq!(read_f64_vec(&mut buf), data);
        assert!(buf.is_empty());
    }

    #[test]
    fn bulk_matches_fallback_encoding() {
        // The element-wise encoding: a length prefix, then each element.
        fn reference<T: Serial>(data: &[T]) -> BytesMut {
            let mut buf = BytesMut::new();
            buf.put_u64_le(data.len() as u64);
            data.iter().for_each(|v| v.write(&mut buf));
            buf
        }
        let f = vec![1.0f64, -2.5, f64::NAN.copysign(-1.0), 1e300, 0.0];
        let mut bulk = BytesMut::new();
        write_slice(&f, &mut bulk);
        assert_eq!(bulk.as_ref(), reference(&f).as_ref(), "f64 bulk must match element-wise");

        let u = vec![0usize, 1, usize::MAX, 42];
        let mut bulk = BytesMut::new();
        write_usize_slice(&u, &mut bulk);
        assert_eq!(bulk.as_ref(), reference(&u).as_ref(), "usize bulk must match element-wise");
    }

    #[test]
    fn bulk_read_consumes_exactly() {
        let data: Vec<u64> = (0..1000).collect();
        let mut buf = BytesMut::new();
        write_slice(&data, &mut buf);
        17u32.write(&mut buf); // trailing value after the slice
        let mut r = buf.freeze();
        assert_eq!(read_vec::<u64>(&mut r), data);
        assert_eq!(u32::read(&mut r), 17);
        assert!(r.is_empty());
    }

    #[test]
    fn sequential_stream() {
        let mut buf = BytesMut::new();
        42u32.write(&mut buf);
        String::from("hi").write(&mut buf);
        vec![1.0f64, 2.0].write(&mut buf);
        let mut r = buf.freeze();
        assert_eq!(u32::read(&mut r), 42);
        assert_eq!(String::read(&mut r), "hi");
        assert_eq!(Vec::<f64>::read(&mut r), vec![1.0, 2.0]);
        assert!(r.is_empty());
    }
}
