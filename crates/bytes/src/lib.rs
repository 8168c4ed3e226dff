//! Vendored, offline subset of the `bytes` crate: just the pieces this
//! workspace uses (`Bytes`, `BytesMut`, `Buf`, `BufMut` with little-endian
//! accessors), plus one deliberate extension — a **process-wide buffer
//! pool** so payload and encode buffers are recycled instead of reallocated
//! on every cross-place send and checkpoint (see `apgas::serial`).
//!
//! Semantics preserved from the real crate:
//! * `Bytes` is a cheaply clonable, shareable, immutable byte buffer;
//!   `clone()` never copies payload.
//! * `Bytes::split_to` carves a prefix off without copying.
//! * `BytesMut::freeze()` converts the filled buffer into `Bytes` without
//!   copying.
//!
//! The pool: `BytesMut::with_capacity` first tries to reuse a retired buffer
//! from one free list shared by every thread — the tightest one that fits,
//! and none more than twice the request; when the *sole owner* of a pooled
//! `Bytes` drops it, on whichever thread, the backing allocation returns to
//! that list. A buffer is usually dropped on another thread (a ship thread,
//! a dispatcher) than the one that asks for the next, so per-thread lists
//! would mostly miss. The list is bounded in count, per-buffer capacity and
//! total parked capacity ([`POOL_MAX_PARKED`]), so what it holds on top of
//! the live data is a stated constant.

use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

// ---------------------------------------------------------------------------
// Process-wide buffer pool
// ---------------------------------------------------------------------------

/// Buffers smaller than this are not worth pooling.
const POOL_MIN_CAPACITY: usize = 1024;
/// Buffers larger than this are returned to the allocator, not the pool.
const POOL_MAX_CAPACITY: usize = 16 << 20;
/// At most this many retired buffers are parked. Sized for a checkpoint
/// capture: a place encodes every local block *before* the previous
/// checkpoint's buffers drop, so the list must hold one checkpoint's worth
/// of encode buffers or steady-state reuse thrashes.
const POOL_MAX_BUFFERS: usize = 32;
/// A parked buffer serves a request only if it is at most this many times
/// the capacity asked for: a small message must not be lent — and, when it
/// is kept, pin — a parked payload-sized buffer.
const POOL_MAX_SLACK: usize = 2;
/// Parked capacity never exceeds this many bytes: a retired buffer that
/// would lift it higher goes back to the allocator.
pub const POOL_MAX_PARKED: usize = 64 << 20;

/// The free list and its counters, all behind one lock.
struct Pool {
    free: Vec<Vec<u8>>,
    stats: GlobalPoolStats,
}

static POOL: Mutex<Pool> = Mutex::new(Pool {
    free: Vec::new(),
    stats: GlobalPoolStats {
        hits: 0,
        misses: 0,
        recycled: 0,
        parked_bytes: 0,
        parked_bytes_high_water: 0,
    },
});

/// The pool's state is consistent after every statement, so a panic on
/// another thread leaves nothing to repair; a `Bytes` dropped while
/// unwinding must not panic again on the poison flag.
fn pool() -> MutexGuard<'static, Pool> {
    POOL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Pool reuse counters and the current/high-water parked-bytes level, since
/// process start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GlobalPoolStats {
    /// Pool-eligible allocations served from a parked buffer (no malloc).
    pub hits: u64,
    /// Pool-eligible allocations that had to hit the allocator.
    pub misses: u64,
    /// Retired buffers returned to the free list.
    pub recycled: u64,
    /// Bytes of capacity currently parked.
    pub parked_bytes: u64,
    /// High-water mark of `parked_bytes`; never above [`POOL_MAX_PARKED`].
    pub parked_bytes_high_water: u64,
}

/// Snapshot the pool counters.
pub fn global_pool_stats() -> GlobalPoolStats {
    pool().stats
}

fn pool_take(min_capacity: usize) -> Option<Vec<u8>> {
    if min_capacity < POOL_MIN_CAPACITY {
        return None;
    }
    let mut pool = pool();
    // Best fit: the tightest parked buffer that holds the request.
    let fits = min_capacity..=min_capacity.saturating_mul(POOL_MAX_SLACK);
    let fitting = pool.free.iter().enumerate().filter(|(_, b)| fits.contains(&b.capacity()));
    let Some((idx, _)) = fitting.min_by_key(|(_, b)| b.capacity()) else {
        pool.stats.misses += 1;
        return None;
    };
    let buf = pool.free.swap_remove(idx);
    pool.stats.hits += 1;
    pool.stats.parked_bytes -= buf.capacity() as u64;
    Some(buf)
}

fn pool_put(mut buf: Vec<u8>) {
    let cap = buf.capacity();
    if !(POOL_MIN_CAPACITY..=POOL_MAX_CAPACITY).contains(&cap) {
        return;
    }
    buf.clear();
    let mut pool = pool();
    let parked = pool.stats.parked_bytes + cap as u64;
    if pool.free.len() < POOL_MAX_BUFFERS && parked <= POOL_MAX_PARKED as u64 {
        pool.free.push(buf);
        let s = &mut pool.stats;
        s.recycled += 1;
        s.parked_bytes = parked;
        s.parked_bytes_high_water = s.parked_bytes_high_water.max(parked);
    }
    // A refused buffer is freed after the guard is released.
}

// ---------------------------------------------------------------------------
// Bytes
// ---------------------------------------------------------------------------

enum Repr {
    Static(&'static [u8]),
    Shared(Arc<Vec<u8>>),
}

/// An immutable, cheaply clonable byte buffer. Cloning and `split_to` share
/// the underlying allocation; no payload copy happens until someone asks for
/// one explicitly (`copy_from_slice`, `to_vec`).
pub struct Bytes {
    repr: Repr,
    off: usize,
    len: usize,
}

impl Bytes {
    pub const fn new() -> Self {
        Bytes { repr: Repr::Static(&[]), off: 0, len: 0 }
    }

    pub const fn from_static(s: &'static [u8]) -> Self {
        Bytes { repr: Repr::Static(s), off: 0, len: s.len() }
    }

    /// Copy `data` into a freshly owned buffer (pool-aware).
    pub fn copy_from_slice(data: &[u8]) -> Self {
        let mut b = BytesMut::with_capacity(data.len());
        b.put_slice(data);
        b.freeze()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn as_slice(&self) -> &[u8] {
        match &self.repr {
            Repr::Static(s) => &s[self.off..self.off + self.len],
            Repr::Shared(a) => &a[self.off..self.off + self.len],
        }
    }

    /// Split off and return the first `at` bytes; `self` keeps the rest.
    /// Shares the allocation — no copy.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len, "split_to out of range ({at} > {})", self.len);
        let head = Bytes {
            repr: match &self.repr {
                Repr::Static(s) => Repr::Static(s),
                Repr::Shared(a) => Repr::Shared(Arc::clone(a)),
            },
            off: self.off,
            len: at,
        };
        self.off += at;
        self.len -= at;
        head
    }

    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(range.start <= range.end && range.end <= self.len);
        Bytes {
            repr: match &self.repr {
                Repr::Static(s) => Repr::Static(s),
                Repr::Shared(a) => Repr::Shared(Arc::clone(a)),
            },
            off: self.off + range.start,
            len: range.end - range.start,
        }
    }
}

impl Drop for Bytes {
    fn drop(&mut self) {
        // Last owner of a shared allocation: recycle it into the pool.
        let repr = std::mem::replace(&mut self.repr, Repr::Static(&[]));
        if let Repr::Shared(arc) = repr {
            if let Ok(vec) = Arc::try_unwrap(arc) {
                pool_put(vec);
            }
        }
    }
}

impl Clone for Bytes {
    fn clone(&self) -> Self {
        Bytes {
            repr: match &self.repr {
                Repr::Static(s) => Repr::Static(s),
                Repr::Shared(a) => Repr::Shared(Arc::clone(a)),
            },
            off: self.off,
            len: self.len,
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes { repr: Repr::Shared(Arc::new(v)), off: 0, len }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice().iter().take(64) {
            if b.is_ascii_graphic() || b == b' ' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        if self.len > 64 {
            write!(f, "... {} bytes", self.len)?;
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

// Safety: the payload is immutable and reference-counted.
// (Arc<Vec<u8>> is Send + Sync; &'static [u8] likewise.)

// ---------------------------------------------------------------------------
// BytesMut
// ---------------------------------------------------------------------------

/// A growable byte buffer for building wire messages; `freeze()` turns it
/// into an immutable `Bytes` without copying.
pub struct BytesMut {
    vec: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        BytesMut { vec: Vec::new() }
    }

    /// Pool-aware allocation: reuses a retired buffer from the shared free
    /// list when one fits.
    pub fn with_capacity(cap: usize) -> Self {
        match pool_take(cap) {
            Some(vec) => BytesMut { vec },
            None => BytesMut { vec: Vec::with_capacity(cap) },
        }
    }

    pub fn reserve(&mut self, additional: usize) {
        self.vec.reserve(additional);
    }

    pub fn capacity(&self) -> usize {
        self.vec.capacity()
    }

    pub fn len(&self) -> usize {
        self.vec.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }

    pub fn clear(&mut self) {
        self.vec.clear();
    }

    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.vec.extend_from_slice(s);
    }

    /// Grow to `new_len` filling with `value`, or shrink to it.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.vec.resize(new_len, value);
    }

    /// The unwritten remainder of the allocation, for encoders that fill
    /// bytes in place (possibly from several threads) before committing
    /// them with [`set_len`](BytesMut::set_len).
    pub fn spare_capacity_mut(&mut self) -> &mut [std::mem::MaybeUninit<u8>] {
        self.vec.spare_capacity_mut()
    }

    /// Set the initialized length.
    ///
    /// # Safety
    /// `new_len` must be `<= capacity()` and every byte below it must have
    /// been initialized.
    pub unsafe fn set_len(&mut self, new_len: usize) {
        self.vec.set_len(new_len);
    }

    /// Convert into an immutable `Bytes`, transferring the allocation.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.vec)
    }
}

impl Default for BytesMut {
    fn default() -> Self {
        BytesMut::new()
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.vec
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.vec
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.vec
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BytesMut({} bytes)", self.vec.len())
    }
}

// ---------------------------------------------------------------------------
// Buf / BufMut traits
// ---------------------------------------------------------------------------

macro_rules! buf_get_impl {
    ($name:ident, $t:ty) => {
        fn $name(&mut self) -> $t {
            let mut raw = [0u8; std::mem::size_of::<$t>()];
            self.copy_to_slice(&mut raw);
            <$t>::from_le_bytes(raw)
        }
    };
}

/// Read side of a byte cursor (little-endian accessors only: the wire format
/// of this workspace is exclusively LE).
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    buf_get_impl!(get_u16_le, u16);
    buf_get_impl!(get_u32_le, u32);
    buf_get_impl!(get_u64_le, u64);
    buf_get_impl!(get_i16_le, i16);
    buf_get_impl!(get_i32_le, i32);
    buf_get_impl!(get_i64_le, i64);
    buf_get_impl!(get_f32_le, f32);
    buf_get_impl!(get_f64_le, f64);
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len, "advance out of range ({cnt} > {})", self.len);
        self.off += cnt;
        self.len -= cnt;
    }
}

macro_rules! buf_put_impl {
    ($name:ident, $t:ty) => {
        fn $name(&mut self, v: $t) {
            self.put_slice(&v.to_le_bytes());
        }
    };
}

/// Write side of a byte sink (little-endian accessors only).
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    buf_put_impl!(put_u16_le, u16);
    buf_put_impl!(put_u32_le, u32);
    buf_put_impl!(put_u64_le, u64);
    buf_put_impl!(put_i16_le, i16);
    buf_put_impl!(put_i32_le, i32);
    buf_put_impl!(put_i64_le, i64);
    buf_put_impl!(put_f32_le, f32);
    buf_put_impl!(put_f64_le, f64);
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.vec.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn roundtrip_all_widths() {
        let mut b = BytesMut::new();
        b.put_u8(7);
        b.put_u16_le(0xBEEF);
        b.put_u32_le(0xDEAD_BEEF);
        b.put_u64_le(0x0123_4567_89AB_CDEF);
        b.put_i64_le(-42);
        b.put_f64_le(std::f64::consts::PI);
        let mut by = b.freeze();
        assert_eq!(by.get_u8(), 7);
        assert_eq!(by.get_u16_le(), 0xBEEF);
        assert_eq!(by.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(by.get_u64_le(), 0x0123_4567_89AB_CDEF);
        assert_eq!(by.get_i64_le(), -42);
        assert_eq!(by.get_f64_le(), std::f64::consts::PI);
        assert_eq!(by.remaining(), 0);
    }

    #[test]
    fn clone_shares_and_split_shares() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let mut c = b.clone();
        let head = c.split_to(2);
        assert_eq!(&head[..], &[1, 2]);
        assert_eq!(&c[..], &[3, 4, 5]);
        assert_eq!(&b[..], &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn static_bytes() {
        let b = Bytes::from_static(b"hello");
        assert_eq!(&b[..], b"hello");
        assert_eq!(b.len(), 5);
    }

    /// Serializes the tests that touch the pool: it is one list for the
    /// whole process, so each of them starts from an empty one.
    static POOL_TESTS: Mutex<()> = Mutex::new(());

    /// Lock out the other pool tests and empty the list.
    fn empty_pool() -> MutexGuard<'static, ()> {
        let guard = POOL_TESTS.lock().unwrap_or_else(PoisonError::into_inner);
        let mut pool = pool();
        pool.free.clear();
        pool.stats.parked_bytes = 0;
        guard
    }

    /// How far (hits, misses, recycled) moved since `before`.
    fn moved(before: GlobalPoolStats) -> (u64, u64, u64) {
        let s = global_pool_stats();
        (s.hits - before.hits, s.misses - before.misses, s.recycled - before.recycled)
    }

    #[test]
    fn pool_recycles_sole_owner_buffers() {
        let _pool = empty_pool();
        drop(BytesMut::with_capacity(4096).freeze());
        assert_eq!(global_pool_stats().parked_bytes, 4096, "sole-owner drop must recycle");
        let reused = BytesMut::with_capacity(2048);
        assert_eq!(reused.capacity(), 4096, "must reuse the pooled allocation");
        assert_eq!(global_pool_stats().parked_bytes, 0);
    }

    #[test]
    fn pool_serves_the_tightest_fit_and_never_a_far_bigger_buffer() {
        let _pool = empty_pool();
        let before = global_pool_stats();
        // Park a payload-sized buffer and two message-sized ones, the bigger
        // of the two first.
        let cold = [9 << 20, 2048, 1536].map(|cap| BytesMut::with_capacity(cap).freeze());
        drop(cold);
        assert_eq!(global_pool_stats().parked_bytes, (9 << 20) + 2048 + 1536);
        // A 1 KiB request gets the tightest fit, not the first that fits.
        let a = BytesMut::with_capacity(1024);
        let b = BytesMut::with_capacity(1024);
        assert_eq!((a.capacity(), b.capacity()), (1536, 2048));
        // The third fits nothing within twice its size: the payload-sized
        // buffer stays parked and the request is allocated afresh.
        let c = BytesMut::with_capacity(1024);
        assert_eq!((c.capacity(), global_pool_stats().parked_bytes), (1024, 9 << 20));
        // Same-size reuse still hits, however large.
        let big = BytesMut::with_capacity(9 << 20);
        assert_eq!((big.capacity(), global_pool_stats().parked_bytes), (9 << 20, 0));
        let (hits, misses, _) = moved(before);
        assert_eq!((hits, misses), (3, 4), "three cold allocations and the refused fit");
    }

    #[test]
    fn pool_does_not_recycle_shared_buffers() {
        let _pool = empty_pool();
        let mut b = BytesMut::with_capacity(4096);
        b.put_slice(&[0u8; 100]);
        let frozen = b.freeze();
        let keep = frozen.clone();
        drop(frozen); // not sole owner: no recycle
        assert_eq!(global_pool_stats().parked_bytes, 0);
        drop(keep); // last owner: recycle
        assert_eq!(global_pool_stats().parked_bytes, 4096);
    }

    #[test]
    fn pool_stats_track_hits_misses_and_recycles() {
        let _pool = empty_pool();
        let before = global_pool_stats();
        let a = BytesMut::with_capacity(4096); // cold: miss
        drop(a.freeze()); // sole owner: recycled
        let b = BytesMut::with_capacity(2048); // warm: hit
        drop(b.freeze());
        assert_eq!(moved(before), (1, 1, 2));
        assert_eq!(global_pool_stats().parked_bytes, 4096);
        // Tiny buffers bypass the pool entirely: no counter movement.
        drop(BytesMut::with_capacity(16).freeze());
        assert_eq!(moved(before), (1, 1, 2));
    }

    #[test]
    fn global_stats_track_parked_bytes_across_threads() {
        let _pool = empty_pool();
        let before = global_pool_stats();
        // Parked by a thread that has exited: the buffer and the level stay.
        std::thread::spawn(|| drop(BytesMut::with_capacity(8192).freeze())).join().unwrap();
        let parked = global_pool_stats();
        assert_eq!(parked.parked_bytes, 8192);
        assert!(parked.parked_bytes_high_water >= 8192);
        let again = BytesMut::with_capacity(4096); // unparked: level falls
        assert_eq!(again.capacity(), 8192);
        assert_eq!(global_pool_stats().parked_bytes, 0);
        assert_eq!(moved(before), (1, 1, 1));
    }

    #[test]
    fn a_buffer_dropped_on_one_thread_serves_a_request_on_another() {
        let _pool = empty_pool();
        let before = global_pool_stats();
        let (to_b, at_b) = mpsc::channel::<Bytes>();
        let (dropped, b_dropped) = mpsc::channel::<()>();
        let (c_asked, b_may_exit) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            // A freezes a payload and hands it over.
            let a = s.spawn(move || {
                let frozen = BytesMut::with_capacity(64 << 10).freeze();
                let addr = frozen.as_ptr() as usize;
                to_b.send(frozen).unwrap();
                addr
            });
            // B is its last owner, and stays alive until C has asked, so
            // nothing B's exit could free serves C.
            s.spawn(move || {
                drop(at_b.recv().unwrap());
                dropped.send(()).unwrap();
                b_may_exit.recv().unwrap();
            });
            let freed = a.join().unwrap();
            b_dropped.recv().unwrap();
            let c = s.spawn(|| BytesMut::with_capacity(64 << 10).as_ptr() as usize);
            let served = c.join().unwrap();
            c_asked.send(()).unwrap();
            assert_eq!(served, freed, "C must get the allocation B dropped");
        });
        assert_eq!(moved(before), (1, 1, 1));
    }

    #[test]
    fn parked_capacity_never_exceeds_the_budget() {
        let _pool = empty_pool();
        let before = global_pool_stats();
        let five = [(); 5].map(|()| BytesMut::with_capacity(16 << 20).freeze());
        drop(five);
        let s = global_pool_stats();
        assert_eq!(s.parked_bytes, 4 * (16 << 20), "four fill the budget");
        assert_eq!(moved(before).2, 4, "the fifth goes back to the allocator");
        assert!(s.parked_bytes_high_water <= POOL_MAX_PARKED as u64);
    }

    #[test]
    fn copy_to_slice_bulk() {
        let mut src = BytesMut::with_capacity(64);
        src.put_slice(&[9u8; 64]);
        let mut by = src.freeze();
        let mut out = [0u8; 64];
        by.copy_to_slice(&mut out);
        assert_eq!(out, [9u8; 64]);
        assert_eq!(by.remaining(), 0);
    }
}
