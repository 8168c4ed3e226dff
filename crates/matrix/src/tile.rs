//! Rented, recycled packing buffers and the GEMM panel packers.
//!
//! The blocked GEMM kernels copy panels of A and B into contiguous,
//! register-tile-ordered scratch buffers before the microkernel streams
//! them (the classic packed-panel scheme). The buffers come from a
//! thread-local free list — the `f64` sibling of the `bytes` buffer pool,
//! which parks `Vec<u8>` and therefore cannot hand out aligned `f64`
//! storage. Renting is `clear` + `resize(len, 0.0)`: steady-state
//! iterative solvers hit the parked capacity every iteration and pay only
//! the zero-fill (which doubles as tile padding), never an allocation.
//!
//! The free lists stay thread-local (no cross-thread synchronization on
//! the rent path), but the hit/miss counters are **process-wide** atomics:
//! most rents happen inside `gml-worker-{i}` pool threads, so per-thread
//! counters read from the caller would always show zero. [`stats`] is the
//! aggregated view the `gml_tile_*` monitor families export; parked
//! capacity is charged to the memory ledger's `tile_freelist` tag.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

use apgas::mem::{self, MemTag};

use crate::microkernel::{MR, NR};

/// Park at most this many buffers per thread.
const MAX_PARKED: usize = 4;
/// Buffers above this capacity (8 Mi doubles = 64 MiB) go back to the
/// allocator instead of the free list.
const MAX_PARK_CAP: usize = 8 << 20;

thread_local! {
    static FREE: RefCell<FreeList> = const { RefCell::new(FreeList(Vec::new())) };
}

// Process-wide rent counters: rents happen on whatever thread runs the
// kernel chunk (usually a pool worker), so thread-local counters would be
// invisible to monitoring and tests running on the submitting thread.
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// One thread's park list; the wrapper discharges the parked capacity from
/// the memory ledger when the thread (and its list) dies.
struct FreeList(Vec<Vec<f64>>);

impl Drop for FreeList {
    fn drop(&mut self) {
        let held: usize = self.0.iter().map(|b| b.capacity() * 8).sum();
        mem::discharge(MemTag::TileFreelist, held);
    }
}

/// Process-wide tile-pool rent counters, aggregated over every thread
/// since process start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TileStats {
    /// Rents served from parked capacity (no allocation).
    pub hits: u64,
    /// Rents that had to allocate (cold start, or a larger size).
    pub misses: u64,
}

/// Snapshot the process-wide tile-pool rent counters. Cumulative and
/// cross-thread: a caller observing a kernel's reuse sees pool-worker
/// rents too, not just its own thread's.
pub fn stats() -> TileStats {
    TileStats { hits: HITS.load(Ordering::Relaxed), misses: MISSES.load(Ordering::Relaxed) }
}

/// A zero-filled `f64` scratch buffer rented from the thread-local pool;
/// dropping it parks the storage for the next rent on this thread.
pub(crate) struct TileBuf {
    data: Vec<f64>,
}

/// Rent a zero-filled buffer of exactly `len` doubles.
pub(crate) fn rent(len: usize) -> TileBuf {
    let mut data = FREE.with(|fl| fl.borrow_mut().0.pop()).unwrap_or_default();
    // Unparked capacity leaves the freelist's ledger charge.
    mem::discharge(MemTag::TileFreelist, data.capacity() * 8);
    if data.capacity() >= len && len > 0 {
        HITS.fetch_add(1, Ordering::Relaxed);
    } else {
        MISSES.fetch_add(1, Ordering::Relaxed);
    }
    data.clear();
    data.resize(len, 0.0);
    TileBuf { data }
}

impl Drop for TileBuf {
    fn drop(&mut self) {
        let data = std::mem::take(&mut self.data);
        if data.capacity() == 0 || data.capacity() > MAX_PARK_CAP {
            return;
        }
        FREE.with(|fl| {
            let fl = &mut fl.borrow_mut().0;
            if fl.len() < MAX_PARKED {
                mem::charge(MemTag::TileFreelist, data.capacity() * 8);
                fl.push(data);
            }
        });
    }
}

impl Deref for TileBuf {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        &self.data
    }
}

impl DerefMut for TileBuf {
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

/// Pack rows of the column-major matrix `a` (`m` rows) for the K-block
/// `k0..k0 + kb` into `MR`-row strips:
/// `out[s*kb*MR + p*MR + i] = a[s*MR + i, k0 + p]`, with rows beyond `m`
/// zero-padded so the microkernel never branches on the edge. `out` must
/// hold exactly `m.div_ceil(MR) * kb * MR` doubles (zero-filled by
/// [`rent`], so only live rows are written).
pub(crate) fn pack_a_strips(a: &[f64], m: usize, k0: usize, kb: usize, out: &mut [f64]) {
    let strips = m.div_ceil(MR);
    debug_assert_eq!(out.len(), strips * kb * MR);
    for (s, strip) in out.chunks_exact_mut(kb * MR).enumerate() {
        let i0 = s * MR;
        let iw = (m - i0).min(MR);
        for (p, dst) in strip.chunks_exact_mut(MR).enumerate() {
            let col = &a[(k0 + p) * m + i0..][..iw];
            dst[..iw].copy_from_slice(col);
            for v in &mut dst[iw..] {
                *v = 0.0;
            }
        }
    }
}

/// Transpose-pack for the Gram kernel (`C += AᵀB`): strips of `Aᵀ` where
/// `i` runs over A's *columns* (C's rows) and `p` over A's rows (the
/// reduction dimension): `out[s*kb*MR + p*MR + i] = a[k0 + p, s*MR + i]`
/// for the row block `k0..k0 + kb` of the `m × ncols_a` matrix `a`.
/// Reads stream contiguously down each A column; writes stride by `MR`
/// within one L1-resident strip.
pub(crate) fn pack_at_strips(
    a: &[f64],
    m: usize,
    ncols_a: usize,
    k0: usize,
    kb: usize,
    out: &mut [f64],
) {
    let strips = ncols_a.div_ceil(MR);
    debug_assert_eq!(out.len(), strips * kb * MR);
    for (s, strip) in out.chunks_exact_mut(kb * MR).enumerate() {
        let i0 = s * MR;
        let iw = (ncols_a - i0).min(MR);
        for icol in 0..MR {
            if icol < iw {
                let col = &a[(i0 + icol) * m + k0..][..kb];
                for (slot, &v) in strip.iter_mut().skip(icol).step_by(MR).zip(col) {
                    *slot = v;
                }
            } else {
                for slot in strip.iter_mut().skip(icol).step_by(MR) {
                    *slot = 0.0;
                }
            }
        }
    }
}

/// Pack the `kb × nc` panel of the column-major matrix `b` (`k` rows;
/// columns `j0..j0 + nc`, rows `k0..k0 + kb`) into `NR`-column strips with
/// `alpha` folded in:
/// `out[t*kb*NR + p*NR + j] = alpha * b[k0 + p, j0 + t*NR + j]`, columns
/// beyond `nc` zero-padded. Folding `alpha` here costs one multiply per
/// packed element instead of one per microkernel accumulate.
#[allow(clippy::too_many_arguments)] // mirrors the (matrix, panel window, alpha, out) BLIS pack signature
pub(crate) fn pack_b_strips(
    b: &[f64],
    k: usize,
    j0: usize,
    nc: usize,
    k0: usize,
    kb: usize,
    alpha: f64,
    out: &mut [f64],
) {
    let strips = nc.div_ceil(NR);
    debug_assert_eq!(out.len(), strips * kb * NR);
    for (t, strip) in out.chunks_exact_mut(kb * NR).enumerate() {
        let jt = j0 + t * NR;
        let jw = nc - t * NR;
        for jcol in 0..NR {
            if jcol < jw {
                let col = &b[(jt + jcol) * k + k0..][..kb];
                for (slot, &v) in strip.iter_mut().skip(jcol).step_by(NR).zip(col) {
                    *slot = alpha * v;
                }
            } else {
                for slot in strip.iter_mut().skip(jcol).step_by(NR) {
                    *slot = 0.0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rent_reuses_parked_capacity() {
        // Warm the pool, then check repeated rents of the same size hit.
        // stats() is process-wide (other test threads rent concurrently),
        // so assert only on the monotone delta this thread contributes.
        drop(rent(1000));
        let h0 = stats().hits;
        for _ in 0..5 {
            let buf = rent(1000);
            assert_eq!(buf.len(), 1000);
            assert!(buf.iter().all(|&v| v == 0.0), "rented buffers are zeroed");
        }
        let h1 = stats().hits;
        assert!(h1 >= h0 + 5, "parked buffer must be reused: {h0} -> {h1}");
    }

    #[test]
    fn rented_buffers_are_zeroed_after_dirty_return() {
        {
            let mut buf = rent(64);
            buf.iter_mut().for_each(|v| *v = f64::NAN);
        }
        let buf = rent(32);
        assert!(buf.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pack_a_round_trip_with_padding() {
        // 5x7 matrix, pack k-block 2..7 (kb=5): strips of 8 rows, 3 padded.
        let (m, k) = (5usize, 7usize);
        let a: Vec<f64> = (0..m * k).map(|v| v as f64 + 1.0).collect();
        let (k0, kb) = (2usize, 5usize);
        let strips = m.div_ceil(MR);
        let mut out = vec![f64::NAN; strips * kb * MR];
        pack_a_strips(&a, m, k0, kb, &mut out);
        for s in 0..strips {
            for p in 0..kb {
                for i in 0..MR {
                    let got = out[s * kb * MR + p * MR + i];
                    let row = s * MR + i;
                    let want = if row < m { a[(k0 + p) * m + row] } else { 0.0 };
                    assert_eq!(got, want, "strip {s} p {p} lane {i}");
                }
            }
        }
    }

    #[test]
    fn pack_at_is_transpose_of_pack_a() {
        // Packing Aᵀ strips of `a` must equal packing A strips of the
        // explicit transpose.
        let (m, n) = (6usize, 10usize);
        let a: Vec<f64> = (0..m * n).map(|v| (v as f64) * 0.5 - 3.0).collect();
        // Explicit transpose, column-major n x m.
        let mut t = vec![0.0; m * n];
        for j in 0..n {
            for i in 0..m {
                t[j + i * n] = a[i + j * m];
            }
        }
        let (k0, kb) = (1usize, 4usize);
        let strips = n.div_ceil(MR);
        let mut out_at = vec![f64::NAN; strips * kb * MR];
        let mut out_a = vec![f64::NAN; strips * kb * MR];
        pack_at_strips(&a, m, n, k0, kb, &mut out_at);
        pack_a_strips(&t, n, k0, kb, &mut out_a);
        assert_eq!(out_at, out_a);
    }

    #[test]
    fn pack_b_folds_alpha_and_pads_columns() {
        let (k, n) = (9usize, 6usize);
        let b: Vec<f64> = (0..k * n).map(|v| v as f64 - 20.0).collect();
        let (j0, nc, k0, kb, alpha) = (1usize, 5usize, 3usize, 4usize, -2.0);
        let strips = nc.div_ceil(NR);
        let mut out = vec![f64::NAN; strips * kb * NR];
        pack_b_strips(&b, k, j0, nc, k0, kb, alpha, &mut out);
        for t in 0..strips {
            for p in 0..kb {
                for j in 0..NR {
                    let got = out[t * kb * NR + p * NR + j];
                    let col = t * NR + j;
                    let want =
                        if col < nc { alpha * b[(j0 + col) * k + k0 + p] } else { 0.0 };
                    assert_eq!(got, want, "strip {t} p {p} lane {j}");
                }
            }
        }
    }
}
