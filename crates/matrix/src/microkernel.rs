//! Register-blocked compute microkernels for the blocked kernels.
//!
//! Every hot inner loop of the crate's kernels funnels through this module:
//! the packed-panel GEMM microkernel, the multi-accumulator reductions
//! (`dot`/`sum`), the register-blocked GEMV column passes, and the unrolled
//! CSR row accumulation. Each body is written once (via `kernel_bodies!`)
//! and compiled for three instruction tiers — AVX-512, AVX2+FMA, and
//! portable scalar — selected once per process by runtime CPU detection.
//!
//! # Determinism
//!
//! The pool's contract is *bit-identical results at every `GML_WORKERS`
//! count*. These kernels keep it by fixing the accumulator-combine order:
//!
//! * multi-lane reductions fold their tail elements into lane 0, then
//!   combine lanes pairwise in ascending order ([`combine4`]/[`combine8`]);
//! * the GEMM microkernel keeps one accumulator per output element and
//!   sweeps the packed K dimension in ascending order;
//! * the tier is a property of the machine, never of the worker count, so
//!   every chunk of one job runs the same code path.
//!
//! Results therefore differ across *machines* (the FMA tiers contract
//! multiply-add into one rounding) and from the pre-blocking serial kernels
//! (different summation order) — that is the documented ULP drift the
//! `*_reference` twins and the `kernel_reference` CI step bound — but never
//! across worker counts on one machine.

/// Rows per GEMM register tile (the unit `tile::pack_a_strips` pads to).
pub(crate) const MR: usize = 8;
/// Columns per GEMM register tile (the unit `tile::pack_b_strips` pads to,
/// and the granule the blocked matrix kernels chunk output columns on).
pub(crate) const NR: usize = 4;
/// K-dimension cache-block length: one packed B strip (`KC × NR` doubles)
/// stays L1-resident while the microkernel streams A strips over it.
pub(crate) const KC: usize = 256;
/// M-dimension cache-block length of [`DenseMatrix::gemm`](crate::DenseMatrix::gemm):
/// A is packed `MC × KC` at a time (512 KiB at most), so the pack scratch
/// does not grow with the tall dimension. A multiple of `MR`.
pub(crate) const MC: usize = 256;
/// Accumulator lanes for the vector reductions (`dot`/`sum`).
pub(crate) const LANES: usize = 8;
/// Columns per register-blocked GEMV pass.
pub(crate) const GEMV_COLS: usize = 4;
/// Accumulator lanes for the column-dot kernels (`dot4`, `sparse_dot`).
pub(crate) const DOT_LANES: usize = 4;

/// Fixed pairwise combine of 4 accumulator lanes: `(l0+l1) + (l2+l3)`.
#[inline(always)]
fn combine4(acc: [f64; DOT_LANES]) -> f64 {
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Fixed pairwise combine of 8 accumulator lanes.
#[inline(always)]
fn combine8(acc: [f64; LANES]) -> f64 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// The kernel bodies, written once and instantiated per instruction tier.
/// `$feat` is the `target_feature` attribute of the tier (or a no-op
/// `cfg(all())` for the scalar tier); each tier module defines its own
/// `fma` helper — a true fused multiply-add on the SIMD tiers, an ordinary
/// multiply-then-add on the scalar tier (a hardware-free `mul_add` would
/// fall back to a slow soft-float libm call).
macro_rules! kernel_bodies {
    ($(#[$feat:meta])*) => {
        /// `MR × NR` GEMM register tile: returns
        /// `acc[j][i] = Σ_p pa[p*MR + i] * pb[p*NR + j]` with one
        /// accumulator per element and `p` ascending.
        $(#[$feat])*
        #[inline]
        pub(super) fn gemm_mr_nr(pa: &[f64], pb: &[f64]) -> [[f64; MR]; NR] {
            let mut acc = [[0.0f64; MR]; NR];
            for (a, b) in pa.chunks_exact(MR).zip(pb.chunks_exact(NR)) {
                for (accj, &bj) in acc.iter_mut().zip(b) {
                    for (c, &ai) in accj.iter_mut().zip(a) {
                        *c = fma(ai, bj, *c);
                    }
                }
            }
            acc
        }

        /// 8-lane inner product; tail folds into lane 0, lanes combine in
        /// fixed pairwise order.
        $(#[$feat])*
        #[inline]
        pub(super) fn dot(a: &[f64], b: &[f64]) -> f64 {
            debug_assert_eq!(a.len(), b.len());
            let n = a.len().min(b.len());
            let main = n - n % LANES;
            let mut acc = [0.0f64; LANES];
            for (av, bv) in a[..main].chunks_exact(LANES).zip(b[..main].chunks_exact(LANES)) {
                for ((c, &x), &y) in acc.iter_mut().zip(av).zip(bv) {
                    *c = fma(x, y, *c);
                }
            }
            for (&x, &y) in a[main..n].iter().zip(&b[main..n]) {
                acc[0] = fma(x, y, acc[0]);
            }
            combine8(acc)
        }

        /// 8-lane sum; same tail and combine discipline as [`dot`].
        $(#[$feat])*
        #[inline]
        pub(super) fn sum(a: &[f64]) -> f64 {
            let main = a.len() - a.len() % LANES;
            let mut acc = [0.0f64; LANES];
            for av in a[..main].chunks_exact(LANES) {
                for (c, &x) in acc.iter_mut().zip(av) {
                    *c += x;
                }
            }
            for &x in &a[main..] {
                acc[0] += x;
            }
            combine8(acc)
        }

        /// `y[i] += alpha * x[i]` — one accumulator per element, so the
        /// per-element value is order-independent (FMA rounding aside).
        $(#[$feat])*
        #[inline]
        pub(super) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
            for (yi, &xi) in y.iter_mut().zip(x) {
                *yi = fma(alpha, xi, *yi);
            }
        }

        /// Register-blocked GEMV pass over four columns:
        /// `y[i] = (((y[i] ⊕ k0·c0[i]) ⊕ k1·c1[i]) ⊕ k2·c2[i]) ⊕ k3·c3[i]`
        /// where `⊕` is the tier's fused (or plain) multiply-add — a fixed
        /// chain per element, independent of chunking.
        $(#[$feat])*
        #[inline]
        pub(super) fn gemv_4col(coef: &[f64; GEMV_COLS], cols: [&[f64]; GEMV_COLS], y: &mut [f64]) {
            let n = y.len();
            let (c0, c1, c2, c3) = (&cols[0][..n], &cols[1][..n], &cols[2][..n], &cols[3][..n]);
            for ((yi, &a), ((&b, &c), &d)) in y
                .iter_mut()
                .zip(c0)
                .zip(c1.iter().zip(c2).zip(c3))
            {
                let t = fma(coef[0], a, *yi);
                let t = fma(coef[1], b, t);
                let t = fma(coef[2], c, t);
                *yi = fma(coef[3], d, t);
            }
        }

        /// 4-lane column dot (the transposed-GEMV unit): same lane
        /// structure as one column of [`dot4_cols`], so grouping columns
        /// never changes a column's bits.
        $(#[$feat])*
        #[inline]
        pub(super) fn dot4(col: &[f64], x: &[f64]) -> f64 {
            debug_assert_eq!(col.len(), x.len());
            let n = col.len().min(x.len());
            let main = n - n % DOT_LANES;
            let mut acc = [0.0f64; DOT_LANES];
            for (cv, xv) in col[..main].chunks_exact(DOT_LANES).zip(x[..main].chunks_exact(DOT_LANES)) {
                for ((a, &c), &xx) in acc.iter_mut().zip(cv).zip(xv) {
                    *a = fma(c, xx, *a);
                }
            }
            for (&c, &xx) in col[main..n].iter().zip(&x[main..n]) {
                acc[0] = fma(c, xx, acc[0]);
            }
            combine4(acc)
        }

        /// Four columns dotted against `x` in one pass (the `x` loads are
        /// shared); each column's lanes follow exactly the [`dot4`]
        /// recurrence, so the per-column results are bit-identical to four
        /// separate [`dot4`] calls.
        $(#[$feat])*
        #[inline]
        pub(super) fn dot4_cols(cols: [&[f64]; GEMV_COLS], x: &[f64]) -> [f64; GEMV_COLS] {
            let n = x.len();
            let main = n - n % DOT_LANES;
            let mut acc = [[0.0f64; DOT_LANES]; GEMV_COLS];
            let mut p = 0;
            while p < main {
                let xv = &x[p..p + DOT_LANES];
                for (accc, col) in acc.iter_mut().zip(&cols) {
                    let cv = &col[p..p + DOT_LANES];
                    for ((a, &c), &xx) in accc.iter_mut().zip(cv).zip(xv) {
                        *a = fma(c, xx, *a);
                    }
                }
                p += DOT_LANES;
            }
            for q in main..n {
                for (accc, col) in acc.iter_mut().zip(&cols) {
                    accc[0] = fma(col[q], x[q], accc[0]);
                }
            }
            [combine4(acc[0]), combine4(acc[1]), combine4(acc[2]), combine4(acc[3])]
        }

        /// Unrolled CSR row accumulation: four independent gather chains,
        /// tail into lane 0, fixed pairwise combine.
        $(#[$feat])*
        #[inline]
        pub(super) fn sparse_dot(cols: &[usize], vals: &[f64], x: &[f64]) -> f64 {
            debug_assert_eq!(cols.len(), vals.len());
            let n = cols.len().min(vals.len());
            let main = n - n % DOT_LANES;
            let mut acc = [0.0f64; DOT_LANES];
            for (cq, vq) in cols[..main].chunks_exact(DOT_LANES).zip(vals[..main].chunks_exact(DOT_LANES)) {
                for ((a, &c), &v) in acc.iter_mut().zip(cq).zip(vq) {
                    *a = fma(v, x[c], *a);
                }
            }
            for (&c, &v) in cols[main..n].iter().zip(&vals[main..n]) {
                acc[0] = fma(v, x[c], acc[0]);
            }
            combine4(acc)
        }
    };
}

/// Portable tier: plain multiply-then-add (two roundings), any target.
mod scalar {
    use super::{combine4, combine8, DOT_LANES, GEMV_COLS, LANES, MR, NR};

    #[inline(always)]
    fn fma(a: f64, b: f64, c: f64) -> f64 {
        a * b + c
    }

    kernel_bodies!(#[cfg(all())]);
}

/// AVX2 + FMA tier: 256-bit lanes, hardware fused multiply-add.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{combine4, combine8, DOT_LANES, GEMV_COLS, LANES, MR, NR};

    #[inline(always)]
    fn fma(a: f64, b: f64, c: f64) -> f64 {
        a.mul_add(b, c)
    }

    kernel_bodies!(#[target_feature(enable = "avx2,fma")]);
}

/// AVX-512 tier: 512-bit lanes, hardware fused multiply-add.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{combine4, combine8, DOT_LANES, GEMV_COLS, LANES, MR, NR};

    #[inline(always)]
    fn fma(a: f64, b: f64, c: f64) -> f64 {
        a.mul_add(b, c)
    }

    kernel_bodies!(#[target_feature(enable = "avx512f,avx512vl,avx2,fma")]);
}

/// The instruction tier this process runs: 2 = AVX-512, 1 = AVX2+FMA,
/// 0 = scalar. Detected once, cached, and identical for every pool worker —
/// the tier can never vary across chunks of one job.
#[cfg(target_arch = "x86_64")]
fn tier() -> u8 {
    use std::sync::atomic::{AtomicU8, Ordering};
    static TIER: AtomicU8 = AtomicU8::new(u8::MAX);
    let t = TIER.load(Ordering::Relaxed);
    if t != u8::MAX {
        return t;
    }
    let t = if is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512vl")
        && is_x86_feature_detected!("fma")
    {
        2
    } else if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        1
    } else {
        0
    };
    TIER.store(t, Ordering::Relaxed);
    t
}

/// Generate the public dispatch wrappers: one cached tier check per call,
/// then a direct call into the chosen tier's instantiation.
macro_rules! dispatch {
    ($($(#[$doc:meta])* fn $name:ident($($arg:ident: $ty:ty),* $(,)?) -> $ret:ty;)*) => {$(
        $(#[$doc])*
        #[inline]
        pub(crate) fn $name($($arg: $ty),*) -> $ret {
            #[cfg(target_arch = "x86_64")]
            {
                let t = tier();
                if t == 2 {
                    // SAFETY: tier() verified avx512f/avx512vl/fma support.
                    return unsafe { avx512::$name($($arg),*) };
                }
                if t == 1 {
                    // SAFETY: tier() verified avx2/fma support.
                    return unsafe { avx2::$name($($arg),*) };
                }
            }
            scalar::$name($($arg),*)
        }
    )*};
}

dispatch! {
    /// `MR × NR` packed-panel GEMM register tile (see the tier bodies).
    fn gemm_mr_nr(pa: &[f64], pb: &[f64]) -> [[f64; MR]; NR];
    /// 8-lane inner product with fixed combine order.
    fn dot(a: &[f64], b: &[f64]) -> f64;
    /// 8-lane sum with fixed combine order.
    fn sum(a: &[f64]) -> f64;
    /// `y += alpha * x`, element-wise.
    fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) -> ();
    /// Register-blocked GEMV pass over four columns.
    fn gemv_4col(coef: &[f64; GEMV_COLS], cols: [&[f64]; GEMV_COLS], y: &mut [f64]) -> ();
    /// 4-lane column dot (single-column tail of the transposed GEMV).
    fn dot4(col: &[f64], x: &[f64]) -> f64;
    /// Four-column fused dot pass, per-column bits identical to [`dot4`].
    fn dot4_cols(cols: [&[f64]; GEMV_COLS], x: &[f64]) -> [f64; GEMV_COLS];
    /// Unrolled sparse (CSR row) accumulation with fixed combine order.
    fn sparse_dot(cols: &[usize], vals: &[f64], x: &[f64]) -> f64;
}

/// Row-gather dot with a short-row fast path. The dispatched kernels can
/// never be inlined into their callers (`#[target_feature]` boundary), and
/// at ~1 nnz/row the per-row call dominates the gather itself — so rows
/// shorter than the unrolled width fold inline here instead. Which path a
/// row takes depends on its length only, so worker parity is unaffected.
#[inline]
pub(crate) fn sparse_row_dot(cols: &[usize], vals: &[f64], x: &[f64]) -> f64 {
    if cols.len() < 2 * DOT_LANES {
        let mut acc = 0.0f64;
        for (&c, &v) in cols.iter().zip(vals) {
            acc += v * x[c];
        }
        acc
    } else {
        sparse_dot(cols, vals, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, scale: f64) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.7 - 3.0) * scale).collect()
    }

    #[test]
    fn dot_matches_scalar_within_tolerance_and_is_stable() {
        for n in [0usize, 1, 3, 7, 8, 9, 63, 64, 1000] {
            let a = seq(n, 0.5);
            let b = seq(n, -0.25);
            let blocked = dot(&a, &b);
            let plain: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((blocked - plain).abs() <= 1e-9 * (1.0 + plain.abs()), "n={n}");
            assert_eq!(blocked.to_bits(), dot(&a, &b).to_bits(), "repeat stable n={n}");
        }
    }

    #[test]
    fn short_reductions_match_scalar_bitwise() {
        // Below one lane block everything folds through lane 0 in input
        // order — exactly the scalar left-to-right recurrence seeded with
        // +0.0. (`Iterator::sum` seeds with -0.0, which differs only in
        // the sign of an all-zero sum.)
        for n in 0..DOT_LANES {
            let a = seq(n, 1.0);
            let plain = a.iter().fold(0.0f64, |s, &x| s + x);
            assert_eq!(sum(&a).to_bits(), plain.to_bits(), "sum n={n}");
        }
    }

    #[test]
    fn dot4_and_grouped_columns_agree_bitwise() {
        for n in [0usize, 1, 5, 16, 67] {
            let cols: Vec<Vec<f64>> = (0..4).map(|c| seq(n, 1.0 + c as f64)).collect();
            let x = seq(n, -0.5);
            let grouped = dot4_cols(
                [&cols[0][..], &cols[1][..], &cols[2][..], &cols[3][..]],
                &x,
            );
            for (c, &g) in grouped.iter().enumerate() {
                assert_eq!(
                    g.to_bits(),
                    dot4(&cols[c], &x).to_bits(),
                    "grouping must not change column {c} at n={n}"
                );
            }
        }
    }

    #[test]
    fn gemm_tile_matches_explicit_sum() {
        let kb = 13;
        let pa = seq(kb * MR, 0.3);
        let pb = seq(kb * NR, -0.7);
        let acc = gemm_mr_nr(&pa, &pb);
        for (j, accj) in acc.iter().enumerate() {
            for (i, &got) in accj.iter().enumerate() {
                let want: f64 = (0..kb).map(|p| pa[p * MR + i] * pb[p * NR + j]).sum();
                assert!((got - want).abs() <= 1e-9 * (1.0 + want.abs()), "({i},{j})");
            }
        }
    }

    #[test]
    fn sparse_dot_matches_scalar() {
        let x = seq(100, 0.9);
        let cols: Vec<usize> = vec![3, 17, 42, 43, 44, 99, 0];
        let vals = seq(cols.len(), 1.1);
        let got = sparse_dot(&cols, &vals, &x);
        let want: f64 = cols.iter().zip(&vals).map(|(&c, &v)| v * x[c]).sum();
        assert!((got - want).abs() <= 1e-12 * (1.0 + want.abs()));
    }
}
