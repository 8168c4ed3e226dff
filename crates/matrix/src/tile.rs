//! The GEMM panel packers.
//!
//! The blocked GEMM kernels copy panels of A and B into contiguous,
//! register-tile-ordered scratch buffers before the microkernel streams
//! them (the classic packed-panel scheme). Each packer writes every slot
//! of its output, zero padding included, so the scratch it fills needs no
//! particular prior contents.

use crate::microkernel::{MR, NR};

/// Pack rows `i0..i0 + mb` of the column-major matrix `a` (leading
/// dimension `lda`) for the K-block `k0..k0 + kb` into `MR`-row strips:
/// `out[s*kb*MR + p*MR + i] = a[i0 + s*MR + i, k0 + p]`, with rows beyond
/// the panel zero-padded so the microkernel never branches on the edge.
/// `out` must hold exactly `mb.div_ceil(MR) * kb * MR` doubles.
pub(crate) fn pack_a_strips(
    a: &[f64],
    lda: usize,
    i0: usize,
    mb: usize,
    k0: usize,
    kb: usize,
    out: &mut [f64],
) {
    let strips = mb.div_ceil(MR);
    debug_assert_eq!(out.len(), strips * kb * MR);
    for (s, strip) in out.chunks_exact_mut(kb * MR).enumerate() {
        let r0 = i0 + s * MR;
        let iw = (mb - s * MR).min(MR);
        for (p, dst) in strip.chunks_exact_mut(MR).enumerate() {
            let col = &a[(k0 + p) * lda + r0..][..iw];
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
    fn pack_a_round_trip_with_padding() {
        // 5x7 matrix, pack k-block 2..7 (kb=5): strips of 8 rows, 3 padded.
        let (m, k) = (5usize, 7usize);
        let a: Vec<f64> = (0..m * k).map(|v| v as f64 + 1.0).collect();
        let (k0, kb) = (2usize, 5usize);
        let strips = m.div_ceil(MR);
        let mut out = vec![f64::NAN; strips * kb * MR];
        pack_a_strips(&a, m, 0, m, k0, kb, &mut out);
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
    fn pack_a_reads_a_row_panel_in_place() {
        // Rows 9..20 of a 23x5 matrix, k-block 1..4: the same strips as
        // packing the panel copied out on its own.
        let (m, k) = (23usize, 5usize);
        let a: Vec<f64> = (0..m * k).map(|v| v as f64 * 0.25 - 7.0).collect();
        let (i0, mb, k0, kb) = (9usize, 11usize, 1usize, 3usize);
        let panel: Vec<f64> = (0..k).flat_map(|p| a[p * m + i0..][..mb].to_vec()).collect();
        let len = mb.div_ceil(MR) * kb * MR;
        let (mut direct, mut copied) = (vec![f64::NAN; len], vec![f64::NAN; len]);
        pack_a_strips(&a, m, i0, mb, k0, kb, &mut direct);
        pack_a_strips(&panel, mb, 0, mb, k0, kb, &mut copied);
        assert_eq!(direct, copied);
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
        pack_a_strips(&t, n, 0, n, k0, kb, &mut out_a);
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
