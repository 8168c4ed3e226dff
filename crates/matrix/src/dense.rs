//! Column-major dense matrix (`x10.matrix.DenseMatrix`).
//!
//! The BLAS-shaped kernels (`gemv`/`gemv_trans`/`gemm`/`gemm_tn_acc`) fan
//! out onto [`apgas::pool`] over disjoint output chunks and run the
//! cache-blocked/register-blocked inner loops from `crate::microkernel`
//! inside each chunk; see the crate docs and DESIGN.md §3.10 for the
//! determinism and finite-values contracts. Each blocked kernel keeps a
//! `*_reference` scalar twin (the historical serial loop) as the numeric
//! oracle for the property tests and the `kernel_reference` CI bin.

use std::ops::Range;

use apgas::pool;
use apgas::serial::{read_f64_vec, write_f64_slice, Runs, Serial};
use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::microkernel::{self, GEMV_COLS, KC, MC, MR, NR};
use crate::tile;
use crate::vector::Vector;
use crate::{apply_beta, beta_combine, debug_check_finite, min_chunk_items};

/// Stream one packed A block (`MR`-row strips of C's rows `rows`) against
/// one packed B panel (`NR`-column strips) through the register
/// microkernel, accumulating into the column-major chunk `sub` (leading
/// dimension `ldc`, as many columns as the panel packs). Shared by
/// [`DenseMatrix::gemm`] and [`DenseMatrix::gemm_tn_acc`].
fn microkernel_block(
    pa_block: &[f64],
    pb_panel: &[f64],
    kb: usize,
    ldc: usize,
    rows: Range<usize>,
    sub: &mut [f64],
) {
    let nc = sub.len() / ldc;
    for (t, pbs) in pb_panel.chunks_exact(kb * NR).enumerate() {
        let j0 = t * NR;
        let jw = (nc - j0).min(NR);
        for (s, pas) in pa_block.chunks_exact(kb * MR).enumerate() {
            let i0 = rows.start + s * MR;
            let iw = (rows.end - i0).min(MR);
            let acc = microkernel::gemm_mr_nr(pas, pbs);
            for (jj, accj) in acc.iter().enumerate().take(jw) {
                let cj = &mut sub[(j0 + jj) * ldc + i0..][..iw];
                for (cv, &av) in cj.iter_mut().zip(accj) {
                    *cv += av;
                }
            }
        }
    }
}

/// A dense matrix in column-major (Fortran/BLAS) storage.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// An all-zero m×n matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Wrap a column-major buffer of length `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "dense buffer size mismatch");
        DenseMatrix { rows, cols, data }
    }

    /// Build from a row-major nested description (testing convenience).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let m = rows.len();
        let n = if m == 0 { 0 } else { rows[0].len() };
        let mut out = DenseMatrix::zeros(m, n);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), n, "ragged rows");
            for (j, &v) in r.iter().enumerate() {
                out.set(i, j, v);
            }
        }
        out
    }

    /// The n×n identity.
    pub fn identity(n: usize) -> Self {
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..n {
            a.set(i, i, 1.0);
        }
        a
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrow the underlying storage mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    #[inline]
    /// Read one element.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.rows]
    }

    #[inline]
    /// Write one element.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.rows] = v;
    }

    /// Borrow column `j`.
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Borrow column `j` mutably.
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// `self *= alpha`.
    pub fn scale(&mut self, alpha: f64) -> &mut Self {
        for v in &mut self.data {
            *v *= alpha;
        }
        self
    }

    /// Element-wise `self += other`.
    pub fn cell_add(&mut self, other: &DenseMatrix) -> &mut Self {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
        self
    }

    /// `y = alpha * A * x + beta * y` (`beta == 0` assigns, BLAS-style;
    /// `alpha == 0` reads neither `A` nor `x`). Register-blocked column
    /// sweep: four columns per pass with a fixed per-element multiply-add
    /// chain, remaining columns via single-column `axpy`. Row chunks of `y`
    /// fan out onto the compute pool; the column grouping depends only on
    /// the matrix shape, so worker-count parity is untouched.
    pub fn gemv(&self, alpha: f64, x: &[f64], beta: f64, y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "gemv: x length != cols");
        assert_eq!(y.len(), self.rows, "gemv: y length != rows");
        debug_check_finite("gemv: A", &self.data);
        debug_check_finite("gemv: x", x);
        if alpha == 0.0 || self.cols == 0 {
            apply_beta(beta, y);
            return;
        }
        // Floor the band height: a chunk walks a `band × cols` strip of the
        // column-major matrix, so narrow bands turn every column into a
        // sub-cache-line strided touch and starve the prefetcher. 1024 rows
        // keeps each per-column segment ≥ 8 KiB of contiguous reads. Pure
        // function of the shape — and per-row results don't depend on the
        // band split at all, so chunking changes can't change bits.
        const GEMV_BAND_MIN_ROWS: usize = 1024;
        let n = pool::chunk_count(self.rows, min_chunk_items(self.cols).max(GEMV_BAND_MIN_ROWS));
        let rows = self.rows;
        let groups = self.cols - self.cols % GEMV_COLS;
        pool::run_split(y, n, |i| pool::chunk_range(rows, n, i), |i, sub| {
            let r = pool::chunk_range(rows, n, i);
            apply_beta(beta, sub);
            let mut j = 0;
            while j < groups {
                let coef: [f64; GEMV_COLS] = std::array::from_fn(|l| alpha * x[j + l]);
                let cols: [&[f64]; GEMV_COLS] =
                    std::array::from_fn(|l| &self.col(j + l)[r.start..r.end]);
                microkernel::gemv_4col(&coef, cols, sub);
                j += GEMV_COLS;
            }
            for (jj, &xj) in x.iter().enumerate().skip(groups) {
                microkernel::axpy(alpha * xj, &self.col(jj)[r.start..r.end], sub);
            }
        });
    }

    /// Scalar reference twin of [`gemv`]: the historical serial column
    /// sweep, with the zero skip keyed on the raw entry (`x[j] == 0.0`
    /// skips the column, suppressing IEEE propagation from non-finite `A`
    /// entries — see the crate docs). The blocked kernel may differ from
    /// this oracle in final ULPs; `kernel_reference` CI bounds the drift.
    pub fn gemv_reference(&self, alpha: f64, x: &[f64], beta: f64, y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "gemv: x length != cols");
        assert_eq!(y.len(), self.rows, "gemv: y length != rows");
        apply_beta(beta, y);
        if alpha == 0.0 {
            return;
        }
        for (j, &xj) in x.iter().enumerate() {
            if xj == 0.0 {
                continue;
            }
            let axj = alpha * xj;
            for (yi, aij) in y.iter_mut().zip(self.col(j)) {
                *yi += axj * *aij;
            }
        }
    }

    /// `y = alpha * Aᵀ * x + beta * y` (`beta == 0` assigns, BLAS-style;
    /// `alpha == 0` reads neither `A` nor `x`). Each output element is an
    /// independent column dot product; four columns are dotted per pass
    /// (sharing the `x` loads) with per-column lane structure identical to
    /// the single-column kernel, so neither grouping nor the pool's column
    /// chunking changes any output bit.
    pub fn gemv_trans(&self, alpha: f64, x: &[f64], beta: f64, y: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "gemv_trans: x length != rows");
        assert_eq!(y.len(), self.cols, "gemv_trans: y length != cols");
        debug_check_finite("gemv_trans: A", &self.data);
        debug_check_finite("gemv_trans: x", x);
        if alpha == 0.0 || self.rows == 0 {
            apply_beta(beta, y);
            return;
        }
        let n = pool::chunk_count(self.cols, min_chunk_items(self.rows));
        let cols = self.cols;
        pool::run_split(y, n, |i| pool::chunk_range(cols, n, i), |i, sub| {
            let r = pool::chunk_range(cols, n, i);
            let mut dj = 0;
            while dj + GEMV_COLS <= sub.len() {
                let quad: [&[f64]; GEMV_COLS] =
                    std::array::from_fn(|l| self.col(r.start + dj + l));
                let dots = microkernel::dot4_cols(quad, x);
                for (yj, &d) in sub[dj..dj + GEMV_COLS].iter_mut().zip(&dots) {
                    *yj = beta_combine(beta, *yj, alpha * d);
                }
                dj += GEMV_COLS;
            }
            for (yj, jcol) in sub[dj..].iter_mut().zip(r.start + dj..r.end) {
                let dot = microkernel::dot4(self.col(jcol), x);
                *yj = beta_combine(beta, *yj, alpha * dot);
            }
        });
    }

    /// Scalar reference twin of [`gemv_trans`]: the historical serial
    /// per-column scalar dot.
    pub fn gemv_trans_reference(&self, alpha: f64, x: &[f64], beta: f64, y: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "gemv_trans: x length != rows");
        assert_eq!(y.len(), self.cols, "gemv_trans: y length != cols");
        if alpha == 0.0 {
            apply_beta(beta, y);
            return;
        }
        for (j, yj) in y.iter_mut().enumerate() {
            let dot: f64 = self.col(j).iter().zip(x).map(|(a, b)| a * b).sum();
            *yj = beta_combine(beta, *yj, alpha * dot);
        }
    }

    /// `C = alpha * A * B + beta * C` (`beta == 0` assigns, BLAS-style;
    /// `alpha == 0` reads neither `A` nor `B`). Packed-panel cache
    /// blocking: column chunks of C fan out onto the compute pool on
    /// `NR`-aligned boundaries, a pure function of the shape. Per `KC`
    /// K-block a chunk packs its alpha-folded `NR`-column B panel, then
    /// packs A one `MC`-row block at a time, straight from A, and streams
    /// each block over the panel through the register microkernel. The
    /// pack scratch is two zeroed `Vec`s per chunk, `MC × KC` and
    /// `KC × nc` doubles, whatever the height of A. Every C element gets
    /// its K-blocks in ascending order, so the blocking and the chunking
    /// leave every bit as it is.
    pub fn gemm(&self, alpha: f64, b: &DenseMatrix, beta: f64, c: &mut DenseMatrix) {
        assert_eq!(self.cols, b.rows, "gemm inner dimension");
        assert_eq!(c.rows, self.rows, "gemm C rows");
        assert_eq!(c.cols, b.cols, "gemm C cols");
        debug_check_finite("gemm: A", &self.data);
        debug_check_finite("gemm: B", &b.data);
        let (m, kk, ccols) = (self.rows, self.cols, c.cols);
        if alpha == 0.0 || kk == 0 {
            apply_beta(beta, &mut c.data);
            return;
        }
        if m == 0 || ccols == 0 {
            return;
        }
        let mc = MC.min(m.div_ceil(MR) * MR);
        let n = pool::chunk_count_granular(ccols, min_chunk_items(kk * m), NR);
        pool::run_split(
            &mut c.data,
            n,
            |i| {
                let r = pool::chunk_range_granular(ccols, n, i, NR);
                r.start * m..r.end * m
            },
            |i, sub| {
                let r = pool::chunk_range_granular(ccols, n, i, NR);
                let nc = r.len();
                apply_beta(beta, sub);
                let strips_b = nc.div_ceil(NR);
                let mut pa = vec![0.0; mc * KC.min(kk)];
                let mut pb = vec![0.0; strips_b * NR * KC.min(kk)];
                for k0 in (0..kk).step_by(KC) {
                    let kb = KC.min(kk - k0);
                    let pbuf = &mut pb[..strips_b * NR * kb];
                    tile::pack_b_strips(&b.data, kk, r.start, nc, k0, kb, alpha, pbuf);
                    for i0 in (0..m).step_by(MC) {
                        let mb = MC.min(m - i0);
                        let pa_block = &mut pa[..mb.div_ceil(MR) * MR * kb];
                        tile::pack_a_strips(&self.data, m, i0, mb, k0, kb, pa_block);
                        microkernel_block(pa_block, pbuf, kb, m, i0..i0 + mb, sub);
                    }
                }
            },
        );
    }

    /// Scalar reference twin of [`gemm`]: the historical serial jik triple
    /// loop, with the zero skip keyed on the raw entry (`b[k,j] == 0.0`
    /// skips that rank-1 contribution, suppressing IEEE propagation from
    /// non-finite `A` entries — never on the computed `alpha * b[k,j]`,
    /// which could underflow to zero). The blocked kernel may differ from
    /// this oracle in final ULPs; `kernel_reference` CI bounds the drift.
    pub fn gemm_reference(&self, alpha: f64, b: &DenseMatrix, beta: f64, c: &mut DenseMatrix) {
        assert_eq!(self.cols, b.rows, "gemm inner dimension");
        assert_eq!(c.rows, self.rows, "gemm C rows");
        assert_eq!(c.cols, b.cols, "gemm C cols");
        let (crows, ccols) = (c.rows, c.cols);
        if alpha == 0.0 {
            apply_beta(beta, &mut c.data);
            return;
        }
        for j in 0..ccols {
            let cj = &mut c.data[j * crows..(j + 1) * crows];
            apply_beta(beta, cj);
            for k in 0..self.cols {
                let bkj = b.get(k, j);
                if bkj == 0.0 {
                    continue;
                }
                let abkj = alpha * bkj;
                let ak = self.col(k);
                for (cij, aik) in cj.iter_mut().zip(ak) {
                    *cij += abkj * *aik;
                }
            }
        }
    }

    /// The transpose as a new matrix, 32×32 cache-blocked: within a tile
    /// the source columns stay cache-resident while each output column
    /// segment is written contiguously — replacing the strided-write
    /// per-element `set` loop (kept as [`transpose_reference`]).
    pub fn transpose(&self) -> DenseMatrix {
        const TB: usize = 32;
        let (m, n) = (self.rows, self.cols);
        let mut out = DenseMatrix::zeros(n, m);
        for i0 in (0..m).step_by(TB) {
            let ib = TB.min(m - i0);
            for j0 in (0..n).step_by(TB) {
                let jb = TB.min(n - j0);
                for di in 0..ib {
                    let src_row = i0 + di;
                    let dst = &mut out.data[src_row * n + j0..][..jb];
                    for (dj, d) in dst.iter_mut().enumerate() {
                        *d = self.data[src_row + (j0 + dj) * m];
                    }
                }
            }
        }
        out
    }

    /// Reference twin of [`transpose`]: the per-element loop. Both produce
    /// bit-identical output (transposition moves values, no arithmetic);
    /// the blocked version only fixes the memory access pattern.
    pub fn transpose_reference(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for j in 0..self.cols {
            for (i, &v) in self.col(j).iter().enumerate() {
                out.set(j, i, v);
            }
        }
        out
    }

    /// `C += selfᵀ * B` where `self` is m×k, `B` is m×n and `C` is k×n —
    /// the partial-Gram product at the heart of distributed `WᵀV`/`WᵀW`.
    /// Column chunks of `C` fan out onto the compute pool on `NR`-aligned
    /// boundaries, a pure function of the shape. Per `KC` block of the
    /// reduction a chunk transpose-packs that block of `selfᵀ` into
    /// `MR`-row strips (contiguous reads down A's columns) and its B panel,
    /// and drives the same register microkernel as [`gemm`], accumulating
    /// K-blocks into `C` in ascending order. The pack scratch is two zeroed
    /// `Vec`s per chunk, `k × KC` and `KC × nc` doubles, whatever the
    /// reduction length.
    pub fn gemm_tn_acc(&self, b: &DenseMatrix, c: &mut DenseMatrix) {
        assert_eq!(self.rows, b.rows, "gemm_tn inner dimension");
        assert_eq!(c.rows, self.cols, "gemm_tn C rows");
        assert_eq!(c.cols, b.cols, "gemm_tn C cols");
        debug_check_finite("gemm_tn_acc: A", &self.data);
        debug_check_finite("gemm_tn_acc: B", &b.data);
        let (kdim, mt, ccols) = (self.rows, self.cols, c.cols);
        if kdim == 0 || mt == 0 || ccols == 0 {
            return;
        }
        let strips_a = mt.div_ceil(MR);
        let n = pool::chunk_count_granular(ccols, min_chunk_items(kdim * mt), NR);
        pool::run_split(
            &mut c.data,
            n,
            |i| {
                let r = pool::chunk_range_granular(ccols, n, i, NR);
                r.start * mt..r.end * mt
            },
            |i, sub| {
                let r = pool::chunk_range_granular(ccols, n, i, NR);
                let nc = r.len();
                let strips_b = nc.div_ceil(NR);
                let mut pa = vec![0.0; strips_a * MR * KC.min(kdim)];
                let mut pb = vec![0.0; strips_b * NR * KC.min(kdim)];
                for k0 in (0..kdim).step_by(KC) {
                    let kb = KC.min(kdim - k0);
                    let pa_block = &mut pa[..strips_a * MR * kb];
                    tile::pack_at_strips(&self.data, kdim, mt, k0, kb, pa_block);
                    let pbuf = &mut pb[..strips_b * NR * kb];
                    tile::pack_b_strips(&b.data, kdim, r.start, nc, k0, kb, 1.0, pbuf);
                    microkernel_block(pa_block, pbuf, kb, mt, 0..mt, sub);
                }
            },
        );
    }

    /// Scalar reference twin of [`gemm_tn_acc`]: the historical serial
    /// column-column dot loops, each `C[i,j]` accumulated as one complete
    /// dot product added to the prior value.
    pub fn gemm_tn_acc_reference(&self, b: &DenseMatrix, c: &mut DenseMatrix) {
        assert_eq!(self.rows, b.rows, "gemm_tn inner dimension");
        assert_eq!(c.rows, self.cols, "gemm_tn C rows");
        assert_eq!(c.cols, b.cols, "gemm_tn C cols");
        let crows = c.rows;
        for j in 0..c.cols {
            let cj = &mut c.data[j * crows..(j + 1) * crows];
            let bj = b.col(j);
            for (i2, cij) in cj.iter_mut().enumerate() {
                let ai = self.col(i2);
                let dot: f64 = ai.iter().zip(bj).map(|(x, y)| x * y).sum();
                *cij += dot;
            }
        }
    }

    /// Element-wise multiply.
    pub fn cell_mult(&mut self, other: &DenseMatrix) -> &mut Self {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a *= *b;
        }
        self
    }

    /// Element-wise divide with a small guard against division by zero
    /// (the ε-guarded division used by multiplicative NMF updates).
    pub fn cell_div_guarded(&mut self, other: &DenseMatrix, eps: f64) -> &mut Self {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a /= *b + eps;
        }
        self
    }

    /// Extract the sub-matrix with rows `r0..r1` and cols `c0..c1`.
    pub fn sub_matrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> DenseMatrix {
        assert!(r0 <= r1 && r1 <= self.rows, "row range out of bounds");
        assert!(c0 <= c1 && c1 <= self.cols, "col range out of bounds");
        let (m, n) = (r1 - r0, c1 - c0);
        let mut out = DenseMatrix::zeros(m, n);
        for j in 0..n {
            let src = &self.col(c0 + j)[r0..r1];
            out.data[j * m..(j + 1) * m].copy_from_slice(src);
        }
        out
    }

    /// Paste `src` so its (0,0) lands at `(r0, c0)` of `self`.
    pub fn paste(&mut self, r0: usize, c0: usize, src: &DenseMatrix) {
        assert!(r0 + src.rows <= self.rows && c0 + src.cols <= self.cols, "paste out of bounds");
        for j in 0..src.cols {
            let dst_col = c0 + j;
            let dst =
                &mut self.data[dst_col * self.rows + r0..dst_col * self.rows + r0 + src.rows];
            dst.copy_from_slice(src.col(j));
        }
    }

    /// Multiply into a fresh output vector: `A * x`.
    pub fn mult_vec(&self, x: &Vector) -> Vector {
        let mut y = Vector::zeros(self.rows);
        self.gemv(1.0, x.as_slice(), 0.0, y.as_mut_slice());
        y
    }

    /// Multiply into a fresh output vector: `Aᵀ * x`.
    pub fn mult_trans_vec(&self, x: &Vector) -> Vector {
        let mut y = Vector::zeros(self.cols);
        self.gemv_trans(1.0, x.as_slice(), 0.0, y.as_mut_slice());
        y
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Max absolute difference (testing aid).
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl Serial for DenseMatrix {
    fn write(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.rows as u64);
        buf.put_u64_le(self.cols as u64);
        write_f64_slice(&self.data, buf);
    }
    fn read(buf: &mut Bytes) -> Self {
        let rows = buf.get_u64_le() as usize;
        let cols = buf.get_u64_le() as usize;
        let data = read_f64_vec(buf);
        DenseMatrix::from_vec(rows, cols, data)
    }
    fn byte_len(&self) -> usize {
        16 + 8 + 8 * self.data.len()
    }
    fn write_runs<'a>(&'a self, runs: &mut Runs<'a>) {
        [self.rows, self.cols, self.data.len()].iter().for_each(|x| runs.put(x));
        runs.put_elems(&self.data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a23() -> DenseMatrix {
        DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]])
    }

    #[test]
    fn layout_is_column_major() {
        let a = a23();
        assert_eq!(a.as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(a.get(1, 2), 6.0);
        assert_eq!(a.col(1), &[2.0, 5.0]);
    }

    #[test]
    fn gemv_matches_manual() {
        let a = a23();
        let x = [1.0, 0.0, -1.0];
        let mut y = [10.0, 20.0];
        a.gemv(2.0, &x, 0.5, &mut y);
        // A*x = [1-3, 4-6] = [-2, -2]; y = 2*[-2,-2] + 0.5*[10,20] = [1, 6]
        assert_eq!(y, [1.0, 6.0]);
    }

    #[test]
    fn gemv_trans_matches_manual() {
        let a = a23();
        let x = [1.0, 1.0];
        let mut y = [0.0; 3];
        a.gemv_trans(1.0, &x, 0.0, &mut y);
        assert_eq!(y, [5.0, 7.0, 9.0]);
    }

    #[test]
    fn gemm_identity() {
        let a = a23();
        let i3 = DenseMatrix::identity(3);
        let mut c = DenseMatrix::zeros(2, 3);
        a.gemm(1.0, &i3, 0.0, &mut c);
        assert_eq!(c, a);
    }

    #[test]
    fn gemm_small_product() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DenseMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let mut c = DenseMatrix::zeros(2, 2);
        a.gemm(1.0, &b, 0.0, &mut c);
        assert_eq!(c, DenseMatrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_round_trip() {
        let a = a23();
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 1), a.get(1, 2));
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn gemm_tn_matches_explicit_transpose() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]); // 3x2
        let b = DenseMatrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 1.0, 1.0], &[2.0, 2.0, 0.0]]); // 3x3
        let mut c = DenseMatrix::zeros(2, 3);
        a.gemm_tn_acc(&b, &mut c);
        let mut expect = DenseMatrix::zeros(2, 3);
        a.transpose().gemm(1.0, &b, 0.0, &mut expect);
        assert!(c.max_abs_diff(&expect) < 1e-12);
        // Accumulation: a second call doubles the result.
        a.gemm_tn_acc(&b, &mut c);
        expect.scale(2.0);
        assert!(c.max_abs_diff(&expect) < 1e-12);
    }

    /// The kernels as they packed before bounded panels: `gemm` packed the
    /// whole of A once, shared by every column chunk, and `gemm_tn_acc`
    /// the whole of Aᵀ, for the full reduction length. Transcribed here as
    /// the bit-for-bit oracle for the bounded-panel kernels.
    mod whole_operand_packing {
        use super::*;
        use crate::builder;

        fn microkernel_block(
            pa_block: &[f64],
            pb_panel: &[f64],
            kb: usize,
            m: usize,
            nc: usize,
            sub: &mut [f64],
        ) {
            for (t, pbs) in pb_panel.chunks_exact(kb * NR).enumerate() {
                let j0 = t * NR;
                let jw = (nc - j0).min(NR);
                for (s, pas) in pa_block.chunks_exact(kb * MR).enumerate() {
                    let i0 = s * MR;
                    let iw = (m - i0).min(MR);
                    let acc = microkernel::gemm_mr_nr(pas, pbs);
                    for (jj, accj) in acc.iter().enumerate().take(jw) {
                        let cj = &mut sub[(j0 + jj) * m + i0..][..iw];
                        for (cv, &av) in cj.iter_mut().zip(accj) {
                            *cv += av;
                        }
                    }
                }
            }
        }

        fn gemm(a: &DenseMatrix, alpha: f64, b: &DenseMatrix, beta: f64, c: &mut DenseMatrix) {
            let (m, kk, ccols) = (a.rows, a.cols, c.cols);
            if alpha == 0.0 || kk == 0 {
                apply_beta(beta, &mut c.data);
                return;
            }
            if m == 0 || ccols == 0 {
                return;
            }
            let strips_a = m.div_ceil(MR);
            let mut pa = vec![0.0; strips_a * MR * kk];
            for k0 in (0..kk).step_by(KC) {
                let kb = KC.min(kk - k0);
                let block = &mut pa[strips_a * MR * k0..][..strips_a * MR * kb];
                tile::pack_a_strips(&a.data, m, 0, m, k0, kb, block);
            }
            let n = pool::chunk_count_granular(ccols, min_chunk_items(kk * m), NR);
            pool::run_split(
                &mut c.data,
                n,
                |i| {
                    let r = pool::chunk_range_granular(ccols, n, i, NR);
                    r.start * m..r.end * m
                },
                |i, sub| {
                    let r = pool::chunk_range_granular(ccols, n, i, NR);
                    let nc = r.len();
                    apply_beta(beta, sub);
                    let strips_b = nc.div_ceil(NR);
                    let mut pb = vec![0.0; strips_b * NR * KC.min(kk)];
                    for k0 in (0..kk).step_by(KC) {
                        let kb = KC.min(kk - k0);
                        let pbuf = &mut pb[..strips_b * NR * kb];
                        tile::pack_b_strips(&b.data, kk, r.start, nc, k0, kb, alpha, pbuf);
                        let pa_block = &pa[strips_a * MR * k0..][..strips_a * MR * kb];
                        microkernel_block(pa_block, pbuf, kb, m, nc, sub);
                    }
                },
            );
        }

        fn gemm_tn_acc(a: &DenseMatrix, b: &DenseMatrix, c: &mut DenseMatrix) {
            let (kdim, mt, ccols) = (a.rows, a.cols, c.cols);
            if kdim == 0 || mt == 0 || ccols == 0 {
                return;
            }
            let strips_a = mt.div_ceil(MR);
            let mut pa = vec![0.0; strips_a * MR * kdim];
            for k0 in (0..kdim).step_by(KC) {
                let kb = KC.min(kdim - k0);
                let block = &mut pa[strips_a * MR * k0..][..strips_a * MR * kb];
                tile::pack_at_strips(&a.data, kdim, mt, k0, kb, block);
            }
            let n = pool::chunk_count_granular(ccols, min_chunk_items(kdim * mt), NR);
            pool::run_split(
                &mut c.data,
                n,
                |i| {
                    let r = pool::chunk_range_granular(ccols, n, i, NR);
                    r.start * mt..r.end * mt
                },
                |i, sub| {
                    let r = pool::chunk_range_granular(ccols, n, i, NR);
                    let nc = r.len();
                    let strips_b = nc.div_ceil(NR);
                    let mut pb = vec![0.0; strips_b * NR * KC.min(kdim)];
                    for k0 in (0..kdim).step_by(KC) {
                        let kb = KC.min(kdim - k0);
                        let pbuf = &mut pb[..strips_b * NR * kb];
                        tile::pack_b_strips(&b.data, kdim, r.start, nc, k0, kb, 1.0, pbuf);
                        let pa_block = &pa[strips_a * MR * k0..][..strips_a * MR * kb];
                        microkernel_block(pa_block, pbuf, kb, mt, nc, sub);
                    }
                },
            );
        }

        fn bits(c: &DenseMatrix) -> Vec<u64> {
            c.as_slice().iter().map(|v| v.to_bits()).collect()
        }

        /// `(m, k, n)` of `A (m×k) · B (k×n)`, each with the `(alpha, beta)`
        /// pairs it runs: m below `MR`, not a multiple of `MR`, and above
        /// `MC` but not a multiple of it; K crossing `KC`; column counts
        /// off `NR`; and GNMF's per-place `W · (H·Hᵀ)`, 20 000 × 32 · 32 × 32,
        /// as GNMF calls it.
        const GEMM_SHAPES: [(usize, usize, usize); 7] = [
            (5, 9, 3),
            (37, 300, 7),
            (600, 517, 13),
            (MC, KC, NR),
            (2 * MC + 1, 2 * KC + 1, 2 * NR + 1),
            (1, 1, 1),
            (20_000, 32, 32),
        ];
        const SCALINGS: [(f64, f64); 4] = [(1.0, 0.0), (1.1, 0.5), (-0.75, 0.0), (1.0, 0.5)];

        #[test]
        fn gemm_is_bit_identical() {
            for (seed, &(m, k, n)) in GEMM_SHAPES.iter().enumerate() {
                let seed = 10 * seed as u64;
                let a = builder::random_dense(m, k, seed + 1);
                let b = builder::random_dense(k, n, seed + 2);
                let c0 = builder::random_dense(m, n, seed + 3);
                let scalings = if m == 20_000 { &SCALINGS[..1] } else { &SCALINGS[..] };
                for &(alpha, beta) in scalings {
                    let (mut got, mut want) = (c0.clone(), c0.clone());
                    a.gemm(alpha, &b, beta, &mut got);
                    gemm(&a, alpha, &b, beta, &mut want);
                    assert_eq!(bits(&got), bits(&want), "{m}x{k}x{n} alpha {alpha} beta {beta}");
                }
            }
        }

        /// `(m, k, n)` of `C (k×n) += Aᵀ (k×m) · B (m×n)`: the reduction
        /// length m within, at and across `KC`; k below, off and at `MR`;
        /// n off `NR`; and GNMF's per-place `WᵀW`, 20 000 × 32ᵀ · 20 000 × 32.
        const GEMM_TN_SHAPES: [(usize, usize, usize); 6] = [
            (9, 5, 3),
            (KC, MR, NR),
            (300, 37, 7),
            (1_000, 13, 93),
            (2 * KC + 1, 2 * MR + 1, 2 * NR + 1),
            (20_000, 32, 32),
        ];

        #[test]
        fn gemm_tn_acc_is_bit_identical() {
            for (seed, &(m, k, n)) in GEMM_TN_SHAPES.iter().enumerate() {
                let seed = 10 * seed as u64 + 100;
                let a = builder::random_dense(m, k, seed + 1);
                let b = builder::random_dense(m, n, seed + 2);
                // Into zeros, then accumulated onto a non-zero C.
                for c0 in [DenseMatrix::zeros(k, n), builder::random_dense(k, n, seed + 3)] {
                    let (mut got, mut want) = (c0.clone(), c0);
                    a.gemm_tn_acc(&b, &mut got);
                    gemm_tn_acc(&a, &b, &mut want);
                    assert_eq!(bits(&got), bits(&want), "{m}x{k}ᵀ · {m}x{n}");
                }
            }
        }
    }

    #[test]
    fn cellwise_mult_and_guarded_div() {
        let mut a = DenseMatrix::from_rows(&[&[2.0, 4.0], &[6.0, 8.0]]);
        let b = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 0.0]]);
        a.cell_mult(&b);
        assert_eq!(a, DenseMatrix::from_rows(&[&[2.0, 8.0], &[18.0, 0.0]]));
        a.cell_div_guarded(&b, 1e-9);
        assert!((a.get(0, 0) - 2.0).abs() < 1e-6);
        assert!(a.get(1, 1).is_finite(), "division by zero is guarded");
    }

    #[test]
    fn sub_matrix_and_paste_round_trip() {
        let a = DenseMatrix::from_rows(&[
            &[1.0, 2.0, 3.0, 4.0],
            &[5.0, 6.0, 7.0, 8.0],
            &[9.0, 10.0, 11.0, 12.0],
        ]);
        let s = a.sub_matrix(1, 3, 1, 4);
        assert_eq!(s, DenseMatrix::from_rows(&[&[6.0, 7.0, 8.0], &[10.0, 11.0, 12.0]]));
        let mut b = DenseMatrix::zeros(3, 4);
        b.paste(1, 1, &s);
        assert_eq!(b.get(1, 1), 6.0);
        assert_eq!(b.get(2, 3), 12.0);
        assert_eq!(b.get(0, 0), 0.0);
    }

    #[test]
    fn empty_sub_matrix() {
        let a = a23();
        let s = a.sub_matrix(1, 1, 0, 3);
        assert_eq!(s.rows(), 0);
        assert_eq!(s.cols(), 3);
    }

    #[test]
    fn mult_vec_helpers() {
        let a = a23();
        let y = a.mult_vec(&Vector::from_vec(vec![1.0, 1.0, 1.0]));
        assert_eq!(y.as_slice(), &[6.0, 15.0]);
        let z = a.mult_trans_vec(&Vector::from_vec(vec![1.0, 1.0]));
        assert_eq!(z.as_slice(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn scale_cell_add_norms() {
        let mut a = a23();
        a.scale(2.0);
        assert_eq!(a.get(0, 0), 2.0);
        let b = a23();
        a.cell_add(&b);
        assert_eq!(a.get(1, 2), 18.0);
        let f = DenseMatrix::from_rows(&[&[3.0], &[4.0]]).frobenius_norm();
        assert!((f - 5.0).abs() < 1e-12);
    }

    #[test]
    fn serialization_round_trip() {
        let a = a23();
        let bytes = a.to_bytes();
        assert_eq!(bytes.len(), a.byte_len());
        assert_eq!(DenseMatrix::from_bytes(bytes), a);
    }

    #[test]
    #[should_panic(expected = "buffer size mismatch")]
    fn bad_buffer_panics() {
        DenseMatrix::from_vec(2, 2, vec![0.0; 3]);
    }
}
