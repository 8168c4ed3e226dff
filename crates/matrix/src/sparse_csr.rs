//! Compressed sparse row matrix (`x10.matrix.sparse.SparseCSR`).
//!
//! The multiply kernels fan out onto [`apgas::pool`]; see the crate docs
//! for the determinism and finite-values contracts.

use std::ops::Range;

use apgas::pool;
use apgas::serial::{Runs, Serial, SerialElem};
use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::dense::DenseMatrix;
use crate::microkernel;
use crate::vector::Vector;
use crate::{apply_beta, beta_combine, debug_check_finite, min_chunk_items};

/// A sparse matrix in CSR format: for each row, a contiguous run of
/// `(col, value)` pairs. Column indices within a row are strictly
/// increasing.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseCSR {
    rows: usize,
    cols: usize,
    /// `row_ptr[i]..row_ptr[i+1]` indexes row i's entries. Length rows+1.
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl SparseCSR {
    /// An empty (all-zero) matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        SparseCSR { rows, cols, row_ptr: vec![0; rows + 1], col_idx: Vec::new(), values: Vec::new() }
    }

    /// Build from raw CSR arrays.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), rows + 1, "row_ptr length");
        assert_eq!(col_idx.len(), values.len(), "col/value length mismatch");
        assert_eq!(*row_ptr.last().expect("non-empty row_ptr"), col_idx.len(), "row_ptr tail");
        debug_assert!(row_ptr.windows(2).all(|w| w[0] <= w[1]), "row_ptr monotone");
        debug_assert!(col_idx.iter().all(|&c| c < cols), "col index in range");
        SparseCSR { rows, cols, row_ptr, col_idx, values }
    }

    /// Build from `(row, col, value)` triplets (need not be sorted;
    /// duplicate positions are summed).
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut per_row: Vec<Vec<(usize, f64)>> = vec![Vec::new(); rows];
        for &(r, c, v) in triplets {
            assert!(r < rows && c < cols, "triplet out of range");
            per_row[r].push((c, v));
        }
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        row_ptr.push(0);
        for entries in &mut per_row {
            entries.sort_unstable_by_key(|e| e.0);
            let mut last_col = usize::MAX;
            for &(c, v) in entries.iter() {
                if c == last_col {
                    *values.last_mut().expect("duplicate follows an entry") += v;
                } else {
                    col_idx.push(c);
                    values.push(v);
                    last_col = c;
                }
            }
            row_ptr.push(col_idx.len());
        }
        SparseCSR { rows, cols, row_ptr, col_idx, values }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row `i` as parallel `(cols, values)` slices.
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let (a, b) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.col_idx[a..b], &self.values[a..b])
    }

    /// The value at `(i, j)` (zero if not stored).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// `self *= alpha`.
    pub fn scale(&mut self, alpha: f64) -> &mut Self {
        for v in &mut self.values {
            *v *= alpha;
        }
        self
    }

    /// Apply `f` to every stored value in place (structure unchanged).
    pub fn map_values(&mut self, f: impl Fn(f64) -> f64) -> &mut Self {
        for v in &mut self.values {
            *v = f(*v);
        }
        self
    }

    /// `y = alpha * A * x + beta * y` (`beta == 0` assigns, BLAS-style;
    /// `alpha == 0` reads neither `A` nor `x`). Gather form: every output
    /// row is an independent 4-lane unrolled sparse dot product with fixed
    /// lane-combine order, so row chunks of `y` fan out onto the compute
    /// pool bit-identically.
    pub fn spmv(&self, alpha: f64, x: &[f64], beta: f64, y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "spmv: x length != cols");
        assert_eq!(y.len(), self.rows, "spmv: y length != rows");
        debug_check_finite("spmv: A", &self.values);
        debug_check_finite("spmv: x", x);
        if alpha == 0.0 {
            apply_beta(beta, y);
            return;
        }
        let rows = self.rows;
        let nnz_per_row = self.nnz() / rows.max(1);
        let n = pool::chunk_count(rows, min_chunk_items(nnz_per_row));
        pool::run_split(y, n, |i| pool::chunk_range(rows, n, i), |i, sub| {
            let r = pool::chunk_range(rows, n, i);
            for (di, yi) in sub.iter_mut().enumerate() {
                let (cols, vals) = self.row(r.start + di);
                let dot = microkernel::sparse_row_dot(cols, vals, x);
                *yi = beta_combine(beta, *yi, alpha * dot);
            }
        });
    }

    /// Scalar reference twin of [`spmv`]: the historical serial row-gather
    /// with a left-to-right scalar dot. The unrolled kernel may differ from
    /// this oracle in final ULPs; `kernel_reference` CI bounds the drift.
    pub fn spmv_reference(&self, alpha: f64, x: &[f64], beta: f64, y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "spmv: x length != cols");
        assert_eq!(y.len(), self.rows, "spmv: y length != rows");
        if alpha == 0.0 {
            apply_beta(beta, y);
            return;
        }
        for (i, yi) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            let dot: f64 = cols.iter().zip(vals).map(|(&c, &v)| v * x[c]).sum();
            *yi = beta_combine(beta, *yi, alpha * dot);
        }
    }

    /// `y = alpha * Aᵀ * x + beta * y` (`beta == 0` assigns, BLAS-style;
    /// `alpha == 0` reads neither `A` nor `x`). Scatter form: row chunks
    /// accumulate into per-chunk partial vectors that are combined in
    /// ascending chunk order, so the result is bit-identical for every
    /// worker count; with a single chunk (small inputs) the historical
    /// in-place scatter runs unchanged. A row whose `x[i]` is exactly zero
    /// is skipped — keyed on the raw entry (like `beta_combine` keys on
    /// `beta`), never on the computed `alpha * x[i]`, which could underflow
    /// to zero.
    pub fn spmv_trans(&self, alpha: f64, x: &[f64], beta: f64, y: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "spmv_trans: x length != rows");
        assert_eq!(y.len(), self.cols, "spmv_trans: y length != cols");
        debug_check_finite("spmv_trans: A", &self.values);
        debug_check_finite("spmv_trans: x", x);
        apply_beta(beta, y);
        if alpha == 0.0 {
            return;
        }
        let (rows, cols) = (self.rows, self.cols);
        let k = crate::scatter_chunks(rows, cols);
        if k <= 1 {
            for (i, &xi) in x.iter().enumerate() {
                if xi == 0.0 {
                    continue;
                }
                let axi = alpha * xi;
                let (cidx, vals) = self.row(i);
                for (&c, &v) in cidx.iter().zip(vals) {
                    y[c] += axi * v;
                }
            }
            return;
        }
        let mut partials = vec![0.0f64; k * cols];
        pool::run_split(&mut partials, k, |i| i * cols..(i + 1) * cols, |i, part| {
            for row in pool::chunk_range(rows, k, i) {
                if x[row] == 0.0 {
                    continue;
                }
                let axi = alpha * x[row];
                let (cidx, vals) = self.row(row);
                for (&c, &v) in cidx.iter().zip(vals) {
                    part[c] += axi * v;
                }
            }
        });
        for part in partials.chunks_exact(cols.max(1)) {
            for (yc, pc) in y.iter_mut().zip(part) {
                *yc += *pc;
            }
        }
    }

    /// Multiply into a fresh output vector: `A * x`.
    pub fn mult_vec(&self, x: &Vector) -> Vector {
        let mut y = Vector::zeros(self.rows);
        self.spmv(1.0, x.as_slice(), 0.0, y.as_mut_slice());
        y
    }

    /// Sparse × dense: `self (m×n) * B (n×k) → m×k` dense, in a new
    /// matrix; [`spmm_into`](Self::spmm_into) writes into one the caller
    /// holds.
    pub fn spmm(&self, b: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, b.cols());
        self.spmm_into(b, &mut out);
        out
    }

    /// `out = self (m×n) * B (n×k)`, overwriting every element of the m×k
    /// `out`: [`spmm_rows_into`](Self::spmm_rows_into) over every row.
    pub fn spmm_into(&self, b: &DenseMatrix, out: &mut DenseMatrix) {
        self.spmm_rows_into(0..self.rows, b, out);
    }

    /// `out = self[rows, :] * B`: the product's rows `rows`, overwriting
    /// every element of the `rows.len() × k` `out`, with no copy of those
    /// rows made. Every output element is an independent sparse dot
    /// product; each output column is contiguous, so row chunks within
    /// each column fan out onto the compute pool bit-identically, and a
    /// row's bits do not depend on the range it is computed in.
    pub fn spmm_rows_into(&self, rows: Range<usize>, b: &DenseMatrix, out: &mut DenseMatrix) {
        assert_eq!(self.cols, b.rows(), "spmm inner dimension");
        assert!(rows.start <= rows.end && rows.end <= self.rows, "spmm row range out of bounds");
        let len = rows.len();
        assert_eq!((out.rows(), out.cols()), (len, b.cols()), "spmm output shape");
        let (lo, hi) = (self.row_ptr[rows.start], self.row_ptr[rows.end]);
        debug_check_finite("spmm: A", &self.values[lo..hi]);
        debug_check_finite("spmm: B", b.as_slice());
        let nnz_per_row = (hi - lo) / len.max(1);
        let n = pool::chunk_count(len, min_chunk_items(nnz_per_row));
        for kk in 0..b.cols() {
            let bcol = b.col(kk);
            pool::run_split(out.col_mut(kk), n, |i| pool::chunk_range(len, n, i), |i, sub| {
                let r = pool::chunk_range(len, n, i);
                for (di, oik) in sub.iter_mut().enumerate() {
                    let (cols, vals) = self.row(rows.start + r.start + di);
                    *oik = microkernel::sparse_row_dot(cols, vals, bcol);
                }
            });
        }
    }

    /// Transposed sparse × dense: `selfᵀ (n×m) * B (m×k) → n×k` dense —
    /// scatter form, one pass over the non-zeros.
    pub fn trans_spmm(&self, b: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.rows, b.rows(), "trans_spmm inner dimension");
        let k = b.cols();
        let mut out = DenseMatrix::zeros(self.cols, k);
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for kk in 0..k {
                let bik = b.get(i, kk);
                if bik == 0.0 {
                    continue;
                }
                for (&c, &v) in cols.iter().zip(vals) {
                    let cur = out.get(c, kk) + v * bik;
                    out.set(c, kk, cur);
                }
            }
        }
        out
    }

    /// Count the non-zeros inside the region rows `r0..r1`, cols `c0..c1` —
    /// the pre-pass the paper notes is required before restoring a
    /// repartitioned sparse block ("the non-zero elements for the
    /// overlapping regions must be counted to determine the space required").
    pub fn count_nnz_in(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> usize {
        let mut count = 0;
        for i in r0..r1 {
            let (cols, _) = self.row(i);
            let lo = cols.partition_point(|&c| c < c0);
            let hi = cols.partition_point(|&c| c < c1);
            count += hi - lo;
        }
        count
    }

    /// Extract the sub-matrix rows `r0..r1` × cols `c0..c1` as a new CSR
    /// with re-based indices. Runs the nnz counting pre-pass to size the
    /// allocation exactly.
    pub fn sub_matrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> SparseCSR {
        assert!(r0 <= r1 && r1 <= self.rows, "row range out of bounds");
        assert!(c0 <= c1 && c1 <= self.cols, "col range out of bounds");
        let nnz = self.count_nnz_in(r0, r1, c0, c1);
        let mut row_ptr = Vec::with_capacity(r1 - r0 + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        row_ptr.push(0);
        for i in r0..r1 {
            let (cols, vals) = self.row(i);
            let lo = cols.partition_point(|&c| c < c0);
            let hi = cols.partition_point(|&c| c < c1);
            for k in lo..hi {
                col_idx.push(cols[k] - c0);
                values.push(vals[k]);
            }
            row_ptr.push(col_idx.len());
        }
        SparseCSR { rows: r1 - r0, cols: c1 - c0, row_ptr, col_idx, values }
    }

    /// Paste `src` so its (0,0) lands at `(r0, c0)`. Requires the target
    /// region to be currently empty in `self` (used when assembling a block
    /// from restored sub-blocks). O(nnz) rebuild.
    pub fn paste(&mut self, r0: usize, c0: usize, src: &SparseCSR) {
        assert!(r0 + src.rows <= self.rows && c0 + src.cols <= self.cols, "paste out of bounds");
        debug_assert_eq!(self.count_nnz_in(r0, r0 + src.rows, c0, c0 + src.cols), 0);
        let mut triplets: Vec<(usize, usize, f64)> = Vec::with_capacity(self.nnz() + src.nnz());
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            triplets.extend(cols.iter().zip(vals).map(|(&c, &v)| (i, c, v)));
        }
        for i in 0..src.rows {
            let (cols, vals) = src.row(i);
            triplets.extend(cols.iter().zip(vals).map(|(&c, &v)| (i + r0, c + c0, v)));
        }
        *self = SparseCSR::from_triplets(self.rows, self.cols, &triplets);
    }

    /// Densify (testing aid; O(rows*cols) memory).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                out.set(i, c, v);
            }
        }
        out
    }

    /// Iterate all stored entries as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter().zip(vals).map(move |(&c, &v)| (i, c, v))
        })
    }
}

impl Serial for SparseCSR {
    fn write(&self, buf: &mut BytesMut) {
        buf.reserve(self.byte_len());
        buf.put_u64_le(self.rows as u64);
        buf.put_u64_le(self.cols as u64);
        buf.put_u64_le(self.nnz() as u64);
        // The three arrays move via the bulk slice fast path; their lengths
        // are derivable from the header, so no per-array prefix.
        usize::write_slice(&self.row_ptr, buf);
        usize::write_slice(&self.col_idx, buf);
        f64::write_slice(&self.values, buf);
    }
    fn read(buf: &mut Bytes) -> Self {
        let rows = buf.get_u64_le() as usize;
        let cols = buf.get_u64_le() as usize;
        let nnz = buf.get_u64_le() as usize;
        let mut row_ptr = Vec::new();
        usize::read_slice_into(rows + 1, buf, &mut row_ptr);
        let mut col_idx = Vec::new();
        usize::read_slice_into(nnz, buf, &mut col_idx);
        let mut values = Vec::new();
        f64::read_slice_into(nnz, buf, &mut values);
        SparseCSR::from_raw(rows, cols, row_ptr, col_idx, values)
    }
    fn byte_len(&self) -> usize {
        24 + 8 * (self.row_ptr.len() + 2 * self.nnz())
    }
    fn write_runs<'a>(&'a self, runs: &mut Runs<'a>) {
        [self.rows, self.cols, self.nnz()].iter().for_each(|x| runs.put(x));
        runs.put_elems(&self.row_ptr);
        runs.put_elems(&self.col_idx);
        runs.put_elems(&self.values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3×4 example:
    /// [1 0 2 0]
    /// [0 0 0 3]
    /// [4 5 0 0]
    fn example() -> SparseCSR {
        SparseCSR::from_triplets(
            3,
            4,
            &[(0, 0, 1.0), (0, 2, 2.0), (1, 3, 3.0), (2, 0, 4.0), (2, 1, 5.0)],
        )
    }

    #[test]
    fn construction_and_access() {
        let a = example();
        assert_eq!(a.nnz(), 5);
        assert_eq!(a.get(0, 2), 2.0);
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.get(2, 1), 5.0);
        assert_eq!(a.row(1), (&[3usize][..], &[3.0][..]));
    }

    #[test]
    fn triplets_merge_duplicates() {
        let a = SparseCSR::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.0), (1, 1, 4.0)]);
        assert_eq!(a.get(0, 0), 3.0);
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn spmv_matches_dense() {
        let a = example();
        let d = a.to_dense();
        let x = [1.0, -1.0, 2.0, 0.5];
        let mut ys = [1.0, 1.0, 1.0];
        let mut yd = [1.0, 1.0, 1.0];
        a.spmv(2.0, &x, -1.0, &mut ys);
        d.gemv(2.0, &x, -1.0, &mut yd);
        assert_eq!(ys, yd);
    }

    #[test]
    fn spmv_trans_matches_dense() {
        let a = example();
        let d = a.to_dense();
        let x = [1.0, 2.0, 3.0];
        let mut ys = [0.5; 4];
        let mut yd = [0.5; 4];
        a.spmv_trans(1.5, &x, 2.0, &mut ys);
        d.gemv_trans(1.5, &x, 2.0, &mut yd);
        assert_eq!(ys, yd);
    }

    #[test]
    fn spmm_matches_dense_gemm() {
        let a = example();
        let b = DenseMatrix::from_rows(&[
            &[1.0, 2.0],
            &[0.5, -1.0],
            &[3.0, 0.0],
            &[-2.0, 1.5],
        ]);
        let got = a.spmm(&b);
        let mut expect = DenseMatrix::zeros(3, 2);
        a.to_dense().gemm(1.0, &b, 0.0, &mut expect);
        assert_eq!(got, expect);
    }

    #[test]
    fn spmm_into_overwrites_every_element() {
        let a = example();
        let b = DenseMatrix::from_rows(&[&[1.0, 2.0], &[0.5, -1.0], &[3.0, 0.0], &[-2.0, 1.5]]);
        let mut out = DenseMatrix::from_vec(3, 2, vec![f64::NAN; 6]);
        a.spmm_into(&b, &mut out);
        assert_eq!(out, a.spmm(&b));
    }

    #[test]
    fn spmm_rows_into_is_the_products_rows() {
        let a = example();
        let b = DenseMatrix::from_rows(&[&[1.0, 2.0], &[0.5, -1.0], &[3.0, 0.0], &[-2.0, 1.5]]);
        let whole = a.spmm(&b);
        for (r0, r1) in [(0, 0), (0, 1), (1, 3), (0, 3), (2, 3)] {
            let mut out = DenseMatrix::from_vec(r1 - r0, 2, vec![f64::NAN; 2 * (r1 - r0)]);
            a.spmm_rows_into(r0..r1, &b, &mut out);
            assert_eq!(out, whole.sub_matrix(r0, r1, 0, 2), "rows {r0}..{r1}");
        }
    }

    #[test]
    fn trans_spmm_matches_dense() {
        let a = example();
        let b = DenseMatrix::from_rows(&[&[1.0, 0.0], &[2.0, -1.0], &[0.5, 3.0]]);
        let got = a.trans_spmm(&b);
        let mut expect = DenseMatrix::zeros(4, 2);
        a.to_dense().transpose().gemm(1.0, &b, 0.0, &mut expect);
        assert!(got.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn nnz_counting_pre_pass() {
        let a = example();
        assert_eq!(a.count_nnz_in(0, 3, 0, 4), 5);
        assert_eq!(a.count_nnz_in(0, 1, 0, 4), 2);
        assert_eq!(a.count_nnz_in(0, 3, 1, 3), 2); // entries (0,2) and (2,1)
        assert_eq!(a.count_nnz_in(1, 1, 0, 4), 0);
    }

    #[test]
    fn sub_matrix_rebases_indices() {
        let a = example();
        let s = a.sub_matrix(1, 3, 1, 4);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.cols(), 3);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.get(0, 2), 3.0); // was (1,3)
        assert_eq!(s.get(1, 0), 5.0); // was (2,1)
        assert_eq!(s.to_dense(), a.to_dense().sub_matrix(1, 3, 1, 4));
    }

    #[test]
    fn paste_reassembles() {
        let a = example();
        let top = a.sub_matrix(0, 1, 0, 4);
        let bottom = a.sub_matrix(1, 3, 0, 4);
        let mut out = SparseCSR::zeros(3, 4);
        out.paste(0, 0, &top);
        out.paste(1, 0, &bottom);
        assert_eq!(out, a);
    }

    #[test]
    fn serialization_round_trip() {
        let a = example();
        let bytes = a.to_bytes();
        assert_eq!(bytes.len(), a.byte_len());
        assert_eq!(SparseCSR::from_bytes(bytes), a);
    }

    #[test]
    fn iter_yields_all_entries() {
        let a = example();
        let got: Vec<_> = a.iter().collect();
        assert_eq!(got.len(), 5);
        assert!(got.contains(&(2, 1, 5.0)));
    }

    #[test]
    fn empty_matrix_operations() {
        let a = SparseCSR::zeros(3, 3);
        assert_eq!(a.nnz(), 0);
        let y = a.mult_vec(&Vector::constant(3, 1.0));
        assert_eq!(y.as_slice(), &[0.0; 3]);
        assert_eq!(a.sub_matrix(0, 2, 0, 2).nnz(), 0);
    }
}
