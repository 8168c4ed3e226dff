//! A dense column vector (`x10.matrix.Vector`).
//!
//! The reductions (dot/norm/sum) and `axpy` fan out onto [`apgas::pool`]
//! with partials combined in fixed chunk order, and each chunk runs the
//! 8-lane multi-accumulator kernels from `crate::microkernel` — lane
//! combines happen in a fixed order too, so results stay bit-identical for
//! every worker count (see the crate docs). The `*_reference` twins keep
//! the plain serial scalar loops as numeric oracles.

use apgas::pool;
use apgas::serial::{read_f64_vec, write_f64_slice, Runs, Serial};
use bytes::{Bytes, BytesMut};

use crate::microkernel;

/// Items per chunk for the element-wise vector kernels (each item is ~one
/// fused multiply-add of work).
const VEC_MIN_CHUNK: usize = 16_384;

/// A single column of `f64` elements.
#[derive(Clone, Debug, PartialEq)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// A zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        Vector { data: vec![0.0; n] }
    }

    /// Wrap an existing buffer.
    pub fn from_vec(data: Vec<f64>) -> Self {
        Vector { data }
    }

    /// A vector with every element equal to `v`.
    pub fn constant(n: usize, v: f64) -> Self {
        Vector { data: vec![v; n] }
    }

    /// Length.
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

    /// Consume into the underlying buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// `self[i]`.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.data[i]
    }

    #[inline]
    /// Write one element.
    pub fn set(&mut self, i: usize, v: f64) {
        self.data[i] = v;
    }

    /// Overwrite every element with `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// `self *= alpha` (GML's `scale`).
    pub fn scale(&mut self, alpha: f64) -> &mut Self {
        for v in &mut self.data {
            *v *= alpha;
        }
        self
    }

    /// Element-wise `self += other` (GML's `cellAdd`).
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn cell_add(&mut self, other: &Vector) -> &mut Self {
        assert_eq!(self.len(), other.len(), "cell_add length mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
        self
    }

    /// `self[i] += s` for all i (GML's `cellAdd(Double)`).
    pub fn cell_add_scalar(&mut self, s: f64) -> &mut Self {
        for v in &mut self.data {
            *v += s;
        }
        self
    }

    /// Element-wise `self *= other` (GML's `cellMult`).
    pub fn cell_mult(&mut self, other: &Vector) -> &mut Self {
        assert_eq!(self.len(), other.len(), "cell_mult length mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a *= *b;
        }
        self
    }

    /// `self += alpha * x` (BLAS axpy). One fused multiply-add per element
    /// inside each pool chunk — order-independent per element, so chunking
    /// never changes bits.
    pub fn axpy(&mut self, alpha: f64, x: &Vector) -> &mut Self {
        assert_eq!(self.len(), x.len(), "axpy length mismatch");
        pool::for_each_chunk_mut(&mut self.data, VEC_MIN_CHUNK, |_, r, sub| {
            microkernel::axpy(alpha, &x.data[r], sub);
        });
        self
    }

    /// Scalar reference twin of [`axpy`]: serial multiply-then-add.
    pub fn axpy_reference(&mut self, alpha: f64, x: &Vector) -> &mut Self {
        assert_eq!(self.len(), x.len(), "axpy length mismatch");
        for (a, b) in self.data.iter_mut().zip(&x.data) {
            *a += alpha * *b;
        }
        self
    }

    /// Inner product `selfᵀ · other` — 8-lane multi-accumulator partials
    /// per chunk, combined in fixed chunk order (bit-identical across
    /// worker counts).
    pub fn dot(&self, other: &Vector) -> f64 {
        assert_eq!(self.len(), other.len(), "dot length mismatch");
        pool::sum_chunks(self.len(), VEC_MIN_CHUNK, |r| {
            microkernel::dot(&self.data[r.clone()], &other.data[r])
        })
    }

    /// Scalar reference twin of [`dot`]: the serial left-to-right sum.
    pub fn dot_reference(&self, other: &Vector) -> f64 {
        assert_eq!(self.len(), other.len(), "dot length mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// Squared Euclidean norm (same deterministic chunked reduction).
    pub fn norm2_sq(&self) -> f64 {
        pool::sum_chunks(self.len(), VEC_MIN_CHUNK, |r| {
            microkernel::dot(&self.data[r.clone()], &self.data[r])
        })
    }

    /// Scalar reference twin of [`norm2_sq`].
    pub fn norm2_sq_reference(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Euclidean norm.
    pub fn norm2(&self) -> f64 {
        self.norm2_sq().sqrt()
    }

    /// Sum of all elements (same deterministic chunked reduction).
    pub fn sum(&self) -> f64 {
        pool::sum_chunks(self.len(), VEC_MIN_CHUNK, |r| microkernel::sum(&self.data[r]))
    }

    /// Scalar reference twin of [`sum`]: the serial left-to-right sum.
    pub fn sum_reference(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Apply `f` to every element in place (GML's `map`).
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) -> &mut Self {
        for v in &mut self.data {
            *v = f(*v);
        }
        self
    }

    /// Copy all elements from `src` (lengths must match) — GML's `copyTo`
    /// viewed from the destination.
    pub fn copy_from(&mut self, src: &Vector) {
        assert_eq!(self.len(), src.len(), "copy_from length mismatch");
        self.data.copy_from_slice(&src.data);
    }

    /// Copy `src` into `self[offset .. offset+src.len()]` — used when
    /// gathering distributed segments.
    pub fn copy_from_at(&mut self, offset: usize, src: &[f64]) {
        self.data[offset..offset + src.len()].copy_from_slice(src);
    }

    /// Borrow the sub-range `[offset, offset+len)`.
    pub fn segment(&self, offset: usize, len: usize) -> &[f64] {
        &self.data[offset..offset + len]
    }

    /// Max absolute difference against `other` (testing aid).
    pub fn max_abs_diff(&self, other: &Vector) -> f64 {
        assert_eq!(self.len(), other.len());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl Serial for Vector {
    fn write(&self, buf: &mut BytesMut) {
        write_f64_slice(&self.data, buf);
    }
    fn read(buf: &mut Bytes) -> Self {
        Vector { data: read_f64_vec(buf) }
    }
    fn byte_len(&self) -> usize {
        8 + 8 * self.data.len()
    }
    fn write_runs<'a>(&'a self, runs: &mut Runs<'a>) {
        runs.put(&self.data.len());
        runs.put_elems(&self.data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Vector::zeros(3).as_slice(), &[0.0; 3]);
        assert_eq!(Vector::constant(2, 5.0).as_slice(), &[5.0, 5.0]);
        assert!(Vector::zeros(0).is_empty());
    }

    #[test]
    fn scale_add_mult() {
        let mut v = Vector::from_vec(vec![1.0, 2.0, 3.0]);
        v.scale(2.0);
        assert_eq!(v.as_slice(), &[2.0, 4.0, 6.0]);
        v.cell_add(&Vector::constant(3, 1.0));
        assert_eq!(v.as_slice(), &[3.0, 5.0, 7.0]);
        v.cell_add_scalar(-3.0);
        assert_eq!(v.as_slice(), &[0.0, 2.0, 4.0]);
        v.cell_mult(&Vector::from_vec(vec![1.0, 10.0, 0.5]));
        assert_eq!(v.as_slice(), &[0.0, 20.0, 2.0]);
    }

    #[test]
    fn axpy_dot_norm() {
        let mut y = Vector::from_vec(vec![1.0, 1.0]);
        let x = Vector::from_vec(vec![2.0, -1.0]);
        y.axpy(0.5, &x);
        assert_eq!(y.as_slice(), &[2.0, 0.5]);
        assert!((y.dot(&x) - 3.5).abs() < 1e-12);
        assert!((Vector::from_vec(vec![3.0, 4.0]).norm2() - 5.0).abs() < 1e-12);
        assert_eq!(Vector::from_vec(vec![1.0, 2.0, 3.0]).sum(), 6.0);
    }

    #[test]
    fn map_and_copy() {
        let mut v = Vector::from_vec(vec![1.0, -2.0]);
        v.map_inplace(f64::abs);
        assert_eq!(v.as_slice(), &[1.0, 2.0]);
        let mut dst = Vector::zeros(2);
        dst.copy_from(&v);
        assert_eq!(dst, v);
        let mut big = Vector::zeros(5);
        big.copy_from_at(2, v.as_slice());
        assert_eq!(big.as_slice(), &[0.0, 0.0, 1.0, 2.0, 0.0]);
        assert_eq!(big.segment(2, 2), &[1.0, 2.0]);
    }

    #[test]
    fn serialization_round_trip() {
        let v = Vector::from_vec(vec![1.5, -2.5, 0.0, f64::MAX]);
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), v.byte_len());
        assert_eq!(Vector::from_bytes(bytes), v);
    }

    #[test]
    fn max_abs_diff() {
        let a = Vector::from_vec(vec![1.0, 2.0]);
        let b = Vector::from_vec(vec![1.5, 1.0]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_cell_add_panics() {
        Vector::zeros(2).cell_add(&Vector::zeros(3));
    }
}
