//! Property-based tests for the single-place kernels: algebraic identities
//! that must hold for arbitrary shapes and contents, the BLAS `beta == 0`
//! assignment semantics (NaN-poisoned output buffers), the finite-values
//! contract boundary, and bit-identity between pooled and serial execution.

use apgas::pool;
use gml_matrix::{builder, DenseMatrix, SparseCSR, Vector};
use proptest::prelude::*;

fn approx_eq(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: bit mismatch at {i}: {x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// gemv is linear: A(αx + βy) = αAx + βAy.
    #[test]
    fn gemv_linearity(
        m in 1usize..20,
        n in 1usize..20,
        seed in 0u64..1000,
        alpha in -3.0f64..3.0,
        beta in -3.0f64..3.0,
    ) {
        let a = builder::random_dense(m, n, seed);
        let x = builder::random_vector(n, seed + 1);
        let y = builder::random_vector(n, seed + 2);
        // lhs = A(αx + βy)
        let mut comb = x.clone();
        comb.scale(alpha);
        comb.axpy(beta, &y);
        let lhs = a.mult_vec(&comb);
        // rhs = αAx + βAy
        let mut rhs = a.mult_vec(&x);
        rhs.scale(alpha);
        rhs.axpy(beta, &a.mult_vec(&y));
        prop_assert!(approx_eq(lhs.as_slice(), rhs.as_slice(), 1e-9));
    }

    /// ⟨Ax, y⟩ = ⟨x, Aᵀy⟩ for all x, y (adjoint identity).
    #[test]
    fn gemv_trans_is_adjoint(
        m in 1usize..20,
        n in 1usize..20,
        seed in 0u64..1000,
    ) {
        let a = builder::random_dense(m, n, seed);
        let x = builder::random_vector(n, seed + 1);
        let y = builder::random_vector(m, seed + 2);
        let ax_dot_y = a.mult_vec(&x).dot(&y);
        let x_dot_aty = x.dot(&a.mult_trans_vec(&y));
        prop_assert!((ax_dot_y - x_dot_aty).abs() < 1e-9);
    }

    /// Sparse spmv agrees with densified gemv.
    #[test]
    fn spmv_agrees_with_dense(
        m in 1usize..30,
        n in 1usize..30,
        nnz_per_row in 0usize..6,
        seed in 0u64..1000,
    ) {
        let a = builder::random_csr(m, n, nnz_per_row, seed);
        let x = builder::random_vector(n, seed + 1);
        let sparse = a.mult_vec(&x);
        let dense = a.to_dense().mult_vec(&x);
        prop_assert!(approx_eq(sparse.as_slice(), dense.as_slice(), 1e-10));
        // Transposed too.
        let y = builder::random_vector(m, seed + 2);
        let mut st = Vector::zeros(n);
        let mut dt = Vector::zeros(n);
        a.spmv_trans(1.0, y.as_slice(), 0.0, st.as_mut_slice());
        a.to_dense().gemv_trans(1.0, y.as_slice(), 0.0, dt.as_mut_slice());
        prop_assert!(approx_eq(st.as_slice(), dt.as_slice(), 1e-10));
    }

    /// Cutting a dense matrix along any interior point and pasting the four
    /// quadrants back reconstructs it exactly.
    #[test]
    fn dense_quadrant_cut_paste(
        m in 2usize..25,
        n in 2usize..25,
        seed in 0u64..1000,
        ri in 1usize..24,
        ci in 1usize..24,
    ) {
        let ri = ri.min(m - 1);
        let ci = ci.min(n - 1);
        let a = builder::random_dense(m, n, seed);
        let mut out = DenseMatrix::zeros(m, n);
        out.paste(0, 0, &a.sub_matrix(0, ri, 0, ci));
        out.paste(0, ci, &a.sub_matrix(0, ri, ci, n));
        out.paste(ri, 0, &a.sub_matrix(ri, m, 0, ci));
        out.paste(ri, ci, &a.sub_matrix(ri, m, ci, n));
        prop_assert_eq!(out, a);
    }

    /// Same for sparse CSR, including the nnz bookkeeping.
    #[test]
    fn sparse_quadrant_cut_paste(
        m in 2usize..25,
        n in 2usize..25,
        nnz_per_row in 0usize..5,
        seed in 0u64..1000,
        ri in 1usize..24,
        ci in 1usize..24,
    ) {
        let ri = ri.min(m - 1);
        let ci = ci.min(n - 1);
        let a = builder::random_csr(m, n, nnz_per_row, seed);
        let q00 = a.sub_matrix(0, ri, 0, ci);
        let q01 = a.sub_matrix(0, ri, ci, n);
        let q10 = a.sub_matrix(ri, m, 0, ci);
        let q11 = a.sub_matrix(ri, m, ci, n);
        prop_assert_eq!(
            q00.nnz() + q01.nnz() + q10.nnz() + q11.nnz(),
            a.nnz(),
            "quadrant nnz must partition the total"
        );
        let mut out = SparseCSR::zeros(m, n);
        out.paste(0, 0, &q00);
        out.paste(0, ci, &q01);
        out.paste(ri, 0, &q10);
        out.paste(ri, ci, &q11);
        prop_assert_eq!(out, a);
    }

    /// count_nnz_in agrees with the actual extraction for arbitrary regions.
    #[test]
    fn nnz_count_matches_extraction(
        m in 1usize..25,
        n in 1usize..25,
        nnz_per_row in 0usize..5,
        seed in 0u64..1000,
        r0 in 0usize..25,
        c0 in 0usize..25,
    ) {
        let a = builder::random_csr(m, n, nnz_per_row, seed);
        let r0 = r0.min(m);
        let c0 = c0.min(n);
        let r1 = ((r0 + 7).min(m)).max(r0);
        let c1 = ((c0 + 7).min(n)).max(c0);
        let counted = a.count_nnz_in(r0, r1, c0, c1);
        let extracted = a.sub_matrix(r0, r1, c0, c1).nnz();
        prop_assert_eq!(counted, extracted);
    }

    /// Vector dot is symmetric and axpy matches elementwise arithmetic.
    #[test]
    fn vector_identities(len in 0usize..40, seed in 0u64..1000, alpha in -2.0f64..2.0) {
        let x = builder::random_vector(len, seed);
        let y = builder::random_vector(len, seed + 1);
        prop_assert!((x.dot(&y) - y.dot(&x)).abs() < 1e-12);
        let mut z = y.clone();
        z.axpy(alpha, &x);
        for i in 0..len {
            prop_assert!((z.get(i) - (y.get(i) + alpha * x.get(i))).abs() < 1e-12);
        }
        prop_assert!(x.norm2_sq() >= 0.0);
    }

    /// CSR ↔ triplets ↔ dense conversions are lossless.
    #[test]
    fn format_conversions_lossless(
        m in 1usize..20,
        n in 1usize..20,
        nnz_per_row in 0usize..5,
        seed in 0u64..1000,
    ) {
        let a = builder::random_csr(m, n, nnz_per_row, seed);
        let triplets: Vec<_> = a.iter().collect();
        prop_assert_eq!(triplets.len(), a.nnz());
        prop_assert_eq!(&SparseCSR::from_triplets(m, n, &triplets), &a);
        // And every stored entry agrees pointwise with the dense form.
        let d = a.to_dense();
        for (r, c, v) in triplets {
            prop_assert_eq!(d.get(r, c), v);
        }
    }
}

// ---------------------------------------------------------------------------
// BLAS beta semantics: `beta == 0` must ASSIGN, never scale. On the old
// kernels every test below fails with NaN outputs, because `0.0 * NaN` is
// NaN and the poisoned buffer leaks into the result.
// ---------------------------------------------------------------------------

/// A deliberately NaN-poisoned output buffer (uninitialized/stale memory in
/// the checkpoint-restore paths looks exactly like this).
fn poisoned(n: usize) -> Vec<f64> {
    vec![f64::NAN; n]
}

#[test]
fn gemv_beta_zero_overwrites_nan_poisoned_output() {
    let (m, n) = (17, 13);
    let a = builder::random_dense(m, n, 42);
    let x = builder::random_vector(n, 43);
    let mut got = poisoned(m);
    a.gemv(1.5, x.as_slice(), 0.0, &mut got);
    let mut want = vec![0.0; m];
    a.gemv(1.5, x.as_slice(), 1.0, &mut want);
    assert!(got.iter().all(|v| v.is_finite()), "NaN leaked through beta == 0");
    assert_bits_eq(&got, &want, "gemv beta=0 vs beta=1-on-zeros");
}

#[test]
fn gemv_trans_beta_zero_overwrites_nan_poisoned_output() {
    let (m, n) = (17, 13);
    let a = builder::random_dense(m, n, 44);
    let x = builder::random_vector(m, 45);
    let mut got = poisoned(n);
    a.gemv_trans(2.0, x.as_slice(), 0.0, &mut got);
    let mut want = vec![0.0; n];
    a.gemv_trans(2.0, x.as_slice(), 1.0, &mut want);
    assert!(got.iter().all(|v| v.is_finite()), "NaN leaked through beta == 0");
    assert_bits_eq(&got, &want, "gemv_trans beta=0 vs beta=1-on-zeros");
}

#[test]
fn gemm_beta_zero_overwrites_nan_poisoned_output() {
    let a = builder::random_dense(11, 7, 46);
    let b = builder::random_dense(7, 9, 47);
    let mut got = DenseMatrix::from_vec(11, 9, poisoned(11 * 9));
    a.gemm(1.0, &b, 0.0, &mut got);
    let mut want = DenseMatrix::zeros(11, 9);
    a.gemm(1.0, &b, 1.0, &mut want);
    assert!(got.as_slice().iter().all(|v| v.is_finite()), "NaN leaked through beta == 0");
    assert_bits_eq(got.as_slice(), want.as_slice(), "gemm beta=0 vs beta=1-on-zeros");
}

#[test]
fn csr_spmv_and_trans_beta_zero_overwrite_nan_poisoned_output() {
    let a = builder::random_csr(25, 19, 3, 48);
    let x = builder::random_vector(19, 49);
    let xt = builder::random_vector(25, 50);

    let mut got = poisoned(25);
    a.spmv(1.0, x.as_slice(), 0.0, &mut got);
    let mut want = vec![0.0; 25];
    a.spmv(1.0, x.as_slice(), 1.0, &mut want);
    assert!(got.iter().all(|v| v.is_finite()), "spmv: NaN leaked through beta == 0");
    assert_bits_eq(&got, &want, "csr spmv beta=0");

    let mut got = poisoned(19);
    a.spmv_trans(1.0, xt.as_slice(), 0.0, &mut got);
    let mut want = vec![0.0; 19];
    a.spmv_trans(1.0, xt.as_slice(), 1.0, &mut want);
    assert!(got.iter().all(|v| v.is_finite()), "spmv_trans: NaN leaked through beta == 0");
    assert_bits_eq(&got, &want, "csr spmv_trans beta=0");
}

#[test]
fn beta_zero_alpha_zero_yields_exact_zeros() {
    // With finite inputs, alpha == 0 and beta == 0 must produce exactly 0,
    // regardless of what garbage the output held.
    let a = builder::random_dense(9, 9, 54);
    let x = builder::random_vector(9, 55);
    let mut y = poisoned(9);
    a.gemv(0.0, x.as_slice(), 0.0, &mut y);
    assert!(y.iter().all(|&v| v == 0.0), "alpha=0, beta=0 must zero the output");

    let s = builder::random_csr(9, 9, 2, 56);
    let mut y = poisoned(9);
    s.spmv_trans(0.0, x.as_slice(), 0.0, &mut y);
    assert!(y.iter().all(|&v| v == 0.0), "alpha=0, beta=0 must zero the output");
}

#[test]
fn beta_one_and_fractional_beta_still_scale() {
    // The fix must not disturb the beta != 0 paths.
    let a = builder::random_dense(8, 6, 57);
    let x = builder::random_vector(6, 58);
    let y0 = builder::random_vector(8, 59);
    for &beta in &[1.0, 0.5, -2.0] {
        let mut got = y0.clone();
        a.gemv(1.0, x.as_slice(), beta, got.as_mut_slice());
        let mut want = y0.clone();
        want.scale(beta);
        a.gemv(1.0, x.as_slice(), 1.0, want.as_mut_slice());
        assert!(approx_eq(got.as_slice(), want.as_slice(), 1e-12), "beta={beta}");
    }
}

// ---------------------------------------------------------------------------
// The finite-values contract boundary: the sparse scatter kernels and the
// `*_reference` twins skip rows/columns whose *raw entry* (`x[i]`, `b[k,j]`)
// is exactly zero, suppressing IEEE NaN/inf propagation from matrix entries
// multiplied by that zero; `alpha == 0` reads neither input on every kernel.
// The blocked dense paths perform no per-entry skips (pure IEEE inside a
// nonzero-alpha computation). These tests pin the documented behavior on
// both sides of the boundary.
// ---------------------------------------------------------------------------

#[test]
fn zero_coefficient_skip_suppresses_nonfinite_matrix_entries() {
    // Row 1 of A holds a NaN; x[1] == 0 makes its entry-keyed skip fire,
    // so the scatter skips the whole row and the NaN never propagates.
    let a = SparseCSR::from_triplets(3, 3, &[(0, 0, 1.0), (1, 1, f64::NAN), (2, 2, 2.0)]);
    let mut y = vec![0.0; 3];
    a.spmv_trans(1.0, &[1.0, 0.0, 1.0], 0.0, &mut y);
    assert!(
        y.iter().all(|v| v.is_finite()),
        "documented contract: zero-entry rows are skipped, NaN suppressed"
    );

    // The reference gemm twin skips columns of A via B's zero entries the
    // same way (the blocked gemm follows pure IEEE and would propagate).
    let a = DenseMatrix::from_rows(&[&[1.0, f64::INFINITY], &[3.0, f64::INFINITY]]);
    let b = DenseMatrix::from_rows(&[&[1.0], &[0.0]]);
    let mut c = DenseMatrix::zeros(2, 1);
    a.gemm_reference(1.0, &b, 0.0, &mut c);
    assert!(c.as_slice().iter().all(|v| v.is_finite()), "inf column skipped via b[1][0] == 0");
}

#[test]
fn entry_keyed_skip_ignores_underflowing_coefficients() {
    // Regression for the pre-PR-6 `abkj == 0.0` skip, which keyed on the
    // *computed* `alpha * b[k,j]` and therefore silently dropped rank-1
    // contributions whose product underflowed to zero. The skip must key on
    // the raw entry: a subnormal-producing alpha*b must still contribute.
    let a = DenseMatrix::from_rows(&[&[1.0]]);
    let b = DenseMatrix::from_rows(&[&[f64::MIN_POSITIVE]]); // alpha*b underflows to 0
    let mut c = DenseMatrix::zeros(1, 1);
    a.gemm_reference(f64::MIN_POSITIVE, &b, 0.0, &mut c);
    let direct = f64::MIN_POSITIVE * f64::MIN_POSITIVE; // == 0.0 after rounding
    assert_eq!(direct, 0.0, "premise: the product underflows");
    // The contribution is still *computed* (0.0 here), not skipped; with a
    // NaN in A the underflowing-but-nonzero entry must now poison C.
    let a_nan = DenseMatrix::from_rows(&[&[f64::NAN]]);
    let mut c = DenseMatrix::zeros(1, 1);
    a_nan.gemm_reference(f64::MIN_POSITIVE, &b, 0.0, &mut c);
    assert!(
        c.get(0, 0).is_nan(),
        "entry-keyed skip: b != 0 means the contribution happens, NaN and all"
    );
}

#[test]
fn alpha_zero_reads_neither_input_nan_poison_regression() {
    // alpha == 0 is the input-side analogue of `beta == 0` assignment:
    // NaN/inf-poisoned A, B, or x must never reach the output. Pinned on
    // both the blocked kernels and the reference twins.
    let nan_mat = |m: usize, n: usize| DenseMatrix::from_vec(m, n, vec![f64::NAN; m * n]);
    let a = nan_mat(9, 7);
    let b = nan_mat(7, 5);
    let x = vec![f64::INFINITY; 7];
    for beta in [0.0, 0.5] {
        let mut c = DenseMatrix::from_vec(9, 5, vec![2.0; 45]);
        a.gemm(0.0, &b, beta, &mut c);
        assert!(
            c.as_slice().iter().all(|&v| v == 2.0 * beta),
            "gemm alpha=0 beta={beta} must be beta*C exactly"
        );
        let mut c = DenseMatrix::from_vec(9, 5, vec![2.0; 45]);
        a.gemm_reference(0.0, &b, beta, &mut c);
        assert!(c.as_slice().iter().all(|&v| v == 2.0 * beta), "gemm_reference alpha=0");

        let mut y = vec![2.0; 9];
        a.gemv(0.0, &x, beta, &mut y);
        assert!(y.iter().all(|&v| v == 2.0 * beta), "gemv alpha=0 beta={beta}");
        let mut y = vec![2.0; 9];
        a.gemv_reference(0.0, &x, beta, &mut y);
        assert!(y.iter().all(|&v| v == 2.0 * beta), "gemv_reference alpha=0");

        let mut y = vec![2.0; 7];
        let xt = vec![f64::NAN; 9];
        a.gemv_trans(0.0, &xt, beta, &mut y);
        assert!(y.iter().all(|&v| v == 2.0 * beta), "gemv_trans alpha=0 beta={beta}");

        let s = SparseCSR::from_triplets(3, 3, &[(0, 0, f64::NAN), (2, 1, f64::INFINITY)]);
        let mut y = vec![2.0; 3];
        s.spmv(0.0, &[f64::NAN; 3], beta, &mut y);
        assert!(y.iter().all(|&v| v == 2.0 * beta), "spmv alpha=0 beta={beta}");
        let mut y = vec![2.0; 3];
        s.spmv_trans(0.0, &[f64::NAN; 3], beta, &mut y);
        assert!(y.iter().all(|&v| v == 2.0 * beta), "spmv_trans alpha=0 beta={beta}");
    }
}

#[test]
fn nonzero_coefficient_propagates_nonfinite_matrix_entries() {
    // The flip side: with a non-zero coefficient, IEEE semantics apply and
    // the NaN reaches every output the entry touches.
    let a = SparseCSR::from_triplets(3, 3, &[(0, 0, 1.0), (1, 1, f64::NAN), (2, 2, 2.0)]);
    let mut y = vec![0.0; 3];
    a.spmv_trans(1.0, &[1.0, 1.0, 1.0], 0.0, &mut y);
    assert!(y[1].is_nan(), "NaN must propagate once its row is not skipped");
    assert!(y[0].is_finite() && y[2].is_finite());

    let mut y = vec![0.0; 3];
    a.spmv(1.0, &[1.0, 1.0, 1.0], 0.0, &mut y);
    assert!(y[1].is_nan(), "gather form propagates the NaN to its row");
}

// ---------------------------------------------------------------------------
// Bit-identity: pooled execution vs forced-serial execution of the same
// chunking. Sizes are chosen to exceed every chunking threshold, so under
// GML_WORKERS > 1 these genuinely run on multiple threads. The ci.sh
// `kernel_parity` step runs this whole file at GML_WORKERS=1 and =4.
// ---------------------------------------------------------------------------

#[test]
fn large_kernels_bit_identical_serial_vs_pool() {
    // Sparse: 40k x 30k, ~4 nnz/row → multiple row/scatter chunks.
    let a = builder::random_csr(40_000, 30_000, 4, 7);
    let x = builder::random_vector(30_000, 8);
    let xt = builder::random_vector(40_000, 9);

    let mut par = vec![1.0; 40_000];
    a.spmv(1.5, x.as_slice(), 0.5, &mut par);
    let mut ser = vec![1.0; 40_000];
    pool::serial_scope(|| a.spmv(1.5, x.as_slice(), 0.5, &mut ser));
    assert_bits_eq(&par, &ser, "csr spmv");

    let mut par = vec![1.0; 30_000];
    a.spmv_trans(1.5, xt.as_slice(), 0.5, &mut par);
    let mut ser = vec![1.0; 30_000];
    pool::serial_scope(|| a.spmv_trans(1.5, xt.as_slice(), 0.5, &mut ser));
    assert_bits_eq(&par, &ser, "csr spmv_trans (scatter partials)");

    // Dense: tall gemv + wide gemv_trans.
    let d = builder::random_dense(40_000, 50, 10);
    let dx = builder::random_vector(50, 11);
    let dxt = builder::random_vector(40_000, 12);
    let mut par = vec![1.0; 40_000];
    d.gemv(1.1, dx.as_slice(), 0.25, &mut par);
    let mut ser = vec![1.0; 40_000];
    pool::serial_scope(|| d.gemv(1.1, dx.as_slice(), 0.25, &mut ser));
    assert_bits_eq(&par, &ser, "gemv");

    let mut par = vec![1.0; 50];
    d.gemv_trans(1.1, dxt.as_slice(), 0.25, &mut par);
    let mut ser = vec![1.0; 50];
    pool::serial_scope(|| d.gemv_trans(1.1, dxt.as_slice(), 0.25, &mut ser));
    assert_bits_eq(&par, &ser, "gemv_trans");
}

#[test]
fn gemm_and_spmm_bit_identical_serial_vs_pool() {
    let a = builder::random_dense(160, 160, 13);
    let b = builder::random_dense(160, 160, 14);
    let mut par = DenseMatrix::from_vec(160, 160, vec![1.0; 160 * 160]);
    a.gemm(1.0, &b, 0.5, &mut par);
    let mut ser = DenseMatrix::from_vec(160, 160, vec![1.0; 160 * 160]);
    pool::serial_scope(|| a.gemm(1.0, &b, 0.5, &mut ser));
    assert_bits_eq(par.as_slice(), ser.as_slice(), "gemm");

    let mut par = DenseMatrix::zeros(160, 160);
    a.gemm_tn_acc(&b, &mut par);
    let mut ser = DenseMatrix::zeros(160, 160);
    pool::serial_scope(|| a.gemm_tn_acc(&b, &mut ser));
    assert_bits_eq(par.as_slice(), ser.as_slice(), "gemm_tn_acc");

    let s = builder::random_csr(50_000, 1_000, 5, 15);
    let dense_b = builder::random_dense(1_000, 4, 16);
    let par = s.spmm(&dense_b);
    let ser = pool::serial_scope(|| s.spmm(&dense_b));
    assert_bits_eq(par.as_slice(), ser.as_slice(), "spmm");
}

#[test]
fn vector_reductions_bit_identical_serial_vs_pool() {
    let x = builder::random_vector(300_000, 17);
    let y = builder::random_vector(300_000, 18);

    let par = x.dot(&y);
    let ser = pool::serial_scope(|| x.dot(&y));
    assert_eq!(par.to_bits(), ser.to_bits(), "dot");

    let par = x.norm2_sq();
    let ser = pool::serial_scope(|| x.norm2_sq());
    assert_eq!(par.to_bits(), ser.to_bits(), "norm2_sq");

    let par = x.sum();
    let ser = pool::serial_scope(|| x.sum());
    assert_eq!(par.to_bits(), ser.to_bits(), "sum");

    let mut par = x.clone();
    par.axpy(0.75, &y);
    let mut ser = x.clone();
    pool::serial_scope(|| ser.axpy(0.75, &y));
    assert_bits_eq(par.as_slice(), ser.as_slice(), "axpy");
}

#[test]
fn repeated_runs_are_bitwise_stable() {
    // Dynamic chunk claiming must not leak into the numerics: the same
    // input twice gives bitwise the same answer.
    let a = builder::random_csr(40_000, 40_000, 3, 19);
    let x = builder::random_vector(40_000, 20);
    let mut y1 = vec![0.0; 40_000];
    a.spmv(1.0, x.as_slice(), 0.0, &mut y1);
    let mut y2 = vec![0.0; 40_000];
    a.spmv(1.0, x.as_slice(), 0.0, &mut y2);
    assert_bits_eq(&y1, &y2, "spmv repeat");
    assert_eq!(x.dot(&x).to_bits(), x.dot(&x).to_bits(), "dot repeat");
}
