//! Single-place reference implementations used to verify the distributed
//! codes bit-for-bit (PageRank) or to tolerance (regressions).
//!
//! These are deliberately straightforward sequential programs over the
//! single-place matrix types; any disagreement with the distributed
//! versions indicates a bug in the distribution/restore machinery, not in
//! the algorithm.

use gml_matrix::{builder, DenseMatrix, Vector};

/// Sequential PageRank: `P = α·G·P + (1-α)·(UᵀP)·1` for `iters` iterations.
///
/// Matches the distributed computation's floating-point result exactly: the
/// distributed version computes each rank entry from the same sparse row
/// dot product, and the `UᵀP` reduction is summed in segment order, which
/// for uniform `U` equals this left-to-right sum.
pub fn pagerank(n: usize, out_degree: usize, seed: u64, alpha: f64, iters: usize) -> Vector {
    let g = builder::random_link_matrix(n, out_degree, seed);
    let u = Vector::constant(n, 1.0 / n as f64);
    let mut p = Vector::constant(n, 1.0 / n as f64);
    for _ in 0..iters {
        let mut gp = g.mult_vec(&p);
        gp.scale(alpha);
        let utp1a = u.dot(&p) * (1.0 - alpha);
        gp.cell_add_scalar(utp1a);
        p = gp;
    }
    p
}

/// A dense matrix with entries uniform in `(0, 1]` (strictly positive, as
/// NMF factors must be). Row `i` depends only on `(seed, i)` so distributed
/// builds can generate their own row blocks.
pub fn nonneg_dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    nonneg_dense_rows(cols, seed, 0, rows)
}

/// The row slice `r0..r1` of [`nonneg_dense`].
pub fn nonneg_dense_rows(cols: usize, seed: u64, r0: usize, r1: usize) -> DenseMatrix {
    let mut out = builder::random_dense_rows(cols, seed, r0, r1);
    for v in out.as_mut_slice() {
        *v = (*v + 1.0) / 2.0 + 1e-3; // map [-1,1) → (0,1]
    }
    out
}

// The sequential twins below are compiled for the unit tests only.

/// The training set the distributed LinReg/LogReg build, assembled at one
/// place: `X` from [`builder::random_dense_rows`] and the hidden weights.
#[cfg(test)]
pub fn training_matrix(examples: usize, features: usize, seed: u64) -> (DenseMatrix, Vector) {
    let x = builder::random_dense_rows(features, seed, 0, examples);
    let w_star = builder::random_vector(features, seed.wrapping_add(1));
    (x, w_star)
}

/// Sequential conjugate-gradient ridge regression: solves
/// `(XᵀX + λI) w = Xᵀy` with `iters` CG steps from `w = 0`.
#[cfg(test)]
pub fn linreg_cg(x: &DenseMatrix, y: &Vector, lambda: f64, iters: usize) -> Vector {
    let features = x.cols();
    let mut w = Vector::zeros(features);
    let mut r = x.mult_trans_vec(y);
    let mut p = r.clone();
    let mut rho = r.norm2_sq();
    for _ in 0..iters {
        let xp = x.mult_vec(&p);
        let mut q = x.mult_trans_vec(&xp);
        q.axpy(lambda, &p);
        let pq = p.dot(&q);
        if pq == 0.0 {
            break;
        }
        let alpha = rho / pq;
        w.axpy(alpha, &p);
        r.axpy(-alpha, &q);
        let rho_new = r.norm2_sq();
        if rho_new == 0.0 {
            // Exact convergence; continuing would compute beta = 0/0.
            break;
        }
        let beta = rho_new / rho;
        p.scale(beta);
        p.cell_add(&r);
        rho = rho_new;
    }
    w
}

/// Sequential batch gradient-descent logistic regression.
#[cfg(test)]
pub fn logreg_gd(
    x: &DenseMatrix,
    y: &Vector,
    lambda: f64,
    learning_rate: f64,
    iters: usize,
) -> Vector {
    let m = x.rows() as f64;
    let mut w = Vector::zeros(x.cols());
    for _ in 0..iters {
        let mut z = x.mult_vec(&w);
        z.map_inplace(crate::sigmoid);
        // z - y (prediction error)
        for (zi, yi) in z.as_mut_slice().iter_mut().zip(y.as_slice()) {
            *zi -= *yi;
        }
        let grad = x.mult_trans_vec(&z);
        // w = (1 - lr*λ) w - (lr/m) grad
        w.scale(1.0 - learning_rate * lambda);
        w.axpy(-learning_rate / m, &grad);
    }
    w
}

/// Sequential Gaussian non-negative matrix factorisation via Lee–Seung
/// multiplicative updates: factorise `V ≈ W·H` (all entries non-negative),
/// minimising `‖V − WH‖²_F`. Returns `(W, H)`.
///
/// Update order matches the distributed implementation exactly:
/// `H ← H ∘ (WᵀV) ⊘ (WᵀW·H + ε)`, then `W ← W ∘ (V·Hᵀ) ⊘ (W·(H·Hᵀ) + ε)`.
#[cfg(test)]
pub fn gnmf(
    v: &DenseMatrix,
    rank: usize,
    iters: usize,
    eps: f64,
    seed: u64,
) -> (DenseMatrix, DenseMatrix) {
    let (m, n) = (v.rows(), v.cols());
    let mut w = nonneg_dense(m, rank, seed);
    let mut h = nonneg_dense(rank, n, seed.wrapping_add(1));
    for _ in 0..iters {
        // H update.
        let wt = w.transpose();
        let mut wtv = DenseMatrix::zeros(rank, n);
        wt.gemm(1.0, v, 0.0, &mut wtv);
        let mut wtw = DenseMatrix::zeros(rank, rank);
        wt.gemm(1.0, &w, 0.0, &mut wtw);
        let mut wtwh = DenseMatrix::zeros(rank, n);
        wtw.gemm(1.0, &h, 0.0, &mut wtwh);
        h.cell_mult(&wtv);
        h.cell_div_guarded(&wtwh, eps);
        // W update.
        let ht = h.transpose();
        let mut vht = DenseMatrix::zeros(m, rank);
        v.gemm(1.0, &ht, 0.0, &mut vht);
        let mut hht = DenseMatrix::zeros(rank, rank);
        h.gemm(1.0, &ht, 0.0, &mut hht);
        let mut whht = DenseMatrix::zeros(m, rank);
        w.gemm(1.0, &hht, 0.0, &mut whht);
        w.cell_mult(&vht);
        w.cell_div_guarded(&whht, eps);
    }
    (w, h)
}

/// `‖V − W·H‖²_F` — the GNMF objective.
#[cfg(test)]
pub fn gnmf_objective(v: &DenseMatrix, w: &DenseMatrix, h: &DenseMatrix) -> f64 {
    let mut wh = DenseMatrix::zeros(v.rows(), v.cols());
    w.gemm(1.0, h, 0.0, &mut wh);
    wh.scale(-1.0);
    wh.cell_add(v);
    wh.as_slice().iter().map(|x| x * x).sum()
}

/// Binary labels from a hidden separator, as LogReg's `make` derives them.
#[cfg(test)]
pub fn classification_labels(x: &DenseMatrix, w_star: &Vector) -> Vector {
    let scores = x.mult_vec(w_star);
    Vector::from_vec(
        scores.as_slice().iter().map(|&s| if s > 0.0 { 1.0 } else { 0.0 }).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pagerank_mass_conserved() {
        let p = pagerank(40, 4, 3, 0.85, 25);
        assert!((p.sum() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn linreg_recovers_hidden_weights() {
        let (x, w_star) = training_matrix(200, 6, 42);
        let y = x.mult_vec(&w_star);
        let w = linreg_cg(&x, &y, 0.0, 30);
        assert!(w.max_abs_diff(&w_star) < 1e-6, "CG converges on noiseless data");
    }

    #[test]
    fn linreg_with_ridge_shrinks_weights() {
        let (x, w_star) = training_matrix(100, 4, 1);
        let y = x.mult_vec(&w_star);
        let w0 = linreg_cg(&x, &y, 0.0, 40);
        let w1 = linreg_cg(&x, &y, 50.0, 40);
        assert!(w1.norm2() < w0.norm2(), "regularisation shrinks the solution");
    }

    #[test]
    fn gnmf_objective_is_non_increasing() {
        let v = nonneg_dense(20, 12, 3);
        let mut prev = f64::INFINITY;
        for iters in [1usize, 3, 6, 10, 20] {
            let (w, h) = gnmf(&v, 4, iters, 1e-9, 3);
            let obj = gnmf_objective(&v, &w, &h);
            assert!(
                obj <= prev + 1e-9,
                "objective rose from {prev} to {obj} at {iters} iters"
            );
            prev = obj;
        }
    }

    #[test]
    fn gnmf_factors_stay_nonnegative() {
        let v = nonneg_dense(15, 10, 7);
        let (w, h) = gnmf(&v, 3, 25, 1e-9, 7);
        assert!(w.as_slice().iter().all(|&x| x >= 0.0));
        assert!(h.as_slice().iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn gnmf_recovers_a_low_rank_matrix_well() {
        // V is exactly rank 3: NMF should drive the residual near zero.
        let w_true = nonneg_dense(18, 3, 11);
        let h_true = nonneg_dense(3, 9, 12);
        let mut v = DenseMatrix::zeros(18, 9);
        w_true.gemm(1.0, &h_true, 0.0, &mut v);
        let (w, h) = gnmf(&v, 3, 400, 1e-12, 5);
        let rel = gnmf_objective(&v, &w, &h) / v.as_slice().iter().map(|x| x * x).sum::<f64>();
        assert!(rel < 1e-3, "relative residual {rel}");
    }

    #[test]
    fn logreg_separates_training_data() {
        let (x, w_star) = training_matrix(300, 5, 9);
        let y = classification_labels(&x, &w_star);
        let w = logreg_gd(&x, &y, 0.001, 1.0, 200);
        // Training accuracy well above chance.
        let preds = x.mult_vec(&w);
        let correct = preds
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .filter(|(&s, &label)| (s > 0.0) == (label > 0.5))
            .count();
        assert!(correct as f64 / 300.0 > 0.9, "only {correct}/300 correct");
    }
}
