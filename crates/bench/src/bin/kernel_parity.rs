//! Determinism oracle for the intra-place kernel pool: runs every pooled
//! kernel on fixed seeded inputs, at sizes that exceed all chunking
//! thresholds, and prints one FNV-1a hash over the output bit patterns per
//! kernel. The worker count is read once per process from `GML_WORKERS`,
//! so the `kernel_parity` step in `ci.sh` runs this binary at
//! `GML_WORKERS=1` and `GML_WORKERS=4` and diffs the dumps bit-for-bit —
//! any chunk-order or combine-order regression flips a hash.
//!
//! Usage: `GML_WORKERS=4 cargo run --release -p gml-bench --bin kernel_parity`

use apgas::digest::fnv1a_f64s;
use apgas::pool;
use gml_matrix::{builder, DenseMatrix};

fn report(name: &str, values: &[f64]) {
    // The shared bit-pattern digest (see `apgas::digest`) — the same
    // function the task layer votes with, so a vote mismatch and a parity
    // diff disagree about the exact same value.
    println!("{name} {:016x}", fnv1a_f64s(values));
}

fn main() {
    println!("workers {}", pool::workers());

    // Sparse: 40k x 30k, ~4 nnz/row — enough for multiple gather chunks
    // and a multi-way scatter-partial combine.
    let a = builder::random_csr(40_000, 30_000, 4, 101);
    let x = builder::random_vector(30_000, 102);
    let xt = builder::random_vector(40_000, 103);

    let mut y = vec![1.0; 40_000];
    a.spmv(1.5, x.as_slice(), 0.5, &mut y);
    report("csr_spmv", &y);

    let mut y = vec![1.0; 30_000];
    a.spmv_trans(1.5, xt.as_slice(), 0.5, &mut y);
    report("csr_spmv_trans", &y);

    let b = builder::random_dense(1_000, 4, 104);
    let s = builder::random_csr(50_000, 1_000, 5, 105);
    report("csr_spmm", s.spmm(&b).as_slice());

    // Dense kernels.
    let d = builder::random_dense(40_000, 50, 106);
    let dx = builder::random_vector(50, 107);
    let dxt = builder::random_vector(40_000, 108);

    let mut y = vec![1.0; 40_000];
    d.gemv(1.1, dx.as_slice(), 0.25, &mut y);
    report("gemv", &y);

    let mut y = vec![1.0; 50];
    d.gemv_trans(1.1, dxt.as_slice(), 0.25, &mut y);
    report("gemv_trans", &y);

    let ga = builder::random_dense(160, 160, 109);
    let gb = builder::random_dense(160, 160, 110);
    let mut gc = DenseMatrix::from_vec(160, 160, vec![1.0; 160 * 160]);
    ga.gemm(1.0, &gb, 0.5, &mut gc);
    report("gemm", gc.as_slice());

    let mut gc = DenseMatrix::zeros(160, 160);
    ga.gemm_tn_acc(&gb, &mut gc);
    report("gemm_tn_acc", gc.as_slice());

    // Packed-panel gemm with K crossing the KC = 256 cache block and no
    // dimension a multiple of any tile size — exercises the per-chunk A
    // and B panels across several NR-aligned column chunks.
    let ka = builder::random_dense(130, 517, 113);
    let kb = builder::random_dense(517, 93, 114);
    let mut kc = DenseMatrix::from_vec(130, 93, vec![1.0; 130 * 93]);
    ka.gemm(1.1, &kb, 0.5, &mut kc);
    report("gemm_kc_cross", kc.as_slice());

    // Cache-blocked transpose (pure data movement — hash pins stability).
    report("transpose", ka.transpose().as_slice());

    // Vector reductions — scalars hashed as 1-element slices.
    let v = builder::random_vector(300_000, 111);
    let w = builder::random_vector(300_000, 112);
    report("dot", &[v.dot(&w)]);
    report("norm2_sq", &[v.norm2_sq()]);
    report("sum", &[v.sum()]);
    let mut z = v.clone();
    z.axpy(0.75, &w);
    report("axpy", z.as_slice());

    // GNMF's per-place products: V·Hᵀ written into a block that already
    // holds values, W·(H·Hᵀ) with A packed in MC-row blocks, and the WᵀW
    // partial with Aᵀ packed one KC block of the 20 000 rows at a time.
    let gv = builder::random_csr(20_000, 400, 10, 115);
    let ght = builder::random_dense(400, 32, 116);
    let mut vht = DenseMatrix::from_vec(20_000, 32, vec![1.0; 20_000 * 32]);
    gv.spmm_into(&ght, &mut vht);
    report("csr_spmm_into_gnmf", vht.as_slice());
    // A row range of the same product, as GNMF's W update forms it a panel
    // at a time: the same bits as those rows of the whole.
    let mut vht_rows = DenseMatrix::from_vec(10_000, 32, vec![1.0; 10_000 * 32]);
    gv.spmm_rows_into(5_000..15_000, &ght, &mut vht_rows);
    let want = vht.sub_matrix(5_000, 15_000, 0, 32);
    assert_eq!(vht_rows, want, "spmm_rows_into != those rows of spmm_into");
    report("csr_spmm_rows_into_gnmf", vht_rows.as_slice());
    let gw = builder::random_dense(20_000, 32, 117);
    let ghh = builder::random_dense(32, 32, 118);
    let mut whh = DenseMatrix::from_vec(20_000, 32, vec![1.0; 20_000 * 32]);
    gw.gemm(1.0, &ghh, 0.0, &mut whh);
    report("gemm_gnmf", whh.as_slice());
    let mut wtw = DenseMatrix::zeros(32, 32);
    gw.gemm_tn_acc(&whh, &mut wtw);
    report("gemm_tn_acc_gnmf", wtw.as_slice());
}
