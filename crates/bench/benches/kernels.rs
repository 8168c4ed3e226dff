//! Criterion microbenchmarks for the single-place kernels the distributed
//! layer is built on: dense/sparse matrix-vector products, sub-block
//! extraction (the restore hot path), serialization (the checkpoint hot
//! path), and every blocked kernel against its scalar reference twin.

use apgas::serial::{read_vec, write_slice, Serial};
use bytes::BytesMut;
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkGroup, Criterion};
use gml_matrix::{builder, DenseMatrix, SparseCSR, Vector};
use std::hint::black_box;

fn bench_gemv(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemv");
    for &n in &[128usize, 512] {
        let a = builder::random_dense(n, n, 1);
        let x = builder::random_vector(n, 2);
        let mut y = Vector::zeros(n);
        g.bench_function(format!("dense_{n}x{n}"), |b| {
            b.iter(|| {
                a.gemv(1.0, black_box(x.as_slice()), 0.0, y.as_mut_slice());
                black_box(y.get(0));
            })
        });
        g.bench_function(format!("dense_trans_{n}x{n}"), |b| {
            let mut yt = Vector::zeros(n);
            b.iter(|| {
                a.gemv_trans(1.0, black_box(x.as_slice()), 0.0, yt.as_mut_slice());
                black_box(yt.get(0));
            })
        });
    }
    g.finish();
}

fn bench_spmv(c: &mut Criterion) {
    let mut g = c.benchmark_group("spmv");
    for &n in &[1000usize, 4000] {
        let a = builder::random_csr(n, n, 8, 3);
        let x = builder::random_vector(n, 4);
        let mut y = Vector::zeros(n);
        g.bench_function(format!("csr_{n}_nnz{}", a.nnz()), |b| {
            b.iter(|| {
                a.spmv(1.0, black_box(x.as_slice()), 0.0, y.as_mut_slice());
                black_box(y.get(0));
            })
        });
    }
    g.finish();
}

fn bench_extraction(c: &mut Criterion) {
    let mut g = c.benchmark_group("sub_block_extraction");
    let n = 512;
    let dense = builder::random_dense(n, n, 5);
    g.bench_function("dense_quarter", |b| {
        b.iter(|| black_box(dense.sub_matrix(n / 4, 3 * n / 4, n / 4, 3 * n / 4)))
    });
    let sparse = builder::random_csr(4 * n, 4 * n, 8, 6);
    g.bench_function("sparse_quarter_with_nnz_count", |b| {
        b.iter(|| black_box(sparse.sub_matrix(n, 3 * n, n, 3 * n)))
    });
    g.bench_function("sparse_nnz_count_only", |b| {
        b.iter(|| black_box(sparse.count_nnz_in(n, 3 * n, n, 3 * n)))
    });
    g.finish();
}

fn bench_serialization(c: &mut Criterion) {
    let mut g = c.benchmark_group("serialization");
    let dense = builder::random_dense(256, 256, 7);
    g.bench_function("dense_256x256_write", |b| b.iter(|| black_box(dense.to_bytes())));
    let bytes = dense.to_bytes();
    g.bench_function("dense_256x256_read", |b| {
        b.iter_batched(
            || bytes.clone(),
            |by| black_box(DenseMatrix::from_bytes(by)),
            BatchSize::SmallInput,
        )
    });
    let sparse = builder::random_csr(2000, 2000, 8, 8);
    g.bench_function("csr_16k_nnz_roundtrip", |b| {
        b.iter(|| black_box(SparseCSR::from_bytes(sparse.to_bytes())))
    });
    g.finish();
}

/// The bulk zero-copy fast path vs the element-wise reference codec, on the
/// payload shapes the checkpoint plane actually ships: a large f64 vector
/// (dense blocks / vector segments) and a sparse CSR block.
fn bench_serial_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("serial_throughput");
    let n = 1_000_000usize;
    let data = builder::random_vector(n, 11).into_vec();

    g.bench_function("vec_f64_1m_encode_bulk", |b| {
        b.iter(|| {
            let mut buf = BytesMut::with_capacity(8 + 8 * data.len());
            write_slice(black_box(&data), &mut buf);
            black_box(buf.freeze())
        })
    });

    let encoded = {
        let mut buf = BytesMut::with_capacity(8 + 8 * data.len());
        write_slice(&data, &mut buf);
        buf.freeze()
    };
    g.bench_function("vec_f64_1m_decode_bulk", |b| {
        b.iter_batched(
            || encoded.clone(),
            |mut by| black_box(read_vec::<f64>(&mut by)),
            BatchSize::LargeInput,
        )
    });

    // A sparse block near 50k nnz: three bulk arrays per payload.
    let sparse = builder::random_csr(6000, 6000, 8, 13);
    g.bench_function(format!("csr_nnz{}_encode", sparse.nnz()), |b| {
        b.iter(|| black_box(sparse.to_bytes()))
    });
    let sparse_bytes = sparse.to_bytes();
    g.bench_function(format!("csr_nnz{}_decode", sparse.nnz()), |b| {
        b.iter_batched(
            || sparse_bytes.clone(),
            |by| black_box(SparseCSR::from_bytes(by)),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// Register one kernel's blocked form and its `*_reference` twin as
/// `<id>/blocked` and `<id>/reference`, back to back.
fn blocked_pair(
    g: &mut BenchmarkGroup<'_>,
    id: &str,
    mut blocked: impl FnMut(),
    mut reference: impl FnMut(),
) {
    g.bench_function(format!("{id}/blocked"), |b| b.iter(&mut blocked));
    g.bench_function(format!("{id}/reference"), |b| b.iter(&mut reference));
}

/// Every blocked kernel against its scalar `*_reference` twin at the shapes
/// the four `e2e_bench` workloads run it at: PageRank's SpMV over one of
/// four places' link-matrix rows (and the same rows sparser), LinReg's and
/// LogReg's mat-vecs, their vectors' dot, sum and axpy, GNMF's products,
/// Gram accumulation and transpose. Run with `GML_WORKERS=1` to compare
/// the kernels themselves, not the pool; the time ratio of each pair is the
/// verdict EXPERIMENTS.md records ("Blocked kernels on trial").
fn bench_blocked_vs_reference(c: &mut Criterion) {
    let mut g = c.benchmark_group("blocked_vs_reference");
    let (rows, nodes) = (32_768, 131_072);
    let x = builder::random_vector(nodes, 1);
    let link = builder::link_matrix_rows(nodes, 50, 2, 0, rows);
    let mut csrs = vec![(format!("spmv_{rows}x{nodes}_link_nnz{}", link.nnz() / rows), link)];
    for nnz in [10, 3] {
        let a = builder::random_csr_rows(nodes, nnz, 3, 0, rows);
        csrs.push((format!("spmv_{rows}x{nodes}_nnz{nnz}"), a));
    }
    for (id, a) in &csrs {
        let (mut y, mut y_ref) = (Vector::zeros(rows), Vector::zeros(rows));
        blocked_pair(
            &mut g,
            id,
            || a.spmv(1.0, black_box(x.as_slice()), 0.0, y.as_mut_slice()),
            || a.spmv_reference(1.0, black_box(x.as_slice()), 0.0, y_ref.as_mut_slice()),
        );
    }
    // LinReg's and LogReg's examples × features blocks.
    for (m, n) in [(8000, 141), (1000, 50)] {
        let a = builder::random_dense(m, n, 4);
        let (xn, xm) = (builder::random_vector(n, 5), builder::random_vector(m, 6));
        let (mut y, mut y_ref) = (Vector::zeros(m), Vector::zeros(m));
        blocked_pair(
            &mut g,
            &format!("gemv_{m}x{n}"),
            || a.gemv(1.0, black_box(xn.as_slice()), 0.0, y.as_mut_slice()),
            || a.gemv_reference(1.0, black_box(xn.as_slice()), 0.0, y_ref.as_mut_slice()),
        );
        let (mut y, mut y_ref) = (Vector::zeros(n), Vector::zeros(n));
        blocked_pair(
            &mut g,
            &format!("gemv_trans_{m}x{n}"),
            || a.gemv_trans(1.0, black_box(xm.as_slice()), 0.0, y.as_mut_slice()),
            || a.gemv_trans_reference(1.0, black_box(xm.as_slice()), 0.0, y_ref.as_mut_slice()),
        );
    }
    // Features, examples per place and PageRank's rank segment.
    for n in [50, 141, 1000, 8000, 32_768] {
        let (a, b) = (builder::random_vector(n, 7), builder::random_vector(n, 8));
        blocked_pair(
            &mut g,
            &format!("dot_{n}"),
            || {
                black_box(a.dot(black_box(&b)));
            },
            || {
                black_box(a.dot_reference(black_box(&b)));
            },
        );
        blocked_pair(
            &mut g,
            &format!("sum_{n}"),
            || {
                black_box(black_box(&a).sum());
            },
            || {
                black_box(black_box(&a).sum_reference());
            },
        );
        let (mut acc, mut acc_ref) = (a.clone(), a.clone());
        blocked_pair(
            &mut g,
            &format!("axpy_{n}"),
            || {
                black_box(acc.axpy(1e-9, black_box(&b)));
            },
            || {
                black_box(acc_ref.axpy_reference(1e-9, black_box(&b)));
            },
        );
    }
    // GNMF: W (20 000 × 32) times H·Hᵀ, H (32 × 400) times its transpose,
    // WᵀW accumulated, and H transposed; plus a square transpose.
    let (m, k, n) = (20_000, 32, 400);
    let w = builder::random_dense(m, k, 10);
    let h = builder::random_dense(k, n, 11);
    let (ht, hht) = (h.transpose(), builder::random_dense(k, k, 12));
    for (id, a, b) in [("gemm_20000x32x32", &w, &hht), ("gemm_32x400x32", &h, &ht)] {
        let mut out = DenseMatrix::zeros(a.rows(), b.cols());
        let mut out_ref = out.clone();
        blocked_pair(
            &mut g,
            id,
            || a.gemm(1.0, black_box(b), 0.0, &mut out),
            || a.gemm_reference(1.0, black_box(b), 0.0, &mut out_ref),
        );
    }
    let (mut gram, mut gram_ref) = (DenseMatrix::zeros(k, k), DenseMatrix::zeros(k, k));
    blocked_pair(
        &mut g,
        "gemm_tn_acc_20000x32x32",
        || w.gemm_tn_acc(black_box(&w), &mut gram),
        || w.gemm_tn_acc_reference(black_box(&w), &mut gram_ref),
    );
    let square = builder::random_dense(1024, 1024, 13);
    for (id, a) in [("transpose_32x400", &h), ("transpose_1024x1024", &square)] {
        blocked_pair(
            &mut g,
            id,
            || {
                black_box(a.transpose());
            },
            || {
                black_box(a.transpose_reference());
            },
        );
    }
    g.finish();
}

/// The synthetic input builders at one place's share of each workload:
/// PageRank's link block (a quarter of 131 072 nodes, out-degree 50),
/// GNMF's `V` and LinReg's `X` — the layer number beside `setup_s`.
fn bench_builders(c: &mut Criterion) {
    let mut g = c.benchmark_group("builders");
    g.sample_size(10);
    g.bench_function("link_matrix_rows_131072_deg50_quarter", |b| {
        b.iter(|| black_box(builder::link_matrix_rows(131_072, 50, 1, 0, 32_768)))
    });
    g.bench_function("random_csr_rows_20000x400_nnz10", |b| {
        b.iter(|| black_box(builder::random_csr_rows(400, 10, 2, 0, 20_000)))
    });
    g.bench_function("random_dense_rows_8000x141", |b| {
        b.iter(|| black_box(builder::random_dense_rows(141, 3, 0, 8000)))
    });
    g.finish();
}

criterion_group!(
    kernels,
    bench_gemv,
    bench_spmv,
    bench_extraction,
    bench_serialization,
    bench_serial_throughput,
    bench_blocked_vs_reference,
    bench_builders
);
criterion_main!(kernels);
