#![warn(missing_docs)]
//! # gml-matrix — single-place matrix and vector kernels
//!
//! The local building blocks of the Global Matrix Library: the single-place
//! column of Table I in the paper (`Vector`, `DenseMatrix`, `SparseCSR`),
//! plus the machinery the distributed layer is built from:
//!
//! * [`Grid`](grid::Grid) — an m×n block partitioning with near-even splits
//!   (`x10.matrix.block.Grid`), including the *overlap computation* between
//!   two different grids that powers the paper's repartitioned restore
//!   (Fig 1-c);
//! * [`MatrixBlock`](block::MatrixBlock) / [`BlockSet`](block::BlockSet) —
//!   dense-or-sparse blocks tagged with their grid position
//!   (`x10.matrix.distblock.BlockSet`);
//! * [`Shared`](shared::Shared) — the copy-on-write cell every place-local
//!   value of a mutable object lives in, so that a checkpoint capture holds
//!   it by reference;
//! * deterministic random builders for benchmark workloads.
//!
//! # Intra-place parallelism and blocked kernels
//!
//! The hot kernels (`spmv`/`spmv_trans`/`spmm`, `gemv`/`gemv_trans`/`gemm`/
//! `gemm_tn_acc`, vector dot/axpy/norm) fan out onto the process-wide
//! [`apgas::pool`] compute pool. The chunking is a function of the problem
//! size only and reductions combine partials in fixed chunk order, so
//! results are **bit-identical for every `GML_WORKERS` setting**. Small
//! inputs always take the inline serial path.
//!
//! Inside each chunk the kernels are cache-blocked and register-blocked
//! (packed-panel GEMM, 4-column GEMV passes, multi-accumulator reductions —
//! see `microkernel`/`tile` and DESIGN.md §3.10), with every accumulator
//! combined in a *fixed* order so worker-count parity survives the
//! blocking. Blocked results legitimately differ in final ULPs from plain
//! scalar loops (different summation order, fused multiply-add on capable
//! CPUs); each blocked kernel therefore keeps a `*_reference` scalar twin —
//! the pre-blocking serial loop — and the `kernel_reference` CI bin plus
//! the property tests bound the blocked-vs-reference drift.
//!
//! # The finite-values contract
//!
//! Kernels assume all matrix and vector contents are **finite** (`f64`
//! values that are neither NaN nor ±inf). `beta == 0.0` **assigns** (BLAS
//! semantics): the output buffer's prior contents, NaN included, never
//! reach the result. Symmetrically, `alpha == 0.0` reads neither input:
//! the kernels quick-return `beta * y` without touching A, B, or x, so
//! non-finite input entries cannot propagate through a zero coefficient.
//! The sparse scatter kernels (`spmv_trans`/`trans_spmm`) and the
//! `*_reference` twins additionally skip rows or columns whose *raw* entry
//! (`x[i]`, `b[k,j]`) is exactly zero — keyed on the entry, like
//! `beta_combine` keys on `beta`, never on a computed product that could
//! underflow to zero. The blocked dense paths perform no such per-entry
//! skips: inside a nonzero-`alpha` computation they follow pure IEEE
//! arithmetic, so a non-finite matrix entry poisons its output column as
//! IEEE dictates. The optional `check-finite` feature adds `debug_assert!`
//! finiteness checks at every kernel entry for hunting down non-finite
//! data at its source.

pub mod block;
pub mod builder;
pub mod dense;
pub mod grid;
mod microkernel;
pub mod shared;
pub mod sparse_csr;
mod tile;
pub mod vector;

pub use block::{BlockData, BlockSet, DenseBlockWire, MatrixBlock};
pub use dense::DenseMatrix;
pub use grid::{Grid, Overlap};
pub use shared::Shared;
pub use sparse_csr::SparseCSR;
pub use vector::Vector;

/// Apply the BLAS `beta` prescale to an output slice: `beta == 0` assigns
/// zero (never reads the possibly NaN/stale prior contents), `beta == 1` is
/// a no-op, anything else scales in place.
#[inline]
pub(crate) fn apply_beta(beta: f64, y: &mut [f64]) {
    if beta == 0.0 {
        y.fill(0.0);
    } else if beta != 1.0 {
        for v in y {
            *v *= beta;
        }
    }
}

/// Combine a freshly computed `alpha`-scaled accumulation with the prior
/// output value under BLAS `beta` semantics (assignment when `beta == 0`).
#[inline]
pub(crate) fn beta_combine(beta: f64, prior: f64, acc: f64) -> f64 {
    if beta == 0.0 {
        acc
    } else {
        acc + beta * prior
    }
}

/// Number of chunks for a scatter-form kernel that accumulates into an
/// output vector of `out_len` elements while iterating `items` rows or
/// columns. Each chunk beyond the first costs a zeroed `out_len` partial
/// vector, so the count is bounded by a memory budget (16 MiB of partials)
/// as well as a hard cap of 8; like every chunk policy it is a function of
/// the problem size ONLY, keeping results bit-identical across worker
/// counts. `1` means the historical in-place scatter runs unchanged.
pub(crate) fn scatter_chunks(items: usize, out_len: usize) -> usize {
    const MIN_ITEMS_PER_CHUNK: usize = 16_384;
    const PARTIAL_BYTES_BUDGET: usize = 16 << 20;
    let by_items = apgas::pool::chunk_count(items, MIN_ITEMS_PER_CHUNK);
    let by_mem = (PARTIAL_BYTES_BUDGET / 8 / out_len.max(1)).max(1);
    by_items.min(by_mem).min(8)
}

/// Chunk granularity for the compute-pool kernels: enough items per chunk
/// that each chunk performs at least ~16k scalar operations, given the
/// per-item cost. A pure function of the problem size, so the resulting
/// chunking (and therefore the numerics) never depends on the worker count.
pub(crate) fn min_chunk_items(work_per_item: usize) -> usize {
    (16_384 / work_per_item.max(1)).max(1)
}

/// With the `check-finite` feature, debug-assert that every value in `data`
/// is finite; a no-op otherwise. See the crate docs for the finite-values
/// contract.
#[inline]
pub(crate) fn debug_check_finite(_what: &str, _data: &[f64]) {
    #[cfg(feature = "check-finite")]
    debug_assert!(
        _data.iter().all(|v| v.is_finite()),
        "{_what}: non-finite value violates the finite-values contract"
    );
}
