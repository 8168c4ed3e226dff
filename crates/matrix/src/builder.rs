//! Deterministic random builders for benchmark workloads.
//!
//! The paper's evaluation generates synthetic inputs: dense labeled training
//! sets for Linear/Logistic Regression and a sparse link matrix for
//! PageRank. All builders are seeded so every place can generate its own
//! partition reproducibly and tests can compare distributed results against
//! single-place references bit-for-bit.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::dense::DenseMatrix;
use crate::sparse_csr::SparseCSR;
use crate::vector::Vector;

/// A dense `rows × cols` matrix with entries uniform in `[-1, 1)`.
pub fn random_dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..rows * cols).map(|_| rng.random_range(-1.0..1.0)).collect();
    DenseMatrix::from_vec(rows, cols, data)
}

/// The row slice `r0..r1` of a deterministic `rows × cols` dense matrix
/// whose row `i` depends only on `(seed, i)` — each place of a distributed
/// training set builds exactly its own examples.
pub fn random_dense_rows(cols: usize, seed: u64, r0: usize, r1: usize) -> DenseMatrix {
    let mut out = DenseMatrix::zeros(r1 - r0, cols);
    for i in r0..r1 {
        let mut rng =
            StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
        for j in 0..cols {
            out.set(i - r0, j, rng.random_range(-1.0..1.0));
        }
    }
    out
}

/// A vector with entries uniform in `[-1, 1)`.
pub fn random_vector(n: usize, seed: u64) -> Vector {
    let mut rng = StdRng::seed_from_u64(seed);
    Vector::from_vec((0..n).map(|_| rng.random_range(-1.0..1.0)).collect())
}

/// A sparse CSR matrix with ~`nnz_per_row` entries per row, values uniform
/// in `[-1, 1)`. Column positions are sampled without replacement per row.
pub fn random_csr(rows: usize, cols: usize, nnz_per_row: usize, seed: u64) -> SparseCSR {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = RandomRows::new(rows, cols, nnz_per_row);
    for _ in 0..rows {
        out.push(&mut rng);
    }
    out.finish()
}

/// The row slice `r0..r1` of a deterministic sparse matrix whose row `i`
/// depends only on `(seed, i)` — the sparse analogue of
/// [`random_dense_rows`]. Values uniform in `[-1, 1)`; column indices
/// global.
pub fn random_csr_rows(
    cols: usize,
    nnz_per_row: usize,
    seed: u64,
    r0: usize,
    r1: usize,
) -> SparseCSR {
    let mut out = RandomRows::new(r1 - r0, cols, nnz_per_row);
    for i in r0..r1 {
        let mut rng =
            StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        out.push(&mut rng);
    }
    out.finish()
}

/// Draws `k` distinct values uniform in `0..n` into `out`, in draw order.
/// `seen` holds `n` flags, all clear on entry and again on return.
fn draw_distinct(rng: &mut StdRng, n: usize, k: usize, seen: &mut [bool], out: &mut Vec<usize>) {
    out.clear();
    while out.len() < k {
        let i = rng.random_range(0..n);
        if !std::mem::replace(&mut seen[i], true) {
            out.push(i);
        }
    }
    for &i in out.iter() {
        seen[i] = false;
    }
}

/// A random sparse matrix written row by row straight into its CSR arrays:
/// each row is `min(nnz_per_row, cols)` distinct columns, then one value
/// uniform in `[-1, 1)` per column in draw order, stored sorted by column.
struct RandomRows {
    cols: usize,
    per_row: usize,
    seen: Vec<bool>,
    drawn: Vec<usize>,
    row: Vec<(usize, f64)>,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl RandomRows {
    fn new(rows: usize, cols: usize, nnz_per_row: usize) -> Self {
        let per_row = nnz_per_row.min(cols);
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0);
        RandomRows {
            cols,
            per_row,
            seen: vec![false; cols],
            drawn: Vec::with_capacity(per_row),
            row: Vec::with_capacity(per_row),
            row_ptr,
            col_idx: Vec::with_capacity(rows * per_row),
            values: Vec::with_capacity(rows * per_row),
        }
    }

    fn push(&mut self, rng: &mut StdRng) {
        draw_distinct(rng, self.cols, self.per_row, &mut self.seen, &mut self.drawn);
        self.row.clear();
        self.row.extend(self.drawn.iter().map(|&c| (c, rng.random_range(-1.0..1.0))));
        self.row.sort_unstable_by_key(|e| e.0);
        self.col_idx.extend(self.row.iter().map(|e| e.0));
        self.values.extend(self.row.iter().map(|e| e.1));
        self.row_ptr.push(self.col_idx.len());
    }

    fn finish(self) -> SparseCSR {
        let rows = self.row_ptr.len() - 1;
        SparseCSR::from_raw(rows, self.cols, self.row_ptr, self.col_idx, self.values)
    }
}

/// The link targets of node `j`, drawn into `out` (deterministic per
/// `(seed, j)` so any place can regenerate any column independently).
fn link_targets(
    n: usize,
    deg: usize,
    seed: u64,
    j: usize,
    seen: &mut [bool],
    out: &mut Vec<usize>,
) {
    let mut rng = StdRng::seed_from_u64(seed ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    draw_distinct(&mut rng, n, deg, seen, out);
}

/// A column-stochastic link matrix `G` for PageRank over `n` nodes with
/// `out_degree` links per node: `G[i][j] = 1/outdeg(j)` iff node `j` links
/// to node `i`. Every column sums to 1.
pub fn random_link_matrix(n: usize, out_degree: usize, seed: u64) -> SparseCSR {
    link_matrix_rows(n, out_degree, seed, 0, n)
}

/// The row slice `r0..r1` of [`random_link_matrix`]`(n, out_degree, seed)`,
/// generated without materialising the rest — each place of a distributed
/// PageRank builds exactly its own block. Column indices are global
/// (`cols == n`), row indices re-based to the slice.
///
/// One pass draws every column's targets once, counting the slice's hits
/// per row and keeping them as `(local row, column)` pairs; a counting
/// scatter then fills the column indices. Columns arrive in increasing
/// order, so every row comes out sorted and free of duplicates.
pub fn link_matrix_rows(
    n: usize,
    out_degree: usize,
    seed: u64,
    r0: usize,
    r1: usize,
) -> SparseCSR {
    assert!(u32::try_from(n).is_ok(), "link matrix of {n} nodes: indices must fit in u32");
    let deg = out_degree.clamp(1, n);
    let rows = r1 - r0;
    let (mut seen, mut targets) = (vec![false; n], Vec::with_capacity(deg));
    let mut row_ptr = vec![0usize; rows + 1];
    // Expected hits are deg·rows, give or take a few standard deviations.
    let mut hits: Vec<(u32, u32)> = Vec::with_capacity(deg * rows + deg * rows / 16);
    for j in 0..n {
        link_targets(n, deg, seed, j, &mut seen, &mut targets);
        for &i in &targets {
            if (r0..r1).contains(&i) {
                row_ptr[i - r0 + 1] += 1;
                hits.push(((i - r0) as u32, j as u32));
            }
        }
    }
    for r in 0..rows {
        row_ptr[r + 1] += row_ptr[r];
    }
    let mut next = row_ptr[..rows].to_vec();
    let mut col_idx = vec![0usize; hits.len()];
    for (r, j) in hits {
        let slot = &mut next[r as usize];
        col_idx[*slot] = j as usize;
        *slot += 1;
    }
    let values = vec![1.0 / deg as f64; col_idx.len()];
    SparseCSR::from_raw(rows, n, row_ptr, col_idx, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_are_deterministic() {
        assert_eq!(random_dense(4, 3, 7), random_dense(4, 3, 7));
        assert_ne!(random_dense(4, 3, 7), random_dense(4, 3, 8));
        assert_eq!(random_vector(5, 1), random_vector(5, 1));
        assert_eq!(random_csr(4, 6, 2, 3), random_csr(4, 6, 2, 3));
        assert_eq!(random_link_matrix(6, 2, 9), random_link_matrix(6, 2, 9));
    }

    #[test]
    fn random_dense_in_range() {
        let a = random_dense(10, 10, 42);
        assert!(a.as_slice().iter().all(|&v| (-1.0..1.0).contains(&v)));
    }

    #[test]
    fn random_csr_has_expected_density() {
        let a = random_csr(20, 50, 5, 11);
        assert_eq!(a.nnz(), 100);
        // Per-row count is exact.
        for i in 0..20 {
            assert_eq!(a.row(i).0.len(), 5);
        }
    }

    #[test]
    fn nnz_per_row_clamped_to_cols() {
        let a = random_csr(3, 2, 10, 1);
        assert_eq!(a.nnz(), 6);
    }

    #[test]
    fn link_matrix_is_column_stochastic() {
        let g = random_link_matrix(25, 4, 5);
        let mut sums = [0.0; 25];
        for (_, j, v) in g.iter() {
            sums[j] += v;
        }
        for (j, &sum) in sums.iter().enumerate() {
            assert!((sum - 1.0).abs() < 1e-12, "column {j} sums to {sum}");
        }
    }

    #[test]
    fn dense_row_slices_tile_consistently() {
        let full = random_dense_rows(5, 3, 0, 12);
        let top = random_dense_rows(5, 3, 0, 4);
        let bot = random_dense_rows(5, 3, 4, 12);
        assert_eq!(full.sub_matrix(0, 4, 0, 5), top);
        assert_eq!(full.sub_matrix(4, 12, 0, 5), bot);
    }

    #[test]
    fn sparse_row_slices_tile_consistently() {
        let full = random_csr_rows(8, 3, 9, 0, 10);
        let top = random_csr_rows(8, 3, 9, 0, 4);
        let bot = random_csr_rows(8, 3, 9, 4, 10);
        let mut rebuilt = SparseCSR::zeros(10, 8);
        rebuilt.paste(0, 0, &top);
        rebuilt.paste(4, 0, &bot);
        assert_eq!(rebuilt, full);
    }

    #[test]
    fn link_matrix_row_slices_tile_the_global_matrix() {
        let n = 20;
        let global = random_link_matrix(n, 3, 99);
        let top = link_matrix_rows(n, 3, 99, 0, 7);
        let mid = link_matrix_rows(n, 3, 99, 7, 15);
        let bot = link_matrix_rows(n, 3, 99, 15, 20);
        let mut rebuilt = SparseCSR::zeros(n, n);
        rebuilt.paste(0, 0, &top);
        rebuilt.paste(7, 0, &mid);
        rebuilt.paste(15, 0, &bot);
        assert_eq!(rebuilt, global);
    }

    /// The triplet builders these replaced, transcribed as oracles: a
    /// linear-scan (degree ≤ 32) or hashed dedup per column, every hit
    /// staged as a `(row, col, value)` triplet, then `from_triplets`.
    mod oracle {
        use super::*;

        fn link_targets(n: usize, deg: usize, seed: u64, j: usize) -> Vec<usize> {
            let mut rng =
                StdRng::seed_from_u64(seed ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut targets = Vec::with_capacity(deg);
            if deg <= 32 {
                while targets.len() < deg {
                    let i = rng.random_range(0..n);
                    if !targets.contains(&i) {
                        targets.push(i);
                    }
                }
            } else {
                let mut seen = std::collections::HashSet::with_capacity(deg * 2);
                while targets.len() < deg {
                    let i = rng.random_range(0..n);
                    if seen.insert(i) {
                        targets.push(i);
                    }
                }
            }
            targets
        }

        pub fn link_matrix_rows(
            n: usize,
            out_degree: usize,
            seed: u64,
            r0: usize,
            r1: usize,
        ) -> SparseCSR {
            let deg = out_degree.clamp(1, n);
            let w = 1.0 / deg as f64;
            let mut triplets = Vec::new();
            for j in 0..n {
                for i in link_targets(n, deg, seed, j) {
                    if (r0..r1).contains(&i) {
                        triplets.push((i - r0, j, w));
                    }
                }
            }
            SparseCSR::from_triplets(r1 - r0, n, &triplets)
        }

        fn push_row(
            rng: &mut StdRng,
            r: usize,
            cols: usize,
            per_row: usize,
            triplets: &mut Vec<(usize, usize, f64)>,
        ) {
            let mut cols_buf = Vec::with_capacity(per_row);
            while cols_buf.len() < per_row {
                let c = rng.random_range(0..cols);
                if !cols_buf.contains(&c) {
                    cols_buf.push(c);
                }
            }
            for &c in &cols_buf {
                triplets.push((r, c, rng.random_range(-1.0..1.0)));
            }
        }

        pub fn random_csr(rows: usize, cols: usize, nnz_per_row: usize, seed: u64) -> SparseCSR {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut triplets = Vec::new();
            for r in 0..rows {
                push_row(&mut rng, r, cols, nnz_per_row.min(cols), &mut triplets);
            }
            SparseCSR::from_triplets(rows, cols, &triplets)
        }

        pub fn random_csr_rows(
            cols: usize,
            nnz_per_row: usize,
            seed: u64,
            r0: usize,
            r1: usize,
        ) -> SparseCSR {
            let mut triplets = Vec::new();
            for i in r0..r1 {
                let mut rng =
                    StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F));
                push_row(&mut rng, i - r0, cols, nnz_per_row.min(cols), &mut triplets);
            }
            SparseCSR::from_triplets(r1 - r0, cols, &triplets)
        }
    }

    /// The full range of `n` rows and three slices that tile it.
    fn slices(n: usize) -> [(usize, usize); 4] {
        [(0, n), (0, n / 3), (n / 3, n - n / 4), (n - n / 4, n)]
    }

    #[test]
    fn link_matrix_rows_match_the_triplet_oracle() {
        // Out-degree ≤ 32 and > 32 (the oracle's two dedup paths), clamped
        // to n, and a single node.
        let shapes = [(300, 7, 1), (300, 32, 2), (300, 33, 3), (500, 50, 4), (40, 90, 5), (1, 3, 6)];
        for (n, deg, seed) in shapes {
            for (r0, r1) in slices(n) {
                assert_eq!(
                    link_matrix_rows(n, deg, seed, r0, r1),
                    oracle::link_matrix_rows(n, deg, seed, r0, r1),
                    "n={n} deg={deg} rows {r0}..{r1}"
                );
            }
        }
    }

    #[test]
    fn link_matrix_rows_match_the_triplet_oracle_at_pagerank_shape() {
        // One place's quarter of the pagerank_spmv workload's link matrix.
        let (n, q) = (131_072, 32_768);
        let oracle = oracle::link_matrix_rows(n, 50, 17, q, 2 * q);
        assert_eq!(link_matrix_rows(n, 50, 17, q, 2 * q), oracle);
    }

    #[test]
    fn random_csr_builders_match_the_triplet_oracle() {
        // nnz_per_row below, at and above the column count.
        for (cols, nnz, seed) in [(400, 10, 1), (9, 9, 2), (5, 12, 3), (1, 4, 4)] {
            assert_eq!(random_csr(30, cols, nnz, seed), oracle::random_csr(30, cols, nnz, seed));
            for (r0, r1) in slices(30) {
                assert_eq!(
                    random_csr_rows(cols, nnz, seed, r0, r1),
                    oracle::random_csr_rows(cols, nnz, seed, r0, r1),
                    "cols={cols} nnz={nnz} rows {r0}..{r1}"
                );
            }
        }
        // One place's share of the gnmf_ckpt workload's V.
        let oracle = oracle::random_csr_rows(400, 10, 8, 0, 20_000);
        assert_eq!(random_csr_rows(400, 10, 8, 0, 20_000), oracle);
    }
}
