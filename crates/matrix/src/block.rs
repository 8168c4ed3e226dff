//! Matrix blocks and per-place block sets
//! (`x10.matrix.distblock.BlockSet`).
//!
//! A [`MatrixBlock`] is one tile of a distributed matrix: its grid position
//! plus a dense or sparse payload. A [`BlockSet`] is the collection of
//! blocks one place holds. Allowing a place to hold *several* blocks is the
//! key enabler of the paper's shrink-mode restore: after a failure the same
//! blocks are re-mapped onto fewer places without repartitioning (§III-A,
//! Fig 1-b).

use apgas::serial::{Runs, Serial};
use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::dense::DenseMatrix;
use crate::grid::Grid;
use crate::shared::Shared;
use crate::sparse_csr::SparseCSR;

/// The payload of one block: dense or sparse.
#[derive(Clone, Debug, PartialEq)]
pub enum BlockData {
    /// Dense payload.
    Dense(DenseMatrix),
    /// Sparse (CSR) payload.
    Sparse(SparseCSR),
}

impl BlockData {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            BlockData::Dense(d) => d.rows(),
            BlockData::Sparse(s) => s.rows(),
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        match self {
            BlockData::Dense(d) => d.cols(),
            BlockData::Sparse(s) => s.cols(),
        }
    }

    /// Extract a sub-region in **local** block coordinates. For sparse
    /// payloads this runs the nnz-counting pre-pass the paper describes.
    pub fn sub_region(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> BlockData {
        match self {
            BlockData::Dense(d) => BlockData::Dense(d.sub_matrix(r0, r1, c0, c1)),
            BlockData::Sparse(s) => BlockData::Sparse(s.sub_matrix(r0, r1, c0, c1)),
        }
    }

    /// Paste `src` at local position `(r0, c0)`.
    ///
    /// # Panics
    /// Panics if kinds differ or the region does not fit.
    pub fn paste(&mut self, r0: usize, c0: usize, src: &BlockData) {
        match (self, src) {
            (BlockData::Dense(d), BlockData::Dense(s)) => d.paste(r0, c0, s),
            (BlockData::Sparse(d), BlockData::Sparse(s)) => d.paste(r0, c0, s),
            _ => panic!("cannot paste between dense and sparse payloads"),
        }
    }

    /// `y = alpha * B * x + beta * y` for this block.
    pub fn gemv(&self, alpha: f64, x: &[f64], beta: f64, y: &mut [f64]) {
        match self {
            BlockData::Dense(d) => d.gemv(alpha, x, beta, y),
            BlockData::Sparse(s) => s.spmv(alpha, x, beta, y),
        }
    }

    /// `y = alpha * Bᵀ * x + beta * y` for this block.
    pub fn gemv_trans(&self, alpha: f64, x: &[f64], beta: f64, y: &mut [f64]) {
        match self {
            BlockData::Dense(d) => d.gemv_trans(alpha, x, beta, y),
            BlockData::Sparse(s) => s.spmv_trans(alpha, x, beta, y),
        }
    }

    /// Densify (testing aid).
    pub fn to_dense(&self) -> DenseMatrix {
        match self {
            BlockData::Dense(d) => d.clone(),
            BlockData::Sparse(s) => s.to_dense(),
        }
    }

    /// Bytes of payload if serialized (used for checkpoint sizing).
    pub fn payload_bytes(&self) -> usize {
        self.byte_len()
    }
}

impl Serial for BlockData {
    fn write(&self, buf: &mut BytesMut) {
        match self {
            BlockData::Dense(d) => {
                buf.put_u8(0);
                d.write(buf);
            }
            BlockData::Sparse(s) => {
                buf.put_u8(1);
                s.write(buf);
            }
        }
    }
    fn read(buf: &mut Bytes) -> Self {
        match buf.get_u8() {
            0 => BlockData::Dense(DenseMatrix::read(buf)),
            _ => BlockData::Sparse(SparseCSR::read(buf)),
        }
    }
    fn byte_len(&self) -> usize {
        1 + match self {
            BlockData::Dense(d) => d.byte_len(),
            BlockData::Sparse(s) => s.byte_len(),
        }
    }
    fn write_runs<'a>(&'a self, runs: &mut Runs<'a>) {
        match self {
            BlockData::Dense(d) => {
                runs.put(&0u8);
                d.write_runs(runs);
            }
            BlockData::Sparse(s) => {
                runs.put(&1u8);
                s.write_runs(runs);
            }
        }
    }
}

/// One tile of a distributed matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct MatrixBlock {
    /// Block-row index in the owning grid.
    pub bi: usize,
    /// Block-col index in the owning grid.
    pub bj: usize,
    /// Global row of this block's (0,0) element.
    pub row_offset: usize,
    /// Global column of this block's (0,0) element.
    pub col_offset: usize,
    /// The tile contents.
    pub data: BlockData,
}

impl MatrixBlock {
    /// An all-zero block at position `(bi, bj)` of `grid`; `sparse` selects
    /// the payload kind.
    pub fn zeros(grid: &Grid, bi: usize, bj: usize, sparse: bool) -> Self {
        let (r0, _r1, c0, _c1) = grid.block_range(bi, bj);
        let (m, n) = grid.block_dims(bi, bj);
        let data = if sparse {
            BlockData::Sparse(SparseCSR::zeros(m, n))
        } else {
            BlockData::Dense(DenseMatrix::zeros(m, n))
        };
        MatrixBlock { bi, bj, row_offset: r0, col_offset: c0, data }
    }

    /// [`zeros`](Self::zeros), but built in the buffer of a dense block of
    /// the same dimensions taken out of `spare` when there is one that
    /// nothing else holds: the buffer is re-labelled and zero-filled in
    /// place, so a place that is re-laid-out keeps writing to pages it has
    /// already touched.
    pub fn zeros_reusing(
        grid: &Grid,
        bi: usize,
        bj: usize,
        sparse: bool,
        spare: &mut Vec<Shared<MatrixBlock>>,
    ) -> Self {
        let dims = grid.block_dims(bi, bj);
        let fits = |b: &MatrixBlock| {
            matches!(b.data, BlockData::Dense(_)) && (b.rows(), b.cols()) == dims
        };
        let free = |b: &Shared<MatrixBlock>| fits(b) && !b.is_held();
        let Some(at) = spare.iter().position(free).filter(|_| !sparse) else {
            return MatrixBlock::zeros(grid, bi, bj, sparse);
        };
        let mut block = spare.swap_remove(at).into_inner();
        let (r0, _, c0, _) = grid.block_range(bi, bj);
        (block.bi, block.bj, block.row_offset, block.col_offset) = (bi, bj, r0, c0);
        if let BlockData::Dense(d) = &mut block.data {
            d.as_mut_slice().fill(0.0);
        }
        block
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.data.rows()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.data.cols()
    }

    /// Global extents `(r0, r1, c0, c1)`.
    pub fn global_range(&self) -> (usize, usize, usize, usize) {
        (
            self.row_offset,
            self.row_offset + self.rows(),
            self.col_offset,
            self.col_offset + self.cols(),
        )
    }

    /// Extract a **globally**-addressed sub-region of this block.
    pub fn sub_region_global(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> BlockData {
        self.data.sub_region(
            r0 - self.row_offset,
            r1 - self.row_offset,
            c0 - self.col_offset,
            c1 - self.col_offset,
        )
    }
}

/// Offset of the f64 image in a serialized dense block: the four labels,
/// the payload tag, then `DenseMatrix::write`'s rows, cols and length.
const DENSE_WIRE_DATA: usize = 32 + 1 + 24;

/// A serialized **dense** block read where it lies: its geometry parsed,
/// its column-major f64 image left as the little-endian bytes they are.
#[derive(Clone, Copy, Debug)]
pub struct DenseBlockWire<'a> {
    row_offset: usize,
    col_offset: usize,
    rows: usize,
    data: &'a [u8],
}

impl<'a> DenseBlockWire<'a> {
    /// View `wire` (a block as [`Serial::write`] wrote it) without decoding
    /// it. `None` when the block is sparse or the bytes are not exactly one
    /// dense block.
    pub fn parse(wire: &'a [u8]) -> Option<Self> {
        let word = |at: usize| {
            let b = wire.get(at..at + 8)?;
            Some(u64::from_le_bytes(b.try_into().ok()?) as usize)
        };
        if *wire.get(32)? != 0 {
            return None;
        }
        let (rows, cols, len) = (word(33)?, word(41)?, word(49)?);
        let data = wire.get(DENSE_WIRE_DATA..)?;
        (rows.checked_mul(cols) == Some(len) && len.checked_mul(8) == Some(data.len()))
            .then_some(DenseBlockWire { row_offset: word(16)?, col_offset: word(24)?, rows, data })
    }
}

impl MatrixBlock {
    /// Paste the **globally** addressed region `r0..r1 × c0..c1` of a
    /// serialized dense block into this (dense) block: each wanted column
    /// run goes from the stored bytes into place in one copy, with no source
    /// matrix built in between.
    ///
    /// # Panics
    /// Panics if `self` is sparse or the region lies outside either block.
    pub fn paste_dense_wire(
        &mut self,
        src: &DenseBlockWire<'_>,
        r0: usize,
        r1: usize,
        c0: usize,
        c1: usize,
    ) {
        let (dr, dc) = (r0 - self.row_offset, c0 - self.col_offset);
        let BlockData::Dense(d) = &mut self.data else {
            panic!("cannot paste between dense and sparse payloads");
        };
        let (sr, sc) = (r0 - src.row_offset, c0 - src.col_offset);
        let rows = r1 - r0;
        for j in 0..c1 - c0 {
            let at = 8 * ((sc + j) * src.rows + sr);
            let run = src.data[at..at + 8 * rows].chunks_exact(8);
            for (x, le) in d.col_mut(dc + j)[dr..dr + rows].iter_mut().zip(run) {
                *x = f64::from_le_bytes(le.try_into().expect("8-byte chunk"));
            }
        }
    }
}

impl Serial for MatrixBlock {
    fn write(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.bi as u64);
        buf.put_u64_le(self.bj as u64);
        buf.put_u64_le(self.row_offset as u64);
        buf.put_u64_le(self.col_offset as u64);
        self.data.write(buf);
    }
    fn read(buf: &mut Bytes) -> Self {
        let bi = buf.get_u64_le() as usize;
        let bj = buf.get_u64_le() as usize;
        let row_offset = buf.get_u64_le() as usize;
        let col_offset = buf.get_u64_le() as usize;
        MatrixBlock { bi, bj, row_offset, col_offset, data: BlockData::read(buf) }
    }
    fn byte_len(&self) -> usize {
        32 + self.data.byte_len()
    }
    fn write_runs<'a>(&'a self, runs: &mut Runs<'a>) {
        [self.bi, self.bj, self.row_offset, self.col_offset].iter().for_each(|x| runs.put(x));
        self.data.write_runs(runs);
    }
}

/// The blocks one place holds — a matrix's [`MatrixBlock`]s or a vector's
/// segments — each with its id in the owning grid and in a [`Shared`]: a
/// checkpoint capture takes a handle on each, and
/// [`iter_mut`](Self::iter_mut) / [`get_mut`](Self::get_mut) copy a block
/// before writing it only while such a handle is still alive.
#[derive(Debug, PartialEq)]
pub struct BlockSet<T = MatrixBlock> {
    blocks: Vec<(usize, Shared<T>)>,
}

impl<T> Default for BlockSet<T> {
    fn default() -> Self {
        BlockSet { blocks: Vec::new() }
    }
}

impl<T> BlockSet<T> {
    /// Create a new instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an explicit list of `(id, cell)` pairs: a held block stays
    /// held.
    pub fn from_blocks(blocks: Vec<(usize, Shared<T>)>) -> Self {
        BlockSet { blocks }
    }

    /// Length.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Add block `id` to the set.
    pub fn push(&mut self, id: usize, b: T) {
        self.blocks.push((id, Shared::new(b)));
    }

    /// Iterate over the blocks.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.blocks.iter().map(|(_, b)| &**b)
    }

    /// Iterate over the blocks' cells, for a capture to take handles on.
    pub fn iter_shared(&self) -> impl Iterator<Item = &Shared<T>> {
        self.blocks.iter().map(|(_, b)| b)
    }

    /// Iterate over the blocks' ids and cells.
    pub fn entries(&self) -> impl Iterator<Item = (usize, &Shared<T>)> {
        self.blocks.iter().map(|(id, b)| (*id, b))
    }

    /// Block `id`'s cell.
    pub fn shared(&self, id: usize) -> Option<&Shared<T>> {
        self.entries().find(|&(at, _)| at == id).map(|(_, b)| b)
    }

    /// Block `id`.
    pub fn get(&self, id: usize) -> Option<&T> {
        self.shared(id).map(|b| &**b)
    }

    /// The blocks' `(id, cell)` pairs, moved out: a held block stays held,
    /// and nothing is copied.
    pub fn into_blocks(self) -> Vec<(usize, Shared<T>)> {
        self.blocks
    }
}

impl<T: Clone> BlockSet<T> {
    /// Iterate mutably over the blocks.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.entries_mut().map(|(_, b)| b)
    }

    /// Iterate mutably over the blocks, with their ids.
    pub fn entries_mut(&mut self) -> impl Iterator<Item = (usize, &mut T)> {
        self.blocks.iter_mut().map(|(id, b)| (*id, &mut **b))
    }

    /// Block `id`, mutably.
    pub fn get_mut(&mut self, id: usize) -> Option<&mut T> {
        self.blocks.iter_mut().find(|(at, _)| *at == id).map(|(_, b)| &mut **b)
    }
}

impl BlockSet {
    /// Find the block at grid position `(bi, bj)`.
    pub fn find(&self, bi: usize, bj: usize) -> Option<&MatrixBlock> {
        self.iter().find(|b| b.bi == bi && b.bj == bj)
    }

    /// Find the block at grid position `(bi, bj)`, mutably.
    pub fn find_mut(&mut self, bi: usize, bj: usize) -> Option<&mut MatrixBlock> {
        self.blocks.iter_mut().find(|(_, b)| b.bi == bi && b.bj == bj).map(|(_, b)| &mut **b)
    }

    /// Total payload bytes across all blocks (checkpoint sizing).
    pub fn payload_bytes(&self) -> usize {
        self.iter().map(|b| b.data.payload_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use proptest::prelude::*;

    /// `value`'s wire runs end to end, and how many of them are views.
    fn runs_of<T: Serial>(value: &T) -> (Vec<u8>, usize) {
        let runs = Runs::of(value);
        let views = runs.iter().filter(|r| matches!(r, apgas::serial::Run::View(_))).count();
        (runs.iter().flat_map(|r| r.iter().copied()).collect(), views)
    }

    proptest! {
        // Every type that yields its arrays in place: the runs end to end
        // are its serialization byte for byte, at every edge shape — no
        // rows, one row, empty arrays, rows with no entries — and each
        // array is one view of the value's own memory on a little-endian
        // target.
        #[test]
        fn the_wire_runs_of_a_value_are_its_serialization(
            rows in 0usize..5,
            cols in 0usize..9,
            nnz_per_row in 0usize..4,
            seed in any::<u64>(),
        ) {
            let sparse = if cols == 0 {
                SparseCSR::zeros(rows, cols)
            } else {
                builder::random_csr(rows, cols, nnz_per_row.min(cols), seed)
            };
            let dense = builder::random_dense(rows, cols, seed);
            let vector = builder::random_vector(rows * cols, seed);
            let le = usize::from(cfg!(target_endian = "little"));
            let (bytes, views) = runs_of(&sparse);
            prop_assert_eq!(&bytes[..], &sparse.to_bytes()[..]);
            prop_assert_eq!(views, 3 * le);
            let (bytes, views) = runs_of(&dense);
            prop_assert_eq!(&bytes[..], &dense.to_bytes()[..]);
            prop_assert_eq!(views, le);
            let (bytes, views) = runs_of(&vector);
            prop_assert_eq!(&bytes[..], &vector.to_bytes()[..]);
            prop_assert_eq!(views, le);
            let grid = Grid::partition(rows + 3, cols + 2, 2, 1);
            for data in [BlockData::Sparse(sparse), BlockData::Dense(dense)] {
                let (bytes, _) = runs_of(&data);
                prop_assert_eq!(&bytes[..], &data.to_bytes()[..]);
                let block = MatrixBlock { data, ..MatrixBlock::zeros(&grid, 1, 0, false) };
                let (bytes, _) = runs_of(&block);
                prop_assert_eq!(&bytes[..], &block.to_bytes()[..]);
            }
        }
    }

    #[test]
    fn a_type_without_runs_of_its_own_yields_its_serialization_as_one_run() {
        let value = (7u32, vec![1.5f64, -2.0]);
        let runs = Runs::of(&value);
        assert_eq!(runs.len(), 1);
        assert_eq!(&runs[0][..], &value.to_bytes()[..]);
    }

    fn dense_block(grid: &Grid, bi: usize, bj: usize) -> MatrixBlock {
        let mut b = MatrixBlock::zeros(grid, bi, bj, false);
        let (r0, r1, c0, c1) = b.global_range();
        if let BlockData::Dense(d) = &mut b.data {
            for (li, r) in (r0..r1).enumerate() {
                for (lj, c) in (c0..c1).enumerate() {
                    d.set(li, lj, (r * 100 + c) as f64);
                }
            }
        }
        b
    }

    #[test]
    fn zeros_matches_grid_geometry() {
        let g = Grid::partition(10, 7, 3, 2);
        let b = MatrixBlock::zeros(&g, 2, 1, false);
        assert_eq!(b.global_range(), (7, 10, 4, 7));
        assert_eq!((b.rows(), b.cols()), (3, 3));
        let s = MatrixBlock::zeros(&g, 0, 0, true);
        assert!(matches!(s.data, BlockData::Sparse(_)));
    }

    #[test]
    fn global_sub_region_translates_coordinates() {
        let g = Grid::partition(10, 10, 2, 2);
        let b = dense_block(&g, 1, 1); // covers rows 5..10, cols 5..10
        let r = b.sub_region_global(6, 8, 7, 9).to_dense();
        assert_eq!(r.get(0, 0), 607.0);
        assert_eq!(r.get(1, 1), 708.0);
    }

    #[test]
    fn block_serialization_round_trip() {
        let g = Grid::partition(6, 6, 2, 2);
        let b = dense_block(&g, 0, 1);
        let bytes = b.to_bytes();
        assert_eq!(bytes.len(), b.byte_len());
        assert_eq!(MatrixBlock::from_bytes(bytes), b);

        let s = MatrixBlock::zeros(&g, 1, 0, true);
        assert_eq!(MatrixBlock::from_bytes(s.to_bytes()), s);
    }

    #[test]
    fn zeros_reusing_takes_over_a_matching_dense_buffer() {
        let g = Grid::partition(8, 4, 2, 1);
        let mut spare = vec![Shared::new(dense_block(&g, 0, 0))];
        let held = match &spare[0].data {
            BlockData::Dense(d) => d.as_slice().as_ptr(),
            BlockData::Sparse(_) => unreachable!(),
        };
        let b = MatrixBlock::zeros_reusing(&g, 1, 0, false, &mut spare);
        assert_eq!(b, MatrixBlock::zeros(&g, 1, 0, false), "re-labelled and zeroed");
        let BlockData::Dense(d) = &b.data else { unreachable!() };
        assert_eq!(d.as_slice().as_ptr(), held, "in the buffer the spare block had");
        assert!(spare.is_empty());
        // Nothing that fits: other dimensions, or a sparse block wanted.
        let other = Grid::partition(8, 4, 4, 1);
        spare.push(Shared::new(dense_block(&g, 0, 0)));
        assert_eq!(
            MatrixBlock::zeros_reusing(&other, 2, 0, false, &mut spare),
            MatrixBlock::zeros(&other, 2, 0, false)
        );
        assert_eq!(
            MatrixBlock::zeros_reusing(&g, 0, 0, true, &mut spare),
            MatrixBlock::zeros(&g, 0, 0, true)
        );
        assert_eq!(spare.len(), 1);
        // Nor a block something else still holds: its buffer is not this
        // place's to reuse.
        let held = spare[0].held();
        assert_eq!(
            MatrixBlock::zeros_reusing(&g, 1, 0, false, &mut spare),
            MatrixBlock::zeros(&g, 1, 0, false)
        );
        assert_eq!(spare.len(), 1);
        drop(held);
    }

    #[test]
    fn a_region_is_pasted_straight_from_a_serialized_dense_block() {
        // Old grid: two block rows of 5; new grid: one block of all 10 rows.
        let old = Grid::partition(10, 4, 2, 1);
        let new = Grid::partition(10, 4, 1, 1);
        let mut dst = MatrixBlock::zeros(&new, 0, 0, false);
        for bi in 0..2 {
            let wire = dense_block(&old, bi, 0).to_bytes();
            let view = DenseBlockWire::parse(&wire).expect("a dense block");
            // Rows 3..5 of the first block, rows 5..9 of the second.
            let (r0, r1) = if bi == 0 { (3, 5) } else { (5, 9) };
            dst.paste_dense_wire(&view, r0, r1, 1, 3);
        }
        let d = dst.data.to_dense();
        for r in 0..10 {
            for c in 0..4 {
                let inside = (3..9).contains(&r) && (1..3).contains(&c);
                assert_eq!(d.get(r, c), if inside { (r * 100 + c) as f64 } else { 0.0 });
            }
        }
        // Sparse blocks and damaged bytes have no dense view.
        let wire = dense_block(&old, 0, 0).to_bytes();
        assert!(DenseBlockWire::parse(&MatrixBlock::zeros(&old, 0, 0, true).to_bytes()).is_none());
        assert!(DenseBlockWire::parse(&wire[..wire.len() - 1]).is_none());
        assert!(DenseBlockWire::parse(&wire[..40]).is_none());
    }

    #[test]
    fn block_set_find_and_metrics() {
        let g = Grid::partition(8, 8, 2, 2);
        let mut set = BlockSet::new();
        set.push(0, dense_block(&g, 0, 0));
        set.push(3, dense_block(&g, 1, 1));
        assert_eq!(set.len(), 2);
        assert!(set.find(0, 0).is_some());
        assert!(set.find(0, 1).is_none());
        assert!(set.payload_bytes() > 32 * 8);
        set.find_mut(1, 1).expect("present").data =
            BlockData::Dense(DenseMatrix::zeros(4, 4));
        assert_eq!(set.find(1, 1).expect("present").data.to_dense(), DenseMatrix::zeros(4, 4));
        assert_eq!(set.get(3), set.find(1, 1));
        assert!(set.get(1).is_none() && set.get_mut(1).is_none());
    }

    #[test]
    fn paste_kind_mismatch_panics() {
        let mut d = BlockData::Dense(DenseMatrix::zeros(2, 2));
        let s = BlockData::Sparse(SparseCSR::zeros(1, 1));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            d.paste(0, 0, &s);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn gemv_dispatches_by_kind() {
        let dense = BlockData::Dense(DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let sparse = BlockData::Sparse(SparseCSR::from_triplets(
            2,
            2,
            &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)],
        ));
        let x = [1.0, 1.0];
        let mut y1 = [0.0; 2];
        let mut y2 = [0.0; 2];
        dense.gemv(1.0, &x, 0.0, &mut y1);
        sparse.gemv(1.0, &x, 0.0, &mut y2);
        assert_eq!(y1, y2);
        let mut t1 = [0.0; 2];
        let mut t2 = [0.0; 2];
        dense.gemv_trans(1.0, &x, 0.0, &mut t1);
        sparse.gemv_trans(1.0, &x, 0.0, &mut t2);
        assert_eq!(t1, t2);
    }
}
