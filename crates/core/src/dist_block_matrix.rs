//! The block-distributed objects: the generic [`Dist`] and its two
//! instances, [`DistBlockMatrix`] — the workhorse of the paper's resilience
//! story — and [`DistVector`], an `n × 1` layout of vector segments.
//!
//! Unlike `DistDenseMatrix`/`DistSparseMatrix` (one block per place), a
//! `Dist` assigns **one or more blocks to each place** via a block-cyclic map
//! over a `row_places × col_places` place grid. Because places hold block
//! *sets*, the computation can be restored after a place failure by
//! **re-mapping the same blocks** among the survivors with no
//! repartitioning (shrink mode, Fig 1-b) — or the data grid can be
//! recalculated for even load (shrink-rebalance, Fig 1-c) at the price of a
//! sub-block overlap-copy restore. The re-map moves only what the failure
//! took: every survivor keeps its blocks, and each of the dead place's goes
//! to the survivor holding the fewest, a tie to the dead place's successor,
//! which holds its backup frame — not GML's block-cyclic re-map over the
//! survivors, which moves blocks between live places too. The layout, the
//! remake, the capture and the restore planner are written once, for every
//! payload ([`DistPayload`]): a matrix's blocks and a vector's segments are
//! laid out, remade, saved and restored by the same code.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use apgas::prelude::*;
use apgas::serial::Serial;
use apgas::sync::Mutex;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use gml_matrix::{
    BlockData, BlockSet, DenseBlockWire, DenseMatrix, Grid, MatrixBlock, Overlap, Shared, Vector,
};

use crate::collective::{each_place, leave_group};
use crate::dist_vector::DistVector;
use crate::dup_vector::{DupDenseMatrix, DupVector};
use crate::error::{GmlError, GmlResult};
use crate::snapshot::{modified, Snapshot, Snapshottable};
use crate::store::{Contents, Held, ResilientStore};

/// What a [`Dist`] holds per block: a matrix's [`MatrixBlock`] or a
/// vector's segment ([`Vector`]). A block is saved as its own wire form,
/// keyed by its block id; a restore cuts each overlap out of its stored
/// block at the holder and pastes it into the block of the current layout.
pub trait DistPayload: Serial + Contents + Clone + PartialEq + Send + Sync + 'static {
    /// A fetched stored block, as its holder keeps it while it serves the
    /// overlaps that read it.
    type Stored;
    /// One overlap on its way from its holder into a destination block.
    type Piece: Send + 'static;
    /// Block `(bi, bj)` of `grid`, zeroed — in the buffer of a block of
    /// `spare` where one fits.
    fn zeros(grid: &Grid, bi: usize, bj: usize, sparse: bool, spare: &mut Vec<Shared<Self>>)
        -> Self;
    /// The holder's form of a stored block's verified payload.
    fn stored(ctx: &Ctx, payload: Bytes) -> Self::Stored;
    /// The piece of `stored`, block `(ov.old_bi, ov.old_bj)` of `old`, that
    /// `ov` reads. An overlap that is all of a stored block is its only
    /// reader (the restored layout's blocks are disjoint), so it may take it.
    fn cut(stored: &mut Self::Stored, ov: &Overlap, old: &Grid) -> Self::Piece;
    /// Bytes `piece`, overlap `ov`, moves to its destination.
    fn wire_len(piece: &Self::Piece, ov: &Overlap) -> usize;
    /// Write `piece`, overlap `ov`, into this block, whose global origin is
    /// `origin`.
    fn paste(&mut self, piece: Self::Piece, ov: &Overlap, origin: (usize, usize));
}

/// A stored matrix block as its holder keeps it during a restore.
pub enum StoredBlock {
    /// A dense block stays the verified serialized payload it is: regions
    /// are copied out of its f64 image at the destination.
    Dense(Bytes),
    /// Anything else is decoded, once.
    Decoded(MatrixBlock),
}

/// One overlap of a stored matrix block on its way into a destination block.
pub enum Piece {
    /// The holder's dense payload, by refcount; the destination copies the
    /// overlap's column runs out of it — the one copy of this transfer.
    Dense(Bytes),
    /// The overlap cut out of a decoded (sparse) block at the holder; the
    /// whole block, moved, when the overlap is all of it.
    Cut(BlockData),
}

impl DistPayload for MatrixBlock {
    type Stored = StoredBlock;
    type Piece = Piece;

    fn zeros(grid: &Grid, bi: usize, bj: usize, sparse: bool, spare: &mut Vec<Shared<Self>>)
        -> Self {
        MatrixBlock::zeros_reusing(grid, bi, bj, sparse, spare)
    }

    fn stored(ctx: &Ctx, payload: Bytes) -> StoredBlock {
        match DenseBlockWire::parse(&payload) {
            Some(_) => StoredBlock::Dense(payload),
            None => StoredBlock::Decoded(ctx.decode(payload)),
        }
    }

    fn cut(stored: &mut StoredBlock, ov: &Overlap, _: &Grid) -> Piece {
        match stored {
            StoredBlock::Dense(payload) => Piece::Dense(payload.clone()),
            StoredBlock::Decoded(b) if b.global_range() == (ov.r0, ov.r1, ov.c0, ov.c1) => {
                let taken = BlockData::Dense(DenseMatrix::zeros(0, 0));
                Piece::Cut(std::mem::replace(&mut b.data, taken))
            }
            StoredBlock::Decoded(b) => Piece::Cut(b.sub_region_global(ov.r0, ov.r1, ov.c0, ov.c1)),
        }
    }

    fn wire_len(piece: &Piece, ov: &Overlap) -> usize {
        match piece {
            Piece::Dense(_) => 8 * (ov.r1 - ov.r0) * (ov.c1 - ov.c0),
            Piece::Cut(region) => region.payload_bytes(),
        }
    }

    /// A piece that is all of the block becomes its payload; a dense one is
    /// copied into the buffer the block already has.
    fn paste(&mut self, piece: Piece, ov: &Overlap, _: (usize, usize)) {
        let (rows, cols) = (self.rows(), self.cols());
        match piece {
            Piece::Dense(payload) => {
                let src = DenseBlockWire::parse(&payload).expect("parsed at the holder");
                if !matches!(self.data, BlockData::Dense(_)) {
                    self.data = BlockData::Dense(DenseMatrix::zeros(rows, cols));
                }
                self.paste_dense_wire(&src, ov.r0, ov.r1, ov.c0, ov.c1);
            }
            Piece::Cut(region) if (region.rows(), region.cols()) == (rows, cols) => {
                self.data = region;
            }
            Piece::Cut(region) => {
                self.data.paste(ov.r0 - self.row_offset, ov.c0 - self.col_offset, &region);
            }
        }
    }
}

/// A segment is stored as its wire form, a length and then the
/// little-endian f64s: an overlap is a slice of that image, by refcount,
/// decoded where it lands.
impl DistPayload for Vector {
    type Stored = Bytes;
    type Piece = Bytes;

    fn zeros(grid: &Grid, bi: usize, _: usize, _: bool, _: &mut Vec<Shared<Self>>) -> Self {
        let (lo, hi) = grid.row_range(bi);
        Vector::zeros(hi - lo)
    }

    fn stored(_: &Ctx, payload: Bytes) -> Bytes {
        payload
    }

    fn cut(stored: &mut Bytes, ov: &Overlap, old: &Grid) -> Bytes {
        let lo = old.row_range(ov.old_bi).0;
        stored.slice(8 + 8 * (ov.r0 - lo)..8 + 8 * (ov.r1 - lo))
    }

    fn wire_len(piece: &Bytes, _: &Overlap) -> usize {
        piece.len()
    }

    fn paste(&mut self, piece: Bytes, ov: &Overlap, (lo, _): (usize, usize)) {
        let run = &mut self.as_mut_slice()[ov.r0 - lo..ov.r1 - lo];
        for (x, le) in run.iter_mut().zip(piece.chunks_exact(8)) {
            *x = f64::from_le_bytes(le.try_into().expect("8-byte chunk"));
        }
    }
}

/// Block-cyclic block → group-index map over a `rp × cp` place grid:
/// block `(bi, bj)` goes to place-grid cell `(bi mod rp, bj mod cp)`.
fn block_cyclic(grid: &Grid, rp: usize, cp: usize) -> Vec<usize> {
    let mut dist = vec![0usize; grid.num_blocks()];
    for (bi, bj) in grid.block_iter() {
        dist[grid.block_id(bi, bj)] = (bi % rp) * cp + (bj % cp);
    }
    dist
}

/// Where a [`Dist`]'s blocks are: its grid, each block at a group index —
/// the block-cyclic map over a `row_places × col_places` place grid drawn
/// from `group` when it is made or re-cut, and what a shrink or a
/// replacement leaves of that map ([`Layout::remade`]) afterwards.
#[derive(Clone)]
pub(crate) struct Layout {
    pub(crate) grid: Grid,
    /// Block id → group index.
    pub(crate) dist: Arc<Vec<usize>>,
    col_places: usize,
    /// Blocks per place row and per place column, fixed at `make` time: a
    /// rebalance keeps this ratio when it re-cuts the grid.
    per_place: (usize, usize),
    pub(crate) group: PlaceGroup,
}

impl Layout {
    pub(crate) fn new(
        grid: Grid,
        (row_places, col_places): (usize, usize),
        per_place: (usize, usize),
        group: &PlaceGroup,
    ) -> Self {
        let dist = Arc::new(block_cyclic(&grid, row_places, col_places));
        Layout { grid, dist, col_places, per_place, group: group.clone() }
    }

    /// The layout over `new_places` (§IV-A2 / §V-B): with `rebalance` true
    /// (shrink-rebalance) the grid is recalculated for the new group size,
    /// preserving the blocks-per-place ratio, and laid out block-cyclically;
    /// with `rebalance` false (shrink, replace-redundant) the **data grid is
    /// kept** and so is every block whose place is in `new_places`
    /// ([`Layout::kept_on`]).
    fn remade(&self, new_places: &PlaceGroup, rebalance: bool) -> GmlResult<Layout> {
        let cp = self.col_places;
        if !new_places.len().is_multiple_of(cp) {
            return Err(GmlError::shape("new group size not divisible by col_places"));
        }
        let rp = new_places.len() / cp;
        if !rebalance {
            let dist = Arc::new(self.kept_on(new_places));
            return Ok(Layout { dist, group: new_places.clone(), ..self.clone() });
        }
        let (rows, cols) = (self.grid.rows(), self.grid.cols());
        let rb = (self.per_place.0 * rp).min(rows).max(rp);
        let grid = Grid::partition(rows, cols, rb, (self.per_place.1 * cp).max(cp));
        Ok(Layout::new(grid, (rp, cp), self.per_place, new_places))
    }

    /// The block → group-index map over `new_places` in which survivors keep
    /// their blocks. A block whose place is in `new_places` stays there. A
    /// lost block goes to the place that took its group index where one
    /// did (replace-redundant); else — a shrink — to the place holding the
    /// fewest blocks, a tie to the first of the survivors in ring order from
    /// the dead place's successor, which holds the lost blocks' backup
    /// frames, and then of the places new to the group. The lost blocks of
    /// one block row move together, so a row stays on one place (what an
    /// aligned vector needs). Unlike GML's block-cyclic remake, nothing
    /// moves between live places.
    fn kept_on(&self, new_places: &PlaceGroup) -> Vec<usize> {
        let old = &self.group;
        let at = |idx: usize| new_places.index_of(old.place(idx));
        let mut dist: Vec<_> = self.dist.iter().map(|&idx| at(idx)).collect();
        let mut load = vec![0usize; new_places.len()];
        dist.iter().flatten().for_each(|&idx| load[idx] += 1);
        let mut rows = HashMap::new();
        for (id, to) in dist.iter_mut().enumerate().filter(|(_, to)| to.is_none()) {
            let dead = self.dist[id];
            let row = *rows.entry((self.grid.block_pos(id).0, dead)).or_insert_with(|| {
                let fresh = |idx: &usize| !old.contains(new_places.place(*idx));
                if dead < new_places.len() && fresh(&dead) {
                    return dead;
                }
                let ring = (1..=old.len()).filter_map(|k| at((dead + k) % old.len()));
                let fresh = (0..new_places.len()).filter(fresh);
                ring.chain(fresh).min_by_key(|&idx| load[idx]).expect("a non-empty group")
            });
            load[row] += 1;
            *to = Some(row);
        }
        dist.into_iter().flatten().collect()
    }

    /// The `(group index, place)` pairs of the places that hold a block —
    /// the participants of a capture and of a vector's collectives.
    pub(crate) fn places(&self) -> Vec<(usize, Place)> {
        self.group.iter().enumerate().filter(|(idx, _)| self.dist.contains(idx)).collect()
    }

    /// True when both layouts are one block column cut at the same rows,
    /// with each block row on the same place.
    pub(crate) fn rows_aligned(&self, other: &Layout) -> bool {
        self.grid.col_blocks() == 1
            && other.grid.col_blocks() == 1
            && self.grid.row_splits() == other.grid.row_splits()
            && self.dist == other.dist
            && self.group == other.group
    }
}

/// The data loss of a block its layout places here but that is not here.
pub(crate) fn missing(id: usize) -> GmlError {
    GmlError::data_loss(format!("block {id} missing"))
}

/// Place `idx`'s blocks under `grid` and `dist`, in id order: each the block
/// of `old` (laid out over `old_grid`) at the same position over the same
/// range if there is one, else zeroed — in the buffer of one of the rest
/// where it fits and nothing else holds it. With the ids of the blocks kept
/// that a store still holds.
fn place_blocks<T: DistPayload>(
    (grid, dist, idx): (&Grid, &[usize], usize),
    (old_grid, mut old): (&Grid, Vec<(usize, Shared<T>)>),
    sparse: bool,
) -> (BlockSet<T>, Vec<usize>) {
    let mut kept = Vec::new();
    let mine = grid.block_iter().filter(|&(bi, bj)| dist[grid.block_id(bi, bj)] == idx);
    let slots: Vec<_> = mine
        .map(|(bi, bj)| {
            let id = grid.block_id(bi, bj);
            let range = grid.block_range(bi, bj);
            let same = |(at, _): &(usize, Shared<T>)| {
                old_grid.block_pos(*at) == (bi, bj) && old_grid.block_range(bi, bj) == range
            };
            let at = old.iter().position(same);
            kept.extend(at.filter(|&at| old[at].1.is_held()).map(|_| id));
            (bi, bj, id, at.map(|at| old.swap_remove(at).1))
        })
        .collect();
    let mut spare: Vec<_> = old.into_iter().map(|(_, b)| b).collect();
    let set = slots.into_iter().map(|(bi, bj, id, block)| {
        let zeros = |spare| Shared::new(T::zeros(grid, bi, bj, sparse, spare));
        (id, block.unwrap_or_else(|| zeros(&mut spare)))
    });
    (BlockSet::from_blocks(set.collect()), kept)
}

/// A grid of blocks of `T` distributed block-cyclically over a place grid.
pub struct Dist<T: DistPayload> {
    pub(crate) object_id: u64,
    pub(crate) layout: Layout,
    pub(crate) plh: PlaceLocalHandle<Mutex<BlockSet<T>>>,
    /// The blocks (ids in the grid) the last [`remake`](Self::remake) left,
    /// contents and all, on the place that held them while a store still
    /// held them — a read-only save's blocks, unwritten.
    kept: HashSet<usize>,
    /// The id, in the grid before the last remake, of a block it found
    /// written away from a value a store still held — a read-only save's
    /// block, changed.
    changed: Option<u64>,
    sparse: bool,
}

/// A matrix partitioned into a grid of blocks, distributed block-cyclically
/// over a place grid.
pub type DistBlockMatrix = Dist<MatrixBlock>;

impl<T: DistPayload> Dist<T> {
    /// Zeroed blocks laid out as `layout`.
    pub(crate) fn with_layout(ctx: &Ctx, layout: Layout, sparse: bool) -> GmlResult<Self> {
        let (grid, dist) = (layout.grid.clone(), Arc::clone(&layout.dist));
        let group = layout.group.clone();
        let plh = PlaceLocalHandle::make(ctx, &layout.group, move |ctx| {
            let idx = group.index_of(ctx.here()).expect("place in group");
            Mutex::new(place_blocks((&grid, &dist, idx), (&grid, Vec::new()), sparse).0)
        })?;
        let object_id = crate::fresh_object_id();
        Ok(Dist { object_id, layout, plh, kept: HashSet::new(), changed: None, sparse })
    }

    /// The block partitioning.
    pub fn grid(&self) -> &Grid {
        &self.layout.grid
    }

    /// The place group this object is laid out over.
    pub fn group(&self) -> &PlaceGroup {
        &self.layout.group
    }

    /// The copyable handle naming every place's block set, for building
    /// custom per-place collectives over them.
    pub fn handle(&self) -> PlaceLocalHandle<Mutex<BlockSet<T>>> {
        self.plh
    }

    /// Re-lay out over `new_places` (§IV-A2 / §V-B).
    ///
    /// * `rebalance = false` (shrink / replace-redundant): the **data grid
    ///   is kept**, and so is every block on a place of `new_places`. A lost
    ///   block goes to the place that took its group index, or under a
    ///   shrink to the survivor holding the fewest blocks — a tie to the
    ///   dead place's successor, which holds its backup frame. Restoring
    ///   afterwards rebuilds only the lost blocks, but load may be
    ///   imbalanced.
    /// * `rebalance = true` (shrink-rebalance): the grid is recalculated for
    ///   the new group size (preserving the blocks-per-place ratio), giving
    ///   even load at the cost of an overlap-copy restore.
    ///
    /// A place that holds a block the new layout leaves on it keeps it,
    /// contents and all; the others start zeroed, in the buffers of the
    /// blocks the place gives up where their dimensions fit and nothing else
    /// holds them. Call `restore_snapshot` to repopulate: it rewrites every
    /// block but a read-only snapshot's kept block that the store still
    /// holds as the entry's first replica. A block a place gives up that a
    /// store holds — a read-only save's — lives on only there, uncopied.
    /// Every old block, kept or given up, that a write copied away from a
    /// value a store still holds is compared with that value here: a
    /// read-only snapshot's restore refuses the object if one differs.
    pub fn remake(&mut self, ctx: &Ctx, new_places: &PlaceGroup, rebalance: bool) -> GmlResult<()> {
        let layout = self.layout.remade(new_places, rebalance)?;
        self.remake_onto(ctx, layout)
    }

    /// A remake's second step: move the blocks onto `layout`, a layout of
    /// the same dimensions — for an aligned vector, the row layout of its
    /// matrix — as [`remake`](Self::remake) says.
    pub(crate) fn remake_onto(&mut self, ctx: &Ctx, layout: Layout) -> GmlResult<()> {
        let (old_grid, grid) = (self.layout.grid.clone(), layout.grid.clone());
        if (old_grid.rows(), old_grid.cols()) != (grid.rows(), grid.cols()) {
            return Err(GmlError::shape("remake cannot change the dimensions"));
        }
        let plh = self.plh;
        leave_group(ctx, plh, &self.layout.group, &layout.group)?;
        let (dist, sparse) = (Arc::clone(&layout.dist), self.sparse);
        let found = each_place(ctx, layout.group.iter().enumerate(), move |ctx, idx| {
            let held = plh.local(ctx).ok();
            let take = |set: &Mutex<BlockSet<T>>| std::mem::take(&mut *set.lock()).into_blocks();
            let old = held.as_deref().map_or_else(Vec::new, take);
            let changed = old.iter().find(|(_, b)| b.changed_from_held()).map(|&(id, _)| id as u64);
            let (set, kept) = place_blocks((&grid, &dist, idx), (&old_grid, old), sparse);
            match held {
                Some(slot) => *slot.lock() = set,
                None => plh.set_local(ctx, Mutex::new(set)),
            }
            Ok((kept, changed))
        })?;
        self.kept = found.iter().flat_map(|(kept, _)| kept.iter().copied()).collect();
        self.changed = found.iter().find_map(|&(_, changed)| changed);
        self.layout = layout;
        Ok(())
    }
}

impl DistBlockMatrix {
    /// Create an all-zero `rows × cols` matrix cut into
    /// `row_blocks × col_blocks` blocks, distributed over a
    /// `row_places × col_places` place grid drawn from `group`
    /// (GML's `DistBlockMatrix.make(m, n, rowBs, colBs, rowPs, colPs)`).
    #[allow(clippy::too_many_arguments)]
    pub fn make(
        ctx: &Ctx,
        rows: usize,
        cols: usize,
        row_blocks: usize,
        col_blocks: usize,
        row_places: usize,
        col_places: usize,
        group: &PlaceGroup,
        sparse: bool,
    ) -> GmlResult<Self> {
        if row_places * col_places != group.len() {
            return Err(GmlError::shape(format!(
                "place grid {row_places}x{col_places} != group size {}",
                group.len()
            )));
        }
        if row_blocks < row_places || col_blocks < col_places {
            return Err(GmlError::shape("need at least one block per place in each dimension"));
        }
        let grid = Grid::partition(rows, cols, row_blocks, col_blocks);
        let per_place = (row_blocks.div_ceil(row_places), col_blocks.div_ceil(col_places));
        let layout = Layout::new(grid, (row_places, col_places), per_place, group);
        Self::with_layout(ctx, layout, sparse)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.layout.grid.rows()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.layout.grid.cols()
    }

    /// True for sparse payloads.
    pub fn is_sparse(&self) -> bool {
        self.sparse
    }

    /// The group index owning block `(bi, bj)`.
    pub fn block_owner(&self, bi: usize, bj: usize) -> usize {
        self.layout.dist[self.layout.grid.block_id(bi, bj)]
    }

    /// Number of blocks held by group index `idx` (load-balance metric).
    pub fn blocks_at(&self, idx: usize) -> usize {
        self.layout.dist.iter().filter(|&&o| o == idx).count()
    }

    /// Fill the matrix: `f(bi, bj, r0, c0, rows, cols)` produces each
    /// block's payload at its owning place.
    pub fn init_with<F>(&self, ctx: &Ctx, f: F) -> GmlResult<()>
    where
        F: Fn(usize, usize, usize, usize, usize, usize) -> BlockData
            + Send
            + Sync
            + Clone
            + 'static,
    {
        let plh = self.plh;
        each_place(ctx, self.group().iter().enumerate(), move |ctx, _| {
            let set = plh.local(ctx)?;
            let mut set = set.lock();
            for b in set.iter_mut() {
                let data = f(b.bi, b.bj, b.row_offset, b.col_offset, b.rows(), b.cols());
                if data.rows() != b.rows() || data.cols() != b.cols() {
                    return Err(GmlError::shape("init_with produced wrong block dims"));
                }
                b.data = data;
            }
            Ok(())
        })
        .map(drop)
    }

    /// The layout a `DistVector` must have to receive `self * x`: an
    /// `n × 1` grid cut at this matrix's block rows, each segment on the
    /// place of its block row's blocks.
    ///
    /// Requires `col_places == 1` (all blocks of a block row on one place).
    pub(crate) fn aligned_layout(&self) -> GmlResult<Layout> {
        let l = &self.layout;
        if l.col_places != 1 {
            return Err(GmlError::shape(
                "row-aligned vectors require col_places == 1 (row-block distribution)",
            ));
        }
        let grid = Grid::partition(self.rows(), 1, l.grid.row_blocks(), 1);
        let rows = (0..grid.row_blocks()).map(|bi| l.dist[l.grid.block_id(bi, 0)]).collect();
        let (col_places, per_place) = (1, (l.per_place.0, 1));
        Ok(Layout { grid, dist: Arc::new(rows), col_places, per_place, ..l.clone() })
    }

    /// Create a zero `DistVector` aligned with this matrix's block rows.
    pub fn make_aligned_vector(&self, ctx: &Ctx) -> GmlResult<DistVector> {
        DistVector::with_layout(ctx, self.aligned_layout()?, false)
    }

    /// True if `v` has the row-aligned layout of this matrix.
    pub fn is_aligned(&self, v: &DistVector) -> bool {
        self.aligned_layout().is_ok_and(|l| l.rows_aligned(&v.layout))
    }

    /// `y = self * x` where `x` is duplicated and `y` is row-aligned with
    /// `self` — entirely local to each place (the paper's `GP.mult(G, P)`).
    pub fn mult(&self, ctx: &Ctx, y: &DistVector, x: &DupVector) -> GmlResult<()> {
        if x.len() != self.cols() {
            return Err(GmlError::shape("mult: x length != matrix cols"));
        }
        if !self.is_aligned(y) {
            return Err(GmlError::shape("mult: output vector not row-aligned with matrix"));
        }
        let plh = self.plh;
        let ylh = y.plh;
        let xlh = x.handle();
        each_place(ctx, self.group().iter().enumerate(), move |ctx, _| {
            let set = plh.local(ctx)?;
            let set = set.lock();
            let ystore = ylh.local(ctx)?;
            let mut ystore = ystore.lock();
            let xv = xlh.local(ctx)?;
            let xv = xv.lock();
            // Zero my segments, then accumulate block products.
            ystore.iter_mut().for_each(|seg| seg.fill(0.0));
            for b in set.iter() {
                let seg = ystore.get_mut(b.bi).ok_or_else(|| missing(b.bi))?;
                let xs = xv.segment(b.col_offset, b.cols());
                b.data.gemv(1.0, xs, 1.0, seg.as_mut_slice());
            }
            Ok(())
        })
        .map(drop)
    }

    /// `out = selfᵀ * x` where `x` is row-aligned and `out` is duplicated:
    /// local transposed products, gather of per-place partials, deterministic
    /// sum at the root, broadcast — the allreduce at the heart of the
    /// LinReg/LogReg iterations.
    pub fn mult_trans(&self, ctx: &Ctx, out: &DupVector, x: &DistVector) -> GmlResult<()> {
        if out.len() != self.cols() {
            return Err(GmlError::shape("mult_trans: out length != matrix cols"));
        }
        if !self.is_aligned(x) {
            return Err(GmlError::shape("mult_trans: input vector not row-aligned with matrix"));
        }
        let plh = self.plh;
        let xlh = x.plh;
        let cols = self.cols();
        let partials = each_place(ctx, self.group().iter().enumerate(), move |ctx, _| {
            let set = plh.local(ctx)?;
            let set = set.lock();
            let xstore = xlh.local(ctx)?;
            let xstore = xstore.lock();
            let mut partial = Vector::zeros(cols);
            for b in set.iter() {
                let seg = xstore.get(b.bi).ok_or_else(|| missing(b.bi))?;
                let yslice = &mut partial.as_mut_slice()[b.col_offset..b.col_offset + b.cols()];
                b.data.gemv_trans(1.0, seg.as_slice(), 1.0, yslice);
            }
            let bytes = ctx.encode(&partial);
            ctx.record_bytes(bytes.len());
            Ok(bytes)
        })?;
        // Deterministic reduction at the driver: the partials come back in
        // group-index order.
        let mut sum = Vector::zeros(cols);
        for bytes in partials {
            ctx.record_bytes_received(bytes.len());
            sum.cell_add(&ctx.decode::<Vector>(bytes));
        }
        // Install at root, broadcast to the rest of the group.
        *out.local(ctx)?.lock() = Shared::new(sum);
        out.sync(ctx)
    }

    /// True when `other` has the same row partitioning **and** the same
    /// block-row → place mapping (the precondition for local row-wise
    /// combined operations such as [`Self::gram_into`]).
    pub fn row_aligned_with(&self, other: &DistBlockMatrix) -> bool {
        self.layout.rows_aligned(&other.layout)
    }

    /// `out = selfᵀ × other` (the distributed Gram-style product): both
    /// matrices are row-aligned tall matrices (`m×k1` and `m×k2`); each
    /// place computes its local `selfᵀ_p × other_p` partial and the
    /// `k1×k2` partials are reduced deterministically and broadcast —
    /// the `WᵀV` / `WᵀW` of GNMF.
    pub fn gram_into(
        &self,
        ctx: &Ctx,
        out: &DupDenseMatrix,
        other: &DistBlockMatrix,
    ) -> GmlResult<()> {
        if !self.row_aligned_with(other) {
            return Err(GmlError::shape("gram_into requires row-aligned matrices"));
        }
        if out.rows() != self.cols() || out.cols() != other.cols() {
            return Err(GmlError::shape("gram_into: output dims must be selfᵀ×other"));
        }
        let a = self.plh;
        let b = other.plh;
        // `gram_into(ctx, out, self)` computes the Gram matrix selfᵀ×self;
        // both handles then name the same mutex, which must be locked once.
        let same = self.object_id == other.object_id;
        let (k1, k2) = (self.cols(), other.cols());
        let partials = each_place(ctx, self.group().iter().enumerate(), move |ctx, _| {
            let sa = a.local(ctx)?;
            let sa = sa.lock();
            let mut acc = DenseMatrix::zeros(k1, k2);
            if same {
                for ba in sa.iter() {
                    gram_block_acc(&ba.data, &ba.data, &mut acc)?;
                }
            } else {
                let sb = b.local(ctx)?;
                let sb = sb.lock();
                for ba in sa.iter() {
                    let bb = sb.find(ba.bi, ba.bj).ok_or_else(|| {
                        GmlError::data_loss(format!("block ({},{}) missing", ba.bi, ba.bj))
                    })?;
                    gram_block_acc(&ba.data, &bb.data, &mut acc)?;
                }
            }
            let bytes = ctx.encode(&acc);
            ctx.record_bytes(bytes.len());
            Ok(bytes)
        })?;
        // Summed in group-index order, as the partials come back.
        let mut sum = DenseMatrix::zeros(k1, k2);
        for bytes in partials {
            ctx.record_bytes_received(bytes.len());
            sum.cell_add(&ctx.decode::<DenseMatrix>(bytes));
        }
        *out.local(ctx)?.lock() = Shared::new(sum);
        out.sync(ctx)
    }

    /// `out = self × f(D)` where `D` is a duplicated dense matrix and
    /// `f(D)` is `D`, `Dᵀ` or `D·Dᵀ` per `operand`. Entirely local to each
    /// place (the duplicated operand is available everywhere). Each product
    /// is written into the output block's own buffer; a block of another
    /// shape is replaced. GNMF's W update no longer uses it
    /// ([`Self::nmf_update`] forms its two products a panel at a time); its
    /// only caller outside the tests is the benchmark's replay of the old
    /// GNMF step.
    pub fn mult_dup_into(
        &self,
        ctx: &Ctx,
        out: &DistBlockMatrix,
        dup: &DupDenseMatrix,
        operand: DupOperand,
    ) -> GmlResult<()> {
        let eff_cols = match operand {
            DupOperand::Plain => dup.cols(),
            DupOperand::Transpose => dup.rows(),
            DupOperand::Gram => dup.rows(),
        };
        let eff_rows = match operand {
            DupOperand::Plain => dup.rows(),
            DupOperand::Transpose => dup.cols(),
            DupOperand::Gram => dup.rows(),
        };
        if self.cols() != eff_rows {
            return Err(GmlError::shape("mult_dup_into: inner dimension mismatch"));
        }
        if !self.row_aligned_with(out) || out.cols() != eff_cols || out.is_sparse() {
            return Err(GmlError::shape(
                "mult_dup_into: output must be dense, row-aligned, with matching cols",
            ));
        }
        if out.object_id == self.object_id {
            return Err(GmlError::shape("mult_dup_into: output must be a distinct matrix"));
        }
        let a = self.plh;
        let o = out.plh;
        let d = dup.handle();
        each_place(ctx, self.group().iter().enumerate(), move |ctx, _| {
            // Materialise the effective operand once per place.
            let local = d.local(ctx)?;
            let local = local.lock();
            let rhs: DenseMatrix = match operand {
                DupOperand::Plain => local.clone(),
                DupOperand::Transpose => local.transpose(),
                DupOperand::Gram => {
                    let t = local.transpose();
                    let mut g = DenseMatrix::zeros(local.rows(), local.rows());
                    local.gemm(1.0, &t, 0.0, &mut g);
                    g
                }
            };
            drop(local);
            let sa = a.local(ctx)?;
            let sa = sa.lock();
            let so = o.local(ctx)?;
            let mut so = so.lock();
            for ba in sa.iter() {
                let slot = so.find_mut(ba.bi, ba.bj).ok_or_else(|| {
                    GmlError::data_loss(format!("output block ({},{}) missing", ba.bi, ba.bj))
                })?;
                // The product overwrites the output block where it stands;
                // only a block of another shape gets a new buffer.
                let shape = (ba.rows(), rhs.cols());
                if !matches!(&slot.data, BlockData::Dense(c) if (c.rows(), c.cols()) == shape) {
                    slot.data = BlockData::Dense(DenseMatrix::zeros(shape.0, shape.1));
                }
                let BlockData::Dense(c) = &mut slot.data else { unreachable!("made dense above") };
                match &ba.data {
                    BlockData::Dense(m) => m.gemm(1.0, &rhs, 0.0, c),
                    BlockData::Sparse(s) => s.spmm_into(&rhs, c),
                }
            }
            Ok(())
        })
        .map(drop)
    }

    /// GNMF's W update, `self ∘= (V·Hᵀ) ⊘ (self·(H·Hᵀ) + ε)`, for a dense
    /// `self` (m×k) row-aligned with `v` (m×n) and a duplicated `h` (k×n),
    /// in one place-local pass. Each place forms `Hᵀ` and `G = H·Hᵀ` once;
    /// then each [`ROW_PANEL`]-row panel of each local block gets its rows
    /// of `V·Hᵀ` and `self·G` in panel-sized scratch and is updated where it
    /// lies, each element multiplied, then divided by its guarded
    /// denominator. A row of either product depends on that row alone, so
    /// the result is, bit for bit, that of forming both m×k products first
    /// ([`Self::mult_dup_into`]) and combining them ([`Self::zip_blocks`]),
    /// without the two m×k matrices and in one finish instead of four.
    pub fn nmf_update(
        &self,
        ctx: &Ctx,
        v: &DistBlockMatrix,
        h: &DupDenseMatrix,
        eps: f64,
    ) -> GmlResult<()> {
        if self.is_sparse() {
            return Err(GmlError::shape("nmf_update: the updated matrix must be dense"));
        }
        if !self.row_aligned_with(v) || v.cols() != h.cols() || self.cols() != h.rows() {
            return Err(GmlError::shape(
                "nmf_update: self (m×k) and v (m×n) must be row-aligned, h k×n",
            ));
        }
        if self.object_id == v.object_id {
            return Err(GmlError::shape("nmf_update: v must be a distinct matrix"));
        }
        let (w, vh, d) = (self.plh, v.plh, h.handle());
        each_place(ctx, self.group().iter().enumerate(), move |ctx, _| {
            let local = d.local(ctx)?;
            let local = local.lock();
            let ht = local.transpose();
            let mut g = DenseMatrix::zeros(local.rows(), local.rows());
            local.gemm(1.0, &ht, 0.0, &mut g);
            drop(local);
            let k = g.cols();
            let sv = vh.local(ctx)?;
            let sv = sv.lock();
            let sw = w.local(ctx)?;
            let mut sw = sw.lock();
            for bw in sw.iter_mut() {
                let bv = sv.find(bw.bi, bw.bj).ok_or_else(|| {
                    GmlError::data_loss(format!("block ({},{}) missing", bw.bi, bw.bj))
                })?;
                let BlockData::Dense(x) = &mut bw.data else {
                    return Err(GmlError::shape("nmf_update: the updated matrix must be dense"));
                };
                let rows = x.rows();
                // The panel's rows of W, V·Hᵀ and W·G: made once per block
                // (and once more for a short last panel), each product
                // overwriting what the panel before left.
                let scratch = |height| [(); 3].map(|_| DenseMatrix::zeros(height, k));
                let [mut wp, mut num, mut den] = scratch(ROW_PANEL.min(rows));
                for r0 in (0..rows).step_by(ROW_PANEL) {
                    let r1 = (r0 + ROW_PANEL).min(rows);
                    if r1 - r0 != wp.rows() {
                        [wp, num, den] = scratch(r1 - r0);
                    }
                    match &bv.data {
                        BlockData::Dense(m) => {
                            m.sub_matrix(r0, r1, 0, m.cols()).gemm(1.0, &ht, 0.0, &mut num)
                        }
                        BlockData::Sparse(s) => s.spmm_rows_into(r0..r1, &ht, &mut num),
                    }
                    for j in 0..k {
                        wp.col_mut(j).copy_from_slice(&x.col(j)[r0..r1]);
                    }
                    wp.gemm(1.0, &g, 0.0, &mut den);
                    for j in 0..k {
                        let col = &mut x.col_mut(j)[r0..r1];
                        for ((a, n), d) in col.iter_mut().zip(num.col(j)).zip(den.col(j)) {
                            *a *= *n;
                            *a /= *d + eps;
                        }
                    }
                }
            }
            Ok(())
        })
        .map(drop)
    }

    /// Element-wise combine with a row-aligned dense matrix:
    /// `f(&mut self_block, &other_block)` at every place. Its only caller
    /// outside the tests is the benchmark's replay of the old GNMF step.
    pub fn zip_blocks<F>(&self, ctx: &Ctx, other: &DistBlockMatrix, f: F) -> GmlResult<()>
    where
        F: Fn(&mut DenseMatrix, &DenseMatrix) + Send + Sync + Clone + 'static,
    {
        if !self.row_aligned_with(other) || self.cols() != other.cols() {
            return Err(GmlError::shape("zip_blocks requires row-aligned equal-shape matrices"));
        }
        if self.is_sparse() || other.is_sparse() {
            return Err(GmlError::shape("zip_blocks is dense-only"));
        }
        if self.object_id == other.object_id {
            return Err(GmlError::shape("zip_blocks: operands must be distinct matrices"));
        }
        let a = self.plh;
        let b = other.plh;
        each_place(ctx, self.group().iter().enumerate(), move |ctx, _| {
            let sa = a.local(ctx)?;
            let mut sa = sa.lock();
            let sb = b.local(ctx)?;
            let sb = sb.lock();
            for ba in sa.iter_mut() {
                let bb = sb.find(ba.bi, ba.bj).ok_or_else(|| {
                    GmlError::data_loss(format!("block ({},{}) missing", ba.bi, ba.bj))
                })?;
                match (&mut ba.data, &bb.data) {
                    (BlockData::Dense(x), BlockData::Dense(y)) => f(x, y),
                    _ => return Err(GmlError::shape("zip_blocks dense-only")),
                }
            }
            Ok(())
        })
        .map(drop)
    }

    /// `self *= alpha` applied block-wise at every place.
    pub fn scale(&self, ctx: &Ctx, alpha: f64) -> GmlResult<()> {
        let plh = self.plh;
        each_place(ctx, self.group().iter().enumerate(), move |ctx, _| {
            let set = plh.local(ctx)?;
            let mut set = set.lock();
            for b in set.iter_mut() {
                match &mut b.data {
                    BlockData::Dense(d) => {
                        d.scale(alpha);
                    }
                    BlockData::Sparse(s) => {
                        s.scale(alpha);
                    }
                }
            }
            Ok(())
        })
        .map(drop)
    }

    /// Squared Frobenius norm, reduced deterministically in block-id order.
    pub fn frobenius_norm_sq(&self, ctx: &Ctx) -> GmlResult<f64> {
        let plh = self.plh;
        let gathered = each_place(ctx, self.group().iter().enumerate(), move |ctx, _| {
            let set = plh.local(ctx)?;
            let set = set.lock();
            let mut local = Vec::with_capacity(set.len());
            for (id, b) in set.entries() {
                let sq = match &b.data {
                    BlockData::Dense(d) => d.as_slice().iter().map(|v| v * v).sum::<f64>(),
                    BlockData::Sparse(s) => s.iter().map(|(_, _, v)| v * v).sum::<f64>(),
                };
                local.push((id, sq));
            }
            ctx.record_bytes(16 * local.len());
            ctx.record_bytes_received(16 * local.len());
            Ok(local)
        })?;
        let mut partials: Vec<(usize, f64)> = gathered.into_iter().flatten().collect();
        partials.sort_unstable_by_key(|(id, _)| *id);
        Ok(partials.into_iter().map(|(_, v)| v).sum())
    }

    /// Gather the full matrix as dense at the caller (testing/verification;
    /// O(rows*cols) memory).
    pub fn gather_dense(&self, ctx: &Ctx) -> GmlResult<DenseMatrix> {
        let plh = self.plh;
        let pieces = each_place(ctx, self.group().iter().enumerate(), move |ctx, _| {
            let set = plh.local(ctx)?;
            let set = set.lock();
            let mut local = Vec::with_capacity(set.len());
            for b in set.iter() {
                let bytes = ctx.encode(b);
                ctx.record_bytes(bytes.len());
                local.push(bytes);
            }
            Ok(local)
        })?;
        let mut out = DenseMatrix::zeros(self.rows(), self.cols());
        for bytes in pieces.into_iter().flatten() {
            ctx.record_bytes_received(bytes.len());
            let b: MatrixBlock = ctx.decode(bytes);
            out.paste(b.row_offset, b.col_offset, &b.data.to_dense());
        }
        Ok(out)
    }

}

/// Rows of the panel [`DistBlockMatrix::nmf_update`] forms its products
/// in, and GNMF's residual too: 256 rows of rank 32 are 64 KiB of scratch.
pub const ROW_PANEL: usize = 256;

/// How a duplicated dense operand participates in
/// [`DistBlockMatrix::mult_dup_into`] (whose only caller outside the tests
/// is the benchmark's replay of the old GNMF step).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DupOperand {
    /// Multiply by `D`.
    Plain,
    /// Multiply by `Dᵀ`.
    Transpose,
    /// Multiply by `D·Dᵀ` (e.g. GNMF's `H·Hᵀ`).
    Gram,
}

/// `acc += aᵀ × b` for one block pair, dispatching on payload kinds.
fn gram_block_acc(a: &BlockData, b: &BlockData, acc: &mut DenseMatrix) -> GmlResult<()> {
    match (a, b) {
        (BlockData::Dense(x), BlockData::Dense(y)) => {
            x.gemm_tn_acc(y, acc);
            Ok(())
        }
        (BlockData::Sparse(s), BlockData::Dense(y)) => {
            // sᵀ × y directly (scatter over the non-zeros).
            acc.cell_add(&s.trans_spmm(y));
            Ok(())
        }
        (BlockData::Dense(x), BlockData::Sparse(s)) => {
            // xᵀ × s = (sᵀ × x)ᵀ.
            acc.cell_add(&s.trans_spmm(x).transpose());
            Ok(())
        }
        (BlockData::Sparse(_), BlockData::Sparse(_)) => {
            Err(GmlError::shape("gram of two sparse matrices is unsupported"))
        }
    }
}

/// What one block of the restored layout needs from the stored blocks **one**
/// holder has: the unit of transfer of a restore. Under an unchanged grid
/// that is the one stored block it was saved as; under a re-cut grid, the
/// overlaps with each stored block it straddles.
struct RestoreRequest {
    dest: Place,
    /// The block's id, under an unchanged grid its entry's key.
    id: usize,
    /// The block's global origin.
    origin: (usize, usize),
    parts: Vec<Overlap>,
}

/// The holder's side of a restore, running at the holder: serve every
/// request in `requests` from this place's replicas. Each stored block is
/// fetched — digest-verified, and kept in its holder's form
/// ([`DistPayload::stored`]) — **once**, however many requests and overlaps
/// read it; a request's pieces go to their destination block in one
/// transfer (none when that block is here). With `rehold` each destination
/// block is its read-only entry's block again, and the store holds it there
/// as the entry's first replica.
fn serve_restore<T: DistPayload>(
    ctx: &Ctx,
    store: &ResilientStore,
    snap: &Snapshot,
    old_grid: &Grid,
    rehold: bool,
    plh: PlaceLocalHandle<Mutex<BlockSet<T>>>,
    requests: &[RestoreRequest],
) -> GmlResult<()> {
    let mut stored: HashMap<u64, T::Stored> = HashMap::new();
    for req in requests {
        let mut pieces = Vec::with_capacity(req.parts.len());
        for ov in &req.parts {
            let key = old_grid.block_id(ov.old_bi, ov.old_bj) as u64;
            let held = match stored.entry(key) {
                Entry::Occupied(slot) => slot.into_mut(),
                Entry::Vacant(slot) => slot.insert(T::stored(ctx, snap.fetch(ctx, store, key)?)),
            };
            pieces.push((*ov, T::cut(held, ov, old_grid)));
        }
        let (id, origin) = (req.id, req.origin);
        let remote = req.dest != ctx.here();
        let shipped: usize = pieces.iter().map(|(ov, piece)| T::wire_len(piece, ov)).sum();
        let (store, snap) = (store.clone(), snap.clone());
        let paste = move |ctx: &Ctx| -> GmlResult<()> {
            let set = plh.local(ctx)?;
            let mut set = set.lock();
            let block = set
                .get_mut(id)
                .ok_or_else(|| GmlError::data_loss(format!("block {id} not allocated")))?;
            for (ov, piece) in pieces {
                block.paste(piece, &ov, origin);
            }
            if remote {
                ctx.record_bytes_received(shipped);
            }
            match set.shared(id).filter(|_| rehold) {
                Some(block) => store.rehold(ctx, &snap, id as u64, block),
                None => Ok(()),
            }
        };
        if remote {
            ctx.record_bytes(shipped);
            ctx.at(req.dest, paste)??;
        } else {
            paste(ctx)?;
        }
    }
    Ok(())
}

impl<T: DistPayload> Snapshottable for Dist<T> {
    fn object_id(&self) -> u64 {
        self.object_id
    }

    fn make_snapshot(&self, ctx: &Ctx, store: &ResilientStore) -> GmlResult<Snapshot> {
        let _span = ctx.trace_span(SpanKind::SnapshotObj, self.object_id);
        let snap_id = store.fresh_snap_id();
        let (plh, id) = (self.plh, self.object_id);
        let (group, store) = (self.layout.group.clone(), store.clone());
        // A place that holds no block has nothing to capture.
        let entries = each_place(ctx, self.layout.places(), move |ctx, _| {
            // Capture: hold every block under one short lock, then hand the
            // whole batch to the store — one backup transfer for the place
            // instead of one round trip per block.
            let parts: Vec<(u64, Held)> = {
                let set = plh.local(ctx)?;
                let set = set.lock();
                set.entries().map(|(key, b)| (key as u64, store.part(id, b))).collect()
            };
            store.save_local_parts(ctx, snap_id, &group, parts)
        })?;
        let mut desc = BytesMut::new();
        self.layout.grid.write(&mut desc);
        desc.put_u8(self.sparse as u8);
        let (entries, group) = (entries.into_iter().flatten(), &self.layout.group);
        Ok(Snapshot::gathered(ctx, snap_id, self.object_id, group, desc.freeze(), entries))
    }

    fn restore_snapshot(
        &mut self,
        ctx: &Ctx,
        store: &ResilientStore,
        snapshot: &Snapshot,
    ) -> GmlResult<()> {
        let _span = ctx.trace_span(SpanKind::RestoreObj, self.object_id);
        let mut desc = snapshot.descriptor.clone();
        let old_grid = Grid::read(&mut desc);
        let was_sparse = desc.get_u8() != 0;
        let grid = &self.layout.grid;
        if (old_grid.rows(), old_grid.cols()) != (grid.rows(), grid.cols()) {
            return Err(GmlError::shape("snapshot dims mismatch"));
        }
        if was_sparse != self.sparse {
            return Err(GmlError::shape("snapshot payload kind mismatch"));
        }
        if let Some(key) = self.changed.filter(|_| snapshot.read_only) {
            return Err(modified(self.object_id, key));
        }
        // Every block of the current layout is assembled, in the zeroed
        // buffer `remake` gave it, from the stored blocks it overlaps: the
        // block it was saved as when the grid is unchanged (block-by-block
        // restore), sub-regions of several when it was re-cut (overlap-copy
        // restore). Under an unchanged grid a read-only snapshot's block
        // `remake` kept is left as it is where the store still holds it as
        // the entry's first replica, and restored where a write copied it
        // away (without changing it: `remake` found none changed); a block
        // rebuilt is held again. Planned here, per holder; carried out by
        // the holders.
        let read_only = old_grid == *grid && snapshot.read_only;
        let mut plan: BTreeMap<Place, Vec<RestoreRequest>> = BTreeMap::new();
        for (bi, bj) in grid.block_iter() {
            let id = grid.block_id(bi, bj);
            let dest = self.layout.group.place(self.layout.dist[id]);
            if read_only && self.kept.contains(&id) {
                continue;
            }
            let mut by_holder: BTreeMap<Place, Vec<Overlap>> = BTreeMap::new();
            for ov in grid.overlaps(&old_grid, bi, bj) {
                let key = old_grid.block_id(ov.old_bi, ov.old_bj) as u64;
                let loc = snapshot.entry(key)?;
                // The destination's own replica if it has one, else the
                // first live frame, else a read-only entry's block at its
                // owner.
                let any = |p: Place| (p == loc.owner || p == loc.backup) && ctx.is_alive(p);
                let stored = |p: Place| any(p) && (p == loc.backup || !snapshot.read_only);
                let holder = Some(dest)
                    .filter(|&p| any(p))
                    .or_else(|| [loc.owner, loc.backup].into_iter().find(|&p| stored(p)))
                    .or_else(|| Some(loc.owner).filter(|&p| any(p)))
                    .ok_or_else(|| GmlError::data_loss(format!("block {key}: no live replica")))?;
                by_holder.entry(holder).or_default().push(ov);
            }
            let (r0, _, c0, _) = grid.block_range(bi, bj);
            for (holder, parts) in by_holder {
                let request = RestoreRequest { dest, id, origin: (r0, c0), parts };
                plan.entry(holder).or_default().push(request);
            }
        }
        let (holders, requests): (Vec<Place>, Vec<Vec<RestoreRequest>>) = plan.into_iter().unzip();
        let (plh, store, snap) = (self.plh, store.clone(), snapshot.clone());
        each_place(ctx, holders.into_iter().enumerate(), move |ctx, i| {
            serve_restore(ctx, &store, &snap, &old_grid, read_only, plh, &requests[i])
        })
        .map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apgas::runtime::{Runtime, RuntimeConfig};
    use gml_matrix::builder;

    fn run(places: usize, f: impl FnOnce(&Ctx) + Send + 'static) {
        Runtime::run(RuntimeConfig::new(places).resilient(true), f).unwrap();
    }

    /// Deterministic dense block fill derived from global coordinates.
    fn coord_fill(
        _bi: usize,
        _bj: usize,
        r0: usize,
        c0: usize,
        rows: usize,
        cols: usize,
    ) -> BlockData {
        let mut d = DenseMatrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                d.set(i, j, ((r0 + i) * 1000 + (c0 + j)) as f64);
            }
        }
        BlockData::Dense(d)
    }

    /// The full dense matrix coord_fill describes.
    fn coord_reference(rows: usize, cols: usize) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                d.set(i, j, (i * 1000 + j) as f64);
            }
        }
        d
    }

    #[test]
    fn block_cyclic_mapping() {
        let g = Grid::partition(8, 8, 4, 1);
        let dist = block_cyclic(&g, 2, 1);
        assert_eq!(dist, vec![0, 1, 0, 1]);
        let g2 = Grid::partition(8, 8, 2, 2);
        let dist2 = block_cyclic(&g2, 2, 2);
        // (bi,bj) -> (bi%2)*2 + (bj%2)
        assert_eq!(dist2, vec![0, 1, 2, 3]);
    }

    #[test]
    fn make_distributes_blocks_evenly() {
        run(4, |ctx| {
            let g = ctx.world();
            let m = DistBlockMatrix::make(ctx, 16, 8, 8, 1, 4, 1, &g, false).unwrap();
            for idx in 0..4 {
                assert_eq!(m.blocks_at(idx), 2);
            }
            assert_eq!(m.block_owner(5, 0), 1);
        });
    }

    #[test]
    fn init_and_gather() {
        run(3, |ctx| {
            let g = ctx.world();
            let m = DistBlockMatrix::make(ctx, 9, 5, 3, 1, 3, 1, &g, false).unwrap();
            m.init_with(ctx, coord_fill).unwrap();
            assert_eq!(m.gather_dense(ctx).unwrap(), coord_reference(9, 5));
        });
    }

    #[test]
    fn mult_matches_single_place() {
        run(3, |ctx| {
            let g = ctx.world();
            let m = DistBlockMatrix::make(ctx, 12, 6, 6, 1, 3, 1, &g, false).unwrap();
            m.init_with(ctx, |bi, bj, r0, c0, r, c| {
                let _ = (bi, bj);
                let d = builder::random_dense(r, c, (r0 * 131 + c0) as u64);
                BlockData::Dense(d)
            })
            .unwrap();
            let x = DupVector::make(ctx, 6, &g).unwrap();
            x.init(ctx, |i| (i as f64 + 1.0) * 0.25).unwrap();
            let y = m.make_aligned_vector(ctx).unwrap();
            m.mult(ctx, &y, &x).unwrap();
            let got = y.gather(ctx).unwrap();
            // Single-place reference.
            let full = m.gather_dense(ctx).unwrap();
            let xv = x.read_local(ctx).unwrap();
            let expect = full.mult_vec(&xv);
            assert!(got.max_abs_diff(&expect) < 1e-10);
        });
    }

    #[test]
    fn mult_trans_matches_single_place() {
        run(4, |ctx| {
            let g = ctx.world();
            let m = DistBlockMatrix::make(ctx, 16, 5, 4, 1, 4, 1, &g, false).unwrap();
            m.init_with(ctx, coord_fill).unwrap();
            let x = m.make_aligned_vector(ctx).unwrap();
            x.init(ctx, |i| 1.0 / (i as f64 + 1.0)).unwrap();
            let out = DupVector::make(ctx, 5, &g).unwrap();
            m.mult_trans(ctx, &out, &x).unwrap();
            let full = m.gather_dense(ctx).unwrap();
            let xv = x.gather(ctx).unwrap();
            let expect = full.mult_trans_vec(&xv);
            let got = out.read_local(ctx).unwrap();
            assert!(got.max_abs_diff(&expect) < 1e-9);
            // And every duplicate copy agrees after the broadcast.
            let plh = out.handle();
            for p in g.iter() {
                let vv = ctx.at(p, move |ctx| plh.local(ctx).unwrap().lock().clone()).unwrap();
                assert_eq!(vv, got);
            }
        });
    }

    #[test]
    fn sparse_mult_matches_dense() {
        run(3, |ctx| {
            let g = ctx.world();
            let m = DistBlockMatrix::make(ctx, 12, 12, 3, 1, 3, 1, &g, true).unwrap();
            m.init_with(ctx, |_, _, r0, c0, r, c| {
                BlockData::Sparse(builder::random_csr(r, c, 3, (r0 * 7 + c0 + 1) as u64))
            })
            .unwrap();
            let x = DupVector::make(ctx, 12, &g).unwrap();
            x.init(ctx, |i| i as f64 - 6.0).unwrap();
            let y = m.make_aligned_vector(ctx).unwrap();
            m.mult(ctx, &y, &x).unwrap();
            let expect = m.gather_dense(ctx).unwrap().mult_vec(&x.read_local(ctx).unwrap());
            assert!(y.gather(ctx).unwrap().max_abs_diff(&expect) < 1e-10);
        });
    }

    #[test]
    fn gram_into_matches_single_place() {
        run(3, |ctx| {
            let g = ctx.world();
            let w = DistBlockMatrix::make(ctx, 12, 4, 3, 1, 3, 1, &g, false).unwrap();
            w.init_with(ctx, |_, _, r0, c0, r, c| {
                BlockData::Dense(builder::random_dense(r, c, (r0 * 13 + c0) as u64))
            })
            .unwrap();
            let v = DistBlockMatrix::make(ctx, 12, 6, 3, 1, 3, 1, &g, false).unwrap();
            v.init_with(ctx, |_, _, r0, c0, r, c| {
                BlockData::Dense(builder::random_dense(r, c, (r0 * 29 + c0 + 5) as u64))
            })
            .unwrap();
            let out = crate::DupDenseMatrix::make(ctx, 4, 6, &g).unwrap();
            w.gram_into(ctx, &out, &v).unwrap();
            // Reference: gathered Wᵀ × gathered V.
            let wd = w.gather_dense(ctx).unwrap();
            let vd = v.gather_dense(ctx).unwrap();
            let mut expect = DenseMatrix::zeros(4, 6);
            wd.transpose().gemm(1.0, &vd, 0.0, &mut expect);
            let got = out.local(ctx).unwrap().lock().clone();
            assert!(got.max_abs_diff(&expect) < 1e-9);
        });
    }

    #[test]
    fn gram_into_dense_by_sparse() {
        run(3, |ctx| {
            let g = ctx.world();
            let w = DistBlockMatrix::make(ctx, 9, 3, 3, 1, 3, 1, &g, false).unwrap();
            w.init_with(ctx, |_, _, r0, c0, r, c| {
                BlockData::Dense(builder::random_dense(r, c, (r0 + c0) as u64))
            })
            .unwrap();
            let v = DistBlockMatrix::make(ctx, 9, 5, 3, 1, 3, 1, &g, true).unwrap();
            v.init_with(ctx, |_, _, r0, c0, r, c| {
                BlockData::Sparse(builder::random_csr(r, c, 2, (r0 * 3 + c0) as u64))
            })
            .unwrap();
            let out = crate::DupDenseMatrix::make(ctx, 3, 5, &g).unwrap();
            w.gram_into(ctx, &out, &v).unwrap();
            let mut expect = DenseMatrix::zeros(3, 5);
            w.gather_dense(ctx)
                .unwrap()
                .transpose()
                .gemm(1.0, &v.gather_dense(ctx).unwrap(), 0.0, &mut expect);
            let got = out.local(ctx).unwrap().lock().clone();
            assert!(got.max_abs_diff(&expect) < 1e-9);
        });
    }

    #[test]
    fn mult_dup_into_all_operands() {
        run(2, |ctx| {
            let g = ctx.world();
            let v = DistBlockMatrix::make(ctx, 8, 4, 2, 1, 2, 1, &g, true).unwrap();
            v.init_with(ctx, |_, _, r0, c0, r, c| {
                BlockData::Sparse(builder::random_csr(r, c, 2, (r0 * 5 + c0 + 1) as u64))
            })
            .unwrap();
            let vd = v.gather_dense(ctx).unwrap();
            // Plain: V(8x4) × D(4x3).
            let d = crate::DupDenseMatrix::make(ctx, 4, 3, &g).unwrap();
            d.init(ctx, |i, j| (i + 2 * j) as f64 * 0.5).unwrap();
            let dd = d.local(ctx).unwrap().lock().clone();
            let out = DistBlockMatrix::make(ctx, 8, 3, 2, 1, 2, 1, &g, false).unwrap();
            v.mult_dup_into(ctx, &out, &d, DupOperand::Plain).unwrap();
            let mut expect = DenseMatrix::zeros(8, 3);
            vd.gemm(1.0, &dd, 0.0, &mut expect);
            assert!(out.gather_dense(ctx).unwrap().max_abs_diff(&expect) < 1e-10);
            // Transpose: V(8x4) × Hᵀ where H is 3x4.
            let h = crate::DupDenseMatrix::make(ctx, 3, 4, &g).unwrap();
            h.init(ctx, |i, j| 1.0 / (1.0 + (i * 4 + j) as f64)).unwrap();
            let hd = h.local(ctx).unwrap().lock().clone();
            v.mult_dup_into(ctx, &out, &h, DupOperand::Transpose).unwrap();
            let mut expect = DenseMatrix::zeros(8, 3);
            vd.gemm(1.0, &hd.transpose(), 0.0, &mut expect);
            assert!(out.gather_dense(ctx).unwrap().max_abs_diff(&expect) < 1e-10);
            // Gram: W(8x3) × (H·Hᵀ) where H is 3x4.
            let w = DistBlockMatrix::make(ctx, 8, 3, 2, 1, 2, 1, &g, false).unwrap();
            w.init_with(ctx, |_, _, r0, c0, r, c| {
                BlockData::Dense(builder::random_dense(r, c, (r0 * 7 + c0) as u64))
            })
            .unwrap();
            let out2 = DistBlockMatrix::make(ctx, 8, 3, 2, 1, 2, 1, &g, false).unwrap();
            w.mult_dup_into(ctx, &out2, &h, DupOperand::Gram).unwrap();
            let mut hht = DenseMatrix::zeros(3, 3);
            hd.gemm(1.0, &hd.transpose(), 0.0, &mut hht);
            let mut expect = DenseMatrix::zeros(8, 3);
            w.gather_dense(ctx).unwrap().gemm(1.0, &hht, 0.0, &mut expect);
            assert!(out2.gather_dense(ctx).unwrap().max_abs_diff(&expect) < 1e-10);
        });
    }

    /// `nmf_update` against the sequence it replaced — `V·Hᵀ` and
    /// `W·(H·Hᵀ)` formed whole by `mult_dup_into`, folded into `W` by two
    /// `zip_blocks` — bit for bit: at block heights around the panel's, with
    /// a place holding two blocks (as a shrink leaves one), with a dense
    /// `V`, and at GNMF's per-place shape.
    #[test]
    fn nmf_update_matches_the_four_call_sequence_bit_for_bit() {
        fn bits(ctx: &Ctx, x: &DistBlockMatrix) -> Vec<u64> {
            x.gather_dense(ctx).unwrap().as_slice().iter().map(|v| v.to_bits()).collect()
        }
        run(2, |ctx| {
            let g = ctx.world();
            let eps = 1e-9;
            for (height, blocks, k, n, sparse) in [
                (1, 2, 3, 7, true),
                (ROW_PANEL - 1, 2, 3, 7, true),
                (ROW_PANEL, 2, 3, 7, true),
                (ROW_PANEL + 1, 2, 3, 7, true),
                (5 * ROW_PANEL / 2, 3, 5, 11, true),
                (ROW_PANEL + 1, 3, 4, 9, false),
                (20_000, 2, 32, 400, true),
            ] {
                let m = height * blocks;
                let make = |cols, sparse| {
                    DistBlockMatrix::make(ctx, m, cols, blocks, 1, 2, 1, &g, sparse).unwrap()
                };
                let v = make(n, sparse);
                v.init_with(ctx, move |_, _, r0, _, r, c| {
                    let mut s = builder::random_csr_rows(c, 10.min(c), 5, r0, r0 + r);
                    s.map_values(|x| x.abs() + 1e-3);
                    if sparse {
                        BlockData::Sparse(s)
                    } else {
                        BlockData::Dense(s.to_dense())
                    }
                })
                .unwrap();
                let (w, w_old) = (make(k, false), make(k, false));
                for x in [&w, &w_old] {
                    x.init_with(ctx, |_, _, r0, _, r, c| {
                        let mut d = builder::random_dense_rows(c, 6, r0, r0 + r);
                        d.as_mut_slice().iter_mut().for_each(|x| *x = x.abs());
                        BlockData::Dense(d)
                    })
                    .unwrap();
                }
                if blocks == 3 {
                    assert_eq!(w.blocks_at(0), 2, "place 0 holds two blocks");
                }
                let h = crate::DupDenseMatrix::make(ctx, k, n, &g).unwrap();
                h.init(ctx, |i, j| ((i * 31 + j * 17) % 13) as f64 / 13.0 + 0.05).unwrap();

                let (vht, whh) = (make(k, false), make(k, false));
                v.mult_dup_into(ctx, &vht, &h, DupOperand::Transpose).unwrap();
                w_old.mult_dup_into(ctx, &whh, &h, DupOperand::Gram).unwrap();
                w_old.zip_blocks(ctx, &vht, |x, y| {
                    x.cell_mult(y);
                })
                .unwrap();
                w_old.zip_blocks(ctx, &whh, move |x, y| {
                    x.cell_div_guarded(y, eps);
                })
                .unwrap();
                w.nmf_update(ctx, &v, &h, eps).unwrap();
                assert_eq!(bits(ctx, &w), bits(ctx, &w_old), "{height} rows × {blocks} blocks");
            }
        });
    }

    #[test]
    fn nmf_update_rejects_mismatched_operands() {
        run(2, |ctx| {
            let g = ctx.world();
            let v = DistBlockMatrix::make(ctx, 8, 5, 2, 1, 2, 1, &g, true).unwrap();
            let w = DistBlockMatrix::make(ctx, 8, 3, 2, 1, 2, 1, &g, false).unwrap();
            let h = crate::DupDenseMatrix::make(ctx, 3, 5, &g).unwrap();
            let wrong_h = crate::DupDenseMatrix::make(ctx, 3, 4, &g).unwrap();
            let other_rows = DistBlockMatrix::make(ctx, 8, 5, 4, 1, 2, 1, &g, true).unwrap();
            assert!(w.nmf_update(ctx, &v, &wrong_h, 1e-9).is_err(), "h's cols != v's");
            assert!(w.nmf_update(ctx, &other_rows, &h, 1e-9).is_err(), "not row-aligned");
            assert!(v.nmf_update(ctx, &v, &h, 1e-9).is_err(), "sparse self");
            assert!(w.nmf_update(ctx, &v, &h, 1e-9).is_ok());
        });
    }

    #[test]
    fn zip_blocks_elementwise() {
        run(2, |ctx| {
            let g = ctx.world();
            let a = DistBlockMatrix::make(ctx, 6, 2, 2, 1, 2, 1, &g, false).unwrap();
            a.init_with(ctx, |_, _, r0, c0, r, c| coord_fill(0, 0, r0, c0, r, c)).unwrap();
            let b = DistBlockMatrix::make(ctx, 6, 2, 2, 1, 2, 1, &g, false).unwrap();
            b.init_with(ctx, |_, _, _, _, r, c| {
                BlockData::Dense(DenseMatrix::from_vec(r, c, vec![2.0; r * c]))
            })
            .unwrap();
            let before = a.gather_dense(ctx).unwrap();
            a.zip_blocks(ctx, &b, |x, y| {
                x.cell_mult(y);
            })
            .unwrap();
            let mut expect = before;
            expect.scale(2.0);
            assert_eq!(a.gather_dense(ctx).unwrap(), expect);
            // Misaligned shapes rejected.
            let c = DistBlockMatrix::make(ctx, 6, 3, 2, 1, 2, 1, &g, false).unwrap();
            assert!(a.zip_blocks(ctx, &c, |_, _| {}).is_err());
        });
    }

    #[test]
    fn scale_and_frobenius_norm() {
        run(3, |ctx| {
            let g = ctx.world();
            let m = DistBlockMatrix::make(ctx, 9, 4, 3, 1, 3, 1, &g, false).unwrap();
            m.init_with(ctx, coord_fill).unwrap();
            let expect_sq = coord_reference(9, 4)
                .as_slice()
                .iter()
                .map(|v| v * v)
                .sum::<f64>();
            assert!((m.frobenius_norm_sq(ctx).unwrap() - expect_sq).abs() < 1e-6);
            m.scale(ctx, 0.5).unwrap();
            assert!((m.frobenius_norm_sq(ctx).unwrap() - expect_sq * 0.25).abs() < 1e-6);
            // Sparse variant.
            let s = DistBlockMatrix::make(ctx, 12, 12, 3, 1, 3, 1, &g, true).unwrap();
            s.init_with(ctx, |_, _, r0, c0, r, c| {
                BlockData::Sparse(builder::random_csr(r, c, 2, (r0 + c0) as u64))
            })
            .unwrap();
            let dense_sq =
                s.gather_dense(ctx).unwrap().as_slice().iter().map(|v| v * v).sum::<f64>();
            assert!((s.frobenius_norm_sq(ctx).unwrap() - dense_sq).abs() < 1e-9);
            s.scale(ctx, 2.0).unwrap();
            assert!((s.frobenius_norm_sq(ctx).unwrap() - 4.0 * dense_sq).abs() < 1e-9);
        });
    }

    #[test]
    fn snapshot_restore_same_grid() {
        run(3, |ctx| {
            let g = ctx.world();
            let store = ResilientStore::make(ctx).unwrap();
            let mut m = DistBlockMatrix::make(ctx, 9, 4, 3, 1, 3, 1, &g, false).unwrap();
            m.init_with(ctx, coord_fill).unwrap();
            let snap = m.make_snapshot(ctx, &store).unwrap();
            assert_eq!(snap.entries.len(), 3);
            m.init_with(ctx, |_, _, _, _, r, c| BlockData::Dense(DenseMatrix::zeros(r, c)))
                .unwrap();
            m.restore_snapshot(ctx, &store, &snap).unwrap();
            assert_eq!(m.gather_dense(ctx).unwrap(), coord_reference(9, 4));
        });
    }

    #[test]
    fn shrink_restore_remaps_same_blocks() {
        run(4, |ctx| {
            let g = ctx.world();
            let store = ResilientStore::make(ctx).unwrap();
            let mut m = DistBlockMatrix::make(ctx, 8, 4, 4, 1, 4, 1, &g, false).unwrap();
            m.init_with(ctx, coord_fill).unwrap();
            let snap = m.make_snapshot(ctx, &store).unwrap();
            ctx.kill_place(Place::new(2)).unwrap();
            let survivors = g.without(&[Place::new(2)]);
            m.remake(ctx, &survivors, false).unwrap();
            // Same grid: 4 blocks over 3 places → one place holds 2 blocks.
            assert_eq!(m.grid().row_blocks(), 4);
            let counts: Vec<usize> = (0..3).map(|i| m.blocks_at(i)).collect();
            assert_eq!(counts.iter().sum::<usize>(), 4);
            assert_eq!(*counts.iter().max().unwrap(), 2, "shrink leaves imbalance");
            m.restore_snapshot(ctx, &store, &snap).unwrap();
            assert_eq!(m.gather_dense(ctx).unwrap(), coord_reference(8, 4));
        });
    }

    #[test]
    fn rebalance_restore_recuts_grid() {
        run(4, |ctx| {
            let g = ctx.world();
            let store = ResilientStore::make(ctx).unwrap();
            let mut m = DistBlockMatrix::make(ctx, 12, 6, 4, 1, 4, 1, &g, false).unwrap();
            m.init_with(ctx, coord_fill).unwrap();
            let snap = m.make_snapshot(ctx, &store).unwrap();
            ctx.kill_place(Place::new(1)).unwrap();
            let survivors = g.without(&[Place::new(1)]);
            m.remake(ctx, &survivors, true).unwrap();
            // Rebalanced: 3 blocks over 3 places, even load.
            assert_eq!(m.grid().row_blocks(), 3);
            for idx in 0..3 {
                assert_eq!(m.blocks_at(idx), 1);
            }
            let (reads, shipped) = (store.payloads_handed_out(), ctx.stats().bytes_shipped);
            m.restore_snapshot(ctx, &store, &snap).unwrap();
            assert_eq!(m.gather_dense(ctx).unwrap(), coord_reference(12, 6));
            // Six overlaps (each new block of 4 rows straddles two stored
            // blocks of 3) read five (holder, stored block) pairs: block 1,
            // whose owner died, serves both its overlaps from place 2, and
            // block 2 is read where each of its overlaps lands (2 and 3).
            // Each pair is verified and handed out once.
            assert_eq!(store.payloads_handed_out() - reads, 5);
            // One overlap crosses places: row 3 of block 1, from place 2 to
            // place 0, as six one-element column runs.
            let gathered = 12 * 6 * 8 + 3 * (32 + 1 + 24);
            assert_eq!(ctx.stats().bytes_shipped - shipped, 6 * 8 + gathered);
        });
    }

    #[test]
    fn rebalance_restore_sparse_overlap_copy() {
        run(4, |ctx| {
            let g = ctx.world();
            let store = ResilientStore::make(ctx).unwrap();
            let mut m = DistBlockMatrix::make(ctx, 20, 20, 4, 1, 4, 1, &g, true).unwrap();
            m.init_with(ctx, |_, _, r0, c0, r, c| {
                BlockData::Sparse(builder::random_csr(r, c, 4, (r0 * 31 + c0 + 7) as u64))
            })
            .unwrap();
            let reference = m.gather_dense(ctx).unwrap();
            let snap = m.make_snapshot(ctx, &store).unwrap();
            ctx.kill_place(Place::new(3)).unwrap();
            let survivors = g.without(&[Place::new(3)]);
            m.remake(ctx, &survivors, true).unwrap();
            let reads = store.payloads_handed_out();
            m.restore_snapshot(ctx, &store, &snap).unwrap();
            assert_eq!(m.gather_dense(ctx).unwrap(), reference);
            // Blocks of 5 rows re-cut into 7 + 7 + 6: six overlaps again,
            // over four (holder, stored block) pairs — blocks 1 and 2 serve
            // two overlaps each from their owner, decoded once.
            assert_eq!(store.payloads_handed_out() - reads, 4);
        });
    }

    #[test]
    fn a_failed_overlap_request_is_reported_as_itself() {
        run(4, |ctx| {
            let g = ctx.world();
            let store = ResilientStore::make(ctx).unwrap();
            // A matrix declared dense but filled with sparse blocks: re-cut,
            // its new (dense) blocks cannot take the sparse pieces and the
            // paste at the destination panics. That is a bug to hear about
            // as what it is, not a missing replica.
            let mut m = DistBlockMatrix::make(ctx, 12, 6, 4, 1, 4, 1, &g, false).unwrap();
            m.init_with(ctx, |_, _, r0, c0, r, c| {
                BlockData::Sparse(builder::random_csr(r, c, 2, (r0 + c0) as u64))
            })
            .unwrap();
            let snap = m.make_snapshot(ctx, &store).unwrap();
            ctx.kill_place(Place::new(1)).unwrap();
            m.remake(ctx, &g.without(&[Place::new(1)]), true).unwrap();
            let err = m.restore_snapshot(ctx, &store, &snap).unwrap_err();
            assert!(err.to_string().contains("cannot paste between dense and sparse"), "{err}");
            assert!(!matches!(err, GmlError::DataLoss(_)) && !err.is_recoverable(), "{err}");
        });
    }

    #[test]
    fn remake_keeps_a_surviving_places_buffers_and_restore_fills_them() {
        run(4, |ctx| {
            let g = ctx.world();
            let store = ResilientStore::make(ctx).unwrap();
            let mut m = DistBlockMatrix::make(ctx, 8, 4, 4, 1, 4, 1, &g, false).unwrap();
            m.init_with(ctx, coord_fill).unwrap();
            let snap = m.make_snapshot(ctx, &store).unwrap();
            let handle = m.handle();
            // Where each place's dense buffers are, by block.
            type Buffers = Vec<Vec<((usize, usize), usize)>>;
            let buffers = move |ctx: &Ctx, places: &PlaceGroup| -> Buffers {
                places
                    .iter()
                    .map(|p| {
                        ctx.at(p, move |ctx| {
                            let set = handle.local(ctx).unwrap();
                            let set = set.lock();
                            set.iter()
                                .map(|b| match &b.data {
                                    BlockData::Dense(d) => {
                                        ((b.bi, b.bj), d.as_slice().as_ptr() as usize)
                                    }
                                    BlockData::Sparse(_) => unreachable!(),
                                })
                                .collect()
                        })
                        .unwrap()
                    })
                    .collect()
            };
            let before = buffers(ctx, &g);
            ctx.kill_place(Place::new(2)).unwrap();
            let survivors = g.without(&[Place::new(2)]);
            m.remake(ctx, &survivors, false).unwrap();
            // Blocks 0, 1 and 3 stay where they were, contents and all;
            // block 2 (rows 4..6), lost, goes to place 3 and starts zeroed.
            let mut kept = coord_reference(8, 4);
            (4..6).for_each(|i| (0..4).for_each(|j| kept.set(i, j, 0.0)));
            assert_eq!(m.gather_dense(ctx).unwrap(), kept, "kept, or zeroed in place");
            m.restore_snapshot(ctx, &store, &snap).unwrap();
            assert_eq!(m.gather_dense(ctx).unwrap(), coord_reference(8, 4));
            let after = buffers(ctx, &survivors);
            // Places 0 and 1 keep their buffers; place 3, the dead place's
            // successor, keeps block 3's and takes block 2 in a new one.
            assert_eq!(after[0], before[0]);
            assert_eq!(after[1], before[1]);
            assert_eq!(after[2][0].0, (2, 0));
            assert_eq!(after[2][1], before[3][0]);
        });
    }

    /// Each place's blocks of `m`, by id, with the address of each one's
    /// dense buffer.
    fn block_buffers(ctx: &Ctx, m: &DistBlockMatrix) -> Vec<Vec<(usize, usize)>> {
        let (handle, grid) = (m.handle(), m.grid().clone());
        each_place(ctx, m.group().iter().enumerate(), move |ctx, _| {
            let set = handle.local(ctx)?;
            let set = set.lock();
            let buffer = |b: &MatrixBlock| match &b.data {
                BlockData::Dense(d) => (grid.block_id(b.bi, b.bj), d.as_slice().as_ptr() as usize),
                BlockData::Sparse(_) => unreachable!("dense blocks"),
            };
            Ok(set.iter().map(buffer).collect())
        })
        .unwrap()
    }

    /// Survivors keep their blocks through two shrinks, eight blocks on
    /// four places: every survivor keeps its block ids and their buffers,
    /// each lost block goes to the survivor holding the fewest, a tie to
    /// the first in ring order from the dead place's successor, the values
    /// come back, and a vector aligned with the matrix stays aligned.
    #[test]
    fn a_shrink_keeps_every_survivors_blocks_and_sends_the_lost_to_the_least_loaded() {
        run(4, |ctx| {
            let g = ctx.world();
            let store = ResilientStore::make(ctx).unwrap();
            let mut m = DistBlockMatrix::make(ctx, 16, 4, 8, 1, 4, 1, &g, false).unwrap();
            m.init_with(ctx, coord_fill).unwrap();
            let mut y = m.make_aligned_vector(ctx).unwrap();
            y.init(ctx, |i| i as f64).unwrap();
            let mut group = g.clone();
            // Place 1 dies holding blocks 1 and 5. All survivors hold two:
            // block 1 goes to place 2, its successor, and block 5 then to
            // place 3, next in ring order. Place 2 dies next holding blocks
            // 1, 2 and 6: block 1 goes to place 0 (two against three), block
            // 2 to place 3 (a tie at three, place 3 its successor) and block
            // 6 to place 0.
            for (dead, landed) in [(1, vec![(1, 2), (5, 3)]), (2, vec![(1, 0), (2, 3), (6, 0)])] {
                let m_snap = m.make_snapshot(ctx, &store).unwrap();
                let y_snap = y.make_snapshot(ctx, &store).unwrap();
                let before = block_buffers(ctx, &m);
                ctx.kill_place(Place::new(dead)).unwrap();
                let survivors = group.without(&[Place::new(dead)]);
                m.remake(ctx, &survivors, false).unwrap();
                y.remake_onto(ctx, m.aligned_layout().unwrap()).unwrap();
                assert!(m.is_aligned(&y), "place {dead} lost: y left its matrix");
                m.restore_snapshot(ctx, &store, &m_snap).unwrap();
                y.restore_snapshot(ctx, &store, &y_snap).unwrap();
                let after = block_buffers(ctx, &m);
                for (p, kept) in group.iter().zip(before).filter(|(p, _)| p.id() != dead) {
                    let now = &after[survivors.index_of(p).unwrap()];
                    let stayed = kept.iter().all(|b| now.contains(b));
                    assert!(stayed, "{p}: had {kept:?}, holds {now:?}");
                    let took: Vec<usize> =
                        now.iter().filter(|b| !kept.contains(b)).map(|b| b.0).collect();
                    let want: Vec<usize> =
                        landed.iter().filter(|l| l.1 == p.id()).map(|l| l.0).collect();
                    assert_eq!(took, want, "{p}: the lost blocks it took");
                }
                assert_eq!(m.gather_dense(ctx).unwrap(), coord_reference(16, 4));
                let values: Vec<f64> = (0..16).map(|i| i as f64).collect();
                assert_eq!(y.gather(ctx).unwrap().as_slice(), values.as_slice());
                group = survivors;
            }
        });
    }

    /// Under replace-redundant every block keeps its group index: the
    /// survivors' blocks stay where they are, buffers and all, and the
    /// dead place's go to the spare that took its index.
    #[test]
    fn a_replacement_keeps_every_blocks_group_index() {
        Runtime::run(RuntimeConfig::new(4).spares(1).resilient(true), |ctx| {
            let g = ctx.world();
            let store = ResilientStore::make(ctx).unwrap();
            let mut m = DistBlockMatrix::make(ctx, 16, 4, 8, 1, 4, 1, &g, false).unwrap();
            m.init_with(ctx, coord_fill).unwrap();
            let snap = m.make_snapshot(ctx, &store).unwrap();
            let owners = |m: &DistBlockMatrix| -> Vec<usize> {
                (0..8).map(|bi| m.block_owner(bi, 0)).collect()
            };
            let (made, before) = (owners(&m), block_buffers(ctx, &m));
            ctx.kill_place(Place::new(1)).unwrap();
            let replaced = g.replace(&[Place::new(1)], &ctx.live_spares()).unwrap();
            m.remake(ctx, &replaced, false).unwrap();
            assert_eq!(owners(&m), made);
            m.restore_snapshot(ctx, &store, &snap).unwrap();
            let after = block_buffers(ctx, &m);
            assert!([0, 2, 3].iter().all(|&idx| after[idx] == before[idx]), "{after:?}");
            assert_eq!(after[1].iter().map(|b| b.0).collect::<Vec<_>>(), [1, 5]);
            assert_eq!(m.gather_dense(ctx).unwrap(), coord_reference(16, 4));
        })
        .unwrap();
    }

    #[test]
    fn replace_redundant_restore_keeps_layout() {
        Runtime::run(RuntimeConfig::new(3).spares(1).resilient(true), |ctx| {
            let g = ctx.world();
            let store = ResilientStore::make(ctx).unwrap();
            let mut m = DistBlockMatrix::make(ctx, 9, 3, 3, 1, 3, 1, &g, false).unwrap();
            m.init_with(ctx, coord_fill).unwrap();
            let snap = m.make_snapshot(ctx, &store).unwrap();
            ctx.kill_place(Place::new(2)).unwrap();
            let replaced = g.replace(&[Place::new(2)], &ctx.live_spares()).unwrap();
            m.remake(ctx, &replaced, false).unwrap();
            // Same number of places: block-per-place balance preserved.
            for idx in 0..3 {
                assert_eq!(m.blocks_at(idx), 1);
            }
            m.restore_snapshot(ctx, &store, &snap).unwrap();
            assert_eq!(m.gather_dense(ctx).unwrap(), coord_reference(9, 3));
        })
        .unwrap();
    }

    #[test]
    fn bad_place_grid_rejected() {
        run(3, |ctx| {
            let g = ctx.world();
            assert!(matches!(
                DistBlockMatrix::make(ctx, 4, 4, 2, 1, 2, 1, &g, false),
                Err(GmlError::Shape(_))
            ));
        });
    }

    #[test]
    fn misaligned_mult_rejected() {
        run(2, |ctx| {
            let g = ctx.world();
            let m = DistBlockMatrix::make(ctx, 8, 4, 2, 1, 2, 1, &g, false).unwrap();
            let x = DupVector::make(ctx, 4, &g).unwrap();
            // Four segments where the matrix has two block rows.
            let other = DistBlockMatrix::make(ctx, 8, 1, 4, 1, 2, 1, &g, false).unwrap();
            let bad = other.make_aligned_vector(ctx).unwrap();
            assert!(m.mult(ctx, &bad, &x).is_err());
        });
    }
}
