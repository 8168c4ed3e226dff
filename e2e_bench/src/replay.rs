//! Step replay: the public GML operations each app's step is made of, run
//! on benchmark-built objects of the workload's shape and timed one by one
//! from outside. The sum of the replayed operations against the measured
//! step gives `apps.step.unattributed_pct`.
//!
//! The apps keep their objects private, so each sequence below restates the
//! app's `iterate_once` with public calls only. The values differ from the
//! app's (no convergence logic); shapes, sparsity and call order do not.

use std::time::Instant;

use apgas::prelude::*;
use gml_apps::sigmoid;
use gml_core::{DistBlockMatrix, DistVector, DupDenseMatrix, DupOperand, DupVector, GmlResult};
use gml_matrix::{builder, BlockData, DenseMatrix};

use crate::workloads::{gnmf_cfg, linreg_cfg, logreg_cfg, pagerank_cfg, PLACES};

pub const MULT: &str = "core.dist_block_matrix.mult_ms";
pub const MULT_TRANS: &str = "core.dist_block_matrix.mult_trans_ms";
pub const GRAM_INTO: &str = "core.dist_block_matrix.gram_into_ms";
pub const MULT_DUP_INTO: &str = "core.dist_block_matrix.mult_dup_into_ms";
pub const GATHER: &str = "core.dist_vector.gather_ms";
pub const DOT_DUP: &str = "core.dist_vector.dot_dup_ms";
pub const DUP_VECTOR_SYNC: &str = "core.dup_vector.sync_ms";
pub const DUP_DENSE_SYNC: &str = "core.dup_dense.sync_ms";
/// Every operation of the step that has no metric of its own (element-wise
/// passes, duplicated-vector updates, place-zero scalar work).
pub const OTHER: &str = "apps.step.other_ops_ms";

pub const ALL: [&str; 9] = [
    MULT,
    MULT_TRANS,
    GRAM_INTO,
    MULT_DUP_INTO,
    GATHER,
    DOT_DUP,
    DUP_VECTOR_SYNC,
    DUP_DENSE_SYNC,
    OTHER,
];

/// Per-call timings of one op sequence, replayed for several rounds. Each
/// position in the sequence keeps its own samples.
#[derive(Default)]
pub struct Ops {
    cursor: usize,
    slots: Vec<(&'static str, Vec<f64>)>,
}

impl Ops {
    pub fn begin_round(&mut self) {
        self.cursor = 0;
    }

    pub fn op<R>(
        &mut self,
        metric: &'static str,
        f: impl FnOnce() -> GmlResult<R>,
    ) -> GmlResult<R> {
        let t = Instant::now();
        let out = f()?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if self.cursor == self.slots.len() {
            self.slots.push((metric, Vec::new()));
        }
        assert_eq!(
            self.slots[self.cursor].0, metric,
            "every round replays the same sequence"
        );
        self.slots[self.cursor].1.push(ms);
        self.cursor += 1;
        Ok(out)
    }

    /// Milliseconds per step spent in each metric's operations: the sum of
    /// the medians of the metric's positions in the sequence.
    pub fn per_step_ms(&self) -> Vec<(&'static str, f64)> {
        ALL.iter()
            .map(|&m| {
                let total = self
                    .slots
                    .iter()
                    .filter(|(name, _)| *name == m)
                    .filter_map(|(_, xs)| crate::stats::median(xs))
                    .fold(0.0, |a, b| a + b);
                (m, total)
            })
            .collect()
    }
}

/// One app's step as a sequence of timed public operations.
pub trait StepReplay: Sized {
    fn make(ctx: &Ctx, seed: u64, g: &PlaceGroup) -> GmlResult<Self>;
    fn round(&mut self, ctx: &Ctx, ops: &mut Ops) -> GmlResult<()>;
}

/// A dense row-distributed matrix of random values, strictly positive ones
/// on request (GNMF's multiplicative updates need them).
fn dense_rows(
    ctx: &Ctx,
    rows_per_place: usize,
    cols: usize,
    seed: u64,
    positive: bool,
    g: &PlaceGroup,
) -> GmlResult<DistBlockMatrix> {
    let m = rows_per_place * PLACES;
    let x = DistBlockMatrix::make(ctx, m, cols, PLACES, 1, PLACES, 1, g, false)?;
    x.init_with(ctx, move |_, _, r0, _, rows, cols| {
        let mut d = builder::random_dense_rows(cols, seed, r0, r0 + rows);
        if positive {
            d.as_mut_slice()
                .iter_mut()
                .for_each(|v| *v = v.abs() + 1e-3);
        }
        BlockData::Dense(d)
    })?;
    Ok(x)
}

pub struct LogRegReplay {
    x: DistBlockMatrix,
    y: DistVector,
    w: DupVector,
    grad: DupVector,
    tmp: DistVector,
}

impl StepReplay for LogRegReplay {
    fn make(ctx: &Ctx, seed: u64, g: &PlaceGroup) -> GmlResult<Self> {
        let cfg = logreg_cfg(seed, 0);
        let x = dense_rows(
            ctx,
            cfg.examples_per_place,
            cfg.features,
            cfg.seed,
            false,
            g,
        )?;
        let y = x.make_aligned_vector(ctx)?;
        y.init(ctx, |i| (i % 2) as f64)?;
        let tmp = x.make_aligned_vector(ctx)?;
        let (w, grad) = (
            DupVector::make(ctx, cfg.features, g)?,
            DupVector::make(ctx, cfg.features, g)?,
        );
        Ok(LogRegReplay { x, y, w, grad, tmp })
    }

    fn round(&mut self, ctx: &Ctx, ops: &mut Ops) -> GmlResult<()> {
        ops.op(MULT, || self.x.mult(ctx, &self.tmp, &self.w))?;
        ops.op(OTHER, || self.tmp.map_all(ctx, sigmoid))?;
        ops.op(OTHER, || {
            self.tmp.zip_apply(ctx, &self.y, |t, y| {
                for (ti, yi) in t.as_mut_slice().iter_mut().zip(y.as_slice()) {
                    *ti -= *yi;
                }
            })
        })?;
        ops.op(MULT_TRANS, || self.x.mult_trans(ctx, &self.grad, &self.tmp))?;
        ops.op(OTHER, || self.w.scale_all(ctx, 0.999))?;
        ops.op(OTHER, || self.w.axpy_all(ctx, -1.0 / 4000.0, &self.grad))
    }
}

pub struct PageRankReplay {
    g: DistBlockMatrix,
    p: DupVector,
    u: DistVector,
    gp: DistVector,
}

impl StepReplay for PageRankReplay {
    fn make(ctx: &Ctx, seed: u64, group: &PlaceGroup) -> GmlResult<Self> {
        let cfg = pagerank_cfg(seed, 0);
        let n = cfg.nodes_per_place * PLACES;
        let g = DistBlockMatrix::make(ctx, n, n, PLACES, 1, PLACES, 1, group, true)?;
        g.init_with(ctx, move |_, _, r0, _, rows, _| {
            BlockData::Sparse(builder::link_matrix_rows(
                n,
                cfg.out_degree,
                cfg.seed,
                r0,
                r0 + rows,
            ))
        })?;
        let p = DupVector::make(ctx, n, group)?;
        p.init(ctx, move |_| 1.0 / n as f64)?;
        let u = g.make_aligned_vector(ctx)?;
        u.init(ctx, move |_| 1.0 / n as f64)?;
        let gp = g.make_aligned_vector(ctx)?;
        Ok(PageRankReplay { g, p, u, gp })
    }

    fn round(&mut self, ctx: &Ctx, ops: &mut Ops) -> GmlResult<()> {
        ops.op(MULT, || self.g.mult(ctx, &self.gp, &self.p))?;
        ops.op(OTHER, || self.gp.scale(ctx, 0.85))?;
        let utp = ops.op(DOT_DUP, || self.u.dot_dup(ctx, &self.p))? * 0.15;
        let gathered = ops.op(GATHER, || self.gp.gather(ctx))?;
        ops.op(OTHER, || {
            let local = self.p.local(ctx)?;
            let mut local = local.lock();
            local.copy_from(&gathered);
            local.cell_add_scalar(utp);
            Ok(())
        })?;
        ops.op(DUP_VECTOR_SYNC, || self.p.sync(ctx))
    }
}

pub struct LinRegReplay {
    x: DistBlockMatrix,
    w: DupVector,
    r: DupVector,
    p: DupVector,
    q: DupVector,
    tmp: DistVector,
}

impl StepReplay for LinRegReplay {
    fn make(ctx: &Ctx, seed: u64, g: &PlaceGroup) -> GmlResult<Self> {
        let cfg = linreg_cfg(seed, 0);
        let x = dense_rows(
            ctx,
            cfg.examples_per_place,
            cfg.features,
            cfg.seed,
            false,
            g,
        )?;
        let f = cfg.features;
        let tmp = x.make_aligned_vector(ctx)?;
        let p = DupVector::make(ctx, f, g)?;
        p.init(ctx, |i| 1.0 / (i + 1) as f64)?;
        let r = DupVector::make(ctx, f, g)?;
        r.init(ctx, |i| 1.0 / (i + 2) as f64)?;
        Ok(LinRegReplay {
            x,
            w: DupVector::make(ctx, f, g)?,
            r,
            p,
            q: DupVector::make(ctx, f, g)?,
            tmp,
        })
    }

    fn round(&mut self, ctx: &Ctx, ops: &mut Ops) -> GmlResult<()> {
        // Fixed step lengths keep the vectors bounded over any number of
        // rounds; CG's own scalars would reach 0/0 once it has converged.
        ops.op(MULT, || self.x.mult(ctx, &self.tmp, &self.p))?;
        ops.op(MULT_TRANS, || self.x.mult_trans(ctx, &self.q, &self.tmp))?;
        ops.op(OTHER, || self.q.axpy_all(ctx, 1e-6, &self.p))?;
        ops.op(OTHER, || self.p.dot_local(ctx, &self.q))?;
        ops.op(OTHER, || self.w.axpy_all(ctx, 1e-9, &self.p))?;
        ops.op(OTHER, || self.r.axpy_all(ctx, -1e-9, &self.q))?;
        ops.op(OTHER, || Ok(self.r.read_local(ctx)?.norm2_sq()))?;
        ops.op(OTHER, || self.p.scale_all(ctx, 0.5))?;
        ops.op(OTHER, || self.p.axpy_all(ctx, 1.0, &self.r))
    }
}

pub struct GnmfReplay {
    v: DistBlockMatrix,
    w: DistBlockMatrix,
    h: DupDenseMatrix,
    wtv: DupDenseMatrix,
    wtw: DupDenseMatrix,
    vht: DistBlockMatrix,
    whh: DistBlockMatrix,
}

impl StepReplay for GnmfReplay {
    fn make(ctx: &Ctx, seed: u64, g: &PlaceGroup) -> GmlResult<Self> {
        let cfg = gnmf_cfg(seed, 0);
        let (m, n, k) = (cfg.rows_per_place * PLACES, cfg.cols, cfg.rank);
        let v = DistBlockMatrix::make(ctx, m, n, PLACES, 1, PLACES, 1, g, true)?;
        v.init_with(ctx, move |_, _, r0, _, rows, cols| {
            let mut s = builder::random_csr_rows(cols, cfg.nnz_per_row, cfg.seed, r0, r0 + rows);
            s.map_values(|x| (x + 1.0) / 2.0 + 1e-3);
            BlockData::Sparse(s)
        })?;
        let w = dense_rows(
            ctx,
            cfg.rows_per_place,
            k,
            cfg.seed.wrapping_add(100),
            true,
            g,
        )?;
        let h = DupDenseMatrix::make(ctx, k, n, g)?;
        let h_init = builder::random_dense(k, n, cfg.seed.wrapping_add(101));
        h.init(ctx, move |i, j| h_init.get(i, j).abs() + 1e-3)?;
        Ok(GnmfReplay {
            v,
            w,
            h,
            wtv: DupDenseMatrix::make(ctx, k, n, g)?,
            wtw: DupDenseMatrix::make(ctx, k, k, g)?,
            vht: dense_rows(ctx, cfg.rows_per_place, k, 0, false, g)?,
            whh: dense_rows(ctx, cfg.rows_per_place, k, 0, false, g)?,
        })
    }

    fn round(&mut self, ctx: &Ctx, ops: &mut Ops) -> GmlResult<()> {
        let eps = 1e-9;
        ops.op(GRAM_INTO, || self.w.gram_into(ctx, &self.wtv, &self.v))?;
        ops.op(GRAM_INTO, || self.w.gram_into(ctx, &self.wtw, &self.w))?;
        ops.op(OTHER, || {
            let h = self.h.local(ctx)?;
            let mut h = h.lock();
            let wtv = self.wtv.local(ctx)?;
            let wtv = wtv.lock();
            let wtw = self.wtw.local(ctx)?;
            let wtw = wtw.lock();
            let mut denom = DenseMatrix::zeros(h.rows(), h.cols());
            wtw.gemm(1.0, &h, 0.0, &mut denom);
            h.cell_mult(&wtv);
            h.cell_div_guarded(&denom, eps);
            Ok(())
        })?;
        ops.op(DUP_DENSE_SYNC, || self.h.sync(ctx))?;
        ops.op(MULT_DUP_INTO, || {
            self.v
                .mult_dup_into(ctx, &self.vht, &self.h, DupOperand::Transpose)
        })?;
        ops.op(MULT_DUP_INTO, || {
            self.w
                .mult_dup_into(ctx, &self.whh, &self.h, DupOperand::Gram)
        })?;
        ops.op(OTHER, || {
            self.w.zip_blocks(ctx, &self.vht, |x, y| {
                x.cell_mult(y);
            })
        })?;
        ops.op(OTHER, || {
            self.w.zip_blocks(ctx, &self.whh, move |x, y| {
                x.cell_div_guarded(y, eps);
            })
        })
    }
}

/// Replay `rounds` steps (after two untimed ones) under a resilient
/// runtime, as the resilient arm runs them.
pub fn replay<R: StepReplay>(seed: u64, rounds: usize) -> Result<Vec<(&'static str, f64)>, String> {
    Runtime::run(
        RuntimeConfig::new(PLACES).resilient(true),
        move |ctx| -> GmlResult<_> {
            let mut r = R::make(ctx, seed, &ctx.world())?;
            for _ in 0..2 {
                r.round(ctx, &mut Ops::default())?;
            }
            let mut ops = Ops::default();
            for _ in 0..rounds {
                ops.begin_round();
                r.round(ctx, &mut ops)?;
            }
            Ok(ops.per_step_ms())
        },
    )
    .map_err(|e| format!("replay runtime: {e}"))?
    .map_err(|e| format!("replay: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_step_sums_the_medians_of_each_position() {
        let mut ops = Ops::default();
        for round in 0..3 {
            ops.begin_round();
            ops.op(MULT, || Ok(())).unwrap();
            ops.op(OTHER, || Ok(())).unwrap();
            ops.op(MULT, || Ok(())).unwrap();
            assert_eq!(ops.slots.len(), 3, "round {round} reuses the slots");
        }
        ops.slots[0].1 = vec![1.0, 2.0, 9.0];
        ops.slots[1].1 = vec![5.0, 5.0, 5.0];
        ops.slots[2].1 = vec![10.0, 30.0, 20.0];
        let per = ops.per_step_ms();
        assert_eq!(per.iter().find(|(m, _)| *m == MULT).unwrap().1, 22.0);
        assert_eq!(per.iter().find(|(m, _)| *m == OTHER).unwrap().1, 5.0);
        assert_eq!(per.iter().find(|(m, _)| *m == GATHER).unwrap().1, 0.0);
        assert_eq!(per.len(), ALL.len());
    }
}
