//! Layer probes: direct timed calls into one layer's public functions, at
//! fixed shapes taken from the workloads. They run in the traced process
//! after the workload's own repetitions, so the compute pool already has
//! the width the workload gave it.
//!
//! Byte and flop counts are computed from the array shapes (they ignore
//! cache misses); `matrix.triad_gbps` is the benchmark's own STREAM-style
//! loop, measured in the same run, as the yardstick for every `*_gbps`.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use apgas::prelude::*;
use apgas::serial;
use bytes::BytesMut;
use gml_core::{AppResilientStore, DistVector, GmlResult};
use gml_matrix::{builder, DenseMatrix, SparseCSR};

use crate::affinity::{self, CpuSet};
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{gnmf_cfg, linreg_cfg, pagerank_cfg, PLACES};

/// Probe results in print order.
pub type Metrics = Vec<(&'static str, f64)>;

const MIB: f64 = 1024.0 * 1024.0;

/// Median seconds of `f` over `n` calls, after one untimed call.
fn time_s(n: usize, mut f: impl FnMut()) -> f64 {
    f();
    let xs: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&xs).expect("n >= 1")
}

struct Probe<'a> {
    rec: &'a Recorder,
    run: u32,
    out: Metrics,
}

impl Probe<'_> {
    /// Run one probe group as a span of `layer`; it reports its metrics
    /// itself.
    fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Metrics) -> R,
    ) -> R {
        let id = self.rec.open(name, layer, self.run, None);
        let out = f(&mut self.out);
        self.rec.close(id, vec![]);
        out
    }
}

/// Run every probe. `allowed` is the CPU set the process started with;
/// `seed` generates the inputs.
pub fn run_all(
    rec: &Recorder,
    run: u32,
    seed: u64,
    allowed: Option<CpuSet>,
) -> Result<Metrics, String> {
    let mut p = Probe {
        rec,
        run,
        out: Vec::new(),
    };
    // One place's block of the PageRank link matrix, for SpMV and for the
    // CSR wire format.
    let cfg = pagerank_cfg(seed, 0);
    let nodes = cfg.nodes_per_place * PLACES;
    let g = builder::link_matrix_rows(nodes, cfg.out_degree, cfg.seed, 0, cfg.nodes_per_place);
    p.span("kernels", "matrix", |out| kernels(seed, &g, out));
    p.span("serial", "apgas.serial", |out| serial_codec(seed, &g, out));
    drop(g);
    p.span("finish", "apgas.finish", |out| {
        finish_round_trips(allowed, out)
    });
    p.span("runtime", "apgas.runtime", runtime_probes)
        .map_err(|e| format!("runtime probes: {e}"))?;
    p.span("store", "core.app_store", store_probes)
        .map_err(|e| format!("store probes: {e}"))?;
    Ok(p.out)
}

fn kernels(seed: u64, g: &SparseCSR, out: &mut Metrics) {
    let n = g.cols();
    let x = vec![1.0 / n as f64; n];
    let mut y = vec![0.0; g.rows()];
    let s = time_s(15, || g.spmv(1.0, black_box(&x), 0.0, black_box(&mut y)));
    let bytes = (g.nnz() * 16 + (g.rows() + 1) * 8 + g.rows() * 8 + n * 8) as f64;
    out.push(("matrix.spmv_ms", s * 1e3));
    out.push(("matrix.spmv_gflops", 2.0 * g.nnz() as f64 / s / 1e9));
    out.push(("matrix.spmv_gbps", bytes / s / 1e9));
    drop((x, y));

    // One place's block of the LinReg training matrix.
    let cfg = linreg_cfg(seed, 0);
    let (m, f) = (cfg.examples_per_place, cfg.features);
    let a = builder::random_dense(m, f, cfg.seed);
    let (xf, xm) = (vec![0.5; f], vec![0.5; m]);
    let (mut ym, mut yf) = (vec![0.0; m], vec![0.0; f]);
    let s = time_s(60, || a.gemv(1.0, black_box(&xf), 0.0, black_box(&mut ym)));
    let st = time_s(60, || {
        a.gemv_trans(1.0, black_box(&xm), 0.0, black_box(&mut yf))
    });
    out.push(("matrix.gemv_ms", s * 1e3));
    out.push(("matrix.gemv_trans_ms", st * 1e3));
    out.push(("matrix.gemv_gbps", (m * f * 8) as f64 / s / 1e9));

    // One place's blocks of GNMF: the W'W gram and V·H'.
    let cfg = gnmf_cfg(seed, 0);
    let (m, n, k) = (cfg.rows_per_place, cfg.cols, cfg.rank);
    let w = builder::random_dense(m, k, cfg.seed);
    let mut c = DenseMatrix::zeros(k, k);
    let s = time_s(30, || w.gemm_tn_acc(black_box(&w), black_box(&mut c)));
    out.push(("matrix.gemm_tn_acc_ms", s * 1e3));
    out.push((
        "matrix.gemm_tn_acc_gflops",
        2.0 * (m * k * k) as f64 / s / 1e9,
    ));
    let v = builder::random_csr_rows(n, cfg.nnz_per_row, cfg.seed, 0, m);
    let ht = builder::random_dense(n, k, cfg.seed.wrapping_add(1));
    let s = time_s(30, || {
        black_box(v.spmm(black_box(&ht)));
    });
    out.push(("matrix.spmm_ms", s * 1e3));

    // 1 M-element vectors: 8 MB each, two or three per loop, against the
    // 4 MiB L2 of this box.
    let len = 1 << 20;
    let a = builder::random_vector(len, seed);
    let mut b = builder::random_vector(len, seed.wrapping_add(1));
    let s = time_s(30, || {
        black_box(a.dot(black_box(&b)));
    });
    out.push(("matrix.dot_gbps", (len * 16) as f64 / s / 1e9));
    let s = time_s(30, || {
        b.axpy(1e-9, black_box(&a));
    });
    out.push(("matrix.axpy_gbps", (len * 24) as f64 / s / 1e9));
    let (ta, tb) = (a.as_slice(), b.as_slice());
    let mut tc = vec![0.0f64; len];
    let s = time_s(30, || {
        for ((c, a), b) in tc.iter_mut().zip(ta).zip(tb) {
            *c = a + 3.0 * b;
        }
        black_box(&mut tc);
    });
    out.push(("matrix.triad_gbps", (len * 24) as f64 / s / 1e9));
}

fn serial_codec(seed: u64, g: &SparseCSR, out: &mut Metrics) {
    let data = builder::random_vector(1 << 20, seed).into_vec();
    let nbytes = (data.len() * 8) as f64;
    let s = time_s(20, || {
        let mut buf = BytesMut::with_capacity(data.len() * 8 + 16);
        serial::write_slice(black_box(&data), &mut buf);
        black_box(buf);
    });
    out.push(("apgas.serial.f64_encode_gbps", nbytes / s / 1e9));
    let mut buf = BytesMut::with_capacity(data.len() * 8 + 16);
    serial::write_slice(&data, &mut buf);
    let frozen = buf.freeze();
    let s = time_s(20, || {
        let mut b = frozen.clone();
        black_box(serial::read_vec::<f64>(&mut b));
    });
    out.push(("apgas.serial.f64_decode_gbps", nbytes / s / 1e9));

    let nbytes = g.byte_len() as f64;
    let s = time_s(8, || {
        black_box(g.to_bytes());
    });
    out.push(("apgas.serial.csr_encode_gbps", nbytes / s / 1e9));
    let wire = g.to_bytes();
    let s = time_s(8, || {
        black_box(SparseCSR::from_bytes(wire.clone()));
    });
    out.push(("apgas.serial.csr_decode_gbps", nbytes / s / 1e9));
}

/// Median microseconds of a `finish` that spawns one empty `async_at` per
/// place, on a fresh runtime whose threads inherit the caller's CPU set.
fn finish_round_trip_us(resilient: bool) -> f64 {
    Runtime::run(RuntimeConfig::new(PLACES).resilient(resilient), |ctx| {
        let world = ctx.world();
        let s = time_s(2000, || {
            ctx.finish(|fs| {
                for p in world.iter() {
                    fs.async_at(p, |_| {});
                }
            })
            .expect("no place dies in this probe");
        });
        s * 1e6
    })
    .expect("probe runtime runs to completion")
}

fn finish_round_trips(allowed: Option<CpuSet>, out: &mut Metrics) {
    let before = affinity::current();
    let one = allowed.map(|a| a.first_only());
    // Unpinnable systems report the same (unpinned) number three times,
    // under a `"pinned": false` stamp.
    if let Some(one) = &one {
        affinity::set(one);
    }
    out.push(("apgas.finish.roundtrip_us.res", finish_round_trip_us(true)));
    out.push((
        "apgas.finish.roundtrip_us.nonres",
        finish_round_trip_us(false),
    ));
    if let Some(all) = &allowed {
        affinity::set(all);
    }
    out.push((
        "apgas.finish.roundtrip_us.res.allcpu",
        finish_round_trip_us(true),
    ));
    if let Some(b) = &before {
        affinity::set(b);
    }
}

fn runtime_probes(out: &mut Metrics) -> Result<(), String> {
    let s = time_s(10, || {
        let rt = Runtime::new(RuntimeConfig::new(PLACES).resilient(true));
        rt.shutdown();
    });
    out.push(("apgas.runtime.start_ms", s * 1e3));

    let (small_us, mib_mbps) = Runtime::run(RuntimeConfig::new(PLACES).resilient(true), |ctx| {
        let there = ctx.world().place(1);
        let small = vec![1.0f64];
        let s_small = time_s(2000, || {
            let b = ctx.encode(&small);
            let n = ctx
                .at(there, move |c| c.decode::<Vec<f64>>(b).len())
                .expect("place 1 lives");
            black_box(n);
        });
        let big = vec![1.0f64; 1 << 17];
        let s_big = time_s(100, || {
            let b = ctx.encode(&big);
            let n = ctx
                .at(there, move |c| c.decode::<Vec<f64>>(b).len())
                .expect("place 1 lives");
            black_box(n);
        });
        (s_small * 1e6, 1.0 / s_big)
    })
    .map_err(|e| e.to_string())?;
    out.push(("apgas.runtime.at_small_us", small_us));
    out.push(("apgas.runtime.at_1mib_mbps", mib_mbps));

    // A kill is final, so each sample needs its own runtime.
    let mut detect = Vec::new();
    for _ in 0..10 {
        let us = Runtime::run(RuntimeConfig::new(PLACES).resilient(true), |ctx| {
            let victim = ctx.world().place(PLACES / 2);
            let release = Arc::new(AtomicBool::new(false));
            let held = Arc::clone(&release);
            let mut killed_at = None;
            let res = ctx.finish(|fs| {
                // Keeps the finish open at the victim until it is killed.
                fs.async_at(victim, move |_| {
                    while !held.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                });
                killed_at = Some(Instant::now());
                ctx.kill_place(victim)
                    .expect("a non-zero place of a resilient runtime");
            });
            let us = killed_at
                .expect("finish ran its body")
                .elapsed()
                .as_secs_f64()
                * 1e6;
            release.store(true, Ordering::Release);
            res.is_err().then_some(us)
        })
        .map_err(|e| e.to_string())?;
        detect.push(us.ok_or("finish over a killed place returned Ok")?);
    }
    out.push((
        "apgas.runtime.kill_detect_us",
        median(&detect).expect("ten samples"),
    ));
    Ok(())
}

/// Checkpoint an 8 MiB `DistVector` through the default store: every
/// element rewritten between checkpoints, then 1 % rewritten. No app
/// workload has the second access pattern; it keeps delta's benefit visible
/// if a later change trades it away. Then restore it on the unchanged group.
fn store_probes(out: &mut Metrics) -> Result<(), String> {
    const LEN: usize = 1 << 20;
    const ROUNDS: u64 = 5;
    let r = Runtime::run(
        RuntimeConfig::new(PLACES).resilient(true),
        |ctx| -> GmlResult<Metrics> {
            let mut m = Metrics::new();
            let mut store = AppResilientStore::make(ctx)?;
            let mut v = DistVector::make(ctx, LEN, &ctx.world())?;
            let mut iteration = 0u64;
            let mut checkpoint = |ctx: &Ctx,
                                  store: &mut AppResilientStore,
                                  v: &DistVector|
             -> GmlResult<(f64, f64)> {
                iteration += 1;
                let c0 = gml_core::codec::counters();
                let t = Instant::now();
                store.set_current_iteration(iteration);
                store.start_new_snapshot();
                store.save(ctx, v)?;
                store.commit(ctx)?;
                let s = t.elapsed().as_secs_f64();
                Ok((
                    s,
                    gml_core::codec::counters().since(&c0).compression_ratio(),
                ))
            };
            // Values with random mantissas, like an app's dense numeric state.
            let value = |i: usize, version: u64| {
                let h = (i as u64 ^ version << 40).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (h ^ h >> 29) as f64 / u64::MAX as f64
            };
            v.init(ctx, move |i| value(i, 0))?;
            checkpoint(ctx, &mut store, &v)?;
            for (mbps, ratio_name, sparse) in [
                (
                    "core.codec.full_change_mbps",
                    "core.codec.full_change_wire_ratio",
                    false,
                ),
                (
                    "core.codec.sparse_change_mbps",
                    "core.codec.sparse_change_wire_ratio",
                    true,
                ),
            ] {
                let (mut secs, mut ratios) = (Vec::new(), Vec::new());
                for round in 1..=ROUNDS {
                    let version = round + if sparse { ROUNDS } else { 0 };
                    // Sparse: the first 1 % of every place's quarter; the rest
                    // keeps what the last full round wrote.
                    v.init(ctx, move |i| {
                        let touched = !sparse || i % (LEN / PLACES) < LEN / PLACES / 100;
                        value(i, if touched { version } else { ROUNDS })
                    })?;
                    let (s, ratio) = checkpoint(ctx, &mut store, &v)?;
                    secs.push(s);
                    ratios.push(ratio);
                }
                m.push((
                    mbps,
                    (LEN * 8) as f64 / MIB / median(&secs).expect("rounds"),
                ));
                m.push((ratio_name, median(&ratios).expect("rounds")));
            }
            let mut secs = Vec::new();
            for _ in 0..ROUNDS {
                let t = Instant::now();
                store.restore(ctx, &mut [&mut v])?;
                secs.push(t.elapsed().as_secs_f64());
            }
            m.push((
                "core.store.restore_object_ms",
                median(&secs).expect("rounds") * 1e3,
            ));
            Ok(m)
        },
    )
    .map_err(|e| e.to_string())?
    .map_err(|e| e.to_string())?;
    out.extend(r);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_s_reports_the_median_of_the_timed_calls_only() {
        let mut calls = 0;
        let s = time_s(5, || calls += 1);
        assert_eq!(calls, 6, "one untimed call, then five timed");
        assert!(s >= 0.0);
    }
}
