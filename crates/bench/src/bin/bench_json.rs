//! Machine-readable perf trajectory: runs the serialization throughput
//! benchmarks (the checkpoint plane's hot path) and the intra-place kernel
//! benchmarks (pooled vs forced-serial), writing the results as
//! `BENCH_serial_throughput.json` and `BENCH_kernel_throughput.json` in the
//! current directory, so successive commits can be compared without
//! scraping bench stdout.
//!
//! Every file is stamped with host metadata (resolved worker count, cpu
//! count, the raw `GML_WORKERS` setting) — speedups are only comparable at
//! equal width, and `bench_regress` enforces that before diffing.
//!
//! Usage: `cargo run --release -p gml-bench --bin bench_json`

use apgas::mem::{self, MemTag};
use apgas::place::PlaceGroup;
use apgas::pool;
use apgas::runtime::{Ctx, Runtime, RuntimeConfig};
use apgas::serial::{arena, fallback, read_vec, write_slice, Serial};
use bytes::BytesMut;
use criterion::{BatchSize, BenchResult, Criterion};
use gml_core::{
    AppResilientStore, DistBlockMatrix, ExecutorConfig, GmlResult, ResilientExecutor,
    ResilientIterativeApp, ResilientStore, RestoreMode, Snapshottable,
};
use gml_matrix::{builder, BlockData, DenseMatrix, SparseCSR};
use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;

fn run(c: &mut Criterion) {
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
    g.bench_function("vec_f64_1m_encode_elementwise", |b| {
        b.iter(|| {
            let mut buf = BytesMut::with_capacity(8 + 8 * data.len());
            fallback::write_slice(black_box(&data), &mut buf);
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
    g.bench_function("vec_f64_1m_decode_elementwise", |b| {
        b.iter_batched(
            || encoded.clone(),
            |mut by| black_box(fallback::read_vec::<f64>(&mut by)),
            BatchSize::LargeInput,
        )
    });
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

/// The intra-place kernel pool benchmarks: every kernel pair runs the same
/// chunking pooled and under [`pool::serial_scope`], so the ratio isolates
/// the parallel win (or the overhead floor on narrow machines).
fn run_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_throughput");

    // SpMV at 1M x 1M with ~1 nnz per row — the ISSUE's headline size.
    let a = builder::random_csr(1_000_000, 1_000_000, 1, 21);
    let x = builder::random_vector(1_000_000, 22);
    let mut y = vec![0.0; 1_000_000];
    g.bench_function(format!("spmv_1m_nnz{}_pooled", a.nnz()), |b| {
        b.iter(|| a.spmv(1.0, black_box(x.as_slice()), 0.0, black_box(&mut y)))
    });
    g.bench_function(format!("spmv_1m_nnz{}_serial", a.nnz()), |b| {
        b.iter(|| {
            pool::serial_scope(|| a.spmv(1.0, black_box(x.as_slice()), 0.0, black_box(&mut y)))
        })
    });
    g.bench_function(format!("spmv_1m_nnz{}_reference", a.nnz()), |b| {
        b.iter(|| a.spmv_reference(1.0, black_box(x.as_slice()), 0.0, black_box(&mut y)))
    });

    // Dense GEMM at 512^3: blocked pooled, blocked forced-serial, and the
    // scalar reference twin (the blocked-vs-reference ratio is the headline).
    g.sample_size(5);
    let da = builder::random_dense(512, 512, 23);
    let db = builder::random_dense(512, 512, 24);
    let mut dc = DenseMatrix::zeros(512, 512);
    g.bench_function("gemm_512_pooled", |b| {
        b.iter(|| da.gemm(1.0, black_box(&db), 0.0, black_box(&mut dc)))
    });
    g.bench_function("gemm_512_serial", |b| {
        b.iter(|| pool::serial_scope(|| da.gemm(1.0, black_box(&db), 0.0, black_box(&mut dc))))
    });
    g.bench_function("gemm_512_reference", |b| {
        b.iter(|| da.gemm_reference(1.0, black_box(&db), 0.0, black_box(&mut dc)))
    });

    // Gram kernel: tall-skinny AᵀB accumulate, the NMF inner-product shape.
    let ta = builder::random_dense(100_000, 32, 27);
    let tb = builder::random_dense(100_000, 32, 28);
    let mut tc = DenseMatrix::zeros(32, 32);
    g.bench_function("gemm_tn_acc_100k_32_blocked", |b| {
        b.iter(|| ta.gemm_tn_acc(black_box(&tb), black_box(&mut tc)))
    });
    g.bench_function("gemm_tn_acc_100k_32_reference", |b| {
        b.iter(|| ta.gemm_tn_acc_reference(black_box(&tb), black_box(&mut tc)))
    });

    // Register-blocked GEMV at 2048^2 (memory-bandwidth-bound).
    g.sample_size(20);
    let ga = builder::random_dense(2048, 2048, 29);
    let gx = builder::random_vector(2048, 30);
    let mut gy = vec![0.0; 2048];
    g.bench_function("gemv_2048_blocked", |b| {
        b.iter(|| ga.gemv(1.0, black_box(gx.as_slice()), 0.0, black_box(&mut gy)))
    });
    g.bench_function("gemv_2048_reference", |b| {
        b.iter(|| ga.gemv_reference(1.0, black_box(gx.as_slice()), 0.0, black_box(&mut gy)))
    });

    // Cache-blocked transpose at 1024^2 (allocates the output each pass,
    // same as the reference — the ratio isolates the access pattern).
    g.sample_size(10);
    let tra = builder::random_dense(1024, 1024, 33);
    g.bench_function("transpose_1024_blocked", |b| b.iter(|| black_box(tra.transpose())));
    g.bench_function("transpose_1024_reference", |b| {
        b.iter(|| black_box(tra.transpose_reference()))
    });

    // Vector reduction (dot, 1M) — latency-bound, the hardest to speed up.
    g.sample_size(20);
    let v = builder::random_vector(1_000_000, 25);
    let w = builder::random_vector(1_000_000, 26);
    g.bench_function("dot_1m_pooled", |b| b.iter(|| black_box(v.dot(&w))));
    g.bench_function("dot_1m_serial", |b| {
        b.iter(|| pool::serial_scope(|| black_box(v.dot(&w))))
    });
    g.bench_function("dot_1m_reference", |b| b.iter(|| black_box(v.dot_reference(&w))));

    // axpy at 1M: streaming update (alpha tiny so the vector stays bounded
    // across however many iterations the sampler runs).
    let mut av = builder::random_vector(1_000_000, 34);
    g.bench_function("axpy_1m_blocked", |b| {
        b.iter(|| {
            av.axpy(1e-9, black_box(&w));
        })
    });
    g.bench_function("axpy_1m_reference", |b| {
        b.iter(|| {
            av.axpy_reference(1e-9, black_box(&w));
        })
    });
    g.finish();
}

/// Hand-rolled sampler for benchmarks that must run inside the APGAS
/// runtime (Criterion's driver can't cross the `Runtime::run` boundary):
/// same statistics, same `BenchResult` shape as the criterion groups.
fn sample_ns(name: &str, samples: usize, mut f: impl FnMut()) -> BenchResult {
    let mut mean = 0.0f64;
    let mut min = f64::INFINITY;
    let mut max = 0.0f64;
    for _ in 0..samples {
        let t0 = Instant::now();
        f();
        let ns = t0.elapsed().as_nanos() as f64;
        mean += ns / samples as f64;
        min = min.min(ns);
        max = max.max(ns);
    }
    BenchResult { name: name.to_string(), mean_ns: mean, min_ns: min, max_ns: max, samples }
}

/// Numbers harvested from the in-runtime checkpoint benchmarks, alongside
/// the `BenchResult` rows.
struct CkptNumbers {
    results: Vec<BenchResult>,
    /// Mean synchronous capture time per two-phase checkpoint (ns).
    capture_ns: f64,
    /// Mean background ship busy time per two-phase checkpoint (ns).
    ship_ns: f64,
    /// Encode-arena reuse counters over the sampled checkpoints.
    pool_hits: u64,
    pool_misses: u64,
    /// Memory-ledger high-water marks at the end of the checkpoint phase.
    /// Process-global and cumulative over the whole `bench_json` run (the
    /// checkpoint phase runs last), so they bound the run's footprint; all
    /// zero with the `mem-profile` feature off.
    mem_store_high_water: u64,
    mem_arena_parked_high_water: u64,
    mem_heap_peak: u64,
}

/// Minimal iterative app for the overlap measurement: scale a 16-block-per-
/// place dense matrix each step, checkpoint it every iteration.
struct ScaleApp {
    m: DistBlockMatrix,
    total_iters: u64,
}

impl ResilientIterativeApp for ScaleApp {
    fn is_finished(&self, _ctx: &Ctx, iteration: u64) -> bool {
        iteration >= self.total_iters
    }

    fn step(&mut self, ctx: &Ctx, _iteration: u64) -> GmlResult<()> {
        self.m.scale(ctx, 1.0 + 1e-9)
    }

    fn checkpoint(&mut self, ctx: &Ctx, store: &mut AppResilientStore) -> GmlResult<()> {
        store.start_new_snapshot();
        store.save(ctx, &self.m)?;
        store.commit(ctx)
    }

    fn restore(
        &mut self,
        ctx: &Ctx,
        new_places: &PlaceGroup,
        store: &mut AppResilientStore,
        _snapshot_iteration: u64,
        rebalance: bool,
    ) -> GmlResult<()> {
        self.m.remake(ctx, new_places, rebalance)?;
        store.restore(ctx, &mut [&mut self.m])
    }
}

/// 768x512 dense matrix in 64 48x128 blocks over 4 places: 16 blocks
/// (~768KB) per place, so the batched transport collapses 16 per-pair
/// round trips into one framed message per place.
fn bench_matrix(ctx: &Ctx, g: &PlaceGroup) -> DistBlockMatrix {
    let m = DistBlockMatrix::make(ctx, 768, 512, 16, 4, 4, 1, g, false).unwrap();
    m.init_with(ctx, |bi, bj, _r0, _c0, rows, cols| {
        BlockData::Dense(builder::random_dense(rows, cols, 31 + (bi * 4 + bj) as u64))
    })
    .unwrap();
    m
}

/// The checkpoint-plane benchmarks, run inside a 4-place resilient runtime:
/// batched vs per-pair snapshot transport, the two-phase capture/commit
/// path with its phase split, and a full executor run with checkpoint/
/// compute overlap off vs on.
fn run_checkpoint() -> CkptNumbers {
    Runtime::run(RuntimeConfig::new(4).resilient(true), |ctx| {
        let g = ctx.world();
        let m = bench_matrix(ctx, &g);
        let mut results = Vec::new();

        // Transport comparison: the same 64-block snapshot through the
        // batched fast path and the per-pair reference path (ships run
        // inline here — no deferral — so this is end-to-end transport).
        for (batched, name) in [(true, "snapshot_batched"), (false, "snapshot_per_pair")] {
            let store = ResilientStore::make_with_batching(ctx, batched).unwrap();
            let snap = m.make_snapshot(ctx, &store).unwrap(); // warm-up
            store.delete_snapshot(ctx, snap.snap_id).unwrap();
            results.push(sample_ns(&format!("checkpoint_throughput/{name}"), 15, || {
                let snap = m.make_snapshot(ctx, &store).unwrap();
                store.delete_snapshot(ctx, snap.snap_id).unwrap();
            }));
        }

        // Two-phase checkpoint end-to-end (capture + commit barrier), with
        // the capture/ship phase split harvested from the app store.
        let mut astore = AppResilientStore::make(ctx).unwrap();
        astore.start_new_snapshot();
        astore.save(ctx, &m).unwrap(); // warm-up (also primes the arena)
        astore.commit(ctx).unwrap();
        astore.take_phases();
        let samples = 15;
        results.push(sample_ns("checkpoint_throughput/two_phase_commit_e2e", samples, || {
            astore.start_new_snapshot();
            astore.save(ctx, &m).unwrap();
            astore.commit(ctx).unwrap();
        }));
        let (capture, ship) = astore.take_phases();
        let capture_ns = capture.as_nanos() as f64 / samples as f64;
        let ship_ns = ship.as_nanos() as f64 / samples as f64;

        // Encode-arena reuse at checkpoint block size: steady-state encodes
        // must recycle their buffers (the counters are thread-local, so the
        // loop runs the encode on this thread and reads its own counters).
        let block = builder::random_dense(48, 128, 7);
        let _ = black_box(block.to_bytes()); // warm-up: park one buffer
        arena::reset_reuse_stats();
        results.push(sample_ns("checkpoint_throughput/encode_arena_48x128", 200, || {
            let _ = black_box(block.to_bytes());
        }));
        let pool = arena::reuse_stats();

        // Overlap off vs on: the same 6-iteration checkpoint-every-pass run,
        // once with commit() as the ship barrier, once with ships draining
        // behind the next iteration's compute.
        for (overlap, name) in [(false, "run_overlap_off"), (true, "run_overlap_on")] {
            results.push(sample_ns(&format!("checkpoint_throughput/{name}"), 5, || {
                let mut app = ScaleApp { m: bench_matrix(ctx, &g), total_iters: 6 };
                let mut store = AppResilientStore::make(ctx).unwrap();
                let exec = ResilientExecutor::new(
                    ExecutorConfig::new(1, RestoreMode::Shrink).overlap_ship(overlap),
                );
                exec.run(ctx, &mut app, &g, &mut store).unwrap();
            }));
        }

        CkptNumbers {
            results,
            capture_ns,
            ship_ns,
            pool_hits: pool.hits,
            pool_misses: pool.misses,
            mem_store_high_water: mem::high_water(MemTag::StoreShard),
            mem_arena_parked_high_water: mem::high_water(MemTag::SerialArena),
            mem_heap_peak: mem::heap_peak_bytes(),
        }
    })
    .unwrap()
}

fn mean_of<'a>(results: &'a [BenchResult], suffix: &str) -> Option<&'a BenchResult> {
    results.iter().find(|r| r.name.ends_with(suffix))
}

/// Render one result set as a JSON benchmarks array (no trailing newline).
fn benchmarks_json(results: &[BenchResult]) -> String {
    let mut json = String::from("  \"benchmarks\": [\n");
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"max_ns\": {:.1}, \"samples\": {}}}{sep}\n",
            r.name, r.mean_ns, r.min_ns, r.max_ns, r.samples
        ));
    }
    json.push_str("  ]");
    json
}

fn push_speedup(json: &mut String, results: &[BenchResult], key: &str, fast: &str, base: &str) {
    if let (Some(f), Some(b)) = (mean_of(results, fast), mean_of(results, base)) {
        json.push_str(&format!(",\n  \"{key}\": {:.2}", b.mean_ns / f.mean_ns));
    }
}

fn write_file(path: &str, json: &str) {
    let mut f = std::fs::File::create(path).expect("create json");
    f.write_all(json.as_bytes()).expect("write json");
    println!("wrote {path}");
}

/// Host-metadata stamp shared by every output file: numbers are only
/// comparable between runs at equal worker width on similar hardware, and
/// `bench_regress` refuses to diff files whose stamps disagree.
fn host_meta_json() -> String {
    let gml_workers = match std::env::var("GML_WORKERS") {
        Ok(v) if !v.is_empty() => format!("\"{v}\""),
        _ => "null".to_string(),
    };
    format!(
        "  \"workers\": {},\n  \"available_parallelism\": {},\n  \"gml_workers_env\": {},\n",
        pool::workers(),
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        gml_workers,
    )
}

fn main() {
    let mut c = Criterion::default();
    run(&mut c);
    run_kernels(&mut c);
    let (serial, kernel): (Vec<BenchResult>, Vec<BenchResult>) = c
        .results()
        .iter()
        .cloned()
        .partition(|r| r.name.starts_with("serial_throughput/"));

    let mut json = format!("{{\n{}{}", host_meta_json(), benchmarks_json(&serial));
    // Derived speedups of the bulk fast path over the element-wise codec.
    push_speedup(
        &mut json,
        &serial,
        "encode_speedup_f64_1m",
        "vec_f64_1m_encode_bulk",
        "vec_f64_1m_encode_elementwise",
    );
    push_speedup(
        &mut json,
        &serial,
        "decode_speedup_f64_1m",
        "vec_f64_1m_decode_bulk",
        "vec_f64_1m_decode_elementwise",
    );
    json.push_str("\n}\n");
    write_file("BENCH_serial_throughput.json", &json);

    // Kernel pool results: record the worker width the numbers were taken
    // at — a 1-core container honestly reports ~1.0x.
    let mut json = format!("{{\n{}{}", host_meta_json(), benchmarks_json(&kernel));
    // The spmv names embed the realized nnz — match on the stable parts.
    let spmv_pooled = kernel.iter().find(|r| r.name.contains("spmv") && r.name.ends_with("_pooled"));
    let spmv_serial = kernel.iter().find(|r| r.name.contains("spmv") && r.name.ends_with("_serial"));
    if let (Some(p), Some(s)) = (spmv_pooled, spmv_serial) {
        json.push_str(&format!(",\n  \"spmv_speedup_1m\": {:.2}", s.mean_ns / p.mean_ns));
    }
    push_speedup(&mut json, &kernel, "gemm_speedup_512", "gemm_512_pooled", "gemm_512_serial");
    push_speedup(&mut json, &kernel, "dot_speedup_1m", "dot_1m_pooled", "dot_1m_serial");
    // Blocked-vs-reference ratios: the win from tiling/packing/SIMD alone,
    // independent of the pool (reference twins are always serial).
    let spmv_reference =
        kernel.iter().find(|r| r.name.contains("spmv") && r.name.ends_with("_reference"));
    if let (Some(p), Some(r)) = (spmv_pooled, spmv_reference) {
        json.push_str(&format!(",\n  \"spmv_1m_blocked_vs_reference\": {:.2}", r.mean_ns / p.mean_ns));
    }
    push_speedup(
        &mut json,
        &kernel,
        "gemm_512_blocked_vs_reference",
        "gemm_512_pooled",
        "gemm_512_reference",
    );
    push_speedup(
        &mut json,
        &kernel,
        "gemm_tn_acc_100k_32_blocked_vs_reference",
        "gemm_tn_acc_100k_32_blocked",
        "gemm_tn_acc_100k_32_reference",
    );
    push_speedup(
        &mut json,
        &kernel,
        "gemv_2048_blocked_vs_reference",
        "gemv_2048_blocked",
        "gemv_2048_reference",
    );
    push_speedup(
        &mut json,
        &kernel,
        "transpose_1024_blocked_vs_reference",
        "transpose_1024_blocked",
        "transpose_1024_reference",
    );
    push_speedup(&mut json, &kernel, "dot_1m_blocked_vs_reference", "dot_1m_pooled", "dot_1m_reference");
    push_speedup(&mut json, &kernel, "axpy_1m_blocked_vs_reference", "axpy_1m_blocked", "axpy_1m_reference");
    json.push_str("\n}\n");
    write_file("BENCH_kernel_throughput.json", &json);

    // Checkpoint pipeline: transport speedup, capture/ship phase split,
    // overlap saving on a real executor run, encode-arena reuse. Like the
    // kernel numbers, the overlap saving is width-dependent — the ship
    // threads need a spare core to overlap with compute, so a 1-core
    // container honestly reports ~1.0x.
    let ckpt = run_checkpoint();
    let mut json = format!("{{\n{}{}", host_meta_json(), benchmarks_json(&ckpt.results));
    push_speedup(
        &mut json,
        &ckpt.results,
        "batched_transport_speedup",
        "snapshot_batched",
        "snapshot_per_pair",
    );
    json.push_str(&format!(",\n  \"capture_mean_ns\": {:.1}", ckpt.capture_ns));
    json.push_str(&format!(",\n  \"ship_mean_ns\": {:.1}", ckpt.ship_ns));
    push_speedup(
        &mut json,
        &ckpt.results,
        "overlap_run_speedup",
        "run_overlap_on",
        "run_overlap_off",
    );
    if let (Some(on), Some(off)) = (
        mean_of(&ckpt.results, "run_overlap_on"),
        mean_of(&ckpt.results, "run_overlap_off"),
    ) {
        json.push_str(&format!(
            ",\n  \"overlap_saving_ns_per_run\": {:.1}",
            off.mean_ns - on.mean_ns
        ));
    }
    json.push_str(&format!(
        ",\n  \"encode_arena_hits\": {},\n  \"encode_arena_misses\": {}",
        ckpt.pool_hits, ckpt.pool_misses
    ));
    // Memory footprint keys: the regress gate diffs these with the same
    // per-file tolerance machinery as the timing minimums, so a checkpoint
    // path that starts holding substantially more memory fails CI exactly
    // like one that got slower.
    json.push_str(&format!(
        ",\n  \"mem_store_high_water_bytes\": {},\n  \"mem_arena_parked_high_water_bytes\": {},\n  \"mem_heap_peak_bytes\": {}",
        ckpt.mem_store_high_water, ckpt.mem_arena_parked_high_water, ckpt.mem_heap_peak
    ));
    json.push_str("\n}\n");
    write_file("BENCH_checkpoint_throughput.json", &json);
}
