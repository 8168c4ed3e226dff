//! Trace smoke check for CI: runs a small traced resilient workload with an
//! injected failure, validates the Chrome `trace_event` export parses and
//! is non-empty, cross-checks the cost report against the runtime totals,
//! and sanity-bounds the cost of the *disabled* tracing fast path. Any
//! extra command-line arguments are treated as trace JSON files to
//! validate (e.g. one produced by `GML_TRACE_OUT`).
//!
//! Exits non-zero on any violation.

use std::time::{Duration, Instant};

use apgas::prelude::Place;
use apgas::runtime::{Runtime, RuntimeConfig};
use apgas::trace::{validate_chrome_trace, SpanKind, Tracer};
use gml_apps::ResilientPageRank;
use gml_bench::workloads;
use gml_core::{AppResilientStore, ExecutorConfig, FailureInjector, ResilientExecutor, RestoreMode};

fn check_file(path: &str) {
    let json = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("trace smoke: cannot read {path}: {e}"));
    let n = validate_chrome_trace(&json)
        .unwrap_or_else(|e| panic!("trace smoke: {path} is not valid trace JSON: {e}"));
    assert!(n > 0, "trace smoke: {path} holds no events");
    println!("trace smoke: {path} OK ({n} events)");
}

fn traced_run() {
    let rt = Runtime::new(RuntimeConfig::new(4).resilient(true).trace(true));
    let report = rt
        .exec(|ctx| {
            let group = ctx.world();
            let mut cfg = workloads::pagerank_cfg_for(12, group.len());
            cfg.nodes_per_place = 50; // smoke scale, not bench scale
            cfg.out_degree = 4;
            let pr = ResilientPageRank::make(ctx, cfg, &group).unwrap();
            let mut app = FailureInjector::new(pr, 6, Place::new(2));
            let mut store = AppResilientStore::make(ctx).unwrap();
            let exec =
                ResilientExecutor::new(ExecutorConfig::new(4, RestoreMode::ShrinkRebalance));
            let (_, _, report) =
                exec.run_reported(ctx, &mut app, &group, &mut store).unwrap();
            report
        })
        .expect("trace smoke run");
    assert!(report.consistent_with_totals(), "report rows must sum to totals");
    assert!(report.restores() >= 1, "the injected kill must force a restore");
    assert!(report.totals.bytes_shipped > 0 && report.totals.bytes_received > 0);
    assert!(report.totals.bytes_received <= report.totals.bytes_shipped);
    let json = rt.tracer().chrome_json();
    let n = validate_chrome_trace(&json).expect("in-memory export must be valid");
    assert!(n > 0, "in-memory export holds no events");
    assert!(
        rt.tracer().metrics().kind(SpanKind::Restore).snapshot().count >= 1,
        "restore span must be recorded"
    );

    // The export holds the executor's phases as they ran: one
    // `exec.restore` slice per restore and one `exec.step` slice per row
    // that stepped. Only a wrapped ring may have lost some.
    let slices = |name: &str| json.matches(&format!("\"name\":\"{name}\",\"ph\":\"X\"")).count();
    let (restores, steps) = (slices("exec.restore"), slices("exec.step"));
    let stepped = report.rows.iter().filter(|r| !r.step.is_zero()).count();
    let wrapped = rt.tracer().dropped().iter().any(|&d| d > 0);
    if !wrapped {
        assert_eq!(restores as u64, report.restores(), "one exec.restore slice per restore");
        assert_eq!(steps, stepped, "one exec.step slice per row that stepped");
    }
    rt.shutdown();
    println!(
        "trace smoke: traced resilient run OK ({n} events, {restores} restore and {steps} step \
         slices{})",
        if wrapped { ", rings wrapped" } else { "" }
    );
}

/// The disabled span guard must cost (close to) nothing: time a hot encode
/// loop bare and under a disabled tracer, and require the instrumented
/// variant to stay within a generous factor — catching only a broken
/// fast path (e.g. an unconditional clock read), not scheduler noise. The
/// two arms run in alternating blocks, each pair swapping which goes first,
/// and each arm is judged by its fastest block: a block a preemption or a
/// frequency step slowed is outvoted by the arm's other blocks.
fn disabled_overhead_bound() {
    const ROUNDS: usize = 2_000;
    let data: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
    let encode = |data: &[f64]| {
        let mut buf = bytes::BytesMut::with_capacity(8 + 8 * data.len());
        apgas::serial::write_slice(data, &mut buf);
        buf.freeze()
    };
    let off = Tracer::disabled();
    // Warm up both paths.
    for _ in 0..200 {
        std::hint::black_box(encode(&data));
        let _g = off.span(0, SpanKind::Encode, 0);
    }
    let bare_block = || {
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            std::hint::black_box(encode(std::hint::black_box(&data)));
        }
        t0.elapsed()
    };
    let traced_block = || {
        let t1 = Instant::now();
        for _ in 0..ROUNDS {
            let _g = off.span(0, SpanKind::Encode, data.len() as u64);
            std::hint::black_box(encode(std::hint::black_box(&data)));
        }
        t1.elapsed()
    };
    let (mut bare, mut traced_off) = (Duration::MAX, Duration::MAX);
    // Five pairs of blocks, the bare arm first in the even ones.
    for pair in 0..5 {
        let (b, t) = if pair % 2 == 0 {
            let b = bare_block();
            (b, traced_block())
        } else {
            let t = traced_block();
            (bare_block(), t)
        };
        (bare, traced_off) = (bare.min(b), traced_off.min(t));
    }
    let ratio = traced_off.as_secs_f64() / bare.as_secs_f64().max(1e-9);
    println!(
        "trace smoke: disabled-path overhead {bare:?} bare vs {traced_off:?} traced-off, \
         fastest of five alternating blocks each (ratio {ratio:.3})"
    );
    assert!(
        ratio < 1.5,
        "disabled tracing fast path costs {ratio:.2}x the bare loop — it must be free"
    );
}

fn main() {
    for path in std::env::args().skip(1) {
        check_file(&path);
    }
    traced_run();
    disabled_overhead_bound();
    println!("trace smoke: all checks passed");
}
