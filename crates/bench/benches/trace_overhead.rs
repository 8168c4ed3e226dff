//! Cost of the tracing instrumentation on the serialization hot loop, the
//! same shape as the `serial_throughput` group: the `trace_off` variants
//! must be indistinguishable from the uninstrumented baseline (the disabled
//! `SpanGuard` takes no clock reading and touches no atomics), while
//! `trace_on` shows the real price of a ring push + histogram record.

use apgas::serial::write_slice;
use apgas::trace::{SpanKind, Tracer, DEFAULT_RING_CAPACITY};
use bytes::BytesMut;
use criterion::{criterion_group, criterion_main, Criterion};
use gml_matrix::builder;
use std::hint::black_box;

fn bench_span_primitives(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace_overhead");

    let off = Tracer::disabled();
    g.bench_function("span_guard_disabled", |b| {
        b.iter(|| {
            let _g = off.span(0, SpanKind::Encode, black_box(1));
        })
    });

    let on = Tracer::enabled(DEFAULT_RING_CAPACITY);
    on.ensure_place(1);
    g.bench_function("span_guard_enabled", |b| {
        b.iter(|| {
            let _g = on.span(0, SpanKind::Encode, black_box(1));
        })
    });
    g.bench_function("instant_enabled", |b| {
        b.iter(|| on.instant(0, SpanKind::AsyncAt, black_box(1)))
    });
    g.finish();
}

/// The instrumented hot loop itself: encode a 10k-element f64 payload
/// (the checkpoint data plane's unit of work) bare, under a disabled
/// tracer, and under an enabled one.
fn bench_hot_loop(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace_overhead_hot_loop");
    let data = builder::random_vector(10_000, 17).into_vec();
    let encode = |data: &[f64]| {
        let mut buf = BytesMut::with_capacity(8 + 8 * data.len());
        write_slice(data, &mut buf);
        buf.freeze()
    };

    g.bench_function("encode_10k_untraced", |b| b.iter(|| black_box(encode(black_box(&data)))));

    let off = Tracer::disabled();
    g.bench_function("encode_10k_trace_off", |b| {
        b.iter(|| {
            let _g = off.span(0, SpanKind::Encode, data.len() as u64);
            black_box(encode(black_box(&data)))
        })
    });

    let on = Tracer::enabled(DEFAULT_RING_CAPACITY);
    on.ensure_place(1);
    g.bench_function("encode_10k_trace_on", |b| {
        b.iter(|| {
            let _g = on.span(0, SpanKind::Encode, data.len() as u64);
            black_box(encode(black_box(&data)))
        })
    });
    g.finish();
}

criterion_group!(trace_overhead, bench_span_primitives, bench_hot_loop);
criterion_main!(trace_overhead);
