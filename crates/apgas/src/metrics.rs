//! Log-bucketed latency histograms and the labeled metrics registry.
//!
//! The flat counters in [`crate::stats`] answer *how much*; the histograms
//! here answer *how long, and how badly in the tail* — the distinction the
//! paper's evaluation leans on (mean checkpoint time in Table III hides the
//! p99 ctl round trip that dominates Figs 2–4 at scale). Every traced span
//! kind ([`crate::trace::SpanKind`]) feeds one histogram.
//!
//! Every metric leaves the process as a [`Family`]: each exporter (runtime
//! counters, place health, span latency, pool, memory plane, trace drops,
//! watchdog, and whatever collectors the data layers register) returns
//! families, and [`exposition`] is the one writer of the Prometheus text
//! format. A set of monotonic counters is declared once with
//! [`counter_set!`](crate::counter_set): field, family name and help.
//!
//! Buckets are powers of two over nanoseconds: bucket 0 holds the value 0,
//! bucket *i* (i ≥ 1) holds values in `[2^(i-1), 2^i)`. Recording is a
//! single relaxed `fetch_add`; percentile estimates are resolved from the
//! cumulative bucket counts and reported as the bucket's upper bound
//! (clamped to the exact observed maximum), so `p50 ≤ p95 ≤ p99 ≤ max`
//! always holds.

use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::trace::{SpanKind, SPAN_KIND_COUNT};

/// Number of power-of-two buckets: one for zero plus one per bit of `u64`.
pub const BUCKETS: usize = 65;

/// A lock-free histogram of `u64` samples (typically nanoseconds) in
/// power-of-two buckets.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a value: 0 for 0, otherwise `1 + floor(log2(v))`.
#[inline]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Upper bound (inclusive representative) of bucket `i`.
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample. Relaxed atomics; safe from any thread.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy for percentile queries.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (b, slot) in buckets.iter_mut().zip(self.buckets.iter()) {
            *b = slot.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A frozen copy of a [`Histogram`], with percentile accessors.
#[derive(Clone, Copy, Debug)]
pub struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
    /// Total number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Exact maximum sample.
    pub max: u64,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket in
    /// which the quantile sample falls, clamped to the exact observed max.
    /// Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based: ceil(q * count), at least 1.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 95th percentile estimate.
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// 99th percentile estimate.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Exact arithmetic mean (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// Format nanoseconds compactly for the report table.
pub fn fmt_nanos(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.2}s", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.2}ms", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.2}µs", n as f64 / 1e3)
    } else {
        format!("{n}ns")
    }
}

/// One histogram per [`SpanKind`]. This subsumes
/// the flat [`crate::stats::RuntimeStats`] counters: every histogram also
/// carries a count and a sum, so e.g. the `serial.encode` series reproduces
/// `encode_nanos` as its `sum`.
#[derive(Default)]
pub struct MetricsRegistry {
    kinds: [Histogram; SPAN_KIND_COUNT],
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The histogram for a span kind (lock-free).
    #[inline]
    pub fn kind(&self, k: SpanKind) -> &Histogram {
        &self.kinds[k as usize]
    }

    /// Snapshot every non-empty series as `(span name, snapshot)` pairs,
    /// in kind order. This is what the Prometheus family and the report
    /// table render.
    pub fn snapshots(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        SpanKind::ALL
            .into_iter()
            .map(|k| (k.name(), self.kind(k).snapshot()))
            .filter(|(_, s)| s.count > 0)
            .collect()
    }

    /// Every non-empty series as one `gml_span_latency_nanos` summary:
    /// quantile samples resolved from the log2 buckets, plus `_sum` and
    /// `_count`, labelled by span name.
    pub fn family(&self) -> Family {
        let mut f = Family::new(
            Kind::Summary,
            "gml_span_latency_nanos",
            "Span latency quantiles per traced span kind, in nanoseconds.",
        );
        for (span, s) in self.snapshots() {
            for (q, v) in [("0.5", s.p50()), ("0.95", s.p95()), ("0.99", s.p99()), ("1", s.max)] {
                f.push("", vec![("span", span.into()), ("quantile", q.into())], v);
            }
            f.push("_sum", vec![("span", span.into())], s.sum);
            f.push("_count", vec![("span", span.into())], s.count);
        }
        f
    }

    /// Render every non-empty series as an aligned latency table
    /// (`count / sum / p50 / p95 / p99 / max`).
    pub fn report(&self) -> String {
        let rows = self.snapshots();
        let mut out = String::new();
        out.push_str(&format!(
            "{:<20} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
            "span", "count", "total", "p50", "p95", "p99", "max"
        ));
        for (name, s) in rows {
            out.push_str(&format!(
                "{:<20} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                name,
                s.count,
                fmt_nanos(s.sum),
                fmt_nanos(s.p50()),
                fmt_nanos(s.p95()),
                fmt_nanos(s.p99()),
                fmt_nanos(s.max),
            ));
        }
        out
    }
}

/// The type of a Prometheus family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A monotonic total.
    Counter,
    /// A level that can go down.
    Gauge,
    /// Quantile samples plus `_sum` and `_count`.
    Summary,
}

/// A sample's value: integers are written exactly (scrapers parse them as
/// `u64`), floats with six decimals.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// An exact count or level.
    Int(u64),
    /// A ratio or a duration in seconds.
    Float(f64),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Int(u64::from(v))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

/// A sample's `(key, value)` label pairs; values are escaped when written.
pub type Labels = Vec<(&'static str, String)>;

/// One family of a [`Family::table`]: kind, name, help, and the value of
/// an item.
pub type TableRow<T> = (Kind, &'static str, &'static str, fn(&T) -> Value);

/// One sample line of a [`Family`].
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Appended to the family name: `""`, or a summary's `_sum` / `_count`.
    pub suffix: &'static str,
    /// The sample's labels.
    pub labels: Labels,
    /// The sample's value.
    pub value: Value,
}

/// One Prometheus metric family: what every exporter returns and
/// [`exposition`] writes.
#[derive(Clone, Debug, PartialEq)]
pub struct Family {
    /// Family name, e.g. `gml_place_up`.
    pub name: &'static str,
    /// Counter, gauge or summary.
    pub kind: Kind,
    /// The `# HELP` text.
    pub help: &'static str,
    /// The sample lines, in order.
    pub samples: Vec<Sample>,
}

impl Family {
    /// A family with no samples yet.
    pub fn new(kind: Kind, name: &'static str, help: &'static str) -> Self {
        Family { name, kind, help, samples: Vec::new() }
    }

    /// Append one sample.
    pub fn push(&mut self, suffix: &'static str, labels: Labels, value: impl Into<Value>) {
        self.samples.push(Sample { suffix, labels, value: value.into() });
    }

    /// With one unlabelled sample.
    pub fn value(mut self, value: impl Into<Value>) -> Self {
        self.push("", Vec::new(), value);
        self
    }

    /// With one more sample, labelled `key="label"`.
    pub fn labelled(mut self, key: &'static str, label: impl ToString, value: impl Into<Value>) -> Self {
        self.push("", vec![(key, label.to_string())], value);
        self
    }

    /// One family per `(kind, name, help, value)` row, with one sample per
    /// item labelled `key="label(item)"` — how per-place and per-tag tables
    /// become families.
    pub fn table<T>(
        key: &'static str,
        items: &[T],
        label: impl Fn(&T) -> String,
        rows: &[TableRow<T>],
    ) -> Vec<Family> {
        rows.iter()
            .map(|&(kind, name, help, get)| {
                items.iter().fold(Family::new(kind, name, help), |f, item| {
                    f.labelled(key, label(item), get(item))
                })
            })
            .collect()
    }
}

/// Append a counter sample to `families`: to the last family when it has
/// the same name (one sample per label), else as a new counter family.
pub fn push_counter(
    families: &mut Vec<Family>,
    name: &'static str,
    help: &'static str,
    labels: &[(&'static str, &str)],
    value: u64,
) {
    if families.last().is_none_or(|f| f.name != name) {
        families.push(Family::new(Kind::Counter, name, help));
    }
    let labels = labels.iter().map(|&(k, v)| (k, v.to_string())).collect();
    families.last_mut().expect("pushed above").push("", labels, value);
}

/// Escape a Prometheus label value: backslash, double quote and newline.
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Write `families` in the Prometheus text exposition format: `# HELP` and
/// `# TYPE` once per family, then its samples. A family with no samples is
/// left out (a summary of no spans, a watchdog that has seen no iteration).
pub fn exposition(families: &[Family]) -> String {
    let mut out = String::with_capacity(8192);
    for f in families.iter().filter(|f| !f.samples.is_empty()) {
        let kind = match f.kind {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Summary => "summary",
        };
        let _ = writeln!(out, "# HELP {} {}\n# TYPE {} {kind}", f.name, f.help, f.name);
        for s in &f.samples {
            out.push_str(f.name);
            out.push_str(s.suffix);
            if !s.labels.is_empty() {
                let labels: Vec<String> =
                    s.labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
                let _ = write!(out, "{{{}}}", labels.join(","));
            }
            let _ = match s.value {
                Value::Int(v) => writeln!(out, " {v}"),
                Value::Float(v) => writeln!(out, " {v:.6}"),
            };
        }
    }
    out
}

/// Declare a set of monotonic counters once. Each entry names a field,
/// its Prometheus family and its help text, which is also the field's doc;
/// an entry with no family is kept in the snapshot but not exported.
/// Entries that share a family name sit next to each other, each with its
/// own `{key = "label"}`, and become one family (the first entry's help).
///
/// Generates the live struct of `AtomicU64`s (`new`, `snapshot`) and its
/// `Copy` snapshot (`since`, `merged`, `families`), all derived from the
/// one list.
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$live_meta:meta])*
        $live_vis:vis struct $live:ident;
        $(#[$snap_meta:meta])*
        pub struct $snap:ident {
            $(
                $(#[$doc:meta])*
                $field:ident $(=> $family:literal $({ $key:ident = $label:literal })?, $help:literal)?;
            )*
        }
    ) => {
        $(#[$live_meta])*
        #[derive(Default)]
        $live_vis struct $live {
            $( $(#[doc = $help])? $(#[$doc])* pub $field: ::std::sync::atomic::AtomicU64, )*
        }

        $(#[$snap_meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $snap {
            $( $(#[doc = $help])? $(#[$doc])* pub $field: u64, )*
        }

        impl $live {
            /// Every counter at zero (usable in a `static`).
            pub const fn new() -> Self {
                $live { $( $field: ::std::sync::atomic::AtomicU64::new(0), )* }
            }

            /// A point-in-time copy of the counters.
            pub fn snapshot(&self) -> $snap {
                $snap { $( $field: self.$field.load(::std::sync::atomic::Ordering::Relaxed), )* }
            }
        }

        impl $snap {
            /// Counter-wise difference `self - earlier`, saturating at zero
            /// (a snapshot from before a reset can be ahead of a later one).
            pub fn since(&self, earlier: &Self) -> Self {
                $snap { $( $field: self.$field.saturating_sub(earlier.$field), )* }
            }

            /// Counter-wise sum `self + other` — for folding a late-settling
            /// delta into one already taken, without losing or
            /// double-counting a tick.
            pub fn merged(&self, other: &Self) -> Self {
                $snap { $( $field: self.$field + other.$field, )* }
            }

            /// The exported counters as Prometheus families, in declaration
            /// order.
            pub fn families(&self) -> Vec<$crate::metrics::Family> {
                let mut out = Vec::new();
                $($(
                    $crate::metrics::push_counter(
                        &mut out, $family, $help,
                        &[$((stringify!($key), $label))?], self.$field,
                    );
                )?)*
                out
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.percentile(0.5), 0);
        assert_eq!(s.mean(), 0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn single_value_percentiles() {
        let h = Histogram::new();
        h.record(700);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 700);
        assert_eq!(s.max, 700);
        // 700 lands in bucket [512, 1023]; representative clamps to max.
        assert_eq!(s.p50(), 700);
        assert_eq!(s.p99(), 700);
    }

    #[test]
    fn percentiles_are_monotonic_and_bucket_accurate() {
        let h = Histogram::new();
        // 90 cheap samples, 10 expensive ones: p50 must sit in the cheap
        // bucket, p95/p99 in the expensive one.
        for _ in 0..90 {
            h.record(100); // bucket [64,127]
        }
        for _ in 0..10 {
            h.record(1_000_000); // bucket [2^19, 2^20)
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50(), 127);
        // Upper bound of the 1M bucket is 2^20-1, clamped to the exact max.
        assert_eq!(s.p95(), 1_000_000);
        assert!(s.p50() <= s.p95());
        assert!(s.p95() <= s.p99());
        assert!(s.p99() <= s.max);
        assert_eq!(s.max, 1_000_000);
        assert_eq!(s.mean(), (90 * 100 + 10 * 1_000_000) / 100);
    }

    #[test]
    fn percentile_rank_edges() {
        let h = Histogram::new();
        for v in [1u64, 2, 4, 8] {
            h.record(v);
        }
        let s = h.snapshot();
        // Rank 1 of 4 at q=0.25 → the smallest sample's bucket.
        assert_eq!(s.percentile(0.25), 1);
        assert_eq!(s.percentile(1.0), 8);
        assert_eq!(s.percentile(0.0), 1, "q=0 still returns the first sample");
    }

    #[test]
    fn zero_values_occupy_bucket_zero() {
        let h = Histogram::new();
        for _ in 0..5 {
            h.record(0);
        }
        h.record(9);
        let s = h.snapshot();
        assert_eq!(s.p50(), 0);
        assert_eq!(s.max, 9);
        assert_eq!(s.percentile(1.0), 9);
    }

    #[test]
    fn registry_reports_non_empty_kind_series() {
        let m = MetricsRegistry::new();
        m.kind(SpanKind::Encode).record(10);
        m.kind(SpanKind::Encode).record(20);
        m.kind(SpanKind::Step).record(5);
        let s = m.kind(SpanKind::Encode).snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, 30);
        let report = m.report();
        assert!(report.contains("serial.encode"));
        assert!(report.contains("exec.step"));
        assert!(!report.contains("exec.restore"), "empty series are omitted");
    }

    #[test]
    fn fmt_nanos_scales() {
        assert_eq!(fmt_nanos(5), "5ns");
        assert_eq!(fmt_nanos(1_500), "1.50µs");
        assert_eq!(fmt_nanos(2_500_000), "2.50ms");
        assert_eq!(fmt_nanos(3_000_000_000), "3.00s");
    }
}
