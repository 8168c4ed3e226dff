//! Live health monitoring and the Prometheus text-format scrape endpoint.
//!
//! The trace rings ([`crate::trace`]) answer *what happened* after a run;
//! this module answers *what is happening now*. Each place carries a
//! [`PlaceHealth`] heartbeat block — mailbox depth, dispatched/completed
//! task counts, last-activity age — updated with single relaxed atomics
//! from the send path and the dispatcher loop, so the hot path gains no
//! locks. A [`MonitorServer`] serves the whole picture (runtime counters,
//! span-latency quantiles, per-place health, plus any registered extra
//! collectors such as the snapshot-store inventory) in Prometheus text
//! exposition format over a hand-rolled HTTP/1.0 listener, keeping the
//! workspace dependency-free.
//!
//! Enablement mirrors tracing: `RuntimeConfig::monitor_port` forces it,
//! otherwise the `GML_MONITOR_PORT` environment variable decides (unset →
//! disabled; port `0` → bind an ephemeral port). When disabled, every
//! heartbeat update is a single predictable branch.

/// Online anomaly detection layered on these heartbeats — see its module
/// docs for the EWMA model and tuning knobs.
#[path = "watchdog.rs"]
pub mod watchdog;

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::metrics::HistogramSnapshot;
use crate::stats::StatsSnapshot;

/// Parse an environment variable, falling back to `default` — loudly — when
/// the value is present but unparsable. A silent fallback hides typos like
/// `GML_TRACE_BUF=64k`; the paper's evaluation methodology depends on
/// knowing which knobs were actually in effect.
pub fn env_parsed<T>(name: &str, default: T) -> T
where
    T: std::str::FromStr + std::fmt::Display,
{
    match std::env::var(name) {
        Err(_) => default,
        Ok(raw) => match raw.trim().parse::<T>() {
            Ok(v) => v,
            Err(_) => {
                eprintln!("{name}: unparsable value {raw:?}; using default {default}");
                default
            }
        },
    }
}

/// Parse a float-valued environment variable with range validation, falling
/// back to `default` — loudly — on any value that is unparsable, non-finite,
/// or outside `[min, max]`. [`env_parsed`] alone is not enough for floats:
/// `f64::from_str` happily accepts `"nan"`, `"inf"`, and wildly out-of-range
/// values, which then silently poison downstream math (an EWMA fed a NaN
/// alpha never recovers — `NaN.clamp(..)` is still NaN).
pub fn env_parsed_float(name: &str, default: f64, min: f64, max: f64) -> f64 {
    match std::env::var(name) {
        Err(_) => default,
        Ok(raw) => match raw.trim().parse::<f64>() {
            Ok(v) if v.is_finite() && v >= min && v <= max => v,
            Ok(v) => {
                eprintln!(
                    "{name}: value {v} outside valid range [{min}, {max}]; \
                     using default {default}"
                );
                default
            }
            Err(_) => {
                eprintln!("{name}: unparsable value {raw:?}; using default {default}");
                default
            }
        },
    }
}

/// Read `GML_MONITOR_PORT`: unset → monitoring disabled; a valid port
/// (including `0` for an ephemeral bind) → enabled; an unparsable value →
/// disabled, with a one-line stderr warning naming the variable.
pub(crate) fn port_from_env() -> Option<u16> {
    match std::env::var("GML_MONITOR_PORT") {
        Err(_) => None,
        Ok(raw) => match raw.trim().parse::<u16>() {
            Ok(p) => Some(p),
            Err(_) => {
                eprintln!(
                    "GML_MONITOR_PORT: unparsable value {raw:?}; \
                     using default (monitoring disabled)"
                );
                None
            }
        },
    }
}

/// Per-place heartbeat counters, updated with relaxed atomics only.
///
/// Mailbox depth is derived as `enqueued - dequeued` because a
/// `std::sync::mpsc` channel does not report its length; both counters are
/// bumped on paths that already hold the data they need (the sender just
/// looked the place up, the dispatcher owns its receiver), so no extra
/// synchronization is added.
#[derive(Default)]
pub struct PlaceHealth {
    enqueued: AtomicU64,
    dequeued: AtomicU64,
    dispatched: AtomicU64,
    completed: AtomicU64,
    /// Nanoseconds since the board's epoch at the last dispatcher activity.
    last_activity: AtomicU64,
}

impl PlaceHealth {
    /// A zeroed heartbeat block.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The runtime-wide switchboard for heartbeat updates.
///
/// Holds only the enabled flag and the time epoch; the counters live in each
/// place's [`PlaceHealth`]. Every update method is a single branch when
/// monitoring is off — the same zero-cost-off discipline as
/// [`Tracer::is_on`](crate::trace::Tracer::is_on).
pub struct HealthBoard {
    enabled: bool,
    epoch: Instant,
    /// One bit per place (ids ≥ 64 share the top bit): set when the
    /// watchdog flags the place as anomalous. Unlike the heartbeat
    /// counters this works even with monitoring off, so examples can
    /// demonstrate anomaly detection without a scrape server.
    anomaly_mask: AtomicU64,
}

impl HealthBoard {
    /// A board with monitoring on or off.
    pub fn new(enabled: bool) -> Self {
        HealthBoard { enabled, epoch: Instant::now(), anomaly_mask: AtomicU64::new(0) }
    }

    /// Raise the anomaly flag for `place` (watchdog verdicts land here).
    pub fn raise_anomaly(&self, place: u32) {
        self.anomaly_mask.fetch_or(1u64 << place.min(63), Ordering::Relaxed);
    }

    /// Clear the anomaly flag for `place` (e.g. after operator review).
    pub fn clear_anomaly(&self, place: u32) {
        self.anomaly_mask.fetch_and(!(1u64 << place.min(63)), Ordering::Relaxed);
    }

    /// The raw anomaly bitmask (bit *n* → place *n*, saturating at 63).
    pub fn anomaly_mask(&self) -> u64 {
        self.anomaly_mask.load(Ordering::Relaxed)
    }

    /// Is heartbeat collection active?
    #[inline]
    pub fn is_on(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since this board was created.
    #[inline]
    pub fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// An envelope entered the place's mailbox.
    #[inline]
    pub fn on_enqueue(&self, h: &PlaceHealth) {
        if self.enabled {
            h.enqueued.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The dispatcher pulled an envelope off the mailbox.
    #[inline]
    pub fn on_dequeue(&self, h: &PlaceHealth) {
        if self.enabled {
            h.dequeued.fetch_add(1, Ordering::Relaxed);
            h.last_activity.store(self.now_nanos(), Ordering::Relaxed);
        }
    }

    /// A task was handed to the worker pool.
    #[inline]
    pub fn on_dispatch(&self, h: &PlaceHealth) {
        if self.enabled {
            h.dispatched.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A dispatched task ran to completion (or unwound).
    #[inline]
    pub fn on_complete(&self, h: &PlaceHealth) {
        if self.enabled {
            h.completed.fetch_add(1, Ordering::Relaxed);
            h.last_activity.store(self.now_nanos(), Ordering::Relaxed);
        }
    }

    /// Freeze one place's heartbeat into a [`HealthSnapshot`]. `up` comes
    /// from the runtime's liveness flag so the gauge flips the instant a
    /// kill lands, independent of heartbeat traffic.
    pub fn snapshot(&self, place: u32, up: bool, h: &PlaceHealth) -> HealthSnapshot {
        let enqueued = h.enqueued.load(Ordering::Relaxed);
        let dequeued = h.dequeued.load(Ordering::Relaxed);
        HealthSnapshot {
            place,
            up,
            mailbox_depth: enqueued.saturating_sub(dequeued),
            dispatched: h.dispatched.load(Ordering::Relaxed),
            completed: h.completed.load(Ordering::Relaxed),
            anomalous: self.anomaly_mask() & (1u64 << place.min(63)) != 0,
            last_activity_age_nanos: self
                .now_nanos()
                .saturating_sub(h.last_activity.load(Ordering::Relaxed)),
        }
    }
}

/// A point-in-time view of one place's heartbeat gauges.
#[derive(Clone, Copy, Debug)]
pub struct HealthSnapshot {
    /// Place id.
    pub place: u32,
    /// Liveness: false once a fail-stop kill has landed.
    pub up: bool,
    /// Envelopes enqueued but not yet pulled by the dispatcher.
    pub mailbox_depth: u64,
    /// Tasks handed to the worker pool so far.
    pub dispatched: u64,
    /// Dispatched tasks that have finished running.
    pub completed: u64,
    /// Whether the performance watchdog has flagged this place.
    pub anomalous: bool,
    /// Nanoseconds since the dispatcher last showed signs of life (since
    /// startup if it never has).
    pub last_activity_age_nanos: u64,
}

/// Escape a string for use inside a Prometheus label value.
fn esc_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn family_header(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

/// Render the flat runtime counters as `gml_*_total` counter families.
pub fn render_stats(out: &mut String, s: &StatsSnapshot) {
    let counters: [(&str, u64, &str); 15] = [
        ("gml_tasks_spawned_total", s.tasks_spawned, "Tasks spawned via at/async_at."),
        ("gml_at_calls_total", s.at_calls, "Synchronous at() round trips."),
        ("gml_ctl_spawns_total", s.ctl_spawns, "Resilient-finish spawn records at place zero."),
        ("gml_ctl_terms_total", s.ctl_terms, "Resilient-finish termination records."),
        ("gml_ctl_waits_total", s.ctl_waits, "Resilient-finish wait registrations."),
        ("gml_ctl_local_total", s.ctl_local, "Resilient-finish registry operations applied directly at place zero."),
        ("gml_bytes_shipped_total", s.bytes_shipped, "Payload bytes serialized for a place crossing."),
        ("gml_bytes_received_total", s.bytes_received, "Payload bytes landed at a receiving place."),
        ("gml_encode_nanos_total", s.encode_nanos, "Wall nanoseconds spent encoding payloads."),
        ("gml_decode_nanos_total", s.decode_nanos, "Wall nanoseconds spent decoding payloads."),
        ("gml_failures_total", s.failures, "Fail-stop place failures injected."),
        ("gml_places_spawned_total", s.places_spawned, "Places created elastically at runtime."),
        ("gml_task_replays_total", s.task_replays, "Task bodies replayed after a panic or timeout."),
        ("gml_task_timeouts_total", s.task_timeouts, "Task attempts abandoned on a policy deadline."),
        (
            "gml_task_vote_mismatches_total",
            s.task_vote_mismatches,
            "Replica digest votes with at least one dissenting replica.",
        ),
    ];
    for (name, v, help) in counters {
        family_header(out, name, "counter", help);
        out.push_str(&format!("{name} {v}\n"));
    }
}

/// Render per-place heartbeat gauges.
pub fn render_health(out: &mut String, snaps: &[HealthSnapshot]) {
    family_header(out, "gml_place_up", "gauge", "1 while the place is alive, 0 after a fail-stop kill.");
    for h in snaps {
        out.push_str(&format!("gml_place_up{{place=\"{}\"}} {}\n", h.place, u64::from(h.up)));
    }
    family_header(out, "gml_place_mailbox_depth", "gauge", "Envelopes enqueued but not yet dispatched.");
    for h in snaps {
        out.push_str(&format!("gml_place_mailbox_depth{{place=\"{}\"}} {}\n", h.place, h.mailbox_depth));
    }
    family_header(out, "gml_place_tasks_dispatched_total", "counter", "Tasks handed to the worker pool.");
    for h in snaps {
        out.push_str(&format!(
            "gml_place_tasks_dispatched_total{{place=\"{}\"}} {}\n",
            h.place, h.dispatched
        ));
    }
    family_header(out, "gml_place_tasks_completed_total", "counter", "Dispatched tasks that finished.");
    for h in snaps {
        out.push_str(&format!(
            "gml_place_tasks_completed_total{{place=\"{}\"}} {}\n",
            h.place, h.completed
        ));
    }
    family_header(
        out,
        "gml_place_anomaly",
        "gauge",
        "1 while the performance watchdog has this place flagged as anomalous.",
    );
    for h in snaps {
        out.push_str(&format!(
            "gml_place_anomaly{{place=\"{}\"}} {}\n",
            h.place,
            u64::from(h.anomalous)
        ));
    }
    family_header(
        out,
        "gml_place_last_activity_age_seconds",
        "gauge",
        "Seconds since the place's dispatcher last moved an envelope.",
    );
    for h in snaps {
        out.push_str(&format!(
            "gml_place_last_activity_age_seconds{{place=\"{}\"}} {:.6}\n",
            h.place,
            h.last_activity_age_nanos as f64 / 1e9
        ));
    }
}

/// Render per-place trace-ring overflow counters. A nonzero value means the
/// seqlock ring wrapped and the oldest events were overwritten — consumers
/// of the trace (critical-path analysis, forensics tails) saw an incomplete
/// record for the early part of the run.
pub fn render_dropped(out: &mut String, dropped: &[u64], flow_dropped: u64) {
    family_header(
        out,
        "gml_trace_dropped_total",
        "counter",
        "Trace events lost to ring wraparound, per place; the kind=\"flow_half\" \
         series counts flow arrows suppressed at Chrome export because their \
         start span had been overwritten.",
    );
    for (place, d) in dropped.iter().enumerate() {
        out.push_str(&format!("gml_trace_dropped_total{{place=\"{place}\"}} {d}\n"));
    }
    out.push_str(&format!("gml_trace_dropped_total{{kind=\"flow_half\"}} {flow_dropped}\n"));
}

/// Render span-latency histogram summaries: one `gml_span_latency_nanos`
/// series per non-empty span kind / named series, with quantile labels plus
/// `_count` and `_sum` — Prometheus summary-style, resolved from the
/// log2-bucket snapshots.
pub fn render_metrics(out: &mut String, series: &[(String, HistogramSnapshot)]) {
    if series.is_empty() {
        return;
    }
    family_header(
        out,
        "gml_span_latency_nanos",
        "summary",
        "Span latency quantiles per traced span kind, in nanoseconds.",
    );
    for (name, s) in series {
        let span = esc_label(name);
        for (q, v) in
            [("0.5", s.p50()), ("0.95", s.p95()), ("0.99", s.p99()), ("1", s.max)]
        {
            out.push_str(&format!(
                "gml_span_latency_nanos{{span=\"{span}\",quantile=\"{q}\"}} {v}\n"
            ));
        }
        out.push_str(&format!("gml_span_latency_nanos_sum{{span=\"{span}\"}} {}\n", s.sum));
        out.push_str(&format!("gml_span_latency_nanos_count{{span=\"{span}\"}} {}\n", s.count));
    }
}

/// Render the intra-place compute pool's process-wide gauges and counters.
pub fn render_pool(out: &mut String) {
    let c = crate::pool::counters();
    family_header(
        out,
        "gml_pool_workers",
        "gauge",
        "Compute-pool workers, including the submitting thread (fixed at first use).",
    );
    out.push_str(&format!("gml_pool_workers {}\n", crate::pool::workers()));
    let counters: [(&str, u64, &str); 4] = [
        ("gml_pool_jobs_inline_total", c.jobs_inline, "Pool jobs executed inline on the caller."),
        ("gml_pool_jobs_parallel_total", c.jobs_parallel, "Pool jobs fanned out to helper threads."),
        ("gml_pool_chunks_total", c.chunks, "Work chunks executed by the pool."),
        ("gml_pool_busy_nanos_total", c.busy_nanos, "Wall nanoseconds spent inside parallel pool jobs."),
    ];
    for (name, v, help) in counters {
        family_header(out, name, "counter", help);
        out.push_str(&format!("{name} {v}\n"));
    }
}

/// Render the memory plane: the per-tag byte ledger plus the counting
/// allocator's process-wide heap gauges. With `mem-profile` compiled out
/// every sample renders as 0.
pub fn render_mem(out: &mut String) {
    let r = crate::mem::report();
    family_header(
        out,
        "gml_mem_tag_bytes",
        "gauge",
        "Bytes currently charged to each subsystem ledger tag.",
    );
    for t in &r.tags {
        out.push_str(&format!("gml_mem_tag_bytes{{tag=\"{}\"}} {}\n", t.tag.label(), t.current));
    }
    family_header(
        out,
        "gml_mem_tag_high_water_bytes",
        "gauge",
        "High-water mark of bytes charged to each subsystem ledger tag.",
    );
    for t in &r.tags {
        out.push_str(&format!(
            "gml_mem_tag_high_water_bytes{{tag=\"{}\"}} {}\n",
            t.tag.label(),
            t.high_water
        ));
    }
    family_header(
        out,
        "gml_mem_tag_charges_total",
        "counter",
        "Cumulative charge operations against each subsystem ledger tag.",
    );
    for t in &r.tags {
        out.push_str(&format!(
            "gml_mem_tag_charges_total{{tag=\"{}\"}} {}\n",
            t.tag.label(),
            t.charges
        ));
    }
    family_header(out, "gml_mem_heap_bytes", "gauge", "Live heap bytes (counting allocator).");
    out.push_str(&format!("gml_mem_heap_bytes {}\n", r.heap_bytes));
    family_header(
        out,
        "gml_mem_heap_peak_bytes",
        "gauge",
        "Peak live heap bytes since process start.",
    );
    out.push_str(&format!("gml_mem_heap_peak_bytes {}\n", r.heap_peak_bytes));
    family_header(
        out,
        "gml_mem_heap_allocs_total",
        "counter",
        "Heap allocations since process start.",
    );
    out.push_str(&format!("gml_mem_heap_allocs_total {}\n", r.heap_allocs));
}

/// Render the `bytes` buffer pool's reuse counters and parked level (the
/// `serial_arena` ledger tag).
pub fn render_arena(out: &mut String) {
    let s = bytes::global_pool_stats();
    let counters: [(&str, u64, &str); 3] = [
        ("gml_arena_hits_total", s.hits, "Buffer requests served from the pool."),
        ("gml_arena_misses_total", s.misses, "Buffer requests that hit the allocator."),
        ("gml_arena_recycled_total", s.recycled, "Retired buffers parked back into the pool."),
    ];
    for (name, v, help) in counters {
        family_header(out, name, "counter", help);
        out.push_str(&format!("{name} {v}\n"));
    }
    family_header(
        out,
        "gml_arena_parked_bytes",
        "gauge",
        "Capacity currently parked in the buffer pool.",
    );
    out.push_str(&format!("gml_arena_parked_bytes {}\n", s.parked_bytes));
    family_header(
        out,
        "gml_arena_parked_high_water_bytes",
        "gauge",
        "High-water mark of parked pool capacity.",
    );
    out.push_str(&format!("gml_arena_parked_high_water_bytes {}\n", s.parked_bytes_high_water));
}

/// The hand-rolled HTTP/1.0 scrape server.
///
/// One accept loop on a dedicated thread; each connection gets the full
/// rendered exposition with `Content-Length` and `Connection: close`, which
/// is all a Prometheus scraper (or `curl`) needs. Shutdown sets a stop flag
/// and self-connects to unblock `accept`.
pub struct MonitorServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MonitorServer {
    /// Bind `127.0.0.1:port` (0 → ephemeral) and serve `render()` on every
    /// request until [`MonitorServer::stop`].
    pub fn start(
        port: u16,
        render: Arc<dyn Fn() -> String + Send + Sync>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("gml-monitor".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop2.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    serve_one(stream, &render);
                }
            })
            .expect("spawn monitor server thread");
        Ok(MonitorServer { addr, stop, handle: Some(handle) })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the accept loop and join the server thread. Idempotent.
    pub fn stop(&mut self) {
        if let Some(h) = self.handle.take() {
            self.stop.store(true, Ordering::Release);
            // Unblock accept(); the loop re-checks the flag before serving.
            let _ = TcpStream::connect(self.addr);
            let _ = h.join();
        }
    }
}

impl Drop for MonitorServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_one(mut stream: TcpStream, render: &Arc<dyn Fn() -> String + Send + Sync>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    // Drain the request head; HTTP/1.0 headers end at the first blank line.
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let body = render();
    let resp = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(resp.as_bytes());
    let _ = stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_board_records_nothing() {
        let board = HealthBoard::new(false);
        let h = PlaceHealth::new();
        board.on_enqueue(&h);
        board.on_dequeue(&h);
        board.on_dispatch(&h);
        board.on_complete(&h);
        let s = board.snapshot(0, true, &h);
        assert_eq!(s.mailbox_depth, 0);
        assert_eq!(s.dispatched, 0);
        assert_eq!(s.completed, 0);
    }

    #[test]
    fn enabled_board_tracks_depth_and_counts() {
        let board = HealthBoard::new(true);
        let h = PlaceHealth::new();
        board.on_enqueue(&h);
        board.on_enqueue(&h);
        board.on_enqueue(&h);
        board.on_dequeue(&h);
        board.on_dispatch(&h);
        board.on_complete(&h);
        let s = board.snapshot(3, true, &h);
        assert_eq!(s.place, 3);
        assert!(s.up);
        assert_eq!(s.mailbox_depth, 2, "3 enqueued, 1 dequeued");
        assert_eq!(s.dispatched, 1);
        assert_eq!(s.completed, 1);
    }

    #[test]
    fn render_health_emits_all_gauges() {
        let board = HealthBoard::new(true);
        let h = PlaceHealth::new();
        board.on_enqueue(&h);
        let snaps =
            vec![board.snapshot(0, true, &h), board.snapshot(1, false, &PlaceHealth::new())];
        let mut out = String::new();
        render_health(&mut out, &snaps);
        assert!(out.contains("gml_place_up{place=\"0\"} 1"));
        assert!(out.contains("gml_place_up{place=\"1\"} 0"));
        assert!(out.contains("gml_place_mailbox_depth{place=\"0\"} 1"));
        assert!(out.contains("gml_place_last_activity_age_seconds{place=\"1\"}"));
    }

    #[test]
    fn anomaly_flags_survive_snapshots_and_render() {
        let board = HealthBoard::new(false); // flags work with monitoring off
        let h = PlaceHealth::new();
        assert!(!board.snapshot(2, true, &h).anomalous);
        board.raise_anomaly(2);
        assert!(board.snapshot(2, true, &h).anomalous);
        assert_eq!(board.anomaly_mask(), 1 << 2);
        let mut out = String::new();
        render_health(&mut out, &[board.snapshot(2, true, &h)]);
        assert!(out.contains("gml_place_anomaly{place=\"2\"} 1"));
        board.clear_anomaly(2);
        assert!(!board.snapshot(2, true, &h).anomalous);
    }

    #[test]
    fn render_dropped_emits_per_place_counters() {
        let mut out = String::new();
        render_dropped(&mut out, &[0, 17, 0], 3);
        assert!(out.contains("# TYPE gml_trace_dropped_total counter"));
        assert!(out.contains("gml_trace_dropped_total{place=\"0\"} 0"));
        assert!(out.contains("gml_trace_dropped_total{place=\"1\"} 17"));
        assert!(out.contains("gml_trace_dropped_total{kind=\"flow_half\"} 3"));
    }

    #[test]
    fn render_mem_emits_every_tag_and_heap_gauges() {
        let mut out = String::new();
        render_mem(&mut out);
        assert!(out.contains("# TYPE gml_mem_tag_bytes gauge"));
        for tag in crate::mem::TAGS {
            assert!(
                out.contains(&format!("gml_mem_tag_bytes{{tag=\"{}\"}}", tag.label())),
                "missing tag {}",
                tag.label()
            );
            assert!(out
                .contains(&format!("gml_mem_tag_high_water_bytes{{tag=\"{}\"}}", tag.label())));
        }
        assert!(out.contains("gml_mem_heap_bytes "));
        assert!(out.contains("gml_mem_heap_peak_bytes "));
        assert!(out.contains("gml_mem_heap_allocs_total "));
    }

    #[test]
    fn render_arena_emits_pool_counters() {
        let mut out = String::new();
        render_arena(&mut out);
        for family in
            ["gml_arena_hits_total", "gml_arena_misses_total", "gml_arena_recycled_total"]
        {
            assert!(out.contains(&format!("# TYPE {family} counter")), "{family} missing");
        }
        assert!(out.contains("gml_arena_parked_bytes "));
        assert!(out.contains("gml_arena_parked_high_water_bytes "));
    }

    #[test]
    fn render_stats_emits_every_counter() {
        let mut out = String::new();
        render_stats(&mut out, &StatsSnapshot::default());
        for family in [
            "gml_tasks_spawned_total",
            "gml_failures_total",
            "gml_bytes_shipped_total",
            "gml_task_replays_total",
            "gml_task_timeouts_total",
            "gml_task_vote_mismatches_total",
        ] {
            assert!(out.contains(&format!("# TYPE {family} counter")), "{family} missing");
            assert!(out.contains(&format!("{family} 0")), "{family} sample missing");
        }
    }

    #[test]
    fn render_metrics_quantile_lines() {
        let h = crate::metrics::Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        let series = vec![("exec.step".to_string(), h.snapshot())];
        let mut out = String::new();
        render_metrics(&mut out, &series);
        assert!(out.contains("gml_span_latency_nanos{span=\"exec.step\",quantile=\"0.5\"}"));
        assert!(out.contains("gml_span_latency_nanos_count{span=\"exec.step\"} 3"));
        assert!(out.contains("gml_span_latency_nanos_sum{span=\"exec.step\"} 60"));
    }

    #[test]
    fn server_serves_rendered_body_and_stops() {
        let render: Arc<dyn Fn() -> String + Send + Sync> =
            Arc::new(|| "gml_test_metric 42\n".to_string());
        let mut srv = MonitorServer::start(0, render).unwrap();
        let addr = srv.addr();
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n").unwrap();
        let mut resp = String::new();
        conn.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.0 200 OK"));
        assert!(resp.contains("text/plain; version=0.0.4"));
        assert!(resp.contains("gml_test_metric 42"));
        srv.stop();
        srv.stop(); // idempotent
    }

    #[test]
    fn env_parsed_accepts_and_rejects() {
        // No env manipulation here (tests run concurrently); exercise the
        // parse paths the helper wraps instead.
        assert_eq!("64".trim().parse::<usize>().ok(), Some(64));
        assert_eq!("64k".trim().parse::<usize>().ok(), None);
        // Unset variable falls straight through to the default.
        assert_eq!(env_parsed("GML_TEST_UNSET_VAR_XYZ", 7usize), 7);
    }

    #[test]
    fn env_parsed_float_rejects_nonfinite_and_out_of_range() {
        // Unset → default.
        assert_eq!(env_parsed_float("GML_TEST_UNSET_FLOAT_XYZ", 0.2, 0.01, 1.0), 0.2);
        // Var names are unique to this test, so concurrent tests never read
        // them and set_var is race-free in practice.
        let var = "GML_TEST_FLOAT_VALIDATION_XYZ";
        // These all *parse* as f64 — that is exactly the silent-poison
        // hazard — and must be rejected by the finite/range check.
        for bad in ["nan", "inf", "-inf", "-3", "1.5e300", "0.0"] {
            std::env::set_var(var, bad);
            assert_eq!(
                env_parsed_float(var, 0.2, 0.01, 1.0),
                0.2,
                "{bad} must fall back to the default for an alpha knob"
            );
        }
        // Unparsable text takes the other warn path, same fallback.
        std::env::set_var(var, "fast");
        assert_eq!(env_parsed_float(var, 0.2, 0.01, 1.0), 0.2);
        // In-range values pass through exactly.
        for (good, want) in [("0.5", 0.5), ("1", 1.0), ("0.01", 0.01)] {
            std::env::set_var(var, good);
            assert_eq!(env_parsed_float(var, 0.2, 0.01, 1.0), want);
        }
        std::env::remove_var(var);
    }

    #[test]
    fn label_escaping() {
        assert_eq!(esc_label("plain"), "plain");
        assert_eq!(esc_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
