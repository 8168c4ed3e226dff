//! Live health monitoring and the Prometheus text-format scrape endpoint.
//!
//! The trace rings ([`crate::trace`]) answer *what happened* after a run;
//! this module answers *what is happening now*. Each place carries a
//! [`PlaceHealth`] heartbeat block — mailbox depth, dispatched/completed
//! task counts, last-activity age — updated with single relaxed atomics
//! from the send path and the dispatcher loop, so the hot path gains no
//! locks. A [`MonitorServer`] serves the whole picture (runtime counters,
//! span-latency quantiles, per-place health, plus any registered extra
//! collectors such as the snapshot-store inventory) over a hand-rolled
//! HTTP/1.0 listener, keeping the workspace dependency-free. Every part of
//! that picture is a [`Family`]; [`crate::metrics::exposition`] writes the
//! text.
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

use crate::metrics::{Family, Kind};

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

/// The per-place heartbeat gauges and counters, one sample per place.
pub fn health_families(snaps: &[HealthSnapshot]) -> Vec<Family> {
    Family::table("place", snaps, |h| h.place.to_string(), &[
        (Kind::Gauge, "gml_place_up", "1 while the place is alive, 0 after a fail-stop kill.", |h| {
            h.up.into()
        }),
        (Kind::Gauge, "gml_place_mailbox_depth", "Envelopes enqueued but not yet dispatched.", |h| {
            h.mailbox_depth.into()
        }),
        (Kind::Counter, "gml_place_tasks_dispatched_total", "Tasks handed to the worker pool.", |h| {
            h.dispatched.into()
        }),
        (Kind::Counter, "gml_place_tasks_completed_total", "Dispatched tasks that finished.", |h| {
            h.completed.into()
        }),
        (
            Kind::Gauge,
            "gml_place_anomaly",
            "1 while the performance watchdog has this place flagged as anomalous.",
            |h| h.anomalous.into(),
        ),
        (
            Kind::Gauge,
            "gml_place_last_activity_age_seconds",
            "Seconds since the place's dispatcher last moved an envelope.",
            |h| (h.last_activity_age_nanos as f64 / 1e9).into(),
        ),
    ])
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
    use crate::metrics::exposition;

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
        let out = exposition(&health_families(&snaps));
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
        let out = exposition(&health_families(&[board.snapshot(2, true, &h)]));
        assert!(out.contains("gml_place_anomaly{place=\"2\"} 1"));
        assert!(!board.snapshot(3, true, &h).anomalous, "flags are per place");
    }

    #[test]
    fn render_dropped_emits_per_place_counters() {
        use crate::trace::SpanKind;
        let tr = crate::trace::Tracer::enabled(16);
        tr.ensure_place(3);
        {
            // Three place-1 events whose parent is a place-0 span ...
            let _g = tr.span(0, SpanKind::At, 0);
            for i in 0..3 {
                tr.instant(1, SpanKind::AtRemote, i);
            }
        }
        // ... which 33 more place-0 events push out of its 16-slot ring.
        for i in 0..33 {
            tr.instant(0, SpanKind::At, i);
        }
        tr.chrome_json();
        assert_eq!(tr.flow_dropped(), 3, "each orphaned child drops one flow half");
        let out = exposition(&[tr.dropped_family()]);
        assert!(out.contains("# TYPE gml_trace_dropped_total counter"));
        assert!(out.contains("gml_trace_dropped_total{place=\"0\"} 19\n"));
        assert!(out.contains("gml_trace_dropped_total{place=\"1\"} 0\n"));
        assert!(out.contains("gml_trace_dropped_total{place=\"2\"} 0\n"));
        assert!(out.contains("gml_trace_dropped_total{kind=\"flow_half\"} 3\n"));
    }

    #[test]
    fn render_mem_emits_every_tag_and_heap_gauges() {
        let out = exposition(&crate::mem::families());
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
        let out = exposition(&crate::mem::families());
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
        let out = exposition(&crate::stats::StatsSnapshot::default().families());
        for family in [
            "gml_tasks_spawned_total",
            "gml_failures_total",
            "gml_bytes_shipped_total",
            "gml_places_spawned_total",
        ] {
            assert!(out.contains(&format!("# TYPE {family} counter")), "{family} missing");
            assert!(out.contains(&format!("{family} 0")), "{family} sample missing");
        }
    }

    #[test]
    fn render_metrics_quantile_lines() {
        let m = crate::metrics::MetricsRegistry::new();
        for v in [10u64, 20, 30] {
            m.kind(crate::trace::SpanKind::Step).record(v);
        }
        let out = exposition(&[m.family()]);
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
    fn label_escaping() {
        let f = Family::new(Kind::Gauge, "gml_test", "Help.").labelled("span", "a\"b\\c\nd", 1u64);
        let out = exposition(&[f, Family::new(Kind::Gauge, "gml_empty", "Never written.")]);
        assert_eq!(out, "# HELP gml_test Help.\n# TYPE gml_test gauge\ngml_test{span=\"a\\\"b\\\\c\\nd\"} 1\n");
    }
}
