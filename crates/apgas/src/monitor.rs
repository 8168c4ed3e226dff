//! The Prometheus text-format scrape endpoint.
//!
//! The trace rings ([`crate::trace`]) answer *what happened* after a run;
//! a scrape answers *what the runtime holds now*. A [`MonitorServer`]
//! serves the runtime counters, each place's liveness (`gml_place_up`, read
//! from the flag a kill flips), span-latency quantiles, the pool and memory
//! planes, plus any registered extra collectors such as the snapshot-store
//! inventory, over a hand-rolled HTTP/1.0 listener, keeping the workspace
//! dependency-free. Every part of that picture is a
//! [`Family`](crate::metrics::Family);
//! [`crate::metrics::exposition`] writes the text. Nothing here samples a
//! run on its own: a scrape renders state the runtime already keeps.
//!
//! Enablement mirrors tracing: `RuntimeConfig::monitor_port` forces it,
//! otherwise the `GML_MONITOR_PORT` environment variable decides (unset →
//! disabled; port `0` → bind an ephemeral port).

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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
    use crate::metrics::{exposition, Family, Kind};

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
