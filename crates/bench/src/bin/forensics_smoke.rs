//! Forensics smoke check for CI: runs a monitored resilient workload with
//! an injected failure and asserts, end to end, that
//!
//! 1. the Prometheus endpoint is scrapeable over localhost and its
//!    `gml_place_up` gauges flip when the kill fires,
//! 2. exactly one post-mortem flight-recorder bundle is captured per
//!    restore, its JSON validates with the built-in parser, its recorded
//!    restore mode matches what was configured, and it shows a non-zero
//!    repair of what the kill took from the snapshots,
//! 3. bundles written to `GML_FORENSICS_DIR` land on disk as valid JSON.
//!
//! Exits non-zero on any violation.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use apgas::prelude::Place;
use apgas::runtime::{Runtime, RuntimeConfig};
use apgas::trace::validate_json;
use gml_apps::ResilientPageRank;
use gml_bench::workloads;
use gml_core::{AppResilientStore, ExecutorConfig, FailureInjector, ResilientExecutor, RestoreMode};

/// One plain-HTTP GET against the monitor endpoint.
fn scrape(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to monitor");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream.write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read scrape response");
    assert!(response.starts_with("HTTP/1.0 200"), "bad response: {response:.60}");
    response
}

fn gauge(body: &str, family: &str, place: u32) -> Option<u64> {
    let needle = format!("{family}{{place=\"{place}\"}} ");
    body.lines().find_map(|l| l.strip_prefix(&needle).and_then(|v| v.trim().parse().ok()))
}

fn main() {
    let forensics_dir = std::env::temp_dir().join(format!("gml-forensics-{}", std::process::id()));
    std::fs::create_dir_all(&forensics_dir).expect("create forensics dir");
    std::env::set_var(apgas::env::FORENSICS_DIR, &forensics_dir);

    let victim = Place::new(2);
    let rt = Runtime::new(
        RuntimeConfig::new(4).resilient(true).trace(true).monitor_port(0),
    );
    let addr = rt.monitor_addr().expect("monitor server must be up");
    println!("forensics smoke: monitor at http://{addr}/metrics");

    // Scrape 1: everyone alive, before any work.
    let before = scrape(addr);
    for p in 0..4u32 {
        assert_eq!(gauge(&before, "gml_place_up", p), Some(1), "place {p} must start up");
    }
    assert!(
        before.contains("# TYPE gml_tasks_spawned_total counter"),
        "runtime counters must be exposed"
    );

    let (stats, report) = rt
        .exec(move |ctx| {
            let group = ctx.world();
            let mut cfg = workloads::pagerank_cfg_for(12, group.len());
            cfg.nodes_per_place = 50; // smoke scale, not bench scale
            cfg.out_degree = 4;
            let pr = ResilientPageRank::make(ctx, cfg, &group).unwrap();
            let mut app = FailureInjector::new(pr, 6, victim);
            let mut store = AppResilientStore::make(ctx).unwrap();
            store.store().register_monitor(ctx);
            let exec = ResilientExecutor::new(ExecutorConfig::new(4, RestoreMode::Shrink));
            let (_, stats, report) =
                exec.run_reported(ctx, &mut app, &group, &mut store).unwrap();
            (stats, report)
        })
        .expect("forensics smoke run");

    // Scrape 2: the victim's liveness gauge must have flipped, and the
    // store collector must be publishing per-place inventory.
    let after = scrape(addr);
    assert_eq!(gauge(&after, "gml_place_up", victim.id()), Some(0), "victim must be down");
    assert_eq!(gauge(&after, "gml_place_up", 0), Some(1), "place zero is immortal");
    assert_eq!(
        gauge(&after, "gml_store_place_alive", victim.id()),
        Some(0),
        "store inventory must report the dead shard"
    );
    assert!(after.contains("gml_span_latency_nanos"), "histogram quantiles must be exposed");

    // Exactly one valid bundle per restore, with the configured mode.
    assert!(stats.restores >= 1, "the injected kill must force a restore");
    assert_eq!(report.bundles.len() as u64, stats.restores, "one bundle per restore");
    for b in &report.bundles {
        b.validate().expect("bundle must serialize to valid JSON");
        assert_eq!(b.decision.configured_mode, "shrink");
        assert_eq!(b.decision.effective_label, "shrink");
        assert!(b.decision.dead_places.contains(&victim.id()));
        assert!(!b.trace_tail.is_empty(), "tracing was on: the tail must hold events");
        // The kill cost snapshot entries a replica; the bundle says what the
        // recovery re-replicated, and from where to where.
        assert!(b.snapshots.iter().any(|a| a.degraded > 0), "audited before the repair");
        let repair = &b.repair;
        assert!(repair.entries > 0 && repair.wire_bytes > 0, "nothing repaired: {repair:?}");
        assert!(!repair.pairs.is_empty());
    }

    // The bundles also landed on disk, as valid JSON.
    let mut on_disk = 0;
    for entry in std::fs::read_dir(&forensics_dir).expect("read forensics dir") {
        let path = entry.unwrap().path();
        let json = std::fs::read_to_string(&path).expect("read bundle");
        validate_json(&json)
            .unwrap_or_else(|e| panic!("{} is not valid JSON: {e}", path.display()));
        assert!(json.contains("\"effective_label\":\"shrink\""));
        assert!(!json.contains("\"repair\":{\"entries\":0,"), "the bundle on disk shows a repair");
        on_disk += 1;
    }
    assert_eq!(on_disk as u64, stats.restores, "every bundle must be written to disk");

    rt.shutdown();
    let _ = std::fs::remove_dir_all(&forensics_dir);
    println!(
        "forensics smoke: all checks passed ({} restore(s), {} bundle(s) on disk)",
        stats.restores, on_disk
    );
}
