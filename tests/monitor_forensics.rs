//! End-to-end monitoring + flight-recorder contract: a monitored resilient
//! run with an injected kill must (a) expose a scrapeable Prometheus
//! endpoint whose `gml_place_up` gauges flip when the kill fires, and
//! (b) attach exactly one valid post-mortem bundle per restore whose
//! recorded restore mode matches the mode-labeled `exec.restore` trace
//! span. With no monitor configured, no endpoint exists.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use apgas::runtime::{Runtime, RuntimeConfig};
use apgas::trace::Phase;
use resilient_gml::prelude::*;

/// Minimal executor app: a duplicated vector incremented each step; kills
/// `victim` at iteration `kill_at`.
struct CounterDrill {
    v: DupVector,
    iters: u64,
    kill_at: u64,
    victim: Place,
    fired: bool,
}

impl ResilientIterativeApp for CounterDrill {
    fn is_finished(&self, _ctx: &Ctx, iteration: u64) -> bool {
        iteration >= self.iters
    }
    fn step(&mut self, ctx: &Ctx, iteration: u64) -> GmlResult<()> {
        if iteration == self.kill_at && !self.fired {
            self.fired = true;
            ctx.kill_place(self.victim)?;
        }
        self.v.apply(ctx, |x| {
            x.cell_add_scalar(1.0);
        })
    }
    fn state(&mut self) -> AppState<'_> {
        AppState::default().mutable("v", &mut self.v)
    }
}

fn scrape(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to monitor");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream.write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read scrape response");
    response
}

fn gauge(body: &str, family: &str, place: u32) -> Option<u64> {
    let needle = format!("{family}{{place=\"{place}\"}} ");
    body.lines().find_map(|l| l.strip_prefix(&needle).and_then(|v| v.trim().parse().ok()))
}

#[test]
fn monitored_run_flips_gauges_and_records_one_bundle_per_restore() {
    let victim = Place::new(4);
    let rt = Runtime::new(
        RuntimeConfig::new(5).resilient(true).trace(true).monitor_port(0),
    );
    let addr = rt.monitor_addr().expect("monitor server must be up");

    let before = scrape(addr);
    assert!(before.starts_with("HTTP/1.0 200"), "endpoint must answer plain HTTP");
    assert!(before.contains("text/plain; version=0.0.4"), "Prometheus text content type");
    for p in 0..5u32 {
        assert_eq!(gauge(&before, "gml_place_up", p), Some(1), "place {p} starts alive");
    }

    let (stats, report) = rt
        .exec(move |ctx| {
            let group = ctx.world();
            let v = DupVector::make(ctx, 4, &group).unwrap();
            let mut app = CounterDrill { v, iters: 10, kill_at: 5, victim, fired: false };
            let mut store = AppResilientStore::make(ctx).unwrap();
            store.store().register_monitor(ctx);
            let exec = ResilientExecutor::new(ExecutorConfig::new(3, RestoreMode::Shrink));
            let (_, stats, report) =
                exec.run_reported(ctx, &mut app, &group, &mut store).unwrap();
            assert_eq!(app.v.read_local(ctx).unwrap().get(0), 10.0, "exact recovery");
            (stats, report)
        })
        .unwrap();

    // (a) The kill flipped the victim's liveness gauge; the store collector
    // reports its shard as dead too.
    let after = scrape(addr);
    assert_eq!(gauge(&after, "gml_place_up", victim.id()), Some(0), "victim gauge flipped");
    assert_eq!(gauge(&after, "gml_place_up", 0), Some(1), "place zero is immortal");
    assert_eq!(gauge(&after, "gml_store_place_alive", victim.id()), Some(0));
    assert!(after.contains("gml_tasks_spawned_total"), "runtime counters exposed");

    // (b) Exactly one valid bundle per restore, and the recorded mode
    // matches the label on the Restore span that actually ran.
    assert_eq!(stats.restores, 1);
    assert_eq!(report.bundles.len(), 1, "one bundle per restore");
    let b = &report.bundles[0];
    b.validate().expect("bundle must serialize to valid JSON");
    assert_eq!(b.seq, 1);
    assert_eq!(b.decision.configured_mode, "shrink");
    assert_eq!(b.decision.dead_places, vec![victim.id()]);
    assert_eq!(b.decision.rolled_back_to, 3, "rolled back to the iteration-3 checkpoint");
    let restore_labels: Vec<&str> = rt
        .tracer()
        .events()
        .iter()
        .filter(|e| e.kind == SpanKind::Restore && e.phase == Phase::End)
        .map(|e| e.label)
        .collect();
    assert_eq!(restore_labels, vec![b.decision.effective_label], "bundle matches the span");

    // The bundle's store audit saw the committed snapshot.
    assert!(!b.snapshots.is_empty(), "committed snapshots were audited");
    assert!(!b.store.is_empty(), "store inventory captured");
    assert!(b.store.iter().any(|p| p.place == victim && !p.alive));

    rt.shutdown();
    // After shutdown the endpoint is gone.
    assert!(TcpStream::connect(addr).is_err(), "monitor must stop with the runtime");
}

/// A place added at run time is scraped like a configured one: up once
/// spawned, down once killed — its gauge reads the same liveness flag.
#[test]
fn a_spawned_place_is_scraped_up_and_then_down() {
    let rt = Runtime::new(RuntimeConfig::new(2).resilient(true).monitor_port(0));
    let addr = rt.monitor_addr().expect("monitor server must be up");
    assert_eq!(gauge(&scrape(addr), "gml_place_up", 2), None, "no place 2 yet");
    let fresh = rt.exec(|ctx| ctx.spawn_place().unwrap()).unwrap();
    assert_eq!(fresh, Place::new(2));
    assert_eq!(gauge(&scrape(addr), "gml_place_up", 2), Some(1), "spawned place is up");
    rt.kill_place(fresh).unwrap();
    let after = scrape(addr);
    assert_eq!(gauge(&after, "gml_place_up", 2), Some(0), "killed place is down");
    assert_eq!(gauge(&after, "gml_place_up", 1), Some(1), "the others stay up");
    rt.shutdown();
}

#[test]
fn without_monitor_config_no_endpoint_exists() {
    let rt = Runtime::new(RuntimeConfig::new(2).resilient(true));
    assert!(rt.monitor_addr().is_none(), "no monitor unless configured");
    rt.exec(|ctx| {
        assert!(ctx.monitor_addr().is_none());
    })
    .unwrap();
    rt.shutdown();
}

/// Drill for the *double-failure window*: the backup place dies between two
/// checkpoints, so the next `ResilientStore` save hits a dead backup
/// mid-snapshot. Kills `victim` at the start of checkpoint call `kill_at`.
struct BackupKillerDrill {
    v: DupVector,
    iters: u64,
    kill_at: u64,
    victim: Place,
    checkpoint_calls: u64,
    save_error: Option<(bool, String)>,
}

impl ResilientIterativeApp for BackupKillerDrill {
    fn is_finished(&self, _ctx: &Ctx, iteration: u64) -> bool {
        iteration >= self.iters
    }
    fn step(&mut self, ctx: &Ctx, _iteration: u64) -> GmlResult<()> {
        self.v.apply(ctx, |x| {
            x.cell_add_scalar(1.0);
        })
    }
    fn checkpoint(&mut self, ctx: &Ctx, store: &mut AppResilientStore) -> GmlResult<()> {
        self.checkpoint_calls += 1;
        if self.checkpoint_calls == self.kill_at {
            // The backup dies while the snapshot is in flight.
            ctx.kill_place(self.victim)?;
        }
        store.start_new_snapshot();
        if let Err(e) = store.save(ctx, &self.v) {
            self.save_error = Some((e.is_recoverable(), e.to_string()));
            return Err(e);
        }
        store.commit(ctx)
    }
    fn state(&mut self) -> AppState<'_> {
        AppState::default().mutable("v", &mut self.v)
    }
}

/// Killing the snapshot *backup* place mid-save must surface a recoverable
/// dead-place error from the store, roll back to the last committed (now
/// degraded but not lost) snapshot, and leave a forensics bundle that
/// records the degraded redundancy and the repair that ended it.
#[test]
fn backup_death_mid_save_recovers_and_forensics_records_degraded_snapshot() {
    // DupVector snapshots save from the group's place 0 with the backup at
    // the next place in the group — Place(1) is the one whose death lands
    // inside the save path.
    let victim = Place::new(1);
    let rt = Runtime::new(RuntimeConfig::new(4).resilient(true).trace(true));
    let (stats, report, save_error) = rt
        .exec(move |ctx| {
            let group = ctx.world();
            let v = DupVector::make(ctx, 4, &group).unwrap();
            let mut app = BackupKillerDrill {
                v,
                iters: 5,
                kill_at: 2,
                victim,
                checkpoint_calls: 0,
                save_error: None,
            };
            let mut store = AppResilientStore::make(ctx).unwrap();
            let exec = ResilientExecutor::new(ExecutorConfig::new(2, RestoreMode::Shrink));
            let (_, stats, report) =
                exec.run_reported(ctx, &mut app, &group, &mut store).unwrap();
            assert_eq!(app.v.read_local(ctx).unwrap().get(0), 5.0, "exact recovery");
            (stats, report, app.save_error)
        })
        .unwrap();

    // The dead backup surfaced as a *recoverable* error from the save.
    let (recoverable, msg) = save_error.expect("the in-flight save must fail");
    assert!(recoverable, "dead backup must be recoverable, got: {msg}");
    assert!(msg.contains("dead") || msg.contains("Dead"), "error names the dead place: {msg}");

    // The executor restored once from the surviving replica.
    assert_eq!(stats.restores, 1);
    assert_eq!(report.bundles.len(), 1, "one bundle for the one restore");
    let b = &report.bundles[0];
    b.validate().expect("bundle must serialize to valid JSON");
    assert_eq!(b.decision.dead_places, vec![victim.id()]);
    assert_eq!(b.decision.rolled_back_to, 0, "rolled back to the first committed snapshot");

    // The audited snapshot lost its backup but not its data: degraded, not
    // lost, and the invariant still holds — one more failure from loss.
    assert!(!b.snapshots.is_empty(), "committed snapshot was audited");
    let audit = &b.snapshots[0];
    assert!(audit.degraded >= 1, "backup death leaves the snapshot degraded");
    assert_eq!(audit.lost, 0, "owner replica survives — nothing lost");
    assert!(audit.invariant_ok(), "degradation is not an invariant violation");
    // ... and that what the recovery then did about it: the one entry, copied
    // from its owner to the owner's next place among the survivors.
    assert_eq!(b.repair.entries, 1);
    assert_eq!(b.repair.pairs, vec![(Place::ZERO, Place::new(2))]);
    assert!(b.repair.wire_bytes > 0 && b.to_json().contains("\"repair\":{\"entries\":1,"));

    // The bundle's store inventory shows the dead backup, and the recorded
    // pool width makes the replay comparable.
    assert!(b.store.iter().any(|p| p.place == victim && !p.alive));
    assert!(b.pool_workers >= 1, "bundle records the kernel pool width");

    rt.shutdown();
}

/// A traced, monitored three-place executor run with the store's collector
/// registered; returns the body of one scrape taken after it.
fn monitored_scrape() -> String {
    let rt = Runtime::new(RuntimeConfig::new(3).resilient(true).trace(true).monitor_port(0));
    let addr = rt.monitor_addr().expect("monitor server must be up");
    rt.exec(|ctx| {
        let group = ctx.world();
        let v = DupVector::make(ctx, 4, &group).unwrap();
        let mut app =
            CounterDrill { v, iters: 6, kill_at: u64::MAX, victim: Place::ZERO, fired: false };
        let mut store = AppResilientStore::make(ctx).unwrap();
        store.store().register_monitor(ctx);
        let exec = ResilientExecutor::new(ExecutorConfig::new(2, RestoreMode::Shrink));
        exec.run_reported(ctx, &mut app, &group, &mut store).unwrap();
    })
    .unwrap();
    let response = scrape(addr);
    rt.shutdown();
    response.split_once("\r\n\r\n").expect("an HTTP head").1.to_string()
}

/// The `(name, type)` of every family in an exposition, in order, after
/// checking its shape: each `# TYPE` has exactly one `# HELP` for the same
/// name right before it, no family is declared twice, and every sample
/// line belongs to the family declared last (a summary's `_sum` and
/// `_count` included).
fn checked_families(body: &str) -> Vec<(String, String)> {
    let mut families: Vec<(String, String)> = Vec::new();
    let mut help: Option<&str> = None;
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            assert!(help.is_none(), "two HELP lines in a row: {line}");
            help = Some(rest.split(' ').next().unwrap());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE name kind");
            assert_eq!(help.take(), Some(name), "TYPE {name} needs one HELP right before it");
            assert!(families.iter().all(|(n, _)| n != name), "{name} declared twice");
            families.push((name.to_string(), kind.to_string()));
        } else {
            assert!(help.is_none(), "HELP without TYPE before: {line}");
            let (name, kind) = families.last().map(|(n, k)| (n.as_str(), k.as_str())).expect(line);
            let metric = line.split(['{', ' ']).next().unwrap();
            let own = metric == name
                || kind == "summary"
                    && (metric == format!("{name}_sum") || metric == format!("{name}_count"));
            assert!(own, "sample {line:?} outside its family {name}");
        }
    }
    families
}

#[test]
fn every_family_in_a_scrape_has_one_help_and_owns_its_samples() {
    let families = checked_families(&monitored_scrape());
    assert!(families.len() > 40, "a full scrape, not an empty one: {families:?}");
}

/// Every family a traced, monitored run's scrape exposes, as `(name, type)`
/// in scrape order. A family added, dropped or retyped is a change to the
/// scrape's contract and must edit this list on purpose.
const FAMILIES: [(&str, &str); 43] = [
    ("gml_tasks_spawned_total", "counter"),
    ("gml_at_calls_total", "counter"),
    ("gml_ctl_spawns_total", "counter"),
    ("gml_ctl_terms_total", "counter"),
    ("gml_ctl_waits_total", "counter"),
    ("gml_ctl_local_total", "counter"),
    ("gml_bytes_shipped_total", "counter"),
    ("gml_bytes_received_total", "counter"),
    ("gml_encode_nanos_total", "counter"),
    ("gml_decode_nanos_total", "counter"),
    ("gml_failures_total", "counter"),
    ("gml_places_spawned_total", "counter"),
    ("gml_place_up", "gauge"),
    ("gml_span_latency_nanos", "summary"),
    ("gml_pool_workers", "gauge"),
    ("gml_pool_jobs_inline_total", "counter"),
    ("gml_pool_jobs_parallel_total", "counter"),
    ("gml_pool_chunks_total", "counter"),
    ("gml_pool_busy_nanos_total", "counter"),
    ("gml_mem_tag_bytes", "gauge"),
    ("gml_mem_tag_high_water_bytes", "gauge"),
    ("gml_mem_tag_charges_total", "counter"),
    ("gml_mem_heap_bytes", "gauge"),
    ("gml_mem_heap_peak_bytes", "gauge"),
    ("gml_mem_heap_allocs_total", "counter"),
    ("gml_arena_hits_total", "counter"),
    ("gml_arena_misses_total", "counter"),
    ("gml_arena_recycled_total", "counter"),
    ("gml_arena_parked_bytes", "gauge"),
    ("gml_arena_parked_high_water_bytes", "gauge"),
    ("gml_trace_dropped_total", "counter"),
    ("gml_store_place_alive", "gauge"),
    ("gml_store_entries", "gauge"),
    ("gml_store_snapshots", "gauge"),
    ("gml_store_bytes", "gauge"),
    ("gml_store_wire_bytes", "gauge"),
    ("gml_ckpt_logical_bytes_total", "counter"),
    ("gml_ckpt_wire_bytes_total", "counter"),
    ("gml_ckpt_frames_total", "counter"),
    ("gml_ckpt_encode_nanos_total", "counter"),
    ("gml_ckpt_decode_nanos_total", "counter"),
    ("gml_ckpt_cow_copies_total", "counter"),
    ("gml_ckpt_compression_ratio", "gauge"),
];

/// The only families whose samples are not integers.
const FLOAT_FAMILIES: [&str; 1] = ["gml_ckpt_compression_ratio"];

#[test]
fn a_traced_monitored_run_exposes_exactly_the_pinned_families() {
    let body = monitored_scrape();
    let families = checked_families(&body);
    let got: Vec<(&str, &str)> = families.iter().map(|(n, k)| (n.as_str(), k.as_str())).collect();
    assert_eq!(got, FAMILIES, "the scrape's (name, type) families moved");
    // Scrapers parse integer samples as u64: they must stay integers.
    for line in body.lines().filter(|l| !l.starts_with('#')) {
        let (metric, value) = line.rsplit_once(' ').expect("sample value");
        if FLOAT_FAMILIES.iter().any(|f| metric.starts_with(f)) {
            assert!(value.parse::<f64>().is_ok(), "{line}");
        } else {
            assert!(value.parse::<u64>().is_ok(), "integer sample written as {value:?}: {line}");
        }
    }
}
