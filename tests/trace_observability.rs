//! End-to-end observability contract: a traced resilient run with an
//! injected kill must leave behind (a) a per-iteration cost report whose
//! rows account for every counter tick, (b) matched `exec.restore`
//! begin/end spans labeled with the restore mode that actually ran, and
//! (c) a non-empty Chrome trace JSON export that parses.

use apgas::runtime::{Runtime, RuntimeConfig};
use apgas::trace::critical_path::{self, SpanDag};
use apgas::trace::{count_flow_events, validate_chrome_trace, Phase};
use proptest::prelude::*;
use resilient_gml::prelude::*;

/// Minimal executor app over a `DistBlockMatrix`: each step scales the
/// matrix and reduces its Frobenius norm (a collective, so dead places
/// surface as recoverable errors). Kills `victim` at iteration `kill_at`.
struct Drill {
    m: DistBlockMatrix,
    iters: u64,
    kill_at: Option<u64>,
    victim: Place,
    fired: bool,
}

impl Drill {
    fn make(ctx: &Ctx, group: &PlaceGroup, iters: u64, kill_at: Option<u64>) -> Self {
        let m = DistBlockMatrix::make(ctx, 200, 80, group.len(), 1, group.len(), 1, group, false)
            .unwrap();
        m.init_with(ctx, |_, _, r0, c0, rows, cols| {
            BlockData::Dense(builder::random_dense(rows, cols, (r0 * 13 + c0 + 1) as u64))
        })
        .unwrap();
        Drill { m, iters, kill_at, victim: Place::new(2), fired: false }
    }
}

impl ResilientIterativeApp for Drill {
    fn is_finished(&self, _ctx: &Ctx, iteration: u64) -> bool {
        iteration >= self.iters
    }
    fn step(&mut self, ctx: &Ctx, iteration: u64) -> GmlResult<()> {
        if self.kill_at == Some(iteration) && !self.fired {
            self.fired = true;
            ctx.kill_place(self.victim)?;
        }
        self.m.scale(ctx, 0.5)?;
        self.m.frobenius_norm_sq(ctx)?;
        Ok(())
    }
    fn state(&mut self) -> AppState<'_> {
        AppState::default().mutable("m", &mut self.m)
    }
}

fn run_drill(
    mode: RestoreMode,
    kill_at: Option<u64>,
) -> (Runtime, RunStats, CostReport) {
    let rt = Runtime::new(RuntimeConfig::new(4).resilient(true).trace(true));
    let (stats, report) = rt
        .exec(move |ctx| {
            let group = ctx.world();
            let mut app = Drill::make(ctx, &group, 6, kill_at);
            let mut store = AppResilientStore::make(ctx).unwrap();
            let exec = ResilientExecutor::new(ExecutorConfig::new(2, mode));
            let (_, stats, report) =
                exec.run_reported(ctx, &mut app, &group, &mut store).unwrap();
            (stats, report)
        })
        .unwrap();
    (rt, stats, report)
}

#[test]
fn kill_and_restore_emits_matched_mode_labeled_spans() {
    let (rt, stats, report) = run_drill(RestoreMode::ShrinkRebalance, Some(3));
    assert_eq!(stats.restores, 1);

    // The report row for the failing pass carries the effective mode label.
    let restore_rows: Vec<_> = report.rows.iter().filter_map(|r| r.restore).collect();
    assert_eq!(restore_rows.len(), 1);
    assert_eq!(restore_rows[0].label, "shrink_rebalance");
    assert!(restore_rows[0].rebalance);
    assert!(restore_rows[0].time.as_nanos() > 0);

    // The trace holds a matched begin/end pair for exec.restore, labeled
    // with the mode that actually ran.
    let events = rt.tracer().events();
    let begins: Vec<_> = events
        .iter()
        .filter(|e| e.kind == SpanKind::Restore && e.phase == Phase::Begin)
        .collect();
    let ends: Vec<_> = events
        .iter()
        .filter(|e| e.kind == SpanKind::Restore && e.phase == Phase::End)
        .collect();
    assert_eq!(begins.len(), 1, "one restore.begin");
    assert_eq!(ends.len(), 1, "one restore.end");
    assert_eq!(begins[0].label, "shrink_rebalance");
    assert_eq!(ends[0].label, "shrink_rebalance");
    assert!(ends[0].dur_nanos > 0);
    assert!(begins[0].t_nanos <= ends[0].t_nanos);
    // Both sides carry the rolled-back-to iteration as their argument.
    assert_eq!(begins[0].arg, restore_rows[0].rolled_back_to);
    assert_eq!(ends[0].arg, restore_rows[0].rolled_back_to);

    // The kill itself is visible as an instant.
    assert!(events.iter().any(|e| e.kind == SpanKind::KillPlace && e.phase == Phase::Instant));
    rt.shutdown();
}

#[test]
fn cost_report_columns_are_nonzero_and_telescope_to_totals() {
    let (rt, stats, report) = run_drill(RestoreMode::Shrink, Some(3));
    assert!(report.consistent_with_totals(), "rows must sum to exactly the totals");
    assert_eq!(report.restores(), stats.restores);
    assert!(report.rows.iter().any(|r| r.checkpoint.is_some()));
    assert!(report.rows.iter().all(|r| r.delta.ctl_total() > 0));
    let t = &report.totals;
    assert!(t.bytes_shipped > 0);
    assert!(t.bytes_received > 0);
    assert!(t.encode_nanos + t.decode_nanos > 0);
    // In-flight payloads to the dead place count as shipped, never received.
    assert!(t.bytes_received <= t.bytes_shipped);
    // The executor phases all left their marks in the latency registry.
    let m = rt.tracer().metrics();
    assert!(m.kind(SpanKind::Step).snapshot().count >= stats.iterations_run);
    assert_eq!(m.kind(SpanKind::Checkpoint).snapshot().count, stats.checkpoints);
    assert_eq!(m.kind(SpanKind::Restore).snapshot().count, stats.restores);
    rt.shutdown();
}

#[test]
fn failure_free_run_receives_exactly_what_it_ships() {
    let (rt, stats, report) = run_drill(RestoreMode::Shrink, None);
    assert_eq!(stats.restores, 0);
    assert!(report.consistent_with_totals());
    assert!(report.totals.bytes_shipped > 0);
    assert_eq!(
        report.totals.bytes_received, report.totals.bytes_shipped,
        "every shipped byte lands exactly once when no place dies"
    );
    rt.shutdown();
}

#[test]
fn chrome_trace_export_is_valid_nonempty_json() {
    let (rt, _, _) = run_drill(RestoreMode::ShrinkRebalance, Some(3));
    let json = rt.tracer().chrome_json();
    let n = validate_chrome_trace(&json).expect("export must be valid JSON");
    assert!(n > 0, "export must contain events");
    rt.shutdown();
}

/// Causal-linking drill: a nested `async_at` fan-out across 4 places must
/// leave every receiver task span holding a `parent_id` that resolves to the
/// *sender's* dispatch instant at a different place, and the reconstructed
/// span DAG must be acyclic and complete (no dangling parents).
#[test]
fn async_at_fanout_receiver_spans_link_back_to_senders() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let rt = Runtime::new(RuntimeConfig::new(4).resilient(true).trace(true));
    let hits = Arc::new(AtomicU64::new(0));
    let hits2 = Arc::clone(&hits);
    rt.exec(move |ctx| {
        ctx.finish(|fs| {
            let h = fs.handle();
            for i in 1..4u32 {
                let h = h.clone();
                let hits = Arc::clone(&hits2);
                // First hop: 0 -> i. Second hop, nested: i -> (i + 1) % 4.
                fs.async_at(Place::new(i), move |cx| {
                    let inner = Arc::clone(&hits);
                    h.async_at(cx, Place::new((i + 1) % 4), move |_| {
                        inner.fetch_add(1, Ordering::Relaxed);
                    });
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        })
        .unwrap();
    })
    .unwrap();
    assert_eq!(hits.load(Ordering::Relaxed), 6, "all 6 tasks ran");

    let events = rt.tracer().events();
    let tasks: Vec<_> = events
        .iter()
        .filter(|e| e.kind == SpanKind::AsyncTask && e.phase == Phase::End)
        .collect();
    assert_eq!(tasks.len(), 6, "one task span per spawn");
    for t in &tasks {
        assert_ne!(t.parent_id, 0, "receiver span must carry a causal parent");
        let sender = events
            .iter()
            .find(|e| e.span_id == t.parent_id)
            .unwrap_or_else(|| panic!("parent {} of task span {} not in trace", t.parent_id, t.span_id));
        assert_eq!(sender.kind, SpanKind::AsyncAt, "parent is the dispatch instant");
        assert_ne!(sender.place, t.place, "the link crosses places");
        assert_eq!(sender.arg, t.place as u64, "dispatch targeted the place the task ran at");
    }

    // The reconstructed DAG is sound: every parent resolves, no cycles.
    let dag = SpanDag::build(&events);
    assert!(dag.is_complete(), "every parent_id resolves to a traced span");
    assert!(dag.is_acyclic());
    assert!(dag.max_depth() >= 2, "nested spawn produces a chain of at least two hops");

    // The Chrome export draws a flow arrow for each cross-place link.
    let json = rt.tracer().chrome_json();
    validate_chrome_trace(&json).unwrap();
    assert!(
        count_flow_events(&json) >= 6,
        "at least one flow arrow per cross-place task link"
    );
    rt.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Telescoping invariant of the critical-path analyzer over synthetic
    /// iteration windows: path ≤ wall, path ≥ max single-place compute, and
    /// the breakdown never exceeds the path it decomposes.
    #[test]
    fn critical_path_telescopes_between_compute_floor_and_wall(
        wall in 1_000u64..1_000_000,
        spans in prop::collection::vec(
            // (place, start permille of wall, duration permille, kind selector)
            (0u32..4, 0u64..1000, 1u64..1000, 0u8..3),
            1..24,
        ),
    ) {
        let mut events = Vec::new();
        let mut next_id = 1u64;
        for &(place, start_pm, dur_pm, kind_sel) in &spans {
            let start = start_pm * wall / 1000; // < wall since start_pm < 1000
            let dur = (dur_pm * wall / 1000).clamp(1, wall - start);
            let kind = match kind_sel {
                0 => SpanKind::AtRemote,  // compute
                1 => SpanKind::Encode,    // ship
                _ => SpanKind::CtlSpawn,  // ctl
            };
            events.push(TraceEvent {
                t_nanos: start + dur,
                dur_nanos: dur,
                place,
                phase: Phase::End,
                kind,
                label: "",
                arg: 0,
                span_id: next_id,
                parent_id: 0,
            });
            next_id += 1;
        }
        // The iteration window: one exec.step span covering [0, wall].
        events.push(TraceEvent {
            t_nanos: wall,
            dur_nanos: wall,
            place: 0,
            phase: Phase::End,
            kind: SpanKind::Step,
            label: "",
            arg: 7,
            span_id: next_id,
            parent_id: 0,
        });

        let profiles = critical_path::analyze(&events, &[0, 0, 0, 0]);
        prop_assert_eq!(profiles.len(), 1);
        let p = profiles[0];
        prop_assert_eq!(p.iteration, 7);
        prop_assert!(p.complete);
        prop_assert!(p.critical_path_nanos <= p.wall_nanos);
        let floor = critical_path::max_place_compute(&events, 0, wall);
        prop_assert!(
            p.critical_path_nanos >= floor,
            "path {} must cover the busiest place's compute {}",
            p.critical_path_nanos, floor
        );
        prop_assert!(p.compute_nanos + p.ship_nanos + p.ctl_nanos <= p.critical_path_nanos);
        prop_assert_eq!(p.idle_nanos, p.wall_nanos - p.critical_path_nanos);
        prop_assert!(p.straggler_ratio >= 1.0);
    }
}

#[test]
fn untraced_run_keeps_report_but_records_no_events() {
    let rt = Runtime::new(RuntimeConfig::new(3).resilient(true).trace(false));
    let report = rt
        .exec(|ctx| {
            let group = ctx.world();
            let mut app = Drill::make(ctx, &group, 4, None);
            let mut store = AppResilientStore::make(ctx).unwrap();
            let exec = ResilientExecutor::new(ExecutorConfig::new(2, RestoreMode::Shrink));
            let (_, _, report) =
                exec.run_reported(ctx, &mut app, &group, &mut store).unwrap();
            report
        })
        .unwrap();
    assert!(!rt.tracer().is_on());
    assert!(rt.tracer().events().is_empty());
    // The cost report does not depend on tracing: counters still flow.
    assert!(report.consistent_with_totals());
    assert!(report.totals.bytes_shipped > 0);
    rt.shutdown();
}
