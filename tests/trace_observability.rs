//! End-to-end observability contract: a traced resilient run with an
//! injected kill must leave behind (a) a per-iteration cost report whose
//! rows account for every counter tick, (b) matched `exec.restore`
//! begin/end spans labeled with the restore mode that actually ran, and
//! (c) a non-empty Chrome trace JSON export that parses.

use apgas::runtime::{Runtime, RuntimeConfig};
use apgas::trace::{validate_chrome_trace, Phase};
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

/// Each timed phase is read off the clock once: the run totals are the
/// sums of the rows, exactly, on a traced run with a kill and a restore.
#[test]
fn run_totals_are_the_sums_of_the_rows_phase_times() {
    let (rt, stats, report) = run_drill(RestoreMode::Shrink, Some(3));
    assert_eq!(stats.restores, 1);
    let step: std::time::Duration = report.rows.iter().map(|r| r.step).sum();
    let checkpoint: std::time::Duration = report.rows.iter().filter_map(|r| r.checkpoint).sum();
    assert_eq!(stats.step_time, step);
    assert_eq!(stats.checkpoint_time, checkpoint);
    rt.shutdown();
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
