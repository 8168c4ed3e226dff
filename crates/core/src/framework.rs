//! The resilient iterative-application framework (§V of the paper):
//! the programming model ([`ResilientIterativeApp`]) and the executor
//! ([`ResilientExecutor`]) with its three restoration modes.
//!
//! The executor applies **coordinated checkpoint/restart**: every
//! `checkpoint_interval` iterations the application saves a consistent
//! snapshot of all its GML objects through [`AppResilientStore`]; when a
//! place failure surfaces (as a recoverable [`GmlError`] from any collective
//! operation), the executor picks a new place group according to the
//! configured [`RestoreMode`], rolls the application back to the last
//! committed snapshot, and resumes from that iteration.
//!
//! A recovery is restore, repair, resume: once the application is back on
//! the snapshot, the executor has the store re-replicate the snapshot
//! entries the dead place owned or backed up
//! ([`AppResilientStore::repair`]) — the only thing the failure took from
//! the checkpoint — and carries on. It takes no checkpoint of its own: the
//! restored state *is* the committed snapshot, and the next one is due a
//! full interval after it, as if nothing had happened.

use std::time::{Duration, Instant};

use apgas::prelude::*;

use crate::app_state::AppState;
use crate::app_store::AppResilientStore;
use crate::error::{GmlError, GmlResult};
use crate::forensics::{PostMortem, RestoreDecision};
use crate::report::{CostReport, IterRow, RestoreCost};

/// How the application adapts to the loss of places (§V-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestoreMode {
    /// Continue on the surviving places, keeping the same data grid
    /// (block-by-block restore, possible load imbalance).
    Shrink,
    /// Continue on the surviving places, repartitioning the data grid for
    /// even load (overlap-copy restore, higher restore cost).
    ShrinkRebalance,
    /// Substitute a pre-allocated spare place for each failed one, keeping
    /// both the group size and the load distribution. Falls back to a
    /// shrink variant when the spares run out.
    ReplaceRedundant,
    /// Dynamically create a brand-new place for each failed one (the
    /// paper's planned fourth mode, built on Elastic X10's dynamic place
    /// creation). Keeps group size and load distribution like
    /// replace-redundant, but without idling spare resources up-front.
    ReplaceElastic,
}

impl RestoreMode {
    /// Stable snake_case label, used for trace span labels and reports.
    pub fn label(self) -> &'static str {
        match self {
            RestoreMode::Shrink => "shrink",
            RestoreMode::ShrinkRebalance => "shrink_rebalance",
            RestoreMode::ReplaceRedundant => "replace_redundant",
            RestoreMode::ReplaceElastic => "replace_elastic",
        }
    }
}

/// Executor configuration.
#[derive(Clone, Copy, Debug)]
pub struct ExecutorConfig {
    /// Take a checkpoint whenever `iteration % checkpoint_interval == 0`
    /// (including iteration 0). `0` disables checkpointing — failures then
    /// become unrecoverable.
    pub checkpoint_interval: u64,
    /// The restoration mode.
    pub mode: RestoreMode,
    /// When `ReplaceRedundant` runs out of spares: rebalance (`true`) or
    /// plain shrink (`false`) — the user choice the paper mentions.
    pub fallback_rebalance: bool,
    /// Give up after this many restores.
    pub max_restores: u32,
    /// When set, the executor *adapts* the checkpoint interval with Young's
    /// formula: after each checkpoint it recomputes
    /// `sqrt(2 · t_checkpoint · MTTF) / t_step` iterations from the measured
    /// mean checkpoint and step times (§V: "Young's formula may be used to
    /// determine the checkpointing interval"). `checkpoint_interval` then
    /// only seeds the first interval.
    pub mttf: Option<Duration>,
    /// Overlap checkpoint shipping with compute (on by default): `commit`
    /// promotes the snapshot optimistically and its backup transfers run in
    /// the background while the next iterations compute; the next settle
    /// point (the following commit, a recovery, or the end of the run) is
    /// the barrier that drains them. Turn off for the classic synchronous
    /// commit barrier.
    pub overlap_ship: bool,
}

impl ExecutorConfig {
    /// Create a new instance.
    pub fn new(checkpoint_interval: u64, mode: RestoreMode) -> Self {
        ExecutorConfig {
            checkpoint_interval,
            mode,
            fallback_rebalance: false,
            max_restores: 8,
            mttf: None,
            overlap_ship: true,
        }
    }

    /// Enable Young's-formula adaptive checkpoint intervals for the given
    /// mean time to failure.
    pub fn with_mttf(mut self, mttf: Duration) -> Self {
        self.mttf = Some(mttf);
        self
    }

    /// Toggle checkpoint/compute overlap (see
    /// [`overlap_ship`](Self::overlap_ship)).
    pub fn overlap_ship(mut self, overlap: bool) -> Self {
        self.overlap_ship = overlap;
        self
    }
}

/// Young's first-order approximation of the optimal checkpoint interval:
/// `sqrt(2 * t_checkpoint * MTTF)` (in the same time unit as the inputs).
pub fn young_interval(checkpoint_time: f64, mttf: f64) -> f64 {
    (2.0 * checkpoint_time * mttf).sqrt()
}

/// Young's interval converted to a whole number of iterations using the
/// measured mean checkpoint and step times; keeps `current` until enough
/// measurements exist.
fn young_iterations(stats: &RunStats, mttf: Duration, current: u64) -> u64 {
    if stats.checkpoints == 0 || stats.iterations_run == 0 {
        return current;
    }
    let mean_ckpt = stats.checkpoint_time.as_secs_f64() / stats.checkpoints as f64;
    let mean_step = stats.step_time.as_secs_f64() / stats.iterations_run as f64;
    if mean_step <= 0.0 || mean_ckpt <= 0.0 {
        return current;
    }
    let opt_secs = young_interval(mean_ckpt, mttf.as_secs_f64());
    (opt_secs / mean_step).round().clamp(1.0, 1e12) as u64
}

/// What the application must implement (§V-A2): `is_finished`, `step` and
/// a declaration of its state. `iteration` is maintained by the executor
/// and rolls back on restore.
///
/// The paper's `checkpoint` and `restore` (Listing 5) are derived from
/// [`state`](Self::state): the application names each of its GML objects
/// once, and the contract is
/// - declaration order = save order = remake order = restore order;
/// - an [aligned](AppState::aligned) vector follows its matrix, which is
///   declared before it and remade before it;
/// - a [scratch](AppState::scratch) object is remade but never saved;
/// - derived scalars are recomputed in [`after_restore`](Self::after_restore).
///
/// `checkpoint` and `restore` stay overridable. A test that injects a fault
/// inside a checkpoint overrides only that method; an app that overrides
/// both needs no `state`. A wrapper that forwards to an inner app (like
/// [`FailureInjector`]) forwards `checkpoint`, `restore` and
/// `as_checksummed`; the inner app's `state` is read through them.
pub trait ResilientIterativeApp {
    /// The termination condition (iteration count, convergence, ...).
    fn is_finished(&self, ctx: &Ctx, iteration: u64) -> bool;

    /// One iteration of the algorithm.
    fn step(&mut self, ctx: &Ctx, iteration: u64) -> GmlResult<()>;

    /// Declare every GML object the application holds, in the order it is
    /// to be saved and remade, each with its role (mutable, read-only or
    /// scratch) and layout. The default declares nothing, which the derived
    /// `checkpoint` refuses.
    fn state(&mut self) -> AppState<'_> {
        AppState::default()
    }

    /// Recompute what the application derives from its restored objects
    /// (a residual norm, a convergence history); runs at the end of the
    /// derived `restore`.
    fn after_restore(&mut self, _ctx: &Ctx) -> GmlResult<()> {
        Ok(())
    }

    /// Save the declared state atomically: `start_new_snapshot`, one `save`
    /// / `save_read_only` per non-scratch object, `commit` (Listing 5,
    /// lines 3–7). An error on an empty declaration.
    fn checkpoint(&mut self, ctx: &Ctx, store: &mut AppResilientStore) -> GmlResult<()> {
        self.state().checkpoint(ctx, store)
    }

    /// Roll back to the snapshot: remake every declared object over
    /// `new_places` (repartitioning if `rebalance`), restore the non-scratch
    /// ones from `store`, then [`after_restore`](Self::after_restore)
    /// (Listing 5, lines 9–14).
    fn restore(
        &mut self,
        ctx: &Ctx,
        new_places: &PlaceGroup,
        store: &mut AppResilientStore,
        _snapshot_iteration: u64,
        rebalance: bool,
    ) -> GmlResult<()> {
        self.state().restore(ctx, new_places, store, rebalance)?;
        self.after_restore(ctx)
    }

    /// Opt into executor-side silent-error detection: apps that also
    /// implement [`ChecksummedStep`] override this to `Some(self)`;
    /// injector wrappers forward to their inner app. The default (`None`)
    /// keeps verification — and its cost — entirely off.
    fn as_checksummed(&self) -> Option<&dyn ChecksummedStep> {
        None
    }
}

/// The silent-error detection hook: an app that can digest its
/// state-carrying output lets the executor record the digest when `step`
/// produces the data and re-derive it just before the next checkpoint
/// `commit()`. A mismatch means the state mutated *between* compute and
/// commit — a bit flip, a divergent replica, a buggy in-place kernel — and
/// is treated exactly like a place death: the executor rolls back to the
/// last committed snapshot (effective mode `silent_error`) instead of
/// checkpointing the corrupted state.
pub trait ChecksummedStep {
    /// A digest of the application's current output state (e.g.
    /// [`apgas::fnv1a_f64s`] over the result vector). Must be a pure
    /// function of the data: same state, same digest.
    fn output_digest(&self, ctx: &Ctx) -> GmlResult<u64>;
}

/// Wall-clock breakdown of one executor run — the raw material for the
/// paper's Table IV (checkpoint% / restore% of total time).
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Completed iterations, counting re-executed ones after rollbacks.
    pub iterations_run: u64,
    /// Distinct checkpoints committed.
    pub checkpoints: u64,
    /// Restores performed.
    pub restores: u64,
    /// Wall time spent in `step`.
    pub step_time: Duration,
    /// Wall time spent checkpointing.
    pub checkpoint_time: Duration,
    /// Synchronous *capture* portion of the checkpoints (a handle on each
    /// value under the object locks, kept at its owner), as accumulated by
    /// the app store's two-phase protocol.
    pub capture_time: Duration,
    /// Background *ship* busy time (backup transfers), harvested when ship
    /// threads are joined. With overlap on, this time ran concurrently with
    /// `step_time` — the overlap saving is roughly
    /// `ship_time - (checkpoint_time - capture_time)`.
    pub ship_time: Duration,
    /// Wall time spent computing and comparing output digests for
    /// silent-error detection (zero when the app opted out of
    /// [`ChecksummedStep`]).
    pub detect_time: Duration,
    /// Wall time spent recovering — settle, decide, restore, repair and
    /// post-mortem, every attempt: the sum of the report's
    /// `RestoreCost::time`.
    pub restore_time: Duration,
    /// Wall time of the whole run.
    pub total_time: Duration,
}

impl RunStats {
    /// Checkpoint share of total time, in percent.
    pub fn checkpoint_pct(&self) -> f64 {
        100.0 * self.checkpoint_time.as_secs_f64() / self.total_time.as_secs_f64().max(1e-12)
    }

    /// Restore share of total time, in percent.
    pub fn restore_pct(&self) -> f64 {
        100.0 * self.restore_time.as_secs_f64() / self.total_time.as_secs_f64().max(1e-12)
    }
}

/// Runs a [`ResilientIterativeApp`] to completion, checkpointing and
/// restoring as needed (§V-A3).
pub struct ResilientExecutor {
    cfg: ExecutorConfig,
}

impl ResilientExecutor {
    /// Create a new instance.
    pub fn new(cfg: ExecutorConfig) -> Self {
        ResilientExecutor { cfg }
    }

    /// Execute `app` starting on `initial_places`. Returns the final place
    /// group (it may have shrunk or had spares substituted) and the timing
    /// breakdown.
    pub fn run<A: ResilientIterativeApp>(
        &self,
        ctx: &Ctx,
        app: &mut A,
        initial_places: &PlaceGroup,
        store: &mut AppResilientStore,
    ) -> GmlResult<(PlaceGroup, RunStats)> {
        let (group, stats, _) = self.run_reported(ctx, app, initial_places, store)?;
        Ok((group, stats))
    }

    /// Like [`run`](Self::run), but also returns the per-iteration
    /// [`CostReport`]: one row per executor loop pass with wall time spent
    /// in step / checkpoint / restore and the runtime counter deltas (ctl
    /// messages, codec time, bytes shipped and received) that pass consumed.
    /// Row boundary snapshots are shared, so the rows sum to exactly the
    /// report's totals.
    pub fn run_reported<A: ResilientIterativeApp>(
        &self,
        ctx: &Ctx,
        app: &mut A,
        initial_places: &PlaceGroup,
        store: &mut AppResilientStore,
    ) -> GmlResult<(PlaceGroup, RunStats, CostReport)> {
        let mut stats = RunStats::default();
        let start = Instant::now();
        let mut group = initial_places.clone();
        let mut iteration: u64 = 0;
        let mut restores_left = self.cfg.max_restores;
        let mut interval = self.cfg.checkpoint_interval;
        let mut next_checkpoint: u64 = 0;
        let first_snap = ctx.stats();
        let mut prev_snap = first_snap;
        // Codec counters are process-global but sampled at the same shared
        // row boundaries as the runtime stats, so rows telescope to the
        // report's codec totals exactly like the counter deltas do.
        let first_codec = crate::codec::counters();
        let mut prev_codec = first_codec;
        let mut rows: Vec<IterRow> = Vec::new();
        let mut bundles: Vec<PostMortem> = Vec::new();
        // Silent-error screen: the digest recorded the last time a step
        // produced output, as `(iteration, digest)`. Verified just before
        // the next checkpoint commits; `None` when the app opted out.
        let mut recorded: Option<(u64, u64)> = None;
        store.set_overlap(self.cfg.overlap_ship);

        while !app.is_finished(ctx, iteration) {
            let mut row = IterRow {
                iteration,
                step: Duration::ZERO,
                checkpoint: None,
                capture: None,
                ship: None,
                detect: None,
                restore: None,
                delta: Default::default(),
                resident: 0,
                ckpt_bytes: 0,
                ckpt_logical: 0,
                ckpt_wire: 0,
                ckpt_frames: [0; 2],
                codec_time: Duration::ZERO,
            };
            // Periodic coordinated checkpoint. A recovery leaves
            // `next_checkpoint` alone: it was set an interval past the
            // snapshot the run has just returned to.
            if interval > 0 && iteration >= next_checkpoint {
                // Re-derive the output digest and compare it against the
                // one recorded when the step produced the data. A mismatch
                // means the state mutated between compute and commit;
                // rather than checkpoint the corrupted state, roll back to
                // the last *committed* snapshot as if a place had died. The
                // digest is itself a collective: a place that dies under it
                // is recovered from like one that dies under a step.
                let trigger = match (app.as_checksummed(), recorded) {
                    (Some(cs), Some((rec_iter, expected))) => {
                        let t = Instant::now();
                        let observed = cs.output_digest(ctx);
                        let d = t.elapsed();
                        row.detect = Some(row.detect.unwrap_or(Duration::ZERO) + d);
                        stats.detect_time += d;
                        match observed {
                            Ok(observed) => (observed != expected).then_some(
                                GmlError::SilentError { iteration: rec_iter, expected, observed },
                            ),
                            Err(e) if e.is_recoverable() => Some(e),
                            Err(e) => {
                                let _ = store.drain(ctx);
                                return Err(e);
                            }
                        }
                    }
                    _ => None,
                };
                if let Some(trigger) = trigger {
                    recorded = None;
                    let cost = self.recover(
                        ctx, app, store, &mut group, &mut iteration, &mut restores_left,
                        &mut stats, &mut bundles, &trigger,
                    )?;
                    row.restore = Some(cost);
                    Self::close_row(ctx, &mut rows, row, &mut prev_snap, &mut prev_codec);
                    continue;
                }
                store.set_current_iteration(iteration);
                let t = Instant::now();
                let result = {
                    let _span = ctx.trace_span(SpanKind::Checkpoint, iteration);
                    app.checkpoint(ctx, store)
                };
                let d = t.elapsed();
                row.checkpoint = Some(d);
                // Harvest the two-phase split. With overlap on, the ship
                // time joined here mostly belongs to the *previous*
                // checkpoint's transfers (this commit was their barrier).
                let (capture, ship) = store.take_phases();
                row.capture = Some(capture);
                if ship > Duration::ZERO {
                    row.ship = Some(ship);
                }
                stats.capture_time += capture;
                stats.ship_time += ship;
                match result {
                    Ok(()) => {
                        stats.checkpoint_time += d;
                        stats.checkpoints += 1;
                        if let Some(mttf) = self.cfg.mttf {
                            interval = young_iterations(&stats, mttf, interval);
                        }
                        next_checkpoint = iteration + interval;
                    }
                    Err(e) if e.is_recoverable() => {
                        stats.checkpoint_time += d;
                        store.cancel_snapshot(ctx);
                        recorded = None;
                        let cost = self.recover(
                            ctx, app, store, &mut group, &mut iteration, &mut restores_left,
                            &mut stats, &mut bundles, &e,
                        )?;
                        row.restore = Some(cost);
                        Self::close_row(ctx, &mut rows, row, &mut prev_snap, &mut prev_codec);
                        continue;
                    }
                    Err(e) => {
                        let _ = store.drain(ctx);
                        return Err(e);
                    }
                }
            }

            // One iteration of the algorithm.
            let t = Instant::now();
            let result = {
                let _span = ctx.trace_span(SpanKind::Step, iteration);
                app.step(ctx, iteration)
            };
            let d = t.elapsed();
            row.step = d;
            stats.step_time += d;
            // Record the output digest the moment the step produced it —
            // the reference the pre-commit verification compares against.
            // The digest is a collective too, so one that fails is handled
            // like the step failing: the iteration does not count and a
            // dead place is recovered from.
            let result = result.and_then(|()| {
                let Some(cs) = app.as_checksummed() else { return Ok(None) };
                let td = Instant::now();
                let digest = cs.output_digest(ctx);
                let d = td.elapsed();
                row.detect = Some(row.detect.unwrap_or(Duration::ZERO) + d);
                stats.detect_time += d;
                digest.map(Some)
            });
            match result {
                Ok(digest) => {
                    stats.iterations_run += 1;
                    recorded = digest.map(|d| (iteration, d));
                    iteration += 1;
                }
                Err(e) if e.is_recoverable() => {
                    recorded = None;
                    let cost = self.recover(
                        ctx, app, store, &mut group, &mut iteration, &mut restores_left,
                        &mut stats, &mut bundles, &e,
                    )?;
                    row.restore = Some(cost);
                }
                Err(e) => {
                    let _ = store.drain(ctx);
                    return Err(e);
                }
            }
            Self::close_row(ctx, &mut rows, row, &mut prev_snap, &mut prev_codec);
        }
        // End-of-run barrier: settle the last overlap-mode checkpoint. A
        // dead-place error here is ignored deliberately — the run already
        // produced its result, and the previous committed snapshot remains
        // the recovery point for anyone restoring afterwards.
        let _ = store.drain(ctx);
        // The barrier can land counter ticks *after* the last row closed: a
        // background ship caught mid-flight at that boundary records its
        // shipped and received bytes on opposite sides of the snapshot.
        // Fold the post-drain residue into the final row so rows still
        // telescope and the totals only ever see whole transfers (the
        // failure-free invariant `bytes_received == bytes_shipped` depends
        // on it).
        if let Some(last) = rows.last_mut() {
            let now = ctx.stats();
            last.delta = last.delta.merged(&now.since(&prev_snap));
            prev_snap = now;
        }
        let (capture, ship) = store.take_phases();
        stats.capture_time += capture;
        stats.ship_time += ship;
        stats.total_time = start.elapsed();
        let report = CostReport {
            rows,
            totals: prev_snap.since(&first_snap),
            codec_totals: crate::codec::counters().since(&first_codec),
            bundles,
        };
        Ok((group, stats, report))
    }

    /// Finish a report row: charge it the counter delta since the previous
    /// row boundary. The boundary snapshot is shared with the next row, so
    /// no counter tick is ever double-counted or lost.
    fn close_row(
        ctx: &Ctx,
        rows: &mut Vec<IterRow>,
        mut row: IterRow,
        prev_snap: &mut apgas::stats::StatsSnapshot,
        prev_codec: &mut crate::codec::CodecSnapshot,
    ) {
        let now = ctx.stats();
        row.delta = now.since(prev_snap);
        *prev_snap = now;
        // Codec plane: logical vs wire checkpoint bytes encoded during this
        // pass — by the ships that ran in it, whichever checkpoint they
        // belong to — plus the encode+decode time spent, from the same
        // shared boundary discipline as the counter snapshots.
        let now_codec = crate::codec::counters();
        let codec_delta = now_codec.since(prev_codec);
        *prev_codec = now_codec;
        row.ckpt_logical = codec_delta.logical_bytes;
        row.ckpt_wire = codec_delta.wire_bytes;
        row.ckpt_frames = [codec_delta.frames_full, codec_delta.frames_verbatim];
        row.codec_time =
            Duration::from_nanos(codec_delta.encode_nanos + codec_delta.decode_nanos);
        // Memory levels are read at the same shared boundary as the counter
        // snapshot, so consecutive rows telescope: each row's level is the
        // next row's starting point. Both are 0 with `mem-profile` off.
        row.resident = apgas::mem::heap_bytes();
        row.ckpt_bytes = apgas::mem::current(apgas::mem::MemTag::StoreShard);
        rows.push(row);
    }

    /// Pick a new group per the restore mode, roll the application back and
    /// re-replicate what the failure took from the snapshot it rolled back
    /// to. Returns the wall time and effective shape of the recovery, and
    /// pushes one flight-recorder [`PostMortem`] bundle when it succeeds —
    /// the snapshots audited as the failure left them, then what the repair
    /// did. `trigger` is the error being recovered from: a dead-place error
    /// selects the configured restore mode, a [`GmlError::SilentError`]
    /// restores on the unchanged group under the `silent_error` effective
    /// mode.
    #[allow(clippy::too_many_arguments)]
    fn recover<A: ResilientIterativeApp>(
        &self,
        ctx: &Ctx,
        app: &mut A,
        store: &mut AppResilientStore,
        group: &mut PlaceGroup,
        iteration: &mut u64,
        restores_left: &mut u32,
        stats: &mut RunStats,
        bundles: &mut Vec<PostMortem>,
        trigger: &GmlError,
    ) -> GmlResult<RestoreCost> {
        let recover_t0 = Instant::now();
        // Settle any in-flight overlap-mode checkpoint before reading the
        // committed snapshot: a provisional snapshot whose ships all landed
        // (or that is still fully usable) promotes and becomes the rollback
        // target; one that lost payload is discarded. The drain error
        // itself is moot — we are already recovering from the failure.
        let _ = store.drain(ctx);
        let mut attempts: u32 = 0;
        loop {
            if *restores_left == 0 {
                return Err(GmlError::Unrecoverable("restore budget exhausted".into()));
            }
            *restores_left -= 1;
            attempts += 1;
            let snapshot_iter = store.snapshot_iteration().ok_or_else(|| {
                GmlError::Unrecoverable("place failure before any committed checkpoint".into())
            })?;
            let dead: Vec<Place> = group.iter().filter(|p| !ctx.is_alive(*p)).collect();
            let spares = ctx.live_spares();
            let mut spawned: Vec<Place> = Vec::new();
            let survivors = group.len() - dead.len();
            let mut digests: Option<(u64, u64)> = None;
            let (new_group, rebalance, label, reason) = if dead.is_empty() {
                // No place died. The only recoverable error without a corpse
                // is a detected silent error: the places are fine but the
                // data is not, so restore the committed snapshot on the
                // *unchanged* group (no shrink, no substitution, no
                // rebalance — the grid is intact, only its contents rolled
                // back).
                let GmlError::SilentError { iteration: det_iter, expected, observed } =
                    trigger
                else {
                    return Err(GmlError::Unrecoverable(
                        "recoverable error but no dead place observed".into(),
                    ));
                };
                digests = Some((*expected, *observed));
                (
                    group.clone(),
                    false,
                    "silent_error",
                    format!(
                        "silent data corruption detected at iteration {det_iter}: recorded \
                         digest {expected:016x}, observed {observed:016x}; no place died — \
                         rolling back to the committed snapshot on the unchanged group"
                    ),
                )
            } else {
                match self.cfg.mode {
                    RestoreMode::Shrink => (
                        group.without(&dead),
                        false,
                        RestoreMode::Shrink.label(),
                        format!(
                            "configured shrink: continue on the {survivors} surviving place(s), \
                             same data grid"
                        ),
                    ),
                    RestoreMode::ShrinkRebalance => (
                        group.without(&dead),
                        true,
                        RestoreMode::ShrinkRebalance.label(),
                        format!(
                            "configured shrink_rebalance: repartition the data grid over the \
                             {survivors} surviving place(s)"
                        ),
                    ),
                    RestoreMode::ReplaceRedundant => {
                        match group.replace(&dead, &spares) {
                            Some(g) => (
                                g,
                                false,
                                RestoreMode::ReplaceRedundant.label(),
                                format!(
                                    "configured replace_redundant: {} dead place(s) substituted \
                                     from {} live spare(s)",
                                    dead.len(),
                                    spares.len()
                                ),
                            ),
                            // Spares exhausted: fall back to the user-chosen
                            // shrink variant (the label reports what actually
                            // happened, not what was configured).
                            None => (
                                group.without(&dead),
                                self.cfg.fallback_rebalance,
                                Self::fallback_label(self.cfg.fallback_rebalance),
                                format!(
                                    "replace_redundant fell back: {} dead place(s) but only {} \
                                     live spare(s); shrinking{}",
                                    dead.len(),
                                    spares.len(),
                                    if self.cfg.fallback_rebalance { " with rebalance" } else { "" }
                                ),
                            ),
                        }
                    }
                    RestoreMode::ReplaceElastic => {
                        // Create brand-new places on demand (Elastic X10).
                        let mut fresh = Vec::with_capacity(dead.len());
                        for _ in &dead {
                            fresh.push(ctx.spawn_place()?);
                        }
                        spawned = fresh.clone();
                        let g = group.replace(&dead, &fresh).expect(
                            "one spawned place per dead one, each outside every existing group",
                        );
                        (
                            g,
                            false,
                            RestoreMode::ReplaceElastic.label(),
                            format!(
                                "configured replace_elastic: spawned {} fresh place(s) to \
                                 substitute for the dead ones",
                                fresh.len()
                            ),
                        )
                    }
                }
            };
            if new_group.is_empty() {
                return Err(GmlError::Unrecoverable("no live places remain".into()));
            }
            let result = {
                let _span = ctx.trace_span_labeled(SpanKind::Restore, label, snapshot_iter);
                app.restore(ctx, &new_group, store, snapshot_iter, rebalance)
            };
            match result {
                Ok(()) => {
                    // Flight recorder: one bundle per successful restore,
                    // captured before the repair so that its audit shows
                    // what the failure did to the snapshots. `label` is the
                    // same value the Restore span above was tagged with, so
                    // the recorded mode matches the trace by construction.
                    let decision = RestoreDecision {
                        configured_mode: self.cfg.mode.label(),
                        effective_label: label,
                        rebalance,
                        reason,
                        dead_places: dead.iter().map(|p| p.id()).collect(),
                        live_spares: spares.iter().map(|p| p.id()).collect(),
                        places_spawned: spawned.iter().map(|p| p.id()).collect(),
                        rolled_back_to: snapshot_iter,
                        attempt: attempts,
                        expected_digest: digests.map(|(e, _)| e),
                        observed_digest: digests.map(|(_, o)| o),
                    };
                    let mut bundle = PostMortem::capture(
                        ctx,
                        store.store(),
                        &store.committed_snapshots(),
                        decision,
                        stats.restores + 1,
                    );
                    // The restored state is the committed snapshot; all the
                    // failure took from it is a replica of the entries the
                    // dead places held. Put those back and resume.
                    bundle.repair = match store.repair(ctx, &new_group) {
                        Ok(report) => report,
                        // A place died under the repair: like one dying
                        // under the restore, below.
                        Err(e) if e.is_recoverable() => continue,
                        Err(e) => return Err(e),
                    };
                    bundle.maybe_write_env_dir();
                    let (repaired_entries, repaired_bytes) =
                        (bundle.repair.entries, bundle.repair.wire_bytes);
                    bundles.push(bundle);
                    stats.restores += 1;
                    *group = new_group;
                    *iteration = snapshot_iter;
                    let time = recover_t0.elapsed();
                    stats.restore_time += time;
                    return Ok(RestoreCost {
                        label,
                        rebalance,
                        time,
                        repaired_entries,
                        repaired_bytes,
                        rolled_back_to: snapshot_iter,
                        attempts,
                    });
                }
                Err(e) if e.is_recoverable() => {
                    // Another place died during the restore: go around again
                    // from the (unchanged) old group minus all dead places.
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn fallback_label(rebalance: bool) -> &'static str {
        if rebalance {
            RestoreMode::ShrinkRebalance.label()
        } else {
            RestoreMode::Shrink.label()
        }
    }
}

/// Wraps an app to inject a fail-stop failure of `victim` at the start of
/// iteration `kill_at` — the fault-injection pattern used throughout the
/// paper's restore experiments (Figs 5–7: "a single place failure occurs at
/// iteration 15").
pub struct FailureInjector<A> {
    /// The wrapped application.
    pub app: A,
    /// Iteration at which the failure fires.
    pub kill_at: u64,
    /// The place to kill.
    pub victim: Place,
    fired: bool,
}

impl<A> FailureInjector<A> {
    /// Create a new instance.
    pub fn new(app: A, kill_at: u64, victim: Place) -> Self {
        FailureInjector { app, kill_at, victim, fired: false }
    }

    /// Whether the injected failure has fired yet.
    pub fn fired(&self) -> bool {
        self.fired
    }
}

impl<A: ResilientIterativeApp> ResilientIterativeApp for FailureInjector<A> {
    fn is_finished(&self, ctx: &Ctx, iteration: u64) -> bool {
        self.app.is_finished(ctx, iteration)
    }

    fn step(&mut self, ctx: &Ctx, iteration: u64) -> GmlResult<()> {
        if iteration == self.kill_at && !self.fired {
            self.fired = true;
            ctx.kill_place(self.victim)?;
        }
        self.app.step(ctx, iteration)
    }

    fn checkpoint(&mut self, ctx: &Ctx, store: &mut AppResilientStore) -> GmlResult<()> {
        self.app.checkpoint(ctx, store)
    }

    fn restore(
        &mut self,
        ctx: &Ctx,
        new_places: &PlaceGroup,
        store: &mut AppResilientStore,
        snapshot_iteration: u64,
        rebalance: bool,
    ) -> GmlResult<()> {
        self.app.restore(ctx, new_places, store, snapshot_iteration, rebalance)
    }

    fn as_checksummed(&self) -> Option<&dyn ChecksummedStep> {
        self.app.as_checksummed()
    }
}

/// Wraps an app to inject *random* fail-stop failures: each iteration, with
/// probability `p`, one random live place (never immortal place zero) is
/// killed. Deterministic for a given seed, so chaos runs are reproducible.
/// This is the MTTF-style failure model behind Young's formula.
///
/// The run's first checkpoint is settled (its store drained) before it is
/// handed back: with overlap on its backups still ship while the next steps
/// run, and a kill among them can leave the run with no recovery point at
/// all — a failure before the first checkpoint, which no restore mode
/// survives and which this injector is not meant to stage.
pub struct ChaosInjector<A> {
    /// The wrapped application.
    pub app: A,
    p: f64,
    max_kills: u32,
    kills: u32,
    rng_state: u64,
    first_settled: bool,
}

impl<A> ChaosInjector<A> {
    /// Create a new instance.
    pub fn new(app: A, per_iteration_probability: f64, max_kills: u32, seed: u64) -> Self {
        ChaosInjector {
            app,
            p: per_iteration_probability.clamp(0.0, 1.0),
            max_kills,
            kills: 0,
            rng_state: seed | 1,
            first_settled: false,
        }
    }

    /// Failures injected so far.
    pub fn kills(&self) -> u32 {
        self.kills
    }

    /// xorshift64* — enough randomness for failure injection, and keeps
    /// this crate free of an RNG dependency.
    fn next_u64(&mut self) -> u64 {
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl<A: ResilientIterativeApp> ResilientIterativeApp for ChaosInjector<A> {
    fn is_finished(&self, ctx: &Ctx, iteration: u64) -> bool {
        self.app.is_finished(ctx, iteration)
    }

    fn step(&mut self, ctx: &Ctx, iteration: u64) -> GmlResult<()> {
        if self.kills < self.max_kills && self.next_f64() < self.p {
            let candidates: Vec<Place> = ctx
                .all_places()
                .iter()
                .filter(|p| *p != Place::ZERO && ctx.is_alive(*p))
                .collect();
            // Leave at least one victim-able place alive for the app.
            if candidates.len() > 1 {
                let victim = candidates[self.next_u64() as usize % candidates.len()];
                self.kills += 1;
                ctx.kill_place(victim)?;
            }
        }
        self.app.step(ctx, iteration)
    }

    fn checkpoint(&mut self, ctx: &Ctx, store: &mut AppResilientStore) -> GmlResult<()> {
        self.app.checkpoint(ctx, store)?;
        if !std::mem::replace(&mut self.first_settled, true) {
            store.drain(ctx)?;
        }
        Ok(())
    }

    fn restore(
        &mut self,
        ctx: &Ctx,
        new_places: &PlaceGroup,
        store: &mut AppResilientStore,
        snapshot_iteration: u64,
        rebalance: bool,
    ) -> GmlResult<()> {
        self.app.restore(ctx, new_places, store, snapshot_iteration, rebalance)
    }

    fn as_checksummed(&self) -> Option<&dyn ChecksummedStep> {
        self.app.as_checksummed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dup_vector::DupVector;
    
    use apgas::runtime::{Runtime, RuntimeConfig};

    /// Test app: a duplicated vector incremented by 1 each iteration; a
    /// configurable failure is injected at a given iteration.
    struct CounterApp {
        v: DupVector,
        total_iters: u64,
        kill_at: Option<(u64, Place)>,
        kill_during_checkpoint: Option<Place>,
        checksummed: bool,
        corrupt_at_digest_call: Option<u64>,
        digest_calls: std::cell::Cell<u64>,
    }

    impl CounterApp {
        fn value(&self, ctx: &Ctx) -> f64 {
            self.v.read_local(ctx).unwrap().get(0)
        }
    }

    impl ResilientIterativeApp for CounterApp {
        fn is_finished(&self, _ctx: &Ctx, iteration: u64) -> bool {
            iteration >= self.total_iters
        }

        fn step(&mut self, ctx: &Ctx, iteration: u64) -> GmlResult<()> {
            if let Some((at, victim)) = self.kill_at {
                if iteration == at && ctx.is_alive(victim) {
                    ctx.kill_place(victim)?;
                }
            }
            self.v.apply(ctx, |x| {
                x.cell_add_scalar(1.0);
            })
        }

        fn state(&mut self) -> AppState<'_> {
            AppState::default().mutable("v", &mut self.v)
        }

        fn checkpoint(&mut self, ctx: &Ctx, store: &mut AppResilientStore) -> GmlResult<()> {
            if let Some(victim) = self.kill_during_checkpoint.take() {
                if ctx.is_alive(victim) {
                    ctx.kill_place(victim)?;
                }
            }
            self.state().checkpoint(ctx, store)
        }

        fn as_checksummed(&self) -> Option<&dyn ChecksummedStep> {
            self.checksummed.then_some(self as &dyn ChecksummedStep)
        }
    }

    impl ChecksummedStep for CounterApp {
        fn output_digest(&self, ctx: &Ctx) -> GmlResult<u64> {
            let n = self.digest_calls.get() + 1;
            self.digest_calls.set(n);
            if self.corrupt_at_digest_call == Some(n) {
                // The injected silent error: flip the data *after* the step
                // recorded its digest, so the pre-commit check mismatches.
                self.v.apply(ctx, |x| {
                    x.cell_add_scalar(0.5);
                })?;
            }
            Ok(apgas::fnv1a_f64s(self.v.read_local(ctx)?.as_slice()))
        }
    }

    fn counter_app(ctx: &Ctx, group: &PlaceGroup, total: u64) -> (CounterApp, AppResilientStore) {
        let v = DupVector::make(ctx, 3, group).unwrap();
        let store = AppResilientStore::make(ctx).unwrap();
        (
            CounterApp {
                v,
                total_iters: total,
                kill_at: None,
                kill_during_checkpoint: None,
                checksummed: false,
                corrupt_at_digest_call: None,
                digest_calls: std::cell::Cell::new(0),
            },
            store,
        )
    }

    #[test]
    fn failure_free_run_counts_all_iterations() {
        Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
            let g = ctx.world();
            let (mut app, mut store) = counter_app(ctx, &g, 12);
            let exec = ResilientExecutor::new(ExecutorConfig::new(5, RestoreMode::Shrink));
            let (final_group, stats) = exec.run(ctx, &mut app, &g, &mut store).unwrap();
            assert_eq!(app.value(ctx), 12.0);
            assert_eq!(final_group, g);
            assert_eq!(stats.iterations_run, 12);
            assert_eq!(stats.checkpoints, 3, "at iterations 0, 5, 10");
            assert_eq!(stats.restores, 0);
        })
        .unwrap();
    }

    #[test]
    fn shrink_recovers_and_result_is_exact() {
        Runtime::run(RuntimeConfig::new(4).resilient(true), |ctx| {
            let g = ctx.world();
            let (mut app, mut store) = counter_app(ctx, &g, 30);
            app.kill_at = Some((15, Place::new(2)));
            let exec = ResilientExecutor::new(ExecutorConfig::new(10, RestoreMode::Shrink));
            let (final_group, stats) = exec.run(ctx, &mut app, &g, &mut store).unwrap();
            assert_eq!(app.value(ctx), 30.0, "rollback + re-execution is exact");
            assert_eq!(final_group.len(), 3);
            assert!(!final_group.contains(Place::new(2)));
            assert_eq!(stats.restores, 1);
            // Iterations 10..15 re-ran: 30 + (15 - 10) = 35.
            assert_eq!(stats.iterations_run, 35);
            assert!(stats.restore_time > Duration::ZERO);
            assert_eq!(stats.checkpoints, 3, "at 0, 10 and 20: none is re-taken after the restore");
        })
        .unwrap();
    }

    #[test]
    fn silent_error_detected_before_commit_and_restored() {
        Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
            let g = ctx.world();
            let (mut app, mut store) = counter_app(ctx, &g, 10);
            app.checksummed = true;
            // Digest calls: one record after each step, one verify before
            // each checkpoint. With interval 5 the verify at iteration 5 is
            // call #6 — corrupt the data inside it, after step 4's record.
            app.corrupt_at_digest_call = Some(6);
            let exec = ResilientExecutor::new(ExecutorConfig::new(5, RestoreMode::Shrink));
            let (final_group, stats, report) =
                exec.run_reported(ctx, &mut app, &g, &mut store).unwrap();
            assert_eq!(app.value(ctx), 10.0, "rollback + re-execution is exact");
            assert_eq!(final_group.len(), 3, "no place died; the group is unchanged");
            assert_eq!(stats.restores, 1);
            assert!(stats.detect_time > Duration::ZERO);
            // Iterations 0..5 re-ran after rolling back to the snapshot
            // from iteration 0: 10 + 5.
            assert_eq!(stats.iterations_run, 15);
            // The flight recorder labels the restore silent_error and
            // carries the mismatching digest pair.
            let pm = &report.bundles[0];
            assert_eq!(pm.decision.effective_label, "silent_error");
            assert!(pm.decision.dead_places.is_empty());
            let expected = pm.decision.expected_digest.unwrap();
            let observed = pm.decision.observed_digest.unwrap();
            assert_ne!(expected, observed);
            pm.validate().unwrap();
            // No place died: every replica is where it was, so there is
            // nothing to repair, and the rollback takes no checkpoint of its
            // own — 0 and 5, as in a clean run.
            assert_eq!(pm.repair, crate::store::RepairReport::default());
            assert_eq!(stats.checkpoints, 2);
            // The cost report renders the silent restore and stays
            // telescoped.
            assert!(report.render().contains("silent_error"));
            assert!(report.consistent_with_totals());
        })
        .unwrap();
    }

    #[test]
    fn checksummed_run_without_corruption_is_free_of_restores() {
        Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
            let g = ctx.world();
            let (mut app, mut store) = counter_app(ctx, &g, 12);
            app.checksummed = true;
            let exec = ResilientExecutor::new(ExecutorConfig::new(4, RestoreMode::Shrink));
            let (_, stats, report) =
                exec.run_reported(ctx, &mut app, &g, &mut store).unwrap();
            assert_eq!(app.value(ctx), 12.0);
            assert_eq!(stats.restores, 0, "matching digests never trigger a rollback");
            assert!(stats.detect_time > Duration::ZERO, "verification cost is accounted");
            assert!(report.rows.iter().any(|r| r.detect.is_some()));
        })
        .unwrap();
    }

    /// Test app whose output digest is itself a collective — it gathers a
    /// `DistVector` — so a place can die *under the digest*, between a
    /// step and the next.
    struct GatherDigestApp {
        v: crate::dist_vector::DistVector,
        total_iters: u64,
        /// Kill this place just before the n-th digest call gathers.
        kill_in_digest_call: Option<(u64, Place)>,
        digest_calls: std::cell::Cell<u64>,
    }

    impl ResilientIterativeApp for GatherDigestApp {
        fn is_finished(&self, _ctx: &Ctx, iteration: u64) -> bool {
            iteration >= self.total_iters
        }

        fn step(&mut self, ctx: &Ctx, _iteration: u64) -> GmlResult<()> {
            self.v.map_all(ctx, |x| 2.0 * x + 1.0)
        }

        fn state(&mut self) -> AppState<'_> {
            AppState::default().mutable("v", &mut self.v)
        }

        fn as_checksummed(&self) -> Option<&dyn ChecksummedStep> {
            Some(self)
        }
    }

    impl ChecksummedStep for GatherDigestApp {
        fn output_digest(&self, ctx: &Ctx) -> GmlResult<u64> {
            let n = self.digest_calls.get() + 1;
            self.digest_calls.set(n);
            if let Some((at, victim)) = self.kill_in_digest_call {
                if n == at && ctx.is_alive(victim) {
                    ctx.kill_place(victim)?;
                }
            }
            Ok(apgas::fnv1a_f64s(self.v.gather(ctx)?.as_slice()))
        }
    }

    #[test]
    fn a_place_dying_under_the_digest_is_recovered_like_a_failed_step() {
        // Digest calls: one record after each step, one verify before each
        // checkpoint but the first. With interval 5, call #3 is the record
        // after step 2 and call #6 is the verify before iteration 5's
        // checkpoint; `None` is the failure-free reference run.
        let run_with = |kill_in_digest_call: Option<(u64, Place)>| {
            Runtime::run(RuntimeConfig::new(4).resilient(true), move |ctx| {
                let g = ctx.world();
                let v = crate::dist_vector::DistVector::make(ctx, 10, &g).unwrap();
                v.init(ctx, |i| i as f64).unwrap();
                let mut app = GatherDigestApp {
                    v,
                    total_iters: 10,
                    kill_in_digest_call,
                    digest_calls: std::cell::Cell::new(0),
                };
                let mut store = AppResilientStore::make(ctx).unwrap();
                // The commit is the ship barrier here: with the ships in the
                // background, a victim killed three short steps after the
                // only checkpoint may die before its segment's backup left,
                // and that is a lost snapshot, not what this test is about.
                let cfg = ExecutorConfig::new(5, RestoreMode::Shrink).overlap_ship(false);
                let exec = ResilientExecutor::new(cfg);
                let (group, stats) = exec.run(ctx, &mut app, &g, &mut store).unwrap();
                app.kill_in_digest_call = None;
                (app.output_digest(ctx).unwrap(), group.len(), stats)
            })
            .unwrap()
        };
        let (expected, _, clean) = run_with(None);
        assert_eq!((clean.restores, clean.iterations_run), (0, 10));
        for (call, rerun) in [(3, 2), (6, 5)] {
            let (digest, places, stats) = run_with(Some((call, Place::new(2))));
            assert_eq!(digest, expected, "digest call {call}: recovery changed the answer");
            assert_eq!(places, 3, "digest call {call}: the victim left the group");
            assert_eq!(stats.restores, 1, "digest call {call}");
            // Rolled back to the checkpoint of iteration 0; the step whose
            // record failed does not count as run.
            assert_eq!(stats.iterations_run, 10 + rerun, "digest call {call}");
        }
    }

    #[test]
    fn replace_redundant_keeps_group_size() {
        Runtime::run(RuntimeConfig::new(3).spares(2).resilient(true), |ctx| {
            let g = ctx.world();
            let (mut app, mut store) = counter_app(ctx, &g, 20);
            app.kill_at = Some((7, Place::new(1)));
            let exec =
                ResilientExecutor::new(ExecutorConfig::new(5, RestoreMode::ReplaceRedundant));
            let (final_group, stats) = exec.run(ctx, &mut app, &g, &mut store).unwrap();
            assert_eq!(app.value(ctx), 20.0);
            assert_eq!(final_group.len(), 3, "spare substituted in place");
            assert!(final_group.contains(Place::new(3)), "first spare joined");
            assert_eq!(stats.restores, 1);
        })
        .unwrap();
    }

    #[test]
    fn replace_elastic_spawns_fresh_places() {
        Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
            let g = ctx.world();
            let (mut app, mut store) = counter_app(ctx, &g, 20);
            app.kill_at = Some((7, Place::new(1)));
            let exec =
                ResilientExecutor::new(ExecutorConfig::new(5, RestoreMode::ReplaceElastic));
            let (final_group, stats) = exec.run(ctx, &mut app, &g, &mut store).unwrap();
            assert_eq!(app.value(ctx), 20.0);
            assert_eq!(final_group.len(), 3, "group back to full strength");
            assert!(
                final_group.contains(Place::new(3)),
                "a brand-new place was created: {final_group:?}"
            );
            assert_eq!(stats.restores, 1);
            assert_eq!(ctx.stats().places_spawned, 1);
        })
        .unwrap();
    }

    #[test]
    fn replace_elastic_handles_repeated_failures() {
        Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
            let g = ctx.world();
            let (inner, mut store) = counter_app(ctx, &g, 18);
            struct MultiKill {
                inner: CounterApp,
                kills: Vec<u64>,
                victim_idx: usize,
            }
            impl ResilientIterativeApp for MultiKill {
                fn is_finished(&self, ctx: &Ctx, it: u64) -> bool {
                    self.inner.is_finished(ctx, it)
                }
                fn step(&mut self, ctx: &Ctx, it: u64) -> GmlResult<()> {
                    if self.kills.first() == Some(&it) {
                        self.kills.remove(0);
                        // Kill the current incarnation of group slot 1.
                        let victim = self.inner.v.group().place(self.victim_idx);
                        if ctx.is_alive(victim) {
                            ctx.kill_place(victim)?;
                        }
                    }
                    self.inner.step(ctx, it)
                }
                fn checkpoint(&mut self, ctx: &Ctx, s: &mut AppResilientStore) -> GmlResult<()> {
                    self.inner.checkpoint(ctx, s)
                }
                fn restore(
                    &mut self,
                    ctx: &Ctx,
                    g: &PlaceGroup,
                    s: &mut AppResilientStore,
                    si: u64,
                    rb: bool,
                ) -> GmlResult<()> {
                    self.inner.restore(ctx, g, s, si, rb)
                }
            }
            let mut app = MultiKill { inner, kills: vec![4, 9, 14], victim_idx: 1 };
            let exec =
                ResilientExecutor::new(ExecutorConfig::new(4, RestoreMode::ReplaceElastic));
            let (final_group, stats) = exec.run(ctx, &mut app, &g, &mut store).unwrap();
            assert_eq!(app.inner.value(ctx), 18.0);
            assert_eq!(final_group.len(), 3);
            assert_eq!(stats.restores, 3);
            assert_eq!(ctx.stats().places_spawned, 3, "one fresh place per failure");
        })
        .unwrap();
    }

    #[test]
    fn replace_redundant_falls_back_to_shrink_without_spares() {
        Runtime::run(RuntimeConfig::new(4).resilient(true), |ctx| {
            let g = ctx.world();
            let (mut app, mut store) = counter_app(ctx, &g, 16);
            app.kill_at = Some((6, Place::new(3)));
            let exec =
                ResilientExecutor::new(ExecutorConfig::new(4, RestoreMode::ReplaceRedundant));
            let (final_group, _) = exec.run(ctx, &mut app, &g, &mut store).unwrap();
            assert_eq!(app.value(ctx), 16.0);
            assert_eq!(final_group.len(), 3, "no spares: shrank instead");
        })
        .unwrap();
    }

    #[test]
    fn failure_during_checkpoint_rolls_back_to_previous() {
        Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
            let g = ctx.world();
            let (mut app, mut store) = counter_app(ctx, &g, 10);
            // The checkpoint at iteration 5 is sabotaged; the one at 0 must
            // serve as the recovery point.
            app.kill_during_checkpoint = Some(Place::new(2));
            let exec = ResilientExecutor::new(ExecutorConfig::new(5, RestoreMode::Shrink));
            // kill_during_checkpoint fires at iteration 0's checkpoint...
            // which would leave no committed snapshot. Commit one first by
            // letting iteration 0's checkpoint succeed: arrange the kill at
            // the *second* checkpoint instead.
            app.kill_during_checkpoint = None;
            store.set_current_iteration(0);
            store.start_new_snapshot();
            store.save(ctx, &app.v).unwrap();
            store.commit(ctx).unwrap();
            app.kill_during_checkpoint = Some(Place::new(2));
            let (final_group, stats) = exec.run(ctx, &mut app, &g, &mut store).unwrap();
            assert_eq!(app.value(ctx), 10.0);
            assert_eq!(final_group.len(), 2);
            assert!(stats.restores >= 1);
        })
        .unwrap();
    }

    #[test]
    fn failure_without_checkpointing_is_unrecoverable() {
        Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
            let g = ctx.world();
            let (mut app, mut store) = counter_app(ctx, &g, 10);
            app.kill_at = Some((3, Place::new(1)));
            let exec = ResilientExecutor::new(ExecutorConfig::new(0, RestoreMode::Shrink));
            let err = exec.run(ctx, &mut app, &g, &mut store).unwrap_err();
            assert!(matches!(err, GmlError::Unrecoverable(_)));
        })
        .unwrap();
    }

    #[test]
    fn repeated_failures_all_recovered() {
        Runtime::run(RuntimeConfig::new(5).resilient(true), |ctx| {
            let g = ctx.world();
            let (app, mut store) = counter_app(ctx, &g, 24);
            let exec = ResilientExecutor::new(ExecutorConfig::new(6, RestoreMode::Shrink));
            // Kill a different place on each pass by chaining kill_at via
            // a small custom app wrapper: reuse kill_at thrice.
            struct MultiKill {
                inner: CounterApp,
                kills: Vec<(u64, Place)>,
            }
            impl ResilientIterativeApp for MultiKill {
                fn is_finished(&self, ctx: &Ctx, it: u64) -> bool {
                    self.inner.is_finished(ctx, it)
                }
                fn step(&mut self, ctx: &Ctx, it: u64) -> GmlResult<()> {
                    if let Some(pos) =
                        self.kills.iter().position(|(at, p)| *at == it && ctx.is_alive(*p))
                    {
                        let (_, victim) = self.kills.remove(pos);
                        ctx.kill_place(victim)?;
                    }
                    self.inner.step(ctx, it)
                }
                fn checkpoint(&mut self, ctx: &Ctx, s: &mut AppResilientStore) -> GmlResult<()> {
                    self.inner.checkpoint(ctx, s)
                }
                fn restore(
                    &mut self,
                    ctx: &Ctx,
                    g: &PlaceGroup,
                    s: &mut AppResilientStore,
                    si: u64,
                    rb: bool,
                ) -> GmlResult<()> {
                    self.inner.restore(ctx, g, s, si, rb)
                }
            }
            let mut app = MultiKill {
                inner: app,
                kills: vec![(4, Place::new(1)), (9, Place::new(2)), (14, Place::new(3))],
            };
            let (final_group, stats) = exec
                .run(ctx, &mut app, &g, &mut store)
                .expect("three failures, three recoveries");
            assert_eq!(app.inner.value(ctx), 24.0);
            assert_eq!(final_group.len(), 2);
            assert_eq!(stats.restores, 3);
        })
        .unwrap();
    }

    /// A matrix, a vector that may be aligned to it and a duplicated
    /// vector, declared one of five ways.
    struct Declared {
        m: crate::dist_block_matrix::DistBlockMatrix,
        t: crate::dist_vector::DistVector,
        w: DupVector,
        case: u8,
    }

    impl ResilientIterativeApp for Declared {
        fn is_finished(&self, _ctx: &Ctx, iteration: u64) -> bool {
            iteration >= 1
        }

        fn step(&mut self, _ctx: &Ctx, _iteration: u64) -> GmlResult<()> {
            Ok(())
        }

        fn state(&mut self) -> AppState<'_> {
            let (s, m, t, w) = (AppState::default(), &mut self.m, &mut self.t, &mut self.w);
            match self.case {
                0 => s,
                // Aligned to a matrix declared after it.
                1 => s.scratch("t", t).aligned("m").read_only("m", m),
                // Aligned to something that is not a DistBlockMatrix.
                2 => s.mutable("w", w).scratch("t", t).aligned("w"),
                3 => s.read_only("m", m).scratch("t", t).aligned("m").mutable("w", w),
                _ => s.read_only("m", m).mutable("t", t).aligned("m").mutable("w", w),
            }
        }
    }

    #[test]
    fn declaration_errors_are_errors_and_a_scratch_object_is_never_saved() {
        Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
            let g = ctx.world();
            let m = crate::dist_block_matrix::DistBlockMatrix::make(ctx, 6, 2, 3, 1, 3, 1, &g, false)
                .unwrap();
            let t = m.make_aligned_vector(ctx).unwrap();
            let w = DupVector::make(ctx, 2, &g).unwrap();
            let mut app = Declared { m, t, w, case: 0 };
            let mut store = AppResilientStore::make(ctx).unwrap();
            let entries = |store: &AppResilientStore| -> usize {
                store.store().inventory(ctx).iter().map(|p| p.entries).sum()
            };
            let shape = |r: GmlResult<()>| matches!(r, Err(GmlError::Shape(_)));
            // An app that declares nothing and overrides neither method
            // cannot checkpoint: the run fails, and nothing is committed.
            let cfg = ExecutorConfig::new(1, RestoreMode::Shrink).overlap_ship(false);
            let exec = ResilientExecutor::new(cfg);
            assert!(shape(exec.run(ctx, &mut app, &g, &mut store).map(drop)));
            assert!(shape(app.restore(ctx, &g, &mut store, 0, false)));
            // An alignment to a later or to a non-matrix object is refused
            // by both derived methods before anything is saved or remade.
            for case in [1, 2] {
                app.case = case;
                assert!(shape(app.checkpoint(ctx, &mut store)), "case {case}");
                assert!(shape(app.restore(ctx, &g, &mut store, 0, false)), "case {case}");
                assert_eq!(app.t.group(), &g, "case {case}: nothing was remade");
            }
            assert!(!store.has_snapshot());
            assert_eq!(entries(&store), 0);
            // A scratch object is remade by a restore but never saved: the
            // store frames the read-only matrix's three blocks once (it holds
            // the blocks themselves as the owner replicas) and the vector
            // twice.
            app.case = 3;
            app.checkpoint(ctx, &mut store).unwrap();
            assert_eq!(entries(&store), 3 + 2);
            ctx.kill_place(Place::new(2)).unwrap();
            let survivors = g.without(&[Place::new(2)]);
            app.restore(ctx, &survivors, &mut store, 0, true).unwrap();
            assert_eq!(app.t.group(), &survivors);
            assert!(app.m.is_aligned(&app.t), "remade with its matrix's new layout");
            // A declared object the committed snapshot lacks is data loss,
            // never a silent rollback that leaves it as it was.
            app.case = 4;
            let err = app.restore(ctx, &survivors, &mut store, 0, true).unwrap_err();
            assert!(matches!(err, GmlError::DataLoss(_)), "{err}");
        })
        .unwrap();
    }

    #[test]
    fn restore_budget_exhaustion_gives_up() {
        Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
            let g = ctx.world();
            let (mut app, mut store) = counter_app(ctx, &g, 10);
            app.kill_at = Some((2, Place::new(1)));
            let mut cfg = ExecutorConfig::new(5, RestoreMode::Shrink);
            cfg.max_restores = 0;
            let exec = ResilientExecutor::new(cfg);
            let err = exec.run(ctx, &mut app, &g, &mut store).unwrap_err();
            assert!(matches!(err, GmlError::Unrecoverable(_)));
        })
        .unwrap();
    }

    #[test]
    fn adaptive_interval_follows_youngs_formula() {
        // Synthetic stats: 10ms checkpoints, 1ms steps, MTTF 10s →
        // optimal interval sqrt(2*0.01*10) ≈ 0.447s ≈ 447 steps.
        let stats = RunStats {
            checkpoints: 2,
            checkpoint_time: Duration::from_millis(20),
            iterations_run: 10,
            step_time: Duration::from_millis(10),
            ..Default::default()
        };
        let n = young_iterations(&stats, Duration::from_secs(10), 5);
        assert!((440..=455).contains(&n), "got {n}");
        // No measurements yet: seed interval is kept.
        let empty = RunStats::default();
        assert_eq!(young_iterations(&empty, Duration::from_secs(10), 7), 7);
    }

    #[test]
    fn executor_with_mttf_adapts_and_still_recovers() {
        Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
            let g = ctx.world();
            let (mut app, mut store) = counter_app(ctx, &g, 40);
            app.kill_at = Some((25, Place::new(2)));
            // A tiny MTTF forces frequent checkpoints; the run must still
            // complete correctly.
            let cfg = ExecutorConfig::new(10, RestoreMode::Shrink)
                .with_mttf(Duration::from_millis(5));
            let exec = ResilientExecutor::new(cfg);
            let (final_group, stats) = exec.run(ctx, &mut app, &g, &mut store).unwrap();
            assert_eq!(app.value(ctx), 40.0);
            assert_eq!(final_group.len(), 2);
            assert!(stats.checkpoints >= 2, "adaptive mode checkpointed: {stats:?}");
            assert_eq!(stats.restores, 1);
        })
        .unwrap();
    }

    #[test]
    fn chaos_injector_is_survivable_and_deterministic() {
        let run_once = |seed: u64| {
            Runtime::run(RuntimeConfig::new(6).resilient(true), move |ctx| {
                let g = ctx.world();
                let (app, mut store) = counter_app(ctx, &g, 30);
                let mut chaos = ChaosInjector::new(app, 0.15, 3, seed);
                let exec = ResilientExecutor::new(ExecutorConfig::new(5, RestoreMode::Shrink));
                let (final_group, stats) =
                    exec.run(ctx, &mut chaos, &g, &mut store).unwrap();
                assert_eq!(chaos.app.value(ctx), 30.0, "exact result despite chaos");
                (chaos.kills(), final_group.len(), stats.restores)
            })
            .unwrap()
        };
        let a = run_once(42);
        let b = run_once(42);
        assert_eq!(a, b, "same seed, same chaos");
        let (kills, final_len, restores) = a;
        assert!(kills >= 1, "the seed should produce at least one kill");
        assert_eq!(final_len, 6 - kills as usize);
        assert!(restores >= kills as u64);
    }

    #[test]
    fn young_formula() {
        // 2 * 10s checkpoint * 500s MTTF = 10000 → 100s interval.
        assert!((young_interval(10.0, 500.0) - 100.0).abs() < 1e-9);
        assert_eq!(young_interval(0.0, 100.0), 0.0);
    }

    #[test]
    fn stats_percentages() {
        let stats = RunStats {
            total_time: Duration::from_secs(10),
            checkpoint_time: Duration::from_secs(2),
            restore_time: Duration::from_secs(1),
            ..Default::default()
        };
        assert!((stats.checkpoint_pct() - 20.0).abs() < 1e-9);
        assert!((stats.restore_pct() - 10.0).abs() < 1e-9);
    }
}
