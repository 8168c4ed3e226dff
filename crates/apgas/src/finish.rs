//! `finish`/`async` task structuring, in two flavours.
//!
//! **Non-resilient finish** keeps a shared countdown in the spawning place's
//! memory: spawn increments, task completion decrements, the waiter blocks
//! until zero. This is cheap but cannot survive a place failure — matching
//! original (non-resilient) X10, where a crash left `finish` waiting forever
//! and the paper's §III-C observation that GML applications simply died.
//!
//! **Resilient finish** records every spawn and termination in a
//! bookkeeping registry owned by **place zero** (the design of Resilient X10
//! that the paper evaluates). In exchange, when a place dies the registry
//! knows exactly which tasks are lost, adjusts the counts, and delivers
//! [`DeadPlaceException`]s to the waiting `finish` instead of hanging.
//!
//! How an operation reaches the registry depends only on **where it is
//! issued** (`ctx.here()`), as in Resilient X10's place-zero finish:
//!
//! * From any place other than zero it is a [`CtlMsg`] through place zero's
//!   mailbox. A spawn record is a *synchronous round trip* (the spawner
//!   blocks on the ack), a task's termination is one message, and so is the
//!   wait registration of a finish opened there. `PlaceDied` always takes
//!   this route. This is the funnel the paper measures (Figs 2–4): one Term
//!   per remote task, all through one mailbox, so the cost of a finish over
//!   *n* places grows with *n*.
//! * At place zero the registry is local memory, so the activity calls
//!   [`FinishService::record_spawn`] / [`record_term`](FinishService::record_term)
//!   / [`register_wait`](FinishService::register_wait) directly: no message,
//!   no ack channel, no dispatcher wake-up. These are counted as `ctl_local`,
//!   not as messages.
//!
//! Both routes apply the same four functions under the same registry lock,
//! which is what keeps the direct route safe:
//!
//! * **A Term never precedes its Spawn.** The spawn record (liveness check
//!   and count) completes under the lock *before* the task is sent, on
//!   either route, so the task cannot run — let alone terminate — before it
//!   is counted.
//! * **A spawn and a place death are ordered.** `kill_place` clears the
//!   alive flag first and then posts `PlaceDied`; both the liveness check in
//!   `record_spawn` and `place_died` run under the lock. So a spawn either
//!   sees the place dead (a [`DeadPlaceException`] is recorded, nothing is
//!   counted) or counts the task while `PlaceDied` is still to come, which
//!   then removes the count and records the exception. A count for a dead
//!   place can never outlive its `PlaceDied`.
//! * A Term that arrives after `PlaceDied` zeroed its place is ignored, as
//!   before; place zero is immortal, so its direct Terms are never stray.

use std::collections::HashMap;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::time::Duration;

use crate::error::{ApgasError, DeadPlaceException};
use crate::place::Place;
use crate::runtime::{Ctx, Envelope};
use crate::stats::RuntimeStats;
use crate::sync::{Condvar, Mutex};
use crate::trace::{SpanKind, TraceCtx};

/// Per-task resilience policy: how often a panicked or timed-out task body
/// is replayed, whether attempts carry a deadline, and how many places a
/// replicated task runs at (see [`Ctx::replicated_vote`]).
///
/// Attach a policy per spawn with [`FinishScope::async_at_policied`]; the
/// default is one attempt at one place.
///
/// Replay semantics follow the HPX software-resiliency model: a failed
/// attempt is re-executed up to `retries` more times with jittered backoff.
/// Bodies run under a nonzero `timeout_ms` must tolerate duplicate
/// execution — a timed-out attempt's thread is abandoned, not cancelled,
/// and may still complete concurrently with its replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskPolicy {
    /// Extra executions granted after a panicked or timed-out attempt
    /// (0 = fail fast, the pre-policy behaviour).
    pub retries: u32,
    /// Per-attempt deadline in milliseconds (0 = no deadline).
    pub timeout_ms: u64,
    /// Number of places a replicated task executes at (min 1 = no
    /// replication); the majority digest wins the vote.
    pub replicas: u32,
    /// Base backoff between replay attempts in milliseconds; the actual
    /// sleep is jittered and scales with the attempt ordinal.
    pub backoff_ms: u64,
}

impl Default for TaskPolicy {
    fn default() -> Self {
        TaskPolicy { retries: 0, timeout_ms: 0, replicas: 1, backoff_ms: 2 }
    }
}

impl TaskPolicy {
    /// Builder: set the replay budget.
    pub fn retries(mut self, n: u32) -> Self {
        self.retries = n;
        self
    }

    /// Builder: set the per-attempt deadline (0 disables it).
    pub fn timeout_ms(mut self, ms: u64) -> Self {
        self.timeout_ms = ms;
        self
    }

    /// Builder: set the replica count (clamped to at least 1).
    pub fn replicas(mut self, n: u32) -> Self {
        self.replicas = n.max(1);
        self
    }

    /// Builder: set the base replay backoff in milliseconds.
    pub fn backoff_ms(mut self, ms: u64) -> Self {
        self.backoff_ms = ms;
        self
    }
}

/// Outcome of one finished task, reported to whichever finish owns it.
#[derive(Debug, Clone)]
pub(crate) enum TaskOutcome {
    Completed,
    Panicked(String),
}

/// Bookkeeping messages processed by the place-zero finish service.
///
/// `Spawn`/`Term`/`PlaceDied` carry a [`TraceCtx`] — the causal parent on
/// the sending place — so place zero's bookkeeping instants link back to
/// the activity that caused them (rendered as flow arrows into place
/// zero's track, making the resilient-finish funnel visible).
pub(crate) enum CtlMsg {
    /// Record a task about to be sent to `dst` under finish `fid`.
    /// Synchronous: the spawner blocks until `ack` fires.
    Spawn { fid: u64, dst: Place, ack: SyncSender<SpawnAck>, tctx: TraceCtx },
    /// A task under finish `fid` finished at `place`.
    Term { fid: u64, place: Place, outcome: TaskOutcome, tctx: TraceCtx },
    /// The finish body is done; signal `waiter` when all tasks are done.
    Wait { fid: u64, waiter: Arc<Waiter> },
    /// A place died: adjust every finish that had tasks there.
    PlaceDied { place: Place, tctx: TraceCtx },
}

/// Spawn-record acknowledgement from place zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SpawnAck {
    /// Recorded; go ahead and send the task.
    Ok,
    /// Target already dead; a `DeadPlaceException` was recorded with the
    /// finish. Do not send the task.
    Dead,
}

/// What a completed finish reports back to its waiter.
#[derive(Debug, Default, Clone)]
pub(crate) struct FinishReport {
    pub dead: Vec<DeadPlaceException>,
    pub panics: Vec<String>,
}

impl FinishReport {
    fn into_result(self) -> Result<(), ApgasError> {
        if !self.panics.is_empty() {
            return Err(ApgasError::TaskPanic(self.panics.join("; ")));
        }
        match ApgasError::from_exceptions(self.dead) {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

/// Blocking rendezvous between a waiting finish and the place-zero service.
pub(crate) struct Waiter {
    slot: Mutex<Option<FinishReport>>,
    cv: Condvar,
}

impl Waiter {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Waiter { slot: Mutex::new(None), cv: Condvar::default() })
    }

    pub(crate) fn signal(&self, report: FinishReport) {
        let mut s = self.slot.lock();
        *s = Some(report);
        self.cv.notify_all();
    }

    pub(crate) fn block(&self) -> FinishReport {
        let mut s = self.cv.wait_while(self.slot.lock(), |s| s.is_none());
        s.take().expect("report present after wait")
    }
}

/// Per-finish record in the place-zero registry.
#[derive(Default)]
struct Rec {
    /// Live task count per place id.
    pending: HashMap<u32, u32>,
    /// Sum of `pending`'s counts, kept beside them so that the completion
    /// check on every Term is a compare, not a walk over the places.
    total: u32,
    report: FinishReport,
    waiter: Option<Arc<Waiter>>,
}

/// The place-zero finish registry. Operations issued at place zero call the
/// four `record_*`/`register_wait`/`place_died` functions directly; every
/// other place's arrive as a [`CtlMsg`] through place zero's mailbox and are
/// applied by [`handle`](Self::handle) — so the funnel and its
/// serialization are real for exactly the traffic that crosses places.
#[derive(Default)]
pub(crate) struct FinishService {
    recs: Mutex<HashMap<u64, Rec>>,
}

impl FinishService {
    /// Apply one bookkeeping message. Runs on place zero's dispatcher thread.
    pub(crate) fn handle(&self, is_alive: impl Fn(Place) -> bool, msg: CtlMsg) {
        match msg {
            CtlMsg::Spawn { fid, dst, ack, tctx: _ } => {
                let _ = ack.send(self.record_spawn(is_alive, fid, dst));
            }
            CtlMsg::Term { fid, place, outcome, tctx: _ } => self.record_term(fid, place, outcome),
            CtlMsg::Wait { fid, waiter } => self.register_wait(fid, waiter),
            CtlMsg::PlaceDied { place, tctx: _ } => self.place_died(place),
        }
    }

    /// Count a task about to be sent to `dst` under finish `fid`, or record
    /// a [`DeadPlaceException`] if `dst` is already dead. The liveness check
    /// runs under the registry lock so that it is ordered against
    /// [`place_died`](Self::place_died) (see the module docs).
    pub(crate) fn record_spawn(
        &self,
        is_alive: impl Fn(Place) -> bool,
        fid: u64,
        dst: Place,
    ) -> SpawnAck {
        let mut recs = self.recs.lock();
        let rec = recs.entry(fid).or_default();
        if is_alive(dst) {
            *rec.pending.entry(dst.id()).or_insert(0) += 1;
            rec.total += 1;
            SpawnAck::Ok
        } else {
            rec.report.dead.push(DeadPlaceException::new(dst, "spawn target dead"));
            Self::maybe_complete(&mut recs, fid);
            SpawnAck::Dead
        }
    }

    /// A task under finish `fid` finished at `place`.
    pub(crate) fn record_term(&self, fid: u64, place: Place, outcome: TaskOutcome) {
        let mut recs = self.recs.lock();
        let Some(rec) = recs.get_mut(&fid) else { return };
        match rec.pending.get_mut(&place.id()) {
            Some(c) if *c > 0 => *c -= 1,
            // Already zeroed by `place_died`, or stray: ignore.
            _ => return,
        }
        rec.total -= 1;
        if let TaskOutcome::Panicked(msg) = outcome {
            rec.report.panics.push(msg);
        }
        Self::maybe_complete(&mut recs, fid);
    }

    /// The body of finish `fid` is done: signal `waiter` once every task
    /// counted under it has terminated (possibly at once).
    pub(crate) fn register_wait(&self, fid: u64, waiter: Arc<Waiter>) {
        let mut recs = self.recs.lock();
        recs.entry(fid).or_default().waiter = Some(waiter);
        Self::maybe_complete(&mut recs, fid);
    }

    /// `place` died: every finish loses the tasks it had there.
    pub(crate) fn place_died(&self, place: Place) {
        let mut recs = self.recs.lock();
        let fids: Vec<u64> = recs.keys().copied().collect();
        for fid in fids {
            let rec = recs.get_mut(&fid).expect("fid just listed");
            if let Some(c) = rec.pending.remove(&place.id()) {
                rec.total -= c;
                if c > 0 {
                    rec.report.dead.push(DeadPlaceException::new(
                        place,
                        format!("{c} task(s) lost at place {}", place.id()),
                    ));
                }
            }
            Self::maybe_complete(&mut recs, fid);
        }
    }

    /// If `fid` has a registered waiter and no pending tasks, deliver the
    /// report and drop the record.
    fn maybe_complete(recs: &mut HashMap<u64, Rec>, fid: u64) {
        let done = match recs.get(&fid) {
            Some(rec) => rec.waiter.is_some() && rec.total == 0,
            None => false,
        };
        if done {
            let rec = recs.remove(&fid).expect("checked above");
            rec.waiter.expect("waiter present").signal(rec.report);
        }
    }

    /// Number of finishes currently tracked (for tests/diagnostics).
    #[allow(dead_code)]
    pub(crate) fn open_finishes(&self) -> usize {
        self.recs.lock().len()
    }

    /// Freeze every open finish record into a diagnostic
    /// [`LedgerEntry`] list, sorted by finish id. Used by the
    /// failure-forensics flight recorder to capture what place zero's
    /// bookkeeping knew at the moment of a restore.
    pub(crate) fn ledger(&self) -> Vec<LedgerEntry> {
        let recs = self.recs.lock();
        let mut out: Vec<LedgerEntry> = recs
            .iter()
            .map(|(fid, rec)| {
                let mut pending: Vec<(u32, u32)> =
                    rec.pending.iter().map(|(p, c)| (*p, *c)).collect();
                pending.sort_unstable();
                LedgerEntry {
                    fid: *fid,
                    pending,
                    dead_exceptions: rec.report.dead.len(),
                    panics: rec.report.panics.len(),
                    has_waiter: rec.waiter.is_some(),
                }
            })
            .collect();
        out.sort_unstable_by_key(|e| e.fid);
        out
    }
}

/// A point-in-time view of one open resilient finish in the place-zero
/// registry — the unit of the flight recorder's "ledger state".
#[derive(Clone, Debug)]
pub struct LedgerEntry {
    /// The finish id.
    pub fid: u64,
    /// Live task count per place id, sorted by place.
    pub pending: Vec<(u32, u32)>,
    /// [`DeadPlaceException`]s already recorded against this finish.
    pub dead_exceptions: usize,
    /// Task panics already recorded against this finish.
    pub panics: usize,
    /// Whether a `finish` is already blocked waiting on this record.
    pub has_waiter: bool,
}

/// Local (non-resilient) finish state: a shared countdown latch.
///
/// The count may transiently reach zero while the finish body is still
/// spawning (a fast task can complete before the next spawn), so the waiter
/// re-checks the live count under the mutex rather than trusting any sticky
/// "done" signal.
///
/// Public only because [`FinishHandle`] exposes it; construct via
/// [`Ctx::finish`](crate::runtime::Ctx::finish).
pub struct LocalFinish {
    pending: Mutex<usize>,
    cv: Condvar,
    report: Mutex<FinishReport>,
}

impl LocalFinish {
    fn new() -> Arc<Self> {
        Arc::new(LocalFinish {
            pending: Mutex::new(0),
            cv: Condvar::default(),
            report: Mutex::new(FinishReport::default()),
        })
    }

    fn spawned(&self) {
        *self.pending.lock() += 1;
    }

    fn terminated(&self, outcome: TaskOutcome) {
        if let TaskOutcome::Panicked(msg) = outcome {
            self.report.lock().panics.push(msg);
        }
        let mut pending = self.pending.lock();
        debug_assert!(*pending > 0, "termination without matching spawn");
        *pending -= 1;
        if *pending == 0 {
            self.cv.notify_all();
        }
    }

    fn record_dead(&self, e: DeadPlaceException) {
        self.report.lock().dead.push(e);
    }

    /// Blocks until the count is zero. Only sound once the finish body has
    /// returned (no further top-level spawns can arrive), which `Ctx::finish`
    /// guarantees by calling `wait` after the body. Nested spawns from
    /// still-running tasks are safe: the parent's count is released only
    /// after it has registered its children.
    fn wait(&self) -> FinishReport {
        drop(self.cv.wait_while(self.pending.lock(), |pending| *pending > 0));
        std::mem::take(&mut self.report.lock())
    }
}

/// A cloneable, sendable handle to an open finish; lets tasks spawn nested
/// asyncs governed by the same finish (X10 nested `async` semantics).
#[derive(Clone)]
pub enum FinishHandle {
    #[doc(hidden)]
    Local(Arc<LocalFinish>),
    #[doc(hidden)]
    Resilient { fid: u64 },
}

impl FinishHandle {
    /// Spawn `f` at place `p` under this finish.
    ///
    /// If `p` is (or just became) dead, a [`DeadPlaceException`] is recorded
    /// with the finish and delivered at its `wait`; the spawn itself does not
    /// fail loudly — mirroring X10, where the exception surfaces at the
    /// enclosing `finish`.
    pub fn async_at<F>(&self, ctx: &Ctx, p: Place, f: F)
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        let rt = ctx.rt();
        RuntimeStats::bump(&rt.stats.tasks_spawned);
        // The dispatch instant is the causal anchor: the receiving place's
        // task span parents to it, so the Chrome export draws a flow arrow
        // from this exact point to wherever the task actually ran.
        let dispatch = rt.tracer.instant(ctx.here().id(), SpanKind::AsyncAt, p.id() as u64);
        let tctx = if dispatch != 0 {
            TraceCtx { parent: dispatch, origin: ctx.here().id() }
        } else {
            TraceCtx::NONE
        };
        match self {
            FinishHandle::Local(state) => {
                if !rt.is_alive(p) {
                    state.record_dead(DeadPlaceException::new(p, "async_at target dead"));
                    return;
                }
                state.spawned();
                let state2 = Arc::clone(state);
                let sent = rt.send(
                    p,
                    Envelope::Task {
                        run: Box::new(move |ctx| {
                            let outcome = run_catching(ctx, tctx, SpanKind::AsyncTask, f);
                            state2.terminated(outcome);
                        }),
                    },
                );
                if let Err(e) = sent {
                    // Lost the race with a kill: account for the task we
                    // already registered.
                    state.record_dead(e);
                    state.terminated(TaskOutcome::Completed);
                }
            }
            FinishHandle::Resilient { fid } => {
                let fid = *fid;
                let ack = if ctx.here() == Place::ZERO {
                    // The registry is this place's own memory: record the
                    // spawn directly, as Resilient X10's place-zero finish
                    // does, and take the ack as a return value.
                    RuntimeStats::bump(&rt.stats.ctl_local);
                    Some(rt.finish_svc.record_spawn(|q| rt.is_alive(q), fid, p))
                } else {
                    // Synchronous spawn record at place zero — the expensive
                    // round trip that makes resilient finish costly.
                    RuntimeStats::bump(&rt.stats.ctl_spawns);
                    let _span =
                        rt.tracer.span(ctx.here().id(), SpanKind::CtlSpawn, p.id() as u64);
                    let (ack_tx, ack_rx) = sync_channel(1);
                    // Parent the place-zero bookkeeping instant to this
                    // CtlSpawn span (captured inside its guard scope).
                    let spawn_tctx = TraceCtx::capture(&rt.tracer, ctx.here().id());
                    // An undeliverable record (runtime shutting down) drops
                    // `ack_tx` with the message, so the recv below fails.
                    let _ = rt.send_ctl(CtlMsg::Spawn {
                        fid,
                        dst: p,
                        ack: ack_tx,
                        tctx: spawn_tctx,
                    });
                    ack_rx.recv().ok()
                };
                // Dead target: the exception is already recorded at the
                // registry. No ack at all: the runtime is shutting down.
                if ack != Some(SpawnAck::Ok) {
                    return;
                }
                let sent = rt.send(
                    p,
                    Envelope::Task {
                        run: Box::new(move |ctx| {
                            let outcome = run_catching(ctx, tctx, SpanKind::AsyncTask, f);
                            let rt = ctx.rt();
                            let here = ctx.here();
                            if here == Place::ZERO {
                                RuntimeStats::bump(&rt.stats.ctl_local);
                                rt.finish_svc.record_term(fid, here, outcome);
                            } else if rt.is_alive(here) {
                                // Re-adopt the sender context just for the
                                // bookkeeping instant so CtlTerm still links
                                // into the causal chain; nothing in this
                                // scope unwinds, so the guard cannot leak.
                                let _adopt = tctx.adopt();
                                RuntimeStats::bump(&rt.stats.ctl_terms);
                                let term = rt.tracer.instant(here.id(), SpanKind::CtlTerm, fid);
                                let term_tctx = if term != 0 {
                                    TraceCtx { parent: term, origin: here.id() }
                                } else {
                                    TraceCtx::NONE
                                };
                                // Undeliverable only at shutdown, when no
                                // finish is left to hear of it.
                                let _ = rt.send_ctl(CtlMsg::Term {
                                    fid,
                                    place: here,
                                    outcome,
                                    tctx: term_tctx,
                                });
                            }
                            // If our place died mid-run, PlaceDied already
                            // accounted for us at the registry.
                        }),
                    },
                );
                // If the send lost a race with a kill, the queued-task drop
                // plus the PlaceDied reconciliation settle the count.
                let _ = sent;
            }
        }
    }
}

/// Run a received task body, converting panics into a reportable outcome.
///
/// The TLS trace adoption and the task span live strictly *inside* the
/// unwind boundary: a panic unwinds through both guards before being caught
/// here, so the executing thread can never be left carrying the sender's
/// adopted parent span into whatever task it dispatches next. (Before this
/// scoping, a panic left the guard-restore to the enclosing closure — one
/// mis-nested early return away from poisoning the thread's causal state.)
pub(crate) fn run_catching<F: FnOnce(&Ctx)>(
    ctx: &Ctx,
    tctx: TraceCtx,
    kind: SpanKind,
    f: F,
) -> TaskOutcome {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _adopt = tctx.adopt();
        let _span = ctx.rt().tracer.span(ctx.here().id(), kind, tctx.origin as u64);
        f(ctx)
    })) {
        Ok(()) => TaskOutcome::Completed,
        Err(payload) => TaskOutcome::Panicked(panic_message(payload)),
    }
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A replayable task body: unlike the `FnOnce` of a plain `async_at`, a
/// policied body may run several times (and, under a timeout, concurrently
/// with an abandoned straggler attempt).
pub type TaskFn = dyn Fn(&Ctx) + Send + Sync;

/// Outcome of one policied attempt.
enum Attempt {
    Ok,
    Panicked(String),
    TimedOut,
}

/// Jittered backoff for replay attempt `attempt` (1-based): uniform over
/// `[base/2, 3·base/2)` where `base = backoff_ms × attempt`. The jitter
/// source is an xorshift64* hash of a fresh span-id draw — cheap,
/// dependency-free decorrelation so co-failing replicas don't replay in
/// lockstep; not random in any stronger sense.
fn backoff_jitter(backoff_ms: u64, attempt: u32) -> Duration {
    let mut x = crate::trace::next_span_id().wrapping_mul(0x9e3779b97f4a7c15) | 1;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    let r = x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33;
    let base_us = backoff_ms.saturating_mul(attempt as u64).max(1).saturating_mul(1000);
    Duration::from_micros(base_us / 2 + r % base_us)
}

/// Execute one attempt of a policied body. With no deadline the body runs
/// inline under `catch_unwind`. With a deadline it runs on a helper thread
/// holding a same-place [`Ctx`] clone; on timeout the helper is *abandoned*
/// (fail-stop kill of the attempt, not the place) and may still complete
/// invisibly — which is why policied bodies must be duplicate-tolerant.
fn attempt_once(ctx: &Ctx, policy: &TaskPolicy, f: &Arc<TaskFn>) -> Attempt {
    if policy.timeout_ms == 0 {
        return match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(ctx))) {
            Ok(()) => Attempt::Ok,
            Err(payload) => Attempt::Panicked(panic_message(payload)),
        };
    }
    let (tx, rx) = sync_channel(1);
    let body = Arc::clone(f);
    let helper_ctx = ctx.clone();
    let spawned = std::thread::Builder::new().name("gml-task-attempt".into()).spawn(move || {
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&helper_ctx)));
        let _ = tx.send(r.map_err(panic_message));
    });
    if spawned.is_err() {
        // Cannot enforce the deadline without a helper; degrade to inline.
        return match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(ctx))) {
            Ok(()) => Attempt::Ok,
            Err(payload) => Attempt::Panicked(panic_message(payload)),
        };
    }
    match rx.recv_timeout(Duration::from_millis(policy.timeout_ms)) {
        Ok(Ok(())) => Attempt::Ok,
        Ok(Err(msg)) => Attempt::Panicked(msg),
        Err(_) => Attempt::TimedOut,
    }
}

/// Execute one relocated attempt at place `q` via the synchronous `at`
/// round trip (no deadline: relocation already removed the straggling
/// place from the equation).
fn attempt_at(ctx: &Ctx, q: Place, f: &Arc<TaskFn>) -> Attempt {
    let body = Arc::clone(f);
    match ctx.at(q, move |ctx| body(ctx)) {
        Ok(()) => Attempt::Ok,
        Err(e) => Attempt::Panicked(e.to_string()),
    }
}

/// The replay driver a policied `async_at` body runs under: attempt, and on
/// panic or timeout replay up to `policy.retries` more times with jittered
/// backoff. A timed-out attempt's replay is relocated to another live place
/// when one exists (the straggler's place may itself be the problem). When
/// the budget is exhausted the last failure is re-raised as a panic, so the
/// enclosing finish reports it exactly like an unpolicied task panic.
pub(crate) fn run_policied(ctx: &Ctx, policy: TaskPolicy, f: Arc<TaskFn>) {
    let attempts = policy.retries.saturating_add(1);
    let mut last_failure = String::new();
    // Where the next attempt runs: None = locally; Some(q) = relocated.
    let mut relocate: Option<Place> = None;
    for attempt in 0..attempts {
        let rt = ctx.rt();
        let outcome = if attempt == 0 {
            attempt_once(ctx, &policy, &f)
        } else {
            RuntimeStats::bump(&rt.stats.task_replays);
            std::thread::sleep(backoff_jitter(policy.backoff_ms, attempt));
            let _span =
                rt.tracer.span(ctx.here().id(), SpanKind::TaskReplay, attempt as u64);
            match relocate {
                Some(q) => attempt_at(ctx, q, &f),
                None => attempt_once(ctx, &policy, &f),
            }
        };
        match outcome {
            Attempt::Ok => return,
            Attempt::Panicked(msg) => {
                last_failure = msg;
                relocate = None;
            }
            Attempt::TimedOut => {
                RuntimeStats::bump(&rt.stats.task_timeouts);
                last_failure =
                    format!("attempt {} timed out after {}ms", attempt + 1, policy.timeout_ms);
                relocate = ctx
                    .world()
                    .iter()
                    .find(|&q| q != ctx.here() && ctx.is_alive(q));
            }
        }
    }
    panic!("task failed after {attempts} attempt(s): {last_failure}");
}

/// The scope passed to the body of [`Ctx::finish`]; spawns tasks tracked by
/// the enclosing finish.
pub struct FinishScope<'a> {
    ctx: &'a Ctx,
    handle: FinishHandle,
}

impl<'a> FinishScope<'a> {
    pub(crate) fn new_local(ctx: &'a Ctx) -> Self {
        FinishScope { ctx, handle: FinishHandle::Local(LocalFinish::new()) }
    }

    pub(crate) fn new_resilient(ctx: &'a Ctx, fid: u64) -> Self {
        FinishScope { ctx, handle: FinishHandle::Resilient { fid } }
    }

    /// Spawn an asynchronous task at place `p`, tracked by this finish.
    pub fn async_at<F>(&self, p: Place, f: F)
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        self.handle.async_at(self.ctx, p, f);
    }

    /// Spawn a task at place `p` under an explicit [`TaskPolicy`]: a
    /// panicked or timed-out body is replayed up to `policy.retries` more
    /// times (timed-out stragglers are replayed at another live place when
    /// possible) before the failure surfaces at this finish's `wait`.
    ///
    /// The body is `Fn`, not `FnOnce` — it may execute more than once, and
    /// under a nonzero timeout possibly concurrently with an abandoned
    /// straggler attempt, so it must be duplicate-tolerant.
    pub fn async_at_policied<F>(&self, p: Place, policy: TaskPolicy, f: F)
    where
        F: Fn(&Ctx) + Send + Sync + 'static,
    {
        let f: Arc<TaskFn> = Arc::new(f);
        self.handle.async_at(self.ctx, p, move |ctx| run_policied(ctx, policy, f));
    }

    /// A sendable handle for spawning nested tasks from within child tasks.
    pub fn handle(&self) -> FinishHandle {
        self.handle.clone()
    }

    /// Block until all tasks spawned under this finish have terminated.
    pub(crate) fn wait(self) -> Result<(), ApgasError> {
        let rt = self.ctx.rt();
        let report = match self.handle {
            FinishHandle::Local(state) => state.wait(),
            FinishHandle::Resilient { fid } => {
                let here = self.ctx.here();
                let _span = rt.tracer.span(here.id(), SpanKind::CtlWait, fid);
                let waiter = Waiter::new();
                if here == Place::ZERO {
                    RuntimeStats::bump(&rt.stats.ctl_local);
                    rt.finish_svc.register_wait(fid, Arc::clone(&waiter));
                } else {
                    RuntimeStats::bump(&rt.stats.ctl_waits);
                    // A Wait that cannot be enqueued would leave this
                    // finish blocked on a waiter nobody holds.
                    let wait = CtlMsg::Wait { fid, waiter: Arc::clone(&waiter) };
                    if rt.send_ctl(wait).is_err() {
                        return Err(ApgasError::Unsupported(
                            "runtime shut down: finish cannot register its wait at place zero"
                                .into(),
                        ));
                    }
                }
                waiter.block()
            }
        };
        report.into_result()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alive_all(_: Place) -> bool {
        true
    }

    #[test]
    fn service_counts_spawn_term_wait() {
        let svc = FinishService::default();
        let (ack, ack_rx) = sync_channel(1);
        svc.handle(alive_all, CtlMsg::Spawn { fid: 1, dst: Place::new(2), ack, tctx: TraceCtx::NONE });
        assert_eq!(ack_rx.recv().unwrap(), SpawnAck::Ok);
        assert_eq!(svc.open_finishes(), 1);

        let waiter = Waiter::new();
        svc.handle(alive_all, CtlMsg::Wait { fid: 1, waiter: Arc::clone(&waiter) });
        // Not yet complete: one task pending.
        assert_eq!(svc.open_finishes(), 1);

        svc.handle(
            alive_all,
            CtlMsg::Term { fid: 1, place: Place::new(2), outcome: TaskOutcome::Completed, tctx: TraceCtx::NONE },
        );
        let report = waiter.block();
        assert!(report.dead.is_empty());
        assert!(report.panics.is_empty());
        assert_eq!(svc.open_finishes(), 0);
    }

    #[test]
    fn service_spawn_to_dead_place_records_exception() {
        // The direct (place-zero) entry points, without a message.
        let svc = FinishService::default();
        let dead = Place::new(3);
        assert_eq!(svc.record_spawn(|p| p != dead, 7, dead), SpawnAck::Dead);
        assert_eq!(svc.record_spawn(|p| p != dead, 7, Place::new(1)), SpawnAck::Ok);
        svc.record_term(7, Place::new(1), TaskOutcome::Completed);
        let waiter = Waiter::new();
        svc.register_wait(7, Arc::clone(&waiter));
        let report = waiter.block();
        assert_eq!(report.dead.len(), 1);
        assert_eq!(report.dead[0].place, dead);
        assert_eq!(svc.open_finishes(), 0);
    }

    #[test]
    fn service_place_death_releases_waiter_with_exception() {
        let svc = FinishService::default();
        let p = Place::new(2);
        for _ in 0..3 {
            let (ack, ack_rx) = sync_channel(1);
            svc.handle(alive_all, CtlMsg::Spawn { fid: 9, dst: p, ack, tctx: TraceCtx::NONE });
            assert_eq!(ack_rx.recv().unwrap(), SpawnAck::Ok);
        }
        let waiter = Waiter::new();
        svc.handle(alive_all, CtlMsg::Wait { fid: 9, waiter: Arc::clone(&waiter) });
        svc.handle(alive_all, CtlMsg::PlaceDied { place: p, tctx: TraceCtx::NONE });
        let report = waiter.block();
        assert_eq!(report.dead.len(), 1, "3 lost tasks collapse into one DPE per place");
        assert_eq!(svc.open_finishes(), 0);
    }

    #[test]
    fn service_ignores_stray_terms_after_death() {
        let svc = FinishService::default();
        let (p, q) = (Place::new(1), Place::new(2));
        assert_eq!(svc.record_spawn(alive_all, 4, p), SpawnAck::Ok);
        assert_eq!(svc.record_spawn(alive_all, 4, q), SpawnAck::Ok);
        svc.place_died(p);
        // The task actually completed and its Term raced in late: it must
        // neither be counted twice nor eat the other place's count.
        svc.record_term(4, p, TaskOutcome::Completed);
        let waiter = Waiter::new();
        svc.register_wait(4, Arc::clone(&waiter));
        assert_eq!(svc.ledger()[0].pending, vec![(2, 1)], "q's task is still owed");
        svc.record_term(4, q, TaskOutcome::Completed);
        let report = waiter.block();
        assert_eq!(report.dead.len(), 1);
        assert_eq!(svc.open_finishes(), 0);
    }

    #[test]
    fn empty_finish_completes_immediately() {
        let svc = FinishService::default();
        let waiter = Waiter::new();
        svc.handle(alive_all, CtlMsg::Wait { fid: 11, waiter: Arc::clone(&waiter) });
        let report = waiter.block();
        assert!(report.dead.is_empty());
    }

    #[test]
    fn local_finish_latch() {
        let lf = LocalFinish::new();
        lf.spawned();
        lf.spawned();
        let lf2 = Arc::clone(&lf);
        let t = std::thread::spawn(move || {
            lf2.terminated(TaskOutcome::Completed);
            lf2.terminated(TaskOutcome::Panicked("boom".into()));
        });
        let report = lf.wait();
        t.join().unwrap();
        assert_eq!(report.panics, vec!["boom".to_string()]);
    }

    #[test]
    fn panic_message_extraction() {
        let msg = panic_message(Box::new("static"));
        assert_eq!(msg, "static");
        let msg = panic_message(Box::new(String::from("owned")));
        assert_eq!(msg, "owned");
        let msg = panic_message(Box::new(42u32));
        assert_eq!(msg, "non-string panic payload");
    }
}
