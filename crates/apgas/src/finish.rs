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

use crate::error::{ApgasError, DeadPlaceException};
use crate::place::Place;
use crate::runtime::{Ctx, Envelope};
use crate::stats::RuntimeStats;
use crate::sync::{Condvar, Mutex};
use crate::trace::SpanKind;

/// Outcome of one finished task, reported to whichever finish owns it.
#[derive(Debug, Clone)]
pub(crate) enum TaskOutcome {
    Completed,
    Panicked(String),
}

/// Bookkeeping messages processed by the place-zero finish service.
pub(crate) enum CtlMsg {
    /// Record a task about to be sent to `dst` under finish `fid`.
    /// Synchronous: the spawner blocks until `ack` fires.
    Spawn { fid: u64, dst: Place, ack: SyncSender<SpawnAck> },
    /// A task under finish `fid` finished at `place`.
    Term { fid: u64, place: Place, outcome: TaskOutcome },
    /// The finish body is done; signal `waiter` when all tasks are done.
    Wait { fid: u64, waiter: Arc<Waiter> },
    /// A place died: adjust every finish that had tasks there.
    PlaceDied { place: Place },
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
            CtlMsg::Spawn { fid, dst, ack } => {
                let _ = ack.send(self.record_spawn(is_alive, fid, dst));
            }
            CtlMsg::Term { fid, place, outcome } => self.record_term(fid, place, outcome),
            CtlMsg::Wait { fid, waiter } => self.register_wait(fid, waiter),
            CtlMsg::PlaceDied { place } => self.place_died(place),
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
        rt.tracer.instant(ctx.here().id(), SpanKind::AsyncAt, p.id() as u64);
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
                            let outcome = run_catching(ctx, f);
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
                    // An undeliverable record (runtime shutting down) drops
                    // `ack_tx` with the message, so the recv below fails.
                    let _ = rt.send_ctl(CtlMsg::Spawn { fid, dst: p, ack: ack_tx });
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
                            let outcome = run_catching(ctx, f);
                            let rt = ctx.rt();
                            let here = ctx.here();
                            if here == Place::ZERO {
                                RuntimeStats::bump(&rt.stats.ctl_local);
                                rt.finish_svc.record_term(fid, here, outcome);
                            } else if rt.is_alive(here) {
                                RuntimeStats::bump(&rt.stats.ctl_terms);
                                rt.tracer.instant(here.id(), SpanKind::CtlTerm, fid);
                                // Undeliverable only at shutdown, when no
                                // finish is left to hear of it.
                                let _ = rt.send_ctl(CtlMsg::Term { fid, place: here, outcome });
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

/// Run a received task body under an [`SpanKind::AsyncTask`] span,
/// converting panics into a reportable outcome.
///
/// The span lives strictly *inside* the unwind boundary: a panic unwinds
/// through its guard before being caught here, so the executing thread's
/// current span is back where it was for whatever task it runs next.
pub(crate) fn run_catching<F: FnOnce(&Ctx)>(ctx: &Ctx, f: F) -> TaskOutcome {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let here = ctx.here().id();
        let _span = ctx.rt().tracer.span(here, SpanKind::AsyncTask, here as u64);
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
        svc.handle(alive_all, CtlMsg::Spawn { fid: 1, dst: Place::new(2), ack });
        assert_eq!(ack_rx.recv().unwrap(), SpawnAck::Ok);
        assert_eq!(svc.open_finishes(), 1);

        let waiter = Waiter::new();
        svc.handle(alive_all, CtlMsg::Wait { fid: 1, waiter: Arc::clone(&waiter) });
        // Not yet complete: one task pending.
        assert_eq!(svc.open_finishes(), 1);

        svc.handle(
            alive_all,
            CtlMsg::Term { fid: 1, place: Place::new(2), outcome: TaskOutcome::Completed },
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
            svc.handle(alive_all, CtlMsg::Spawn { fid: 9, dst: p, ack });
            assert_eq!(ack_rx.recv().unwrap(), SpawnAck::Ok);
        }
        let waiter = Waiter::new();
        svc.handle(alive_all, CtlMsg::Wait { fid: 9, waiter: Arc::clone(&waiter) });
        svc.handle(alive_all, CtlMsg::PlaceDied { place: p });
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
