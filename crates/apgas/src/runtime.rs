//! The place runtime: mailboxes, dispatchers, remote execution, failure
//! injection.
//!
//! Each place gets a *dispatcher thread* that owns its mailbox. Application
//! tasks are handed to a shared [cached thread pool](crate::thread_cache) so
//! a blocked activity (e.g. one waiting inside `finish`) never stalls the
//! place's message processing — the same reason X10 grows a place's worker
//! pool on blocking operations. Place zero's dispatcher additionally applies
//! resilient-finish bookkeeping messages, making it the funnel the paper
//! identifies as the source of resilient overhead.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::error::{ApgasError, DeadPlaceException, Result};
use crate::finish::{self, CtlMsg, FinishScope, LedgerEntry};
use crate::place::{Place, PlaceGroup};
use crate::plh::PlhRegistry;
use crate::stats::{RuntimeStats, StatsSnapshot};
use crate::sync::{Mutex, RwLock};
use crate::thread_cache::ThreadCache;
use crate::trace::{SpanGuard, SpanKind, Tracer};

/// Configuration for a [`Runtime`].
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Number of initially active places (the *world* group).
    pub places: usize,
    /// Extra places started up-front as spares for the replace-redundant
    /// restoration mode. They idle until substituted for a failed place.
    pub spares: usize,
    /// Enable Resilient X10 semantics: place-zero finish bookkeeping and
    /// tolerance of place failure. When false, `kill_place` is refused —
    /// original X10's "a crash kills the whole application".
    pub resilient: bool,
    /// Structured tracing ([`crate::trace`]): `Some(on)` forces it, `None`
    /// (the default) defers to the `GML_TRACE` environment variable.
    pub trace: Option<bool>,
}

impl RuntimeConfig {
    /// A non-resilient runtime with `places` active places and no spares.
    pub fn new(places: usize) -> Self {
        RuntimeConfig { places, spares: 0, resilient: false, trace: None }
    }

    /// Set the number of spare places.
    pub fn spares(mut self, spares: usize) -> Self {
        self.spares = spares;
        self
    }

    /// Enable or disable resilient semantics.
    pub fn resilient(mut self, on: bool) -> Self {
        self.resilient = on;
        self
    }

    /// Force structured tracing on or off, overriding `GML_TRACE`.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = Some(on);
        self
    }

    fn total_places(&self) -> usize {
        self.places + self.spares
    }
}

/// A message deliverable to a place's mailbox.
pub(crate) enum Envelope {
    /// Run an application task at the receiving place.
    Task { run: Box<dyn FnOnce(&Ctx) + Send + 'static> },
    /// Resilient-finish bookkeeping (only ever sent to place zero).
    FinishCtl(CtlMsg),
    /// Terminate the dispatcher (runtime shutdown).
    Stop,
}

struct PlaceState {
    alive: AtomicBool,
    tx: Sender<Envelope>,
}

/// Shared runtime state. `Ctx` and dispatcher threads hold `Arc`s to this.
///
/// The place list is growable: `spawn_place` (Elastic X10's dynamic place
/// creation, the mechanism behind the replace-elastic restoration mode)
/// appends a fresh place at runtime.
pub(crate) struct RtInner {
    cfg: RuntimeConfig,
    places: RwLock<Vec<Arc<PlaceState>>>,
    world: PlaceGroup,
    pub(crate) finish_svc: finish::FinishService,
    pub(crate) plh: PlhRegistry,
    cache: ThreadCache,
    pub(crate) stats: RuntimeStats,
    pub(crate) tracer: Tracer,
    /// Where the trace is exported at shutdown (`GML_TRACE_OUT`, read once
    /// at startup; `None` when tracing is off).
    trace_out: Option<std::path::PathBuf>,
    next_finish_id: AtomicU64,
    pub(crate) next_plh_id: AtomicU64,
    dispatchers: Mutex<Vec<JoinHandle<()>>>,
    /// Set once shutdown begins; newly spawned places are refused.
    stopping: AtomicBool,
}

impl RtInner {
    fn place_state(&self, p: Place) -> Option<Arc<PlaceState>> {
        self.places.read().get(p.id() as usize).cloned()
    }

    pub(crate) fn is_alive(&self, p: Place) -> bool {
        self.place_state(p).map(|st| st.alive.load(Ordering::Acquire)).unwrap_or(false)
    }

    pub(crate) fn num_places(&self) -> usize {
        self.places.read().len()
    }

    /// Deliver `env` to `p`'s mailbox; fails if `p` is dead or gone.
    pub(crate) fn send(&self, p: Place, env: Envelope) -> std::result::Result<(), DeadPlaceException> {
        let st = self
            .place_state(p)
            .ok_or_else(|| DeadPlaceException::new(p, "no such place"))?;
        if !st.alive.load(Ordering::Acquire) {
            return Err(DeadPlaceException::new(p, "send to dead place"));
        }
        // Mailbox ledger: envelope-header bytes queued but not yet drained
        // (closure captures are opaque to the runtime and not charged; the
        // dispatcher discharges after recv). A failed send discharges
        // immediately, and envelopes stranded behind `Stop` at shutdown are
        // a bounded, documented residue.
        crate::mem::charge(crate::mem::MemTag::Mailbox, std::mem::size_of::<Envelope>());
        st.tx.send(env).map_err(|_| {
            crate::mem::discharge(crate::mem::MemTag::Mailbox, std::mem::size_of::<Envelope>());
            DeadPlaceException::new(p, "runtime shut down")
        })
    }

    /// Start one dispatcher-backed place with the next free id. Used both
    /// at startup and for elastic growth.
    fn start_place(self: &Arc<Self>) -> Place {
        let mut places = self.places.write();
        let id = places.len() as u32;
        let (tx, rx) = channel();
        places.push(Arc::new(PlaceState { alive: AtomicBool::new(true), tx }));
        drop(places);
        self.plh.ensure_place(id as usize + 1);
        self.tracer.ensure_place(id as usize + 1);
        let rt = Arc::clone(self);
        let place = Place::new(id);
        // Let the compute pool's auto-sizing account for this core-occupying
        // dispatcher thread (only matters before the pool first runs).
        crate::pool::note_dispatcher();
        let h = std::thread::Builder::new()
            .name(format!("apgas-place-{id}"))
            .spawn(move || dispatch_loop(rt, place, rx))
            .expect("spawn place dispatcher");
        self.dispatchers.lock().push(h);
        place
    }

    /// Route a bookkeeping message through place zero's mailbox. Place zero
    /// is immortal, so an error means the runtime has shut down.
    pub(crate) fn send_ctl(&self, msg: CtlMsg) -> std::result::Result<(), DeadPlaceException> {
        self.send(Place::ZERO, Envelope::FinishCtl(msg))
    }

    fn fresh_finish_id(&self) -> u64 {
        self.next_finish_id.fetch_add(1, Ordering::Relaxed)
    }
}

/// The execution context every task receives: *where am I, and how do I
/// reach the rest of the system*.
pub struct Ctx {
    rt: Arc<RtInner>,
    here: Place,
}

impl Clone for Ctx {
    /// Cloning yields another handle *at the same place* — useful for
    /// helper threads that model external agents (failure detectors, bench
    /// drivers). It does not move execution anywhere; use [`Ctx::at`] for
    /// that.
    fn clone(&self) -> Self {
        Ctx { rt: Arc::clone(&self.rt), here: self.here }
    }
}

impl Ctx {
    pub(crate) fn new(rt: Arc<RtInner>, here: Place) -> Self {
        Ctx { rt, here }
    }

    pub(crate) fn rt(&self) -> &Arc<RtInner> {
        &self.rt
    }

    /// The place this task is executing at.
    pub fn here(&self) -> Place {
        self.here
    }

    /// The initial group of active places (excluding spares).
    pub fn world(&self) -> PlaceGroup {
        self.rt.world.clone()
    }

    /// Every place the runtime has started so far, including spares and
    /// elastically spawned places.
    pub fn all_places(&self) -> PlaceGroup {
        PlaceGroup::first(self.rt.num_places())
    }

    /// Dynamically create a brand-new place (Elastic X10's dynamic place
    /// creation). The new place starts alive, empty, and outside every
    /// existing group; it backs the *replace-elastic* restoration mode,
    /// which substitutes fresh places for failed ones without reserving
    /// spares up-front.
    pub fn spawn_place(&self) -> Result<Place> {
        if self.rt.stopping.load(Ordering::Acquire) {
            return Err(ApgasError::Unsupported("runtime is shutting down".into()));
        }
        let p = self.rt.start_place();
        RuntimeStats::bump(&self.rt.stats.places_spawned);
        self.rt.tracer.instant(p.id(), SpanKind::SpawnPlace, p.id() as u64);
        Ok(p)
    }

    /// The spare places configured at startup (dead ones included), plus
    /// any elastically spawned places.
    pub fn spare_places(&self) -> Vec<Place> {
        self.all_places().iter().skip(self.rt.cfg.places).collect()
    }

    /// Spare places that are still alive and usable for replacement.
    pub fn live_spares(&self) -> Vec<Place> {
        self.spare_places().into_iter().filter(|p| self.rt.is_alive(*p)).collect()
    }

    /// Is `p` currently alive?
    pub fn is_alive(&self, p: Place) -> bool {
        self.rt.is_alive(p)
    }

    /// All currently dead places.
    pub fn dead_places(&self) -> Vec<Place> {
        self.all_places().iter().filter(|p| !self.rt.is_alive(*p)).collect()
    }

    /// The subset of `group` that is still alive, in group order.
    pub fn live_subset(&self, group: &PlaceGroup) -> PlaceGroup {
        group.iter().filter(|p| self.rt.is_alive(*p)).collect()
    }

    /// Whether this runtime runs with resilient (place-zero bookkeeping)
    /// finish semantics.
    pub fn is_resilient(&self) -> bool {
        self.rt.cfg.resilient
    }

    /// Synchronously execute `f` at place `p` and return its result — X10's
    /// `at (p) { ... }`.
    ///
    /// Fails with [`DeadPlaceException`] if `p` is dead now or dies before
    /// the result comes back.
    pub fn at<R, F>(&self, p: Place, f: F) -> Result<R>
    where
        R: Send + 'static,
        F: FnOnce(&Ctx) -> R + Send + 'static,
    {
        RuntimeStats::bump(&self.rt.stats.at_calls);
        RuntimeStats::bump(&self.rt.stats.tasks_spawned);
        let _span = self.rt.tracer.span(self.here.id(), SpanKind::At, p.id() as u64);
        let from = self.here.id();
        let (tx, rx) = sync_channel::<std::result::Result<R, String>>(1);
        self.rt.send(
            p,
            Envelope::Task {
                run: Box::new(move |ctx| {
                    // The body span lives strictly inside the unwind
                    // boundary: a panicking body unwinds through its guard
                    // before being caught, so the thread's current span is
                    // restored for the next task.
                    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let _span =
                            ctx.rt.tracer.span(ctx.here.id(), SpanKind::AtRemote, from as u64);
                        f(ctx)
                    }));
                    if ctx.rt.is_alive(ctx.here) {
                        let _ = tx.send(res.map_err(finish::panic_message));
                    }
                    // If our place died mid-run, dropping `tx` tells the
                    // caller via a DeadPlaceException.
                }),
            },
        )?;
        match rx.recv() {
            Ok(Ok(r)) => Ok(r),
            Ok(Err(panic)) => Err(ApgasError::TaskPanic(panic)),
            Err(_) => Err(DeadPlaceException::new(p, "place died during at()").into()),
        }
    }

    /// Run `body`, then block until every task it spawned (transitively)
    /// has terminated — X10's `finish { ... }`.
    ///
    /// In resilient mode, failures of involved places surface here as
    /// `Err(DeadPlace/Multiple)`. In non-resilient mode failures cannot
    /// occur (injection is refused), so `Ok` simply means quiescence.
    pub fn finish<F>(&self, body: F) -> Result<()>
    where
        F: FnOnce(&FinishScope<'_>),
    {
        let scope = if self.rt.cfg.resilient {
            FinishScope::new_resilient(self, self.rt.fresh_finish_id())
        } else {
            FinishScope::new_local(self)
        };
        body(&scope);
        scope.wait()
    }

    /// Run `f` on one of the runtime's cached threads with a handle *at this
    /// place* — for work that must proceed beside the caller (a checkpoint's
    /// backup ships) without creating an OS thread per call. It is a local
    /// helper, not a task: no finish tracks it, so the caller joins it.
    pub fn spawn_helper<R, F>(&self, f: F) -> Helper<R>
    where
        R: Send + 'static,
        F: FnOnce(&Ctx) -> R + Send + 'static,
    {
        let (tx, rx) = sync_channel(1);
        let ctx = self.clone();
        self.rt.cache.submit(Box::new(move || {
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&ctx)));
            let _ = tx.send(res.map_err(finish::panic_message));
        }));
        Helper { rx }
    }

    /// Inject a fail-stop failure at `p`: its place-local data is wiped, its
    /// queued tasks are dropped, and subsequent operations touching it raise
    /// [`DeadPlaceException`].
    ///
    /// Refused for place zero (the paper's immortality assumption) and under
    /// a non-resilient runtime (where a real crash would take the whole
    /// application down, as in pre-resilience GML).
    pub fn kill_place(&self, p: Place) -> Result<()> {
        kill_place_inner(&self.rt, p)
    }

    /// Record `n` bytes of cross-place payload movement (called by the data
    /// layers whenever they serialize data between places).
    pub fn record_bytes(&self, n: usize) {
        RuntimeStats::add(&self.rt.stats.bytes_shipped, n as u64);
    }

    /// Record `n` bytes of payload that landed at a receiving place. Called
    /// at every receive site (where the one honest copy materializes), so
    /// `bytes_received` mirrors `bytes_shipped` — equal in failure-free
    /// runs, short by exactly the in-flight payloads lost to dead places
    /// under failure.
    pub fn record_bytes_received(&self, n: usize) {
        RuntimeStats::add(&self.rt.stats.bytes_received, n as u64);
    }

    /// Serialize `value` for a place crossing, charging the wall time to
    /// `encode_nanos`. Byte accounting stays separate ([`Self::record_bytes`])
    /// because not every encode is billed at its own site — snapshot saves,
    /// for example, bill the backup transfer inside the store.
    pub fn encode<T: crate::serial::Serial>(&self, value: &T) -> bytes::Bytes {
        let t0 = std::time::Instant::now();
        let bytes = value.to_bytes();
        let elapsed = t0.elapsed();
        RuntimeStats::add(&self.rt.stats.encode_nanos, elapsed.as_nanos() as u64);
        self.rt.tracer.complete(self.here.id(), SpanKind::Encode, bytes.len() as u64, elapsed);
        bytes
    }

    /// Deserialize a payload received from another place, charging the wall
    /// time to `decode_nanos`.
    pub fn decode<T: crate::serial::Serial>(&self, bytes: bytes::Bytes) -> T {
        let n = bytes.len() as u64;
        let t0 = std::time::Instant::now();
        let v = T::from_bytes(bytes);
        let elapsed = t0.elapsed();
        RuntimeStats::add(&self.rt.stats.decode_nanos, elapsed.as_nanos() as u64);
        self.rt.tracer.complete(self.here.id(), SpanKind::Decode, n, elapsed);
        v
    }

    /// A point-in-time copy of the runtime's activity counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.rt.stats.snapshot()
    }

    /// The runtime's trace collector (disabled unless `GML_TRACE` /
    /// [`RuntimeConfig::trace`] switched it on).
    pub fn tracer(&self) -> &Tracer {
        &self.rt.tracer
    }

    /// Begin a span at this place; ends (and feeds its latency histogram)
    /// when the returned guard drops. One branch when tracing is off.
    #[inline]
    pub fn trace_span(&self, kind: SpanKind, arg: u64) -> SpanGuard<'_> {
        self.rt.tracer.span(self.here.id(), kind, arg)
    }

    /// Begin a labeled span (e.g. the restore mode) at this place.
    #[inline]
    pub fn trace_span_labeled(
        &self,
        kind: SpanKind,
        label: &'static str,
        arg: u64,
    ) -> SpanGuard<'_> {
        self.rt.tracer.span_labeled(self.here.id(), kind, label, arg)
    }

    /// A point-in-time view of every open resilient finish in the place-zero
    /// registry: pending task counts per place, recorded exceptions, and
    /// whether a waiter is already blocked. Empty under non-resilient
    /// semantics (local finishes keep no central record). This is the
    /// "ledger state" the failure-forensics flight recorder captures.
    pub fn finish_ledger(&self) -> Vec<LedgerEntry> {
        self.rt.finish_svc.ledger()
    }
}

/// The pending result of [`Ctx::spawn_helper`].
pub struct Helper<R> {
    rx: Receiver<std::result::Result<R, String>>,
}

impl<R> Helper<R> {
    /// Block until the body has returned. `Err` carries the panic message
    /// if the body panicked.
    pub fn join(self) -> std::result::Result<R, String> {
        self.rx.recv().unwrap_or_else(|_| Err("helper thread exited without a result".into()))
    }
}

fn kill_place_inner(rt: &Arc<RtInner>, p: Place) -> Result<()> {
    if p == Place::ZERO {
        return Err(ApgasError::Unsupported("place zero is immortal".into()));
    }
    if !rt.cfg.resilient {
        return Err(ApgasError::Unsupported(
            "place failure under a non-resilient runtime aborts the whole application; \
             run with RuntimeConfig::resilient(true) to tolerate it"
                .into(),
        ));
    }
    let st = rt
        .place_state(p)
        .ok_or_else(|| ApgasError::Unsupported(format!("no such place {p}")))?;
    if st.alive.swap(false, Ordering::AcqRel) {
        RuntimeStats::bump(&rt.stats.failures);
        // Shown on the victim's track: the fail-stop instant.
        rt.tracer.instant(p.id(), SpanKind::KillPlace, p.id() as u64);
        // The place's memory is gone.
        rt.plh.clear_place(p);
        // Tell the place-zero registry so open finishes settle their counts
        // (after shutdown there is no registry traffic left to settle).
        let _ = rt.send_ctl(CtlMsg::PlaceDied { place: p });
    }
    Ok(())
}

/// A running collection of places.
///
/// Most callers use the one-shot [`Runtime::run`]. `new`/`exec`/`shutdown`
/// are available when several entry tasks must share one runtime.
pub struct Runtime {
    inner: Arc<RtInner>,
}

impl Runtime {
    /// Start dispatcher threads for every configured place.
    pub fn new(cfg: RuntimeConfig) -> Self {
        assert!(cfg.places >= 1, "need at least one place");
        let tracer = if cfg.trace.unwrap_or_else(crate::env::trace) {
            Tracer::enabled(crate::trace::DEFAULT_RING_CAPACITY)
        } else {
            Tracer::disabled()
        };
        // Probe the export destination up front (creating missing parent
        // directories) so an unwritable path is reported before the run,
        // not at export time when the data is already collected.
        let trace_out = crate::env::trace_out().filter(|_| tracer.is_on());
        if let Some(path) = &trace_out {
            crate::trace::prepare_out_path(path);
        }
        let inner = Arc::new(RtInner {
            cfg,
            places: RwLock::new(Vec::new()),
            world: PlaceGroup::first(cfg.places),
            finish_svc: finish::FinishService::default(),
            plh: PlhRegistry::new(0),
            cache: ThreadCache::new(),
            stats: RuntimeStats::default(),
            tracer,
            trace_out,
            next_finish_id: AtomicU64::new(1),
            next_plh_id: AtomicU64::new(1),
            dispatchers: Mutex::new(Vec::new()),
            stopping: AtomicBool::new(false),
        });
        for _ in 0..cfg.total_places() {
            inner.start_place();
        }
        // Surface compute-pool jobs as `pool.run` spans on this runtime's
        // tracer. The observer holds only a Weak handle: after shutdown it
        // degrades to a no-op, and a newer runtime simply re-installs it.
        {
            let weak = Arc::downgrade(&inner);
            crate::pool::set_observer(Some(Arc::new(move |chunks, elapsed| {
                if let Some(rt) = weak.upgrade() {
                    rt.tracer.complete(0, SpanKind::PoolRun, chunks as u64, elapsed);
                }
            })));
        }
        Runtime { inner }
    }

    /// Run `main` as the root activity at place zero and return its result.
    pub fn exec<R, F>(&self, main: F) -> Result<R>
    where
        R: Send + 'static,
        F: FnOnce(&Ctx) -> R + Send + 'static,
    {
        let ctx = Ctx::new(Arc::clone(&self.inner), Place::ZERO);
        ctx.at(Place::ZERO, main)
    }

    /// Inject a failure from outside the place world (e.g. a bench driver).
    pub fn kill_place(&self, p: Place) -> Result<()> {
        kill_place_inner(&self.inner, p)
    }

    /// Activity counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// The runtime's trace collector.
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// Export the retained trace as Chrome `trace_event` JSON at `path`.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.inner.tracer.chrome_json())
    }

    /// Stop all dispatchers and join them. Idempotent.
    pub fn shutdown(&self) {
        // First transition only: export the trace. Re-create any parent
        // directories removed since the startup probe; only then write.
        if !self.inner.stopping.swap(true, Ordering::AcqRel) {
            if let Some(p) = self.inner.trace_out.as_deref() {
                if crate::trace::prepare_out_path(p) {
                    if let Err(e) = self.write_chrome_trace(p) {
                        let var = crate::env::TRACE_OUT;
                        eprintln!("{var}: failed to write {}: {e}", p.display());
                    }
                }
            }
        }
        self.inner.stopping.store(true, Ordering::Release);
        for st in self.inner.places.read().iter() {
            let _ = st.tx.send(Envelope::Stop);
        }
        let mut handles = self.inner.dispatchers.lock();
        for h in handles.drain(..) {
            let _ = h.join();
        }
    }

    /// One-shot convenience: start, run `main` at place zero, shut down.
    pub fn run<R, F>(cfg: RuntimeConfig, main: F) -> Result<R>
    where
        R: Send + 'static,
        F: FnOnce(&Ctx) -> R + Send + 'static,
    {
        let rt = Runtime::new(cfg);
        let out = rt.exec(main);
        rt.shutdown();
        out
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn dispatch_loop(rt: Arc<RtInner>, place: Place, rx: Receiver<Envelope>) {
    while let Ok(env) = rx.recv() {
        crate::mem::discharge(crate::mem::MemTag::Mailbox, std::mem::size_of::<Envelope>());
        match env {
            Envelope::Stop => break,
            Envelope::Task { run } => {
                if rt.is_alive(place) {
                    let ctx = Ctx::new(Arc::clone(&rt), place);
                    rt.cache.submit(Box::new(move || run(&ctx)));
                }
                // Dead place: queued work is silently dropped; reply
                // channels inside `run` disconnect and callers observe a
                // DeadPlaceException.
            }
            Envelope::FinishCtl(msg) => {
                debug_assert_eq!(place, Place::ZERO, "finish bookkeeping only at place zero");
                // Stamp the bookkeeping's arrival on place zero's track.
                match &msg {
                    CtlMsg::PlaceDied { place: dead } => {
                        // Failure *detection*: the registry learns of the
                        // death here, on place zero's track.
                        rt.tracer.instant(
                            Place::ZERO.id(),
                            SpanKind::PlaceDied,
                            dead.id() as u64,
                        );
                    }
                    CtlMsg::Spawn { dst, .. } => {
                        rt.tracer.instant(
                            Place::ZERO.id(),
                            SpanKind::CtlSpawn,
                            dst.id() as u64,
                        );
                    }
                    CtlMsg::Term { fid, .. } => {
                        rt.tracer.instant(Place::ZERO.id(), SpanKind::CtlTerm, *fid);
                    }
                    CtlMsg::Wait { .. } => {}
                }
                let rt2 = Arc::clone(&rt);
                rt.finish_svc.handle(move |p| rt2.is_alive(p), msg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as StdAtomicU64;

    #[test]
    fn run_returns_main_result() {
        let out = Runtime::run(RuntimeConfig::new(2), |ctx| ctx.here().id() + 41).unwrap();
        assert_eq!(out, 41);
    }

    #[test]
    fn at_executes_remotely_and_returns() {
        let out = Runtime::run(RuntimeConfig::new(3), |ctx| {
            let p = ctx.world().place(2);
            ctx.at(p, |ctx| ctx.here().id()).unwrap()
        })
        .unwrap();
        assert_eq!(out, 2);
    }

    #[test]
    fn nested_at_round_trip() {
        let out = Runtime::run(RuntimeConfig::new(3), |ctx| {
            ctx.at(Place::new(1), |ctx| {
                ctx.at(Place::new(2), |ctx| ctx.here().id() * 10).unwrap()
            })
            .unwrap()
        })
        .unwrap();
        assert_eq!(out, 20);
    }

    #[test]
    fn at_panic_is_reported() {
        let out = Runtime::run(RuntimeConfig::new(2), |ctx| {
            ctx.at(Place::new(1), |_| -> u32 { panic!("kaboom") })
        })
        .unwrap();
        match out {
            Err(ApgasError::TaskPanic(msg)) => assert!(msg.contains("kaboom")),
            other => panic!("expected TaskPanic, got {other:?}"),
        }
    }

    #[test]
    fn finish_waits_for_all_places_non_resilient() {
        finish_waits_for_all_places(false);
    }

    #[test]
    fn finish_waits_for_all_places_resilient() {
        finish_waits_for_all_places(true);
    }

    fn finish_waits_for_all_places(resilient: bool) {
        let n = 6;
        let cfg = RuntimeConfig::new(n).resilient(resilient);
        let total = Runtime::run(cfg, move |ctx| {
            let acc = Arc::new(StdAtomicU64::new(0));
            ctx.finish(|fs| {
                for p in ctx.world().iter() {
                    let acc = Arc::clone(&acc);
                    fs.async_at(p, move |ctx| {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        acc.fetch_add(ctx.here().id() as u64, Ordering::Relaxed);
                    });
                }
            })
            .unwrap();
            acc.load(Ordering::Relaxed)
        })
        .unwrap();
        assert_eq!(total, (0..6u64).sum());
    }

    #[test]
    fn nested_async_under_same_finish() {
        let cfg = RuntimeConfig::new(4).resilient(true);
        let total = Runtime::run(cfg, |ctx| {
            let acc = Arc::new(StdAtomicU64::new(0));
            ctx.finish(|fs| {
                let h = fs.handle();
                let acc2 = Arc::clone(&acc);
                fs.async_at(Place::new(1), move |ctx| {
                    // Fan out further from inside the child task.
                    for p in [Place::new(2), Place::new(3)] {
                        let acc3 = Arc::clone(&acc2);
                        h.async_at(ctx, p, move |_| {
                            acc3.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                    acc2.fetch_add(1, Ordering::Relaxed);
                });
            })
            .unwrap();
            acc.load(Ordering::Relaxed)
        })
        .unwrap();
        assert_eq!(total, 3);
    }

    #[test]
    fn kill_refused_for_place_zero_and_non_resilient() {
        Runtime::run(RuntimeConfig::new(2).resilient(true), |ctx| {
            assert!(matches!(
                ctx.kill_place(Place::ZERO),
                Err(ApgasError::Unsupported(_))
            ));
        })
        .unwrap();
        Runtime::run(RuntimeConfig::new(2), |ctx| {
            assert!(matches!(
                ctx.kill_place(Place::new(1)),
                Err(ApgasError::Unsupported(_))
            ));
        })
        .unwrap();
    }

    #[test]
    fn at_dead_place_fails_fast() {
        Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
            ctx.kill_place(Place::new(2)).unwrap();
            let err = ctx.at(Place::new(2), |_| 0u32).unwrap_err();
            assert!(err.is_recoverable());
            assert_eq!(err.dead_places(), vec![Place::new(2)]);
        })
        .unwrap();
    }

    #[test]
    fn finish_reports_dead_place_for_lost_tasks() {
        let cfg = RuntimeConfig::new(4).resilient(true);
        Runtime::run(cfg, |ctx| {
            let victim = Place::new(3);
            let res = ctx.finish(|fs| {
                for p in ctx.world().iter() {
                    fs.async_at(p, move |ctx| {
                        if ctx.here() == Place::new(1) {
                            // Concurrent failure while tasks are in flight.
                            ctx.kill_place(Place::new(3)).unwrap();
                        } else if ctx.here() == victim {
                            // Give the killer a chance to strike while this
                            // task is still conceptually "running".
                            std::thread::sleep(std::time::Duration::from_millis(30));
                        }
                    });
                }
            });
            match res {
                Ok(()) => {
                    // The victim's task may have completed before the kill
                    // landed; either outcome is legal, but the place must be
                    // dead afterwards.
                }
                Err(e) => assert_eq!(e.dead_places(), vec![victim]),
            }
            assert!(!ctx.is_alive(victim));
        })
        .unwrap();
    }

    #[test]
    fn spawning_at_already_dead_place_surfaces_at_finish() {
        let cfg = RuntimeConfig::new(3).resilient(true);
        Runtime::run(cfg, |ctx| {
            ctx.kill_place(Place::new(2)).unwrap();
            let err = ctx
                .finish(|fs| {
                    for p in ctx.world().iter() {
                        fs.async_at(p, |_| {});
                    }
                })
                .unwrap_err();
            assert_eq!(err.dead_places(), vec![Place::new(2)]);
        })
        .unwrap();
    }

    #[test]
    fn kill_is_idempotent() {
        Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
            ctx.kill_place(Place::new(1)).unwrap();
            ctx.kill_place(Place::new(1)).unwrap();
            assert_eq!(ctx.stats().failures, 1);
        })
        .unwrap();
    }

    #[test]
    fn spares_are_started_and_idle() {
        let cfg = RuntimeConfig::new(2).spares(2).resilient(true);
        Runtime::run(cfg, |ctx| {
            assert_eq!(ctx.world().len(), 2);
            assert_eq!(ctx.all_places().len(), 4);
            assert_eq!(ctx.spare_places(), vec![Place::new(2), Place::new(3)]);
            // Spares are reachable before substitution.
            let id = ctx.at(Place::new(3), |ctx| ctx.here().id()).unwrap();
            assert_eq!(id, 3);
        })
        .unwrap();
    }

    #[test]
    fn live_subset_filters_dead() {
        let cfg = RuntimeConfig::new(4).resilient(true);
        Runtime::run(cfg, |ctx| {
            ctx.kill_place(Place::new(2)).unwrap();
            let live = ctx.live_subset(&ctx.world());
            assert_eq!(live.len(), 3);
            assert!(!live.contains(Place::new(2)));
            assert_eq!(ctx.dead_places(), vec![Place::new(2)]);
        })
        .unwrap();
    }

    #[test]
    fn resilient_mode_counts_bookkeeping() {
        let cfg = RuntimeConfig::new(4).resilient(true);
        let d = Runtime::run(cfg, |ctx| {
            let before = ctx.stats();
            ctx.finish(|fs| {
                for p in ctx.world().iter() {
                    fs.async_at(p, |_| {});
                }
            })
            .unwrap();
            ctx.stats().since(&before)
        })
        .unwrap();
        assert_eq!(d.tasks_spawned, 4);
        // Opened at place zero: only the Terms of the three remote tasks
        // are messages; 4 spawns + the place-zero task's term + the wait
        // go to the registry directly.
        assert_eq!((d.ctl_spawns, d.ctl_terms, d.ctl_waits), (0, 3, 0));
        assert_eq!(d.ctl_local, 6);
    }

    #[test]
    fn non_resilient_mode_has_no_bookkeeping() {
        let ctl = Runtime::run(RuntimeConfig::new(4), |ctx| {
            ctx.finish(|fs| {
                for p in ctx.world().iter() {
                    fs.async_at(p, |_| {});
                }
            })
            .unwrap();
            let s = ctx.stats();
            s.ctl_total() + s.ctl_local
        })
        .unwrap();
        assert_eq!(ctl, 0);
    }

    #[test]
    fn remote_origin_finish_keeps_the_message_protocol() {
        // A finish opened at place 2 pays the full place-zero protocol: a
        // Spawn round trip per task, one Wait, and a Term message from every
        // task that ran away from place zero. Only the place-zero task's
        // Term is applied directly.
        let cfg = RuntimeConfig::new(4).resilient(true);
        let d = Runtime::run(cfg, |ctx| {
            ctx.at(Place::new(2), |ctx| {
                let before = ctx.stats();
                ctx.finish(|fs| {
                    for p in ctx.world().iter() {
                        fs.async_at(p, |_| {});
                    }
                })
                .unwrap();
                ctx.stats().since(&before)
            })
            .unwrap()
        })
        .unwrap();
        assert_eq!(d.tasks_spawned, 4);
        assert_eq!((d.ctl_spawns, d.ctl_terms, d.ctl_waits), (4, 3, 1));
        assert_eq!(d.ctl_local, 1);
    }

    /// Where, relative to a 4-place finish opened at place zero, the victim
    /// is killed.
    #[derive(Clone, Copy, Debug)]
    enum Crossing {
        BeforeSpawnRecord,
        BetweenRecordAndSend,
        WhileTaskRuns,
        AfterItsTerm,
        BeforeWait,
    }

    /// Run the finish with `victim` killed at `crossing`; returns the
    /// finish's result and the ledger left behind.
    fn finish_with_kill_at(
        ctx: &Ctx,
        victim: Place,
        crossing: Crossing,
    ) -> (Result<()>, Vec<LedgerEntry>) {
        if let Crossing::BetweenRecordAndSend = crossing {
            // `async_at` offers no seam between its two halves, so they are
            // staged by hand: the direct spawn record, the kill, then the
            // send (which finds the place dead) and the finish's wait.
            let rt = ctx.rt();
            let fid = rt.fresh_finish_id();
            let ack = rt.finish_svc.record_spawn(|q| rt.is_alive(q), fid, victim);
            assert_eq!(ack, finish::SpawnAck::Ok);
            ctx.kill_place(victim).unwrap();
            assert!(rt.send(victim, Envelope::Task { run: Box::new(|_| {}) }).is_err());
            let res = FinishScope::new_resilient(ctx, fid).wait();
            return (res, ctx.finish_ledger());
        }
        let (release, gate) = sync_channel::<()>(1);
        let mut gate = Some(gate);
        if let Crossing::BeforeSpawnRecord = crossing {
            ctx.kill_place(victim).unwrap();
        }
        let res = ctx.finish(|fs| {
            for p in ctx.world().iter() {
                let gate = if p == victim { gate.take() } else { None };
                fs.async_at(p, move |_| {
                    if let (Some(gate), Crossing::WhileTaskRuns) = (gate, crossing) {
                        // Parked until the kill has landed.
                        let _ = gate.recv();
                    }
                });
            }
            match crossing {
                Crossing::WhileTaskRuns => {
                    ctx.kill_place(victim).unwrap();
                    // Fails only if the kill dropped the victim's task, and
                    // its gate with it, before it ran.
                    let _ = release.send(());
                }
                Crossing::AfterItsTerm => {
                    // The registry has applied the victim's Term once it no
                    // longer owes a task there.
                    let t0 = std::time::Instant::now();
                    while ctx
                        .finish_ledger()
                        .iter()
                        .any(|e| e.pending.iter().any(|&(p, c)| p == victim.id() && c > 0))
                    {
                        assert!(t0.elapsed().as_secs() < 20, "victim's Term never arrived");
                        std::thread::yield_now();
                    }
                    ctx.kill_place(victim).unwrap();
                }
                Crossing::BeforeWait => ctx.kill_place(victim).unwrap(),
                Crossing::BeforeSpawnRecord | Crossing::BetweenRecordAndSend => {}
            }
        });
        (res, ctx.finish_ledger())
    }

    #[test]
    fn finish_from_place_zero_survives_a_kill_at_every_crossing() {
        use Crossing::*;
        for victim in [1u32, 2, 3].map(Place::new) {
            for crossing in
                [BeforeSpawnRecord, BetweenRecordAndSend, WhileTaskRuns, AfterItsTerm, BeforeWait]
            {
                let rt = Runtime::new(RuntimeConfig::new(4).resilient(true));
                // Off the test thread, so that a hang is a failure, not a
                // stuck test run.
                let (tx, rx) = sync_channel(1);
                let ctx = Ctx::new(Arc::clone(&rt.inner), Place::ZERO);
                ctx.spawn_helper(move |ctx| {
                    let _ = tx.send(finish_with_kill_at(ctx, victim, crossing));
                });
                let (res, ledger) = rx
                    .recv_timeout(std::time::Duration::from_secs(30))
                    .unwrap_or_else(|_| panic!("finish hung: {victim:?} killed {crossing:?}"));
                let what = format!("{victim:?} killed {crossing:?}: {res:?}");
                match crossing {
                    // The victim's task never ran to its Term: it is lost.
                    BeforeSpawnRecord | BetweenRecordAndSend | WhileTaskRuns => {
                        assert_eq!(res.unwrap_err().dead_places(), vec![victim], "{what}")
                    }
                    // Every task had terminated: nothing was lost.
                    AfterItsTerm => assert!(res.is_ok(), "{what}"),
                    // Either, depending on whether the Term beat the kill.
                    BeforeWait => match res {
                        Ok(()) => {}
                        Err(e) => assert_eq!(e.dead_places(), vec![victim], "{what}"),
                    },
                }
                assert!(ledger.is_empty(), "{what} left {ledger:?}");
                rt.shutdown();
            }
        }
    }

    #[test]
    fn finish_from_a_remote_place_after_shutdown_fails_instead_of_blocking() {
        let rt = Runtime::new(RuntimeConfig::new(3).resilient(true));
        let at_one: Ctx = rt.exec(|ctx| ctx.at(Place::new(1), |ctx| ctx.clone()).unwrap()).unwrap();
        rt.shutdown();
        // The Wait cannot be enqueued any more; the finish used to block on
        // a waiter nobody held.
        let (tx, rx) = sync_channel(1);
        let t = std::thread::spawn(move || {
            let _ = tx.send(at_one.finish(|fs| fs.async_at(Place::new(2), |_| {})));
        });
        let res = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("finish blocked on an undeliverable Wait");
        t.join().unwrap();
        assert!(matches!(res, Err(ApgasError::Unsupported(_))), "got {res:?}");
    }

    #[test]
    fn spawn_helper_returns_the_result_or_the_panic() {
        Runtime::run(RuntimeConfig::new(2), |ctx| {
            ctx.at(Place::new(1), |ctx| {
                let h = ctx.spawn_helper(|ctx| ctx.here().id() + 41);
                assert_eq!(h.join(), Ok(42), "a helper runs at its spawner's place");
                let h = ctx.spawn_helper(|_| -> u32 { panic!("helper boom") });
                assert_eq!(h.join(), Err("helper boom".to_string()));
            })
            .unwrap();
        })
        .unwrap();
    }

    #[test]
    fn many_concurrent_finishes() {
        let cfg = RuntimeConfig::new(4).resilient(true);
        Runtime::run(cfg, |ctx| {
            let acc = Arc::new(StdAtomicU64::new(0));
            ctx.finish(|fs| {
                for p in ctx.world().iter() {
                    let acc = Arc::clone(&acc);
                    fs.async_at(p, move |ctx| {
                        // Each task opens its own nested finish.
                        let acc2 = Arc::clone(&acc);
                        ctx.finish(move |fs2| {
                            for q in ctx.world().iter() {
                                let acc3 = Arc::clone(&acc2);
                                fs2.async_at(q, move |_| {
                                    acc3.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        })
                        .unwrap();
                    });
                }
            })
            .unwrap();
            assert_eq!(acc.load(Ordering::Relaxed), 16);
        })
        .unwrap();
    }

    #[test]
    fn finish_tolerates_transient_zero_pending_non_resilient() {
        finish_tolerates_transient_zero(false);
    }

    #[test]
    fn finish_tolerates_transient_zero_pending_resilient() {
        finish_tolerates_transient_zero(true);
    }

    /// Regression test: a fast task can complete while the finish body is
    /// still spawning, driving the pending count through zero. The finish
    /// must still wait for the later spawns.
    fn finish_tolerates_transient_zero(resilient: bool) {
        let cfg = RuntimeConfig::new(2).resilient(resilient);
        Runtime::run(cfg, |ctx| {
            for _ in 0..50 {
                let acc = Arc::new(StdAtomicU64::new(0));
                ctx.finish(|fs| {
                    let acc1 = Arc::clone(&acc);
                    fs.async_at(Place::new(1), move |_| {
                        acc1.fetch_add(1, Ordering::Relaxed);
                    });
                    // Give the first task time to finish before spawning
                    // the second (drives pending through zero).
                    std::thread::sleep(std::time::Duration::from_micros(300));
                    let acc2 = Arc::clone(&acc);
                    fs.async_at(Place::new(1), move |_| {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                        acc2.fetch_add(1, Ordering::Relaxed);
                    });
                })
                .unwrap();
                assert_eq!(acc.load(Ordering::Relaxed), 2, "finish returned early");
            }
        })
        .unwrap();
    }

    #[test]
    fn spawn_place_grows_the_system() {
        let cfg = RuntimeConfig::new(2).resilient(true);
        Runtime::run(cfg, |ctx| {
            assert_eq!(ctx.all_places().len(), 2);
            let fresh = ctx.spawn_place().unwrap();
            assert_eq!(fresh, Place::new(2));
            assert_eq!(ctx.all_places().len(), 3);
            assert!(ctx.is_alive(fresh));
            assert_eq!(ctx.stats().places_spawned, 1);
            // The new place executes work like any other.
            let got = ctx.at(fresh, |ctx| ctx.here().id() * 7).unwrap();
            assert_eq!(got, 14);
            // It participates in finish/async fan-out.
            let acc = Arc::new(StdAtomicU64::new(0));
            ctx.finish(|fs| {
                for p in ctx.all_places().iter() {
                    let acc = Arc::clone(&acc);
                    fs.async_at(p, move |_| {
                        acc.fetch_add(1, Ordering::Relaxed);
                    });
                }
            })
            .unwrap();
            assert_eq!(acc.load(Ordering::Relaxed), 3);
        })
        .unwrap();
    }

    #[test]
    fn spawned_place_replaces_a_dead_one() {
        let cfg = RuntimeConfig::new(3).resilient(true);
        Runtime::run(cfg, |ctx| {
            ctx.kill_place(Place::new(1)).unwrap();
            let fresh = ctx.spawn_place().unwrap();
            let group = ctx.world().replace(&[Place::new(1)], &[fresh]).unwrap();
            assert_eq!(group.len(), 3);
            assert_eq!(group.index_of(fresh), Some(1), "fresh place slots in");
            // Spawned places are killable too.
            ctx.kill_place(fresh).unwrap();
            assert!(!ctx.is_alive(fresh));
        })
        .unwrap();
    }

    #[test]
    fn exec_twice_on_same_runtime() {
        let rt = Runtime::new(RuntimeConfig::new(2).resilient(true));
        let a: u32 = rt.exec(|_| 1).unwrap();
        let b: u32 = rt.exec(|_| 2).unwrap();
        assert_eq!(a + b, 3);
        rt.shutdown();
    }

    // -- task panics --------------------------------------------------------

    #[test]
    fn run_catching_restores_tls_after_panic() {
        // The task span lives strictly inside the unwind boundary, so a
        // panicking task cannot leave its span as the thread's current one
        // for the next task the thread runs.
        let cfg = RuntimeConfig::new(1).trace(true);
        Runtime::run(cfg, |ctx| {
            let _outer = ctx.trace_span(SpanKind::Step, 0);
            let before = crate::trace::current_span_id();
            assert_ne!(before, 0, "tracing is on; the outer span is current");
            let out = finish::run_catching(ctx, |_| {
                assert_ne!(crate::trace::current_span_id(), before, "the task span is current");
                panic!("boom")
            });
            assert!(matches!(out, finish::TaskOutcome::Panicked(_)));
            assert_eq!(crate::trace::current_span_id(), before);
        })
        .unwrap();
    }

    #[test]
    fn a_panicking_task_runs_once_and_fails_its_finish() {
        for resilient in [false, true] {
            Runtime::run(RuntimeConfig::new(2).resilient(resilient), |ctx| {
                let runs = Arc::new(StdAtomicU64::new(0));
                let r2 = Arc::clone(&runs);
                let err = ctx
                    .finish(|fs| {
                        fs.async_at(Place::new(1), move |_| {
                            r2.fetch_add(1, Ordering::Relaxed);
                            panic!("hard fault");
                        });
                    })
                    .expect_err("the task panicked");
                assert_eq!(runs.load(Ordering::Relaxed), 1, "a task is never replayed");
                assert!(!err.is_recoverable(), "a task panic is a program error");
                match err {
                    ApgasError::TaskPanic(msg) => assert!(msg.contains("hard fault"), "got: {msg}"),
                    other => panic!("expected TaskPanic, got {other:?}"),
                }
            })
            .unwrap();
        }
    }
}
