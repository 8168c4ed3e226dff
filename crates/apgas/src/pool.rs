//! Process-wide, work-chunking compute pool for intra-place parallelism.
//!
//! Places in this runtime are dispatcher *threads*, so a hot kernel running
//! inside one place leaves every other core idle. This module provides the
//! shared worker pool that `gml-matrix` kernels and the bulk
//! [`serial`](crate::serial) codec fan out onto.
//!
//! # Sizing
//!
//! The pool is created lazily on first use and sized once per process:
//!
//! * `GML_WORKERS=n` forces exactly `n` workers (`1` disables helper threads
//!   entirely and is bit- and path-identical to the historical serial code);
//!   an unparsable value warns (see [`crate::env`]) and falls back to
//!   auto-sizing.
//! * Otherwise the pool takes [`std::thread::available_parallelism`] minus
//!   the place-dispatcher threads the runtime has already started, with a
//!   floor of one.
//!
//! A pool of `W` workers spawns `W - 1` helper threads (`gml-worker-{i}`);
//! the thread calling [`run`] always participates as worker zero, so
//! `GML_WORKERS=1` never touches a channel or lock.
//!
//! # Determinism
//!
//! Results must be bit-identical across worker counts — that is what makes a
//! restored replay comparable to the failure-free run. The contract:
//!
//! * [`chunk_count`]/[`chunk_range`] derive the chunking from the **problem
//!   size only**, never from the worker count;
//! * chunks write disjoint output ranges ([`run_split`]) or produce partial
//!   values that are combined in ascending chunk order ([`sum_chunks`]);
//! * with one chunk the work runs inline on the caller, executing exactly
//!   the serial code path.
//!
//! Worker threads only affect *which thread* executes a chunk, never the
//! chunk boundaries or the combine order.
//!
//! # Observability
//!
//! Multi-chunk jobs emit a `pool.run` trace span
//! ([`SpanKind::PoolRun`](crate::trace::SpanKind::PoolRun)) through the
//! observer installed by the runtime, and the counters exported by
//! [`families`] (`gml_pool_*`) track inline vs. parallel jobs, chunks
//! executed and wall time spent in parallel sections.

use std::cell::Cell;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::metrics::{Family, Kind};
use crate::sync::{Condvar, Mutex, RwLock};

/// Upper bound on the number of chunks any job is split into. Small enough
/// that per-chunk bookkeeping stays negligible, large enough to feed every
/// core a machine in the paper's evaluation range has.
pub const MAX_CHUNKS: usize = 64;

/// Chunk granularity for parallel byte copies (1 MiB): below one chunk of
/// this size a plain `memcpy` beats any fan-out.
pub const PAR_COPY_CHUNK: usize = 1 << 20;

// ---------------------------------------------------------------------------
// Sizing
// ---------------------------------------------------------------------------

/// Dispatcher threads the runtime has started; auto-sizing subtracts these
/// from the machine's parallelism so places and pool workers do not fight
/// over cores.
static DISPATCHERS: AtomicUsize = AtomicUsize::new(0);

/// Record one spawned place-dispatcher thread (called by the runtime).
pub(crate) fn note_dispatcher() {
    DISPATCHERS.fetch_add(1, Ordering::Relaxed);
}

struct SharedPool {
    /// Total workers including the calling thread.
    workers: usize,
    /// Job announcements to the helper threads; `None` when `workers == 1`.
    injector: Option<Sender<Arc<Job>>>,
}

static POOL: OnceLock<SharedPool> = OnceLock::new();

fn shared() -> &'static SharedPool {
    POOL.get_or_init(|| {
        let configured = crate::env::workers();
        let workers = if configured == 0 {
            let avail =
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
            avail.saturating_sub(DISPATCHERS.load(Ordering::Relaxed)).max(1)
        } else {
            configured.min(MAX_CHUNKS)
        };
        if workers == 1 {
            return SharedPool { workers: 1, injector: None };
        }
        // One queue, many consumers: the helpers take turns holding the
        // receiver, and the guard drops at the end of the `let`, before the
        // job runs.
        let (tx, rx) = channel::<Arc<Job>>();
        let rx = Arc::new(Mutex::new(rx));
        for i in 1..workers {
            let rx = Arc::clone(&rx);
            std::thread::Builder::new()
                .name(format!("gml-worker-{i}"))
                .spawn(move || loop {
                    let Ok(job) = rx.lock().recv() else { return };
                    job.help();
                })
                .expect("spawn pool worker thread");
        }
        SharedPool { workers, injector: Some(tx) }
    })
}

/// Number of pool workers (including the calling thread). Fixed at first
/// use; forces pool initialization.
pub fn workers() -> usize {
    shared().workers
}

// ---------------------------------------------------------------------------
// Serial override
// ---------------------------------------------------------------------------

thread_local! {
    static FORCE_SERIAL: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with the pool disabled on this thread: every [`run`] inside
/// executes its chunks inline, in ascending order. Because the chunking is
/// unchanged, the result is bit-identical to the parallel execution — this
/// is the in-process serial baseline the benches and parity tests use.
pub fn serial_scope<R>(f: impl FnOnce() -> R) -> R {
    struct Reset(bool);
    impl Drop for Reset {
        fn drop(&mut self) {
            FORCE_SERIAL.with(|c| c.set(self.0));
        }
    }
    let _reset = Reset(FORCE_SERIAL.with(|c| c.replace(true)));
    f()
}

// ---------------------------------------------------------------------------
// Counters and trace observer
// ---------------------------------------------------------------------------

crate::counter_set! {
    /// The pool's process-wide counters.
    pub(crate) struct PoolStats;
    /// Snapshot of the pool's process-wide counters.
    pub struct PoolCounters {
        /// Single chunk, one worker, or [`serial_scope`].
        jobs_inline => "gml_pool_jobs_inline_total", "Pool jobs executed inline on the caller.";
        jobs_parallel => "gml_pool_jobs_parallel_total", "Pool jobs fanned out to helper threads.";
        /// Inline or not.
        chunks => "gml_pool_chunks_total", "Work chunks executed by the pool.";
        busy_nanos => "gml_pool_busy_nanos_total", "Wall nanoseconds spent inside parallel pool jobs.";
    }
}

static STATS: PoolStats = PoolStats::new();

/// Read the pool counters (monitor collectors and tests).
pub fn counters() -> PoolCounters {
    STATS.snapshot()
}

/// The pool's width and counters as Prometheus families.
pub fn families() -> Vec<Family> {
    let width = Family::new(
        Kind::Gauge,
        "gml_pool_workers",
        "Compute-pool workers, including the submitting thread (fixed at first use).",
    );
    let mut out = vec![width.value(workers() as u64)];
    out.extend(counters().families());
    out
}

/// Callback invoked after every parallel (multi-worker) job with the chunk
/// count and wall time; the runtime installs one that emits a `pool.run`
/// trace span.
pub type PoolObserver = dyn Fn(usize, Duration) + Send + Sync;

static OBSERVER: RwLock<Option<Arc<PoolObserver>>> = RwLock::new(None);

/// Install (or clear) the process-wide pool observer. The runtime points
/// this at its tracer through a `Weak` handle, so a stopped runtime simply
/// turns the callback into a no-op.
pub fn set_observer(obs: Option<Arc<PoolObserver>>) {
    *OBSERVER.write() = obs;
}

// ---------------------------------------------------------------------------
// Chunk policy
// ---------------------------------------------------------------------------

/// Number of chunks for `len` items with at least `min_chunk` items per
/// chunk, capped at [`MAX_CHUNKS`]. Depends on the problem size ONLY — never
/// the worker count — which is what makes results bit-identical across
/// `GML_WORKERS` settings. `len == 0` yields one (empty) chunk.
pub fn chunk_count(len: usize, min_chunk: usize) -> usize {
    if len == 0 {
        return 1;
    }
    len.div_ceil(min_chunk.max(1)).clamp(1, MAX_CHUNKS)
}

/// Half-open sub-range of `chunk` when `len` items are split into `n_chunks`
/// nearly equal chunks (the first `len % n_chunks` chunks get one extra
/// item). The ranges partition `0..len` in ascending order.
pub fn chunk_range(len: usize, n_chunks: usize, chunk: usize) -> Range<usize> {
    debug_assert!(chunk < n_chunks, "chunk index out of range");
    let base = len / n_chunks;
    let rem = len % n_chunks;
    let start = chunk * base + chunk.min(rem);
    let end = start + base + usize::from(chunk < rem);
    start..end
}

/// [`chunk_count`] over granule-sized units: the number of chunks when
/// `len` items are split on multiples of `granule` (the blocked kernels
/// chunk on register-tile boundaries so no packed tile straddles two
/// chunks). Like every chunk policy, a pure function of the sizes only.
pub fn chunk_count_granular(len: usize, min_chunk: usize, granule: usize) -> usize {
    let g = granule.max(1);
    chunk_count(len.div_ceil(g), min_chunk.div_ceil(g))
}

/// [`chunk_range`] companion of [`chunk_count_granular`]: every boundary is
/// a multiple of `granule` except the final end, which is clipped to `len`.
/// The ranges partition `0..len` in ascending order.
pub fn chunk_range_granular(
    len: usize,
    n_chunks: usize,
    chunk: usize,
    granule: usize,
) -> Range<usize> {
    let g = granule.max(1);
    let units = chunk_range(len.div_ceil(g), n_chunks, chunk);
    (units.start * g).min(len)..(units.end * g).min(len)
}

// ---------------------------------------------------------------------------
// Core execution
// ---------------------------------------------------------------------------

/// Lifetime-erased pointer to the caller's task closure. Helpers only
/// dereference it between checking in and checking out of the job, and the
/// caller does not return from [`run`] until every checked-in helper has
/// checked out — so the pointee outlives every dereference.
struct TaskRef(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync` (shared calls are safe) and the check-in
// protocol above bounds its use to within the caller's stack frame.
unsafe impl Send for TaskRef {}
unsafe impl Sync for TaskRef {}

struct JobState {
    /// Helpers currently checked in (holding the task pointer).
    helpers: usize,
    /// Set by the caller once all chunks are claimed; late helpers must not
    /// check in.
    closed: bool,
}

struct Job {
    task: TaskRef,
    n_chunks: usize,
    /// Next unclaimed chunk index (self-scheduling).
    next: AtomicUsize,
    state: Mutex<JobState>,
    done: Condvar,
    /// First panic payload raised by any chunk, re-raised by the caller.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Job {
    /// Helper-thread entry: check in unless the job already closed, claim
    /// chunks, check out.
    fn help(&self) {
        {
            let mut st = self.state.lock();
            if st.closed {
                return;
            }
            st.helpers += 1;
        }
        self.run_chunks();
        let mut st = self.state.lock();
        st.helpers -= 1;
        if st.helpers == 0 {
            self.done.notify_all();
        }
    }

    fn run_chunks(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n_chunks {
                return;
            }
            // SAFETY: see `TaskRef` — the caller keeps the closure alive
            // until every checked-in helper checks out.
            let task = unsafe { &*self.task.0 };
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| task(i))) {
                let mut slot = self.panic.lock();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
        }
    }
}

/// Execute `task(i)` once for every chunk index in `0..n_chunks`, fanning
/// out to the pool's helper threads when profitable, and return after every
/// chunk has completed.
///
/// Chunk indices are claimed dynamically, so `task` must be safe to call
/// concurrently from several threads (hence `Sync`) and must not care which
/// thread runs which index. A panic in any chunk is re-raised here once all
/// chunks have finished. Jobs run inline (ascending order, caller's thread)
/// when `n_chunks <= 1`, the pool has one worker, or the caller is inside
/// [`serial_scope`]; nested `run` calls are safe and simply self-execute.
pub fn run(n_chunks: usize, task: &(dyn Fn(usize) + Sync)) {
    if n_chunks == 0 {
        return;
    }
    let inline =
        n_chunks == 1 || FORCE_SERIAL.with(|c| c.get()) || shared().workers == 1;
    if inline {
        STATS.jobs_inline.fetch_add(1, Ordering::Relaxed);
        STATS.chunks.fetch_add(n_chunks as u64, Ordering::Relaxed);
        for i in 0..n_chunks {
            task(i);
        }
        return;
    }
    let p = shared();
    let started = Instant::now();
    // SAFETY: lifetime erasure only — the closed/helpers protocol below
    // guarantees no dereference outlives this call (see `TaskRef`).
    let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
    let job = Arc::new(Job {
        task: TaskRef(task as *const _),
        n_chunks,
        next: AtomicUsize::new(0),
        state: Mutex::new(JobState { helpers: 0, closed: false }),
        done: Condvar::default(),
        panic: Mutex::new(None),
    });
    // Announce at most one job per idle helper; the caller covers the rest.
    if let Some(tx) = &p.injector {
        for _ in 0..(p.workers - 1).min(n_chunks - 1) {
            if tx.send(Arc::clone(&job)).is_err() {
                break;
            }
        }
    }
    // The caller is worker zero; returning from here means all chunks are
    // at least claimed.
    job.run_chunks();
    // Close the job so late helpers bounce off, then wait for checked-in
    // helpers to finish their claimed chunks. The lock handoff also
    // publishes every helper's writes to the caller.
    {
        let mut st = job.state.lock();
        st.closed = true;
        drop(job.done.wait_while(st, |st| st.helpers > 0));
    }
    let elapsed = started.elapsed();
    STATS.jobs_parallel.fetch_add(1, Ordering::Relaxed);
    STATS.chunks.fetch_add(n_chunks as u64, Ordering::Relaxed);
    STATS.busy_nanos.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    let observer = OBSERVER.read().clone();
    if let Some(obs) = observer {
        obs(n_chunks, elapsed);
    }
    let payload = job.panic.lock().take();
    if let Some(payload) = payload {
        panic::resume_unwind(payload);
    }
}

struct SyncPtr<T>(*mut T);
// SAFETY: only used to hand each chunk a sub-slice whose disjointness is
// checked by `run_split` before any thread sees the pointer.
unsafe impl<T> Send for SyncPtr<T> {}
unsafe impl<T> Sync for SyncPtr<T> {}

impl<T> SyncPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Sync` wrapper, not the raw pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Run `body(chunk, sub)` for every chunk in `0..n_chunks`, where `sub` is
/// the exclusive sub-slice `data[ranges(chunk)]`. The ranges must be
/// ascending, pairwise disjoint and in bounds (checked up front); this is
/// the safe way for chunks to mutate disjoint parts of one output buffer in
/// parallel.
pub fn run_split<T, R, F>(data: &mut [T], n_chunks: usize, ranges: R, body: F)
where
    T: Send,
    R: Fn(usize) -> Range<usize> + Sync,
    F: Fn(usize, &mut [T]) + Sync,
{
    if n_chunks == 0 {
        return;
    }
    let mut prev_end = 0usize;
    for i in 0..n_chunks {
        let r = ranges(i);
        assert!(
            r.start >= prev_end && r.start <= r.end && r.end <= data.len(),
            "run_split: chunk ranges must be ascending, disjoint and in bounds"
        );
        prev_end = r.end;
    }
    let base = SyncPtr(data.as_mut_ptr());
    run(n_chunks, &|i| {
        let r = ranges(i);
        // SAFETY: ranges are pairwise disjoint and in bounds (checked
        // above), so each chunk index maps to exclusive storage, and `base`
        // borrows from `data` which outlives this call.
        let sub = unsafe {
            std::slice::from_raw_parts_mut(base.get().add(r.start), r.end - r.start)
        };
        body(i, sub);
    });
}

/// Split `data` into [`chunk_count`]`(data.len(), min_chunk)` even chunks
/// and run `body(chunk, range, sub)` for each, where `range` is the chunk's
/// absolute index range and `sub` the matching exclusive sub-slice.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], min_chunk: usize, body: F)
where
    T: Send,
    F: Fn(usize, Range<usize>, &mut [T]) + Sync,
{
    let len = data.len();
    let n = chunk_count(len, min_chunk);
    run_split(data, n, |i| chunk_range(len, n, i), |i, sub| {
        body(i, chunk_range(len, n, i), sub);
    });
}

/// Deterministic parallel sum: `partial` computes each chunk's partial sum
/// (possibly on different threads), and the partials are combined in
/// ascending chunk order. With a single chunk this is exactly the serial
/// sum, and the combine order never depends on the worker count.
pub fn sum_chunks<F>(len: usize, min_chunk: usize, partial: F) -> f64
where
    F: Fn(Range<usize>) -> f64 + Sync,
{
    let n = chunk_count(len, min_chunk);
    if n == 1 {
        return partial(0..len);
    }
    let mut parts = vec![0.0f64; n];
    run_split(&mut parts, n, |i| i..i + 1, |i, slot| {
        slot[0] = partial(chunk_range(len, n, i));
    });
    parts.iter().sum()
}

/// Parallel byte copy into uninitialized storage, chunked at
/// [`PAR_COPY_CHUNK`] granularity. On return every byte of `dst` is
/// initialized with the corresponding byte of `src`. Byte-for-byte
/// identical to a serial `memcpy` for any worker count.
pub fn copy_into_uninit(src: &[u8], dst: &mut [MaybeUninit<u8>]) {
    assert_eq!(src.len(), dst.len(), "copy_into_uninit: length mismatch");
    let len = src.len();
    let n = chunk_count(len, PAR_COPY_CHUNK);
    run_split(dst, n, |i| chunk_range(len, n, i), |i, sub| {
        let r = chunk_range(len, n, i);
        // SAFETY: `sub` is exactly `r.len()` bytes of exclusive storage and
        // `src[r]` is in bounds; u8 has no invalid bit patterns.
        unsafe {
            std::ptr::copy_nonoverlapping(
                src.as_ptr().add(r.start),
                sub.as_mut_ptr().cast::<u8>(),
                sub.len(),
            );
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn chunk_ranges_partition_exactly() {
        for len in [0usize, 1, 7, 64, 65, 1000, 12345] {
            for min in [1usize, 8, 100, 4096] {
                let n = chunk_count(len, min);
                assert!((1..=MAX_CHUNKS).contains(&n));
                let mut next = 0;
                for i in 0..n {
                    let r = chunk_range(len, n, i);
                    assert_eq!(r.start, next, "contiguous at len={len} n={n}");
                    assert!(r.end >= r.start);
                    next = r.end;
                }
                assert_eq!(next, len, "ranges cover 0..len");
            }
        }
    }

    #[test]
    fn chunking_ignores_worker_count() {
        // The policy must be a pure function of the size arguments.
        assert_eq!(chunk_count(1_000_000, 1024), MAX_CHUNKS);
        assert_eq!(chunk_count(2048, 1024), 2);
        assert_eq!(chunk_count(1, 1024), 1);
        assert_eq!(chunk_count(0, 1024), 1);
    }

    #[test]
    fn granular_ranges_partition_on_tile_boundaries() {
        for len in [0usize, 1, 3, 4, 63, 64, 65, 511, 512, 12345] {
            for granule in [1usize, 4, 8, 32] {
                for min in [1usize, 8, 100] {
                    let n = chunk_count_granular(len, min, granule);
                    assert!((1..=MAX_CHUNKS).contains(&n));
                    let mut next = 0;
                    for i in 0..n {
                        let r = chunk_range_granular(len, n, i, granule);
                        assert_eq!(r.start, next, "contiguous at len={len} g={granule}");
                        assert!(
                            r.start.is_multiple_of(granule),
                            "start aligned at len={len} g={granule}"
                        );
                        assert!(
                            r.end.is_multiple_of(granule) || r.end == len,
                            "end aligned or final at len={len} g={granule}"
                        );
                        next = r.end;
                    }
                    assert_eq!(next, len, "granular ranges cover 0..len");
                }
            }
        }
    }

    #[test]
    fn run_executes_every_chunk_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        run(100, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn run_split_mutates_disjoint_chunks() {
        let mut data = vec![0u64; 10_000];
        let n = chunk_count(data.len(), 128);
        let len = data.len();
        run_split(&mut data, n, |i| chunk_range(len, n, i), |i, sub| {
            for v in sub {
                *v = i as u64 + 1;
            }
        });
        for (idx, v) in data.iter().enumerate() {
            let expect = (0..n)
                .find(|&i| chunk_range(len, n, i).contains(&idx))
                .unwrap() as u64
                + 1;
            assert_eq!(*v, expect);
        }
    }

    #[test]
    #[should_panic(expected = "boom in chunk")]
    fn panics_propagate_to_the_caller() {
        run(8, &|i| {
            if i == 5 {
                panic!("boom in chunk");
            }
        });
    }

    #[test]
    fn serial_scope_forces_inline_in_order() {
        let order = Mutex::new(Vec::new());
        serial_scope(|| {
            run(16, &|i| order.lock().push(i));
        });
        assert_eq!(*order.lock(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn sum_chunks_is_deterministic_and_matches_itself_serially() {
        let data: Vec<f64> = (0..200_000).map(|i| (i as f64).sin()).collect();
        let par = sum_chunks(data.len(), 1024, |r| data[r].iter().sum());
        let ser =
            serial_scope(|| sum_chunks(data.len(), 1024, |r| data[r].iter().sum()));
        assert_eq!(par.to_bits(), ser.to_bits(), "bit-identical combine order");
    }

    #[test]
    fn copy_into_uninit_round_trips() {
        let src: Vec<u8> = (0..3 * PAR_COPY_CHUNK + 17).map(|i| (i % 251) as u8).collect();
        let mut dst = Vec::with_capacity(src.len());
        copy_into_uninit(&src, &mut dst.spare_capacity_mut()[..src.len()]);
        // SAFETY: copy_into_uninit initialized the first src.len() bytes.
        unsafe { dst.set_len(src.len()) };
        assert_eq!(dst, src);
    }
}
