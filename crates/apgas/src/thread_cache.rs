//! A cached-thread executor.
//!
//! X10's runtime grows a place's worker pool when activities block (e.g. in
//! a `finish` wait or a remote fetch), so that progress is never lost to a
//! blocked worker. We reproduce that with a simple cache of reusable OS
//! threads shared by the whole runtime: submitting a job reuses an idle
//! thread when one exists and spawns a fresh one otherwise. Idle threads
//! park for a grace period and then exit, so test suites that create many
//! runtimes do not accumulate threads.

use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Duration;

use crate::sync::Mutex;

type Job = Box<dyn FnOnce() + Send + 'static>;
/// An idle worker: the id it deregisters by, and its hand-off.
type IdleWorker = (ThreadId, SyncSender<Job>);

const IDLE_TIMEOUT: Duration = Duration::from_secs(10);

/// A pool of reusable worker threads with no upper bound on size.
pub struct ThreadCache {
    idle: Arc<Mutex<Vec<IdleWorker>>>,
    /// How long an idle worker waits for a job before it exits.
    idle_timeout: Duration,
}

impl ThreadCache {
    pub fn new() -> Self {
        ThreadCache { idle: Arc::new(Mutex::new(Vec::new())), idle_timeout: IDLE_TIMEOUT }
    }

    /// Run `job` on a cached or freshly spawned thread.
    pub fn submit(&self, job: Job) {
        let mut job = job;
        loop {
            let worker = self.idle.lock().pop();
            match worker {
                Some((_, tx)) => match tx.send(job) {
                    Ok(()) => return,
                    // The worker timed out and exited between pop and send;
                    // recover the job and try the next candidate.
                    Err(e) => job = e.0,
                },
                None => {
                    self.spawn_worker(job);
                    return;
                }
            }
        }
    }

    fn spawn_worker(&self, first: Job) {
        let idle = Arc::clone(&self.idle);
        let idle_timeout = self.idle_timeout;
        std::thread::Builder::new()
            .name("apgas-worker".into())
            .spawn(move || {
                // Zero-capacity rendezvous: a send can only succeed while
                // this worker is actively receiving, so a job can never be
                // stranded in a buffer when the worker times out and exits
                // (the sender observes the disconnect and retries instead).
                let (tx, rx) = sync_channel::<Job>(0);
                let me = std::thread::current().id();
                let mut job = first;
                loop {
                    job();
                    idle.lock().push((me, tx.clone()));
                    match rx.recv_timeout(idle_timeout) {
                        Ok(next) => job = next,
                        Err(_) => {
                            // Timed out: deregister (best effort; submit()
                            // tolerates an entry popped meanwhile).
                            idle.lock().retain(|(id, _)| *id != me);
                            return;
                        }
                    }
                }
            })
            .expect("spawn apgas worker thread");
    }
}

impl Default for ThreadCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_many_jobs() {
        let cache = ThreadCache::new();
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = sync_channel(0);
        for _ in 0..64 {
            let counter = counter.clone();
            let tx = tx.clone();
            cache.submit(Box::new(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                tx.send(()).unwrap();
            }));
        }
        for _ in 0..64 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn reuses_idle_threads() {
        let cache = ThreadCache::new();
        let (tx, rx) = sync_channel(0);
        // Run jobs strictly one after another. A finishing worker
        // re-registers *after* delivering its result, so the next submit
        // may race it and spawn one extra thread — but the pool must not
        // grow linearly with the job count.
        for _ in 0..8 {
            let tx = tx.clone();
            cache.submit(Box::new(move || tx.send(std::thread::current().id()).unwrap()));
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        std::thread::sleep(Duration::from_millis(50));
        assert!(cache.idle.lock().len() <= 3, "sequential jobs must reuse workers");
    }

    /// A job is never stranded: jobs submitted while idle workers are timing
    /// out and deregistering each run exactly once.
    #[test]
    fn jobs_submitted_while_workers_time_out_each_run_once() {
        const JOBS: usize = 400;
        let cache = ThreadCache { idle_timeout: Duration::from_millis(2), ..ThreadCache::new() };
        let runs: Arc<Vec<AtomicUsize>> =
            Arc::new((0..JOBS).map(|_| AtomicUsize::new(0)).collect());
        let threads = Arc::new(Mutex::new(std::collections::HashSet::new()));
        let (done_tx, done_rx) = sync_channel(JOBS);
        for i in 0..JOBS {
            let (runs, threads) = (Arc::clone(&runs), Arc::clone(&threads));
            let done_tx = done_tx.clone();
            cache.submit(Box::new(move || {
                runs[i].fetch_add(1, Ordering::Relaxed);
                threads.lock().insert(std::thread::current().id());
                done_tx.send(()).unwrap();
            }));
            // Sweep the gap between submits across the idle timeout, so that
            // they land before, while and after workers give up.
            std::thread::sleep(Duration::from_micros(500 * (i % 8) as u64));
        }
        for _ in 0..JOBS {
            done_rx.recv_timeout(Duration::from_secs(10)).expect("a job was stranded");
        }
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1), "each job runs once");
        assert!(threads.lock().len() > 1, "workers timed out and were replaced");
    }

    #[test]
    fn blocked_jobs_do_not_starve_new_jobs() {
        let cache = ThreadCache::new();
        let (release_tx, release_rx) = sync_channel::<()>(0);
        let (done_tx, done_rx) = sync_channel(0);
        // A job that blocks until released.
        {
            let done = done_tx.clone();
            cache.submit(Box::new(move || {
                release_rx.recv().unwrap();
                done.send("blocked").unwrap();
            }));
        }
        // A second job must still run (on a new thread).
        cache.submit(Box::new(move || done_tx.send("free").unwrap()));
        assert_eq!(done_rx.recv_timeout(Duration::from_secs(5)).unwrap(), "free");
        release_tx.send(()).unwrap();
        assert_eq!(done_rx.recv_timeout(Duration::from_secs(5)).unwrap(), "blocked");
    }
}
