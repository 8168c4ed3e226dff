#![warn(missing_docs)]
//! # apgas — a simulated APGAS (X10-style) runtime
//!
//! This crate reproduces the execution model the paper's Global Matrix
//! Library runs on: an Asynchronous Partitioned Global Address Space with
//! *places* (here: one mailbox-dispatched thread pool per place), `async` /
//! `finish` task structuring, synchronous remote execution (`at`),
//! place-local storage ([`PlaceLocalHandle`]), and — crucially for the paper —
//! **Resilient X10 semantics**:
//!
//! * fail-stop *place failure* can be injected at any time
//!   ([`Ctx::kill_place`]); a dead place loses all its place-local data, its
//!   mailbox drops queued tasks and rejects new ones;
//! * in resilient mode, every task spawn and termination is recorded through
//!   **place-zero bookkeeping messages** (the design of Cunningham et al.,
//!   PPoPP'14, which the paper identifies as the dominant source of resilient
//!   overhead); the enclosing [`finish`](Ctx::finish) then reports failures as
//!   [`DeadPlaceException`]s instead of hanging;
//! * place zero is immortal, mirroring the paper's stated assumption.
//!
//! Cross-place payloads in the layers above this crate are moved as
//! serialized byte buffers (see [`serial`]), so data movement has a real,
//! data-proportional cost even though places share one address space.
//!
//! ```
//! use apgas::prelude::*;
//!
//! let cfg = RuntimeConfig::new(4).resilient(true);
//! let sum = Runtime::run(cfg, |ctx| {
//!     let world = ctx.world();
//!     let total = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
//!     ctx.finish(|fs| {
//!         for p in world.iter() {
//!             let total = total.clone();
//!             fs.async_at(p, move |ctx| {
//!                 total.fetch_add(ctx.here().id() as u64 + 1,
//!                                 std::sync::atomic::Ordering::Relaxed);
//!             });
//!         }
//!     }).unwrap();
//!     total.load(std::sync::atomic::Ordering::Relaxed)
//! }).unwrap();
//! assert_eq!(sum, 1 + 2 + 3 + 4);
//! ```

pub mod digest;
pub mod env;
pub mod error;
pub mod mem;
pub mod metrics;
pub mod place;
pub mod pool;
pub mod serial;
pub mod sync;
mod thread_cache;
pub mod finish;
pub mod plh;
pub mod runtime;
pub mod stats;
pub mod trace;

pub use digest::{content_digest, fnv1a_bytes, fnv1a_f64s, Fnv1a};
pub use error::{ApgasError, DeadPlaceException, Result};
pub use finish::{FinishScope, LedgerEntry};
pub use mem::{MemReport, MemScope, MemTag};
pub use metrics::{Histogram, HistogramSnapshot, MetricsRegistry};
pub use place::{Place, PlaceGroup};
pub use plh::PlaceLocalHandle;
pub use runtime::{Ctx, Helper, Runtime, RuntimeConfig};
pub use serial::Serial;
pub use stats::RuntimeStats;
pub use trace::{SpanGuard, SpanKind, TraceEvent, Tracer};

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::digest::{content_digest, fnv1a_bytes, fnv1a_f64s, Fnv1a};
    pub use crate::error::{ApgasError, DeadPlaceException, Result as ApgasResult};
    pub use crate::finish::{FinishScope, LedgerEntry};
    pub use crate::mem::{self, MemReport, MemScope, MemTag};
    pub use crate::metrics::{Histogram, HistogramSnapshot, MetricsRegistry};
    pub use crate::place::{Place, PlaceGroup};
    pub use crate::plh::PlaceLocalHandle;
    pub use crate::pool;
    pub use crate::runtime::{Ctx, Helper, Runtime, RuntimeConfig};
    pub use crate::serial::Serial;
    pub use crate::trace::{SpanGuard, SpanKind, TraceEvent, Tracer};
}

#[cfg(test)]
mod tests {
    use crate::sync::Mutex;
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(5);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    fn mutex_survives_poison() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let joined = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert!(joined.is_err());
        // The lock is still usable by every other thread.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }
}
