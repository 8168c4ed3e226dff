//! Runtime activity counters.
//!
//! These make the resilience costs the paper talks about *observable*: the
//! number of place-zero bookkeeping messages (the source of resilient-X10
//! overhead in Figs 2–4) and the number of bytes serialized across places
//! (the source of checkpoint/restore cost in Table III and Figs 5–7).

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters maintained by the runtime. Cheap to update; read them
/// with [`RuntimeStats::snapshot`].
#[derive(Default)]
pub struct RuntimeStats {
    /// Tasks dispatched to any place (both `async_at` and `at`).
    pub tasks_spawned: AtomicU64,
    /// Synchronous `at` round trips.
    pub at_calls: AtomicU64,
    /// Place-zero bookkeeping messages: task-spawn records (each is a
    /// synchronous round trip to place zero in resilient mode). The three
    /// `ctl_spawns`/`ctl_terms`/`ctl_waits` counters count *messages through
    /// place zero's mailbox*, i.e. operations issued at any other place.
    pub ctl_spawns: AtomicU64,
    /// Place-zero bookkeeping messages: task terminations.
    pub ctl_terms: AtomicU64,
    /// Place-zero bookkeeping messages: finish-wait registrations.
    pub ctl_waits: AtomicU64,
    /// Registry operations (spawn, term or wait) issued at place zero and
    /// applied to the registry directly, without a message.
    pub ctl_local: AtomicU64,
    /// Bytes of payload serialized for cross-place movement (maintained by
    /// the data layers via [`crate::runtime::Ctx::record_bytes`]).
    pub bytes_shipped: AtomicU64,
    /// Bytes of payload that actually landed at a receiving place (maintained
    /// via [`crate::runtime::Ctx::record_bytes_received`] at every receive
    /// site). Mirrors `bytes_shipped` so ship volume can be cross-checked
    /// end-to-end: in a failure-free run the two are equal; under failure,
    /// payloads shipped to a place that died in flight are counted as shipped
    /// but never as received.
    pub bytes_received: AtomicU64,
    /// Nanoseconds spent encoding cross-place payloads (maintained via
    /// [`crate::runtime::Ctx::encode`]); with `bytes_shipped` this yields
    /// checkpoint encode throughput.
    pub encode_nanos: AtomicU64,
    /// Nanoseconds spent decoding cross-place payloads (maintained via
    /// [`crate::runtime::Ctx::decode`]).
    pub decode_nanos: AtomicU64,
    /// Places killed so far.
    pub failures: AtomicU64,
    /// Places created elastically after startup.
    pub places_spawned: AtomicU64,
    /// Task bodies re-executed by the task-resilience layer after a panic or
    /// timeout (each replay attempt beyond the first counts once).
    pub task_replays: AtomicU64,
    /// Task attempts abandoned because they exceeded the policy deadline.
    pub task_timeouts: AtomicU64,
    /// Replicated-task digest votes where at least one replica disagreed
    /// with the majority — each is a silent error caught by replication.
    pub task_vote_mismatches: AtomicU64,
}

/// A point-in-time copy of [`RuntimeStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Tasks dispatched to any place.
    pub tasks_spawned: u64,
    /// Synchronous `at` round trips.
    pub at_calls: u64,
    /// Place-zero spawn records.
    pub ctl_spawns: u64,
    /// Place-zero termination records.
    pub ctl_terms: u64,
    /// Place-zero finish-wait registrations.
    pub ctl_waits: u64,
    /// Registry operations applied directly at place zero (no message).
    pub ctl_local: u64,
    /// Payload bytes serialized across places.
    pub bytes_shipped: u64,
    /// Payload bytes that landed at receiving places.
    pub bytes_received: u64,
    /// Nanoseconds spent encoding cross-place payloads.
    pub encode_nanos: u64,
    /// Nanoseconds spent decoding cross-place payloads.
    pub decode_nanos: u64,
    /// Places killed so far.
    pub failures: u64,
    /// Places created elastically after startup.
    pub places_spawned: u64,
    /// Task bodies replayed after a panic or timeout.
    pub task_replays: u64,
    /// Task attempts abandoned on a policy deadline.
    pub task_timeouts: u64,
    /// Replica digest votes with at least one dissenter.
    pub task_vote_mismatches: u64,
}

impl StatsSnapshot {
    /// Total place-zero bookkeeping messages (the resilient-finish funnel);
    /// `ctl_local` operations are not messages and are not included.
    pub fn ctl_total(&self) -> u64 {
        self.ctl_spawns + self.ctl_terms + self.ctl_waits
    }

    /// Counter-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            tasks_spawned: self.tasks_spawned.saturating_sub(earlier.tasks_spawned),
            at_calls: self.at_calls.saturating_sub(earlier.at_calls),
            ctl_spawns: self.ctl_spawns.saturating_sub(earlier.ctl_spawns),
            ctl_terms: self.ctl_terms.saturating_sub(earlier.ctl_terms),
            ctl_waits: self.ctl_waits.saturating_sub(earlier.ctl_waits),
            ctl_local: self.ctl_local.saturating_sub(earlier.ctl_local),
            bytes_shipped: self.bytes_shipped.saturating_sub(earlier.bytes_shipped),
            bytes_received: self.bytes_received.saturating_sub(earlier.bytes_received),
            encode_nanos: self.encode_nanos.saturating_sub(earlier.encode_nanos),
            decode_nanos: self.decode_nanos.saturating_sub(earlier.decode_nanos),
            failures: self.failures.saturating_sub(earlier.failures),
            places_spawned: self.places_spawned.saturating_sub(earlier.places_spawned),
            task_replays: self.task_replays.saturating_sub(earlier.task_replays),
            task_timeouts: self.task_timeouts.saturating_sub(earlier.task_timeouts),
            task_vote_mismatches: self
                .task_vote_mismatches
                .saturating_sub(earlier.task_vote_mismatches),
        }
    }

    /// Counter-wise sum `self + other` — for folding a late-settling delta
    /// (e.g. background ships joined after the last report row closed) into
    /// an already-taken delta without losing or double-counting a tick.
    pub fn merged(&self, other: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            tasks_spawned: self.tasks_spawned + other.tasks_spawned,
            at_calls: self.at_calls + other.at_calls,
            ctl_spawns: self.ctl_spawns + other.ctl_spawns,
            ctl_terms: self.ctl_terms + other.ctl_terms,
            ctl_waits: self.ctl_waits + other.ctl_waits,
            ctl_local: self.ctl_local + other.ctl_local,
            bytes_shipped: self.bytes_shipped + other.bytes_shipped,
            bytes_received: self.bytes_received + other.bytes_received,
            encode_nanos: self.encode_nanos + other.encode_nanos,
            decode_nanos: self.decode_nanos + other.decode_nanos,
            failures: self.failures + other.failures,
            places_spawned: self.places_spawned + other.places_spawned,
            task_replays: self.task_replays + other.task_replays,
            task_timeouts: self.task_timeouts + other.task_timeouts,
            task_vote_mismatches: self.task_vote_mismatches + other.task_vote_mismatches,
        }
    }
}

impl RuntimeStats {
    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            tasks_spawned: self.tasks_spawned.load(Ordering::Relaxed),
            at_calls: self.at_calls.load(Ordering::Relaxed),
            ctl_spawns: self.ctl_spawns.load(Ordering::Relaxed),
            ctl_terms: self.ctl_terms.load(Ordering::Relaxed),
            ctl_waits: self.ctl_waits.load(Ordering::Relaxed),
            ctl_local: self.ctl_local.load(Ordering::Relaxed),
            bytes_shipped: self.bytes_shipped.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            encode_nanos: self.encode_nanos.load(Ordering::Relaxed),
            decode_nanos: self.decode_nanos.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            places_spawned: self.places_spawned.load(Ordering::Relaxed),
            task_replays: self.task_replays.load(Ordering::Relaxed),
            task_timeouts: self.task_timeouts.load(Ordering::Relaxed),
            task_vote_mismatches: self.task_vote_mismatches.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_diff() {
        let s = RuntimeStats::default();
        RuntimeStats::bump(&s.tasks_spawned);
        RuntimeStats::add(&s.bytes_shipped, 100);
        let a = s.snapshot();
        RuntimeStats::bump(&s.tasks_spawned);
        RuntimeStats::bump(&s.ctl_spawns);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.tasks_spawned, 1);
        assert_eq!(d.ctl_spawns, 1);
        assert_eq!(d.bytes_shipped, 0);
        assert_eq!(b.ctl_total(), 1);
    }

    #[test]
    fn since_is_counterwise_exact() {
        let earlier = StatsSnapshot {
            tasks_spawned: 10,
            at_calls: 4,
            ctl_spawns: 3,
            ctl_terms: 3,
            ctl_waits: 1,
            ctl_local: 6,
            bytes_shipped: 1_000,
            bytes_received: 900,
            encode_nanos: 50,
            decode_nanos: 40,
            failures: 1,
            places_spawned: 0,
            task_replays: 2,
            task_timeouts: 1,
            task_vote_mismatches: 0,
        };
        let later = StatsSnapshot {
            tasks_spawned: 25,
            at_calls: 9,
            ctl_spawns: 8,
            ctl_terms: 7,
            ctl_waits: 3,
            ctl_local: 15,
            bytes_shipped: 4_000,
            bytes_received: 3_900,
            encode_nanos: 75,
            decode_nanos: 60,
            failures: 2,
            places_spawned: 1,
            task_replays: 5,
            task_timeouts: 2,
            task_vote_mismatches: 1,
        };
        let d = later.since(&earlier);
        assert_eq!(d.tasks_spawned, 15);
        assert_eq!(d.at_calls, 5);
        assert_eq!(d.ctl_spawns, 5);
        assert_eq!(d.ctl_terms, 4);
        assert_eq!(d.ctl_waits, 2);
        assert_eq!(d.ctl_local, 9);
        assert_eq!(d.bytes_shipped, 3_000);
        assert_eq!(d.bytes_received, 3_000);
        assert_eq!(d.encode_nanos, 25);
        assert_eq!(d.decode_nanos, 20);
        assert_eq!(d.failures, 1);
        assert_eq!(d.places_spawned, 1);
        assert_eq!(d.task_replays, 3);
        assert_eq!(d.task_timeouts, 1);
        assert_eq!(d.task_vote_mismatches, 1);
        assert_eq!(d.ctl_total(), 11, "ctl_total sums the three message deltas, not ctl_local");
        assert_eq!(earlier.merged(&d), later, "merged is the inverse of since");
    }

    #[test]
    fn since_saturates_when_counters_reset() {
        // A snapshot taken before a counter reset (e.g. comparing across two
        // separate runtimes) can be "ahead" of the later one; the delta must
        // clamp field-wise at zero, never wrap.
        let before_reset = StatsSnapshot {
            tasks_spawned: 100,
            at_calls: 50,
            ctl_spawns: 30,
            ctl_terms: 30,
            ctl_waits: 10,
            ctl_local: 40,
            bytes_shipped: 1 << 30,
            bytes_received: 1 << 30,
            encode_nanos: u64::MAX,
            decode_nanos: 7,
            failures: 3,
            places_spawned: 2,
            task_replays: 4,
            task_timeouts: 2,
            task_vote_mismatches: 1,
        };
        let after_reset = StatsSnapshot { tasks_spawned: 5, decode_nanos: 9, ..Default::default() };
        let d = after_reset.since(&before_reset);
        assert_eq!(d.tasks_spawned, 0, "100 -> 5 saturates, does not wrap");
        assert_eq!(d.at_calls, 0);
        assert_eq!(d.ctl_total(), 0);
        assert_eq!(d.ctl_local, 0);
        assert_eq!(d.bytes_shipped, 0);
        assert_eq!(d.encode_nanos, 0, "even a u64::MAX earlier value saturates");
        assert_eq!(d.decode_nanos, 2, "fields that did advance still diff exactly");
        assert_eq!(d.failures, 0);
    }

    #[test]
    fn ctl_total_zero_and_mixed() {
        assert_eq!(StatsSnapshot::default().ctl_total(), 0);
        let s = StatsSnapshot { ctl_spawns: 2, ctl_terms: 0, ctl_waits: 5, ..Default::default() };
        assert_eq!(s.ctl_total(), 7);
    }
}
