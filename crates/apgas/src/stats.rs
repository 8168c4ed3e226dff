//! Runtime activity counters.
//!
//! These make the resilience costs the paper talks about *observable*: the
//! number of place-zero bookkeeping messages (the source of resilient-X10
//! overhead in Figs 2–4) and the number of bytes serialized across places
//! (the source of checkpoint/restore cost in Table III and Figs 5–7).

use std::sync::atomic::{AtomicU64, Ordering};

crate::counter_set! {
    /// Monotonic counters maintained by the runtime. Cheap to update; read
    /// them with [`RuntimeStats::snapshot`].
    pub struct RuntimeStats;
    /// A point-in-time copy of [`RuntimeStats`].
    pub struct StatsSnapshot {
        /// Tasks spawned via at/async_at.
        tasks_spawned;
        /// Synchronous at() round trips.
        at_calls;
        /// Resilient-finish spawn records at place zero. Each is a message
        /// through place zero's mailbox, i.e. an operation issued at any
        /// other place; so are `ctl_terms` and `ctl_waits`.
        ctl_spawns;
        /// Resilient-finish termination records.
        ctl_terms;
        /// Resilient-finish wait registrations.
        ctl_waits;
        /// Resilient-finish registry operations applied directly at place zero.
        ctl_local;
        /// Payload bytes serialized for a place crossing. Maintained by the
        /// data layers via [`crate::runtime::Ctx::record_bytes`].
        bytes_shipped;
        /// Payload bytes landed at a receiving place. Maintained via
        /// [`crate::runtime::Ctx::record_bytes_received`] at every receive
        /// site. In a failure-free run it equals `bytes_shipped`; a payload
        /// shipped to a place that died in flight is counted as shipped but
        /// never as received.
        bytes_received;
        /// Wall nanoseconds spent encoding payloads. Maintained via
        /// [`crate::runtime::Ctx::encode`]. A checkpoint frame that packs is
        /// made from the value's wire runs and never serialized, so only a
        /// frame kept verbatim is counted here; the checkpoint codec's own
        /// encode time covers all of the framing.
        encode_nanos;
        /// Wall nanoseconds spent decoding payloads. Maintained via
        /// [`crate::runtime::Ctx::decode`].
        decode_nanos;
        /// Fail-stop place failures injected.
        failures;
        /// Places created elastically at runtime.
        places_spawned;
    }
}

impl StatsSnapshot {
    /// Total place-zero bookkeeping messages (the resilient-finish funnel);
    /// `ctl_local` operations are not messages and are not included.
    pub fn ctl_total(&self) -> u64 {
        self.ctl_spawns + self.ctl_terms + self.ctl_waits
    }
}

impl RuntimeStats {
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
