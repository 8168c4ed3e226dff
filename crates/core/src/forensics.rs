//! The failure-forensics flight recorder.
//!
//! When the executor restores after a place failure, the interesting state —
//! who was dead, what the resilient-finish ledger still had pending, which
//! snapshot replicas survived, and *why* the executor picked the restore
//! mode it did — is gone moments later: the group is rebuilt, the ledger
//! drains, the repair re-establishes redundancy. This module captures all
//! of it at the restore point, before that repair, and then what the repair
//! did, as one [`PostMortem`] bundle,
//! serialized as plain JSON (validated with the tracer's built-in parser, so
//! the workspace stays dependency-free). [`ResilientExecutor`] attaches one
//! bundle per restore to the [`CostReport`]; set `GML_FORENSICS_DIR` to also
//! write each bundle to disk as `postmortem-<n>.json`.
//!
//! [`ResilientExecutor`]: crate::framework::ResilientExecutor
//! [`CostReport`]: crate::report::CostReport

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use apgas::prelude::*;
use apgas::trace::{escape_json, Phase};

use crate::report::RestoreCost;
use crate::snapshot::Snapshot;
use crate::store::{PlaceInventory, ResilientStore, SnapshotAudit};

/// How many trailing trace events per place a bundle retains.
const TRACE_TAIL_PER_PLACE: usize = 64;

/// A post-mortem bundle: everything worth knowing about the runtime at the
/// moment one restore completed.
#[derive(Clone, Debug, Default)]
pub struct PostMortem {
    /// 1-based restore ordinal within the run (equals `RunStats::restores`
    /// at capture time).
    pub seq: u64,
    /// Capture time, nanoseconds since the tracer's epoch (runtime start) —
    /// directly comparable to `trace_tail[i].t_nanos`.
    pub captured_at_nanos: u64,
    /// Compute-pool worker count ([`apgas::pool::workers`]) — recorded so a
    /// restored replay can be compared against the failure-free run knowing
    /// the intra-place parallelism it ran with (results are bit-identical
    /// across worker counts by construction; timings are not).
    pub pool_workers: usize,
    /// The recovery as its cost-report row records it — the same value:
    /// the effective label (what ran, fallback included; the label on the
    /// `exec.restore` trace span), rebalance, the iteration rolled back to,
    /// the attempts made and what the repair re-replicated.
    pub cost: RestoreCost,
    /// The [`RestoreMode`](crate::framework::RestoreMode) label the executor
    /// was configured with.
    pub configured_mode: &'static str,
    /// One human-readable sentence explaining the plan.
    pub reason: String,
    /// For a `silent_error` restore: the output digest recorded when the
    /// step computed it and the mismatching one observed at the commit
    /// boundary. `None` for fail-stop (dead-place) restores.
    pub digests: Option<(u64, u64)>,
    /// The dead places the successful attempt reacted to.
    pub dead_places: Vec<u32>,
    /// Spare places that were live when that attempt decided.
    pub live_spares: Vec<u32>,
    /// Places this recovery created elastically and restored on.
    pub places_spawned: Vec<u32>,
    /// The resilient-finish ledger at capture time (normally drained;
    /// leftover pending counts point at tasks orphaned by the failure).
    pub ledger: Vec<LedgerEntry>,
    /// Per-place snapshot-store inventory (dead places report zeroes).
    pub store: Vec<PlaceInventory>,
    /// Redundancy audit of every committed object snapshot, as the failure
    /// left it: taken before the recovery's repair.
    pub snapshots: Vec<SnapshotAudit>,
    /// The repair's holder → target transfers (its entry and byte counts
    /// are `cost`'s).
    pub repair_pairs: Vec<(Place, Place)>,
    /// Wall time of the repair.
    pub repair_time: Duration,
    /// The last [`TRACE_TAIL_PER_PLACE`] trace events of each place, in
    /// global time order (empty when tracing is off).
    pub trace_tail: Vec<TraceEvent>,
    /// Per-place counts of trace events lost to ring wraparound by capture
    /// time ([`Tracer::dropped`], index = place; empty when tracing is off).
    /// A non-zero count says that place's `trace_tail` has gaps.
    pub trace_dropped: Vec<u64>,
    /// Memory-ledger snapshot at capture time (all zeroes with the
    /// `mem-profile` feature off): per-tag levels plus the process-wide
    /// allocator counters. A restore is exactly when the memory map is
    /// interesting — surviving replicas inflate the store tag, rollback
    /// frees application matrices.
    pub mem: MemReport,
}

impl PostMortem {
    /// Capture the runtime's sections of a bundle. `committed` is the set
    /// of object snapshots the application just restored from, not yet
    /// repaired. The recovery's own fields are left at their defaults, for
    /// the executor to fill in once the repair is done.
    pub fn capture(ctx: &Ctx, store: &ResilientStore, committed: &[Snapshot], seq: u64) -> Self {
        let (trace_tail, trace_dropped) = trace_sections(ctx.tracer());
        PostMortem {
            seq,
            captured_at_nanos: ctx.tracer().now_nanos(),
            pool_workers: apgas::pool::workers(),
            ledger: ctx.finish_ledger(),
            store: store.inventory(ctx),
            snapshots: committed.iter().map(|s| store.audit_snapshot(ctx, s)).collect(),
            trace_tail,
            trace_dropped,
            mem: apgas::mem::report(),
            ..Default::default()
        }
    }

    /// Serialize the bundle as JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str(&format!(
            "{{\"seq\":{},\"captured_at_nanos\":{},\"pool_workers\":{},\"decision\":{{",
            self.seq,
            self.captured_at_nanos,
            self.pool_workers,
        ));
        let c = &self.cost;
        s.push_str(&format!(
            "\"configured_mode\":\"{}\",\"effective_label\":\"{}\",\"rebalance\":{},\
             \"reason\":\"{}\",\"dead_places\":{},\"live_spares\":{},\
             \"places_spawned\":{},\"rolled_back_to\":{},\"attempt\":{},\
             \"expected_digest\":{},\"observed_digest\":{}}}",
            escape_json(self.configured_mode),
            escape_json(c.label),
            c.rebalance,
            escape_json(&self.reason),
            json_nums(&self.dead_places),
            json_nums(&self.live_spares),
            json_nums(&self.places_spawned),
            c.rolled_back_to,
            c.attempts,
            json_digest(self.digests.map(|(e, _)| e)),
            json_digest(self.digests.map(|(_, o)| o)),
        ));
        s.push_str(",\"ledger\":[");
        for (i, e) in self.ledger.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let pending: Vec<String> =
                e.pending.iter().map(|(p, n)| format!("[{p},{n}]")).collect();
            s.push_str(&format!(
                "{{\"fid\":{},\"pending\":[{}],\"dead_exceptions\":{},\"panics\":{},\
                 \"has_waiter\":{}}}",
                e.fid,
                pending.join(","),
                e.dead_exceptions,
                e.panics,
                e.has_waiter,
            ));
        }
        s.push_str("],\"store\":[");
        for (i, p) in self.store.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"place\":{},\"alive\":{},\"entries\":{},\"snapshots\":{},\"bytes\":{},\
                 \"wire_bytes\":{}}}",
                p.place.id(),
                p.alive,
                p.entries,
                p.snapshots,
                p.bytes,
                p.wire_bytes,
            ));
        }
        s.push_str("],\"snapshots\":[");
        for (i, a) in self.snapshots.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"snap_id\":{},\"object_id\":{},\"entries\":{},\"fully_redundant\":{},\
                 \"degraded\":{},\"lost\":{},\"placement_violations\":{},\"bytes\":{},\
                 \"invariant_ok\":{}}}",
                a.snap_id,
                a.object_id,
                a.entries,
                a.fully_redundant,
                a.degraded,
                a.lost,
                a.placement_violations,
                a.bytes,
                a.invariant_ok(),
            ));
        }
        let pairs: Vec<String> =
            self.repair_pairs.iter().map(|(h, t)| format!("[{},{}]", h.id(), t.id())).collect();
        s.push_str(&format!(
            "],\"repair\":{{\"entries\":{},\"wire_bytes\":{},\"pairs\":[{}],\"nanos\":{}}}",
            c.repaired_entries,
            c.repaired_bytes,
            pairs.join(","),
            self.repair_time.as_nanos(),
        ));
        s.push_str(",\"trace_tail\":[");
        for (i, e) in self.trace_tail.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let phase = match e.phase {
                Phase::Begin => "begin",
                Phase::End => "end",
                Phase::Instant => "instant",
            };
            s.push_str(&format!(
                "{{\"t_nanos\":{},\"dur_nanos\":{},\"place\":{},\"phase\":\"{phase}\",\
                 \"kind\":\"{}\",\"label\":\"{}\",\"arg\":{},\"span_id\":{},\
                 \"parent_id\":{}}}",
                e.t_nanos,
                e.dur_nanos,
                e.place,
                escape_json(e.kind.name()),
                escape_json(e.label),
                e.arg,
                e.span_id,
                e.parent_id,
            ));
        }
        s.push_str(&format!("],\"trace_dropped\":{}", json_nums(&self.trace_dropped)));
        s.push_str(",\"mem\":{");
        let m = &self.mem;
        s.push_str(&format!(
            "\"heap_bytes\":{},\"heap_peak_bytes\":{},\"heap_allocs\":{},\"tags\":[",
            m.heap_bytes, m.heap_peak_bytes, m.heap_allocs
        ));
        for (i, t) in m.tags.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"tag\":\"{}\",\"current\":{},\"high_water\":{},\"charges\":{}}}",
                escape_json(t.tag.label()),
                t.current,
                t.high_water,
                t.charges,
            ));
        }
        s.push_str("]}}");
        s
    }

    /// Check that [`to_json`](Self::to_json) produced well-formed JSON
    /// (using the tracer's built-in validating parser).
    pub fn validate(&self) -> Result<(), String> {
        apgas::trace::validate_json(&self.to_json())
    }

    /// If `GML_FORENSICS_DIR` is set, write the bundle there as
    /// `postmortem-<n>.json` (`n` is a process-global ordinal, so bundles
    /// from consecutive runs never overwrite each other). Returns the path
    /// written; logs and returns `None` on failure instead of erroring — the
    /// flight recorder must never take down a recovery that just succeeded.
    pub fn maybe_write_env_dir(&self) -> Option<PathBuf> {
        let dir = apgas::env::forensics_dir()?;
        let json = self.to_json();
        if let Err(e) = apgas::trace::validate_json(&json) {
            eprintln!("gml: post-mortem bundle {} failed validation, not written: {e}", self.seq);
            return None;
        }
        static ORDINAL: AtomicU64 = AtomicU64::new(0);
        let n = ORDINAL.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("postmortem-{n}.json"));
        match std::fs::write(&path, json) {
            Ok(()) => {
                eprintln!("gml: post-mortem bundle written to {}", path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!("gml: failed to write post-mortem {}: {e}", path.display());
                None
            }
        }
    }
}

/// A bundle's two trace sections, read from `tracer`: the last
/// [`TRACE_TAIL_PER_PLACE`] events of each place, and each place's count of
/// events lost to ring wraparound.
fn trace_sections(tracer: &Tracer) -> (Vec<TraceEvent>, Vec<u64>) {
    (trace_tail(&tracer.events(), TRACE_TAIL_PER_PLACE), tracer.dropped())
}

/// Keep only the last `per_place` events of each place, preserving the
/// input's (global time) order.
fn trace_tail(events: &[TraceEvent], per_place: usize) -> Vec<TraceEvent> {
    let mut skip: HashMap<u32, usize> = HashMap::new();
    for e in events {
        *skip.entry(e.place).or_default() += 1;
    }
    for n in skip.values_mut() {
        *n = n.saturating_sub(per_place);
    }
    events
        .iter()
        .filter(|e| {
            let n = skip.get_mut(&e.place).expect("counted above");
            if *n > 0 {
                *n -= 1;
                false
            } else {
                true
            }
        })
        .copied()
        .collect()
}

/// Render an optional digest as a JSON value: a fixed-width hex string (so
/// the full 64 bits survive consumers that parse numbers as doubles) or
/// `null` when the restore had no digest evidence (fail-stop).
fn json_digest(d: Option<u64>) -> String {
    match d {
        Some(v) => format!("\"{v:016x}\""),
        None => "null".into(),
    }
}

fn json_nums<T: ToString>(v: &[T]) -> String {
    let items: Vec<String> = v.iter().map(|n| n.to_string()).collect();
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apgas::trace::SpanKind;

    /// A replace-redundant recovery that fell back to a shrink.
    fn bundle() -> PostMortem {
        PostMortem {
            seq: 1,
            captured_at_nanos: 42,
            pool_workers: 1,
            cost: RestoreCost {
                label: "shrink",
                rolled_back_to: 10,
                attempts: 1,
                ..Default::default()
            },
            configured_mode: "replace_redundant",
            reason: "spares exhausted: 1 dead, 0 live spares \"left\"".into(),
            dead_places: vec![2],
            ..Default::default()
        }
    }

    fn event(t: u64, place: u32) -> TraceEvent {
        TraceEvent {
            t_nanos: t,
            dur_nanos: 0,
            place,
            phase: Phase::Instant,
            kind: SpanKind::Step,
            label: "",
            arg: t,
            span_id: t + 1,
            parent_id: 0,
        }
    }

    #[test]
    fn empty_bundle_is_valid_json() {
        let pm = bundle();
        pm.validate().unwrap();
        let json = pm.to_json();
        assert!(json.contains("\"configured_mode\":\"replace_redundant\""));
        assert!(json.contains("\"effective_label\":\"shrink\""));
        assert!(json.contains("\\\"left\\\""), "quotes in the reason are escaped");
        assert!(json.contains("\"mem\":{"), "bundle carries a memory map");
        assert!(json.contains("\"tag\":\"store_shard\""), "every ledger tag is listed");
        assert!(json.contains("\"expected_digest\":null"), "fail-stop restore: no digests");
        assert!(json.contains("\"repair\":{\"entries\":0,\"wire_bytes\":0,\"pairs\":[],"));
    }

    #[test]
    fn populated_bundle_is_valid_json() {
        let pm = PostMortem {
            seq: 3,
            captured_at_nanos: 99,
            pool_workers: 4,
            cost: RestoreCost {
                label: "silent_error",
                repaired_entries: 2,
                repaired_bytes: 512,
                ..bundle().cost
            },
            digests: Some((0x1234_5678_9abc_def0, 0x0fed_cba9_8765_4321)),
            ledger: vec![LedgerEntry {
                fid: 7,
                pending: vec![(0, 1), (2, 3)],
                dead_exceptions: 1,
                panics: 0,
                has_waiter: true,
            }],
            store: vec![PlaceInventory {
                place: Place::new(0),
                alive: true,
                entries: 4,
                snapshots: 2,
                bytes: 256,
                wire_bytes: 256,
            }],
            snapshots: vec![SnapshotAudit {
                snap_id: 5,
                object_id: 11,
                entries: 4,
                fully_redundant: 2,
                degraded: 1,
                lost: 1,
                placement_violations: 0,
                bytes: 256,
            }],
            repair_pairs: vec![(Place::new(3), Place::new(0)), (Place::new(1), Place::new(3))],
            repair_time: Duration::from_nanos(750),
            trace_tail: vec![event(1, 0), event(2, 1)],
            trace_dropped: vec![0, 0],
            mem: apgas::mem::report(),
            ..bundle()
        };
        pm.validate().unwrap();
        let json = pm.to_json();
        assert!(json.contains("\"pending\":[[0,1],[2,3]]"));
        assert!(json.contains("\"effective_label\":\"silent_error\""));
        assert!(json.contains("\"expected_digest\":\"123456789abcdef0\""));
        assert!(json.contains("\"observed_digest\":\"0fedcba987654321\""));
        assert!(json.contains("\"invariant_ok\":false"));
        assert!(json.contains(
            "\"repair\":{\"entries\":2,\"wire_bytes\":512,\"pairs\":[[3,0],[1,3]],\"nanos\":750}"
        ));
        assert!(json.contains("\"kind\":\"exec.step\""));
        assert!(json.contains("\"phase\":\"instant\""));
        assert!(json.contains("\"span_id\":2"), "trace tail carries span identity");
        assert!(json.contains("\"trace_dropped\":[0,0]"));
    }

    #[test]
    fn a_wrapped_ring_shows_in_the_bundles_trace_dropped() {
        let tracer = Tracer::enabled(16);
        tracer.ensure_place(2);
        for i in 0..40 {
            tracer.instant(1, SpanKind::At, i);
        }
        let (trace_tail, trace_dropped) = trace_sections(&tracer);
        assert_eq!(trace_tail.len(), 16, "a 16-slot ring keeps its newest 16");
        let pm = PostMortem {
            captured_at_nanos: tracer.now_nanos(),
            trace_tail,
            trace_dropped,
            ..bundle()
        };
        assert_eq!(pm.trace_dropped[0], 0, "place 0 lost nothing");
        assert_ne!(pm.trace_dropped[1], 0, "place 1's ring wrapped");
        pm.validate().unwrap();
        assert!(pm.to_json().contains("\"trace_dropped\":[0,24]"));
    }

    #[test]
    fn trace_tail_keeps_last_n_per_place_in_order() {
        // 100 events at place 0 interleaved with 3 at place 1.
        let mut events = Vec::new();
        for t in 0..100 {
            events.push(event(t, 0));
        }
        events.push(event(40, 1));
        events.push(event(60, 1));
        events.push(event(80, 1));
        events.sort_by_key(|e| e.t_nanos);
        let tail = trace_tail(&events, 64);
        assert_eq!(tail.iter().filter(|e| e.place == 0).count(), 64);
        assert_eq!(tail.iter().filter(|e| e.place == 1).count(), 3, "under the cap: all kept");
        // Place 0 keeps its *latest* 64 (args 36..100), and order is preserved.
        assert!(tail.iter().filter(|e| e.place == 0).all(|e| e.arg >= 36));
        assert!(tail.windows(2).all(|w| w[0].t_nanos <= w[1].t_nanos));
    }

    #[test]
    fn esc_handles_control_chars() {
        // The bundles' strings go through the tracer's escaper.
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
