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

use apgas::prelude::*;
use apgas::trace::{critical_path, escape_json, Phase};

use crate::snapshot::Snapshot;
use crate::store::{PlaceInventory, RepairReport, ResilientStore, SnapshotAudit};

/// How many trailing trace events per place a bundle retains.
const TRACE_TAIL_PER_PLACE: usize = 64;

/// How many trailing per-iteration critical-path rows a bundle retains.
const PATH_ROWS: usize = 8;

/// Why the executor restored the way it did: the configured mode, what
/// actually happened (fallbacks included), and the inputs to that decision.
#[derive(Clone, Debug)]
pub struct RestoreDecision {
    /// The [`RestoreMode`](crate::framework::RestoreMode) label the executor
    /// was configured with.
    pub configured_mode: &'static str,
    /// The label of what actually ran — differs from `configured_mode` when
    /// replace-redundant ran out of spares and fell back to a shrink variant
    /// (the only mode that can fall back), or when a silent error rolled
    /// back on the unchanged group (`silent_error`). Matches the label on
    /// the corresponding `exec.restore` trace span by construction.
    pub effective_label: &'static str,
    /// Whether the data grid was repartitioned.
    pub rebalance: bool,
    /// One human-readable sentence explaining the choice.
    pub reason: String,
    /// The dead places this restore reacted to.
    pub dead_places: Vec<u32>,
    /// Spare places that were live when the decision was made.
    pub live_spares: Vec<u32>,
    /// Places created elastically for this restore.
    pub places_spawned: Vec<u32>,
    /// The iteration rolled back to.
    pub rolled_back_to: u64,
    /// Which restore attempt of this recovery succeeded (> 1 when another
    /// place died mid-restore).
    pub attempt: u32,
    /// For a `silent_error` restore: the output digest recorded when the
    /// step computed it. `None` for fail-stop (dead-place) restores.
    pub expected_digest: Option<u64>,
    /// For a `silent_error` restore: the mismatching digest observed at the
    /// commit boundary. `None` for fail-stop restores.
    pub observed_digest: Option<u64>,
}

/// A post-mortem bundle: everything worth knowing about the runtime at the
/// moment one restore completed.
#[derive(Clone, Debug)]
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
    /// Why this restore mode, with its inputs.
    pub decision: RestoreDecision,
    /// The resilient-finish ledger at capture time (normally drained;
    /// leftover pending counts point at tasks orphaned by the failure).
    pub ledger: Vec<LedgerEntry>,
    /// Per-place snapshot-store inventory (dead places report zeroes).
    pub store: Vec<PlaceInventory>,
    /// Redundancy audit of every committed object snapshot, as the failure
    /// left it: taken before the recovery's repair.
    pub snapshots: Vec<SnapshotAudit>,
    /// What that repair then re-replicated (the executor fills this in after
    /// capturing the bundle; all-zero when nothing was degraded).
    pub repair: RepairReport,
    /// The last [`TRACE_TAIL_PER_PLACE`] trace events of each place, in
    /// global time order (empty when tracing is off).
    pub trace_tail: Vec<TraceEvent>,
    /// The last [`PATH_ROWS`] per-iteration critical-path profiles the
    /// tracer could still reconstruct at capture time (empty when tracing is
    /// off). Shows where the pre-failure iterations spent their time.
    pub path_rows: Vec<IterProfile>,
    /// Memory-ledger snapshot at capture time (all zeroes with the
    /// `mem-profile` feature off): per-tag levels plus the process-wide
    /// allocator counters. A restore is exactly when the memory map is
    /// interesting — surviving replicas inflate the store tag, rollback
    /// frees application matrices.
    pub mem: MemReport,
    /// Cumulative task replays at capture time — how often the task layer
    /// re-executed a panicked or timed-out body before this restore.
    pub task_replays: u64,
    /// Cumulative task-attempt timeouts at capture time.
    pub task_timeouts: u64,
    /// Cumulative replica digest-vote mismatches at capture time.
    pub task_vote_mismatches: u64,
}

impl PostMortem {
    /// Capture a bundle from the live runtime. `committed` is the set of
    /// object snapshots the application just restored from, not yet
    /// repaired.
    pub fn capture(
        ctx: &Ctx,
        store: &ResilientStore,
        committed: &[Snapshot],
        decision: RestoreDecision,
        seq: u64,
    ) -> Self {
        let events = ctx.tracer().events();
        let mut path_rows = critical_path::analyze(&events, &ctx.tracer().dropped());
        if path_rows.len() > PATH_ROWS {
            path_rows.drain(..path_rows.len() - PATH_ROWS);
        }
        let rt_stats = ctx.stats();
        PostMortem {
            seq,
            captured_at_nanos: ctx.tracer().now_nanos(),
            pool_workers: apgas::pool::workers(),
            decision,
            ledger: ctx.finish_ledger(),
            store: store.inventory(ctx),
            snapshots: committed.iter().map(|s| store.audit_snapshot(ctx, s)).collect(),
            repair: RepairReport::default(),
            trace_tail: trace_tail(&events, TRACE_TAIL_PER_PLACE),
            path_rows,
            mem: apgas::mem::report(),
            task_replays: rt_stats.task_replays,
            task_timeouts: rt_stats.task_timeouts,
            task_vote_mismatches: rt_stats.task_vote_mismatches,
        }
    }

    /// Serialize the bundle as JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str(&format!(
            "{{\"seq\":{},\"captured_at_nanos\":{},\"pool_workers\":{},\
             \"task_replays\":{},\"task_timeouts\":{},\"task_vote_mismatches\":{},\
             \"decision\":{{",
            self.seq,
            self.captured_at_nanos,
            self.pool_workers,
            self.task_replays,
            self.task_timeouts,
            self.task_vote_mismatches,
        ));
        let d = &self.decision;
        s.push_str(&format!(
            "\"configured_mode\":\"{}\",\"effective_label\":\"{}\",\"rebalance\":{},\
             \"reason\":\"{}\",\"dead_places\":{},\"live_spares\":{},\
             \"places_spawned\":{},\"rolled_back_to\":{},\"attempt\":{},\
             \"expected_digest\":{},\"observed_digest\":{}}}",
            escape_json(d.configured_mode),
            escape_json(d.effective_label),
            d.rebalance,
            escape_json(&d.reason),
            json_u32s(&d.dead_places),
            json_u32s(&d.live_spares),
            json_u32s(&d.places_spawned),
            d.rolled_back_to,
            d.attempt,
            json_digest(d.expected_digest),
            json_digest(d.observed_digest),
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
            self.repair.pairs.iter().map(|(h, t)| format!("[{},{}]", h.id(), t.id())).collect();
        s.push_str(&format!(
            "],\"repair\":{{\"entries\":{},\"wire_bytes\":{},\"pairs\":[{}],\"nanos\":{}}}",
            self.repair.entries,
            self.repair.wire_bytes,
            pairs.join(","),
            self.repair.time.as_nanos(),
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
        s.push_str("],\"path_rows\":[");
        for (i, p) in self.path_rows.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"iteration\":{},\"wall_nanos\":{},\"critical_path_nanos\":{},\
                 \"compute_nanos\":{},\"ship_nanos\":{},\"ctl_nanos\":{},\"idle_nanos\":{},\
                 \"dominant_place\":{},\"straggler_ratio\":{:.4},\"complete\":{}}}",
                p.iteration,
                p.wall_nanos,
                p.critical_path_nanos,
                p.compute_nanos,
                p.ship_nanos,
                p.ctl_nanos,
                p.idle_nanos,
                p.dominant_place,
                p.straggler_ratio,
                p.complete,
            ));
        }
        s.push_str("],\"mem\":{");
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

fn json_u32s(v: &[u32]) -> String {
    let items: Vec<String> = v.iter().map(|n| n.to_string()).collect();
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apgas::trace::SpanKind;

    fn decision() -> RestoreDecision {
        RestoreDecision {
            configured_mode: "replace_redundant",
            effective_label: "shrink",
            rebalance: false,
            reason: "spares exhausted: 1 dead, 0 live spares \"left\"".into(),
            dead_places: vec![2],
            live_spares: vec![],
            places_spawned: vec![],
            rolled_back_to: 10,
            attempt: 1,
            expected_digest: None,
            observed_digest: None,
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
        let pm = PostMortem {
            seq: 1,
            captured_at_nanos: 42,
            pool_workers: 1,
            decision: decision(),
            ledger: vec![],
            store: vec![],
            snapshots: vec![],
            repair: RepairReport::default(),
            trace_tail: vec![],
            path_rows: vec![],
            mem: MemReport::default(),
            task_replays: 0,
            task_timeouts: 0,
            task_vote_mismatches: 0,
        };
        pm.validate().unwrap();
        let json = pm.to_json();
        assert!(json.contains("\"configured_mode\":\"replace_redundant\""));
        assert!(json.contains("\"effective_label\":\"shrink\""));
        assert!(json.contains("\\\"left\\\""), "quotes in the reason are escaped");
        assert!(json.contains("\"mem\":{"), "bundle carries a memory map");
        assert!(json.contains("\"tag\":\"store_shard\""), "every ledger tag is listed");
        assert!(json.contains("\"expected_digest\":null"), "fail-stop restore: no digests");
        assert!(json.contains("\"task_replays\":0"), "task-layer counters present");
        assert!(json.contains("\"repair\":{\"entries\":0,\"wire_bytes\":0,\"pairs\":[],"));
    }

    #[test]
    fn populated_bundle_is_valid_json() {
        let mut dec = decision();
        dec.effective_label = "silent_error";
        dec.expected_digest = Some(0x1234_5678_9abc_def0);
        dec.observed_digest = Some(0x0fed_cba9_8765_4321);
        let pm = PostMortem {
            seq: 3,
            captured_at_nanos: 99,
            pool_workers: 4,
            decision: dec,
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
            repair: RepairReport {
                entries: 2,
                wire_bytes: 512,
                pairs: vec![(Place::new(3), Place::new(0)), (Place::new(1), Place::new(3))],
                time: std::time::Duration::from_nanos(750),
            },
            trace_tail: vec![event(1, 0), event(2, 1)],
            path_rows: vec![IterProfile {
                iteration: 9,
                wall_nanos: 100,
                critical_path_nanos: 80,
                compute_nanos: 60,
                ship_nanos: 15,
                ctl_nanos: 5,
                idle_nanos: 20,
                dominant_place: 1,
                straggler_ratio: 1.25,
                complete: true,
            }],
            mem: apgas::mem::report(),
            task_replays: 5,
            task_timeouts: 2,
            task_vote_mismatches: 1,
        };
        pm.validate().unwrap();
        let json = pm.to_json();
        assert!(json.contains("\"pending\":[[0,1],[2,3]]"));
        assert!(json.contains("\"effective_label\":\"silent_error\""));
        assert!(json.contains("\"expected_digest\":\"123456789abcdef0\""));
        assert!(json.contains("\"observed_digest\":\"0fedcba987654321\""));
        assert!(json.contains("\"task_replays\":5"));
        assert!(json.contains("\"task_timeouts\":2"));
        assert!(json.contains("\"task_vote_mismatches\":1"));
        assert!(json.contains("\"invariant_ok\":false"));
        assert!(json.contains(
            "\"repair\":{\"entries\":2,\"wire_bytes\":512,\"pairs\":[[3,0],[1,3]],\"nanos\":750}"
        ));
        assert!(json.contains("\"kind\":\"exec.step\""));
        assert!(json.contains("\"phase\":\"instant\""));
        assert!(json.contains("\"span_id\":2"), "trace tail carries span identity");
        assert!(json.contains("\"iteration\":9"));
        assert!(json.contains("\"straggler_ratio\":1.2500"));
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
