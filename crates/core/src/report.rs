//! The per-iteration resilience cost report (the paper's Table III/IV
//! columns, per executor pass instead of per run).
//!
//! [`ResilientExecutor::run_reported`](crate::framework::ResilientExecutor::run_reported)
//! snapshots the runtime counters at every loop-pass boundary and emits one
//! [`IterRow`] per pass: wall time in `step` / `checkpoint` / `restore`,
//! plus the counter *deltas* consumed by that pass (ctl messages, codec
//! time, bytes shipped and received). Boundary snapshots are shared between
//! adjacent rows, so the rows telescope: their sums equal the run totals
//! exactly ([`CostReport::consistent_with_totals`]), which is what lets the
//! report cross-check ship volume end-to-end.

use std::time::Duration;

use apgas::metrics::fmt_nanos;
use apgas::stats::StatsSnapshot;

use crate::codec::CodecSnapshot;
use crate::forensics::PostMortem;

/// Wall time and shape of one restore performed by the executor: the one
/// record of a recovery, held by its row and by its post-mortem bundle.
#[derive(Clone, Copy, Debug, Default)]
pub struct RestoreCost {
    /// The *effective* restore mode label: what actually happened, fallback
    /// included (`"shrink"`, `"shrink_rebalance"`, `"replace_redundant"`,
    /// `"replace_elastic"`, or `"silent_error"` for a rollback on the
    /// unchanged group).
    pub label: &'static str,
    /// Whether the data grid was repartitioned.
    pub rebalance: bool,
    /// Total wall time of this recovery, all attempts: settle, decide,
    /// restore, repair and post-mortem. `RunStats::restore_time` is the sum
    /// of these over a run's recoveries.
    pub time: Duration,
    /// Snapshot entries the recovery's repair re-replicated (those the dead
    /// places had owned or backed up).
    pub repaired_entries: usize,
    /// Wire bytes that repair copied.
    pub repaired_bytes: u64,
    /// The iteration rolled back to (the snapshot's iteration).
    pub rolled_back_to: u64,
    /// Restore attempts made (> 1 when another place died mid-restore).
    pub attempts: u32,
}

/// One executor loop pass: at most one checkpoint, at most one step, at
/// most one recovery — plus the runtime counter deltas it consumed.
#[derive(Clone, Copy, Debug)]
pub struct IterRow {
    /// The iteration number at the start of the pass (pre-rollback).
    pub iteration: u64,
    /// Wall time in `app.step` (zero when the pass never reached the step,
    /// e.g. a failed checkpoint).
    pub step: Duration,
    /// Wall time of the checkpoint taken this pass, if any (failed,
    /// cancelled checkpoints included — their cost is real).
    pub checkpoint: Option<Duration>,
    /// Synchronous *capture* portion of this pass's checkpoint (a handle
    /// on each value under the object locks, kept at its owner). `Some`
    /// exactly when `checkpoint` is.
    pub capture: Option<Duration>,
    /// Background *ship* busy time harvested by this pass. With overlap on,
    /// a checkpoint's ships are joined — and therefore show up — at the
    /// next settle point, typically one checkpoint later; the time itself
    /// ran concurrently with the steps in between.
    pub ship: Option<Duration>,
    /// Wall time this pass spent computing and comparing output digests for
    /// silent-error detection (recording after the step plus verification
    /// before the checkpoint commit). `None` when the app opted out of
    /// checksummed steps.
    pub detect: Option<Duration>,
    /// The recovery performed this pass, if any.
    pub restore: Option<RestoreCost>,
    /// Live heap bytes at the pass's close boundary (counting allocator).
    /// Levels, not deltas — read at the same boundary as `delta`'s
    /// snapshots, so consecutive rows telescope by construction. Zero when
    /// `mem-profile` is compiled out.
    pub resident: u64,
    /// Store-ledger bytes (owner + backup snapshot payloads, **wire**
    /// frames) at the pass's close boundary. Reconciles with
    /// `ResilientStore::inventory` wire bytes at every commit point. Zero
    /// when `mem-profile` is compiled out.
    pub ckpt_bytes: u64,
    /// Logical (pre-codec) checkpoint bytes the codec plane framed during
    /// this pass. Frames are made by the ships, so a checkpoint's bytes land
    /// in the rows its ship ran in — with overlap on usually the next
    /// step's, not the checkpoint's own.
    pub ckpt_logical: u64,
    /// Wire (post-codec) checkpoint bytes the codec emitted during this pass
    /// (attributed like `ckpt_logical`); the ratio `ckpt_wire /
    /// ckpt_logical` is the compression factor of those frames.
    pub ckpt_wire: u64,
    /// The frames the codec emitted during this pass (verbatim ones
    /// included), and of those the verbatim ones (payload stored by
    /// reference, not packed); attributed like `ckpt_logical`.
    pub ckpt_frames: [u64; 2],
    /// Time the checkpoint codec was busy encoding + decoding frames during
    /// this pass, **summed over the threads** that ran it, attributed like
    /// `ckpt_logical`: the ships encode concurrently with the steps and
    /// with each other, so this is CPU time of the codec, not wall time,
    /// and not part of the checkpoint's own wall time.
    pub codec_time: Duration,
    /// Runtime counter deltas consumed by this pass.
    pub delta: StatsSnapshot,
}

/// The full per-iteration cost breakdown of one executor run.
#[derive(Clone, Debug, Default)]
pub struct CostReport {
    /// One row per executor loop pass, in execution order.
    pub rows: Vec<IterRow>,
    /// Counter deltas for the whole run (same boundary snapshots as the
    /// rows, so the rows sum to exactly this).
    pub totals: StatsSnapshot,
    /// Checkpoint-codec counter deltas for the whole run (same shared
    /// boundaries, so the rows' logical/wire/codec-time columns sum to
    /// exactly this too). All-zero where nothing was framed.
    pub codec_totals: CodecSnapshot,
    /// One flight-recorder bundle per restore, in restore order (see
    /// [`PostMortem`]).
    pub bundles: Vec<PostMortem>,
}

impl CostReport {
    /// Counter-wise sum of every row's delta.
    pub fn summed(&self) -> StatsSnapshot {
        self.rows.iter().fold(StatsSnapshot::default(), |s, r| s.merged(&r.delta))
    }

    /// Do the rows account for every counter tick of the run? True by
    /// construction (shared boundary snapshots); exposed so tests and the
    /// CI smoke run can assert it.
    pub fn consistent_with_totals(&self) -> bool {
        self.summed() == self.totals
    }

    /// Do the rows' codec columns (logical bytes, wire bytes, frame forms,
    /// codec busy time) telescope to [`CostReport::codec_totals`]? True by
    /// construction — the codec counters are sampled at the same shared row
    /// boundaries as the runtime counters. Vacuously true where nothing was
    /// framed (all zeros).
    pub fn codec_consistent(&self) -> bool {
        let logical: u64 = self.rows.iter().map(|r| r.ckpt_logical).sum();
        let wire: u64 = self.rows.iter().map(|r| r.ckpt_wire).sum();
        let nanos: u64 = self.rows.iter().map(|r| r.codec_time.as_nanos() as u64).sum();
        let frames: [u64; 2] =
            std::array::from_fn(|i| self.rows.iter().map(|r| r.ckpt_frames[i]).sum());
        let c = &self.codec_totals;
        logical == c.logical_bytes
            && wire == c.wire_bytes
            && frames == [c.frames_full, c.frames_verbatim]
            && nanos == c.encode_nanos + c.decode_nanos
    }

    /// Total restores across all rows.
    pub fn restores(&self) -> u64 {
        self.rows.iter().filter(|r| r.restore.is_some()).count() as u64
    }

    /// Render the Table-III-style per-iteration cost table plus a totals
    /// line. `step / ckpt / restore` are wall times; `capture` is the
    /// synchronous portion of the checkpoint, which serializes nothing, and
    /// `ship(t)` the background serialize, encode and backup-transfer busy
    /// time harvested this pass (under overlap it belongs to the previous
    /// checkpoint and ran concurrently with compute); `detect(t)` is the
    /// wall time spent computing and comparing output digests for
    /// silent-error detection (`-` when the app opted out); `ctl` counts
    /// place-zero bookkeeping messages; `enc+dec` is codec wall time;
    /// `ship / recv` are payload bytes. `resident / ckptmem` are memory
    /// *levels* at the pass's close boundary (live heap, store-ledger
    /// bytes) rather than deltas; both
    /// read 0 with `mem-profile` compiled out. `logical / wire` split this
    /// pass's checkpoint volume into pre-codec payload bytes and post-codec
    /// frame bytes (both 0 where nothing was framed), `f/v` counts the frames the
    /// codec emitted and, of those, the verbatim ones, and `codec(cpu)` is
    /// the time the checkpoint codec was busy encoding + decoding frames,
    /// summed over the threads that did so concurrently (not wall time).
    /// Those four columns count what was encoded during the pass: the ships
    /// frame a checkpoint's replicas, so its bytes and codec time land in
    /// the rows its ship ran in — under overlap usually the next step's —
    /// as a read-only object's frames always did. A restore cell
    /// ends with what its repair re-replicated: `+entries/bytes`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>5} {:>10} {:>10} {:>10} {:>10} {:>10} {:>36} {:>6} {:>10} {:>10} {:>10} \
             {:>9} {:>9} {:>9} {:>9} {:>8} {:>10}\n",
            "iter", "step", "ckpt", "capture", "ship(t)", "detect(t)", "restore", "ctl",
            "enc+dec", "ship", "recv", "resident", "ckptmem", "logical", "wire", "f/v",
            "codec(cpu)"
        ));
        for r in &self.rows {
            let opt = |d: Option<Duration>| {
                d.map(|d| fmt_nanos(d.as_nanos() as u64)).unwrap_or_else(|| "-".into())
            };
            let restore = r
                .restore
                .map(|rc| {
                    format!(
                        "{} ({}→it{} +{}/{})",
                        fmt_nanos(rc.time.as_nanos() as u64),
                        rc.label,
                        rc.rolled_back_to,
                        rc.repaired_entries,
                        fmt_bytes(rc.repaired_bytes)
                    )
                })
                .unwrap_or_else(|| "-".into());
            out.push_str(&format!(
                "{:>5} {:>10} {:>10} {:>10} {:>10} {:>10} {:>36} {:>6} {:>10} {:>10} {:>10} \
                 {:>9} {:>9} {:>9} {:>9} {:>8} {:>10}\n",
                r.iteration,
                fmt_nanos(r.step.as_nanos() as u64),
                opt(r.checkpoint),
                opt(r.capture),
                opt(r.ship),
                opt(r.detect),
                restore,
                r.delta.ctl_total(),
                fmt_nanos(r.delta.encode_nanos + r.delta.decode_nanos),
                fmt_bytes(r.delta.bytes_shipped),
                fmt_bytes(r.delta.bytes_received),
                fmt_bytes(r.resident),
                fmt_bytes(r.ckpt_bytes),
                fmt_bytes(r.ckpt_logical),
                fmt_bytes(r.ckpt_wire),
                r.ckpt_frames.map(|n| n.to_string()).join("/"),
                fmt_nanos(r.codec_time.as_nanos() as u64),
            ));
        }
        let t = &self.totals;
        let detect_total: Duration =
            self.rows.iter().filter_map(|r| r.detect).sum();
        let c = &self.codec_totals;
        out.push_str(&format!(
            "total: {} rows, {} restores, ctl {} (spawn {} term {} wait {}; local {}), \
             encode {} decode {}, shipped {} received {}, peak resident {}, \
             detect {}, \
             ckpt logical {} wire {} (ratio {:.2}) frames {} verbatim {} codec {}\n",
            self.rows.len(),
            self.restores(),
            t.ctl_total(),
            t.ctl_spawns,
            t.ctl_terms,
            t.ctl_waits,
            t.ctl_local,
            fmt_nanos(t.encode_nanos),
            fmt_nanos(t.decode_nanos),
            fmt_bytes(t.bytes_shipped),
            fmt_bytes(t.bytes_received),
            fmt_bytes(self.rows.iter().map(|r| r.resident).max().unwrap_or(0)),
            fmt_nanos(detect_total.as_nanos() as u64),
            fmt_bytes(c.logical_bytes),
            fmt_bytes(c.wire_bytes),
            c.compression_ratio(),
            c.frames_full,
            c.frames_verbatim,
            fmt_nanos(c.encode_nanos + c.decode_nanos),
        ));
        out
    }
}

/// Format a byte count compactly (`1.5MB`, `12.0KB`, `17B`).
pub fn fmt_bytes(n: u64) -> String {
    if n >= 1 << 30 {
        format!("{:.1}GB", n as f64 / (1u64 << 30) as f64)
    } else if n >= 1 << 20 {
        format!("{:.1}MB", n as f64 / (1u64 << 20) as f64)
    } else if n >= 1 << 10 {
        format!("{:.1}KB", n as f64 / (1u64 << 10) as f64)
    } else {
        format!("{n}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(iter: u64, shipped: u64, received: u64, ctl: u64) -> IterRow {
        IterRow {
            iteration: iter,
            step: Duration::from_millis(1),
            checkpoint: None,
            capture: None,
            ship: None,
            detect: None,
            restore: None,
            resident: 0,
            ckpt_bytes: 0,
            ckpt_logical: 0,
            ckpt_wire: 0,
            ckpt_frames: [0; 2],
            codec_time: Duration::ZERO,
            delta: StatsSnapshot {
                bytes_shipped: shipped,
                bytes_received: received,
                ctl_spawns: ctl,
                ..Default::default()
            },
        }
    }

    #[test]
    fn rows_sum_to_totals() {
        let rows = vec![row(0, 100, 100, 3), row(1, 50, 40, 2)];
        let totals = StatsSnapshot {
            bytes_shipped: 150,
            bytes_received: 140,
            ctl_spawns: 5,
            ..Default::default()
        };
        let report = CostReport { rows, totals, codec_totals: Default::default(), bundles: vec![] };
        assert!(report.consistent_with_totals());
        let mut wrong = report.clone();
        wrong.totals.bytes_shipped = 151;
        assert!(!wrong.consistent_with_totals());
    }

    #[test]
    fn render_mentions_restores_and_bytes() {
        let mut r = row(7, 2048, 2048, 1);
        r.checkpoint = Some(Duration::from_millis(3));
        r.capture = Some(Duration::from_millis(2));
        r.ship = Some(Duration::from_millis(1));
        r.restore = Some(RestoreCost {
            label: "shrink_rebalance",
            rebalance: true,
            time: Duration::from_millis(9),
            repaired_entries: 4,
            repaired_bytes: 3 << 20,
            rolled_back_to: 5,
            attempts: 1,
        });
        let report = CostReport {
            totals: r.delta,
            rows: vec![r],
            codec_totals: Default::default(),
            bundles: vec![],
        };
        let text = report.render();
        assert!(text.contains("shrink_rebalance"));
        assert!(text.contains("→it5 +4/3.0MB)"), "the restore cell carries its repair");
        assert!(text.contains("2.0KB"));
        assert!(text.contains("capture"), "two-phase capture column present");
        assert!(text.contains("ship(t)"), "two-phase ship-time column present");
        assert_eq!(report.restores(), 1);
    }

    #[test]
    fn detect_column_renders_and_telescopes() {
        let mut a = row(0, 0, 0, 0);
        a.detect = Some(Duration::from_millis(2));
        a.delta.failures = 1;
        let mut b = row(1, 0, 0, 0);
        b.detect = Some(Duration::from_millis(3));
        b.delta.places_spawned = 1;
        let totals = StatsSnapshot { failures: 1, places_spawned: 1, ..Default::default() };
        let report =
            CostReport { rows: vec![a, b], totals, codec_totals: Default::default(), bundles: vec![] };
        // The new counters participate in the telescoping check.
        assert!(report.consistent_with_totals());
        let text = report.render();
        assert!(text.contains("detect(t)"), "per-row detection column present");
        assert!(text.contains("detect 5.00ms"), "totals line sums the rows");
    }

    #[test]
    fn render_includes_memory_level_columns() {
        let mut r = row(0, 0, 0, 0);
        r.resident = 3 << 20;
        r.ckpt_bytes = 2048;
        let report = CostReport {
            totals: r.delta,
            rows: vec![r],
            codec_totals: Default::default(),
            bundles: vec![],
        };
        let text = report.render();
        assert!(text.contains("resident"), "memory column header present");
        assert!(text.contains("ckptmem"), "store-ledger column header present");
        assert!(text.contains("3.0MB"), "resident level rendered");
        assert!(text.contains("2.0KB"), "ckpt bytes rendered");
        assert!(text.contains("peak resident 3.0MB"), "totals line carries the peak");
    }

    #[test]
    fn codec_columns_render_and_telescope() {
        let mut a = row(0, 0, 0, 0);
        a.ckpt_logical = 4096;
        a.ckpt_wire = 1024;
        a.ckpt_frames = [4, 3];
        a.codec_time = Duration::from_millis(2);
        let mut b = row(1, 0, 0, 0);
        b.ckpt_logical = 4096;
        b.ckpt_wire = 1024;
        b.ckpt_frames = [1, 0];
        b.codec_time = Duration::from_millis(3);
        let codec_totals = CodecSnapshot {
            logical_bytes: 8192,
            wire_bytes: 2048,
            frames_full: 5,
            frames_verbatim: 3,
            encode_nanos: 4_000_000,
            decode_nanos: 1_000_000,
            ..Default::default()
        };
        let report = CostReport {
            rows: vec![a, b],
            totals: StatsSnapshot::default(),
            codec_totals,
            bundles: vec![],
        };
        assert!(report.codec_consistent(), "codec columns telescope to codec_totals");
        let text = report.render();
        assert!(text.contains("logical"), "logical byte column present");
        assert!(text.contains("wire"), "wire byte column present");
        assert!(text.contains("codec(cpu)"), "codec time column present");
        assert!(text.contains("f/v"), "frame form column present");
        assert!(text.contains("     4/3 "), "a row shows the forms the codec chose");
        assert!(text.contains(
            "ckpt logical 8.0KB wire 2.0KB (ratio 0.25) frames 5 verbatim 3 codec 5.00ms"
        ));
        // A wire-byte mismatch breaks the telescoping check; so does a
        // frame that changed form between the rows and the totals.
        let mut bad = report.clone();
        bad.rows[0].ckpt_wire += 1;
        assert!(!bad.codec_consistent());
        let mut bad = report.clone();
        bad.rows[1].ckpt_frames[1] += 1;
        assert!(!bad.codec_consistent());
        // A run that framed nothing (all zeros) is vacuously consistent.
        let raw = CostReport {
            rows: vec![row(0, 0, 0, 0)],
            totals: StatsSnapshot::default(),
            codec_totals: Default::default(),
            bundles: vec![],
        };
        assert!(raw.codec_consistent());
    }

    #[test]
    fn fmt_bytes_scales() {
        assert_eq!(fmt_bytes(17), "17B");
        assert_eq!(fmt_bytes(2048), "2.0KB");
        assert_eq!(fmt_bytes(3 << 20), "3.0MB");
        assert_eq!(fmt_bytes(5 << 30), "5.0GB");
    }
}
