//! The traced run: per-layer metrics of one workload.
//!
//! After a warm-up and two untraced repetitions (the yardstick for the
//! tracing overhead) the workload runs with the span recorder on; then the
//! step replay and the layer probes run in the same process under the same
//! recorder. Nothing here feeds an end-to-end metric.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gml_core::RestoreMode;

use crate::affinity::CpuSet;
use crate::measure::{ms, rep, Samples};
use crate::probes;
use crate::replay;
use crate::spans::{self_times_ns, Recorder, Span};
use crate::stats::{median, tail};
use crate::workloads::{Kind, ResRun, Spec};

pub struct Traced {
    /// Result checks of every run this process made.
    pub samples: Samples,
    /// Per-layer metrics by catalog name.
    pub metrics: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
}

fn med(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(0.0)
}

/// One counter of each of `spans`.
fn counter<'a>(spans: impl IntoIterator<Item = &'a Span>, counter: &str) -> Vec<f64> {
    spans
        .into_iter()
        .filter_map(|s| s.counters.iter().find(|(k, _)| *k == counter))
        .map(|&(_, v)| v as f64)
        .collect()
}

/// The steps that succeeded on the full group: those before their run's
/// first restore. A step that meets the kill fails early with a handful of
/// messages, and steps on a shrunk group send fewer.
fn full_group_steps(spans: &[Span]) -> Vec<&Span> {
    let mut restored: Vec<u32> = Vec::new();
    let mut steps = Vec::new();
    for s in spans {
        let ok = s.counters.iter().any(|&(k, v)| k == "ok" && v == 1);
        match s.name {
            "restore" => restored.push(s.run),
            "step" if ok && !restored.contains(&s.run) => steps.push(s),
            _ => {}
        }
    }
    steps
}

/// The count of an ordinary step: the most frequent value over the
/// full-group steps (the smallest on a tie), which repeats exactly. A
/// background ship adds its own messages to whichever step it overlaps, by
/// an amount that depends on timing; the step's own count is what recurs.
fn step_count(spans: &[Span], name: &str) -> f64 {
    let mut counts: Vec<(u64, usize)> = Vec::new();
    for v in counter(full_group_steps(spans), name) {
        let v = v as u64;
        match counts.iter_mut().find(|(value, _)| *value == v) {
            Some((_, n)) => *n += 1,
            None => counts.push((v, 1)),
        }
    }
    counts.sort_by_key(|&(value, n)| (std::cmp::Reverse(n), value));
    counts.first().map_or(f64::NAN, |&(value, _)| value as f64)
}

/// Median of a run's last-decile steps over its first-decile steps.
fn drift(steps: &[f64]) -> Option<f64> {
    let d = (steps.len() / 10).max(1);
    if steps.len() < 2 * d {
        return None;
    }
    let (first, last) = (median(&steps[..d])?, median(&steps[steps.len() - d..])?);
    (first > 0.0).then(|| last / first)
}

pub fn traced_run<K: Kind>(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    allowed: Option<CpuSet>,
) -> Result<Traced, String> {
    let start = Instant::now();
    let mut checks = Samples::default();
    let warm = rep::<K>(spec, seed, false, &None);
    checks.absorb(spec, warm, true);
    let mut untraced = Samples::default();
    for i in 0..2 {
        let r = rep::<K>(spec, seed, i % 2 == 1, &None);
        untraced.absorb(spec, r, false);
    }

    // Traced repetitions for about a third of the run's seconds.
    let rec = Recorder::new();
    let mut traced = Samples::default();
    let mut runs: Vec<ResRun> = Vec::new();
    let mut next_run = 0u32;
    loop {
        let r = rep::<K>(
            spec,
            seed,
            next_run % 2 == 1,
            &Some((Arc::clone(&rec), next_run)),
        );
        next_run += spec.modes.len() as u32;
        runs.extend(traced.absorb(spec, r, false));
        if start.elapsed().as_secs_f64() > seconds / 3.0 {
            break;
        }
    }
    let run_spans = rec.spans();

    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let step_ms = med(&traced.step_ms);

    // Demoted end-to-end metrics. The absolute timings pool the untraced
    // and the traced repetitions: a span costs two clock reads per step.
    let pooled = |f: fn(&Samples) -> &Vec<f64>| {
        med(&[f(&untraced).as_slice(), f(&traced).as_slice()].concat())
    };
    m.push(("bench.run_s", pooled(|s| &s.run_s)));
    m.push(("bench.baseline_s", pooled(|s| &s.baseline_s)));
    m.push(("apps.step_ms", pooled(|s| &s.step_ms)));
    m.push(("core.app_store.ckpt_ms", pooled(|s| &s.ckpt_ms)));
    m.push(("core.framework.restore_ms", med(&traced.restore_ms)));
    m.push(("core.framework.restore_pct", med(&traced.restore_pct)));
    m.push(("core.app_store.ckpt_first_ms", med(&traced.ckpt_first_ms)));

    // Counts, read at the step boundaries.
    m.push((
        "apgas.finish.ctl_msgs_per_step",
        step_count(&run_spans, "ctl_msgs"),
    ));
    m.push((
        "apgas.finish.tasks_per_step",
        step_count(&run_spans, "tasks_spawned"),
    ));
    m.push((
        "apgas.runtime.bytes_shipped_per_step",
        step_count(&run_spans, "bytes_shipped"),
    ));
    m.push((
        "apgas.serial.encode_ms_per_step",
        med(&counter(full_group_steps(&run_spans), "serial_ns")) / 1e6,
    ));

    m.push((
        "apps.step_ms.tail",
        tail(&traced.step_ms).map_or(step_ms, |(_, v)| v),
    ));
    let drifts: Vec<f64> = runs
        .iter()
        .filter_map(|r| {
            let steps: Vec<f64> = r
                .rows
                .iter()
                .filter(|x| x.step > Duration::ZERO)
                .map(|x| ms(x.step))
                .collect();
            drift(&steps)
        })
        .collect();
    m.push(("apps.step_drift", med(&drifts)));
    m.push((
        "apps.make_ms",
        med(&runs.iter().map(|r| r.app_make_s * 1e3).collect::<Vec<_>>()),
    ));

    // Store write path, per steady checkpoint (each run's first excluded).
    let (mut capture, mut ship, mut wait, mut mbps) = (vec![], vec![], vec![], vec![]);
    for r in &runs {
        for row in r.rows.iter().filter(|x| x.checkpoint.is_some()).skip(1) {
            let (Some(ck), Some(cap)) = (row.checkpoint, row.capture) else {
                continue;
            };
            capture.push(ms(cap));
            wait.push(ms(ck.saturating_sub(cap)));
            if let Some(s) = row.ship {
                ship.push(ms(s));
            }
            if row.ckpt_logical > 0 && ck > Duration::ZERO {
                mbps.push(row.ckpt_logical as f64 / (1024.0 * 1024.0) / ck.as_secs_f64());
            }
        }
    }
    m.push(("core.app_store.capture_ms", med(&capture)));
    m.push(("core.app_store.ship_ms", med(&ship)));
    m.push(("core.app_store.settle_wait_ms", med(&wait)));
    m.push(("core.app_store.save_mbps", med(&mbps)));
    m.push((
        "core.app_store.make_ms",
        med(&runs
            .iter()
            .map(|r| r.store_make_s * 1e3)
            .collect::<Vec<_>>()),
    ));

    let per_run = |f: &dyn Fn(&ResRun) -> f64| med(&runs.iter().map(f).collect::<Vec<_>>());
    let ckpts = |r: &ResRun| r.stats.checkpoints.max(1) as f64;
    m.push((
        "core.codec.encode_ms_per_ckpt",
        per_run(&|r| r.codec.encode_nanos as f64 / 1e6 / ckpts(r)),
    ));
    m.push((
        "core.codec.logical_mb_per_ckpt",
        per_run(&|r| r.codec.logical_bytes as f64 / 1e6 / ckpts(r)),
    ));
    m.push((
        "core.codec.wire_ratio",
        per_run(&|r| r.codec.compression_ratio()),
    ));
    m.push((
        "core.codec.frames_delta_share",
        per_run(&|r| {
            let frames = r.codec.frames_full + r.codec.frames_delta;
            r.codec.frames_delta as f64 / frames.max(1) as f64
        }),
    ));
    m.push((
        "core.store.wire_mb_resident",
        per_run(&|r| r.wire_resident as f64 / 1e6),
    ));

    for (name, mode) in [
        ("core.framework.restore_ms.shrink", RestoreMode::Shrink),
        (
            "core.framework.restore_ms.shrink_rebalance",
            RestoreMode::ShrinkRebalance,
        ),
        (
            "core.framework.restore_ms.replace_redundant",
            RestoreMode::ReplaceRedundant,
        ),
    ] {
        m.push((name, med(&traced.restore_samples(mode))));
    }
    let reexecuted = per_run(&|r| r.stats.iterations_run.saturating_sub(spec.iterations) as f64);
    m.push(("core.framework.reexecuted_steps", reexecuted));
    m.push(("core.framework.rework_ms", reexecuted * step_ms));
    // The executor's own time: what `run_reported` spent outside the
    // step, checkpoint and restore calls it made.
    let selfs = self_times_ns(&run_spans);
    let shares: Vec<f64> = run_spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "run_reported" && s.duration_ns() > 0)
        .map(|(s, &own)| 100.0 * own as f64 / s.duration_ns() as f64)
        .collect();
    m.push(("core.framework.unattributed_pct", med(&shares)));

    let (traced_s, untraced_s) = (med(&traced.run_s), med(&untraced.run_s));
    if untraced_s > 0.0 {
        m.push((
            "bench.trace_overhead_pct",
            100.0 * (traced_s - untraced_s) / untraced_s,
        ));
    }
    m.push(("bench.traced_runs", runs.len() as f64));

    // Step replay: about 1.5 s of rounds.
    let rounds = if step_ms > 0.0 {
        (1500.0 / step_ms) as usize
    } else {
        0
    }
    .clamp(5, 400);
    let replay_id = rec.open("step_replay", "core", next_run, None);
    let ops = replay::replay::<K::Replay>(seed, rounds)?;
    rec.close(replay_id, vec![]);
    let replayed: f64 = ops.iter().map(|&(_, v)| v).sum();
    m.extend(ops);
    if step_ms > 0.0 {
        m.push((
            "apps.step.unattributed_pct",
            100.0 * (step_ms - replayed) / step_ms,
        ));
    }

    m.extend(probes::run_all(&rec, next_run + 1, seed, allowed)?);
    // Read last: the first kernel call fixes the pool's width for the
    // process, and that must be the workload's call, not this one.
    m.push(("apgas.pool.workers", apgas::pool::workers() as f64));

    for s in [untraced, traced] {
        checks.attempted += s.attempted;
        checks.failed += s.failed;
        checks.failures.extend(s.failures);
        checks.reps += s.reps;
    }
    Ok(Traced {
        samples: checks,
        metrics: m,
        spans: rec.spans(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_compares_last_decile_with_first() {
        let mut steps = vec![1.0; 100];
        steps[90..].iter_mut().for_each(|s| *s = 3.0);
        assert_eq!(drift(&steps), Some(3.0));
        assert_eq!(drift(&[2.0, 4.0]), Some(2.0));
        assert_eq!(drift(&[2.0]), None);
    }

    #[test]
    fn step_count_is_the_most_frequent_count_of_full_group_steps() {
        let span = |name, run, ok, ctl| Span {
            name,
            layer: "apps",
            run,
            parent: None,
            start_ns: 0,
            end_ns: 1,
            counters: vec![("ok", ok), ("ctl_msgs", ctl)],
        };
        // Run 0: two steps beside a ship (70, 71), two ordinary ones (62),
        // the step that met the kill (8, failed), the restore, then steps
        // on the shrunk group (53), which outnumber everything else.
        // Run 1 never restores.
        let spans = [
            span("step", 0, 1, 70),
            span("step", 0, 1, 62),
            span("checkpoint", 0, 1, 9),
            span("step", 0, 1, 71),
            span("step", 0, 1, 62),
            span("step", 0, 0, 8),
            span("restore", 0, 1, 30),
            span("step", 0, 1, 53),
            span("step", 0, 1, 53),
            span("step", 0, 1, 53),
            span("step", 0, 1, 53),
            span("step", 1, 1, 62),
            span("step", 1, 0, 8),
        ];
        assert_eq!(full_group_steps(&spans).len(), 5);
        assert_eq!(step_count(&spans, "ctl_msgs"), 62.0);
        assert!(step_count(&spans, "absent").is_nan());
        assert!(
            step_count(&spans[5..7], "ctl_msgs").is_nan(),
            "no full-group step"
        );
    }
}
