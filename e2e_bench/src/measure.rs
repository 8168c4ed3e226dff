//! The repetition protocol and the samples it yields.

use std::time::{Duration, Instant};

use gml_core::RestoreMode;

use crate::workloads::{baseline_arm, check, resilient_arm, BaseRun, Kind, ResRun, Spec, Trace};

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Every timing sample of one process, grouped by the metric it feeds.
/// Failed runs contribute to `attempted`/`failed` and to nothing else.
#[derive(Default)]
pub struct Samples {
    /// One per resilient run.
    pub setup_s: Vec<f64>,
    /// One per repetition: mean over the repetition's resilient runs.
    pub run_s: Vec<f64>,
    /// One per repetition.
    pub baseline_s: Vec<f64>,
    /// One per executed step of every resilient run.
    pub step_ms: Vec<f64>,
    /// One per checkpoint, each run's first excluded.
    pub ckpt_ms: Vec<f64>,
    /// One per run: its first checkpoint, which carries the read-only inputs.
    pub ckpt_first_ms: Vec<f64>,
    /// One per run: 100 · Σcheckpoint / run.
    pub ckpt_pct: Vec<f64>,
    /// One per repetition with restores: mean of its runs' `RestoreCost.time`.
    pub restore_ms: Vec<f64>,
    /// One per run with a restore: 100 · Σrestore / run.
    pub restore_pct: Vec<f64>,
    /// `RestoreCost.time` by effective label.
    pub restore_by_label: Vec<(&'static str, f64)>,
    /// Checked resilient runs, and how many errored or failed their check.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Timed repetitions that contributed samples.
    pub reps: u64,
    /// `VmHWM` after the warm-up's first resilient run, which is the first
    /// thing a fresh process does: the footprint of one resilient run.
    /// (The allocator keeps what a run freed, so the high-water mark at
    /// exit grows with the repetition count, and a faster library would
    /// read as a bigger one.)
    pub peak_rss_mb: Option<f64>,
}

fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?;
    Some(kb.parse::<f64>().ok()? / 1024.0)
}

/// One repetition: the baseline arm and each of the workload's resilient
/// runs, in the order `resilient_first` says.
pub struct Rep {
    pub base: Result<BaseRun, String>,
    pub runs: Vec<Result<ResRun, String>>,
    /// `VmHWM` right after the first resilient run.
    pub rss_mb: Option<f64>,
}

pub fn rep<K: Kind>(spec: &Spec, seed: u64, resilient_first: bool, trace: &Trace) -> Rep {
    let mut rss_mb = None;
    let mut resilient = || -> Vec<Result<ResRun, String>> {
        spec.modes
            .iter()
            .enumerate()
            .map(|(i, &mode)| {
                let trace = trace
                    .as_ref()
                    .map(|(rec, run)| (rec.clone(), run + i as u32));
                let run = resilient_arm::<K>(spec, mode, seed, trace);
                if i == 0 {
                    rss_mb = vm_hwm_mb();
                }
                run
            })
            .collect()
    };
    let (base, runs) = if resilient_first {
        let runs = resilient();
        (baseline_arm::<K>(spec, seed), runs)
    } else {
        let base = baseline_arm::<K>(spec, seed);
        (base, resilient())
    };
    Rep { base, runs, rss_mb }
}

impl Samples {
    /// Check a repetition's results and, unless `discard` (the warm-up),
    /// take its timings. Returns the runs that passed, for the caller's own
    /// per-layer accounting.
    pub fn absorb(&mut self, spec: &Spec, rep: Rep, discard: bool) -> Vec<ResRun> {
        self.attempted += rep.runs.len() as u64;
        let base = match rep.base {
            Ok(b) => b,
            Err(e) => {
                // Nothing to check the resilient runs against.
                self.failed += rep.runs.len() as u64;
                self.failures.push(e);
                return Vec::new();
            }
        };
        let mut good = Vec::new();
        for (run, &mode) in rep.runs.into_iter().zip(spec.modes) {
            let verdict = match &run {
                Ok(r) => check(spec, mode, &base, r),
                Err(e) => Some(e.clone()),
            };
            match (verdict, run) {
                (None, Ok(r)) => good.push(r),
                (Some(why), _) => {
                    self.failed += 1;
                    self.failures
                        .push(format!("{} [{}]: {why}", spec.name, mode.mode.label()));
                }
                (None, Err(_)) => unreachable!("an errored run always has a verdict"),
            }
        }
        if discard || good.len() != spec.modes.len() {
            // A repetition with a failed run is missing a timing; its other
            // runs' timings would make the repetition look cheaper than it is.
            return good;
        }
        self.reps += 1;
        self.baseline_s.push(base.wall_s);
        self.run_s
            .push(good.iter().map(|r| r.run_s).sum::<f64>() / good.len() as f64);
        let mut restores = Vec::new();
        for r in &good {
            self.setup_s.push(r.setup_s);
            self.ckpt_pct
                .push(100.0 * r.stats.checkpoint_time.as_secs_f64() / r.run_s);
            let mut first = true;
            for row in &r.rows {
                if row.step > Duration::ZERO {
                    self.step_ms.push(ms(row.step));
                }
                if let Some(c) = row.checkpoint {
                    if std::mem::take(&mut first) {
                        self.ckpt_first_ms.push(ms(c));
                    } else {
                        self.ckpt_ms.push(ms(c));
                    }
                }
                if let Some(cost) = row.restore {
                    restores.push(ms(cost.time));
                    self.restore_by_label.push((cost.label, ms(cost.time)));
                }
            }
            if r.stats.restores > 0 {
                self.restore_pct
                    .push(100.0 * r.stats.restore_time.as_secs_f64() / r.run_s);
            }
        }
        if !restores.is_empty() {
            self.restore_ms
                .push(restores.iter().sum::<f64>() / restores.len() as f64);
        }
        good
    }

    pub fn restore_samples(&self, mode: RestoreMode) -> Vec<f64> {
        self.restore_by_label
            .iter()
            .filter(|(l, _)| *l == mode.label())
            .map(|&(_, t)| t)
            .collect()
    }
}

/// One discarded warm-up repetition, then timed repetitions, alternating
/// which arm goes first, until another one would not fit into `seconds`
/// (and at least two, so that either arm has gone first once).
pub fn timed_reps<K: Kind>(spec: &Spec, seed: u64, seconds: f64) -> Samples {
    let mut samples = Samples::default();
    let warm = rep::<K>(spec, seed, true, &None);
    samples.peak_rss_mb = warm.rss_mb;
    samples.absorb(spec, warm, true);
    let start = Instant::now();
    let mut n = 0u64;
    loop {
        let t = Instant::now();
        let r = rep::<K>(spec, seed, n % 2 == 1, &None);
        samples.absorb(spec, r, false);
        n += 1;
        let last = t.elapsed().as_secs_f64();
        if n >= 2 && start.elapsed().as_secs_f64() + last > seconds {
            return samples;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{LinRegKind, LogRegKind, LINREG_RESTORE, LOGREG_CTL};

    #[test]
    fn a_no_failure_repetition_checks_out_and_yields_every_sample() {
        let spec = LOGREG_CTL.quick();
        let mut s = Samples::default();
        let runs = s.absorb(&spec, rep::<LogRegKind>(&spec, 3, true, &None), false);
        assert_eq!(
            (s.attempted, s.failed, s.reps),
            (1, 0, 1),
            "{:?}",
            s.failures
        );
        assert_eq!(runs.len(), 1);
        assert_eq!(s.step_ms.len() as u64, spec.iterations);
        assert_eq!(s.ckpt_first_ms.len(), 1);
        assert_eq!(
            s.ckpt_ms.len() as u64,
            spec.iterations / spec.ckpt_interval - 1
        );
        assert!(s.restore_ms.is_empty() && s.restore_pct.is_empty());
        assert!(s.run_s[0] > 0.0 && s.baseline_s[0] > 0.0 && s.setup_s[0] > 0.0);
    }

    #[test]
    fn a_failure_repetition_restores_once_per_mode_and_a_discarded_one_leaves_no_timing() {
        let spec = LINREG_RESTORE.quick();
        let mut s = Samples::default();
        s.absorb(&spec, rep::<LinRegKind>(&spec, 3, false, &None), true);
        assert_eq!(
            (s.attempted, s.failed, s.reps),
            (3, 0, 0),
            "{:?}",
            s.failures
        );
        assert!(s.run_s.is_empty(), "the warm-up is checked but not timed");
        let runs = s.absorb(&spec, rep::<LinRegKind>(&spec, 3, true, &None), false);
        assert_eq!(
            (s.attempted, s.failed, s.reps),
            (6, 0, 1),
            "{:?}",
            s.failures
        );
        assert_eq!(s.restore_by_label.len(), 3);
        for mode in spec.modes {
            assert_eq!(
                s.restore_samples(mode.mode).len(),
                1,
                "{}",
                mode.mode.label()
            );
        }
        assert_eq!(
            (s.restore_ms.len(), s.restore_pct.len(), s.setup_s.len()),
            (1, 3, 3)
        );
        // Killed at 3, rolled back to the checkpoint at 2: one step re-runs.
        assert!(runs
            .iter()
            .all(|r| r.stats.iterations_run == spec.iterations + 1));
    }

    #[test]
    fn a_failed_baseline_fails_every_run_of_the_repetition() {
        let spec = LINREG_RESTORE;
        let mut s = Samples::default();
        let rep = Rep {
            base: Err("boom".into()),
            runs: (0..3).map(|_| Err("x".into())).collect(),
            rss_mb: None,
        };
        assert!(s.absorb(&spec, rep, false).is_empty());
        assert_eq!((s.attempted, s.failed, s.reps), (3, 3, 0));
        assert!(s.run_s.is_empty() && s.baseline_s.is_empty());
    }
}
