//! Online performance watchdog: EWMA-based iteration-time regression
//! detection and mailbox-backlog growth alarms.
//!
//! The [`critical_path`](crate::trace::critical_path) analyzer is a
//! post-hoc profiler; this module samples its per-iteration profiles *as
//! the executor produces them* and keeps just enough state to answer "is
//! this run degrading right now": an exponentially weighted moving average
//! of iteration wall time (flagging iterations slower than
//! `2 × EWMA` after a warm-up), and per-place mailbox-depth trend
//! tracking (flagging a place whose backlog grows for several consecutive
//! observations). Both alarm kinds raise
//! [`HealthBoard`](crate::monitor::HealthBoard) anomaly flags through the
//! runtime and surface as Prometheus families
//! (`gml_iter_critical_path_nanos`, `gml_straggler_ratio`,
//! `gml_watchdog_anomalies_total`).
//!
//! The tuning is fixed: an EWMA weight of 0.2, a regression threshold of
//! 2× the EWMA after a warm-up of 3 iterations, and a backlog alarm after
//! 3 consecutive rises of a mailbox at least 8 deep.
//!
//! With a nonzero `GML_MEM_BUDGET`, [`Watchdog::observe_memory`] samples
//! the live heap level once per executor iteration and raises a
//! `memory_pressure` anomaly when the level crosses 90% of the budget, or
//! when the EWMA'd per-iteration growth rate projects the budget being
//! crossed within the next 8 iterations.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::metrics::{Family, Kind, Value};
use crate::monitor::HealthSnapshot;
use crate::sync::Mutex;
use crate::trace::critical_path::IterProfile;

/// EWMA weight of the newest sample (iteration time and heap growth).
const ALPHA: f64 = 0.2;
/// An iteration slower than `FACTOR × EWMA` is a regression.
const FACTOR: f64 = 2.0;
/// Iterations observed before a regression can be flagged.
const WARMUP: u64 = 3;
/// Mailbox depth below which backlog growth is ignored.
const BACKLOG_MIN: u64 = 8;
/// Consecutive backlog rises that raise an alarm.
const BACKLOG_RUNS: u32 = 3;

/// Mutable trend state, behind one short-lived lock (the watchdog is
/// sampled once per executor iteration, not on the task hot path).
#[derive(Default)]
struct WatchState {
    /// EWMA of iteration wall time, nanoseconds. 0 until the first sample.
    ewma_nanos: f64,
    /// Iterations observed so far.
    observed: u64,
    /// Per-place `(last_depth, consecutive_growth_observations)`.
    backlog: Vec<(u64, u32)>,
    /// The most recent profile, for gauge rendering and report columns.
    last: Option<IterProfile>,
    /// Heap level at the previous memory observation, bytes.
    last_resident: u64,
    /// EWMA of per-observation heap growth, bytes (can be negative).
    mem_growth_ewma: f64,
    /// Memory observations so far.
    mem_observed: u64,
}

/// The watchdog proper. One per runtime, shared via `Arc`.
pub struct Watchdog {
    /// Process heap budget in bytes; 0 disables memory-pressure alarms.
    mem_budget: u64,
    state: Mutex<WatchState>,
    /// Iterations flagged as wall-time regressions.
    regressions: AtomicU64,
    /// Backlog-growth alarms raised (one per offending observation run).
    backlog_alarms: AtomicU64,
    /// Memory-pressure alarms raised.
    mem_alarms: AtomicU64,
}

/// A frozen view of the watchdog's verdicts, for end-of-run printing.
#[derive(Clone, Debug, Default)]
pub struct WatchdogReport {
    /// Iterations observed.
    pub observed: u64,
    /// Wall-time regression anomalies flagged.
    pub regressions: u64,
    /// Mailbox-backlog growth alarms raised.
    pub backlog_alarms: u64,
    /// Memory-pressure alarms raised.
    pub mem_alarms: u64,
    /// Current EWMA of iteration wall time, nanoseconds.
    pub ewma_nanos: u64,
    /// The last iteration profile observed, if any.
    pub last: Option<IterProfile>,
}

impl Watchdog {
    /// A watchdog with the given process heap budget in bytes (0 disables
    /// memory-pressure alarms).
    pub fn new(mem_budget: u64) -> Self {
        Watchdog {
            mem_budget,
            state: Mutex::new(WatchState::default()),
            regressions: AtomicU64::new(0),
            backlog_alarms: AtomicU64::new(0),
            mem_alarms: AtomicU64::new(0),
        }
    }

    /// Feed one iteration profile. Returns `true` when the iteration's wall
    /// time regressed past `FACTOR × EWMA` (after the warm-up period); the
    /// EWMA is updated either way, so a sustained slowdown re-baselines
    /// instead of alarming forever.
    pub fn observe_iteration(&self, profile: &IterProfile) -> bool {
        let wall = profile.wall_nanos as f64;
        let mut st = self.state.lock();
        let regressed =
            st.observed >= WARMUP && st.ewma_nanos > 0.0 && wall > FACTOR * st.ewma_nanos;
        st.ewma_nanos = if st.observed == 0 {
            wall
        } else {
            ALPHA * wall + (1.0 - ALPHA) * st.ewma_nanos
        };
        st.observed += 1;
        st.last = Some(*profile);
        drop(st);
        if regressed {
            self.regressions.fetch_add(1, Ordering::Relaxed);
        }
        regressed
    }

    /// Feed one round of per-place heartbeat snapshots. Returns the first
    /// place whose mailbox depth has now grown for `BACKLOG_RUNS`
    /// consecutive observations while at least `BACKLOG_MIN` deep —
    /// the signature of a dispatcher that stopped keeping up.
    pub fn observe_backlog(&self, snaps: &[HealthSnapshot]) -> Option<u32> {
        let mut st = self.state.lock();
        let max_place = snaps.iter().map(|s| s.place as usize + 1).max().unwrap_or(0);
        if st.backlog.len() < max_place {
            st.backlog.resize(max_place, (0, 0));
        }
        let mut flagged = None;
        for s in snaps {
            let slot = &mut st.backlog[s.place as usize];
            if s.mailbox_depth > slot.0 && s.mailbox_depth >= BACKLOG_MIN {
                slot.1 += 1;
            } else {
                slot.1 = 0;
            }
            slot.0 = s.mailbox_depth;
            if slot.1 >= BACKLOG_RUNS {
                slot.1 = 0; // re-arm: a persisting backlog alarms again later
                if flagged.is_none() {
                    flagged = Some(s.place);
                }
                self.backlog_alarms.fetch_add(1, Ordering::Relaxed);
            }
        }
        flagged
    }

    /// Feed one live-heap sample (bytes). Returns `true` when the sample
    /// signals memory pressure against the configured budget: the level
    /// crossed 90% of the budget, or the EWMA'd growth trend projects the
    /// budget being crossed within the next 8 observations. With no budget
    /// this returns at once, without taking the lock.
    pub fn observe_memory(&self, resident: u64) -> bool {
        if self.mem_budget == 0 {
            return false;
        }
        let mut st = self.state.lock();
        let growth = resident as f64 - st.last_resident as f64;
        st.mem_growth_ewma = if st.mem_observed == 0 {
            0.0 // the first sample has no predecessor: no growth signal yet
        } else {
            ALPHA * growth + (1.0 - ALPHA) * st.mem_growth_ewma
        };
        st.last_resident = resident;
        st.mem_observed += 1;
        let trend = st.mem_growth_ewma;
        drop(st);
        let budget = self.mem_budget as f64;
        let pressed =
            resident as f64 > 0.9 * budget || resident as f64 + 8.0 * trend.max(0.0) > budget;
        if pressed {
            self.mem_alarms.fetch_add(1, Ordering::Relaxed);
        }
        pressed
    }

    /// Freeze the watchdog's verdicts.
    pub fn report(&self) -> WatchdogReport {
        let st = self.state.lock();
        WatchdogReport {
            observed: st.observed,
            regressions: self.regressions.load(Ordering::Relaxed),
            backlog_alarms: self.backlog_alarms.load(Ordering::Relaxed),
            mem_alarms: self.mem_alarms.load(Ordering::Relaxed),
            ewma_nanos: st.ewma_nanos as u64,
            last: st.last,
        }
    }

    /// The watchdog's Prometheus families: last-iteration critical-path,
    /// straggler and EWMA gauges (once an iteration was observed) plus the
    /// cumulative anomaly counters by kind.
    pub fn families(&self) -> Vec<Family> {
        let r = self.report();
        let mut out = Vec::new();
        if let Some(last) = &r.last {
            for (name, help, v) in [
                (
                    "gml_iter_critical_path_nanos",
                    "Critical-path duration of the most recent executor iteration.",
                    Value::from(last.critical_path_nanos),
                ),
                (
                    "gml_straggler_ratio",
                    "Slowest/median per-place compute ratio of the most recent iteration.",
                    Value::from(last.straggler_ratio),
                ),
                ("gml_iter_wall_ewma_nanos", "EWMA of executor iteration wall time.", r.ewma_nanos.into()),
            ] {
                out.push(Family::new(Kind::Gauge, name, help).value(v));
            }
        }
        let anomalies = Family::new(
            Kind::Counter,
            "gml_watchdog_anomalies_total",
            "Anomalies flagged by the performance watchdog, by kind.",
        );
        out.push(
            anomalies
                .labelled("kind", "iter_regression", r.regressions)
                .labelled("kind", "backlog_growth", r.backlog_alarms)
                .labelled("kind", "memory_pressure", r.mem_alarms),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(iteration: u64, wall: u64) -> IterProfile {
        IterProfile {
            iteration,
            wall_nanos: wall,
            critical_path_nanos: wall / 2,
            compute_nanos: wall / 3,
            ship_nanos: wall / 10,
            ctl_nanos: 0,
            idle_nanos: wall / 2,
            dominant_place: 1,
            straggler_ratio: 1.5,
            complete: true,
        }
    }

    #[test]
    fn steady_iterations_never_flag() {
        let w = Watchdog::new(0);
        for i in 0..20 {
            assert!(!w.observe_iteration(&profile(i, 1_000_000 + i * 1_000)));
        }
        let r = w.report();
        assert_eq!(r.observed, 20);
        assert_eq!(r.regressions, 0);
        assert!(r.ewma_nanos >= 1_000_000);
    }

    #[test]
    fn regression_flags_after_warmup_and_rebaselines() {
        let w = Watchdog::new(0);
        // A huge first iteration during warm-up must not flag.
        assert!(!w.observe_iteration(&profile(0, 50_000_000)));
        let w = Watchdog::new(0);
        for i in 0..5 {
            assert!(!w.observe_iteration(&profile(i, 1_000_000)));
        }
        // 10× the steady state: flagged.
        assert!(w.observe_iteration(&profile(5, 10_000_000)));
        assert_eq!(w.report().regressions, 1);
        // The EWMA absorbed the spike, so the next normal iteration is fine.
        assert!(!w.observe_iteration(&profile(6, 1_000_000)));
    }

    #[test]
    fn backlog_growth_alarms_after_consecutive_runs() {
        let w = Watchdog::new(0);
        let snap = |place, depth| HealthSnapshot {
            place,
            up: true,
            mailbox_depth: depth,
            dispatched: 0,
            completed: 0,
            anomalous: false,
            last_activity_age_nanos: 0,
        };
        // Shallow growth below the floor: ignored.
        for d in 1..6 {
            assert_eq!(w.observe_backlog(&[snap(0, d), snap(1, 0)]), None);
        }
        // Deep, sustained growth on place 1: third consecutive rise alarms.
        assert_eq!(w.observe_backlog(&[snap(0, 0), snap(1, 10)]), None);
        assert_eq!(w.observe_backlog(&[snap(0, 0), snap(1, 20)]), None);
        assert_eq!(w.observe_backlog(&[snap(0, 0), snap(1, 30)]), Some(1));
        assert_eq!(w.report().backlog_alarms, 1);
        // Draining resets the trend.
        assert_eq!(w.observe_backlog(&[snap(0, 0), snap(1, 5)]), None);
    }

    #[test]
    fn render_emits_gauges_and_counters() {
        let w = Watchdog::new(0);
        w.observe_iteration(&profile(0, 2_000_000));
        let out = crate::metrics::exposition(&w.families());
        assert!(out.contains("gml_iter_critical_path_nanos 1000000"));
        assert!(out.contains("gml_straggler_ratio 1.500000\n"));
        assert!(out.contains("gml_watchdog_anomalies_total{kind=\"iter_regression\"} 0"));
        assert!(out.contains("gml_watchdog_anomalies_total{kind=\"backlog_growth\"} 0"));
        assert!(out.contains("gml_watchdog_anomalies_total{kind=\"memory_pressure\"} 0"));
    }

    #[test]
    fn no_budget_never_raises_memory_pressure() {
        let w = Watchdog::new(0);
        for level in [1u64 << 30, 2 << 30, 3 << 30] {
            assert!(!w.observe_memory(level));
        }
        assert_eq!(w.report().mem_alarms, 0);
    }

    #[test]
    fn budget_fraction_threshold_alarms() {
        let w = Watchdog::new(1000);
        assert!(!w.observe_memory(100));
        assert!(!w.observe_memory(120)); // gentle growth, far from the wall
        assert!(w.observe_memory(950), "past 90% of budget must alarm");
        assert!(w.report().mem_alarms >= 1);
    }

    #[test]
    fn growth_trend_projection_alarms_before_the_wall() {
        let w = Watchdog::new(1_000_000);
        // Steady level far below budget: no alarm.
        assert!(!w.observe_memory(100_000));
        assert!(!w.observe_memory(100_000));
        // Sustained +100k/iteration growth: the 8-step projection crosses
        // the budget while the level itself is still under two thirds of it.
        let mut alarmed = false;
        for step in 1..=5u64 {
            alarmed |= w.observe_memory(100_000 + step * 100_000);
        }
        assert!(alarmed, "growth trend must project over the budget");
        // Shrinking levels (negative trend) with plenty of headroom: quiet.
        let w2 = Watchdog::new(1_000_000);
        assert!(!w2.observe_memory(500_000));
        assert!(!w2.observe_memory(400_000));
        assert!(!w2.observe_memory(300_000));
        assert_eq!(w2.report().mem_alarms, 0);
    }
}
