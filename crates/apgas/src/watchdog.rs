//! Online performance watchdog: EWMA-based iteration-time regression
//! detection and mailbox-backlog growth alarms.
//!
//! The [`critical_path`](crate::trace::critical_path) analyzer is a
//! post-hoc profiler; this module samples its per-iteration profiles *as
//! the executor produces them* and keeps just enough state to answer "is
//! this run degrading right now": an exponentially weighted moving average
//! of iteration wall time (flagging iterations slower than
//! `factor × EWMA` after a warm-up), and per-place mailbox-depth trend
//! tracking (flagging a place whose backlog grows for several consecutive
//! observations). Both alarm kinds raise
//! [`HealthBoard`](crate::monitor::HealthBoard) anomaly flags through the
//! runtime and surface as Prometheus families
//! (`gml_iter_critical_path_nanos`, `gml_straggler_ratio`,
//! `gml_watchdog_anomalies_total`).
//!
//! Tuning knobs (all parsed loudly via
//! [`env_parsed`](crate::monitor::env_parsed)):
//!
//! | variable | default | meaning |
//! |---|---|---|
//! | `GML_WATCHDOG_ALPHA` | `0.2` | EWMA smoothing factor |
//! | `GML_WATCHDOG_FACTOR` | `2.0` | regression threshold multiplier |
//! | `GML_WATCHDOG_WARMUP` | `3` | iterations observed before flagging |
//! | `GML_WATCHDOG_BACKLOG_MIN` | `8` | mailbox depth below which growth is ignored |
//! | `GML_WATCHDOG_BACKLOG_RUNS` | `3` | consecutive growth observations before an alarm |
//! | `GML_MEM_BUDGET` | `0` (off) | process heap budget in bytes for memory-pressure alarms |
//!
//! With a nonzero `GML_MEM_BUDGET`, [`Watchdog::observe_memory`] samples
//! the live heap level once per executor iteration and raises a
//! `memory_pressure` anomaly when the level crosses 90% of the budget, or
//! when the EWMA'd per-iteration growth rate projects the budget being
//! crossed within the next 8 iterations.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::monitor::{env_parsed, HealthSnapshot};
use crate::sync::Mutex;
use crate::trace::critical_path::IterProfile;

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
    alpha: f64,
    factor: f64,
    warmup: u64,
    backlog_min: u64,
    backlog_runs: u32,
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

impl Default for Watchdog {
    fn default() -> Self {
        Self::from_env()
    }
}

impl Watchdog {
    /// Build a watchdog with explicit tuning (tests, simulations).
    pub fn new(alpha: f64, factor: f64, warmup: u64) -> Self {
        Watchdog {
            alpha: alpha.clamp(0.01, 1.0),
            factor: factor.max(1.0),
            warmup,
            backlog_min: 8,
            backlog_runs: 3,
            mem_budget: 0,
            state: Mutex::new(WatchState::default()),
            regressions: AtomicU64::new(0),
            backlog_alarms: AtomicU64::new(0),
            mem_alarms: AtomicU64::new(0),
        }
    }

    /// Set the process heap budget in bytes (0 disables memory-pressure
    /// alarms). Builder-style, for tests and simulations.
    pub fn with_mem_budget(mut self, budget: u64) -> Self {
        self.mem_budget = budget;
        self
    }

    /// Build a watchdog from the `GML_WATCHDOG_*` environment knobs. The
    /// float knobs go through the validated parse: `f64::from_str` accepts
    /// `nan`/`inf`/out-of-range values that [`Watchdog::new`]'s clamps would
    /// otherwise swallow silently (and `NaN.clamp(..)` stays NaN, poisoning
    /// the EWMA forever).
    pub fn from_env() -> Self {
        let mut w = Watchdog::new(
            crate::monitor::env_parsed_float("GML_WATCHDOG_ALPHA", 0.2, 0.01, 1.0),
            crate::monitor::env_parsed_float("GML_WATCHDOG_FACTOR", 2.0, 1.0, 1e6),
            env_parsed("GML_WATCHDOG_WARMUP", 3u64),
        );
        w.backlog_min = env_parsed("GML_WATCHDOG_BACKLOG_MIN", 8u64);
        w.backlog_runs = env_parsed("GML_WATCHDOG_BACKLOG_RUNS", 3u32);
        w.mem_budget = env_parsed("GML_MEM_BUDGET", 0u64);
        w
    }

    /// Feed one iteration profile. Returns `true` when the iteration's wall
    /// time regressed past `factor × EWMA` (after the warm-up period); the
    /// EWMA is updated either way, so a sustained slowdown re-baselines
    /// instead of alarming forever.
    pub fn observe_iteration(&self, profile: &IterProfile) -> bool {
        let wall = profile.wall_nanos as f64;
        let mut st = self.state.lock();
        let regressed = st.observed >= self.warmup
            && st.ewma_nanos > 0.0
            && wall > self.factor * st.ewma_nanos;
        st.ewma_nanos = if st.observed == 0 {
            wall
        } else {
            self.alpha * wall + (1.0 - self.alpha) * st.ewma_nanos
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
    /// place whose mailbox depth has now grown for `backlog_runs`
    /// consecutive observations while at least `backlog_min` deep —
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
            if s.mailbox_depth > slot.0 && s.mailbox_depth >= self.backlog_min {
                slot.1 += 1;
            } else {
                slot.1 = 0;
            }
            slot.0 = s.mailbox_depth;
            if slot.1 >= self.backlog_runs {
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
    /// (`mem_budget == 0`) this never alarms; the growth EWMA is still
    /// maintained so enabling a budget mid-run has a warm baseline.
    pub fn observe_memory(&self, resident: u64) -> bool {
        let mut st = self.state.lock();
        let growth = resident as f64 - st.last_resident as f64;
        st.mem_growth_ewma = if st.mem_observed == 0 {
            0.0 // the first sample has no predecessor: no growth signal yet
        } else {
            self.alpha * growth + (1.0 - self.alpha) * st.mem_growth_ewma
        };
        st.last_resident = resident;
        st.mem_observed += 1;
        let trend = st.mem_growth_ewma;
        drop(st);
        if self.mem_budget == 0 {
            return false;
        }
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

    /// Render the watchdog's Prometheus families: last-iteration
    /// critical-path and straggler gauges plus cumulative anomaly counters.
    pub fn render(&self, out: &mut String) {
        let r = self.report();
        let push_family = |out: &mut String, name: &str, kind: &str, help: &str| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        };
        if let Some(last) = &r.last {
            push_family(
                out,
                "gml_iter_critical_path_nanos",
                "gauge",
                "Critical-path duration of the most recent executor iteration.",
            );
            out.push_str(&format!("gml_iter_critical_path_nanos {}\n", last.critical_path_nanos));
            push_family(
                out,
                "gml_straggler_ratio",
                "gauge",
                "Slowest/median per-place compute ratio of the most recent iteration.",
            );
            out.push_str(&format!("gml_straggler_ratio {:.4}\n", last.straggler_ratio));
            push_family(
                out,
                "gml_iter_wall_ewma_nanos",
                "gauge",
                "EWMA of executor iteration wall time.",
            );
            out.push_str(&format!("gml_iter_wall_ewma_nanos {}\n", r.ewma_nanos));
        }
        push_family(
            out,
            "gml_watchdog_anomalies_total",
            "counter",
            "Anomalies flagged by the performance watchdog, by kind.",
        );
        out.push_str(&format!(
            "gml_watchdog_anomalies_total{{kind=\"iter_regression\"}} {}\n",
            r.regressions
        ));
        out.push_str(&format!(
            "gml_watchdog_anomalies_total{{kind=\"backlog_growth\"}} {}\n",
            r.backlog_alarms
        ));
        out.push_str(&format!(
            "gml_watchdog_anomalies_total{{kind=\"memory_pressure\"}} {}\n",
            r.mem_alarms
        ));
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
        let w = Watchdog::new(0.2, 2.0, 3);
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
        let w = Watchdog::new(0.2, 2.0, 3);
        // A huge first iteration during warm-up must not flag.
        assert!(!w.observe_iteration(&profile(0, 50_000_000)));
        let w = Watchdog::new(0.2, 2.0, 3);
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
        let w = Watchdog::new(0.2, 2.0, 3);
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
        let w = Watchdog::new(0.2, 2.0, 0);
        w.observe_iteration(&profile(0, 2_000_000));
        let mut out = String::new();
        w.render(&mut out);
        assert!(out.contains("gml_iter_critical_path_nanos 1000000"));
        assert!(out.contains("gml_straggler_ratio 1.5000"));
        assert!(out.contains("gml_watchdog_anomalies_total{kind=\"iter_regression\"} 0"));
        assert!(out.contains("gml_watchdog_anomalies_total{kind=\"backlog_growth\"} 0"));
        assert!(out.contains("gml_watchdog_anomalies_total{kind=\"memory_pressure\"} 0"));
    }

    #[test]
    fn from_env_rejects_poisonous_float_knobs() {
        // "nan" and "inf" PARSE as f64, and NaN survives Watchdog::new's
        // clamp — the EWMA would be poisoned forever. from_env must route
        // through the validated float parse and fall back to the defaults.
        // Unique values are restored immediately; concurrent from_env
        // callers would at worst see the (default-equal) fallback.
        std::env::set_var("GML_WATCHDOG_ALPHA", "nan");
        std::env::set_var("GML_WATCHDOG_FACTOR", "inf");
        let w = Watchdog::from_env();
        std::env::remove_var("GML_WATCHDOG_ALPHA");
        std::env::remove_var("GML_WATCHDOG_FACTOR");
        assert_eq!(w.alpha, 0.2, "nan alpha must fall back to the default");
        assert_eq!(w.factor, 2.0, "inf factor must fall back to the default");
        // The EWMA stays healthy: iterations are observed and flagged
        // normally instead of vanishing into NaN comparisons.
        for i in 0..5 {
            assert!(!w.observe_iteration(&profile(i, 1_000_000)));
        }
        assert!(w.observe_iteration(&profile(5, 10_000_000)));
    }

    #[test]
    fn no_budget_never_raises_memory_pressure() {
        let w = Watchdog::new(0.2, 2.0, 3);
        for level in [1u64 << 30, 2 << 30, 3 << 30] {
            assert!(!w.observe_memory(level));
        }
        assert_eq!(w.report().mem_alarms, 0);
    }

    #[test]
    fn budget_fraction_threshold_alarms() {
        let w = Watchdog::new(0.2, 2.0, 3).with_mem_budget(1000);
        assert!(!w.observe_memory(100));
        assert!(!w.observe_memory(120)); // gentle growth, far from the wall
        assert!(w.observe_memory(950), "past 90% of budget must alarm");
        assert!(w.report().mem_alarms >= 1);
    }

    #[test]
    fn growth_trend_projection_alarms_before_the_wall() {
        let w = Watchdog::new(0.5, 2.0, 3).with_mem_budget(1_000_000);
        // Steady level far below budget: no alarm.
        assert!(!w.observe_memory(100_000));
        assert!(!w.observe_memory(100_000));
        // Sustained +100k/iteration growth: the 8-step projection crosses
        // the budget while the level itself is still under half of it.
        let mut alarmed = false;
        for step in 1..=4u64 {
            alarmed |= w.observe_memory(100_000 + step * 100_000);
        }
        assert!(alarmed, "growth trend must project over the budget");
        // Shrinking levels (negative trend) with plenty of headroom: quiet.
        let w2 = Watchdog::new(0.5, 2.0, 3).with_mem_budget(1_000_000);
        assert!(!w2.observe_memory(500_000));
        assert!(!w2.observe_memory(400_000));
        assert!(!w2.observe_memory(300_000));
        assert_eq!(w2.report().mem_alarms, 0);
    }
}
