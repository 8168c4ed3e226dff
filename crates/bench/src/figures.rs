//! One function per paper table/figure; the `src/bin/*` harnesses are thin
//! wrappers over these so `cargo bench` can also drive quick versions.

use gml_core::RestoreMode;

use crate::harness::{checkpoint_time, restore_total_time, time_per_iteration};
use crate::table::{ms, pct, secs, Table};
use crate::workloads::{bench_iters, bench_places, bench_runs, AppKind};

/// Figs 2–4: time per iteration under non-resilient vs resilient runtimes,
/// weak scaling over the place sweep.
pub fn overhead_figure(kind: AppKind, fig: &str) {
    let places = bench_places();
    let runs = bench_runs();
    let iters = bench_iters();
    let mut t = Table::new(
        format!(
            "{fig}: {} time per iteration (ms), {iters} iters x {runs} runs, weak scaling",
            kind.name()
        ),
        &[
            "places",
            "non-res med",
            "non-res min",
            "non-res max",
            "res med",
            "res min",
            "res max",
            "overhead ms",
            "overhead %",
        ],
    );
    for &p in &places {
        let nr = time_per_iteration(kind, p, false, iters, runs);
        let re = time_per_iteration(kind, p, true, iters, runs);
        let overhead_ms = re.median_ms - nr.median_ms;
        let overhead = 100.0 * overhead_ms / nr.median_ms.max(1e-9);
        t.row(vec![
            p.to_string(),
            ms(nr.median_ms),
            ms(nr.min_ms),
            ms(nr.max_ms),
            ms(re.median_ms),
            ms(re.min_ms),
            ms(re.max_ms),
            ms(overhead_ms.max(0.0)),
            pct(overhead),
        ]);
        eprintln!("  [{fig}] places={p} done");
    }
    t.emit(&format!("{}_{}.csv", fig.to_lowercase(), kind.name().to_lowercase()));
}

/// Table III: mean time per checkpoint for the three applications over the
/// place sweep (checkpoint every 10 iterations, as in the paper).
pub fn checkpoint_table() {
    let places = bench_places();
    let runs = bench_runs();
    let iters = bench_iters();
    let interval = 10;
    let mut t = Table::new(
        format!("Table III: mean checkpoint time (ms), interval {interval}, {iters} iters"),
        &["places", "LinReg", "LogReg", "PageRank"],
    );
    for &p in &places {
        let mut row = vec![p.to_string()];
        for kind in AppKind::ALL {
            row.push(ms(checkpoint_time(kind, p, iters, interval, runs)));
        }
        t.row(row);
        eprintln!("  [Table III] places={p} done");
    }
    t.emit("table3_checkpoint.csv");
}

/// Figs 5–7: total runtime with a single failure at iteration 15 under each
/// restoration mode, against the non-resilient no-failure baseline.
pub fn restore_figure(kind: AppKind, fig: &str) {
    let places = bench_places();
    let iters = bench_iters();
    let interval = 10;
    let kill_at = 15.min(iters.saturating_sub(1));
    let mut t = Table::new(
        format!(
            "{fig}: {} total runtime (s), {iters} iters, checkpoint every {interval}, \
             one failure at iter {kill_at}",
            kind.name()
        ),
        &["places", "shrink-rebalance", "shrink", "replace-redundant", "non-resilient"],
    );
    for &p in &places {
        let sr = restore_total_time(kind, p, Some(RestoreMode::ShrinkRebalance), iters, interval, kill_at);
        let sh = restore_total_time(kind, p, Some(RestoreMode::Shrink), iters, interval, kill_at);
        let rr = restore_total_time(kind, p, Some(RestoreMode::ReplaceRedundant), iters, interval, kill_at);
        let nr = restore_total_time(kind, p, None, iters, interval, kill_at);
        t.row(vec![
            p.to_string(),
            secs(sr.total_s),
            secs(sh.total_s),
            secs(rr.total_s),
            secs(nr.total_s),
        ]);
        eprintln!("  [{fig}] places={p} done");
    }
    t.emit(&format!("{}_{}_restore.csv", fig.to_lowercase(), kind.name().to_lowercase()));
}

/// Table IV: percentage of total time in checkpoint (C%) and restore (R%)
/// at the largest place count, per application and mode.
pub fn breakdown_table() {
    let places = *bench_places().last().expect("non-empty sweep");
    let iters = bench_iters();
    let interval = 10;
    let kill_at = 15.min(iters.saturating_sub(1));
    let mut t = Table::new(
        format!("Table IV: % of total time in checkpoint (C%) / restore (R%) at {places} places"),
        &["app", "shrink C%", "shrink R%", "rebal C%", "rebal R%", "replace C%", "replace R%"],
    );
    for kind in AppKind::ALL {
        let sh = restore_total_time(kind, places, Some(RestoreMode::Shrink), iters, interval, kill_at);
        let sr = restore_total_time(kind, places, Some(RestoreMode::ShrinkRebalance), iters, interval, kill_at);
        let rr = restore_total_time(kind, places, Some(RestoreMode::ReplaceRedundant), iters, interval, kill_at);
        t.row(vec![
            kind.name().to_string(),
            pct(sh.checkpoint_pct),
            pct(sh.restore_pct),
            pct(sr.checkpoint_pct),
            pct(sr.restore_pct),
            pct(rr.checkpoint_pct),
            pct(rr.restore_pct),
        ]);
        eprintln!("  [Table IV] {} done", kind.name());
    }
    t.emit("table4_breakdown.csv");
}

/// Ablation A (design-choice study): runtime activity per iteration — the
/// mechanistic explanation of Figs 2–4. The regressions issue several times
/// more place-zero bookkeeping messages per unit of compute than PageRank,
/// which is exactly why resilient finish costs them more.
pub fn bookkeeping_ablation() {
    let places = *bench_places().last().expect("non-empty sweep");
    let iters = bench_iters().min(10);
    let mut t = Table::new(
        format!("Ablation A: resilient-runtime activity per iteration at {places} places"),
        &["app", "ctl msgs/iter", "tasks/iter", "KiB shipped/iter", "ms/iter", "ctl msgs per ms"],
    );
    for kind in AppKind::ALL {
        let p = crate::harness::iteration_profile(kind, places, iters);
        t.row(vec![
            kind.name().to_string(),
            format!("{:.0}", p.ctl_per_iter),
            format!("{:.0}", p.tasks_per_iter),
            format!("{:.1}", p.bytes_per_iter / 1024.0),
            ms(p.ms_per_iter),
            format!("{:.0}", p.ctl_per_iter / p.ms_per_iter.max(1e-9)),
        ]);
    }
    t.emit("ablation_bookkeeping.csv");
}

/// Count the non-blank, non-comment lines of a marked region. Marker lines
/// themselves are excluded.
fn region_loc(source: &str, marker: &str) -> usize {
    let begin = format!("TABLE2 {marker} BEGIN");
    let end = format!("TABLE2 {marker} END");
    let mut counting = false;
    let mut count = 0;
    for line in source.lines() {
        if line.contains(&begin) {
            counting = true;
            continue;
        }
        if line.contains(&end) {
            counting = false;
            continue;
        }
        if counting {
            let t = line.trim();
            if !t.is_empty() && !t.starts_with("//") {
                count += 1;
            }
        }
    }
    count
}

/// Table II: lines-of-code comparison, counted from the real application
/// sources (the same methodology as the paper: totals plus the checkpoint
/// and restore methods). An app's checkpoint and restore are derived from
/// its `state()` declaration, so the checkpoint column counts `state()` and
/// the restore column `after_restore`, 0 for an app that has none.
pub fn loc_table() {
    let sources: [(&str, &str); 4] = [
        ("LinReg", include_str!("../../apps/src/linreg.rs")),
        ("LogReg", include_str!("../../apps/src/logreg.rs")),
        ("PageRank", include_str!("../../apps/src/pagerank.rs")),
        // Not in the paper's Table II; included as the extension benchmark.
        ("GNMF (ext)", include_str!("../../apps/src/gnmf.rs")),
    ];
    let mut t = Table::new(
        "Table II: lines of code, non-resilient vs resilient",
        &["app", "non-resilient total", "resilient total", "checkpoint (state)", "restore (after_restore)"],
    );
    for (name, src) in sources {
        let nonres = region_loc(src, "NONRESILIENT");
        let res_extra = region_loc(src, "RESILIENT");
        let ckpt = region_loc(src, "CHECKPOINT");
        let rest = region_loc(src, "RESTORE");
        t.row(vec![
            name.to_string(),
            nonres.to_string(),
            (nonres + res_extra).to_string(),
            ckpt.to_string(),
            rest.to_string(),
        ]);
    }
    t.emit("table2_loc.csv");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_counting() {
        let src = "\
// ===== TABLE2 CHECKPOINT BEGIN =====
fn checkpoint() {
    // a comment

    body();
}
// ===== TABLE2 CHECKPOINT END =====
outside();
";
        assert_eq!(region_loc(src, "CHECKPOINT"), 3);
        assert_eq!(region_loc(src, "RESTORE"), 0);
    }

    #[test]
    fn app_sources_have_all_markers() {
        for src in [
            include_str!("../../apps/src/linreg.rs"),
            include_str!("../../apps/src/logreg.rs"),
            include_str!("../../apps/src/pagerank.rs"),
            include_str!("../../apps/src/gnmf.rs"),
        ] {
            assert!(region_loc(src, "NONRESILIENT") > 20);
            assert!(region_loc(src, "RESILIENT") > 10);
            // `state()` declares the objects; `after_restore` may be absent.
            assert!(region_loc(src, "CHECKPOINT") > 3);
            // The paper's headline: checkpoint+restore are a small fraction.
            let extra = region_loc(src, "CHECKPOINT") + region_loc(src, "RESTORE");
            assert!(extra < region_loc(src, "NONRESILIENT"));
        }
    }
}
