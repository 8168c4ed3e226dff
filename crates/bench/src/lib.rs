#![warn(missing_docs)]
//! # gml-bench — harnesses regenerating the paper's evaluation
//!
//! `all_figures` regenerates every table and figure of the paper (§VII);
//! `all_figures --only fig2,table3` regenerates the named ones:
//!
//! | `--only` name | regenerates |
//! |---|---|
//! | `table2` | Table II — lines-of-code comparison |
//! | `fig2` | Fig 2 — LinReg time/iteration, resilient vs non-resilient |
//! | `fig3` | Fig 3 — LogReg time/iteration |
//! | `fig4` | Fig 4 — PageRank time/iteration |
//! | `table3` | Table III — time per checkpoint |
//! | `fig5` | Fig 5 — LinReg total time with one failure |
//! | `fig6` | Fig 6 — LogReg total time with one failure |
//! | `fig7` | Fig 7 — PageRank total time with one failure |
//! | `table4` | Table IV — checkpoint/restore % of total time |
//! | `ablations` | the bookkeeping and store-redundancy ablations (DESIGN.md) |
//!
//! `cargo bench -p gml-bench` runs the criterion microbenches plus a quick
//! pass over every figure/table. Environment knobs:
//! `GML_BENCH_PLACES` (comma list), `GML_BENCH_RUNS`, `GML_BENCH_ITERS`,
//! `GML_BENCH_SCALE` (workload multiplier, default 1.0).
//!
//! The remaining binaries are `ci.sh`'s parity and smoke checks. None of
//! this gates timing: that is `e2e_bench/` at the repo root, run like for
//! like on a parent commit and its change, with `BENCH_history.jsonl` as its
//! per-PR trajectory (the test below keeps that file well-formed).

pub mod figures;
pub mod harness;
pub mod table;
pub mod workloads;

pub use harness::{
    checkpoint_time, restore_total_time, time_per_iteration, IterTime, RestoreRun,
};
pub use workloads::{bench_iters, bench_places, bench_runs, AppKind};

#[cfg(test)]
mod tests {
    /// `BENCH_history.jsonl` is appended to, never edited: every line is a
    /// JSON object and `pr` strictly ascends, so a rewritten row is a visible
    /// step.
    #[test]
    fn bench_history_parses_and_pr_strictly_ascends() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_history.jsonl");
        let text = std::fs::read_to_string(path).expect(path);
        let mut last_pr = 0u64;
        for (n, line) in text.lines().enumerate() {
            let at = format!("{path}:{}", n + 1);
            apgas::trace::validate_json(line).unwrap_or_else(|e| panic!("{at}: not JSON ({e})"));
            let pr = line.strip_prefix("{\"pr\": ").and_then(|rest| {
                rest[..rest.find(|c: char| !c.is_ascii_digit())?].parse::<u64>().ok()
            });
            let pr = pr.unwrap_or_else(|| panic!("{at}: not an object opening with a numeric \"pr\""));
            assert!(pr > last_pr, "{at}: pr {pr} does not ascend past {last_pr}");
            last_pr = pr;
        }
        assert!(last_pr > 0, "{path} is empty");
    }
}
