//! Resilient PageRank surviving a mid-run place failure.
//!
//! Runs 30 PageRank iterations with a checkpoint every 10, kills a place at
//! iteration 15, and lets the resilient executor restore from the last
//! checkpoint — in each of the paper's three restoration modes — then
//! verifies all three produce the same ranks as a failure-free run. Each
//! mode also prints the per-iteration resilience cost report (the paper's
//! Table III columns, per executor pass).
//!
//! ```sh
//! cargo run --release --example resilient_pagerank
//! # with structured tracing; writes the Shrink run as Chrome trace JSON
//! # (load it at chrome://tracing or https://ui.perfetto.dev):
//! cargo run --release --example resilient_pagerank -- --trace-out /tmp/pr.json
//! ```

use apgas::runtime::{Runtime, RuntimeConfig};
use resilient_gml::prelude::*;

/// Wraps the app to inject one failure at a chosen iteration.
struct FailureInjector {
    inner: ResilientPageRank,
    kill_at: u64,
    victim: Place,
    fired: bool,
}

impl ResilientIterativeApp for FailureInjector {
    fn is_finished(&self, ctx: &Ctx, iteration: u64) -> bool {
        self.inner.is_finished(ctx, iteration)
    }
    // Opt in to pre-commit output verification: the executor records the
    // rank digest after each step and re-checks it before every checkpoint
    // commit, so the report's detect(t) column is live in all four modes.
    fn as_checksummed(&self) -> Option<&dyn ChecksummedStep> {
        Some(self)
    }
    fn step(&mut self, ctx: &Ctx, iteration: u64) -> GmlResult<()> {
        if iteration == self.kill_at && !self.fired {
            self.fired = true;
            println!("  !! killing place {} at iteration {}", self.victim, iteration);
            ctx.kill_place(self.victim)?;
        }
        self.inner.step(ctx, iteration)
    }
    fn checkpoint(&mut self, ctx: &Ctx, store: &mut AppResilientStore) -> GmlResult<()> {
        self.inner.checkpoint(ctx, store)
    }
    fn restore(
        &mut self,
        ctx: &Ctx,
        new_places: &PlaceGroup,
        store: &mut AppResilientStore,
        snapshot_iteration: u64,
        rebalance: bool,
    ) -> GmlResult<()> {
        println!(
            "  -> restoring to iteration {snapshot_iteration} on {:?} (rebalance={rebalance})",
            new_places
        );
        self.inner.restore(ctx, new_places, store, snapshot_iteration, rebalance)
    }
}

impl ChecksummedStep for FailureInjector {
    fn output_digest(&self, ctx: &Ctx) -> GmlResult<u64> {
        Ok(fnv1a_f64s(self.inner.app.ranks(ctx)?.as_slice()))
    }
}

/// Parse `--trace-out <path>` from the command line, if present.
fn trace_out_arg() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trace-out" {
            return args.next().map(std::path::PathBuf::from);
        }
    }
    None
}

fn main() {
    let trace_out = trace_out_arg();
    let pr_cfg = PageRankConfig {
        nodes_per_place: 200,
        out_degree: 6,
        iterations: 30,
        alpha: 0.85,
        seed: 7,
    };

    // Failure-free reference ranks.
    let baseline = Runtime::run(RuntimeConfig::new(4).resilient(true), move |ctx| {
        let (ranks, _) = PageRank::run_simple(ctx, pr_cfg, &ctx.world()).unwrap();
        ranks
    })
    .expect("baseline run");

    for mode in [
        RestoreMode::Shrink,
        RestoreMode::ShrinkRebalance,
        RestoreMode::ReplaceRedundant,
        RestoreMode::ReplaceElastic,
    ] {
        println!("=== mode {mode:?} ===");
        let spares = if mode == RestoreMode::ReplaceRedundant { 1 } else { 0 };
        let baseline = baseline.clone();
        let mut cfg = RuntimeConfig::new(4).spares(spares).resilient(true);
        if trace_out.is_some() {
            cfg = cfg.trace(true);
        }
        let rt = Runtime::new(cfg);
        rt.exec(move |ctx| {
            let world = ctx.world();
            let mut app = FailureInjector {
                inner: ResilientPageRank::make(ctx, pr_cfg, &world).unwrap(),
                kill_at: 15,
                victim: Place::new(2),
                fired: false,
            };
            let mut store = AppResilientStore::make(ctx).unwrap();
            let exec = ResilientExecutor::new(ExecutorConfig::new(10, mode));
            let (final_group, stats, report) =
                exec.run_reported(ctx, &mut app, &world, &mut store).expect("resilient run");
            let ranks = app.inner.app.ranks(ctx).unwrap();
            let diff = ranks.max_abs_diff(&baseline);
            println!(
                "  final group: {:?} | iterations run: {} | checkpoints: {} | restores: {}",
                final_group, stats.iterations_run, stats.checkpoints, stats.restores
            );
            println!(
                "  time: step {:.1?}, checkpoint {:.1?} ({:.0}%), restore {:.1?} ({:.0}%), \
                 detect {:.1?}",
                stats.step_time,
                stats.checkpoint_time,
                stats.checkpoint_pct(),
                stats.restore_time,
                stats.restore_pct(),
                stats.detect_time
            );
            println!("--- per-iteration cost report ---");
            print!("{}", report.render());
            assert!(report.consistent_with_totals(), "rows must sum to totals");
            // Codec plane, per checkpoint epoch: how many logical bytes the
            // snapshots fed the codec vs what actually went on the wire
            // (the ratio is low where the graph's CSR blocks were packed).
            for row in report.rows.iter().filter(|r| r.ckpt_logical > 0) {
                println!(
                    "  codec epoch @iter {:>3}: logical {:>10} -> wire {:>10} (ratio {:.2})",
                    row.iteration,
                    fmt_bytes(row.ckpt_logical),
                    fmt_bytes(row.ckpt_wire),
                    row.ckpt_wire as f64 / row.ckpt_logical as f64
                );
            }
            assert!(report.codec_consistent(), "row codec columns must sum to codec totals");
            for b in &report.bundles {
                b.validate().expect("post-mortem bundle must be valid JSON");
                println!(
                    "  post-mortem #{}: {} -> {} ({})",
                    b.seq,
                    b.decision.configured_mode,
                    b.decision.effective_label,
                    b.decision.reason
                );
            }
            assert_eq!(report.bundles.len() as u64, stats.restores, "one bundle per restore");
            // Memory plane: this run's store is the only live one in the
            // process, so the ledger's store_shard tag must reconcile
            // exactly with the summed live inventory at this settle point.
            if mem::enabled() {
                let inv: u64 =
                    store.store().inventory(ctx).iter().map(|p| p.wire_bytes).sum();
                let ledger = mem::current(MemTag::StoreShard);
                println!(
                    "  memory: store ledger {} | live inventory {} | heap {} (peak {})",
                    fmt_bytes(ledger),
                    fmt_bytes(inv),
                    fmt_bytes(mem::heap_bytes()),
                    fmt_bytes(mem::heap_peak_bytes()),
                );
                assert_eq!(ledger, inv, "store ledger must reconcile with live inventory");
            }
            println!("  max |ranks - baseline| = {diff:.2e} (exact recovery)");
            assert!(diff < 1e-12);
        })
        .expect("resilient run");
        // The first (Shrink) run's trace goes to exactly the requested path.
        if mode == RestoreMode::Shrink {
            if let Some(path) = &trace_out {
                rt.write_chrome_trace(path).expect("write trace");
                println!("  trace written to {}", path.display());
            }
        }
        rt.shutdown();
    }
    println!("all four restoration modes recovered the failure-free result");
}
