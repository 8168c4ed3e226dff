//! Failure drill: watch a `DistBlockMatrix` lose a place and come back.
//!
//! Reproduces Fig 1 of the paper in text form: a matrix distributed over 6
//! places is checkpointed, one place is killed, and the matrix is restored
//! (a) keeping the data grid — shrink, uneven load — and (b) repartitioning
//! — shrink-rebalance, even load. Data integrity is verified both ways.
//!
//! A second phase then drives a tiny iterative app (scale + Frobenius norm)
//! through the `ResilientExecutor`, kills another place mid-run, and prints
//! the per-iteration resilience cost report plus the span latency table.
//!
//! ```sh
//! cargo run --release --example failure_drill
//! # with structured tracing exported as Chrome trace JSON:
//! cargo run --release --example failure_drill -- --trace-out /tmp/drill.json
//! # or via the environment (equivalent; works for any binary):
//! GML_TRACE=1 GML_TRACE_OUT=/tmp/drill.json cargo run --release --example failure_drill
//! # write each restore's post-mortem bundle to disk:
//! GML_FORENSICS_DIR=/tmp cargo run --release --example failure_drill
//! ```

use apgas::runtime::{Runtime, RuntimeConfig};
use resilient_gml::prelude::*;

fn layout_report(label: &str, m: &DistBlockMatrix) {
    println!("  {label}:");
    println!(
        "    grid: {} x {} blocks over {} places",
        m.grid().row_blocks(),
        m.grid().col_blocks(),
        m.group().len()
    );
    for (idx, p) in m.group().iter().enumerate() {
        let blocks = m.blocks_at(idx);
        let bar = "#".repeat(blocks * 2);
        println!("    place {:>2} holds {blocks} block(s) {bar}", p.id());
    }
}

/// A minimal executor-driven app: each step halves the matrix and reduces
/// its Frobenius norm (a collective, so a dead place surfaces here).
struct NormDrill {
    m: DistBlockMatrix,
    iters: u64,
    kill_at: u64,
    victim: Place,
    fired: bool,
}

impl ResilientIterativeApp for NormDrill {
    fn is_finished(&self, _ctx: &Ctx, iteration: u64) -> bool {
        iteration >= self.iters
    }

    fn step(&mut self, ctx: &Ctx, iteration: u64) -> GmlResult<()> {
        if iteration == self.kill_at && !self.fired {
            self.fired = true;
            println!("  !! killing place {} at iteration {iteration}", self.victim);
            ctx.kill_place(self.victim)?;
        }
        self.m.scale(ctx, 0.5)?;
        let norm = self.m.frobenius_norm_sq(ctx)?;
        println!("  iter {iteration}: |M|_F^2 = {norm:.3e}");
        Ok(())
    }

    fn state(&mut self) -> AppState<'_> {
        AppState::default().mutable("m", &mut self.m)
    }
}

/// The value following the command-line flag `flag`, if present.
fn arg(flag: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

fn main() {
    let trace_out = arg("--trace-out").map(std::path::PathBuf::from);
    // `--trace-out` forces tracing on; otherwise GML_TRACE decides.
    let mut cfg = RuntimeConfig::new(6).resilient(true);
    if trace_out.is_some() {
        cfg = cfg.trace(true);
    }
    let rt = Runtime::new(cfg);
    rt.exec(move |ctx| {
        let world = ctx.world();
        let store = ResilientStore::make(ctx).expect("store");
        // Created up-front: the store spans every place, so it must exist
        // before any failure is injected.
        let mut app_store = AppResilientStore::make(ctx).expect("app store");

        // 12x8 blocks over a 6x1 place grid: two block-rows per place.
        let mut m =
            DistBlockMatrix::make(ctx, 600, 400, 12, 1, 6, 1, &world, false).expect("make");
        m.init_with(ctx, |_, _, r0, c0, rows, cols| {
            BlockData::Dense(builder::random_dense(rows, cols, (r0 * 7919 + c0) as u64))
        })
        .expect("init");
        let reference = m.gather_dense(ctx).expect("gather");
        // Charge the gathered reference copy to the ledger's app_matrix tag
        // for as long as it lives — it shows up in the ledger's report and
        // in post-mortems.
        let _ref_mem = MemScope::new(MemTag::AppMatrix, reference.len() * 8);
        layout_report("initial layout", &m);

        let snap = m.make_snapshot(ctx, &store).expect("snapshot");
        println!(
            "  snapshot: {} blocks, {:.1} KiB (owner + next-place backup copies)",
            snap.entries.len(),
            snap.total_bytes() as f64 / 1024.0
        );

        println!("\n  !! killing place 3");
        ctx.kill_place(Place::new(3)).expect("kill");
        let survivors = world.without(&[Place::new(3)]);

        // (a) Shrink: same grid, blocks remapped, block-by-block restore.
        m.remake(ctx, &survivors, false).expect("remake shrink");
        m.restore_snapshot(ctx, &store, &snap).expect("restore shrink");
        layout_report("after SHRINK restore (same grid, uneven load)", &m);
        assert_eq!(m.gather_dense(ctx).expect("gather"), reference);
        println!("    data verified identical");

        // (b) Shrink-rebalance: grid recut, overlap-copy restore.
        m.remake(ctx, &survivors, true).expect("remake rebalance");
        m.restore_snapshot(ctx, &store, &snap).expect("restore rebalance");
        layout_report("after SHRINK-REBALANCE restore (grid recut, even load)", &m);
        assert_eq!(m.gather_dense(ctx).expect("gather"), reference);
        println!("    data verified identical");

        // Phase 2: the same failure, but handled by the executor — and
        // accounted for, pass by pass, in the cost report.
        println!("\n=== executor drill (shrink-rebalance, checkpoint every 2) ===");
        let group = ctx.live_subset(&world);
        let dm = DistBlockMatrix::make(ctx, 600, 400, 10, 1, group.len(), 1, &group, false)
            .expect("make");
        dm.init_with(ctx, |_, _, r0, c0, rows, cols| {
            BlockData::Dense(builder::random_dense(rows, cols, (r0 * 31 + c0 + 1) as u64))
        })
        .expect("init");
        let mut app = NormDrill {
            m: dm,
            iters: 8,
            kill_at: 5,
            victim: Place::new(4),
            fired: false,
        };
        let exec = ResilientExecutor::new(ExecutorConfig::new(2, RestoreMode::ShrinkRebalance));
        let (final_group, stats, report) =
            exec.run_reported(ctx, &mut app, &group, &mut app_store).expect("executor run");
        println!(
            "  final group: {final_group:?} | iterations: {} | checkpoints: {} | restores: {}",
            stats.iterations_run, stats.checkpoints, stats.restores
        );
        println!("--- per-iteration cost report ---");
        print!("{}", report.render());
        assert!(report.consistent_with_totals(), "rows must sum to totals");
        // The flight recorder attached one post-mortem bundle per restore.
        for b in &report.bundles {
            b.validate().expect("post-mortem bundle must be valid JSON");
            println!(
                "--- post-mortem #{}: {} -> {} ({}) ---",
                b.seq, b.decision.configured_mode, b.decision.effective_label, b.decision.reason
            );
        }
        assert_eq!(report.bundles.len() as u64, stats.restores, "one bundle per restore");

        // Memory plane: the ledger's store_shard tag is charged on insert
        // and discharged on evict/kill, so at this settle point it equals
        // the summed live inventory of both stores — byte for byte.
        if mem::enabled() {
            let inv: u64 = store.inventory(ctx).iter().map(|p| p.wire_bytes).sum::<u64>()
                + app_store.store().inventory(ctx).iter().map(|p| p.wire_bytes).sum::<u64>();
            let ledger = mem::current(MemTag::StoreShard);
            println!("--- memory plane ---");
            println!(
                "  store ledger {} | live inventory {} | heap {} (peak {})",
                fmt_bytes(ledger),
                fmt_bytes(inv),
                fmt_bytes(mem::heap_bytes()),
                fmt_bytes(mem::heap_peak_bytes()),
            );
            assert_eq!(ledger, inv, "store ledger must reconcile with live inventory");
        }
    })
    .expect("runtime");

    if rt.tracer().is_on() {
        println!("--- span latencies ---");
        print!("{}", rt.tracer().metrics().report());
    }
    if let Some(path) = &trace_out {
        rt.write_chrome_trace(path).expect("write trace");
        println!("trace written to {}", path.display());
    }
    rt.shutdown();
}
