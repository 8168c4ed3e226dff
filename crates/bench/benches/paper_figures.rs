//! `cargo bench` entry point that regenerates every table and figure of the
//! paper at a quick scale (unless the GML_BENCH_* env knobs are already
//! set). For full sweeps run the individual binaries, e.g.
//! `GML_BENCH_PLACES=2,4,8,12,16,24,32,44 cargo run --release -p gml-bench --bin all_figures`.

use gml_bench::figures;
use gml_bench::AppKind;

fn default_env(name: &str, value: &str) {
    if std::env::var(name).is_err() {
        // Benches run single-threaded at startup; no concurrent readers yet.
        std::env::set_var(name, value);
    }
}

fn main() {
    // Quick-pass defaults so `cargo bench` finishes in minutes.
    default_env("GML_BENCH_PLACES", "2,4,8,16");
    default_env("GML_BENCH_RUNS", "2");
    default_env("GML_BENCH_ITERS", "10");

    println!("regenerating all paper tables/figures (quick pass)");
    figures::loc_table();
    figures::overhead_figure(AppKind::LinReg, "Fig2");
    figures::overhead_figure(AppKind::LogReg, "Fig3");
    figures::overhead_figure(AppKind::PageRank, "Fig4");
    figures::checkpoint_table();
    figures::restore_figure(AppKind::LinReg, "Fig5");
    figures::restore_figure(AppKind::LogReg, "Fig6");
    figures::restore_figure(AppKind::PageRank, "Fig7");
    figures::breakdown_table();
    figures::bookkeeping_ablation();
}
