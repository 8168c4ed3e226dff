//! Regenerate the tables and figures of the paper's evaluation: every one by
//! default, or the named subset with `--only fig2,table3`. Either way each
//! writes the same CSV under `target/paper-results/`. The names are listed in
//! the crate docs. Respects GML_BENCH_PLACES / GML_BENCH_RUNS /
//! GML_BENCH_ITERS / GML_BENCH_SCALE.
use gml_bench::figures;
use gml_bench::AppKind;

/// Every table and figure by its `--only` name, in the order a full run
/// regenerates them.
fn catalog() -> [(&'static str, fn()); 10] {
    [
        ("table2", figures::loc_table),
        ("fig2", || figures::overhead_figure(AppKind::LinReg, "Fig2")),
        ("fig3", || figures::overhead_figure(AppKind::LogReg, "Fig3")),
        ("fig4", || figures::overhead_figure(AppKind::PageRank, "Fig4")),
        ("table3", figures::checkpoint_table),
        ("fig5", || figures::restore_figure(AppKind::LinReg, "Fig5")),
        ("fig6", || figures::restore_figure(AppKind::LogReg, "Fig6")),
        ("fig7", || figures::restore_figure(AppKind::PageRank, "Fig7")),
        ("table4", figures::breakdown_table),
        ("ablations", figures::bookkeeping_ablation),
    ]
}

fn main() {
    let catalog = catalog();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let only: Option<Vec<&str>> = match args.as_slice() {
        [] => None,
        [flag, names] if flag == "--only" => Some(names.split(',').map(str::trim).collect()),
        _ => usage(&catalog),
    };
    if let Some(unknown) = only.iter().flatten().find(|n| !catalog.iter().any(|(f, _)| f == *n)) {
        eprintln!("all_figures: no table or figure named {unknown:?}");
        usage(&catalog);
    }
    for (name, run) in catalog {
        if only.as_ref().is_none_or(|names| names.contains(&name)) {
            run();
        }
    }
}

fn usage(catalog: &[(&str, fn())]) -> ! {
    let names: Vec<&str> = catalog.iter().map(|(n, _)| *n).collect();
    eprintln!("usage: all_figures [--only NAME[,NAME...]]   names: {}", names.join(", "));
    std::process::exit(2);
}
