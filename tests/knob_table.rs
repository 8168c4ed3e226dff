//! The README's "Environment knob reference" table lists exactly the
//! variables the code reads: the library's, named in `apgas::env`, and the
//! paper-figure bench bins' four `GML_BENCH_*`. A knob added, removed or
//! renamed on one side only fails here.

use std::collections::BTreeSet;

const BENCH_NAMES: [&str; 4] =
    ["GML_BENCH_PLACES", "GML_BENCH_RUNS", "GML_BENCH_ITERS", "GML_BENCH_SCALE"];

#[test]
fn readme_knob_table_matches_the_code() {
    let readme = include_str!("../README.md");
    let table = readme
        .split("### Environment knob reference")
        .nth(1)
        .expect("README has an environment knob reference")
        .split("\n#")
        .next()
        .unwrap();
    let listed: BTreeSet<&str> = table
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .map(|l| &l[..l.find('`').expect("a knob name closes its backticks")])
        .collect();
    let read: BTreeSet<&str> = apgas::env::NAMES.iter().chain(&BENCH_NAMES).copied().collect();
    assert_eq!(listed, read, "README knob table vs the names the code reads");
}
