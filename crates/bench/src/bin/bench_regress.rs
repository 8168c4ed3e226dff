//! Bench regression gate for CI: diffs a fresh `bench_json` run against the
//! committed `BENCH_*.json` baselines and fails loudly when any benchmark
//! minimum or derived speedup drifts beyond the tolerance (scaled per file
//! by an empirically-set noise factor — see [`FILES`]).
//!
//! Usage: `bench_regress <baseline_dir> <fresh_dir>`
//!
//! Both directories must hold the `BENCH_*.json` files `bench_json` writes.
//! Files whose host-metadata stamps (resolved worker count, cpu count)
//! disagree between baseline and fresh are skipped with a warning — numbers
//! taken at different widths are not comparable, and failing on them would
//! just teach people to ignore the gate.
//!
//! Tolerance is a fraction of the baseline value, symmetric (a big speedUP
//! also fails: it means the committed baseline is stale and must be
//! regenerated). Default 0.25 (±25%); override with `GML_BENCH_TOLERANCE`
//! (e.g. `0.4`, or `40%`).
//!
//! The memory-footprint keys `bench_json` emits (`mem_store_high_water_bytes`,
//! `mem_arena_parked_high_water_bytes`, `mem_heap_peak_bytes`) are plain
//! top-level numerics, so they ride the same tolerance machinery as the
//! timing minimums with no special casing here: a checkpoint path that
//! starts retaining substantially more memory fails this gate exactly like
//! one that got slower. They are deliberately NOT in [`SKIP_KEYS`].
//!
//! It also checks `<baseline_dir>/BENCH_history.jsonl`, the append-only
//! trajectory of the end-to-end benchmark (one JSON object per PR: `pr`, the
//! commits measured, a box stamp, and each workload's end-to-end medians as
//! `[parent, change]`): every line must parse and `pr` must strictly ascend,
//! so a restamp or a rewritten row is a visible step, not a silent edit.

use std::collections::BTreeMap;

/// The files `bench_json` writes, each with a noise factor scaling the base
/// tolerance: single-threaded codec loops are tight, the kernel pool adds
/// scheduling variance, and the 4-place checkpoint plane (dispatcher +
/// ship threads contending for cores) swings hardest run-to-run.
const FILES: [(&str, f64); 3] = [
    ("BENCH_serial_throughput.json", 1.0),
    ("BENCH_kernel_throughput.json", 2.0),
    ("BENCH_checkpoint_throughput.json", 3.0),
];

/// Keys never compared: host metadata (guard keys, compared exactly),
/// allocator counters, and values whose relative delta is meaningless —
/// near-zero baselines, or background busy time that depends entirely on
/// how the OS interleaved the ship threads.
const SKIP_KEYS: [&str; 7] = [
    "workers",
    "available_parallelism",
    "gml_workers_env",
    "encode_arena_hits",
    "encode_arena_misses",
    "overlap_saving_ns_per_run",
    "ship_mean_ns",
];

/// Extract comparable metrics from one `bench_json` output file: every
/// benchmark's `min_ns` (keyed by its name — the minimum is the stable
/// statistic on a shared box; the mean soaks up scheduler noise) plus every
/// top-level numeric key. The format is this workspace's own writer, so a
/// line-oriented scanner is exact, not approximate.
fn parse_metrics(json: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        if let (Some(name), Some(min)) =
            (extract_str(line, "\"name\": \""), extract_num(line, "\"min_ns\": "))
        {
            out.insert(name, min);
            continue;
        }
        // Top-level scalar: `"key": <number>`.
        if let Some(rest) = line.strip_prefix('"') {
            if let Some(q) = rest.find('"') {
                let key = &rest[..q];
                if let Some(v) = extract_num(line, &format!("\"{key}\": ")) {
                    out.insert(key.to_string(), v);
                }
            }
        }
    }
    out
}

fn extract_str(line: &str, prefix: &str) -> Option<String> {
    let start = line.find(prefix)? + prefix.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

fn extract_num(line: &str, prefix: &str) -> Option<f64> {
    let start = line.find(prefix)? + prefix.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn tolerance() -> f64 {
    match std::env::var("GML_BENCH_TOLERANCE") {
        Ok(v) if !v.is_empty() => {
            let v = v.trim();
            let (num, percent) = match v.strip_suffix('%') {
                Some(n) => (n, true),
                None => (v, false),
            };
            match num.trim().parse::<f64>() {
                Ok(f) if f > 0.0 => {
                    if percent || f > 1.0 {
                        f / 100.0
                    } else {
                        f
                    }
                }
                _ => {
                    eprintln!("bench regress: ignoring unparsable GML_BENCH_TOLERANCE={v:?}");
                    0.25
                }
            }
        }
        _ => 0.25,
    }
}

/// What became of one file pair: either it was actually compared (with some
/// number of violations), or it was skipped with a reason. The distinction
/// matters in `main`: a run where *every* file was skipped compared nothing
/// and must not report success.
enum FileOutcome {
    /// The pair was diffed; carries the violation count.
    Compared(usize),
    /// The pair was not diffed; carries the human-readable reason.
    Skipped(String),
}

/// Compare one file pair at its effective tolerance.
fn compare_file(name: &str, baseline_dir: &str, fresh_dir: &str, tol: f64) -> FileOutcome {
    let base_path = format!("{baseline_dir}/{name}");
    let fresh_path = format!("{fresh_dir}/{name}");
    let base_json = match std::fs::read_to_string(&base_path) {
        Ok(s) => s,
        Err(e) => {
            let reason = format!("no baseline {base_path} ({e})");
            println!("bench regress: {name}: {reason} — skipping");
            return FileOutcome::Skipped(reason);
        }
    };
    let fresh_json = match std::fs::read_to_string(&fresh_path) {
        Ok(s) => s,
        Err(e) => {
            println!("bench regress: FRESH RUN MISSING {fresh_path} ({e})");
            return FileOutcome::Compared(1);
        }
    };
    let base = parse_metrics(&base_json);
    let fresh = parse_metrics(&fresh_json);

    // Host-metadata guard: widths must match for the numbers to compare.
    for guard in ["workers", "available_parallelism"] {
        match (base.get(guard), fresh.get(guard)) {
            (Some(b), Some(f)) if b != f => {
                let reason = format!(
                    "{guard} differs (baseline {b:?}, fresh {f:?}); numbers taken at \
                     different widths are not comparable — regenerate baselines on this host"
                );
                println!("bench regress: {name}: {reason}");
                return FileOutcome::Skipped(reason);
            }
            _ => {}
        }
    }

    println!("== {name} (tolerance ±{:.0}%) ==", tol * 100.0);
    println!("{:<55} {:>14} {:>14} {:>9}", "key", "baseline", "fresh", "delta");
    let mut violations = 0usize;
    for (key, &b) in &base {
        if SKIP_KEYS.contains(&key.as_str()) {
            continue;
        }
        let Some(&f) = fresh.get(key) else {
            println!("{key:<55} {b:>14.1} {:>14} {:>9}", "MISSING", "—");
            continue;
        };
        if b == 0.0 {
            continue; // relative delta undefined
        }
        let delta = (f - b) / b;
        let flag = if delta.abs() > tol {
            violations += 1;
            " !!"
        } else {
            ""
        };
        println!("{key:<55} {b:>14.1} {f:>14.1} {:>+8.1}%{flag}", delta * 100.0);
    }
    for key in fresh.keys() {
        if !base.contains_key(key) && !SKIP_KEYS.contains(&key.as_str()) {
            println!("{key:<55} {:>14} — new key, not in baseline", "—");
        }
    }
    FileOutcome::Compared(violations)
}

/// Check the end-to-end history file: one well-formed JSON object per
/// line, `pr` strictly ascending. Returns the number of bad lines.
fn check_history(baseline_dir: &str) -> usize {
    let path = format!("{baseline_dir}/BENCH_history.jsonl");
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            println!("bench regress: HISTORY MISSING {path} ({e})");
            return 1;
        }
    };
    let mut bad = 0usize;
    let mut last_pr = f64::NEG_INFINITY;
    for (n, line) in text.lines().enumerate() {
        let problem = match apgas::trace::validate_json(line) {
            Err(e) => Some(format!("not JSON ({e})")),
            Ok(()) => match extract_num(line, "\"pr\": ").filter(|_| line.starts_with('{')) {
                Some(pr) if pr > last_pr => {
                    last_pr = pr;
                    None
                }
                Some(pr) => Some(format!("pr {pr} does not ascend past {last_pr}")),
                None => Some("not an object with a numeric \"pr\"".to_string()),
            },
        };
        if let Some(problem) = problem {
            println!("bench regress: {path}:{}: {problem}", n + 1);
            bad += 1;
        }
    }
    if bad == 0 {
        println!("bench regress: {path}: {} row(s), pr ascending", text.lines().count());
    }
    bad
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (baseline_dir, fresh_dir) = match args.as_slice() {
        [b, f] => (b.as_str(), f.as_str()),
        _ => {
            eprintln!("usage: bench_regress <baseline_dir> <fresh_dir>");
            std::process::exit(2);
        }
    };
    let tol = tolerance();
    if check_history(baseline_dir) > 0 {
        eprintln!("bench regress: BENCH_history.jsonl is malformed — rows are appended, never edited");
        std::process::exit(1);
    }
    let mut violations = 0usize;
    let mut compared = 0usize;
    let mut skipped: Vec<(&str, String)> = Vec::new();
    for (name, factor) in FILES {
        match compare_file(name, baseline_dir, fresh_dir, tol * factor) {
            FileOutcome::Compared(v) => {
                compared += 1;
                violations += v;
            }
            FileOutcome::Skipped(reason) => skipped.push((name, reason)),
        }
    }
    // Recap every skip so a partially-degraded gate is visible at the end
    // of the log, not just buried mid-scroll.
    for (name, reason) in &skipped {
        eprintln!("bench regress: skipped {name}: {reason}");
    }
    // A gate that skipped everything compared nothing: its "success" would
    // be vacuous, and a stale or wrong-width baseline set would pass CI
    // forever. Fail loudly instead.
    if compared == 0 {
        eprintln!(
            "bench regress: all {} BENCH file(s) were skipped — nothing was compared; \
             regenerate the committed baselines on this host",
            skipped.len()
        );
        std::process::exit(1);
    }
    if violations > 0 {
        eprintln!(
            "bench regress: {violations} metric(s) drifted beyond tolerance (base ±{:.0}%) — \
             if the change is intentional, regenerate the committed BENCH_*.json with bench_json",
            tol * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "bench regress: all metrics within tolerance (base ±{:.0}%) of baselines \
         ({compared} file(s) compared, {} skipped)",
        tol * 100.0,
        skipped.len()
    );
}
