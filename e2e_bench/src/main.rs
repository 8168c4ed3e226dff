//! `e2e_bench` — the repo's end-to-end benchmark: the paper's resilient /
//! non-resilient ratio on four workloads, with outside-in layer attribution.
//! README.md (beside Cargo.toml) defines every workload and metric.
//!
//! One process measures one workload (`--workload`), because the compute
//! pool's width, the codec counters and the peak RSS are per process.
//! Without `--workload` the program re-executes itself once per workload
//! and trace mode and prints everything; `--check` does that twice and
//! compares the two sets against the regression bounds.

mod affinity;
mod catalog;
mod json;
mod layers;
mod measure;
mod probes;
mod replay;
mod spans;
mod stats;
mod workloads;

use std::process::{Command, ExitCode};

use affinity::CpuSet;
use catalog::{END_TO_END, PER_LAYER, RUN_SECONDS};
use json::Json;
use measure::Samples;
use stats::{median, ratio_of_medians, tail};
use workloads::{GnmfKind, Kind, LinRegKind, LogRegKind, PageRankKind, Spec};

const USAGE: &str = "usage: e2e_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--quick] [--check] [--emit-benchmark-json]";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    check: bool,
    emit: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        quick: false,
        check: false,
        emit: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !workloads::ALL.iter().any(|s| s.name == w) {
                    return Err(format!("unknown workload {w:?}"));
                }
                a.workload = Some(w.clone());
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--quick" => a.quick = true,
            "--check" => a.check = true,
            "--emit-benchmark-json" => a.emit = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

/// `GML_*` variables silently change the codec, the pool width, tracing
/// and the task policy, so a run with any of them set measures another
/// program. Returns the offending names.
fn gml_vars(vars: impl Iterator<Item = String>) -> Vec<String> {
    let mut v: Vec<String> = vars.filter(|k| k.starts_with("GML_")).collect();
    v.sort();
    v
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// One reported metric of one process.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: Option<f64>,
    samples: usize,
    tail: Option<(f64, f64)>,
}

impl Metric {
    fn of(name: &'static str, unit: &'static str, xs: &[f64]) -> Metric {
        Metric {
            name,
            unit,
            value: median(xs),
            samples: xs.len(),
            tail: tail(xs),
        }
    }

    fn line(&self, workload: &str) -> String {
        let value = self.value.map_or("missing".into(), |v| v.to_string());
        let tail = self
            .tail
            .map_or(String::new(), |(p, v)| format!(" p{p:.1}={v}"));
        format!(
            "metric {workload} {} {value} {} n={}{tail}",
            self.name, self.unit, self.samples
        )
    }
}

fn end_to_end(s: &Samples, spec: &Spec) -> Vec<Metric> {
    let unit = |name: &str| {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("catalogued")
            .unit
    };
    let derived = |name: &'static str, value: Option<f64>, samples: usize| Metric {
        name,
        unit: unit(name),
        value,
        samples,
        tail: None,
    };
    // The baseline arm has no per-step rows; its step is its wall over its
    // iterations.
    let base_step_ms = median(&s.baseline_s).map(|b| 1e3 * b / spec.iterations as f64);
    let step_ratio = median(&s.step_ms).zip(base_step_ms).map(|(r, b)| r / b);
    vec![
        Metric::of("setup_s", unit("setup_s"), &s.setup_s),
        derived(
            "resilience_ratio",
            ratio_of_medians(&s.run_s, &s.baseline_s),
            s.run_s.len(),
        ),
        derived("step_ratio", step_ratio, s.step_ms.len()),
        Metric::of("ckpt_pct", unit("ckpt_pct"), &s.ckpt_pct),
        derived("peak_rss_mb", s.peak_rss_mb, 1),
    ]
}

/// The absolute timings behind the ratios, for the text output. On this
/// box they swing by 15 – 40 % with the neighbours' load (README.md), so
/// they carry no bound; the traced run reports them as per-layer metrics.
fn absolute_timings(s: &Samples) -> Vec<Metric> {
    vec![
        Metric::of("run_s", "s", &s.run_s),
        Metric::of("baseline_s", "s", &s.baseline_s),
        Metric::of("step_ms", "ms", &s.step_ms),
        Metric::of("ckpt_ms", "ms", &s.ckpt_ms),
    ]
}

fn per_layer(values: &[(&'static str, f64)]) -> Vec<Metric> {
    for (name, _) in values {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "{name} is not in the catalog"
        );
    }
    PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name,
            unit: m.unit,
            // 0 = does not occur on this workload.
            value: Some(
                values
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .map_or(0.0, |&(_, v)| v),
            ),
            samples: 1,
            tail: None,
        })
        .collect()
}

type TimedFn = fn(&Spec, u64, f64) -> Samples;
type TracedFn = fn(&Spec, u64, f64, Option<CpuSet>) -> Result<layers::Traced, String>;

/// The untraced and the traced measurement of a workload's app.
fn entry_points(workload: &str) -> (TimedFn, TracedFn) {
    fn of<K: Kind>() -> (TimedFn, TracedFn) {
        (measure::timed_reps::<K>, layers::traced_run::<K>)
    }
    match workload {
        "logreg_ctl" => of::<LogRegKind>(),
        "pagerank_spmv" => of::<PageRankKind>(),
        "gnmf_ckpt" => of::<GnmfKind>(),
        "linreg_restore" => of::<LinRegKind>(),
        other => unreachable!("parse_args admits catalogued workloads only, got {other}"),
    }
}

/// Measure one workload in this process. Returns whether every run checked
/// out and every metric has a value.
fn run_workload(spec: Spec, args: &Args) -> bool {
    let trace = args.trace.unwrap_or(false);
    let seconds = args
        .seconds
        .unwrap_or(if args.quick { 1.0 } else { RUN_SECONDS as f64 });
    let spec = if args.quick { spec.quick() } else { spec };

    // Where the system offers no affinity the run goes unpinned and says
    // so in its stamp: a one-CPU workload then measures the scheduler too,
    // and its numbers must not be compared with pinned ones.
    let allowed = affinity::current();
    let cpus = allowed.map(|all| if spec.one_cpu { all.first_only() } else { all });
    let pinned = cpus.is_some_and(|c| affinity::set(&c));

    let (timed, traced) = entry_points(spec.name);
    let (samples, metrics, spans) = if trace {
        match traced(&spec, args.seed, seconds, allowed) {
            Ok(t) => (t.samples, Some(t.metrics), Some(t.spans)),
            Err(e) => {
                eprintln!("e2e_bench: {}: {e}", spec.name);
                return false;
            }
        }
    } else {
        (timed(&spec, args.seed, seconds), None, None)
    };

    let metrics = match &metrics {
        Some(values) => per_layer(values),
        None => end_to_end(&samples, &spec),
    };
    let stamp = Json::obj([
        ("workload", Json::from(spec.name)),
        ("sizes", Json::from(spec.sizes)),
        ("iterations", Json::from(spec.iterations)),
        ("checkpoint_interval", Json::from(spec.ckpt_interval)),
        ("kill_at", spec.kill_at.map_or(Json::Null, Json::from)),
        ("places", Json::from(workloads::PLACES as u64)),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(seconds)),
        ("trace", Json::from(trace)),
        ("quick", Json::from(args.quick)),
        ("timed_reps", Json::from(samples.reps)),
        (
            "cpus",
            Json::from(cpus.map_or("unknown".into(), |c| c.list())),
        ),
        ("pinned", Json::from(pinned)),
        (
            "nproc",
            Json::from(allowed.map_or(0, |a| a.cpus().len()) as u64),
        ),
        // Read after the workload ran: the first kernel call fixes it.
        ("pool_workers", Json::from(apgas::pool::workers() as u64)),
        (
            "commit",
            Json::from(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("rustc", Json::from(command_line("rustc", &["--version"]))),
    ]);
    println!("stamp {}", stamp.render());
    for m in &metrics {
        println!("{}", m.line(spec.name));
    }
    if !trace {
        for m in absolute_timings(&samples) {
            println!("info   {}", m.line(spec.name).trim_start_matches("metric "));
        }
    }
    println!(
        "failed_runs {} {}/{}",
        spec.name, samples.failed, samples.attempted
    );
    for why in &samples.failures {
        println!("failure {why}");
    }
    if let Some(spans) = spans {
        match write_trace(&spec, args.seed, &spans) {
            Ok(path) => println!("trace {} spans -> {path}", spans.len()),
            Err(e) => eprintln!("e2e_bench: trace not written: {e}"),
        }
    }

    let complete = metrics.iter().all(|m| m.value.is_some_and(f64::is_finite));
    let correct = samples.failed == 0 && samples.attempted > 0 && complete;
    let result = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(samples.attempted.max(1))),
        ("failed", Json::from(samples.failed)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|m| {
                let fields = [
                    (
                        "value",
                        Json::from(m.value.filter(|v| v.is_finite()).unwrap_or(0.0)),
                    ),
                    ("unit", Json::from(m.unit)),
                ];
                (m.name, Json::obj(fields))
            })),
        ),
    ]);
    println!("{}", result.render());
    correct
}

/// Spans go beside the build output (`<target>/e2e_bench/`), inside the
/// checkout and ignored by git.
fn write_trace(spec: &Spec, seed: u64, spans: &[spans::Span]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe
        .parent()
        .and_then(|p| p.parent())
        .ok_or("executable has no target directory")?
        .join("e2e_bench");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("trace-{}.json", spec.name));
    std::fs::write(&path, spans::to_json(spec.name, seed, spans)).map_err(|e| e.to_string())?;
    Ok(path.display().to_string())
}

/// The parsed `metric` lines of one workload's child processes, and whether
/// all of them reported success.
struct ChildRun {
    workload: &'static str,
    values: Vec<(String, f64)>,
    ok: bool,
}

fn parse_metric_line(line: &str) -> Option<(String, f64)> {
    let mut f = line.split_whitespace();
    (f.next()? == "metric").then_some(())?;
    let (_workload, name, value) = (f.next()?, f.next()?, f.next()?);
    Some((name.to_string(), value.parse().ok()?))
}

/// Run one child to its end, echo its text and add its metrics to `into`.
fn run_child(spec: &Spec, trace: bool, args: &Args, into: &mut ChildRun) {
    let exe = std::env::current_exe().expect("the running program has a path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", spec.name, "--seed", &args.seed.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child and collects its pipes.
    let out = match cmd.output() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2e_bench: cannot start the {} child: {e}", spec.name);
            into.ok = false;
            return;
        }
    };
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines().filter(|l| !l.starts_with('{')) {
        println!("{line}");
        into.values.extend(parse_metric_line(line));
    }
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    into.ok &= out.status.success();
}

/// Every workload, untraced then traced (or only the mode `--trace` names).
fn run_set(label: &str, args: &Args) -> Vec<ChildRun> {
    workloads::ALL
        .iter()
        .map(|spec| {
            let mut run = ChildRun {
                workload: spec.name,
                values: Vec::new(),
                ok: true,
            };
            for trace in [false, true] {
                if args.trace.is_none_or(|t| t == trace) {
                    println!("== {label}{} trace={}", spec.name, u8::from(trace));
                    run_child(spec, trace, args, &mut run);
                }
            }
            run
        })
        .collect()
}

/// Compare two sets of runs of the same code: every end-to-end metric must
/// agree within its bound, every exact count must be identical.
fn check(args: &Args) -> bool {
    let (a, b) = (run_set("A ", args), run_set("B ", args));
    let mut pass = a.iter().chain(&b).all(|run| run.ok);
    println!("== check: set A vs set B (same code, same seed)");
    println!(
        "{:<16} {:<40} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    for (ra, rb) in a.iter().zip(&b) {
        let (workload, va, vb) = (ra.workload, &ra.values, &rb.values);
        let find =
            |vs: &[(String, f64)], name: &str| vs.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
        let bounded = END_TO_END.iter().map(|m| (m.name, Some(m.bound)));
        let exact = PER_LAYER.iter().filter(|m| m.exact).map(|m| (m.name, None));
        for (name, bound) in bounded.chain(exact) {
            let (Some(x), Some(y)) = (find(va, name), find(vb, name)) else {
                if args.trace.is_none() {
                    println!("{workload:<16} {name:<40} missing from a set  FAIL");
                    pass = false;
                }
                continue;
            };
            let diff = if x == y {
                0.0
            } else {
                (y - x).abs() / x.abs().min(y.abs())
            };
            let ok = diff <= bound.unwrap_or(0.0);
            pass &= ok;
            println!(
                "{workload:<16} {name:<40} {x:>14.6} {y:>14.6} {:>8.2}% {:>6.1}%  {}",
                100.0 * diff,
                100.0 * bound.unwrap_or(0.0),
                if ok { "pass" } else { "FAIL" }
            );
        }
    }
    println!("check {}", if pass { "passed" } else { "FAILED" });
    pass
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.emit {
        println!("{}", catalog::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let set = gml_vars(std::env::vars_os().filter_map(|(k, _)| k.into_string().ok()));
    if !set.is_empty() {
        eprintln!(
            "e2e_bench: refusing to run with {} set: GML_* variables change the codec, the pool \
             width, tracing and the task policy, and the benchmark measures production defaults",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let ok = match &args.workload {
        Some(name) => {
            let spec = *workloads::ALL
                .iter()
                .find(|s| s.name == name)
                .expect("checked by parse_args");
            run_workload(spec, &args)
        }
        None if args.check => check(&args),
        None => run_set("", &args).iter().all(|run| run.ok),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse_args(&argv(
            "--workload gnmf_ckpt --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("gnmf_ckpt"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(20.0), Some(true)));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }

    #[test]
    fn any_gml_variable_is_refused() {
        let env = ["PATH", "GML_CKPT_CODEC", "HOME", "GML_WORKERS", "XGML_X"];
        let found = gml_vars(env.iter().map(|s| s.to_string()));
        assert_eq!(found, vec!["GML_CKPT_CODEC", "GML_WORKERS"]);
        assert!(gml_vars(["PATH".to_string()].into_iter()).is_empty());
    }

    #[test]
    fn metric_lines_round_trip_to_the_parent() {
        let m = Metric::of(
            "step_ms",
            "ms",
            &(1..=40).map(f64::from).collect::<Vec<_>>(),
        );
        let line = m.line("logreg_ctl");
        assert_eq!(
            parse_metric_line(&line),
            Some(("step_ms".to_string(), 20.5))
        );
        assert!(line.contains("n=40") && line.contains("p75.0=30"), "{line}");
        let missing = Metric::of("ckpt_ms", "ms", &[]);
        assert_eq!(
            parse_metric_line(&missing.line("w")),
            None,
            "a missing timing is not a number"
        );
        assert_eq!(parse_metric_line("stamp {}"), None);
    }

    #[test]
    fn final_line_has_exactly_the_contract_keys() {
        let s = Samples {
            setup_s: vec![0.5],
            run_s: vec![2.0],
            baseline_s: vec![1.0],
            step_ms: vec![3.0],
            ckpt_ms: vec![4.0],
            ckpt_pct: vec![5.0],
            peak_rss_mb: Some(6.0),
            ..Samples::default()
        };
        let ms = end_to_end(&s, &workloads::GNMF_CKPT);
        let names: Vec<&str> = ms.iter().map(|m| m.name).collect();
        let catalog: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(
            names, catalog,
            "--trace 0 prints every end-to-end metric, in catalog order"
        );
        assert_eq!(
            ms[1].value,
            Some(2.0),
            "resilience_ratio = run_s / baseline_s"
        );
        // 3 ms per resilient step against 1 s / 12 iterations per baseline step.
        assert!((ms[2].value.unwrap() - 3.0 * 12.0 / 1000.0).abs() < 1e-12);
        let layer = per_layer(&[("matrix.spmv_ms", 1.5)]);
        assert_eq!(
            layer.len(),
            PER_LAYER.len(),
            "--trace 1 prints every per-layer metric"
        );
        assert!(layer.iter().all(|m| m.value.is_some()));
    }
}
