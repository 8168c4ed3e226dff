//! The benchmark's metric catalog: names, units, directions and regression
//! bounds. `BENCHMARK.json` at the repo root is generated from here
//! (`--emit-benchmark-json`) and a test keeps the two equal.

use crate::json::Json;
use crate::workloads;

/// Seconds one run measures (the driver passes it back as `--seconds`).
pub const RUN_SECONDS: u64 = 26;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Lower is better for every end-to-end metric. They are the quantities
/// that hold still on this box: ratios of interleaved arms, shares of a run,
/// and memory. Absolute timings swing by 15 – 40 % with the neighbours' load
/// and are per-layer metrics (README.md, "Measured baseline"). Bounds are
/// three times the widest spread seen over ten seeds on any workload,
/// capped at the driver's 25 % — which all five reach.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "resilience_ratio",
        unit: "ratio",
        bound: 0.25,
    },
    EndToEnd {
        name: "step_ratio",
        unit: "ratio",
        bound: 0.25,
    },
    EndToEnd {
        name: "ckpt_pct",
        unit: "%",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// A count made by the program that must repeat exactly between runs.
    pub exact: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
        exact: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
        exact: true,
    }
}

/// Per-layer metrics, named `<crate>.<module>.<what>`. A value of 0 means
/// "does not occur on this workload" (no restore without a failure, no
/// `gram_into` in PageRank's step).
pub const PER_LAYER: [PerLayer; 71] = [
    // Demoted from end-to-end: absolute timings (too noisy on this box to
    // carry a bound), and metrics that exist on some workloads only or rest
    // on one sample per run.
    lower("bench.run_s", "s"),
    lower("bench.baseline_s", "s"),
    lower("apps.step_ms", "ms"),
    lower("core.app_store.ckpt_ms", "ms"),
    lower("core.framework.restore_ms", "ms"),
    lower("core.framework.restore_pct", "%"),
    lower("core.app_store.ckpt_first_ms", "ms"),
    // gml-matrix kernels (probes).
    lower("matrix.spmv_ms", "ms"),
    higher("matrix.spmv_gflops", "GFLOP/s"),
    higher("matrix.spmv_gbps", "GB/s"),
    lower("matrix.gemv_ms", "ms"),
    lower("matrix.gemv_trans_ms", "ms"),
    higher("matrix.gemv_gbps", "GB/s"),
    lower("matrix.gemm_tn_acc_ms", "ms"),
    higher("matrix.gemm_tn_acc_gflops", "GFLOP/s"),
    lower("matrix.spmm_ms", "ms"),
    higher("matrix.dot_gbps", "GB/s"),
    higher("matrix.axpy_gbps", "GB/s"),
    higher("matrix.triad_gbps", "GB/s"),
    // apgas::finish.
    lower("apgas.finish.roundtrip_us.res", "us"),
    lower("apgas.finish.roundtrip_us.nonres", "us"),
    lower("apgas.finish.roundtrip_us.res.allcpu", "us"),
    count("apgas.finish.ctl_msgs_per_step", "count"),
    count("apgas.finish.tasks_per_step", "count"),
    // apgas::runtime.
    lower("apgas.runtime.at_small_us", "us"),
    higher("apgas.runtime.at_1mib_mbps", "MiB/s"),
    lower("apgas.runtime.start_ms", "ms"),
    count("apgas.runtime.bytes_shipped_per_step", "B"),
    lower("apgas.runtime.kill_detect_us", "us"),
    // apgas::serial, apgas::pool.
    higher("apgas.serial.f64_encode_gbps", "GB/s"),
    higher("apgas.serial.f64_decode_gbps", "GB/s"),
    higher("apgas.serial.csr_encode_gbps", "GB/s"),
    higher("apgas.serial.csr_decode_gbps", "GB/s"),
    lower("apgas.serial.encode_ms_per_step", "ms"),
    count("apgas.pool.workers", "count"),
    // gml-core distributed operations (step replay).
    lower("core.dist_block_matrix.mult_ms", "ms"),
    lower("core.dist_block_matrix.mult_trans_ms", "ms"),
    lower("core.dist_block_matrix.gram_into_ms", "ms"),
    lower("core.dist_block_matrix.mult_dup_into_ms", "ms"),
    lower("core.dist_vector.gather_ms", "ms"),
    lower("core.dist_vector.dot_dup_ms", "ms"),
    lower("core.dup_vector.sync_ms", "ms"),
    lower("core.dup_dense.sync_ms", "ms"),
    lower("apps.step.other_ops_ms", "ms"),
    lower("apps.step.unattributed_pct", "%"),
    lower("apps.step_ms.tail", "ms"),
    lower("apps.step_drift", "ratio"),
    lower("apps.make_ms", "ms"),
    // gml-core app_store / codec / store (traced run and probes).
    lower("core.app_store.capture_ms", "ms"),
    lower("core.app_store.ship_ms", "ms"),
    lower("core.app_store.settle_wait_ms", "ms"),
    higher("core.app_store.save_mbps", "MiB/s"),
    lower("core.app_store.make_ms", "ms"),
    lower("core.codec.encode_ms_per_ckpt", "ms"),
    lower("core.codec.logical_mb_per_ckpt", "MB"),
    lower("core.codec.wire_ratio", "ratio"),
    higher("core.codec.frames_delta_share", "ratio"),
    higher("core.codec.full_change_mbps", "MiB/s"),
    lower("core.codec.full_change_wire_ratio", "ratio"),
    higher("core.codec.sparse_change_mbps", "MiB/s"),
    lower("core.codec.sparse_change_wire_ratio", "ratio"),
    lower("core.store.wire_mb_resident", "MB"),
    lower("core.store.restore_object_ms", "ms"),
    // gml-core framework (traced run).
    lower("core.framework.restore_ms.shrink", "ms"),
    lower("core.framework.restore_ms.shrink_rebalance", "ms"),
    lower("core.framework.restore_ms.replace_redundant", "ms"),
    count("core.framework.reexecuted_steps", "count"),
    lower("core.framework.rework_ms", "ms"),
    lower("core.framework.unattributed_pct", "%"),
    // Validity of the layer numbers.
    lower("bench.trace_overhead_pct", "%"),
    higher("bench.traced_runs", "count"),
];

/// The document committed as `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads = workloads::ALL
        .iter()
        .map(|w| Json::obj([("name", Json::from(w.name)), ("why", Json::from(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::from(m.name)),
                ("unit", Json::from(m.unit)),
                ("better", Json::from("lower")),
                ("bound", Json::from(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::from(m.name)),
                ("unit", Json::from(m.unit)),
                (
                    "better",
                    Json::from(if m.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    }),
                ),
            ])
        })
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "e2e_bench/Cargo.toml",
        "--",
    ];
    // One entry per line, so that a diff of the file reads metric by metric.
    let lines = |items: Vec<Json>| {
        let rows: Vec<String> = items
            .iter()
            .map(|j| format!("    {}", j.render()))
            .collect();
        format!("[\n{}\n  ]", rows.join(",\n"))
    };
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"e2e_bench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}",
        Json::Arr(command.iter().map(|&s| Json::from(s)).collect()).render(),
        lines(workloads),
        lines(end_to_end),
        lines(per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().unwrap().is_ascii_alphanumeric()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalog_meets_the_benchmark_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(workloads::ALL.iter().map(|w| w.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for m in &END_TO_END {
            assert!(unit_ok(m.unit), "bad unit {:?}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(unit_ok(m.unit), "bad unit {:?}", m.unit);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!(setup.unit, "s");
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        for w in &workloads::ALL {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let committed = include_str!("../../BENCHMARK.json");
        apgas::trace::validate_json(committed).expect("BENCHMARK.json is JSON");
        assert_eq!(
            committed.trim_end(),
            benchmark_json(),
            "regenerate with: cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
             --emit-benchmark-json > BENCHMARK.json"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
