//! The library's environment variables, named and parsed in one place.
//!
//! Six variables configure a process; nothing else in the workspace reads
//! a `GML_*` name (the benchmark harness's own `GML_BENCH_*` aside). A
//! value that is set but does not parse is reported on stderr, naming the
//! variable and the default used instead: a silent fallback would hide a
//! typo like `GML_WORKERS=4x`, and the paper's evaluation depends on
//! knowing which settings were in effect.

use std::path::PathBuf;

/// Compute-pool width ([`crate::pool`]); unset or `0` sizes it from the
/// machine. Read once per process.
pub const WORKERS: &str = "GML_WORKERS";
/// Structured tracing (`1`/`true`/`on`/`yes`) for a runtime whose
/// [`RuntimeConfig::trace`](crate::runtime::RuntimeConfig::trace) is unset.
pub const TRACE: &str = "GML_TRACE";
/// Where a traced runtime writes its Chrome trace at shutdown.
pub const TRACE_OUT: &str = "GML_TRACE_OUT";
/// Port of the Prometheus scrape endpoint (`0` → ephemeral) for a runtime
/// that does not set one; unset → no endpoint.
pub const MONITOR_PORT: &str = "GML_MONITOR_PORT";
/// Process heap budget in bytes for the watchdog's memory-pressure alarm;
/// unset or `0` → no alarm.
pub const MEM_BUDGET: &str = "GML_MEM_BUDGET";
/// Directory each restore's post-mortem bundle is also written to.
pub const FORENSICS_DIR: &str = "GML_FORENSICS_DIR";

/// Every variable the library reads.
pub const NAMES: [&str; 6] = [WORKERS, TRACE, TRACE_OUT, MONITOR_PORT, MEM_BUDGET, FORENSICS_DIR];

/// [`WORKERS`]: the forced pool width, `0` for auto-sizing.
pub(crate) fn workers() -> usize {
    parsed(WORKERS, "auto").unwrap_or(0)
}

/// [`TRACE`]: whether tracing is switched on.
pub(crate) fn trace() -> bool {
    let v = std::env::var(TRACE).unwrap_or_default().to_ascii_lowercase();
    matches!(v.as_str(), "1" | "true" | "on" | "yes")
}

/// [`TRACE_OUT`]: the trace export path, if one is set.
pub(crate) fn trace_out() -> Option<PathBuf> {
    path(TRACE_OUT)
}

/// [`MONITOR_PORT`]: the scrape endpoint's port, if one is set.
pub(crate) fn monitor_port() -> Option<u16> {
    parsed(MONITOR_PORT, "monitoring disabled")
}

/// [`MEM_BUDGET`]: the heap budget in bytes, `0` for none.
pub(crate) fn mem_budget() -> u64 {
    parsed(MEM_BUDGET, "no budget").unwrap_or(0)
}

/// [`FORENSICS_DIR`]: the post-mortem directory, if one is set.
pub fn forensics_dir() -> Option<PathBuf> {
    path(FORENSICS_DIR)
}

/// The value of `name`, or `None` when it is unset or — loudly — when it
/// does not parse; `default` says what the caller falls back to.
fn parsed<T: std::str::FromStr>(name: &str, default: &str) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    let v = raw.trim().parse().ok();
    if v.is_none() {
        eprintln!("{name}: unparsable value {raw:?}; using default ({default})");
    }
    v
}

fn path(name: &str) -> Option<PathBuf> {
    std::env::var_os(name).filter(|v| !v.is_empty()).map(PathBuf::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsed_accepts_and_rejects() {
        // Names unique to this test, so no concurrent test reads them.
        assert_eq!(parsed::<usize>("GML_TEST_UNSET_VAR_XYZ", "7"), None);
        let var = "GML_TEST_PARSED_XYZ";
        std::env::set_var(var, " 64 ");
        assert_eq!(parsed::<usize>(var, "auto"), Some(64));
        std::env::set_var(var, "64k");
        assert_eq!(parsed::<usize>(var, "auto"), None, "a typo falls back");
        std::env::set_var(var, "70000");
        assert_eq!(parsed::<u16>(var, "off"), None, "out of range falls back");
        std::env::remove_var(var);
    }
}
