//! The library's environment variables, named and parsed in one place.
//!
//! Four variables configure a process; nothing else in the workspace reads
//! a `GML_*` name (the benchmark harness's own `GML_BENCH_*` aside). A
//! value that is set but does not parse is reported on stderr, naming the
//! variable and the default used instead: a silent fallback would hide a
//! typo like `GML_WORKERS=4x`, and the paper's evaluation depends on
//! knowing which settings were in effect.

use std::path::PathBuf;

/// Compute-pool width ([`crate::pool`]); unset or `0` sizes it from the
/// machine. Read once per process.
pub const WORKERS: &str = "GML_WORKERS";
/// Structured tracing (`1`/`true`/`on`/`yes`; `0`/`false`/`off`/`no` or
/// empty for off) for a runtime whose
/// [`RuntimeConfig::trace`](crate::runtime::RuntimeConfig::trace) is unset.
pub const TRACE: &str = "GML_TRACE";
/// Where a traced runtime writes its Chrome trace at shutdown.
pub const TRACE_OUT: &str = "GML_TRACE_OUT";
/// Directory each restore's post-mortem bundle is also written to.
pub const FORENSICS_DIR: &str = "GML_FORENSICS_DIR";

/// Every variable the library reads.
pub const NAMES: [&str; 4] = [WORKERS, TRACE, TRACE_OUT, FORENSICS_DIR];

/// [`WORKERS`]: the forced pool width, `0` for auto-sizing.
pub(crate) fn workers() -> usize {
    parsed(WORKERS, "auto").unwrap_or(0)
}

/// [`TRACE`]: whether tracing is switched on.
pub(crate) fn trace() -> bool {
    switch(TRACE).unwrap_or(false)
}

/// [`TRACE_OUT`]: the trace export path, if one is set.
pub(crate) fn trace_out() -> Option<PathBuf> {
    path(TRACE_OUT)
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

/// An on/off variable: `None` when it is unset or — loudly — when it is
/// neither an on nor an off value; the caller's default is off.
fn switch(name: &str) -> Option<bool> {
    let raw = std::env::var(name).ok()?;
    match raw.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "on" | "yes" => Some(true),
        "" | "0" | "false" | "off" | "no" => Some(false),
        _ => {
            eprintln!("{name}: unparsable value {raw:?}; using default (off)");
            None
        }
    }
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

    #[test]
    fn switch_names_its_off_values_and_rejects_the_rest() {
        // A name unique to this test, so no concurrent test reads it.
        let var = "GML_TEST_SWITCH_XYZ";
        assert_eq!(switch(var), None, "unset");
        for (raw, want) in [
            ("1", Some(true)),
            (" On ", Some(true)),
            ("YES", Some(true)),
            ("", Some(false)),
            ("0", Some(false)),
            ("false", Some(false)),
            ("Off", Some(false)),
            ("no", Some(false)),
            ("enable", None),
            ("2", None),
        ] {
            std::env::set_var(var, raw);
            assert_eq!(switch(var), want, "{raw:?}");
        }
        std::env::remove_var(var);
    }
}
