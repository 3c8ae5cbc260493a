//! The central environment-variable funnel.
//!
//! Every `PQ_*` (and shim) knob in the workspace reads the process
//! environment through this module instead of calling `std::env::var`
//! directly. The funnel buys three things:
//!
//! 1. **One place to look.** `grep pq_obs::env` finds every
//!    configuration surface of the pipeline; nothing hides in a
//!    crate-local `std::env::var` call.
//! 2. **No silent misconfiguration.** [`var_parsed`] warns through the
//!    tracer (once per variable per process) when a knob is *set but
//!    unparsable* — the same policy `PQ_JOBS`, `PQ_SCALE` and
//!    `PQ_SEED` already follow — instead of quietly falling back.
//! 3. **Enforceability.** `clippy.toml` disallows `std::env::var` /
//!    `var_os` (`clippy::disallowed_methods`, denied at every crate
//!    root), and this module's own three functions too: library crates
//!    take their configuration as arguments. The sanctioned readers
//!    carry `#[expect]`s — the `pq` binary's one parse of the run
//!    knobs, pq-obs's `PQ_TRACE*` / `PQ_PROF*` reads and the proptest
//!    shim's `PROPTEST_CASES` — and the funnel itself rejects (debug
//!    builds) a `PQ_*` read that [`KNOWN_VARS`] does not declare.
//!
//! Reads are intentionally *uncached*: each knob is read once, by the
//! binary, so caching would buy nothing.

use std::collections::BTreeSet;
use std::str::FromStr;
use std::sync::Mutex;

/// Every environment knob the workspace reads, sorted. [`var`],
/// [`var_os`] and [`var_parsed`] `debug_assert!` that a `PQ_*` name
/// they are asked for is listed, so code reading an undeclared knob
/// fails the first test that reaches it. This guards the *source*: a
/// user's typo on the command line (`PQ_SEEED=7`) is never read by
/// anything and still configures nothing, silently.
/// Shim variables owned by the OS/toolchain (`HOME`, `CI`, …) are not
/// listed; they go through [`var_os`] at sanctioned call sites.
pub const KNOWN_VARS: &[&str] = &[
    "PQ_CELL_TIMEOUT_MS",
    "PQ_FAULTS",
    "PQ_JOBS",
    "PQ_PROF_ALLOC",
    "PQ_PROF_OUT",
    "PQ_PROF_SVG",
    "PQ_SCALE",
    "PQ_SEED",
    "PQ_STACKS",
    "PQ_TRACE",
    "PQ_TRACE_BUF",
    "PQ_TRACE_OUT",
    "PROPTEST_CASES",
];

/// Variables whose unparsable values have already been warned about
/// (one warning per variable per process, like the `PQ_JOBS` policy).
static WARNED: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());

/// Debug builds reject a `PQ_*` read that [`KNOWN_VARS`] does not
/// declare; any other name is a shim.
fn assert_declared(name: &str) {
    debug_assert!(
        !name.starts_with("PQ_") || KNOWN_VARS.contains(&name),
        "{name} is not declared in KNOWN_VARS"
    );
}

/// Read `name` from the process environment.
///
/// Returns `None` when the variable is unset **or** not valid Unicode
/// (the latter warns — a mangled knob must not be silently ignored).
#[expect(clippy::disallowed_methods, reason = "the funnel itself")]
pub fn var(name: &str) -> Option<String> {
    assert_declared(name);
    match std::env::var(name) {
        Ok(v) => Some(v),
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(_)) => {
            warn_once(name, || {
                crate::tracer().warn(
                    "env",
                    format!("{name} is set but not valid unicode; ignoring it"),
                );
            });
            None
        }
    }
}

/// Read `name` as an OS string (for paths, which need not be Unicode).
/// `None` when unset.
#[expect(clippy::disallowed_methods, reason = "the funnel itself")]
pub fn var_os(name: &str) -> Option<std::ffi::OsString> {
    assert_declared(name);
    std::env::var_os(name)
}

/// Read and parse `name`.
///
/// * unset → `None` (caller applies its default silently);
/// * set and parsable → `Some(value)`;
/// * set but **unparsable** → a tracer warning naming the variable and
///   the offending value (once per variable per process), then `None`
///   — configuration is never silently swallowed.
#[expect(clippy::disallowed_methods, reason = "the funnel's own read")]
pub fn var_parsed<T: FromStr>(name: &str) -> Option<T> {
    let raw = var(name)?;
    match raw.parse::<T>() {
        Ok(v) => Some(v),
        Err(_) => {
            warn_once(name, || {
                crate::tracer().warn(
                    "env",
                    format!(
                        "unparsable {name}={raw:?} (want a {}); using the default",
                        std::any::type_name::<T>()
                    ),
                );
            });
            None
        }
    }
}

/// Run `warn` the first time `name` misbehaves in this process.
fn warn_once(name: &str, warn: impl FnOnce()) {
    let fresh = WARNED
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(name.to_string());
    if fresh {
        warn();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env-mutating tests share one process; serialize them.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn unset_is_none() {
        let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::remove_var("OBS_ENV_TEST_UNSET");
        assert_eq!(var("OBS_ENV_TEST_UNSET"), None);
        assert_eq!(var_parsed::<u64>("OBS_ENV_TEST_UNSET"), None);
        assert!(var_os("OBS_ENV_TEST_UNSET").is_none());
    }

    #[test]
    fn set_round_trips() {
        let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var("OBS_ENV_TEST_SET", "1910");
        assert_eq!(var("OBS_ENV_TEST_SET").as_deref(), Some("1910"));
        assert_eq!(var_parsed::<u64>("OBS_ENV_TEST_SET"), Some(1910));
        assert_eq!(var_parsed::<f64>("OBS_ENV_TEST_SET"), Some(1910.0));
        std::env::remove_var("OBS_ENV_TEST_SET");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "PQ_SEEED is not declared in KNOWN_VARS")]
    fn undeclared_pq_knob_is_rejected_where_it_is_read() {
        let _ = var_parsed::<u64>("PQ_SEEED");
    }

    #[test]
    fn unparsable_warns_and_falls_back() {
        let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var("OBS_ENV_TEST_BAD", "not-a-number");
        assert_eq!(var_parsed::<u64>("OBS_ENV_TEST_BAD"), None);
        // Second read: still None, and the warn-once set stays sane.
        assert_eq!(var_parsed::<u64>("OBS_ENV_TEST_BAD"), None);
        std::env::remove_var("OBS_ENV_TEST_BAD");
    }
}
