//! `WCOJ_*` environment knobs: one parser per value shape and one
//! warn-once registry for malformed values, shared by every crate that
//! reads configuration from the environment (`wcoj-service`'s
//! `ServiceConfig::from_env`, `wcoj-server`'s `ServerConfig::from_env`,
//! the examples).

use std::sync::Mutex;

use crate::TraceLevel;

/// Keys of `WCOJ_*` environment knobs whose values were malformed, in the
/// order first seen. Each key is warned about (on stderr) exactly once per
/// process; this registry lets tests and diagnostics observe that a knob
/// silently fell back to its default.
static MALFORMED_ENV: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Records (and warns once per key about) a malformed environment knob —
/// the hook for `WCOJ_*` knobs whose values are neither plain `usize`s nor
/// trace levels (e.g. `wcoj-server`'s `WCOJ_BIND` socket address), so they
/// share the same warn-once registry as [`read_env_usize`].
pub fn note_malformed_env(key: &str, problem: &str) {
    let mut seen = MALFORMED_ENV
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if seen.iter().any(|k| k == key) {
        return;
    }
    seen.push(key.to_owned());
    eprintln!("wcoj: ignoring {key}: {problem}; using the default");
}

/// Environment knobs that have been warned about as malformed so far (one
/// entry per key, first-seen order). A `WCOJ_QUEUE_DEPTH=eight` typo does
/// not revert to the default with *no* signal: the first read warns on
/// stderr and the key shows up here.
#[must_use]
pub fn malformed_env_warnings() -> Vec<String> {
    MALFORMED_ENV
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Reads a `usize` environment knob. Unset → `None`; malformed (not a
/// non-negative integer) → `None` **plus** a one-time stderr warning and an
/// entry in [`malformed_env_warnings`]. Shared by every numeric `WCOJ_*`
/// knob (`WCOJ_QUEUE_DEPTH`, `WCOJ_CONN_THREADS`, `WCOJ_KEEP_ALIVE_MAX`, …).
#[must_use]
pub fn read_env_usize(key: &str) -> Option<usize> {
    let raw = std::env::var(key).ok()?;
    match raw.trim().parse() {
        Ok(v) => Some(v),
        Err(_) => {
            note_malformed_env(key, &format!("value {raw:?} is not a non-negative integer"));
            None
        }
    }
}

/// Reads the `WCOJ_TRACE` trace-level knob (`off`/`0`, `summary`/`1`,
/// `verbose`/`2` — see [`TraceLevel::parse`]). Unset → `None`; malformed
/// → `None` **plus** the same one-time warning and
/// [`malformed_env_warnings`] entry as every other `WCOJ_*` knob.
/// `wcoj-service` applies the result to the global
/// [`trace`](crate::trace) ring at construction.
#[must_use]
pub fn trace_level_from_env() -> Option<TraceLevel> {
    let raw = std::env::var("WCOJ_TRACE").ok()?;
    let level = TraceLevel::parse(&raw);
    if level.is_none() {
        note_malformed_env(
            "WCOJ_TRACE",
            &format!("value {raw:?} is not off/summary/verbose (or 0/1/2)"),
        );
    }
    level
}
