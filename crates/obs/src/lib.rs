//! # wcoj-obs — std-only observability primitives
//!
//! The worst-case-optimal guarantees of the NPRR engine (PODS 2012) are
//! *work bounds*; this crate makes the work **visible**. It sits at the
//! bottom of the workspace dependency graph — no dependencies at all,
//! `std` only — so every layer (`wcoj-service`'s planner and scheduler,
//! the HTTP server, the bench harness) can instrument itself without
//! cycles.
//!
//! Four pieces:
//!
//! * [`metrics`] — a process-wide [`Registry`] of atomic [`Counter`]s,
//!   [`Gauge`]s, and fixed-bucket log2 [`Histogram`]s, with a
//!   [`Registry::render_prometheus`] text exposition (validated by
//!   [`check_exposition`]). Hot-path cost is one atomic RMW per update;
//!   registration (the only lock) happens once per metric name.
//! * [`trace`] — a bounded, lock-cheap [`TraceRing`] of zero-allocation
//!   [`TraceEvent`]s recording scheduler decisions (admit / shed /
//!   cancel / skip, ring rotation, heavy-split). Levels: off / summary /
//!   verbose; when off, recording costs a single atomic load.
//! * [`percentile_f64`] / [`percentile_u64`] — the **one** percentile
//!   definition (nearest-rank) shared by raw-sample consumers (harness
//!   experiment e19) and [`Histogram::quantile`] (e20), so the two can
//!   never disagree about what "p99" means.
//! * [`env`] — the `WCOJ_*` environment-knob parsers and their warn-once
//!   registry for malformed values ([`env::malformed_env_warnings`]).
//!
//! Instrumentation contract (enforced by the users of this crate, stated
//! here as the design rule): *zero allocation on the hot path, timestamps
//! at task granularity only — never per tuple.*

pub mod env;
mod metrics;
mod trace;

pub use metrics::{
    check_exposition, global, Counter, Gauge, Histogram, HistogramSnapshot, Registry,
    HISTOGRAM_BUCKETS,
};
pub use trace::{trace, TraceEvent, TraceLevel, TraceRing, TRACE_RING_CAPACITY};

/// Nearest-rank percentile of an **ascending-sorted** slice: the smallest
/// element whose rank is ≥ `⌈q·n⌉` (with `q` in `[0, 1]`). This is the
/// workspace-wide percentile definition — [`Histogram::quantile`] computes
/// the same rank over bucket counts, so histogram and raw-sample
/// percentiles agree up to bucket resolution.
///
/// Unlike the interpolating `(n-1)·q` floor-index formula it replaced in
/// the bench harness, nearest-rank is unbiased at small `n`: the p99 of 10
/// samples is the maximum (rank `⌈9.9⌉ = 10`), not the second-largest.
///
/// Returns `0.0` for an empty slice; `q ≤ 0` yields the minimum, `q ≥ 1`
/// the maximum.
#[must_use]
pub fn percentile_f64(sorted: &[f64], q: f64) -> f64 {
    let Some(&last) = sorted.last() else {
        return 0.0;
    };
    if q >= 1.0 {
        return last;
    }
    let rank = (q.max(0.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// [`percentile_f64`] for integer samples (same nearest-rank definition).
#[must_use]
pub fn percentile_u64(sorted: &[u64], q: f64) -> u64 {
    let Some(&last) = sorted.last() else {
        return 0;
    };
    if q >= 1.0 {
        return last;
    }
    let rank = (q.max(0.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank_small_n() {
        let v: Vec<u64> = (1..=10).collect();
        // the historical bias case: p99 of 10 samples is the max
        assert_eq!(percentile_u64(&v, 0.99), 10);
        assert_eq!(percentile_u64(&v, 0.50), 5); // ⌈5.0⌉ = rank 5
        assert_eq!(percentile_u64(&v, 0.51), 6); // ⌈5.1⌉ = rank 6
        assert_eq!(percentile_u64(&v, 0.0), 1);
        assert_eq!(percentile_u64(&v, 1.0), 10);
        assert_eq!(percentile_u64(&[], 0.5), 0);
        assert_eq!(percentile_u64(&[7], 0.99), 7);
        let f: Vec<f64> = v.iter().map(|&x| x as f64).collect();
        assert_eq!(percentile_f64(&f, 0.99), 10.0);
        assert_eq!(percentile_f64(&[], 0.5), 0.0);
    }

    /// Serialises the tests that mutate or read `WCOJ_*` process env
    /// vars: concurrent `setenv`/`getenv` is undefined behaviour at the
    /// libc level, and an unsynchronised reader would also observe the
    /// mutating test's temporary values.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn malformed_env_knobs_warn_and_fall_back() {
        // A typo like WCOJ_QUEUE_DEPTH=eight must not silently revert to
        // the default: the knob falls back AND the key is registered in
        // the one-time warning list. Valid values still apply.
        use env::{malformed_env_warnings, note_malformed_env, read_env_usize};
        let _env = ENV_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let keys = [
            "WCOJ_QUEUE_DEPTH",
            "WCOJ_CONN_THREADS",
            "WCOJ_TRACE",
            "WCOJ_BIND",
        ];
        std::env::set_var("WCOJ_QUEUE_DEPTH", "-3");
        std::env::set_var("WCOJ_CONN_THREADS", "many");
        std::env::set_var("WCOJ_TRACE", "loud");
        std::env::set_var("WCOJ_BIND", "not-an-address");
        // Two reads of every knob: the second must add no new warning.
        for _ in 0..2 {
            assert_eq!(read_env_usize("WCOJ_QUEUE_DEPTH").unwrap_or(0), 0);
            assert_eq!(read_env_usize("WCOJ_CONN_THREADS").unwrap_or(4), 4);
            assert_eq!(env::trace_level_from_env(), None);
            // Non-numeric knobs (the server's socket address) report
            // through the same registry.
            let raw = std::env::var("WCOJ_BIND").unwrap();
            if raw.parse::<std::net::SocketAddr>().is_err() {
                note_malformed_env("WCOJ_BIND", "not a socket address");
            }
        }
        for key in keys {
            std::env::remove_var(key);
        }
        let warned = malformed_env_warnings();
        for key in keys {
            assert_eq!(
                warned.iter().filter(|k| k.as_str() == key).count(),
                1,
                "{key} warned exactly once (once per key per process): {warned:?}"
            );
        }
        // Unset knobs read as None, and a well-formed override applies.
        assert_eq!(read_env_usize("WCOJ_QUEUE_DEPTH"), None);
        std::env::set_var("WCOJ_QUEUE_DEPTH", " 5 ");
        let depth = read_env_usize("WCOJ_QUEUE_DEPTH");
        std::env::remove_var("WCOJ_QUEUE_DEPTH");
        assert_eq!(depth, Some(5));
    }

    #[test]
    fn trace_env_knob_parses_and_warns() {
        let _env = ENV_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        std::env::remove_var("WCOJ_TRACE");
        assert_eq!(env::trace_level_from_env(), None, "unset → None");
        std::env::set_var("WCOJ_TRACE", "summary");
        assert_eq!(env::trace_level_from_env(), Some(TraceLevel::Summary));
        std::env::set_var("WCOJ_TRACE", "2");
        assert_eq!(env::trace_level_from_env(), Some(TraceLevel::Verbose));
        // malformed: falls back AND lands in the warn-once registry, like
        // every other WCOJ_* knob
        std::env::set_var("WCOJ_TRACE", "loud");
        assert_eq!(env::trace_level_from_env(), None);
        std::env::remove_var("WCOJ_TRACE");
        assert_eq!(
            env::malformed_env_warnings()
                .iter()
                .filter(|k| k.as_str() == "WCOJ_TRACE")
                .count(),
            1,
            "fallback is signalled, not silent"
        );
    }

    #[test]
    fn histogram_and_raw_percentile_agree() {
        // Samples placed exactly on bucket upper bounds: the histogram
        // quantile must reproduce the raw nearest-rank percentile.
        let samples: Vec<u64> = vec![0, 1, 1, 3, 3, 3, 7, 7, 15, 31];
        let h = Histogram::new();
        for &s in &samples {
            h.observe(s);
        }
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            assert_eq!(
                h.quantile(q),
                percentile_u64(&samples, q),
                "q={q} disagrees"
            );
        }
    }
}
