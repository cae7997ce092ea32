//! Sample statistics and the open-loop schedule.

use std::time::{Duration, Instant};

/// Fewest samples that must lie strictly beyond a reported tail
/// percentile for it to count as measured.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile (`p` in `(0, 1]`) of unsorted samples; `None`
/// when there are none.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), p) - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// The median (lower middle for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// How many of `n` samples lie beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// `true` iff percentile `p` of `n` samples has at least
/// [`TAIL_SAMPLES`] samples beyond it.
pub fn tail_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= TAIL_SAMPLES
}

/// Milliseconds in a duration, with full precision.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One operation of an open-loop run, timed from when it was due.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Send time minus due time: how late the generator ran.
    pub late: Duration,
    /// Completion time minus due time.
    pub latency: Duration,
}

/// Runs `op(i)` for `i = 0, 1, …, count - 1` on the schedule `due(i)` (an
/// offset from the start), stopping early once `due(i)` passes `until`. A call never starts
/// before it is due; when earlier calls overrun, it starts late, and its
/// latency still counts from the due time, so a stall shows in every
/// operation it delays.
pub fn open_loop<T>(
    start: Instant,
    count: usize,
    until: Duration,
    due: impl Fn(usize) -> Duration,
    mut op: impl FnMut(usize) -> T,
) -> Vec<(Timed, T)> {
    let mut out = Vec::new();
    for i in 0..count {
        let offset = due(i);
        if offset >= until {
            break;
        }
        let due_at = start + offset;
        let now = Instant::now();
        if now < due_at {
            std::thread::sleep(due_at - now);
        }
        let sent = Instant::now();
        let value = op(i);
        let done = Instant::now();
        out.push((
            Timed {
                late: sent.saturating_duration_since(due_at),
                latency: done.saturating_duration_since(due_at),
            },
            value,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p90 needs 100 samples, p99 needs 1,000.
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert!(tail_supported(100, 0.9));
        assert!(!tail_supported(99, 0.9));
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
        assert!(!tail_supported(0, 0.5));
    }

    #[test]
    fn open_loop_times_from_due_time() {
        // Operations are due every 5 ms; operation 2 stalls for 30 ms.
        // The stall delays operations 3.. and their latency counts the
        // wait, not just their own (instant) service time.
        let start = Instant::now();
        let runs = open_loop(
            start,
            usize::MAX,
            Duration::from_millis(50),
            |i| Duration::from_millis(5 * i as u64),
            |i| {
                if i == 2 {
                    std::thread::sleep(Duration::from_millis(30));
                }
                i
            },
        );
        assert_eq!(runs.len(), 10);
        let (stalled, _) = runs[2];
        assert!(stalled.latency >= Duration::from_millis(30));
        let (next, _) = runs[3];
        // Due at 15 ms, sent no earlier than 40 ms.
        assert!(next.late >= Duration::from_millis(20), "{next:?}");
        assert!(next.latency >= next.late);
        // Nothing starts early: the first operation is on time.
        assert!(runs[0].0.late < Duration::from_millis(5));
    }
}
