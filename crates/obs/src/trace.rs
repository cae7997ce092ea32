//! The trace event ring: a bounded, process-wide log of scheduler
//! decisions, cheap enough to leave compiled in.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// How much the tracer records. Stored as one atomic byte; checking it
/// costs a single relaxed load, so [`TraceLevel::Off`] (the default) makes
/// every `record` call effectively free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
#[repr(u8)]
pub enum TraceLevel {
    /// Record nothing (default).
    #[default]
    Off = 0,
    /// Scheduler *decisions*: admit, shed, cancel, skip, heavy-split,
    /// query finish.
    Summary = 1,
    /// Decisions plus per-task events (ring rotation, task runs).
    Verbose = 2,
}

impl TraceLevel {
    /// Parses a `WCOJ_TRACE` value: `off`/`0`, `summary`/`1`,
    /// `verbose`/`2` (trimmed, ASCII case-insensitive). `None` for
    /// anything else — the caller decides how to warn
    /// ([`env::trace_level_from_env`](crate::env::trace_level_from_env)
    /// routes this through the warn-once malformed-env registry).
    #[must_use]
    pub fn parse(s: &str) -> Option<TraceLevel> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("off") || s == "0" {
            Some(TraceLevel::Off)
        } else if s.eq_ignore_ascii_case("summary") || s == "1" {
            Some(TraceLevel::Summary)
        } else if s.eq_ignore_ascii_case("verbose") || s == "2" {
            Some(TraceLevel::Verbose)
        } else {
            None
        }
    }

    fn from_u8(v: u8) -> TraceLevel {
        match v {
            1 => TraceLevel::Summary,
            2 => TraceLevel::Verbose,
            _ => TraceLevel::Off,
        }
    }
}

/// One scheduler decision. Every variant is `Copy` with inline integer
/// payloads — recording allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A query was admitted and its task ring scheduled (summary).
    Admit {
        /// Service-assigned query id (unique per process).
        query: u64,
        /// Shard tasks in the ring (`0` for a degenerate submit-time
        /// resolution).
        tasks: u32,
    },
    /// Admission control shed a submission (summary).
    Shed {
        /// Queries in flight at the moment of the shed.
        in_flight: u32,
    },
    /// A pending handle was dropped: the query is cancelled (summary).
    Cancel {
        /// The cancelled query.
        query: u64,
    },
    /// A worker popped a task of a cancelled query and skipped the engine
    /// run (summary).
    SkipTask {
        /// The cancelled query.
        query: u64,
        /// The skipped shard's slot index.
        slot: u32,
    },
    /// The planner split a heavy root value into anchor sub-shards
    /// (summary).
    HeavySplit {
        /// Heavy root values that were split.
        values: u32,
        /// Total sub-shard tasks they produced.
        sub_shards: u32,
    },
    /// Round-robin rotation: a query's ring went back for its next turn
    /// (verbose).
    RingRotate {
        /// The rotated query.
        query: u64,
        /// Tasks still queued in its ring.
        remaining: u32,
    },
    /// A shard task finished running on a worker (verbose).
    TaskRun {
        /// The task's query.
        query: u64,
        /// The shard's slot index.
        slot: u32,
        /// Engine run time in microseconds.
        run_us: u64,
    },
    /// A query's last task drained — it no longer occupies a slot
    /// (summary).
    Finish {
        /// The finished query.
        query: u64,
    },
}

/// Capacity of the [`trace`] ring: old events are overwritten (and
/// counted as dropped) past this bound, so tracing can stay on forever
/// without growing memory.
pub const TRACE_RING_CAPACITY: usize = 4096;

struct RingState {
    buf: VecDeque<TraceEvent>,
    dropped: u64,
}

/// A bounded ring of [`TraceEvent`]s. `record` is one atomic load when
/// the level gates it off; when on, one short mutex section pushing a
/// `Copy` event (no allocation after the ring's first lap).
pub struct TraceRing {
    level: AtomicU8,
    state: Mutex<RingState>,
}

impl Default for TraceRing {
    fn default() -> Self {
        TraceRing::new()
    }
}

impl TraceRing {
    /// An empty ring at [`TraceLevel::Off`].
    #[must_use]
    pub const fn new() -> TraceRing {
        TraceRing {
            level: AtomicU8::new(0),
            state: Mutex::new(RingState {
                buf: VecDeque::new(),
                dropped: 0,
            }),
        }
    }

    /// The current level.
    #[must_use]
    pub fn level(&self) -> TraceLevel {
        TraceLevel::from_u8(self.level.load(Ordering::Relaxed))
    }

    /// Sets the level (tests and the `WCOJ_TRACE` env hook).
    pub fn set_level(&self, level: TraceLevel) {
        self.level.store(level as u8, Ordering::Relaxed);
    }

    /// `true` iff events tagged `at` are currently recorded. One relaxed
    /// atomic load — callers may use it to skip *computing* an event's
    /// payload, not just recording it.
    #[must_use]
    pub fn enabled(&self, at: TraceLevel) -> bool {
        at != TraceLevel::Off && self.level() >= at
    }

    /// Records `event` if the ring's level admits events tagged `at`.
    pub fn record(&self, at: TraceLevel, event: TraceEvent) {
        if !self.enabled(at) {
            return;
        }
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if state.buf.len() == TRACE_RING_CAPACITY {
            state.buf.pop_front();
            state.dropped += 1;
        }
        state.buf.push_back(event);
    }

    /// Takes every buffered event (oldest first), leaving the ring empty.
    #[must_use]
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state.buf.drain(..).collect()
    }

    /// Events overwritten (lost) since the last construction — a nonzero
    /// value tells a consumer its `drain` window was too slow for the
    /// event rate.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .dropped
    }

    /// Buffered events right now.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .buf
            .len()
    }

    /// `true` iff no events are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The process-wide trace ring (off until someone raises the level —
/// `wcoj-service` does so from `WCOJ_TRACE` at construction).
#[must_use]
pub fn trace() -> &'static TraceRing {
    static TRACE: TraceRing = TraceRing::new();
    &TRACE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing() {
        assert_eq!(TraceLevel::parse("off"), Some(TraceLevel::Off));
        assert_eq!(TraceLevel::parse(" 0 "), Some(TraceLevel::Off));
        assert_eq!(TraceLevel::parse("Summary"), Some(TraceLevel::Summary));
        assert_eq!(TraceLevel::parse("1"), Some(TraceLevel::Summary));
        assert_eq!(TraceLevel::parse("VERBOSE"), Some(TraceLevel::Verbose));
        assert_eq!(TraceLevel::parse("2"), Some(TraceLevel::Verbose));
        assert_eq!(TraceLevel::parse("loud"), None);
        assert_eq!(TraceLevel::parse("3"), None);
    }

    #[test]
    fn gating_and_drain_order() {
        let ring = TraceRing::new();
        assert_eq!(ring.level(), TraceLevel::Off);
        // off: nothing is recorded at any tag
        ring.record(TraceLevel::Summary, TraceEvent::Finish { query: 1 });
        assert!(ring.is_empty());
        assert!(!ring.enabled(TraceLevel::Summary));
        assert!(!ring.enabled(TraceLevel::Off), "Off is never 'enabled'");

        ring.set_level(TraceLevel::Summary);
        assert!(ring.enabled(TraceLevel::Summary));
        assert!(!ring.enabled(TraceLevel::Verbose));
        ring.record(
            TraceLevel::Summary,
            TraceEvent::Admit { query: 7, tasks: 3 },
        );
        ring.record(
            TraceLevel::Verbose,
            TraceEvent::RingRotate {
                query: 7,
                remaining: 2,
            },
        ); // filtered
        ring.record(TraceLevel::Summary, TraceEvent::Finish { query: 7 });
        let events = ring.drain();
        assert_eq!(
            events,
            vec![
                TraceEvent::Admit { query: 7, tasks: 3 },
                TraceEvent::Finish { query: 7 },
            ],
            "oldest first, verbose filtered at summary level"
        );
        assert!(ring.is_empty(), "drain empties the ring");
    }

    #[test]
    fn ring_is_bounded() {
        let ring = TraceRing::new();
        ring.set_level(TraceLevel::Verbose);
        for query in 0..(TRACE_RING_CAPACITY as u64 + 10) {
            ring.record(TraceLevel::Summary, TraceEvent::Finish { query });
        }
        assert_eq!(ring.len(), TRACE_RING_CAPACITY);
        assert_eq!(ring.dropped(), 10, "overwrites are counted");
        let events = ring.drain();
        // the 10 oldest were overwritten
        assert_eq!(events[0], TraceEvent::Finish { query: 10 });
        assert_eq!(events.len(), TRACE_RING_CAPACITY);
    }
}
