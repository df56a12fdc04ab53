//! Per-query phase tracing.
//!
//! A [`QueryTrace`] records wall-clock time and work counters for each phase
//! of one query execution: **plan** (validation + decomposition + sub-query
//! plan construction), **seed** (A\* search construction, including the
//! seed-bound scoring of every candidate source), **expand** (the pooled
//! A\* expansion rounds), **merge** (threshold-algorithm assembly rounds),
//! and — when the query runs under the [`crate::sched::BatchScheduler`] —
//! **fan-out** (the time spent resolving one prepared execution to every
//! coalesced ticket).
//!
//! Tracing is opt-in per request ([`crate::SgqEngine::query_with_trace`],
//! [`crate::LiveQueryService::query_traced`]) or sampled deterministically
//! 1-in-N via [`crate::SgqConfig::trace_sample_every`]. The untraced path
//! takes one branch per phase and allocates nothing, and tracing never
//! feeds back into search decisions — `tests/trace_differential.rs` proves
//! answers are bit-identical with tracing on and off.

use serde::Serialize;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Wall-time and work counters for one traced query execution.
///
/// All durations are nanoseconds. `total_ns` covers the exact search
/// (seed + expand + merge); `plan_ns` and `fan_out_ns` are populated only
/// on paths that perform those phases (planning on non-prepared queries,
/// fan-out under the scheduler).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct QueryTrace {
    /// Validation, decomposition and sub-query plan construction.
    pub plan_ns: u64,
    /// A\* search construction: seed enumeration and seed-bound scoring.
    pub seed_ns: u64,
    /// Pooled A\* expansion rounds (sum over all rounds).
    pub expand_ns: u64,
    /// Threshold-algorithm assembly rounds (sum over all rounds).
    pub merge_ns: u64,
    /// Scheduler fan-out: resolving one prepared execution to every
    /// coalesced ticket in the batch.
    pub fan_out_ns: u64,
    /// End-to-end exact-search time (seed + expand + merge, one clock).
    pub total_ns: u64,
    /// Expansion/assembly rounds until the TA threshold certified.
    pub rounds: u64,
    /// A\* queue pops across all sub-query searches.
    pub popped: u64,
    /// A\* queue pushes across all sub-query searches.
    pub pushed: u64,
    /// Graph edges examined across all sub-query searches.
    pub edges_examined: u64,
    /// Sorted-access rows consumed by the threshold algorithm.
    pub ta_accesses: u64,
    /// Final matches returned.
    pub matches: u64,
    /// Sub-queries the plan decomposed into.
    pub subqueries: u64,
    /// Whether TA certified the top-k (vs. exhausting all streams).
    pub certified: bool,
    /// Graph epoch the query ran against (0 for static graphs).
    pub epoch: u64,
}

/// A bounded in-memory ring of recently sampled [`QueryTrace`]s.
///
/// Sampled traces (via [`crate::SgqConfig::trace_sample_every`]) land here;
/// explicitly traced calls return the trace to the caller instead. The ring
/// keeps the most recent [`TraceSink::capacity`] traces and counts everything
/// it has ever seen.
pub struct TraceSink {
    ring: Mutex<VecDeque<QueryTrace>>,
    capacity: usize,
    recorded: AtomicU64,
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::new(64)
    }
}

impl TraceSink {
    /// A sink retaining at most `capacity` traces.
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(64))),
            capacity: capacity.max(1),
            recorded: AtomicU64::new(0),
        }
    }

    /// Maximum number of retained traces.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total traces ever pushed (including those evicted from the ring).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed) // lint-ok(atomic-ordering): monotone telemetry counter; an off-by-a-push read is harmless
    }

    /// Number of traces currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pushes a trace, evicting the oldest if full.
    pub fn push(&self, trace: QueryTrace) {
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
        self.recorded.fetch_add(1, Ordering::Relaxed); // lint-ok(atomic-ordering): monotone telemetry counter; the ring mutex already orders push/recent pairs
    }

    /// The retained traces, oldest first.
    pub fn recent(&self) -> Vec<QueryTrace> {
        self.ring.lock().unwrap().iter().cloned().collect()
    }
}

/// Deterministic 1-in-N sampling: ticks an atomic counter and fires on every
/// `every`-th call (the first call fires, so a sample rate of 1 traces every
/// query). `every == 0` disables sampling without touching the counter.
#[inline]
pub(crate) fn tick_sampled(tick: &AtomicU64, every: u64) -> bool {
    // lint-ok(atomic-ordering): the RMW hands each caller a unique tick; sampling needs only that atomicity, no cross-variable ordering
    every != 0 && tick.fetch_add(1, Ordering::Relaxed).is_multiple_of(every)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_is_a_bounded_ring() {
        let sink = TraceSink::new(3);
        for i in 0..5u64 {
            sink.push(QueryTrace {
                rounds: i,
                ..Default::default()
            });
        }
        assert_eq!(sink.recorded(), 5);
        assert_eq!(sink.len(), 3);
        let rounds: Vec<u64> = sink.recent().iter().map(|t| t.rounds).collect();
        assert_eq!(rounds, vec![2, 3, 4]);
    }

    #[test]
    fn sampling_is_deterministic_one_in_n() {
        let tick = AtomicU64::new(0);
        let fired: Vec<bool> = (0..9).map(|_| tick_sampled(&tick, 3)).collect();
        assert_eq!(
            fired,
            vec![true, false, false, true, false, false, true, false, false]
        );

        let off = AtomicU64::new(0);
        assert!((0..10).all(|_| !tick_sampled(&off, 0)));
        // A disabled sampler never advances the counter.
        assert_eq!(off.load(Ordering::Relaxed), 0);

        let every = AtomicU64::new(0);
        assert!((0..10).all(|_| tick_sampled(&every, 1)));
    }

    #[test]
    fn trace_serialises_to_json() {
        let trace = QueryTrace {
            plan_ns: 1,
            seed_ns: 2,
            expand_ns: 3,
            merge_ns: 4,
            total_ns: 9,
            rounds: 1,
            matches: 5,
            certified: true,
            ..Default::default()
        };
        let json = serde_json::to_string(&trace).unwrap();
        assert!(json.contains("\"expand_ns\":3"));
        assert!(json.contains("\"certified\":true"));
    }
}
