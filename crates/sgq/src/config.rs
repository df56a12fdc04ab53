//! Engine and scheduler configuration.

use serde::{Deserialize, Serialize};

/// How the decomposition chooses the pivot node (paper §VII-C, Table VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PivotStrategy {
    /// Dynamic-programming minimum search-space cost (paper Eq. 1) — the
    /// paper's `minCost` strategy.
    #[default]
    MinCost,
    /// Uniformly random target node (the paper's `Random` comparison
    /// strategy); seeded for reproducibility.
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// Force a particular target node as pivot (paper Table V compares
    /// pivot v1 against pivot v2 on the same query).
    Forced {
        /// Query-node id to use as pivot.
        node: u32,
    },
}

/// Which implementation the vocabulary-scale scans (Lemma 1's `m(u)` bound,
/// which scores the seed and every expansion, and the per-edge weight
/// accumulation) run on. Both produce bit-identical answers, frontiers and
/// stats — proven by `tests/kernel_differential.rs` — so this is a
/// debugging / benchmarking knob, not a semantics switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ScanMode {
    /// Precomputed-`ln` row lookups instead of per-edge `w.ln()`; one
    /// `m(u)` scan, which stops at the row maximum, for the seed and every
    /// expansion; and each `(node, segment)` key's bound computed at most
    /// once per search.
    #[default]
    Kernel,
    /// The straightforward scalar loops: per-edge `w.ln()`, a full
    /// adjacency scan and an `ln` per `m(u)`, at every visit. Reference
    /// half of `tests/kernel_differential.rs`.
    ScalarReference,
}

/// Hard cap on matches collected per sub-query, bounding worst-case work
/// on pathological graphs. Every final match takes a distinct pivot from
/// every sub-query stream, so it also caps the top-`k` an engine can
/// return, and [`SgqConfig::validate`] rejects a larger `k`.
pub(crate) const MAX_MATCHES_PER_SUBQUERY: usize = 100_000;

/// Parameters of the SGQ engine, fixed when the engine (or service) is
/// built.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SgqConfig {
    /// Number of final matches requested (top-k).
    pub k: usize,
    /// Path-semantic-similarity threshold τ below which partial paths are
    /// pruned (paper Definition 7; default 0.8 per §VII-A).
    pub tau: f64,
    /// User-desired path length n̂: the maximum number of knowledge-graph
    /// hops a single query edge may map to (edge-to-path mapping bound;
    /// default 4 per §VII-A).
    pub n_hat: usize,
    /// How the pivot node is selected.
    pub pivot: PivotStrategy,
    /// Worker threads in the engine-lifetime pool running sub-query
    /// searches. 0 = one per available core (capped at 16).
    #[serde(default)]
    pub workers: usize,
    /// Scan implementation of the `m(u)` bound and the per-edge weights.
    /// Answers are bit-identical either way; see [`ScanMode`].
    #[serde(default)]
    pub scan: ScanMode,
    /// Deterministic per-query phase-trace sampling: every N-th query gets a
    /// [`crate::trace::QueryTrace`] recorded into the owning service's trace
    /// sink and phase histograms. 0 (the default) disables sampling; 1
    /// traces every query. Tracing never affects answers — the untraced
    /// path is allocation-free and `tests/trace_differential.rs` proves
    /// bit-identical results either way.
    #[serde(default)]
    pub trace_sample_every: u64,
}

impl Default for SgqConfig {
    fn default() -> Self {
        Self {
            k: 10,
            tau: 0.8,
            n_hat: 4,
            pivot: PivotStrategy::MinCost,
            workers: 0, // 0 → available parallelism
            scan: ScanMode::Kernel,
            trace_sample_every: 0, // 0 → tracing off
        }
    }
}

impl SgqConfig {
    /// Validates parameter consistency.
    pub fn validate(&self) -> Result<(), crate::error::SgqError> {
        use crate::error::SgqError::InvalidConfig;
        if self.k == 0 {
            return Err(InvalidConfig("k must be at least 1".into()));
        }
        if self.k > MAX_MATCHES_PER_SUBQUERY {
            return Err(InvalidConfig(format!(
                "k must be at most {MAX_MATCHES_PER_SUBQUERY} (the per-sub-query match cap), got {}",
                self.k
            )));
        }
        if self.n_hat == 0 {
            return Err(InvalidConfig("n_hat must be at least 1".into()));
        }
        if !(0.0..=1.0).contains(&self.tau) {
            return Err(InvalidConfig(format!(
                "tau must lie in [0,1], got {}",
                self.tau
            )));
        }
        if self.workers > 1024 {
            return Err(InvalidConfig(format!(
                "workers must be at most 1024 (got {}); 0 selects available parallelism",
                self.workers
            )));
        }
        Ok(())
    }
}

/// Parameters of the deadline-aware batch scheduler
/// ([`crate::sched::BatchScheduler`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedConfig {
    /// Bounded admission-queue capacity. Arrivals beyond it shed a
    /// lower-priority queued request or are shed themselves.
    pub queue_capacity: usize,
    /// Concurrent batches in flight on the worker pool. `0` = one per
    /// pool worker.
    pub max_inflight: usize,
    /// Entries kept in the epoch-keyed semantic answer cache in front of
    /// batching ([`crate::sched`] module docs): certified results are
    /// reused for repeat queries at the epoch they were computed against.
    /// `0` disables the cache. A serialized config must carry the field:
    /// the one default is [`SchedConfig::default`]'s 256. Answers are
    /// bit-identical either way (`tests/cache_differential.rs`).
    pub answer_cache_capacity: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            max_inflight: 0,
            answer_cache_capacity: 256,
        }
    }
}

impl SchedConfig {
    /// Validates parameter consistency.
    pub fn validate(&self) -> Result<(), crate::error::SgqError> {
        use crate::error::SgqError::InvalidConfig;
        if self.queue_capacity == 0 {
            return Err(InvalidConfig("queue_capacity must be at least 1".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let c = SgqConfig::default();
        assert_eq!(c.tau, 0.8);
        assert_eq!(c.n_hat, 4);
        assert_eq!(c.pivot, PivotStrategy::MinCost);
    }

    #[test]
    fn validation_rejects_bad_params() {
        assert!(SgqConfig {
            k: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SgqConfig {
            n_hat: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SgqConfig {
            tau: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SgqConfig {
            tau: -0.1,
            ..Default::default()
        }
        .validate()
        .is_err());
        // No final match exists beyond the per-sub-query cap, so a larger
        // k is refused before anything sizes an allocation by it.
        assert!(SgqConfig {
            k: MAX_MATCHES_PER_SUBQUERY + 1,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SgqConfig {
            k: MAX_MATCHES_PER_SUBQUERY,
            ..Default::default()
        }
        .validate()
        .is_ok());
        assert!(SgqConfig::default().validate().is_ok());
    }

    #[test]
    fn sched_config_validation() {
        assert!(SchedConfig::default().validate().is_ok());
        assert!(SchedConfig {
            queue_capacity: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        // 0 answer-cache entries is valid: it disables the cache.
        assert!(SchedConfig {
            answer_cache_capacity: 0,
            ..Default::default()
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn answer_cache_capacity_serde_round_trip() {
        // A full round-trip preserves the capacity; a pre-cache config
        // with the field absent is rejected with a typed error instead of
        // silently turning the cache off.
        let full = serde_json::to_string(&SchedConfig::default()).unwrap();
        let parsed: SchedConfig = serde_json::from_str(&full).unwrap();
        assert_eq!(parsed.answer_cache_capacity, 256);
        let old = r#"{"queue_capacity": 64, "max_inflight": 0}"#;
        let err = serde_json::from_str::<SchedConfig>(old).unwrap_err();
        assert!(
            err.to_string()
                .contains("missing field `answer_cache_capacity`"),
            "{err}"
        );
    }
}
