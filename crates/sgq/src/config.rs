//! Engine and scheduler configuration.

use serde::{Deserialize, Serialize};
use std::time::Duration;

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

/// Which implementation the vocabulary-scale scans (seed-time `m(u)`
/// scoring, per-edge weight accumulation) run on. Both produce
/// bit-identical answers, frontiers and stats — proven by
/// `tests/kernel_differential.rs` — so this is a debugging / benchmarking
/// knob, not a semantics switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ScanMode {
    /// Chunked branchless kernels (`embedding::kernels`): two-pass f32
    /// prefilter + exact rescore at the seed, precomputed-`ln` lookups
    /// during expansion, early exit at the row maximum.
    #[default]
    Kernel,
    /// The pre-kernel scalar loops: per-edge `w.ln()`, full branchy f64
    /// adjacency scans. Reference half of `tests/kernel_differential.rs`.
    ScalarReference,
}

/// Parameters of the SGQ engine.
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
    /// Matches fetched per sub-query per round before (re)trying the TA
    /// assembly; the engine doubles this until TA certifies top-k or all
    /// searches are exhausted (§V-B Remark 2: "we usually need more than k
    /// matches collected for each gᵢ").
    pub batch: usize,
    /// Hard cap on matches collected per sub-query, bounding worst-case work
    /// on pathological graphs. 0 = unbounded.
    pub max_matches_per_subquery: usize,
    /// Worker threads in the engine-lifetime pool running sub-query
    /// searches. 0 = one per available core (capped at 16). Read once at
    /// engine construction — changing it later via
    /// [`crate::SgqEngine::set_config`] does *not* resize the pool.
    #[serde(default)]
    pub workers: usize,
    /// Scan-kernel selection for the vocabulary-scale hot loops. Answers
    /// are bit-identical either way; see [`ScanMode`].
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
            batch: 0, // 0 → derived from k at query time
            max_matches_per_subquery: 100_000,
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

    /// Effective per-round batch size (defaults to `2k`).
    pub fn effective_batch(&self) -> usize {
        if self.batch == 0 {
            (self.k * 2).max(8)
        } else {
            self.batch
        }
    }
}

/// Parameters of the deadline-aware batch scheduler
/// ([`crate::sched::BatchScheduler`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedConfig {
    /// Bounded admission-queue capacity. Arrivals beyond it shed a
    /// lower-priority queued request or are shed themselves.
    pub queue_capacity: usize,
    /// Most requests one batch may coalesce (one prepared execution
    /// answers them all).
    pub max_batch: usize,
    /// Concurrent batches in flight on the worker pool. `0` = one per
    /// pool worker.
    pub max_inflight: usize,
    /// Fixed per-request overhead floor (dispatch, preparation, fan-out).
    /// A request whose remaining time is inside this margin is provably
    /// unmeetable and shed; degraded executions get their bound cut by it.
    pub shed_margin: Duration,
    /// Alert ratio handed to degraded (TBQ) executions — assembly starts
    /// at `bound · ratio`, like the paper's 80%.
    pub degrade_alert_ratio: f64,
    /// Per-match TA cost `t` for the Algorithm-3 estimator and the
    /// admission cost model. The default is a fixed 300 ns, not calibrated
    /// at runtime; [`crate::timebound::calibrate_ta_cost`] measures the
    /// host's figure.
    pub per_match_ta_cost: Duration,
    /// Entries kept in the prepared-plan and cost-profile caches.
    pub plan_cache_capacity: usize,
    /// Entries kept in the epoch-keyed semantic answer cache in front of
    /// batching ([`crate::sched`] module docs): certified results are
    /// reused for repeat signatures — exactly, or by dominance-trimming a
    /// cached superset answer (entry τ = request τ, entry k ≥ request k).
    /// `0` disables the cache. A serialized config must carry the field:
    /// the one default is [`SchedConfig::default`]'s 256. Answers are
    /// bit-identical either way (`tests/cache_differential.rs`).
    pub answer_cache_capacity: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            max_batch: 64,
            max_inflight: 0,
            shed_margin: Duration::from_micros(200),
            degrade_alert_ratio: 0.8,
            per_match_ta_cost: Duration::from_nanos(300),
            plan_cache_capacity: 256,
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
        if self.max_batch == 0 {
            return Err(InvalidConfig("max_batch must be at least 1".into()));
        }
        if !(0.0..=1.0).contains(&self.degrade_alert_ratio) || self.degrade_alert_ratio == 0.0 {
            return Err(InvalidConfig(format!(
                "degrade_alert_ratio must lie in (0,1], got {}",
                self.degrade_alert_ratio
            )));
        }
        if self.plan_cache_capacity == 0 {
            return Err(InvalidConfig(
                "plan_cache_capacity must be at least 1".into(),
            ));
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
        assert!(SchedConfig {
            max_batch: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SchedConfig {
            degrade_alert_ratio: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SchedConfig {
            degrade_alert_ratio: 1.2,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SchedConfig {
            plan_cache_capacity: 0,
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
        let old = r#"{
            "queue_capacity": 64, "max_batch": 8, "max_inflight": 0,
            "shed_margin": {"secs": 0, "nanos": 200000},
            "degrade_alert_ratio": 0.8,
            "per_match_ta_cost": {"secs": 0, "nanos": 300},
            "plan_cache_capacity": 16
        }"#;
        let err = serde_json::from_str::<SchedConfig>(old).unwrap_err();
        assert!(
            err.to_string()
                .contains("missing field `answer_cache_capacity`"),
            "{err}"
        );
    }

    #[test]
    fn effective_batch_derivation() {
        let c = SgqConfig {
            k: 10,
            batch: 0,
            ..Default::default()
        };
        assert_eq!(c.effective_batch(), 20);
        let c = SgqConfig {
            k: 1,
            batch: 0,
            ..Default::default()
        };
        assert_eq!(c.effective_batch(), 8);
        let c = SgqConfig {
            batch: 5,
            ..Default::default()
        };
        assert_eq!(c.effective_batch(), 5);
    }
}
