//! Differential harness for the epoch-keyed semantic answer cache.
//!
//! The cache's contract (see `sgq::sched::cache`): a cache hit returns the
//! *same certified answer* the engine would produce from scratch — bit
//! identical matches (pivots, scores, per-part path edge ids) and
//! identical deterministic execution statistics, because the cached value
//! IS a from-scratch execution, shared by `Arc`. Stale epochs must never
//! escape: after a commit, a warm entry is invalidated and the answer
//! reflects the new epoch.

use datagen::dataset::{BenchDataset, DatasetSpec};
use datagen::workload::{chain_query, produced_workload, q117_variants, soccer_query};
use embedding::PredicateSpace;
use kgraph::VersionedGraph;
use sgq::sched::{BatchScheduler, Priority, SchedOutcome};
use sgq::{
    FinalMatch, LiveQueryService, QueryGraph, QueryResult, SchedConfig, SgqConfig, SgqEngine,
};
use std::sync::Arc;
use std::time::Duration;

fn config() -> SgqConfig {
    SgqConfig {
        k: 20,
        tau: 0.3,
        workers: 4,
        ..SgqConfig::default()
    }
}

fn setup() -> (BenchDataset, PredicateSpace) {
    let ds = DatasetSpec::dbpedia_like(1.0).build();
    let space = ds.oracle_space();
    (ds, space)
}

/// The service over a store that never commits.
fn idle_service<'a>(
    ds: &'a BenchDataset,
    space: &'a PredicateSpace,
    config: SgqConfig,
) -> LiveQueryService<'a> {
    LiveQueryService::new(
        Arc::new(VersionedGraph::new(ds.graph.clone())),
        space,
        &ds.library,
        config,
    )
}

/// The seeded differential workload, as in `scheduler_differential.rs`.
fn workload(ds: &BenchDataset) -> Vec<QueryGraph> {
    let mut queries: Vec<QueryGraph> = produced_workload(ds).into_iter().map(|q| q.graph).collect();
    queries.extend(
        q117_variants(ds, &ds.countries[0])
            .into_iter()
            .map(|q| q.graph),
    );
    queries.push(chain_query(ds, 0).graph);
    queries.push(soccer_query(ds, 0).0.graph);
    queries
}

/// The deterministic slice of [`sgq::QueryStats`] — everything except the
/// wall-clock fields (`elapsed_us`, `per_subquery_us`).
fn det_stats(r: &QueryResult) -> (usize, usize, usize, usize, usize, bool, usize, bool) {
    let s = &r.stats;
    (
        s.popped,
        s.pushed,
        s.tau_pruned,
        s.edges_examined,
        s.ta_accesses,
        s.ta_certified,
        s.subqueries,
        s.time_bound_hit,
    )
}

fn exact(outcome: SchedOutcome) -> QueryResult {
    match outcome {
        SchedOutcome::Exact(r) => r,
        other => panic!("slack deadline must stay exact, got {other:?}"),
    }
}

/// An exact cache hit is indistinguishable from a from-scratch execution:
/// identical matches *and* identical deterministic statistics — the hit
/// hands back the very result the engine certified on the first miss.
#[test]
fn exact_hits_are_bit_identical_including_deterministic_stats() {
    let (ds, space) = setup();
    let service = idle_service(&ds, &space, config());
    let queries = workload(&ds);
    let direct = SgqEngine::new(&ds.graph, &space, &ds.library, config());
    let baseline: Vec<QueryResult> = queries
        .iter()
        .map(|q| direct.query(q).expect("direct path answers"))
        .collect();

    BatchScheduler::serve(&service, SchedConfig::default(), |handle| {
        // Pass 1: cold cache — every answer already equals the direct path
        // (the scheduler differential's claim), and fills the cache.
        for (idx, q) in queries.iter().enumerate() {
            let r = exact(
                handle
                    .query_within(q, Duration::from_secs(30), Priority::Normal)
                    .outcome,
            );
            assert_eq!(r.matches, baseline[idx].matches, "cold pass, query {idx}");
        }
        let warm = handle.stats();

        // Pass 2: every request must be served from the cache, and each
        // response must be the from-scratch execution bit for bit.
        for (idx, q) in queries.iter().enumerate() {
            let r = exact(
                handle
                    .query_within(q, Duration::from_secs(30), Priority::Normal)
                    .outcome,
            );
            assert_eq!(r.matches, baseline[idx].matches, "warm pass, query {idx}");
            assert_eq!(
                det_stats(&r),
                det_stats(&baseline[idx]),
                "a cache hit must carry the from-scratch deterministic stats (query {idx})"
            );
        }
        let done = handle.stats();
        let second_pass = queries.len() as u64;
        assert_eq!(
            done.answer_cache_hits - warm.answer_cache_hits,
            second_pass,
            "every warm-pass request is cache-served: {done:?}"
        );
        assert_eq!(
            done.batches, warm.batches,
            "the warm pass must never touch the engine"
        );
        assert!(done.answer_cache_entries > 0);
    })
    .expect("valid scheduler config");
}

/// Epoch invalidation end to end: after a commit, warm entries are stale
/// and must never escape — every post-commit answer equals the direct
/// live path at the *new* epoch, and the stale counter records the
/// invalidations.
#[test]
fn stale_epoch_answers_never_escape_a_commit() {
    let (ds, space) = setup();
    let versioned = Arc::new(VersionedGraph::new(ds.graph.clone()));
    let service = LiveQueryService::new(Arc::clone(&versioned), &space, &ds.library, config());
    let queries = workload(&ds);

    BatchScheduler::serve(&service, SchedConfig::default(), |handle| {
        // Warm pass at epoch 0, then a hit pass proving warmth.
        let pre_commit: Vec<Vec<FinalMatch>> = queries
            .iter()
            .map(|q| {
                exact(
                    handle
                        .query_within(q, Duration::from_secs(30), Priority::Normal)
                        .outcome,
                )
                .matches
            })
            .collect();
        let warm = handle.stats();
        for q in &queries {
            exact(
                handle
                    .query_within(q, Duration::from_secs(30), Priority::Normal)
                    .outcome,
            );
        }
        let hit = handle.stats();
        assert_eq!(
            hit.answer_cache_hits - warm.answer_cache_hits,
            queries.len() as u64
        );

        // A commit that provably changes answers: tombstone an edge a
        // current top match traverses (its path cannot survive), plus some
        // fresh assembly edges. The epoch bumps; every cached entry is now
        // stale.
        let victim = pre_commit
            .iter()
            .find_map(|ms| {
                ms.first()
                    .and_then(|m| m.parts.first())
                    .and_then(|p| p.edges.first())
                    .copied()
            })
            .expect("workload must produce at least one matched path");
        assert!(versioned.delete_edge(victim), "victim edge is live");
        for i in 0..8 {
            versioned.insert_triple(
                (format!("Car_cachediff_{i}").as_str(), "Automobile"),
                "assembly",
                ("Country_1", "Country"),
            );
        }
        versioned.commit();
        service.refresh();
        let baseline: Vec<Vec<FinalMatch>> = queries
            .iter()
            .map(|q| service.query(q).expect("live direct path").matches)
            .collect();
        // The commit must actually move answers — otherwise the stale/fresh
        // comparison below could not distinguish the two epochs.
        assert_ne!(
            pre_commit, baseline,
            "the commit's assembly edges must change at least one answer"
        );

        for (idx, q) in queries.iter().enumerate() {
            let r = exact(
                handle
                    .query_within(q, Duration::from_secs(30), Priority::Normal)
                    .outcome,
            );
            assert_eq!(
                r.matches, baseline[idx],
                "post-commit answer must reflect the new epoch, never a stale \
                 cache entry (query {idx})"
            );
        }
        let done = handle.stats();
        assert!(
            done.answer_cache_stale > hit.answer_cache_stale,
            "the commit must invalidate warm entries: {done:?}"
        );
    })
    .expect("valid scheduler config");
}
