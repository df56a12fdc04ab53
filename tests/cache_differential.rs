//! Differential harness for the epoch-keyed semantic answer cache.
//!
//! The cache's contract (see `sgq::sched::cache`): a cache hit returns the
//! *same certified answer* the engine would produce from scratch — bit
//! identical matches (pivots, scores, per-part path edge ids) and
//! identical deterministic execution statistics, because the cached value
//! IS a from-scratch execution, shared by `Arc`. A dominance hit trims a
//! cached (k, τ) superset down to a dominated (k' ≤ k, τ' = τ) request
//! and must equal a from-scratch run at (k', τ) — the prefix argument in
//! the module docs, checked here over a k grid at the donor's τ, with a
//! cross-τ negative control proving τ-mismatched requests execute from
//! scratch instead of trimming (an earlier τ-relaxed rule was refuted by
//! exactly this harness — see `sgq::sched::cache`). Stale epochs must
//! never escape: after a commit, a warm entry is invalidated and the
//! answer reflects the new epoch.

use datagen::dataset::{BenchDataset, DatasetSpec};
use datagen::workload::{chain_query, produced_workload, q117_variants, soccer_query};
use embedding::PredicateSpace;
use kgraph::VersionedGraph;
use sgq::sched::{BatchScheduler, Priority, QueryParams, SchedOutcome};
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
            done.answer_cache_served() - warm.answer_cache_served(),
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

/// Dominance serving over a k grid at the donor's τ: a request at
/// (k' ≤ k, same τ) answered by truncating the cached (k, τ) superset
/// equals an engine built from scratch at exactly (k', τ) — matches,
/// scores and per-part path edge ids. The trimmed response carries the
/// donor's deterministic stats (it *is* the donor execution, truncated),
/// which is asserted too. A cross-τ phase is the negative control: the
/// cache must refuse to serve across a τ change (the search's per-pivot
/// scores are τ-dependent — see `sgq::sched::cache`), so those requests
/// execute from scratch and still match their references bit for bit.
#[test]
fn dominance_trimmed_answers_equal_from_scratch() {
    let ds = DatasetSpec::tiny().build();
    let space = ds.oracle_space();
    // Donor (k = 20, τ = 0.3); the equal-τ prefix rule needs no
    // exhaustiveness — top-k' is a prefix of top-k for every k' ≤ k.
    let donor_config = config();
    let service = idle_service(&ds, &space, donor_config.clone());
    let queries: Vec<QueryGraph> = produced_workload(&ds)
        .into_iter()
        .map(|q| q.graph)
        .collect();
    assert!(!queries.is_empty());

    // Phase A: equal-τ, k-dominated — every request trims, engine untouched.
    let trim_grid: Vec<(usize, f64)> = vec![(1, 0.3), (3, 0.3), (10, 0.3)];
    // Phase B: τ differs from the cached donor — every request misses and
    // executes from scratch (each execution replaces the donor entry, so
    // the second point's τ must also differ from the *first* point's).
    let miss_grid: Vec<(usize, f64)> = vec![(20, 0.45), (1, 0.6)];

    let reference = |k: usize, tau: f64| {
        SgqEngine::new(
            &ds.graph,
            &space,
            &ds.library,
            SgqConfig {
                k,
                tau,
                ..donor_config.clone()
            },
        )
    };
    let trim_refs: Vec<SgqEngine<'_>> = trim_grid
        .iter()
        .map(|&(k, tau)| reference(k, tau))
        .collect();
    let miss_refs: Vec<SgqEngine<'_>> = miss_grid
        .iter()
        .map(|&(k, tau)| reference(k, tau))
        .collect();

    BatchScheduler::serve(&service, SchedConfig::default(), |handle| {
        // Warm the donors at the engine's own (k = 20, τ = 0.3).
        let donors: Vec<QueryResult> = queries
            .iter()
            .map(|q| {
                exact(
                    handle
                        .query_within(q, Duration::from_secs(30), Priority::Normal)
                        .outcome,
                )
            })
            .collect();
        let warm = handle.stats();

        for (g, &(k, tau)) in trim_grid.iter().enumerate() {
            for (idx, q) in queries.iter().enumerate() {
                let r = exact(
                    handle
                        .query_within_with(
                            q,
                            QueryParams {
                                k: Some(k),
                                tau: Some(tau),
                            },
                            Duration::from_secs(30),
                            Priority::Normal,
                        )
                        .outcome,
                );
                let from_scratch = trim_refs[g].query(q).expect("reference answers");
                assert_eq!(
                    r.matches, from_scratch.matches,
                    "trimmed answer diverged from a from-scratch (k={k}, τ={tau}) \
                     engine on query {idx}"
                );
                assert_eq!(
                    det_stats(&r),
                    det_stats(&donors[idx]),
                    "a trimmed response carries its donor's deterministic stats \
                     (query {idx}, k={k}, τ={tau})"
                );
            }
        }
        let trimmed = handle.stats();
        assert_eq!(
            trimmed.answer_cache_dominance_hits - warm.answer_cache_dominance_hits,
            (trim_grid.len() * queries.len()) as u64,
            "every equal-τ dominated request is served by trimming: {trimmed:?}"
        );
        assert_eq!(
            trimmed.batches, warm.batches,
            "the equal-τ sweep must never touch the engine"
        );

        // Phase B: a τ change must never be bridged by the cache.
        for (g, &(k, tau)) in miss_grid.iter().enumerate() {
            for (idx, q) in queries.iter().enumerate() {
                let r = exact(
                    handle
                        .query_within_with(
                            q,
                            QueryParams {
                                k: Some(k),
                                tau: Some(tau),
                            },
                            Duration::from_secs(30),
                            Priority::Normal,
                        )
                        .outcome,
                );
                let from_scratch = miss_refs[g].query(q).expect("reference answers");
                assert_eq!(
                    r.matches, from_scratch.matches,
                    "cross-τ answer diverged from a from-scratch (k={k}, τ={tau}) \
                     engine on query {idx}"
                );
                assert_eq!(
                    det_stats(&r),
                    det_stats(&from_scratch),
                    "a cross-τ request executes from scratch and carries its own \
                     stats (query {idx}, k={k}, τ={tau})"
                );
            }
        }
        let done = handle.stats();
        assert_eq!(
            done.answer_cache_dominance_hits, trimmed.answer_cache_dominance_hits,
            "a τ change must never be served by trimming: {done:?}"
        );
        assert_eq!(
            done.batched_requests - trimmed.batched_requests,
            (miss_grid.len() * queries.len()) as u64,
            "every cross-τ request executes from scratch: {done:?}"
        );
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
            hit.answer_cache_served() - warm.answer_cache_served(),
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
