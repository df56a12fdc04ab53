//! Differential harness for the deadline-aware batch scheduler.
//!
//! The scheduler's contract (see `sgq::sched`): with slack deadlines, a
//! scheduled response is **bit-identical** to the direct, unscheduled
//! `SgqEngine` over the frozen graph; under deadline pressure every
//! response is either exact, a *flagged* TBQ degradation, or an explicit
//! shed — never a silently wrong answer. The workloads are the seeded `datagen::workload`
//! streams (dataset seeds fix both graph and queries), so every run
//! compares the same scheduled traffic against the same reference answers.

use datagen::dataset::{BenchDataset, DatasetSpec};
use datagen::workload::{chain_query, produced_workload, q117_variants, soccer_query};
use embedding::PredicateSpace;
use kgraph::VersionedGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sgq::sched::{BatchScheduler, Priority, SchedOutcome, SchedResponse};
use sgq::{FinalMatch, LiveQueryService, QueryGraph, SchedConfig, SgqConfig, SgqEngine};
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
fn idle_service<'a>(ds: &'a BenchDataset, space: &'a PredicateSpace) -> LiveQueryService<'a> {
    LiveQueryService::new(
        Arc::new(VersionedGraph::new(ds.graph.clone())),
        space,
        &ds.library,
        config(),
    )
}

/// The direct, unscheduled engine's answers over the frozen graph.
fn direct_answers(
    ds: &BenchDataset,
    space: &PredicateSpace,
    queries: &[QueryGraph],
) -> Vec<Vec<FinalMatch>> {
    let engine = SgqEngine::new(&ds.graph, space, &ds.library, config());
    queries
        .iter()
        .map(|q| engine.query(q).expect("direct path answers").matches)
        .collect()
}

/// The full seeded differential workload: the bulk produced stream, the
/// four Fig. 1 Q117 variants, a Fig. 3(a) chain and a Fig. 16 soccer query
/// — simple through complex decompositions.
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

/// With no deadline pressure, every scheduled answer must be bit-identical
/// to the direct engine path — across many concurrent clients, arbitrary
/// per-client orderings, and batched (coalesced) execution.
#[test]
fn scheduled_equals_direct_when_deadlines_are_slack() {
    let (ds, space) = setup();
    let service = idle_service(&ds, &space);
    let queries = workload(&ds);
    let baseline = direct_answers(&ds, &space, &queries);

    let stats = BatchScheduler::serve(&service, SchedConfig::default(), |handle| {
        std::thread::scope(|s| {
            for client in 0..8u64 {
                let handle = &handle;
                let queries = &queries;
                let baseline = &baseline;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0x5eed_c11e + client);
                    for _ in 0..2 * queries.len() {
                        let idx = rng.random_range(0..queries.len());
                        let response = handle.query_within(
                            &queries[idx],
                            Duration::from_secs(30),
                            Priority::Normal,
                        );
                        match response.outcome {
                            SchedOutcome::Exact(r) => assert_eq!(
                                r.matches, baseline[idx],
                                "scheduled answer diverged from the direct path on query {idx}"
                            ),
                            other => {
                                panic!("slack deadline must never shed or degrade, got {other:?}")
                            }
                        }
                    }
                });
            }
        });
        handle.stats()
    })
    .expect("valid scheduler config");

    let expected = 8 * 2 * queries.len() as u64;
    assert_eq!(stats.submitted, expected);
    assert_eq!(stats.exact, expected);
    assert_eq!(stats.degraded + stats.shed() + stats.failed, 0);
    // Every request either flowed through a batch or was served from the
    // answer cache — and the per-response assertions above compared every
    // cache-served answer bit-identically against the direct path.
    assert_eq!(
        stats.batched_requests + stats.answer_cache_hits,
        expected,
        "every admitted request flows through a batch or the answer cache"
    );
    assert!(
        stats.answer_cache_hits > 0,
        "8 clients replaying a fixed workload must repeat queries: {stats:?}"
    );
}

/// Under pressure — a mix of slack, tight and already-expired deadlines at
/// 16 clients — every response must be exact (and then bit-identical),
/// a flagged degradation, or an explicit shed. Nothing may fail, hang, or
/// come back wrong without a flag.
#[test]
fn under_pressure_every_response_is_exact_flagged_or_shed() {
    let (ds, space) = setup();
    let service = idle_service(&ds, &space);
    let queries = workload(&ds);
    let baseline = direct_answers(&ds, &space, &queries);

    // Deadline schedule per request: slack, tight (microseconds — around
    // the per-query cost, forcing degradations and unmeetable sheds on
    // loaded runs), and instantly-expired.
    let deadline_for = |tick: u64| -> Duration {
        match tick % 4 {
            0 => Duration::from_secs(30),    // slack
            1 => Duration::from_micros(400), // tight
            2 => Duration::from_micros(50),  // tighter than the margin
            _ => Duration::ZERO,             // already expired
        }
    };

    let (outcomes, stats) = BatchScheduler::serve(&service, SchedConfig::default(), |handle| {
        let collected: Vec<(usize, SchedResponse)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..16u64)
                .map(|client| {
                    let handle = &handle;
                    let queries = &queries;
                    s.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(0xdead_1225 + client);
                        let mut out = Vec::new();
                        for tick in 0..queries.len() as u64 {
                            let idx = rng.random_range(0..queries.len());
                            let priority = match tick % 3 {
                                0 => Priority::High,
                                1 => Priority::Normal,
                                _ => Priority::Low,
                            };
                            let response =
                                handle.query_within(&queries[idx], deadline_for(tick), priority);
                            out.push((idx, response));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        (collected, handle.stats())
    })
    .expect("valid scheduler config");

    let mut exact = 0u64;
    let mut degraded = 0u64;
    let mut shed = 0u64;
    for (idx, response) in &outcomes {
        match &response.outcome {
            SchedOutcome::Exact(r) => {
                exact += 1;
                assert_eq!(
                    r.matches, baseline[*idx],
                    "an Exact response under pressure must still be bit-identical"
                );
            }
            SchedOutcome::Degraded { result, bound } => {
                degraded += 1;
                // The degradation is flagged and its budget was a real
                // reduction, not a pass-through of a slack deadline.
                assert!(*bound <= Duration::from_micros(400), "bound {bound:?}");
                assert!(result.matches.len() <= config().k);
            }
            SchedOutcome::Shed(_) => shed += 1,
            SchedOutcome::Failed(e) => panic!("no request may fail under pressure: {e}"),
        }
    }
    let total = 16 * queries.len() as u64;
    assert_eq!(exact + degraded + shed, total, "every request resolves");
    assert_eq!(stats.exact, exact);
    assert_eq!(stats.degraded, degraded);
    assert_eq!(stats.shed(), shed);
    assert!(
        shed >= total / 4,
        "the zero-deadline quarter must shed: {shed} sheds of {total}"
    );
    assert!(exact > 0, "slack quarter must produce exact answers");
}

/// The live wiring: scheduled traffic over a `LiveQueryService` while a
/// writer commits underneath. Epoch adoption must drain in-flight batches
/// cleanly (no failures, no hangs), batches never mix epochs (proptested
/// separately at the Batcher level), and once the writer quiesces the
/// scheduled answers equal the direct live path.
#[test]
fn live_scheduler_drains_epoch_adoption_cleanly() {
    let (ds, space) = setup();
    let versioned = Arc::new(VersionedGraph::new(ds.graph.clone()));
    let service = LiveQueryService::new(Arc::clone(&versioned), &space, &ds.library, config());
    let queries = workload(&ds);

    let stats = BatchScheduler::serve(&service, SchedConfig::default(), |handle| {
        std::thread::scope(|s| {
            // Writer: commits land mid-traffic; each one publishes a new
            // epoch the scheduler must adopt between batches.
            s.spawn(|| {
                for i in 0..40 {
                    versioned.insert_triple(
                        (format!("Car_live_{i}").as_str(), "Automobile"),
                        "assembly",
                        ("Country_1", "Country"),
                    );
                    versioned.commit();
                    std::thread::yield_now();
                }
            });
            for client in 0..6u64 {
                let handle = &handle;
                let queries = &queries;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0x11fe + client);
                    for _ in 0..queries.len() {
                        let idx = rng.random_range(0..queries.len());
                        let response = handle.query_within(
                            &queries[idx],
                            Duration::from_secs(30),
                            Priority::Normal,
                        );
                        assert!(
                            matches!(response.outcome, SchedOutcome::Exact(_)),
                            "slack live traffic must stay exact, got {:?}",
                            response.outcome
                        );
                    }
                });
            }
        });
        handle.stats()
    })
    .expect("valid scheduler config");
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.shed(), 0);

    // Quiesced: scheduled == direct live path, on the final epoch.
    service.refresh();
    assert_eq!(service.published_epoch(), 40);
    let baseline: Vec<Vec<FinalMatch>> = queries
        .iter()
        .map(|q| service.query(q).expect("live direct path").matches)
        .collect();
    BatchScheduler::serve(&service, SchedConfig::default(), |handle| {
        for (idx, q) in queries.iter().enumerate() {
            let response = handle.query_within(q, Duration::from_secs(30), Priority::Normal);
            match response.outcome {
                SchedOutcome::Exact(r) => assert_eq!(
                    r.matches, baseline[idx],
                    "quiesced scheduled live answer diverged on query {idx}"
                ),
                other => panic!("expected exact, got {other:?}"),
            }
        }
    })
    .expect("valid scheduler config");
}
