//! The shared query runtime under concurrent load: one engine, one
//! similarity-row cache, one persistent worker pool — many client threads.
//! Results must stay deterministic and bit-identical to single-threaded
//! execution, and prepared queries must replay exactly.

use semkg::datagen::workload::produced_workload;
use semkg::prelude::*;
use semkg::sgq::PreparedQuery;
use std::sync::Arc;
use std::time::Duration;

fn setup() -> (BenchDataset, PredicateSpace) {
    let ds = DatasetSpec::dbpedia_like(1.0).build();
    let space = ds.oracle_space();
    (ds, space)
}

fn engine<'a>(ds: &'a BenchDataset, space: &'a PredicateSpace, k: usize) -> SgqEngine<'a> {
    SgqEngine::new(
        &ds.graph,
        space,
        &ds.library,
        SgqConfig {
            k,
            ..SgqConfig::default()
        },
    )
}

/// N client threads sharing one engine must each observe exactly the
/// single-threaded answer for every workload query — same pivots, same
/// scores, same parts.
#[test]
fn concurrent_clients_get_identical_top_k() {
    let (ds, space) = setup();
    let engine = engine(&ds, &space, 30);
    let queries = produced_workload(&ds);
    let baseline: Vec<Vec<FinalMatch>> = queries
        .iter()
        .map(|q| engine.query(&q.graph).unwrap().matches)
        .collect();
    std::thread::scope(|s| {
        for client in 0..8 {
            let engine = &engine;
            let queries = &queries;
            let baseline = &baseline;
            s.spawn(move || {
                // Stagger starting points so clients overlap on different
                // queries at the same time.
                for i in 0..queries.len() {
                    let idx = (client + i) % queries.len();
                    let r = engine.query(&queries[idx].graph).unwrap();
                    assert_eq!(
                        r.matches, baseline[idx],
                        "client {client} diverged on workload query {idx}"
                    );
                }
            });
        }
    });
}

/// A prepared query re-executed any number of times returns bit-for-bit
/// the matches of a fresh `query()` call (timings aside, which is why the
/// comparison is on `matches`, the full structural payload).
#[test]
fn prepared_query_replays_bit_for_bit() {
    let (ds, space) = setup();
    let engine = engine(&ds, &space, 25);
    for q in &produced_workload(&ds) {
        let prepared: PreparedQuery = engine.prepare(&q.graph).unwrap();
        let fresh = engine.query(&q.graph).unwrap();
        for _ in 0..3 {
            let replay = engine.execute(&prepared).unwrap();
            assert_eq!(replay.matches, fresh.matches);
            assert_eq!(replay.stats.ta_certified, fresh.stats.ta_certified);
            assert_eq!(replay.stats.subqueries, fresh.stats.subqueries);
        }
    }
}

/// The similarity-row cache is engine-lifetime: the first preparation of a
/// predicate misses, every later query sharing that predicate hits. The
/// hit counter is the observable hook the acceptance criteria ask for.
#[test]
fn similarity_rows_are_computed_once_and_shared() {
    let (ds, space) = setup();
    let engine = engine(&ds, &space, 10);
    let queries = produced_workload(&ds);
    engine.query(&queries[0].graph).unwrap();
    let after_first = engine.similarity_stats();
    assert!(after_first.row_misses > 0, "first query computes its rows");
    engine.query(&queries[0].graph).unwrap();
    let after_second = engine.similarity_stats();
    assert_eq!(
        after_second.row_misses, after_first.row_misses,
        "repeating a query must not recompute any similarity row"
    );
    assert!(
        after_second.row_hits > after_first.row_hits,
        "repeated predicates must hit the cache"
    );
}

/// The service front-end aggregates exactly one record per client query
/// under concurrency, and serves every client the deterministic answer.
#[test]
fn service_aggregates_stats_under_concurrent_load() {
    let (ds, space) = setup();
    let service = LiveQueryService::new(
        Arc::new(VersionedGraph::new(ds.graph.clone())),
        &space,
        &ds.library,
        SgqConfig {
            k: 20,
            ..SgqConfig::default()
        },
    );
    let queries = produced_workload(&ds);
    let clients = 6;
    let expected: Vec<Vec<NodeId>> = queries
        .iter()
        .map(|q| service.query(&q.graph).unwrap().answer_nodes())
        .collect();
    std::thread::scope(|s| {
        for _ in 0..clients {
            let service = &service;
            let queries = &queries;
            let expected = &expected;
            s.spawn(move || {
                for (q, want) in queries.iter().zip(expected) {
                    let r = service.query(&q.graph).unwrap();
                    assert_eq!(&r.answer_nodes(), want);
                }
            });
        }
    });
    let stats = service.stats();
    assert_eq!(
        stats.queries as usize,
        (clients + 1) * queries.len(),
        "every query must be recorded exactly once"
    );
    assert_eq!(stats.errors, 0);
    assert!(stats.total_elapsed_us > 0);
}

/// Concurrent time-bounded queries share the pool without interference:
/// each client still converges to the exact answer under a generous bound.
#[test]
fn concurrent_time_bounded_queries_converge() {
    let (ds, space) = setup();
    let engine = engine(&ds, &space, 20);
    let q = &produced_workload(&ds)[0];
    let exact = engine.query(&q.graph).unwrap().answer_nodes();
    let tb = TimeBoundConfig::with_bound(Duration::from_secs(10));
    std::thread::scope(|s| {
        for _ in 0..4 {
            let engine = &engine;
            let exact = &exact;
            let tb = &tb;
            s.spawn(move || {
                for _ in 0..3 {
                    let approx = engine.query_time_bounded(&q.graph, tb).unwrap();
                    assert_eq!(&approx.answer_nodes(), exact);
                }
            });
        }
    });
}

/// A prepared query carries graph-specific node ids and row lengths, so
/// executing it on an engine over a different graph must be rejected, not
/// silently mis-answered.
#[test]
fn foreign_prepared_query_is_rejected() {
    let (ds_a, space_a) = setup();
    let ds_b = DatasetSpec::tiny().build();
    let space_b = ds_b.oracle_space();
    let engine_a = engine(&ds_a, &space_a, 10);
    let engine_b = SgqEngine::new(
        &ds_b.graph,
        &space_b,
        &ds_b.library,
        SgqConfig {
            k: 10,
            ..SgqConfig::default()
        },
    );
    let q = &produced_workload(&ds_a)[0];
    let prepared = engine_a.prepare(&q.graph).unwrap();
    assert!(engine_a.execute(&prepared).is_ok());
    assert!(matches!(
        engine_b.execute(&prepared),
        Err(semkg::sgq::SgqError::ForeignPreparedQuery)
    ));
}
