//! Differential harness for sharded storage + scatter-gather execution.
//!
//! The sharding contract (see `kgraph::shard`): a `ShardedGraph` is a pure
//! storage re-layout — per-node adjacency rows, candidate gathers, and the
//! seeded search frontier are bit-identical to the monolithic build — so
//! every answer of the sharded path must equal the unsharded path's,
//! byte for byte. These tests drive that claim on `SgqEngine<ShardedGraph>`
//! across shard counts 1/2/4/8 on the seeded workloads and on the
//! shard-hostile skew stream, through the served configuration (the
//! deadline scheduler over a sharded deployment), and through a full
//! commit → checkpoint → crash → recover cycle of the per-shard durable
//! layout. The reference is always the unsharded `SgqEngine` over the
//! frozen CSR.

use datagen::churn::{apply_churn, churn_stream};
use datagen::dataset::{BenchDataset, DatasetSpec};
use datagen::workload::{
    chain_query, produced_workload, q117_variants, skewed_triples, soccer_query, SkewSpec,
};
use embedding::PredicateSpace;
use kgraph::{GraphStats, GraphView, ShardedGraph};
use sgq::sched::{BatchScheduler, Priority, SchedOutcome};
use sgq::{
    FinalMatch, LiveQueryService, QueryGraph, SchedConfig, SgqConfig, SgqEngine, ShardedDeployment,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// The seeded differential workload: the bulk produced stream, the four
/// Fig. 1 Q117 variants, a chain and a soccer query — simple through
/// complex decompositions.
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

struct TestDir(PathBuf);
impl TestDir {
    fn new(label: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sgq_sharddiff_{label}_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}
impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Scatter path: sharded (1, 2, 4, 8) engine answers equal the unsharded
/// engine on every query of the seeded workload, including prepared replay.
#[test]
fn sharded_static_answers_are_bit_identical() {
    let (ds, space) = setup();
    let mono = SgqEngine::new(&ds.graph, &space, &ds.library, config());
    let queries = workload(&ds);
    let baseline: Vec<Vec<FinalMatch>> = queries
        .iter()
        .map(|q| mono.query(q).expect("unsharded path answers").matches)
        .collect();

    for shards in [1usize, 2, 4, 8] {
        let sharded =
            ShardedGraph::from_graph(ds.graph.clone(), shards).expect("valid shard count");
        let engine = SgqEngine::new(sharded, &space, &ds.library, config());
        for (idx, q) in queries.iter().enumerate() {
            let r = engine.query(q).expect("sharded path answers");
            assert_eq!(
                r.matches, baseline[idx],
                "{shards}-shard answer diverged on query {idx}"
            );
            let prepared = engine.prepare(q).expect("prepare");
            assert_eq!(
                engine.execute(&prepared).expect("replay").matches,
                baseline[idx],
                "{shards}-shard prepared replay diverged on query {idx}"
            );
        }
        let stats = GraphStats::of(engine.graph());
        assert_eq!(engine.graph().shard_count(), shards);
        assert_eq!(engine.graph().edge_count(), ds.graph.edge_count());
        assert!(stats.shard_skew() >= 1.0);
    }
}

/// The shard-hostile skew stream: even with one shard owning a multiple of
/// its fair share (zipf head + hot predicate), answers stay bit-identical —
/// imbalance may cost scatter *scaling*, never correctness.
#[test]
fn skewed_data_stays_bit_identical_under_imbalance() {
    let spec = SkewSpec {
        nodes: 1_200,
        edges: 8_000,
        shards: 4,
        ..SkewSpec::default()
    };
    let triples = skewed_triples(&spec);
    let graph = kgraph::io::graph_from_triples(triples.iter().cloned());
    // One-hot predicate space: exact-label semantics are enough here — the
    // differential claim is about storage, not embedding quality.
    let (vectors, labels): (Vec<Vec<f32>>, Vec<String>) = {
        let n = graph.predicate_count();
        graph
            .predicates()
            .enumerate()
            .map(|(i, (_, l))| {
                let mut v = vec![0.0f32; n];
                v[i] = 1.0;
                (v, l.to_string())
            })
            .unzip()
    };
    let space = PredicateSpace::from_raw(vectors, labels);
    let library = lexicon::TransformationLibrary::new();
    let config = SgqConfig {
        k: 10,
        tau: 0.0,
        workers: 4,
        ..SgqConfig::default()
    };

    // Queries anchored at the hot head (max imbalance) and at cold tails.
    let queries: Vec<QueryGraph> = ["SkewEntity_0", "SkewEntity_7", "SkewEntity_1111"]
        .iter()
        .flat_map(|name| {
            let anchor_type = graph
                .node_by_name(name)
                .map(|n| graph.node_type_name(n).to_string())
                .expect("skew entity exists");
            ["hot", "p0", "p3"].iter().map(move |pred| {
                let mut q = QueryGraph::new();
                let target = q.add_target("SkewType_2");
                let anchor = q.add_specific(name, &anchor_type);
                q.add_edge(target, pred, anchor);
                q
            })
        })
        .collect();

    let mono = SgqEngine::new(&graph, &space, &library, config.clone());
    let sharded = ShardedGraph::from_graph(graph.clone(), spec.shards).unwrap();
    let skew = GraphStats::of(&sharded).shard_skew();
    assert!(skew > 1.5, "stream must actually be hostile, got {skew:.2}");
    let engine = SgqEngine::new(sharded, &space, &library, config);
    for (idx, q) in queries.iter().enumerate() {
        assert_eq!(
            engine.query(q).expect("sharded").matches,
            mono.query(q).expect("mono").matches,
            "skewed query {idx} diverged"
        );
    }
}

/// The configuration `semkg-server` runs: the scheduler over a 2-shard
/// `ShardedDeployment` service. With slack deadlines every response is
/// exact and bit-identical — matches, scores and path edge ids — to the
/// *unsharded, unscheduled* engine over the frozen CSR.
#[test]
fn scheduled_sharded_equals_direct_unsharded() {
    let (ds, space) = setup();
    let mono = SgqEngine::new(&ds.graph, &space, &ds.library, config());
    let queries = workload(&ds);
    let baseline: Vec<Vec<FinalMatch>> = queries
        .iter()
        .map(|q| mono.query(q).expect("reference").matches)
        .collect();

    let dir = TestDir::new("served");
    let deployment = ShardedDeployment::create(
        dir.0.join("kg"),
        ds.graph.clone(),
        space.clone(),
        ds.library.clone(),
        2,
    )
    .expect("create sharded deployment");
    let service = deployment.service(config());
    let stats = BatchScheduler::serve(&service, SchedConfig::default(), |handle| {
        std::thread::scope(|s| {
            for _client in 0..4 {
                let handle = &handle;
                let queries = &queries;
                let baseline = &baseline;
                s.spawn(move || {
                    for (idx, q) in queries.iter().enumerate() {
                        let response =
                            handle.query_within(q, Duration::from_secs(30), Priority::Normal);
                        match response.outcome {
                            SchedOutcome::Exact(r) => assert_eq!(
                                r.matches, baseline[idx],
                                "scheduled sharded answer diverged on query {idx}"
                            ),
                            other => panic!("slack deadline must stay exact, got {other:?}"),
                        }
                    }
                });
            }
        });
        handle.stats()
    })
    .expect("valid scheduler config");
    let expected = 4 * queries.len() as u64;
    assert_eq!(stats.exact, expected);
    assert_eq!(stats.degraded + stats.shed() + stats.failed, 0);
    assert_eq!(service.stats().shard_count, 2);
}

/// Acceptance criterion: the sharded deployment stays bit-identical to an
/// unsharded reference through a live commit → checkpoint → crash →
/// recover cycle, across shard counts. The reference store never crashes;
/// the sharded one loses its process after every phase.
#[test]
fn durable_cycle_stays_bit_identical() {
    let (ds, space) = setup();
    let queries = workload(&ds);
    let ops = churn_stream(&ds, 400, 0xD1FF);

    for shards in [1usize, 2, 4, 8] {
        let dir = TestDir::new("cycle");
        let deploy_dir = dir.0.join(format!("kg{shards}"));

        // Reference: an in-memory live service over the same base graph.
        let reference_store = Arc::new(kgraph::VersionedGraph::new(ds.graph.clone()));
        let reference =
            LiveQueryService::new(Arc::clone(&reference_store), &space, &ds.library, config());

        let answers_of = |service: &LiveQueryService<'_>| -> Vec<Vec<FinalMatch>> {
            queries
                .iter()
                .map(|q| service.query(q).expect("answers").matches)
                .collect()
        };

        // Phase 1: first half of the churn, committed; then checkpoint.
        let deployment = ShardedDeployment::create(
            &deploy_dir,
            ds.graph.clone(),
            space.clone(),
            ds.library.clone(),
            shards,
        )
        .expect("create sharded deployment");
        {
            let service = deployment.service(config());
            let store = Arc::clone(deployment.versioned());
            for op in &ops[..200] {
                apply_churn(&store, op);
                apply_churn(&reference_store, op);
            }
            store.commit();
            reference_store.commit();
            service.refresh();
            reference.refresh();
            assert_eq!(
                answers_of(&service),
                answers_of(&reference),
                "{shards}: post-commit"
            );
            let report = service.checkpoint().expect("sharded checkpoint");
            assert!(report.snapshot_bytes > 0);
            // The reference compacts too, keeping epochs aligned.
            reference_store.compact();
            service.refresh();
            reference.refresh();
            assert_eq!(
                answers_of(&service),
                answers_of(&reference),
                "{shards}: post-checkpoint"
            );
        }
        drop(deployment); // crash #1 (clean WALs — checkpoint truncated them)

        // Phase 2: reopen, second half of the churn, commit, then crash
        // with an uncommitted staged tail.
        let deployment = ShardedDeployment::open(&deploy_dir).expect("reopen");
        {
            let store = Arc::clone(deployment.versioned());
            for op in &ops[200..] {
                apply_churn(&store, op);
                apply_churn(&reference_store, op);
            }
            store.commit();
            reference_store.commit();
            // Staged-but-uncommitted write: must vanish in the crash.
            store.insert_triple(
                ("Phantom", "Automobile"),
                "assembly",
                ("Germany", "Country"),
            );
        }
        drop(deployment); // crash #2 (dirty: committed epoch + staged tail)

        // Phase 3: recover and compare against the never-crashed reference.
        let deployment = ShardedDeployment::open(&deploy_dir).expect("recover");
        assert_eq!(
            deployment.recovery().discarded_ops,
            1,
            "{shards}: the phantom staged write is discarded"
        );
        let service = deployment.service(config());
        reference.refresh();
        assert_eq!(
            answers_of(&service),
            answers_of(&reference),
            "{shards}: post-crash recovery diverged from the never-crashed reference"
        );
        assert!(service.pin().graph().node_by_name("Phantom").is_none());
        assert_eq!(
            service.stats().epoch,
            reference.stats().epoch,
            "{shards}: epochs track through checkpoint + recovery"
        );
    }
}
