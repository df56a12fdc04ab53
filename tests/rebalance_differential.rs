//! Differential harness for skew-driven online shard rebalancing.
//!
//! The rebalance contract (see `sgq::live::LiveQueryService::rebalance`):
//! re-partitioning the sharded durable layout levels the edge skew but is
//! a pure storage re-layout — node/edge ids, adjacency order, and
//! therefore every certified answer are bit-identical before and after,
//! through crash/recovery cycles included. The `Rebalancer` controller is
//! a deterministic threshold-and-window state machine over the
//! `shard_skew()` gauge. This harness drives the full loop on the
//! shard-hostile skew stream: observe → fire → migrate → crash → recover
//! → churn → crash again, comparing every answer against a never-crashed,
//! never-rebalanced in-memory reference.

use datagen::workload::{skewed_triples, SkewSpec};
use embedding::PredicateSpace;
use kgraph::{GraphView, VersionedGraph};
use sgq::sched::{BatchScheduler, Priority, SchedOutcome};
use sgq::{
    FinalMatch, LiveQueryService, QueryGraph, RebalanceConfig, Rebalancer, SchedConfig, SgqConfig,
    ShardedDeployment,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn config() -> SgqConfig {
    SgqConfig {
        k: 10,
        tau: 0.0,
        workers: 4,
        ..SgqConfig::default()
    }
}

struct TestDir(PathBuf);
impl TestDir {
    fn new(label: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sgq_rebalance_{label}_{}_{}",
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

/// The shard-hostile skew stream: a zipf-headed graph with a one-hot
/// predicate space (the claim is about storage, not embedding quality) and
/// queries anchored at the hot head and cold tails.
fn skew_fixture() -> (
    kgraph::KnowledgeGraph,
    PredicateSpace,
    lexicon::TransformationLibrary,
    Vec<QueryGraph>,
) {
    let spec = SkewSpec {
        nodes: 1_200,
        edges: 8_000,
        shards: 4,
        ..SkewSpec::default()
    };
    let triples = skewed_triples(&spec);
    let graph = kgraph::io::graph_from_triples(triples.iter().cloned());
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
    (graph, space, library, queries)
}

/// A rebalance needs a sharded durable layout underneath — the in-memory
/// live service refuses with a storage error instead of silently no-oping.
#[test]
fn rebalance_requires_a_sharded_deployment() {
    let (graph, space, library, _) = skew_fixture();
    let store = Arc::new(VersionedGraph::new(graph));
    let service = LiveQueryService::new(Arc::clone(&store), &space, &library, config());
    let err = service.rebalance().expect_err("no sharded layout");
    assert!(
        err.to_string().contains("sharded deployment"),
        "unexpected error: {err}"
    );
}

/// The acceptance check, end to end: the controller fires on sustained
/// skew, the migration levels the layout (`skew_after < skew_before`,
/// buckets actually move), and answers stay bit-identical to the
/// never-rebalanced reference — through the migration, through a crash
/// directly after it, and through a second churn + dirty-crash cycle whose
/// phantom staged write must be discarded. Finally a cache-enabled
/// scheduler serves the recovered deployment and every response (cold and
/// cache-served alike) still equals the reference.
#[test]
fn rebalanced_answers_stay_bit_identical_through_crashes() {
    let (graph, space, library, queries) = skew_fixture();
    let dir = TestDir::new("cycle");
    let deploy_dir = dir.0.join("kg");

    // Reference: in-memory, never sharded, never crashed. It compacts
    // whenever the deployment rebalances (a rebalance is one compaction
    // plus a manifest flip), keeping the epoch counters aligned.
    let reference_store = Arc::new(VersionedGraph::new(graph.clone()));
    let reference = LiveQueryService::new(Arc::clone(&reference_store), &space, &library, config());

    let answers_of = |service: &LiveQueryService<'_>| -> Vec<Vec<FinalMatch>> {
        queries
            .iter()
            .map(|q| service.query(q).expect("answers").matches)
            .collect()
    };

    // Phase 1: observe → fire → migrate.
    let deployment =
        ShardedDeployment::create(&deploy_dir, graph, space.clone(), library.clone(), 4)
            .expect("create sharded deployment");
    let report = {
        let service = deployment.service(config());
        assert_eq!(
            answers_of(&service),
            answers_of(&reference),
            "pre-rebalance"
        );

        // Live traffic before the migration: a committed delta on both
        // stores, so the rebalance compacts real history (and the
        // reference's aligning compaction is never a no-op).
        let store = Arc::clone(deployment.versioned());
        for i in 0..16 {
            let head = format!("WarmupEntity_{i}");
            let tail = format!("SkewEntity_{}", i % 20);
            for s in [&store, &reference_store] {
                s.insert_triple(
                    (head.as_str(), "SkewType_2"),
                    "hot",
                    (tail.as_str(), "SkewType_0"),
                );
            }
        }
        store.commit();
        reference_store.commit();
        service.refresh();
        reference.refresh();
        assert_eq!(answers_of(&service), answers_of(&reference), "post-warmup");

        // The hash-routed layout is hostile by construction; the default
        // controller (threshold 1.5, window 3) sees the skew sustained
        // over three control ticks and fires exactly on the third.
        let mut controller = Rebalancer::new(RebalanceConfig::default());
        let skew = service.stats().shard_skew();
        assert!(skew > 1.5, "stream must be hostile, got {skew:.2}");
        assert!(!controller.observe(skew));
        assert!(!controller.observe(skew));
        assert!(controller.observe(skew), "third sustained look fires");

        let report = service.rebalance().expect("rebalance");
        reference_store.compact();
        service.refresh();
        reference.refresh();

        assert!(report.skew_before() > 1.5);
        assert!(
            report.skew_after() < report.skew_before(),
            "migration must level the layout: {:.2} -> {:.2}",
            report.skew_before(),
            report.skew_after()
        );
        assert!(report.moved_buckets > 0, "buckets must actually move");
        assert_eq!(
            answers_of(&service),
            answers_of(&reference),
            "post-rebalance answers diverged"
        );
        assert_eq!(service.stats().epoch, reference.stats().epoch);
        let leveled = service.stats().shard_skew();
        assert!(
            (leveled - report.skew_after()).abs() < 1e-9,
            "published gauge must show the new assignment: {leveled:.2} vs {:.2}",
            report.skew_after()
        );
        report
    };
    drop(deployment); // crash #1, directly after the migration

    // Phase 2: recover under the new assignment, churn both stores, then
    // crash dirty with a phantom staged write.
    let deployment = ShardedDeployment::open(&deploy_dir).expect("reopen rebalanced layout");
    {
        let service = deployment.service(config());
        assert_eq!(
            answers_of(&service),
            answers_of(&reference),
            "post-crash recovery diverged from the reference"
        );
        let recovered = service.stats().shard_skew();
        assert!(
            (recovered - report.skew_after()).abs() < 1e-9,
            "the rebalanced assignment must survive the crash"
        );

        let store = Arc::clone(deployment.versioned());
        for i in 0..32 {
            let head = format!("ChurnEntity_{i}");
            let tail = format!("SkewEntity_{}", i % 40);
            for s in [&store, &reference_store] {
                s.insert_triple(
                    (head.as_str(), "SkewType_2"),
                    "hot",
                    (tail.as_str(), "SkewType_0"),
                );
            }
        }
        store.commit();
        reference_store.commit();
        service.refresh();
        reference.refresh();
        assert_eq!(
            answers_of(&service),
            answers_of(&reference),
            "post-churn answers diverged"
        );
        // Staged but uncommitted: must vanish in the crash.
        store.insert_triple(
            ("PhantomSkew", "SkewType_2"),
            "hot",
            ("SkewEntity_0", "SkewType_0"),
        );
    }
    drop(deployment); // crash #2 (dirty: committed epoch + staged tail)

    // Phase 3: recover, discard the phantom, and serve through the
    // cache-enabled scheduler — every cold and cache-served response
    // equals the never-crashed reference.
    let deployment = ShardedDeployment::open(&deploy_dir).expect("recover");
    assert_eq!(
        deployment.recovery().discarded_ops,
        1,
        "the phantom staged write is discarded"
    );
    let service = deployment.service(config());
    reference.refresh();
    let baseline = answers_of(&reference);
    assert_eq!(answers_of(&service), baseline, "post-recovery diverged");
    assert!(service.pin().graph().node_by_name("PhantomSkew").is_none());
    assert_eq!(service.stats().epoch, reference.stats().epoch);

    let stats = BatchScheduler::serve(&service, SchedConfig::default(), |handle| {
        for _pass in 0..2 {
            for (idx, q) in queries.iter().enumerate() {
                let response = handle.query_within(q, Duration::from_secs(30), Priority::Normal);
                match response.outcome {
                    SchedOutcome::Exact(r) => assert_eq!(
                        r.matches, baseline[idx],
                        "scheduled answer over the rebalanced deployment diverged \
                         on query {idx}"
                    ),
                    other => panic!("slack deadline must stay exact, got {other:?}"),
                }
            }
        }
        handle.stats()
    })
    .expect("valid scheduler config");
    assert_eq!(stats.exact, 2 * queries.len() as u64);
    assert_eq!(
        stats.answer_cache_served(),
        queries.len() as u64,
        "the second pass is served from the answer cache: {stats:?}"
    );
}
