//! Differential harness for the sharded durable layout.
//!
//! Sharding is a property of the durable layer only (see `kgraph::shard`):
//! the partitioner decides which snapshot slice and WAL a triple lives in,
//! never its ids or adjacency order, and every query runs on one
//! monolithic epoch view. So every answer of a sharded deployment must
//! equal the unsharded path's, byte for byte. These tests drive that claim
//! through the served configuration (the deadline scheduler over a 2-shard
//! deployment) and through a full commit → checkpoint → crash → recover
//! cycle of the per-shard layout at 1/2/4/8 shards, whose 4-shard recovery
//! is also served through the answer-caching scheduler. The reference is the
//! unsharded `SgqEngine` over the frozen CSR, or a never-crashed in-memory
//! store.

use datagen::churn::{apply_churn, churn_stream};
use datagen::dataset::{BenchDataset, DatasetSpec};
use datagen::workload::{chain_query, produced_workload, q117_variants, soccer_query};
use embedding::PredicateSpace;
use kgraph::GraphView;
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

/// Acceptance check: the sharded deployment stays bit-identical to an
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

        // The default (answer-cache-on) scheduler serving the recovered
        // deployment: two passes, the second entirely cache-served, and
        // every response equals the never-crashed reference.
        if shards == 4 {
            let baseline = answers_of(&reference);
            let (cache_served, stats) =
                BatchScheduler::serve(&service, SchedConfig::default(), |handle| {
                    let mut cache_served = Vec::new();
                    for _pass in 0..2 {
                        let before = handle.stats().answer_cache_hits;
                        for (idx, q) in queries.iter().enumerate() {
                            let response =
                                handle.query_within(q, Duration::from_secs(30), Priority::Normal);
                            match response.outcome {
                                SchedOutcome::Exact(r) => assert_eq!(
                                    r.matches, baseline[idx],
                                    "{shards}: scheduled answer over the recovered deployment \
                                     diverged on query {idx}"
                                ),
                                other => panic!("slack deadline must stay exact, got {other:?}"),
                            }
                        }
                        cache_served.push(handle.stats().answer_cache_hits - before);
                    }
                    (cache_served, handle.stats())
                })
                .expect("valid scheduler config");
            assert_eq!(stats.exact, 2 * queries.len() as u64);
            assert_eq!(
                cache_served[1],
                queries.len() as u64,
                "the second pass is served from the answer cache: {stats:?}"
            );
        }
    }
}
