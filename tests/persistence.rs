//! Integration tests for the durable storage layer: the deployment
//! directory's snapshot set, the write-ahead logs, and whole-deployment
//! cold start — at one shard, the plain single-store case, unless a test
//! says otherwise.
//!
//! The load-bearing property throughout is *restart fidelity*: a service
//! reopened from disk answers every query bit-identically (same pivots,
//! same scores, same paths down to the edge ids) to the service that never
//! restarted.

use datagen::dataset::DatasetSpec;
use datagen::workload::produced_workload;
use datagen::{apply_churn, apply_churn_stream, churn_stream};
use kgraph::io::shard::{load, save, wal_path};
use kgraph::{GraphView, Partitioner, VersionedGraph};
use proptest::prelude::*;
use sgq::{LiveQueryService, SgqConfig, SgqEngine, ShardedDeployment};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct TestDir(PathBuf);

impl TestDir {
    fn new(label: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "semkg_persistence_{label}_{}_{}",
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

fn config() -> SgqConfig {
    SgqConfig {
        k: 20,
        tau: 0.3,
        workers: 4,
        ..SgqConfig::default()
    }
}

/// One adjacency entry: neighbor name, edge id, predicate label, direction.
type AdjEntry = (String, u32, String, bool);

/// Full adjacency fingerprint of a graph view: names, edge ids, predicate
/// labels, directions, in iteration order. Agreement here means any search
/// runs identically (expansion order, tie-breaks, path edge ids).
fn fingerprint<G: GraphView>(g: &G) -> Vec<(String, Vec<AdjEntry>)> {
    g.nodes()
        .map(|n| {
            (
                g.node_name(n).to_string(),
                g.neighbors(n)
                    .map(|nb| {
                        (
                            g.node_name(nb.node).to_string(),
                            u32::from(nb.edge),
                            g.predicate_name(nb.predicate).to_string(),
                            nb.outgoing,
                        )
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Every workload query must answer bit-identically on both services.
fn assert_services_agree(
    label: &str,
    workload: &[datagen::BenchQuery],
    a: &LiveQueryService<'_>,
    b: &LiveQueryService<'_>,
) {
    let mut compared = 0usize;
    for q in workload {
        let ra = a.query(&q.graph).expect("query on a");
        let rb = b.query(&q.graph).expect("query on b");
        assert_eq!(ra.matches, rb.matches, "{label}: diverged on {}", q.id);
        compared += ra.matches.len();
    }
    assert!(compared > 0, "{label}: workload produced no matches");
}

/// A frozen graph's answers survive a snapshot-set save→load round trip
/// exactly.
#[test]
fn binary_snapshot_round_trips_query_answers() {
    let dir = TestDir::new("binary_roundtrip");
    let ds = DatasetSpec::tiny().build();
    let space = ds.oracle_space();
    let workload = produced_workload(&ds);

    let partitioner = Partitioner::new(1).unwrap();
    save(&ds.graph, &partitioner, 0, &dir.0).unwrap();
    let (reloaded_graph, reloaded_partitioner, epoch) = load(&dir.0).unwrap();
    assert_eq!(epoch, 0);
    assert_eq!(reloaded_partitioner, partitioner);
    assert_eq!(fingerprint(&reloaded_graph), fingerprint(&ds.graph));

    let original = SgqEngine::new(&ds.graph, &space, &ds.library, config());
    let reloaded = SgqEngine::new(&reloaded_graph, &space, &ds.library, config());
    for q in &workload {
        let a = original.query(&q.graph).unwrap();
        let b = reloaded.query(&q.graph).unwrap();
        assert_eq!(a.matches, b.matches, "diverged on {}", q.id);
    }
}

/// The acceptance check end to end: build a deployment, run over 1k
/// churn ops with periodic commits and a mid-stream checkpoint, crash with
/// a staged-but-uncommitted tail, reopen — every query answers
/// bit-identically to the never-restarted in-memory service.
#[test]
fn restart_fidelity_after_churn_checkpoint_and_crash() {
    let dir = TestDir::new("restart_fidelity");
    let deploy_dir = dir.0.join("kg");
    let ds = DatasetSpec::tiny().build();
    let workload = produced_workload(&ds);

    let deployment = ShardedDeployment::create(
        &deploy_dir,
        ds.graph.clone(),
        ds.oracle_space(),
        ds.library.clone(),
        1,
    )
    .unwrap();
    let service = deployment.service(config());
    let live = Arc::clone(deployment.versioned());

    let ops = churn_stream(&ds, 1200, 7);
    assert!(ops.len() >= 1000);
    for (i, op) in ops.iter().enumerate() {
        apply_churn(&live, op);
        if (i + 1) % 64 == 0 {
            live.commit();
        }
        if i + 1 == 600 {
            // Mid-stream durability maintenance: compaction + snapshot set +
            // WAL truncation, all while the service keeps serving.
            let report = service.checkpoint().unwrap();
            assert!(report.edges > 0);
        }
    }
    live.commit();
    // Stage a tail that never commits: the crash must not resurrect it.
    live.insert_triple(("GhostCar", "Automobile"), "assembly", ("X", "Country"));
    service.refresh();
    let stats = service.stats();
    assert!(stats.epoch > 0, "churn committed many epochs: {stats:?}");

    // Reopen from disk while the original service keeps running (the
    // original's WAL is synced through the last commit marker, which is
    // all recovery is allowed to use).
    let reopened = ShardedDeployment::open(&deploy_dir).unwrap();
    let recovery = *reopened.recovery();
    assert!(recovery.epochs_replayed > 0, "{recovery:?}");
    assert_eq!(recovery.recovered_epoch, live.epoch());
    let restarted = reopened.service(config());
    assert!(restarted.pin().graph().node_by_name("GhostCar").is_none());
    assert_eq!(
        fingerprint(&live.snapshot()),
        fingerprint(&reopened.versioned().snapshot()),
        "recovered adjacency (edge ids included) must match the live store"
    );
    assert_services_agree("restart", &workload, &service, &restarted);

    // Prepared queries replay bit-identically across the restart too.
    let q = &workload[0].graph;
    let live_prepared = service.prepare(q).unwrap();
    let cold_prepared = restarted.prepare(q).unwrap();
    assert_eq!(
        service.execute(&live_prepared).unwrap().matches,
        restarted.execute(&cold_prepared).unwrap().matches,
    );
}

/// Crash-truncates shard 0's WAL of a `shards`-shard deployment at a spread
/// of byte offsets: recovery must always succeed and recover exactly the
/// epochs whose commit markers survived in every log, with the graph
/// matching an in-memory replay of the same op prefix.
fn truncated_wal_recovers_replay_prefix(shards: usize) {
    const COMMIT_EVERY: usize = 25;
    let dir = TestDir::new("truncated_wal");
    let deploy_dir = dir.0.join("kg");
    let ds = DatasetSpec::tiny().build();
    let ops = churn_stream(&ds, 150, 11);

    let deployment = ShardedDeployment::create(
        &deploy_dir,
        ds.graph.clone(),
        ds.oracle_space(),
        ds.library.clone(),
        shards,
    )
    .unwrap();
    {
        let live = deployment.versioned();
        for (i, op) in ops.iter().enumerate() {
            apply_churn(live, op);
            if (i + 1) % COMMIT_EVERY == 0 {
                live.commit();
            }
        }
    }
    drop(deployment); // flush
                      // Recovery truncates every log, so all of them are restored per cut.
    let logs: Vec<(PathBuf, Vec<u8>)> = (0..shards)
        .map(|s| {
            let path = wal_path(&deploy_dir, s);
            let bytes = std::fs::read(&path).unwrap();
            (path, bytes)
        })
        .collect();
    let (cut_path, cut_bytes) = &logs[0];
    let full_epochs = (ops.len() / COMMIT_EVERY) as u64;

    // A spread of cut points including ragged mid-record offsets.
    let cuts: Vec<usize> = (8..cut_bytes.len()).step_by(97).collect();
    assert!(cuts.len() > 10, "{shards} shards: log too short to sweep");
    for &cut in &cuts {
        std::fs::write(cut_path, &cut_bytes[..cut]).unwrap();
        let reopened = ShardedDeployment::open(&deploy_dir).expect("recovery must not fail");
        let epoch = reopened.versioned().epoch();
        assert!(epoch <= full_epochs, "cut {cut}: epoch {epoch}");
        // Reference: replay exactly the ops covered by the recovered epochs.
        let reference = VersionedGraph::new(ds.graph.clone());
        apply_churn_stream(&reference, &ops[..epoch as usize * COMMIT_EVERY]);
        reference.commit();
        assert_eq!(
            fingerprint(&reopened.versioned().snapshot()),
            fingerprint(&reference.snapshot()),
            "cut {cut}: recovered graph diverged from replay prefix"
        );
        // Recovery truncated the logs; they must now be clean and
        // reopenable.
        drop(reopened);
        let second = ShardedDeployment::open(&deploy_dir).unwrap();
        assert!(!second.recovery().torn_tail);
        assert_eq!(second.versioned().epoch(), epoch);
        drop(second);
        for (path, bytes) in &logs {
            std::fs::write(path, bytes).unwrap();
        }
    }
}

#[test]
fn recovery_from_truncated_wal_matches_replay_prefix() {
    truncated_wal_recovers_replay_prefix(1);
}

/// At two shards a cut in one log leaves the other log ahead of it: the
/// epochs whose markers the cut removed roll back in both.
#[test]
fn recovery_from_one_truncated_shard_wal_matches_replay_prefix() {
    truncated_wal_recovers_replay_prefix(2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// Codec round trip under arbitrary churn: any op stream, committed and
    /// compacted, recovers from the WAL with an identical adjacency
    /// fingerprint — and a checkpoint's snapshot set of the compacted CSR
    /// reloads identically too.
    #[test]
    fn prop_codec_roundtrip_of_churned_graphs(
        op_count in 1usize..300,
        seed in 0u64..10_000,
        compact_first in proptest::bool::ANY,
    ) {
        let dir = TestDir::new("prop_codec");
        let ds = DatasetSpec::tiny().build();
        let ops = churn_stream(&ds, op_count, seed);
        let partitioner = Partitioner::new(1).unwrap();
        save(&ds.graph, &partitioner, 0, &dir.0).unwrap();

        let (live, _) =
            VersionedGraph::recover(ds.graph.clone(), 0, &dir.0, partitioner.clone())
                .unwrap();
        apply_churn_stream(&live, &ops);
        live.commit();
        if compact_first {
            live.compact();
        }
        let snapshot = live.snapshot();
        drop(live); // crash (flushes the log)

        // WAL recovery replays to the same fingerprint as the pre-crash
        // snapshot (same epoch, same edge ids — compactions included).
        let (base, _, epoch) = load(&dir.0).unwrap();
        let (recovered, report) =
            VersionedGraph::recover(base, epoch, &dir.0, partitioner.clone()).unwrap();
        prop_assert_eq!(report.recovered_epoch, snapshot.epoch());
        prop_assert_eq!(
            fingerprint(&recovered.snapshot()),
            fingerprint(&snapshot)
        );

        // Snapshot-set round trip of the compacted CSR.
        let compacted = recovered.checkpoint().unwrap();
        let (back, _, epoch) = load(&dir.0).unwrap();
        prop_assert_eq!(epoch, compacted.epoch());
        prop_assert_eq!(fingerprint(&back), fingerprint(compacted.base()));
    }
}
