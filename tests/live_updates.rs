//! Integration tests for the live-update subsystem: overlay reads must be
//! query-equivalent to full rebuilds, and epoch pinning must make pinned
//! queries bit-identical under concurrent writes.

use datagen::dataset::DatasetSpec;
use datagen::workload::produced_workload;
use datagen::{apply_churn_stream, churn_stream};
use kgraph::{GraphView, VersionedGraph};
use sgq::{LiveQueryService, SgqConfig, SgqEngine};
use std::sync::Arc;

fn config() -> SgqConfig {
    SgqConfig {
        k: 20,
        tau: 0.3,
        workers: 4,
        ..SgqConfig::default()
    }
}

/// Acceptance check: an *uncompacted* overlay with ≥10% mutated edges
/// returns top-k answers identical to a full rebuild of the same logical
/// graph.
#[test]
fn overlay_with_heavy_churn_matches_full_rebuild() {
    let ds = DatasetSpec::tiny().build();
    let space = ds.oracle_space();
    let base_edges = ds.graph.edge_count();
    let ops = churn_stream(&ds, base_edges, 1234);

    // Path A: overlay only — committed, never compacted.
    let overlay_store = VersionedGraph::new(ds.graph.clone());
    apply_churn_stream(&overlay_store, &ops);
    let overlayed = overlay_store.commit();
    assert!(!overlayed.is_compacted());

    // ≥10% of the base edges mutated (added or tombstoned).
    let stats = overlay_store.stats();
    let mutated = stats.delta_edges + stats.tombstones;
    assert!(
        mutated * 10 >= base_edges,
        "churn too small: {mutated} mutations over {base_edges} base edges"
    );

    // Path B: the same logical graph as one fresh CSR (full rebuild).
    let rebuild_store = VersionedGraph::new(ds.graph.clone());
    apply_churn_stream(&rebuild_store, &ops);
    let rebuilt = rebuild_store.compact();
    assert!(rebuilt.is_compacted());
    assert_eq!(overlayed.edge_count(), rebuilt.edge_count());
    assert_eq!(overlayed.node_count(), rebuilt.node_count());

    let lib = &ds.library;
    let overlay_engine = SgqEngine::new(overlayed.clone(), &space, lib, config());
    let rebuild_engine = SgqEngine::new(rebuilt.clone(), &space, lib, config());

    let workload = produced_workload(&ds);
    assert!(!workload.is_empty());
    let mut compared = 0usize;
    for q in &workload {
        let a = overlay_engine.query(&q.graph).expect("overlay query");
        let b = rebuild_engine.query(&q.graph).expect("rebuild query");
        assert_eq!(
            a.matches.len(),
            b.matches.len(),
            "top-k size diverged on {}",
            q.id
        );
        for (ma, mb) in a.matches.iter().zip(&b.matches) {
            // Node ids survive compaction, so both pivot id and name match.
            assert_eq!(ma.pivot, mb.pivot, "ranking diverged on {}", q.id);
            assert_eq!(
                overlayed.node_name(ma.pivot),
                rebuilt.node_name(mb.pivot),
                "name mismatch on {}",
                q.id
            );
            assert!(
                (ma.score - mb.score).abs() < 1e-9,
                "score diverged on {}: {} vs {}",
                q.id,
                ma.score,
                mb.score
            );
        }
        compared += a.matches.len();
    }
    assert!(compared > 0, "workload produced no matches to compare");
}

/// A query pinned to epoch N is bit-identical before and after a commit to
/// epoch N+1 — even while other clients hammer the service and a writer
/// keeps mutating and compacting the store.
#[test]
fn pinned_queries_are_bit_identical_across_concurrent_commits() {
    let ds = DatasetSpec::tiny().build();
    let space = ds.oracle_space();
    let service = LiveQueryService::new(
        Arc::new(VersionedGraph::new(ds.graph.clone())),
        &space,
        &ds.library,
        config(),
    );
    let workload = produced_workload(&ds);
    let query = &workload[0].graph;

    let prepared = service.prepare(query).expect("prepare at epoch 0");
    assert_eq!(prepared.epoch(), 0);
    let baseline = service.execute(&prepared).expect("baseline execution");
    assert!(!baseline.matches.is_empty());

    let ops = churn_stream(&ds, 120, 99);
    std::thread::scope(|s| {
        // Writer: stream updates, committing every 16 ops, compacting once
        // mid-stream.
        s.spawn(|| {
            let live = service.versioned();
            for (i, chunk) in ops.chunks(16).enumerate() {
                apply_churn_stream(live, chunk);
                live.commit();
                if i == 3 {
                    live.compact();
                }
            }
        });
        // Readers: replay the pinned query concurrently; every result must
        // equal the epoch-0 baseline bit for bit.
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..25 {
                    let r = service.execute(&prepared).expect("pinned replay");
                    assert_eq!(r.matches, baseline.matches);
                }
            });
        }
        // Ad-hoc clients meanwhile run against whatever epoch is current;
        // results only need to be well-formed.
        s.spawn(|| {
            for q in workload.iter().cycle().take(30) {
                let r = service.query(&q.graph).expect("ad-hoc query");
                assert!(r.matches.len() <= config().k);
            }
        });
    });

    // After the dust settles the store advanced, the pinned query did not.
    assert!(service.versioned().epoch() > 0);
    assert_eq!(prepared.epoch(), 0);
    let replay = service.execute(&prepared).unwrap();
    assert_eq!(replay.matches, baseline.matches);

    // A fresh prepare adopts the newest epoch.
    let repinned = service.prepare(query).expect("re-prepare");
    assert_eq!(repinned.epoch(), service.versioned().epoch());

    let stats = service.stats();
    assert!(stats.engine_refreshes >= 1, "stats: {stats:?}");
    assert_eq!(stats.errors, 0);
}

/// A live service over a store that never changes — how a static graph is
/// served — answers exactly like the engine over the frozen CSR: matches,
/// scores and path edge ids.
#[test]
fn idle_live_service_matches_static_service() {
    let ds = DatasetSpec::tiny().build();
    let space = ds.oracle_space();
    let engine = SgqEngine::new(&ds.graph, &space, &ds.library, config());
    let live_service = LiveQueryService::new(
        Arc::new(VersionedGraph::new(ds.graph.clone())),
        &space,
        &ds.library,
        config(),
    );
    for q in produced_workload(&ds) {
        let a = engine.query(&q.graph).unwrap();
        let b = live_service.query(&q.graph).unwrap();
        assert_eq!(a.matches, b.matches, "diverged on {}", q.id);
    }
    assert_eq!(live_service.stats().epoch, 0);
    assert_eq!(live_service.stats().engine_refreshes, 0);
}

/// PR 3 shipped `LiveQueryService::checkpoint` without a test pairing it
/// against concurrent `refresh` calls. Stress the pairing: a writer commits
/// continuously, a maintenance thread checkpoints (commit + compact +
/// snapshot + WAL truncation) repeatedly, and reader threads hammer
/// `refresh()` — every epoch any observer sees must be monotonically
/// non-decreasing, `refresh` must honour its at-least-published contract,
/// and the post-race answers must equal a fresh engine over the final
/// snapshot.
#[test]
fn refresh_racing_checkpoint_keeps_epochs_monotonic() {
    use sgq::ShardedDeployment;
    use std::sync::atomic::{AtomicBool, Ordering};

    struct TestDir(std::path::PathBuf);
    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
    let dir =
        TestDir(std::env::temp_dir().join(format!("sgq_refresh_ckpt_{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);

    let ds = DatasetSpec::tiny().build();
    let space = ds.oracle_space();
    let deployment = ShardedDeployment::create(
        dir.0.join("kg"),
        ds.graph.clone(),
        space.clone(),
        ds.library.clone(),
        1,
    )
    .expect("create deployment");
    let service = deployment.service(config());
    let v = Arc::clone(deployment.versioned());
    let writer_done = AtomicBool::new(false);

    std::thread::scope(|s| {
        // Writer: a commit roughly every insert.
        s.spawn(|| {
            for i in 0..120 {
                v.insert_triple(
                    (format!("Car_race_{i}").as_str(), "Automobile"),
                    "assembly",
                    ("Country_1", "Country"),
                );
                v.commit();
                if i % 16 == 0 {
                    std::thread::yield_now();
                }
            }
            writer_done.store(true, Ordering::Release);
        });
        // Maintenance: checkpoints racing the writer and the readers.
        s.spawn(|| {
            for _ in 0..6 {
                let report = service.checkpoint().expect("checkpoint");
                assert!(report.edges > 0);
                std::thread::yield_now();
            }
        });
        // Readers: refresh + stats, asserting per-observer monotonicity.
        for _ in 0..3 {
            s.spawn(|| {
                let mut last_refresh = 0u64;
                let mut last_stats = 0u64;
                while !writer_done.load(Ordering::Acquire) {
                    let published = service.versioned().epoch();
                    let adopted = service.refresh();
                    assert!(
                        adopted >= published,
                        "refresh returned {adopted}, below the {published} published before the call"
                    );
                    assert!(
                        adopted >= last_refresh,
                        "refresh went backwards: {last_refresh} -> {adopted}"
                    );
                    last_refresh = adopted;
                    let epoch = service.stats().epoch;
                    assert!(
                        epoch >= last_stats,
                        "stats epoch went backwards: {last_stats} -> {epoch}"
                    );
                    last_stats = epoch;
                }
            });
        }
    });

    // Quiesced: the live service must agree bit-for-bit with a fresh
    // engine over the final published snapshot.
    service.refresh();
    let snapshot = v.snapshot();
    let direct = SgqEngine::new(snapshot, &space, &ds.library, config());
    for q in produced_workload(&ds) {
        let live = service.query(&q.graph).unwrap();
        let fresh = direct.query(&q.graph).unwrap();
        assert_eq!(live.matches, fresh.matches, "diverged on {}", q.id);
    }
    assert_eq!(service.stats().errors, 0);
}

/// The answer cache across the durable lifecycle: a warm cache must be
/// invalidated by `commit()`, by `compact()`, and by crash/recovery — at
/// every boundary each scheduled response equals the live direct path at
/// the *new* epoch, never a stale entry, and the stale counter records
/// the invalidations. After the boundary the cache re-warms and serves
/// again.
#[test]
fn answer_cache_never_serves_stale_epochs_across_the_durable_lifecycle() {
    use sgq::sched::{BatchScheduler, Priority, SchedOutcome};
    use sgq::{QueryGraph, SchedConfig, ShardedDeployment};
    use std::time::Duration;

    struct TestDir(std::path::PathBuf);
    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
    let dir =
        TestDir(std::env::temp_dir().join(format!("sgq_cache_lifecycle_{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    let deploy_dir = dir.0.join("kg");

    let ds = DatasetSpec::tiny().build();
    let space = ds.oracle_space();
    let queries: Vec<QueryGraph> = produced_workload(&ds)
        .into_iter()
        .map(|q| q.graph)
        .collect();

    let deployment = ShardedDeployment::create(
        &deploy_dir,
        ds.graph.clone(),
        space.clone(),
        ds.library.clone(),
        1,
    )
    .expect("create deployment");
    {
        let service = deployment.service(config());
        let v = Arc::clone(deployment.versioned());
        BatchScheduler::serve(&service, SchedConfig::default(), |handle| {
            let scheduled = |q: &QueryGraph| match handle
                .query_within(q, Duration::from_secs(30), Priority::Normal)
                .outcome
            {
                SchedOutcome::Exact(r) => r.matches,
                other => panic!("slack deadline must stay exact, got {other:?}"),
            };
            // Warm, then prove warmth.
            let pre: Vec<_> = queries.iter().map(&scheduled).collect();
            let warm = handle.stats();
            for q in &queries {
                scheduled(q);
            }
            let served = handle.stats();
            assert_eq!(
                served.answer_cache_served() - warm.answer_cache_served(),
                queries.len() as u64
            );

            // Boundary 1: commit. Tombstone an edge a current top match
            // traverses, so at least one answer provably changes.
            let victim = pre
                .iter()
                .find_map(|ms| {
                    ms.first()
                        .and_then(|m| m.parts.first())
                        .and_then(|p| p.edges.first())
                        .copied()
                })
                .expect("workload must produce at least one matched path");
            assert!(v.delete_edge(victim), "victim edge is live");
            v.commit();
            service.refresh();
            let post_commit: Vec<_> = queries
                .iter()
                .map(|q| service.query(q).expect("direct live path").matches)
                .collect();
            assert_ne!(pre, post_commit, "the tombstone must move an answer");
            for (idx, q) in queries.iter().enumerate() {
                assert_eq!(
                    scheduled(q),
                    post_commit[idx],
                    "post-commit response must reflect the new epoch (query {idx})"
                );
            }
            let after_commit = handle.stats();
            assert!(
                after_commit.answer_cache_stale > served.answer_cache_stale,
                "the commit must invalidate warm entries: {after_commit:?}"
            );

            // Re-warm, then boundary 2: compact. Compaction drops the
            // tombstone and renumbers edge ids, so the old entries are
            // bit-stale even though the logical answers are unchanged —
            // the reference is the direct live path at the compacted epoch.
            for q in &queries {
                scheduled(q);
            }
            let rewarmed = handle.stats();
            assert!(rewarmed.answer_cache_served() > after_commit.answer_cache_served());
            v.compact();
            service.refresh();
            let post_compact: Vec<_> = queries
                .iter()
                .map(|q| service.query(q).expect("compacted direct path").matches)
                .collect();
            for (idx, q) in queries.iter().enumerate() {
                assert_eq!(
                    scheduled(q),
                    post_compact[idx],
                    "post-compaction response must reflect the renumbered epoch \
                     (query {idx})"
                );
            }
            let after_compact = handle.stats();
            assert!(
                after_compact.answer_cache_stale > rewarmed.answer_cache_stale,
                "the compaction epoch must invalidate warm entries: {after_compact:?}"
            );
        })
        .expect("valid scheduler config");
    }
    drop(deployment); // crash

    // Boundary 3: recovery. A fresh process opens the deployment; its
    // scheduler starts cold (nothing can be stale), re-warms, and serves —
    // every response equals the recovered direct path.
    let deployment = ShardedDeployment::open(&deploy_dir).expect("recover");
    let service = deployment.service(config());
    let recovered: Vec<_> = queries
        .iter()
        .map(|q| service.query(q).expect("recovered direct path").matches)
        .collect();
    BatchScheduler::serve(&service, SchedConfig::default(), |handle| {
        for _pass in 0..2 {
            for (idx, q) in queries.iter().enumerate() {
                match handle
                    .query_within(q, Duration::from_secs(30), Priority::Normal)
                    .outcome
                {
                    SchedOutcome::Exact(r) => assert_eq!(
                        r.matches, recovered[idx],
                        "post-recovery response diverged (query {idx})"
                    ),
                    other => panic!("slack deadline must stay exact, got {other:?}"),
                }
            }
        }
        let stats = handle.stats();
        assert_eq!(
            stats.answer_cache_stale, 0,
            "a cold cache has no stale entries"
        );
        assert_eq!(
            stats.answer_cache_served(),
            queries.len() as u64,
            "the second post-recovery pass is cache-served: {stats:?}"
        );
    })
    .expect("valid scheduler config");
}
