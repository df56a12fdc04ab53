//! Answer-cache and rebalance before/after: the PR's two serving claims.
//!
//! Two measurements, each gated on bit-identity first, numbers landing in
//! `BENCH_cache.json` at the workspace root:
//!
//! * **answer-cache throughput** — the scheduler's 80/20 closed loop
//!   (16 clients, `datagen::workload::RequestMix`, slack deadlines) with
//!   the semantic answer cache disabled (`answer_cache_capacity: 0`)
//!   versus enabled (the default 256 entries). Hot repeat signatures
//!   resolve at submit time without touching the engine, so the served
//!   q/s target is ≥ 1.5× — asserted softly (CI runners jitter; the
//!   committed JSON is the record), with the cache-hit shape printed from
//!   the scheduler's own counters;
//! * **skew rebalance** — the shard-hostile zipf stream behind a
//!   `ShardedDeployment`: observe `shard_skew()`, fire the
//!   [`sgq::Rebalancer`] after its sustained window, migrate, and report
//!   skew before/after plus moved buckets and migration wall-clock. The
//!   gate is answers bit-identical across the migration (the rebalance
//!   differential proves the same through crash cycles).

use criterion::{criterion_group, criterion_main, Criterion};
use datagen::dataset::DatasetSpec;
use datagen::workload::{produced_workload, skewed_triples, RequestMix, SkewSpec};
use embedding::PredicateSpace;
use kgraph::VersionedGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use sgq::sched::{BatchScheduler, Priority, SchedOutcome};
use sgq::{
    LiveQueryService, QueryGraph, RebalanceConfig, Rebalancer, SchedConfig, SgqConfig, SgqEngine,
    ShardedDeployment,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 16;
/// The shared 80/20 hot-set mix (`datagen::workload::RequestMix`).
const MIX: RequestMix = RequestMix {
    hot_fraction: 80,
    hot_set: 4,
};

#[derive(Serialize)]
struct ThroughputReport {
    unit: &'static str,
    clients: usize,
    hot_fraction: u64,
    hot_set: usize,
    cache_off: f64,
    cache_on: f64,
    speedup: f64,
    /// Of the cache-on run's requests: fraction served from the answer
    /// cache (exact + dominance hits over probes).
    hit_rate: f64,
}

#[derive(Serialize)]
struct RebalanceBenchReport {
    shards: usize,
    skew_before: f64,
    skew_after: f64,
    moved_buckets: usize,
    migrate_ms: f64,
    answers_identical: bool,
}

#[derive(Serialize)]
struct CacheReport {
    bench: &'static str,
    throughput: ThroughputReport,
    rebalance: RebalanceBenchReport,
}

/// Closed-loop scheduled throughput under `sched` config: q/s over
/// `duration`, plus the final scheduler stats snapshot.
fn run_closed_loop(
    service: &LiveQueryService<'_>,
    queries: &[QueryGraph],
    sched: SchedConfig,
    duration: Duration,
) -> (f64, sgq::sched::SchedStats) {
    let stop = AtomicBool::new(false);
    let completed = AtomicU64::new(0);
    let start = Instant::now();
    let stats = BatchScheduler::serve(service, sched, |handle| {
        std::thread::scope(|s| {
            for client in 0..CLIENTS {
                let stop = &stop;
                let completed = &completed;
                let handle = &handle;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xcace + client as u64);
                    while !stop.load(Ordering::Relaxed) {
                        let idx = MIX.pick(&mut rng, queries.len());
                        let r = handle.query_within(
                            &queries[idx],
                            Duration::from_secs(10),
                            Priority::Normal,
                        );
                        assert!(
                            matches!(r.outcome, SchedOutcome::Exact(_)),
                            "slack deadlines stay exact: {:?}",
                            r.outcome
                        );
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            std::thread::sleep(duration);
            stop.store(true, Ordering::Relaxed);
        });
        handle.stats()
    })
    .expect("scheduler config");
    (
        completed.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64(),
        stats,
    )
}

/// The rebalance section: fire the controller on the hostile stream,
/// migrate, and assert answers bit-identical across the migration.
fn run_rebalance() -> RebalanceBenchReport {
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
    let config = SgqConfig {
        k: 10,
        tau: 0.0,
        workers: 4,
        ..SgqConfig::default()
    };
    let queries: Vec<QueryGraph> = ["SkewEntity_0", "SkewEntity_7", "SkewEntity_1111"]
        .iter()
        .flat_map(|name| {
            let anchor_type = "SkewType_".to_string()
                + &name
                    .rsplit('_')
                    .next()
                    .unwrap()
                    .parse::<usize>()
                    .unwrap()
                    .rem_euclid(4)
                    .to_string();
            ["hot", "p0", "p3"].iter().map(move |pred| {
                let mut q = QueryGraph::new();
                let target = q.add_target("SkewType_2");
                let anchor = q.add_specific(name, &anchor_type);
                q.add_edge(target, pred, anchor);
                q
            })
        })
        .collect();

    let dir = std::env::temp_dir().join(format!("semkg_cache_bench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let deployment = ShardedDeployment::create(&dir, graph, space, library, spec.shards)
        .expect("create sharded deployment");
    let service = deployment.service(config);
    let before: Vec<_> = queries
        .iter()
        .map(|q| service.query(q).expect("pre-migration answers").matches)
        .collect();

    // One control tick per maintenance pass; the hostile layout keeps the
    // gauge above the default threshold, so the default window fires.
    let mut controller = Rebalancer::new(RebalanceConfig::default());
    let mut fired = false;
    for _tick in 0..8 {
        if controller.observe(service.stats().shard_skew()) {
            fired = true;
            break;
        }
    }
    assert!(fired, "sustained hostile skew must fire the controller");

    let t0 = Instant::now();
    let report = service.rebalance().expect("rebalance");
    let migrate_ms = t0.elapsed().as_secs_f64() * 1e3;
    service.refresh();
    let after: Vec<_> = queries
        .iter()
        .map(|q| service.query(q).expect("post-migration answers").matches)
        .collect();
    let identical = before == after;
    assert!(identical, "rebalance must never move an answer");
    drop(service);
    drop(deployment);
    let _ = std::fs::remove_dir_all(&dir);

    RebalanceBenchReport {
        shards: report.shard_count,
        skew_before: report.skew_before(),
        skew_after: report.skew_after(),
        moved_buckets: report.moved_buckets,
        migrate_ms,
        answers_identical: identical,
    }
}

fn bench_cache(c: &mut Criterion) {
    let ds = DatasetSpec::dbpedia_like(1.5).build();
    let space = ds.oracle_space();
    let queries: Vec<QueryGraph> = produced_workload(&ds)
        .into_iter()
        .map(|q| q.graph)
        .collect();
    let config = SgqConfig {
        k: 20,
        ..SgqConfig::default()
    };
    let service = LiveQueryService::new(
        Arc::new(VersionedGraph::new(ds.graph.clone())),
        &space,
        &ds.library,
        config.clone(),
    );
    let direct = SgqEngine::new(&ds.graph, &space, &ds.library, config);

    // Bit-identity gate before any timing: a warm cache answers every
    // workload query exactly like the direct engine.
    BatchScheduler::serve(&service, SchedConfig::default(), |handle| {
        for _pass in 0..2 {
            for (idx, q) in queries.iter().enumerate() {
                match handle
                    .query_within(q, Duration::from_secs(30), Priority::Normal)
                    .outcome
                {
                    SchedOutcome::Exact(r) => assert_eq!(
                        r.matches,
                        direct.query(q).expect("direct").matches,
                        "cached answer diverged on query {idx}"
                    ),
                    other => panic!("slack deadline must stay exact, got {other:?}"),
                }
            }
        }
        assert!(handle.stats().answer_cache_served() > 0);
    })
    .expect("scheduler config");

    let mut group = c.benchmark_group("cache");
    group.sample_size(10);
    group.bench_function("warm_cache_roundtrip", |b| {
        BatchScheduler::serve(&service, SchedConfig::default(), |handle| {
            b.iter(|| {
                black_box(handle.query_within(
                    &queries[0],
                    Duration::from_secs(10),
                    Priority::Normal,
                ))
            })
        })
        .expect("scheduler config");
    });
    group.finish();

    let phase = Duration::from_millis(2500);
    let (off_qps, _) = run_closed_loop(
        &service,
        &queries,
        SchedConfig {
            answer_cache_capacity: 0,
            ..SchedConfig::default()
        },
        phase,
    );
    let (on_qps, on_stats) = run_closed_loop(&service, &queries, SchedConfig::default(), phase);
    let speedup = on_qps / off_qps;
    let probes =
        on_stats.answer_cache_served() + on_stats.answer_cache_misses + on_stats.answer_cache_stale;
    let hit_rate = if probes > 0 {
        on_stats.answer_cache_served() as f64 / probes as f64
    } else {
        0.0
    };
    println!(
        "\nanswer cache at {CLIENTS} clients ({}% of traffic on {} hot queries):",
        MIX.hot_fraction, MIX.hot_set
    );
    println!("  cache off (batching only)           {off_qps:>10.0} q/s");
    println!("  cache on  (256-entry, epoch-keyed)  {on_qps:>10.0} q/s");
    println!("  speedup                             {speedup:>10.2}x  (target >= 1.50x)");
    println!(
        "  hit shape: {} exact + {} dominance of {probes} probes ({:.1}% hit rate)",
        on_stats.answer_cache_hits,
        on_stats.answer_cache_dominance_hits,
        hit_rate * 1e2
    );
    if speedup < 1.5 {
        println!("  WARNING: speedup below the 1.5x target on this run/host");
    }

    let rebalance = run_rebalance();
    println!(
        "\nskew rebalance ({} shards, hostile zipf stream):\n  skew {:.2} -> {:.2} \
         ({} buckets moved, {:.1} ms migration, answers identical: {})",
        rebalance.shards,
        rebalance.skew_before,
        rebalance.skew_after,
        rebalance.moved_buckets,
        rebalance.migrate_ms,
        rebalance.answers_identical,
    );

    let report = CacheReport {
        bench: "cache",
        throughput: ThroughputReport {
            unit: "q_per_s",
            clients: CLIENTS,
            hot_fraction: MIX.hot_fraction,
            hot_set: MIX.hot_set,
            cache_off: off_qps,
            cache_on: on_qps,
            speedup,
            hit_rate,
        },
        rebalance,
    };
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cache.json");
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(out, json + "\n").expect("BENCH_cache.json written");
    println!("wrote {out}");
}

criterion_group!(benches, bench_cache);
criterion_main!(benches);
