//! Sharded storage end to end: split, scatter-gather queries, imbalance
//! gauges, and the per-shard durable deployment.
//!
//! ```text
//! cargo run --release --example sharded
//! ```
//!
//! 1. Builds the seeded benchmark dataset and splits it into 4 shards —
//!    `SgqEngine<ShardedGraph>` answers are bit-identical to the monolithic
//!    engine (asserted here, proven exhaustively in
//!    `tests/sharded_differential.rs`).
//! 2. Prints the per-shard edge counts and skew ratio, for the balanced
//!    dataset and for the shard-hostile zipfian stream.
//! 3. Stands up a `ShardedDeployment` (per-shard snapshots + WALs under
//!    one epoch manifest), commits live writes, checkpoints, "crashes",
//!    and recovers — all shards back at one consistent epoch.

use datagen::dataset::DatasetSpec;
use datagen::workload::{produced_workload, skewed_triples, SkewSpec};
use kgraph::{GraphStats, GraphView, ShardedGraph};
use sgq::{SgqConfig, SgqEngine, ShardedDeployment};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let ds = DatasetSpec::dbpedia_like(1.0).build();
    let space = ds.oracle_space();
    let config = SgqConfig {
        k: 10,
        tau: 0.3,
        ..SgqConfig::default()
    };

    // --- 1. Scatter-gather queries over 4 shards -------------------------
    let mono = SgqEngine::new(&ds.graph, &space, &ds.library, config.clone());
    let balanced = ShardedGraph::from_graph(ds.graph.clone(), 4).expect("split");
    let sharded = SgqEngine::new(balanced, &space, &ds.library, config.clone());
    let workload = produced_workload(&ds);
    let t0 = Instant::now();
    let mut identical = 0;
    for bench_query in &workload {
        let a = mono.query(&bench_query.graph).expect("monolithic answers");
        let b = sharded.query(&bench_query.graph).expect("sharded answers");
        assert_eq!(
            a.matches, b.matches,
            "sharded answers must be bit-identical"
        );
        identical += 1;
    }
    println!(
        "ran {identical} queries on 1 and 4 shards in {:?} — every answer bit-identical",
        t0.elapsed()
    );
    let (_, tr) = sharded
        .query_with_trace(&workload[0].graph)
        .expect("traced answers");
    println!(
        "phase trace: seed {} us | expand {} us over {} rounds | merge {} us | total {} us",
        tr.seed_ns / 1_000,
        tr.expand_ns / 1_000,
        tr.rounds,
        tr.merge_ns / 1_000,
        tr.total_ns / 1_000
    );

    // --- 2. Imbalance gauges ---------------------------------------------
    println!("balanced dataset: {}", GraphStats::of(sharded.graph()));
    let hostile = kgraph::io::graph_from_triples(skewed_triples(&SkewSpec::default()));
    let hostile = ShardedGraph::from_graph(hostile, 4).expect("split");
    println!("shard-hostile stream: {}", GraphStats::of(&hostile));

    // --- 3. Per-shard durable deployment ---------------------------------
    let dir = std::env::temp_dir().join(format!("sgq_sharded_example_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let deployment =
        ShardedDeployment::create(&dir, ds.graph.clone(), space.clone(), ds.library.clone(), 4)
            .expect("create deployment");
    let service = deployment.service(config.clone());
    let store = Arc::clone(deployment.versioned());
    for i in 0..50 {
        store.insert_triple(
            (format!("LiveCar_{i}").as_str(), "Automobile"),
            "assembly",
            (ds.countries[i % ds.countries.len()].as_str(), "Country"),
        );
    }
    store.commit();
    service.refresh();
    let before = service.query(&workload[0].graph).expect("live answers");
    let report = service.checkpoint().expect("sharded checkpoint");
    println!(
        "checkpointed epoch {} ({} nodes, {} edges, {} bytes across meta + 4 shard slices)",
        report.epoch, report.nodes, report.edges, report.snapshot_bytes
    );
    store.insert_triple(
        ("Phantom", "Automobile"),
        "assembly",
        ("Germany", "Country"),
    );
    drop(service);
    drop(deployment); // crash: the staged Phantom write never committed
    drop(store);

    let reopened = ShardedDeployment::open(&dir).expect("recover");
    println!(
        "recovered to epoch {} (replayed {} ops, discarded {} uncommitted)",
        reopened.recovery().recovered_epoch,
        reopened.recovery().ops_replayed,
        reopened.recovery().discarded_ops
    );
    let service = reopened.service(config);
    let after = service
        .query(&workload[0].graph)
        .expect("recovered answers");
    assert_eq!(
        before.matches, after.matches,
        "recovery must be bit-identical"
    );
    assert!(service.pin().graph().node_by_name("Phantom").is_none());
    println!("post-recovery answers bit-identical; uncommitted write discarded");

    // The recovery report is also registered as gauges — scrapeable from
    // the live service's registry like every other metric.
    let prom = service.metrics().to_prometheus();
    println!("\nrecovery metrics exposed for scraping:");
    for line in prom.lines().filter(|l| {
        !l.starts_with('#') && (l.starts_with("sgq_recovery") || l.starts_with("sgq_epoch"))
    }) {
        println!("   {line}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
