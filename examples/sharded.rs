//! The sharded durable deployment end to end: per-shard snapshots and
//! WALs under one epoch manifest, live commits, a checkpoint, a crash and
//! recovery.
//!
//! ```text
//! cargo run --release --example sharded
//! ```
//!
//! Stands up a 4-shard `ShardedDeployment`, commits live writes, prints
//! the shard count and live triples (`ServiceStats::{shard_count,
//! graph_edges}`), checkpoints, "crashes" with an uncommitted write staged, and recovers —
//! all shards back at one consistent epoch, answers bit-identical.
//! Queries always run on one monolithic epoch view; the shard count only
//! shapes the files on disk.

use datagen::dataset::DatasetSpec;
use datagen::workload::produced_workload;
use kgraph::GraphView;
use sgq::{SgqConfig, ShardedDeployment};
use std::sync::Arc;

fn main() {
    let ds = DatasetSpec::dbpedia_like(1.0).build();
    let space = ds.oracle_space();
    let config = SgqConfig {
        k: 10,
        tau: 0.3,
        ..SgqConfig::default()
    };
    let workload = produced_workload(&ds);

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
    let stats = service.stats();
    println!(
        "epoch {}: {} shards, {} triples",
        stats.epoch, stats.shard_count, stats.graph_edges
    );
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
