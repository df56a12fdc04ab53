//! Durable deployments: snapshot set + WAL + crash recovery, end to end.
//!
//! Builds a synthetic dataset, lays a 1-shard deployment directory on disk,
//! serves and mutates it, checkpoints, then simulates a crash (more
//! committed writes plus a staged-but-uncommitted tail, no clean shutdown)
//! and cold starts from disk — verifying the recovered service answers the
//! whole workload bit-identically to the service that never went down.
//!
//! ```sh
//! cargo run --example persistence --release
//! ```

use semkg::datagen::workload::produced_workload;
use semkg::kgraph::io::shard::{
    manifest_path, meta_path, read_manifest, shard_snapshot_path, wal_path,
};
use semkg::prelude::*;
use std::sync::Arc;

fn main() {
    let dir =
        std::env::temp_dir().join(format!("semkg_persistence_example_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ds = DatasetSpec::dbpedia_like(1.0).build();
    let workload = produced_workload(&ds);
    let config = SgqConfig {
        k: 20,
        ..SgqConfig::default()
    };

    // 1. Lay out the deployment: manifest + snapshot set at epoch 0,
    //    predicate space, transformation library, empty WAL — one shard.
    let deployment = ShardedDeployment::create(
        &dir,
        ds.graph.clone(),
        ds.oracle_space(),
        ds.library.clone(),
        1,
    )
    .expect("create deployment");
    println!(
        "created deployment in {} ({} nodes, {} edges)",
        dir.display(),
        ds.graph.node_count(),
        ds.graph.edge_count()
    );

    // 2. Serve it while a writer streams churn; every mutation is
    //    WAL-logged, every commit fsyncs an epoch marker.
    let service = deployment.service(config.clone());
    let live = Arc::clone(deployment.versioned());
    let ops = churn_stream(&ds, 2_000, 23);
    for (i, op) in ops[..1_000].iter().enumerate() {
        semkg::datagen::churn::apply_churn(&live, op);
        if (i + 1) % 100 == 0 {
            live.commit();
        }
    }
    service.refresh();

    // 3. Checkpoint: compact, fresh snapshot set, manifest flip, truncated
    //    WAL.
    let report = service.checkpoint().expect("checkpoint");
    println!(
        "checkpoint: epoch {} | {} nodes, {} edges | snapshot {} KiB | wal truncated",
        report.epoch,
        report.nodes,
        report.edges,
        report.snapshot_bytes / 1024
    );

    // 4. Keep writing after the checkpoint, then "crash": commit part of
    //    the stream, stage a tail that never commits, skip every clean
    //    shutdown path.
    for (i, op) in ops[1_000..].iter().enumerate() {
        semkg::datagen::churn::apply_churn(&live, op);
        if (i + 1) % 100 == 0 {
            live.commit();
        }
    }
    live.commit();
    live.insert_triple(("Unflushed_1", "Automobile"), "assembly", ("X", "Country"));
    live.insert_triple(("Unflushed_2", "Automobile"), "assembly", ("X", "Country"));
    service.refresh();
    let pre_crash_epoch = live.epoch();
    let mut pre_crash_answers = Vec::new();
    for q in &workload {
        pre_crash_answers.push(service.query(&q.graph).expect("pre-crash query"));
    }
    let store = live.stats();
    println!(
        "pre-crash: epoch {} | {} inserts, {} deletes, {} commits | 2 staged ops never committed",
        pre_crash_epoch, store.inserts, store.deletes, store.commits
    );
    drop(service);
    drop(deployment);
    drop(live); // crash: only the snapshot set + WAL survive

    // 5. Cold start: snapshot-set load + committed-epoch WAL replay.
    let t0 = std::time::Instant::now();
    let reopened = ShardedDeployment::open(&dir).expect("open deployment");
    let elapsed = t0.elapsed();
    let recovery = reopened.recovery();
    println!(
        "recovered in {elapsed:?}: epoch {} | {} ops over {} epochs replayed, {} uncommitted discarded",
        recovery.recovered_epoch,
        recovery.ops_replayed,
        recovery.epochs_replayed,
        recovery.discarded_ops
    );
    assert_eq!(recovery.recovered_epoch, pre_crash_epoch);

    // 6. The recovered service answers bit-identically.
    let restarted = reopened.service(config);
    let mut matches = 0usize;
    for (q, expected) in workload.iter().zip(&pre_crash_answers) {
        let got = restarted.query(&q.graph).expect("post-recovery query");
        assert_eq!(got.matches, expected.matches, "diverged on {}", q.id);
        matches += got.matches.len();
    }
    assert!(
        restarted
            .pin()
            .graph()
            .node_by_name("Unflushed_1")
            .is_none(),
        "uncommitted staged writes must not resurrect"
    );
    println!(
        "verified: {} queries, {matches} matches, all bit-identical across the restart",
        workload.len()
    );
    let snapshot_epoch = read_manifest(&dir).expect("manifest").epoch;
    println!("files:");
    for path in [
        manifest_path(&dir),
        meta_path(&dir, snapshot_epoch),
        shard_snapshot_path(&dir, 0, snapshot_epoch),
        wal_path(&dir, 0),
    ] {
        println!("  {}", path.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
